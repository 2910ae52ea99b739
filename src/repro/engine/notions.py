"""The pluggable notion registry: one object per equivalence notion.

The paper studies a spectrum of equivalences over the same process model;
previously each lived in its own free function and the CLI / CCS layers kept
parallel hard-coded dicts mapping notion names to functions.  This module
replaces those dicts with a registry of :class:`Notion` objects.  A notion
knows

* how to *decide* equivalence of two cached :class:`~repro.engine.process.Process`
  handles, reusing their artifacts (interned and saturated kernels,
  observational quotients, language DFAs) so repeated checks against the
  same process are cheap;
* how to produce a checkable :class:`~repro.engine.verdict.Witness` on
  inequivalence;
* which keyword parameters it accepts (``k``, solver ``method``, search
  bounds), so the engine can reject typos instead of silently ignoring them;
* how to adapt itself to the star-expression world (the CCS equivalence
  problem of Section 2.3).

Third parties register additional notions with :func:`register_notion`; the
CLI's ``--notion`` choices and the engine's dispatch both read the registry,
so a registered notion is immediately usable everywhere.

Strong and observational checks compare the two start states as states of
one process, as the paper does, built at kernel level: the disjoint union
(:meth:`~repro.core.lts.LTS.disjoint_union`) of the two handles' cached
kernels -- the plain CSR kernels for strong equivalence, the saturated
kernels ``P_hat`` for observational equivalence.  No arc crosses the union,
so saturating it would give the union of the two saturations: each side is
saturated at most once per handle, and a warm side not at all.  One partition
of the union decides the pair, and the HML witness is built along the
refinement chain of the same union.

Failure and ``k``-observational checks run on the union of the two
*observational quotients* instead, because their subset constructions are
exponential in the number of states and shrinking first pays off.  This is
sound: each quotient is equivalent to its input (state-wise at the start),
the notions are transitive, and observational equivalence refines both
failure equivalence and every ``approx_k`` (``approx`` is the intersection
of the decreasing ``approx_k`` chain; weak-bisimilar states have matching
weak derivatives, hence equal refusal information), so the answer on the
quotients equals the answer on the originals.  The property tests
cross-check every notion against the direct reference routes on random
processes.  Caller-supplied search bounds (``max_states`` and friends) are
honoured by running the original, un-quotiented route, so bounded calls
raise :class:`~repro.core.errors.StateSpaceLimitError` exactly as before.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any

from repro.core.classify import ModelClass, require
from repro.core.fsp import FSP
from repro.core.lts import LTS
from repro.engine.process import Process
from repro.engine.verdict import FormulaWitness, RefusalWitness, Witness, WordWitness
from repro.equivalence.failure import failure_distinguishing_string, maximal_refusals
from repro.equivalence.hml import distinguishing_formula, formula_size
from repro.equivalence.kobs import k_observational_equivalent
from repro.equivalence.language import language_nfa
from repro.partition.generalized import GeneralizedPartitioningInstance, Solver, solve

_LEFT = "L:"
_RIGHT = "R:"


@dataclass(frozen=True)
class NotionResult:
    """What a notion reports back to the engine for one pair."""

    equivalent: bool
    witness: Witness | None = None
    details: dict[str, Any] = field(default_factory=dict)


class Notion(ABC):
    """One equivalence notion, pluggable into the engine and the CLI.

    Subclasses set :attr:`name` (the registry key), optionally
    :attr:`aliases`, and :attr:`param_names` (accepted keyword parameters);
    they implement :meth:`check` over two cached process handles.  The
    expression hooks adapt the notion to the CCS equivalence problem:
    :meth:`prepare_expression_fsp` post-processes the representative FSP
    (e.g. the restricted reading failure semantics needs) and
    :meth:`decide_expressions` may answer directly from the expressions
    (language equivalence uses the regular-expression decision procedure).
    """

    name: str = ""
    aliases: tuple[str, ...] = ()
    description: str = ""
    #: keyword parameters accepted by :meth:`check` with their defaults.  The
    #: engine rejects unknown parameters, types the rest by their defaults
    #: (:func:`repro.engine.request.typed_param`: bool, int >= 0, solver,
    #: optional bound or string) and *canonicalises* them against these
    #: defaults before caching, so ``check(p, q, "failure")`` and
    #: ``check(p, q, "failure", max_macro_states=None)`` share one verdict.
    param_defaults: dict[str, Any] = {}
    #: whether expressions can be compared under this notion.
    supports_expressions: bool = True
    #: whether :meth:`check` can produce a witness on inequivalence.
    provides_witness: bool = True

    @property
    def param_names(self) -> frozenset[str]:
        return frozenset(self.param_defaults)

    @abstractmethod
    def check(
        self, left: Process, right: Process, want_witness: bool, **params: Any
    ) -> NotionResult:
        """Decide the notion for the start states of two aligned processes."""

    def normalize_params(self, params: dict[str, Any]) -> dict[str, Any]:
        """Canonicalise typed parameters (also used as part of the cache key).

        Override it for parameters whose default does not say their type.
        """
        return params

    # -- star-expression hooks ------------------------------------------
    def prepare_expression_fsp(self, fsp: FSP) -> FSP:
        """Adapt a representative FSP to this notion's model class."""
        return fsp

    def decide_expressions(self, left_expr, right_expr) -> bool | None:
        """Decide directly on the expressions, or None to use the FSP route."""
        return None

    def expression_witness(self, left: FSP, right: FSP) -> Witness | None:
        """A witness for a :meth:`decide_expressions` inequivalence."""
        return None

    def __repr__(self) -> str:
        return f"<Notion {self.name!r}>"


class StrongNotion(Notion):
    """Strong equivalence ``~`` (Section 3 / Theorem 3.1)."""

    name = "strong"
    aliases = ("bisimulation",)
    description = "strong (bisimulation) equivalence; tau treated as a label"
    param_defaults = {
        "method": Solver.PAIGE_TARJAN,
        "require_observable": False,
        "backend": "auto",
    }

    def check(
        self,
        left: Process,
        right: Process,
        want_witness: bool,
        method: Solver | str = Solver.PAIGE_TARJAN,
        require_observable: bool = False,
        backend: str = "auto",
    ) -> NotionResult:
        if require_observable:
            require(left.fsp, ModelClass.OBSERVABLE, context="strong equivalence")
            require(right.fsp, ModelClass.OBSERVABLE, context="strong equivalence")
        return _decide_on_union(left.lts(), right.lts(), method, backend, want_witness, weak=False)


class ObservationalNotion(Notion):
    """Observational equivalence ``approx`` (Theorem 4.1(a))."""

    name = "observational"
    aliases = ("weak",)
    description = "observational (weak bisimulation) equivalence"
    param_defaults = {"method": Solver.PAIGE_TARJAN, "backend": "auto"}

    def check(
        self,
        left: Process,
        right: Process,
        want_witness: bool,
        method: Solver | str = Solver.PAIGE_TARJAN,
        backend: str = "auto",
    ) -> NotionResult:
        return _decide_on_union(
            left.saturated_lts(backend),
            right.saturated_lts(backend),
            method,
            backend,
            want_witness,
            weak=True,
        )


def _decide_on_union(
    left: LTS, right: LTS, method: Solver | str, backend: str, want_witness: bool, weak: bool
) -> NotionResult:
    """Decide the start states of two move kernels as states of their union.

    One partition of the union answers the pair (Lemma 3.1 on the plain
    kernels, Theorem 4.1(a) on the saturated ones); on inequivalence the
    HML witness is built along the refinement chain of the same union.
    """
    union = left.disjoint_union(right)
    first, second = left.start, left.n + right.start
    instance = GeneralizedPartitioningInstance.from_lts(union)
    partition = solve(instance, method=method, backend=backend)
    names = union.state_names
    equivalent = partition.same_block(names[first], names[second])
    details: dict[str, Any] = {"union_states": union.n, "union_blocks": len(partition)}
    witness: Witness | None = None
    if want_witness and not equivalent:
        formula = distinguishing_formula(union, first, second, weak=weak)
        if formula is not None:  # always reachable on inequivalence
            witness = FormulaWitness(formula, weak=weak)
            details["witness_size"] = formula_size(formula)
    return NotionResult(equivalent, witness, details)


class KObservationalNotion(Notion):
    """``k``-observational equivalence ``approx_k`` (Definition 2.2.1)."""

    name = "k-observational"
    aliases = ("kobs",)
    description = "approx_k: weak-derivative matching down to depth k"
    param_defaults = {"k": 1, "max_subset_states": None}

    def check(
        self,
        left: Process,
        right: Process,
        want_witness: bool,
        k: int = 1,
        max_subset_states: int | None = None,
    ) -> NotionResult:
        if max_subset_states is None:
            left_fsp = left.minimized_observational()
            right_fsp = right.minimized_observational()
        else:
            # Honour the caller's subset-construction bound on the original
            # state space, so the bound means what it always meant.
            left_fsp, right_fsp = left.fsp, right.fsp
        combined = left_fsp.disjoint_union(right_fsp)
        first, second = _LEFT + left_fsp.start, _RIGHT + right_fsp.start
        equivalent = k_observational_equivalent(
            combined, first, second, k, max_subset_states=max_subset_states
        )
        witness: Witness | None = None
        if want_witness and not equivalent:
            # approx refines every approx_k, so a level-k difference implies
            # observational inequivalence and a weak distinguishing formula.
            formula = distinguishing_formula(combined, first, second, weak=True)
            if formula is not None:  # always reachable on inequivalence
                witness = FormulaWitness(formula, weak=True)
        return NotionResult(equivalent, witness, {"k": k})


class LanguageNotion(Notion):
    """Language (weak-trace acceptance) equivalence -- the classical baseline."""

    name = "language"
    aliases = ("trace",)
    description = "classical language equivalence of the weak-transition NFAs"
    param_defaults = {"max_states": None}

    def check(
        self,
        left: Process,
        right: Process,
        want_witness: bool,
        max_states: int | None = None,
    ) -> NotionResult:
        if max_states is not None:
            from repro.automata.equivalence import nfa_distinguishing_word, nfa_equivalent

            left_nfa = language_nfa(left.fsp)
            right_nfa = language_nfa(right.fsp)
            equivalent = nfa_equivalent(left_nfa, right_nfa, max_states=max_states)
            witness: Witness | None = None
            if want_witness and not equivalent:
                word = nfa_distinguishing_word(left_nfa, right_nfa, max_states=max_states)
                if word is not None:  # always reachable on inequivalence
                    witness = WordWitness(word, in_left=left_nfa.accepts(word))
            return NotionResult(equivalent, witness, {"route": "nfa"})
        from repro.automata.equivalence import dfa_equivalent, distinguishing_word

        left_dfa = left.language_dfa()
        right_dfa = right.language_dfa()
        equivalent = dfa_equivalent(left_dfa, right_dfa)
        witness = None
        if want_witness and not equivalent:
            word = distinguishing_word(left_dfa, right_dfa)
            if word is not None:  # always reachable on inequivalence
                witness = WordWitness(word, in_left=left_dfa.accepts(word))
        return NotionResult(
            equivalent,
            witness,
            {
                "route": "dfa",
                "left_dfa_states": len(left_dfa.states),
                "right_dfa_states": len(right_dfa.states),
            },
        )

    def decide_expressions(self, left_expr, right_expr) -> bool | None:
        from repro.expressions.regular import regular_equivalent

        return regular_equivalent(left_expr, right_expr)

    def expression_witness(self, left: FSP, right: FSP) -> Witness | None:
        from repro.automata.equivalence import nfa_distinguishing_word

        left_nfa = language_nfa(left)
        word = nfa_distinguishing_word(left_nfa, language_nfa(right))
        if word is None:
            return None
        return WordWitness(word, in_left=left_nfa.accepts(word))


class FailureNotion(Notion):
    """Failure equivalence (Section 5 / Theorem 5.1) on the restricted model."""

    name = "failure"
    aliases = ("failures",)
    description = "failure-set equality (restricted model)"
    param_defaults = {"max_macro_states": None}

    def check(
        self,
        left: Process,
        right: Process,
        want_witness: bool,
        max_macro_states: int | None = None,
    ) -> NotionResult:
        require(left.fsp, ModelClass.RESTRICTED, context="failure equivalence")
        require(right.fsp, ModelClass.RESTRICTED, context="failure equivalence")
        if max_macro_states is None:
            # Observational equivalence refines failure equivalence, so the
            # observational quotients have the same failure sets.
            left_fsp = left.minimized_observational()
            right_fsp = right.minimized_observational()
        else:
            left_fsp, right_fsp = left.fsp, right.fsp
        combined = left_fsp.disjoint_union(right_fsp)
        first, second = _LEFT + left_fsp.start, _RIGHT + right_fsp.start
        string = failure_distinguishing_string(
            combined, first, second, max_macro_states=max_macro_states
        )
        if string is None:
            return NotionResult(True)
        witness = self._refusal_witness(combined, first, second, string) if want_witness else None
        return NotionResult(False, witness)

    @staticmethod
    def _refusal_witness(
        combined: FSP, first: str, second: str, string: tuple[str, ...]
    ) -> RefusalWitness:
        """Turn a distinguishing string into a concrete one-sided failure pair."""
        from repro.core.derivatives import WeakTransitionView

        view = WeakTransitionView(combined)
        left_macro = view.epsilon_closure(first)
        right_macro = view.epsilon_closure(second)
        for action in string:
            left_macro = view.weak_successors_of_set(left_macro, action)
            right_macro = view.weak_successors_of_set(right_macro, action)
        if bool(left_macro) != bool(right_macro):
            # Only one side has a string-derivative: (string, {}) is a
            # failure of that side alone.
            return RefusalWitness(string, frozenset(), in_left=bool(left_macro))
        left_max = maximal_refusals(combined, left_macro, view)
        right_max = maximal_refusals(combined, right_macro, view)
        for in_left, mine, theirs in ((True, left_max, right_max), (False, right_max, left_max)):
            uncovered = [ref for ref in mine if not any(ref <= other for other in theirs)]
            if uncovered:
                # The least by (size, sorted names): no set iteration order
                # (hence no hash seed) decides which refusal is reported.
                refusal = min(uncovered, key=lambda ref: (len(ref), sorted(ref)))
                return RefusalWitness(string, refusal, in_left=in_left)
        raise AssertionError(
            "distinguishing string does not separate the refusal information"
        )  # pragma: no cover - the search only returns separating strings

    def prepare_expression_fsp(self, fsp: FSP) -> FSP:
        """Read the representative FSP as a restricted process (all accepting).

        Failure equivalence is defined on the restricted model; marking every
        state accepting is the standard move the paper itself makes when it
        reads star expressions as restricted processes in Section 4.
        """
        return FSP(
            states=fsp.states,
            start=fsp.start,
            alphabet=fsp.alphabet,
            transitions=fsp.transitions,
            variables=fsp.variables | {"x"},
            extensions=set(fsp.extensions) | {(state, "x") for state in fsp.states},
        )


# ----------------------------------------------------------------------
# the registry
# ----------------------------------------------------------------------
_REGISTRY: dict[str, Notion] = {}
_ALIASES: dict[str, str] = {}


def register_notion(notion: Notion, replace: bool = False) -> Notion:
    """Add a notion to the registry (its name and aliases become lookup keys)."""
    if not notion.name:
        raise ValueError("a notion must have a non-empty name")
    if not replace and notion.name in _REGISTRY:
        raise ValueError(f"notion {notion.name!r} is already registered")
    _REGISTRY[notion.name] = notion
    for alias in notion.aliases:
        _ALIASES[alias] = notion.name
    return notion


def unregister_notion(name: str) -> None:
    """Remove a notion (used by tests and plugin teardown)."""
    notion = _REGISTRY.pop(name, None)
    if notion is not None:
        for alias in notion.aliases:
            _ALIASES.pop(alias, None)


def get_notion(name: str | Notion) -> Notion:
    """Look a notion up by name or alias; raises with the known names."""
    if isinstance(name, Notion):
        return name
    key = _ALIASES.get(name, name)
    notion = _REGISTRY.get(key)
    if notion is None:
        known = ", ".join(sorted(_REGISTRY))
        raise ValueError(f"unknown equivalence notion {name!r}; registered notions: {known}")
    return notion


def available_notions() -> tuple[str, ...]:
    """The registered notion names, sorted."""
    return tuple(sorted(_REGISTRY))


def expression_notions() -> tuple[str, ...]:
    """The registered notions applicable to star expressions, sorted."""
    return tuple(sorted(name for name, n in _REGISTRY.items() if n.supports_expressions))


for _notion in (
    StrongNotion(),
    ObservationalNotion(),
    KObservationalNotion(),
    LanguageNotion(),
    FailureNotion(),
):
    register_notion(_notion)
