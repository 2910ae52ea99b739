"""Hennessy-Milner logic and distinguishing formulas.

Hennessy & Milner (1985) -- cited by the paper as the logical companion of the
equivalence theory -- characterise strong bisimilarity on finite-branching
processes: two states are strongly equivalent iff they satisfy the same
Hennessy-Milner logic (HML) formulas.  The library uses this in the other
direction: when two states are *not* equivalent, a distinguishing formula is a
compact, human-readable certificate of the difference, which the examples and
the failure counterexamples surface to users.

Formulas are built from ``tt``, negation, finite conjunction, the (strong)
diamond ``<a>phi``, the weak diamond ``<<a>>phi`` (over ``=>^a``), and an
extension atom ``ext(V)`` asserting that the state's extension set equals
``V`` (needed because the paper's equivalences compare extensions at level 0).

:func:`distinguishing_formula` produces a formula satisfied by the first state
but not the second whenever they are distinguished by the chosen equivalence
(strong or observational); it works level by level along the refinement chain,
which guarantees termination and yields formulas of modal depth equal to the
separation level.  The levels are the passes of the naive method of Lemma 3.2
(:func:`repro.partition.naive.naive_passes`) on the integer kernel: the plain
CSR :class:`~repro.core.lts.LTS` for strong equivalence (tau as a label), the
saturated kernel ``P_hat`` of :func:`repro.core.weak.saturate_lts` for
observational equivalence, where pass ``k`` is ``simeq_k`` (Definition
2.2.2).  A caller that already holds that kernel (the engine's union kernel)
passes it with integer state indices.  Answering states are taken one per
block of the previous level and subformulas are memoised per pair, so a
witness repeats no conjunct.  :func:`satisfies` checks formulas on the
original FSP through :class:`~repro.core.derivatives.WeakTransitionView`, so
the code that builds a witness and the code that checks it stay separate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from repro.core.derivatives import WeakTransitionView
from repro.core.fsp import EPSILON, FSP
from repro.core.lts import LTS
from repro.core.weak import saturate_lts
from repro.partition.naive import naive_passes
from repro.partition.partition import PartitionError
from repro.partition.refinable import RefinablePartition


# ----------------------------------------------------------------------
# formula syntax
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Tt:
    """The formula ``tt`` satisfied by every state."""

    def __str__(self) -> str:
        return "tt"


@dataclass(frozen=True)
class ExtensionIs:
    """Atom asserting the state's extension set equals ``extension``."""

    extension: frozenset[str]

    def __str__(self) -> str:
        inner = ", ".join(sorted(self.extension))
        return f"ext({{{inner}}})"


@dataclass(frozen=True)
class Not:
    """Negation."""

    operand: "Formula"

    def __str__(self) -> str:
        return f"¬({self.operand})"


@dataclass(frozen=True)
class And:
    """Finite conjunction."""

    operands: tuple["Formula", ...]

    def __str__(self) -> str:
        if not self.operands:
            return "tt"
        return "(" + " ∧ ".join(str(op) for op in self.operands) + ")"


@dataclass(frozen=True)
class Diamond:
    """The strong diamond ``<action> operand``: some ``action``-successor satisfies it."""

    action: str
    operand: "Formula"

    def __str__(self) -> str:
        return f"<{self.action}>({self.operand})"


@dataclass(frozen=True)
class WeakDiamond:
    """The weak diamond ``<<action>> operand`` over the weak transition ``=>^action``.

    ``action`` may be the empty string, in which case the modality quantifies
    over ``=>^epsilon`` (tau-reachability).
    """

    action: str
    operand: "Formula"

    def __str__(self) -> str:
        label = self.action if self.action else "ε"
        return f"<<{label}>>({self.operand})"


Formula = Union[Tt, ExtensionIs, Not, And, Diamond, WeakDiamond]


def modal_depth(formula: Formula) -> int:
    """The nesting depth of modalities, matching the ``k`` of ``approx_k``/``simeq_k``."""
    if isinstance(formula, (Tt, ExtensionIs)):
        return 0
    if isinstance(formula, Not):
        return modal_depth(formula.operand)
    if isinstance(formula, And):
        return max((modal_depth(op) for op in formula.operands), default=0)
    return 1 + modal_depth(formula.operand)


def formula_size(formula: Formula) -> int:
    """The number of nodes of the formula tree (a shared subformula counts per occurrence)."""
    if isinstance(formula, (Tt, ExtensionIs)):
        return 1
    if isinstance(formula, And):
        return 1 + sum(formula_size(operand) for operand in formula.operands)
    return 1 + formula_size(formula.operand)


# ----------------------------------------------------------------------
# satisfaction
# ----------------------------------------------------------------------
def satisfies(
    fsp: FSP, state: str, formula: Formula, view: WeakTransitionView | None = None
) -> bool:
    """Whether ``state`` satisfies ``formula`` in ``fsp``."""
    if isinstance(formula, Tt):
        return True
    if isinstance(formula, ExtensionIs):
        return fsp.extension(state) == formula.extension
    if isinstance(formula, Not):
        return not satisfies(fsp, state, formula.operand, view)
    if isinstance(formula, And):
        return all(satisfies(fsp, state, operand, view) for operand in formula.operands)
    if isinstance(formula, Diamond):
        return any(
            satisfies(fsp, successor, formula.operand, view)
            for successor in fsp.successors(state, formula.action)
        )
    if isinstance(formula, WeakDiamond):
        view = view if view is not None else WeakTransitionView(fsp)
        if formula.action:
            successors = view.weak_successors(state, formula.action)
        else:
            successors = view.epsilon_closure(state)
        return any(satisfies(fsp, successor, formula.operand, view) for successor in successors)
    raise TypeError(f"not an HML formula: {formula!r}")


# ----------------------------------------------------------------------
# distinguishing formulas
# ----------------------------------------------------------------------
def distinguishing_formula(
    process: FSP | LTS, first: str | int, second: str | int, weak: bool = False
) -> Formula | None:
    """A formula satisfied by ``first`` but not by ``second``, or None.

    ``weak=False`` distinguishes with respect to strong equivalence (tau
    treated as a label), ``weak=True`` with respect to observational
    equivalence (weak diamonds).  Returns None when the states are equivalent
    in the chosen sense, in which case no HML formula can separate them.

    ``process`` is an FSP with ``first``/``second`` state names, or a move
    kernel with integer state indices: an :class:`~repro.core.lts.LTS` whose
    arcs are the moves of the chosen equivalence -- the plain kernel for
    strong, the saturated kernel ``P_hat`` for weak -- such as the union
    kernel the engine decides a pair on.
    """
    if isinstance(process, LTS):
        lts = process
        left, right = _checked_index(lts, first), _checked_index(lts, second)
    else:
        lts = LTS.from_fsp(process, include_tau=True)
        if weak:
            lts = saturate_lts(lts)
        left, right = _state_index(lts, first), _state_index(lts, second)
    block_of, num_blocks = lts.extension_block_ids()
    passes = naive_passes(lts, RefinablePartition(block_of, num_blocks))
    levels = [block_of]
    while levels[-1][left] == levels[-1][right]:
        level = next(passes, None)
        if level is None:
            return None
        levels.append(level)
    return _distinguish(lts, levels, left, right, weak, {})


def _state_index(lts: LTS, name: str) -> int:
    try:
        return lts.state_names.index(name)
    except ValueError:
        raise PartitionError(f"{name!r} is not an element of this partition") from None


def _checked_index(lts: LTS, state: int) -> int:
    if not 0 <= state < lts.n:
        raise PartitionError(f"state index {state!r} out of range for {lts.n} states")
    return state


def _distinguish(
    lts: LTS,
    levels: list[list[int]],
    first: int,
    second: int,
    weak: bool,
    memo: dict[tuple[int, int], Formula],
) -> Formula:
    """Build a formula separating the two states, of modal depth their separation level.

    ``levels[k]`` is the block array of level ``k`` of the refinement chain
    on ``lts`` (the saturated kernel when ``weak``), and the two states lie
    in different blocks of the last level.  An arc of ``lts`` is one move of
    the chosen equivalence; the epsilon arcs of the saturated kernel become
    ``<<>>`` (``=>^epsilon``) modalities.  ``memo`` holds the formulas built
    so far per pair (a pair fixes its separation level), so a subformula the
    recursion meets twice is built once and shared.
    """
    if (first, second) in memo:
        return memo[first, second]
    level = next(k for k, blocks in enumerate(levels) if blocks[first] != blocks[second])
    if level == 0:
        return memo.setdefault((first, second), ExtensionIs(lts.ext_sets[first]))
    previous = levels[level - 1]
    offsets, arc_actions, arc_targets = lts.fwd_offsets, lts.fwd_actions, lts.fwd_targets
    # Try to find a move of `first` that `second` cannot match up to the
    # previous level; if none exists the witness lies on `second`'s side and
    # the distinguishing formula is negated.
    for swap in (False, True):
        left, right = (second, first) if swap else (first, second)
        answers: dict[int, list[int]] = {}
        for i in range(offsets[right], offsets[right + 1]):
            answers.setdefault(arc_actions[i], []).append(arc_targets[i])
        for i in range(offsets[left], offsets[left + 1]):
            target = arc_targets[i]
            candidates = answers.get(arc_actions[i], [])
            if any(previous[target] == previous[candidate] for candidate in candidates):
                continue
            # Candidates in one block of the previous level satisfy the same
            # formulas below that level: one conjunct per block excludes them
            # all, at the same modal depth.
            per_block: dict[int, int] = {}
            for candidate in candidates:
                per_block.setdefault(previous[candidate], candidate)
            conjuncts = tuple(
                dict.fromkeys(
                    _distinguish(lts, levels, target, candidate, weak, memo)
                    for candidate in per_block.values()
                )
            )
            operand: Formula = And(conjuncts) if conjuncts else Tt()
            action = lts.action_names[arc_actions[i]]
            formula: Formula = (
                WeakDiamond("" if action == EPSILON else action, operand)
                if weak
                else Diamond(action, operand)
            )
            return memo.setdefault((first, second), Not(formula) if swap else formula)
    # Unreachable: states split by pass `level` have a move that the other
    # cannot match up to the previous level.
    raise AssertionError("states are not distinguishable at the requested level")
