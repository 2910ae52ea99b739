"""The :class:`Process` handle: one FSP, every derived artifact cached once.

The server-style workloads the ROADMAP targets ask many questions about the
same process -- repeated equivalence queries, minimisation, language checks.
Each of the old free functions recompiled the full ``FSP -> LTS ->
WeakKernel -> partition`` pipeline per call; a :class:`Process` wraps the FSP
and materialises each derived artifact lazily, exactly once:

===========================  ====================================================
artifact                     producer
===========================  ====================================================
``lts()``                    :meth:`repro.core.lts.LTS.from_fsp` (CSR kernel)
``weak_kernel()``            :class:`repro.core.weak.WeakKernel` (tau-SCC+bitsets)
``weak_view()``              :class:`repro.core.derivatives.WeakTransitionView`
                             sharing the same kernel
``saturated_lts()``          :func:`repro.core.weak.saturate_lts` (``P_hat``)
``strong_partition()``       Lemma 3.1 reduction + a partition solver
``observational_partition``  Theorem 4.1(a): saturation + strong refinement
``minimized_strong()``       quotient by the cached strong partition
``minimized_observational``  quotient by the cached observational partition
``language_dfa()``           minimal DFA of the start state's weak language
===========================  ====================================================

Handles are cheap to create; all caches fill on first use.  A handle is tied
to one immutable FSP, so cached artifacts never go stale.  Backends default to
``"auto"``, like the engine and the notions, and are resolved before the cache
lookup, so an auto-dispatched call and an explicit call to the backend it picks
share one cache slot.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING

from repro.core.derivatives import WeakTransitionView
from repro.core.fsp import FSP
from repro.core.lts import LTS
from repro.core.weak import WeakKernel, saturate_lts
from repro.equivalence.minimize import quotient
from repro.partition.generalized import (
    GeneralizedPartitioningInstance,
    Solver,
    resolve_backend,
    solve,
)
from repro.partition.partition import Partition

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.automata.dfa import DFA


class Process:
    """A handle around one FSP with lazily cached derived artifacts."""

    __slots__ = (
        "fsp",
        "_lts",
        "_weak_kernel",
        "_weak_view",
        "_saturated_lts",
        "_strong_partitions",
        "_observational_partitions",
        "_minimized_strong",
        "_minimized_observational",
        "_language_dfa",
    )

    def __init__(self, fsp: FSP) -> None:
        if not isinstance(fsp, FSP):
            raise TypeError(f"Process wraps an FSP, not {type(fsp).__name__}")
        self.fsp = fsp
        self._lts: LTS | None = None
        self._weak_kernel: WeakKernel | None = None
        self._weak_view: WeakTransitionView | None = None
        self._saturated_lts: dict[str, LTS] = {}
        self._strong_partitions: dict[tuple[Solver, str], Partition] = {}
        self._observational_partitions: dict[tuple[Solver, str], Partition] = {}
        self._minimized_strong: dict[tuple[Solver, str], FSP] = {}
        self._minimized_observational: dict[tuple[Solver, str], FSP] = {}
        self._language_dfa: DFA | None = None

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_file(cls, path: str | Path) -> "Process":
        """Load a handle from a ``.json`` or ``.aut`` process file."""
        from repro.utils.serialization import load_process_file

        return cls(load_process_file(path))

    @classmethod
    def from_expression(cls, expression, alphabet=None) -> "Process":
        """A handle on the representative FSP of a star expression."""
        from repro.expressions.parser import parse
        from repro.expressions.semantics import representative_fsp

        parsed = parse(expression) if isinstance(expression, str) else expression
        return cls(representative_fsp(parsed, alphabet=alphabet))

    @classmethod
    def from_ccs(cls, term: str, definitions=None, max_states: int = 10_000) -> "Process":
        """A handle on the FSP compiled from a CCS term."""
        from repro.ccs.parser import parse_process
        from repro.ccs.semantics import compile_to_fsp

        return cls(compile_to_fsp(parse_process(term), definitions, max_states=max_states))

    # ------------------------------------------------------------------
    # cached artifacts
    # ------------------------------------------------------------------
    def lts(self) -> LTS:
        """The interned integer CSR kernel (tau kept as one more action)."""
        if self._lts is None:
            self._lts = LTS.from_fsp(self.fsp, include_tau=True)
        return self._lts

    def weak_kernel(self) -> WeakKernel:
        """The tau-SCC + bitset weak-transition engine over :meth:`lts`."""
        if self._weak_kernel is None:
            self._weak_kernel = WeakKernel(self.lts())
        return self._weak_kernel

    def weak_view(self) -> WeakTransitionView:
        """The string-named weak-transition view, sharing :meth:`weak_kernel`."""
        if self._weak_view is None:
            self._weak_view = WeakTransitionView(self.fsp, kernel=self.weak_kernel())
        return self._weak_view

    def saturated_lts(self, backend: str = "auto") -> LTS:
        """The saturated kernel ``P_hat`` of Theorem 4.1(a) (cached per backend).

        Both backends produce byte-identical CSR arrays; they are cached
        separately only so a vector-backend pipeline never silently reuses an
        artifact the Python oracle produced (and vice versa) when the two are
        being cross-checked against each other.
        """
        backend = resolve_backend(backend, self.fsp.num_states)
        saturated = self._saturated_lts.get(backend)
        if saturated is None:
            saturated = saturate_lts(self.lts(), backend=backend)
            self._saturated_lts[backend] = saturated
        return saturated

    def strong_partition(
        self, method: Solver | str = Solver.PAIGE_TARJAN, backend: str = "auto"
    ) -> Partition:
        """The strong-equivalence partition (cached per solver and backend)."""
        method = Solver(method)
        backend = resolve_backend(backend, self.fsp.num_states)
        key = (method, backend)
        partition = self._strong_partitions.get(key)
        if partition is None:
            instance = GeneralizedPartitioningInstance.from_lts(self.lts())
            partition = solve(instance, method=method, backend=backend)
            self._strong_partitions[key] = partition
        return partition

    def observational_partition(
        self, method: Solver | str = Solver.PAIGE_TARJAN, backend: str = "auto"
    ) -> Partition:
        """The observational-equivalence partition (cached per solver and backend)."""
        method = Solver(method)
        backend = resolve_backend(backend, self.fsp.num_states)
        key = (method, backend)
        partition = self._observational_partitions.get(key)
        if partition is None:
            instance = GeneralizedPartitioningInstance.from_lts(self.saturated_lts(backend))
            partition = solve(instance, method=method, backend=backend)
            self._observational_partitions[key] = partition
        return partition

    def minimized_strong(
        self, method: Solver | str = Solver.PAIGE_TARJAN, backend: str = "auto"
    ) -> FSP:
        """The quotient by strong equivalence (cached per solver and backend)."""
        method = Solver(method)
        backend = resolve_backend(backend, self.fsp.num_states)
        key = (method, backend)
        minimal = self._minimized_strong.get(key)
        if minimal is None:
            minimal = quotient(self.fsp, self.strong_partition(method, backend))
            self._minimized_strong[key] = minimal
        return minimal

    def minimized_observational(
        self, method: Solver | str = Solver.PAIGE_TARJAN, backend: str = "auto"
    ) -> FSP:
        """The quotient by observational equivalence (cached per solver and backend)."""
        method = Solver(method)
        backend = resolve_backend(backend, self.fsp.num_states)
        key = (method, backend)
        minimal = self._minimized_observational.get(key)
        if minimal is None:
            minimal = quotient(self.fsp, self.observational_partition(method, backend))
            self._minimized_observational[key] = minimal
        return minimal

    def language_dfa(self) -> "DFA":
        """The minimal DFA of ``L(start)`` (subset construction + Hopcroft)."""
        if self._language_dfa is None:
            from repro.equivalence.language import language_dfa

            self._language_dfa = language_dfa(self.fsp)
        return self._language_dfa

    # ------------------------------------------------------------------
    # pickling (worker shipping)
    # ------------------------------------------------------------------
    def __getstate__(self) -> FSP:
        """Pickle only the FSP: snapshots shipped to workers stay lean.

        Derived artifacts (CSR arrays, bitset kernels, partitions) can dwarf
        the FSP itself and are cheaper to rebuild in the receiving process
        than to serialise, so a pickled handle carries just its immutable
        FSP; every cache refills lazily on first use after unpickling.
        """
        return self.fsp

    def __setstate__(self, fsp: FSP) -> None:
        self.__init__(fsp)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def num_states(self) -> int:
        return self.fsp.num_states

    @property
    def num_transitions(self) -> int:
        return self.fsp.num_transitions

    def artifact_summary(self) -> dict[str, bool | int]:
        """Which derived artifacts have been materialised so far."""
        return {
            "lts": self._lts is not None,
            "weak_kernel": self._weak_kernel is not None,
            "weak_view": self._weak_view is not None,
            "saturated_lts": bool(self._saturated_lts),
            "strong_partitions": len(self._strong_partitions),
            "observational_partitions": len(self._observational_partitions),
            "minimized_strong": len(self._minimized_strong),
            "minimized_observational": len(self._minimized_observational),
            "language_dfa": self._language_dfa is not None,
        }

    def __repr__(self) -> str:
        return (
            f"Process(states={self.fsp.num_states}, "
            f"transitions={self.fsp.num_transitions}, start={self.fsp.start!r})"
        )
