"""Tests for Hennessy-Milner logic and distinguishing formulas."""

from __future__ import annotations

import pytest

from repro.core.fsp import TAU, from_transitions
from repro.core.lts import LTS
from repro.core.paper_figures import fig2_language_pair
from repro.core.weak import saturate_lts
from repro.engine import Engine
from repro.equivalence.hml import (
    And,
    Diamond,
    ExtensionIs,
    Not,
    Tt,
    WeakDiamond,
    distinguishing_formula,
    formula_size,
    modal_depth,
    satisfies,
)
from repro.equivalence.observational import observationally_equivalent_processes
from repro.equivalence.strong import strongly_equivalent
from repro.generators.random_fsp import perturb, random_equivalent_copy, random_fsp
from repro.partition.partition import PartitionError


class TestSatisfaction:
    def test_tt_everywhere(self, branching_process):
        for state in branching_process.states:
            assert satisfies(branching_process, state, Tt())

    def test_extension_atom(self, branching_process):
        accepting = ExtensionIs(frozenset({"x"}))
        assert satisfies(branching_process, "t", accepting)
        assert not satisfies(branching_process, "s", accepting)

    def test_diamond(self, branching_process):
        can_do_b = Diamond("b", Tt())
        assert satisfies(branching_process, "l", can_do_b)
        assert not satisfies(branching_process, "r", can_do_b)

    def test_nested_diamond(self, branching_process):
        formula = Diamond("a", Diamond("b", ExtensionIs(frozenset({"x"}))))
        assert satisfies(branching_process, "s", formula)

    def test_negation_and_conjunction(self, branching_process):
        formula = And((Diamond("a", Tt()), Not(Diamond("b", Tt()))))
        assert satisfies(branching_process, "s", formula)
        assert not satisfies(branching_process, "l", formula)

    def test_weak_diamond_sees_through_tau(self, tau_process):
        weak_a = WeakDiamond("a", Tt())
        strong_a = Diamond("a", Tt())
        # s can do `a` directly; after the tau it still weakly can.
        assert satisfies(tau_process, "s", weak_a)
        assert satisfies(tau_process, "m", weak_a)
        assert not satisfies(tau_process, "t", weak_a)
        assert satisfies(tau_process, "s", strong_a)

    def test_weak_epsilon_diamond(self, tau_process):
        reaches_accepting = WeakDiamond("", ExtensionIs(frozenset({"x"})))
        assert satisfies(tau_process, "t", reaches_accepting)
        assert not satisfies(tau_process, "s", reaches_accepting)

    def test_modal_depth(self):
        formula = Diamond("a", And((Diamond("b", Tt()), ExtensionIs(frozenset()))))
        assert modal_depth(formula) == 2
        assert modal_depth(Tt()) == 0
        assert modal_depth(Not(Diamond("a", Tt()))) == 1

    def test_str_renderings(self):
        formula = Not(Diamond("a", And((Tt(), WeakDiamond("b", Tt())))))
        text = str(formula)
        assert "<a>" in text and "<<b>>" in text and "¬" in text


class TestDistinguishingFormulas:
    def test_none_for_equivalent_states(self):
        process = from_transitions(
            [("p", "a", "x"), ("q", "a", "y")], start="p", all_accepting=True
        )
        assert distinguishing_formula(process, "p", "q") is None

    def test_formula_separates_strongly_inequivalent_states(self, branching_process):
        formula = distinguishing_formula(branching_process, "l", "r")
        assert formula is not None
        assert satisfies(branching_process, "l", formula)
        assert not satisfies(branching_process, "r", formula)

    def test_extension_level_difference(self, branching_process):
        formula = distinguishing_formula(branching_process, "s", "t")
        assert isinstance(formula, ExtensionIs)
        assert satisfies(branching_process, "s", formula)
        assert not satisfies(branching_process, "t", formula)

    def test_weak_formula_for_fig2_pair(self):
        first, second = fig2_language_pair()
        combined = first.disjoint_union(second)
        assert not observationally_equivalent_processes(first, second)
        formula = distinguishing_formula(combined, "L:p0", "R:q0", weak=True)
        # weak equivalence fails, so a weak distinguishing formula must exist ...
        if formula is None:
            formula = distinguishing_formula(combined, "R:q0", "L:p0", weak=True)
        assert formula is not None
        sat_left = satisfies(combined, "L:p0", formula)
        sat_right = satisfies(combined, "R:q0", formula)
        assert sat_left != sat_right

    def test_strong_formula_respects_tau_as_label(self, tau_process):
        # s and t differ already in extensions
        formula = distinguishing_formula(tau_process, "s", "t")
        assert formula is not None
        assert satisfies(tau_process, "s", formula) != satisfies(tau_process, "t", formula)

    def test_formula_depth_matches_separation_level(self):
        first, second = fig2_language_pair()
        combined = first.disjoint_union(second)
        formula = distinguishing_formula(combined, "R:q0", "L:p0", weak=True)
        assert formula is not None
        assert modal_depth(formula) <= 2

    def test_strong_distinguishing_on_equivalent_weak_pair(self):
        """tau.a.0 vs a.0: strongly different, weakly equivalent."""
        process = from_transitions(
            [("p", TAU, "pm"), ("pm", "a", "p1"), ("q", "a", "q1")],
            start="p",
            all_accepting=True,
        )
        assert not strongly_equivalent(process, "p", "q")
        strong_formula = distinguishing_formula(process, "p", "q", weak=False)
        assert strong_formula is not None
        assert satisfies(process, "p", strong_formula) != satisfies(process, "q", strong_formula)
        assert distinguishing_formula(process, "p", "q", weak=True) is None

    @pytest.mark.parametrize("weak", [False, True])
    def test_unknown_state_is_rejected(self, branching_process, weak):
        with pytest.raises(PartitionError, match="nowhere"):
            distinguishing_formula(branching_process, "s", "nowhere", weak=weak)

    def test_move_kernel_with_state_indices(self):
        """A kernel of moves with integer indices gives the same formula as the FSP form."""
        process = from_transitions(
            [("p", TAU, "pm"), ("pm", "a", "p1"), ("q", "a", "q1")],
            start="p",
            all_accepting=True,
        )
        kernel = LTS.from_fsp(process, include_tau=True)
        p, q = kernel.state_names.index("p"), kernel.state_names.index("q")
        assert distinguishing_formula(kernel, p, q) == distinguishing_formula(process, "p", "q")
        assert distinguishing_formula(saturate_lts(kernel), p, q, weak=True) is None
        with pytest.raises(PartitionError, match="out of range"):
            distinguishing_formula(kernel, p, kernel.n)


def _repeated_conjuncts(formula) -> list:
    """Every ``And`` node of ``formula`` that lists one operand twice."""
    if isinstance(formula, And):
        found = [formula] if len(set(formula.operands)) < len(formula.operands) else []
        return found + [bad for operand in formula.operands for bad in _repeated_conjuncts(operand)]
    if isinstance(formula, (Not, Diamond, WeakDiamond)):
        return _repeated_conjuncts(formula.operand)
    return []


@pytest.mark.parametrize("weak", [False, True])
def test_witness_on_bloated_edited_copy_repeats_no_conjunct(weak):
    """Duplicate answering states contribute one conjunct per previous-level block."""
    left = random_fsp(12, seed=7)
    right = perturb(random_equivalent_copy(left, duplicates=2, seed=7), seed=7)
    notion = "observational" if weak else "strong"
    verdict = Engine().check(left, right, notion, witness=True)
    assert not verdict.equivalent and verdict.verify_witness()
    combined = left.disjoint_union(right)
    on_names = distinguishing_formula(combined, "L:" + left.start, "R:" + right.start, weak=weak)
    for formula in (verdict.witness.formula, on_names):
        assert _repeated_conjuncts(formula) == []
    assert verdict.stats.details["witness_size"] == formula_size(verdict.witness.formula)
