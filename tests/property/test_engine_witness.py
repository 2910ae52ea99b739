"""Property tests: engine verdicts agree with the reference routes and carry
checkable witnesses.

Two families of properties pin the engine facade down:

* **agreement** -- for every notion, :meth:`Engine.check` on random process
  pairs returns the same boolean as the pre-engine reference route (disjoint
  union of the *original* processes + the single-process decision
  functions), so the union-kernel and quotient routes of
  :mod:`repro.engine.notions` cannot drift from the definitions -- pinned
  cases cover the union's corner shapes (tau on one side only, a union
  above the vector threshold of two sides below it, a bloated edited copy);
* **witnesses** -- whenever the verdict is "not equivalent", the attached
  witness re-checks against the original pair: the HML formula is satisfied
  by exactly the left start state, the word is accepted by exactly one
  side's language, the refusal pair is a failure of exactly one side
  (:meth:`Verdict.verify_witness` re-derives this from first principles).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.core.fsp import FSP, TAU
from repro.engine import Engine
from repro.equivalence.failure import failure_equivalent
from repro.equivalence.kobs import k_observational_equivalent
from repro.equivalence.language import language_equivalent
from repro.equivalence.observational import observationally_equivalent
from repro.equivalence.strong import strongly_equivalent
from repro.generators.random_fsp import perturb, random_equivalent_copy, random_fsp
from repro.partition.generalized import VECTOR_STATE_THRESHOLD
from tests.property.strategies import fsp_strategy, restricted_observable_strategy

MAX_EXAMPLES = 60


def _reference(first, second, decide, *args):
    """The pre-engine route: disjoint union of the originals, then decide."""
    combined = first.disjoint_union(second)
    return decide(combined, "L:" + first.start, "R:" + second.start, *args)


def _checked(notion, first, second, decide, *args, **params):
    """Engine verdict for the pair, asserted against the reference route."""
    engine = Engine()
    verdict = engine.check(first, second, notion, witness=True, **params)
    assert verdict.equivalent == _reference(first, second, decide, *args)
    if not verdict.equivalent:
        assert verdict.witness is not None, f"no witness for {notion} inequivalence"
        assert verdict.verify_witness() is True, (
            f"{notion} witness does not hold: {verdict.witness.describe()}"
        )
    return verdict


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(first=fsp_strategy(), second=fsp_strategy())
def test_strong_agreement_and_witness(first, second):
    _checked("strong", first, second, strongly_equivalent)


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(first=fsp_strategy(), second=fsp_strategy())
def test_observational_agreement_and_witness(first, second):
    _checked("observational", first, second, observationally_equivalent)


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(first=fsp_strategy(max_states=4), second=fsp_strategy(max_states=4))
def test_k_observational_agreement_and_witness(first, second):
    for k in (1, 2):
        _checked("k-observational", first, second, k_observational_equivalent, k, k=k)


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(first=fsp_strategy(), second=fsp_strategy())
def test_language_agreement_and_witness(first, second):
    _checked("language", first, second, language_equivalent)


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(first=restricted_observable_strategy(), second=restricted_observable_strategy())
def test_failure_agreement_and_witness(first, second):
    _checked("failure", first, second, failure_equivalent)


@settings(max_examples=30, deadline=None)
@given(first=fsp_strategy(), second=fsp_strategy())
def test_witness_is_one_sided(first, second):
    """A witness must separate in the stated direction, not merely differ."""
    engine = Engine()
    verdict = engine.check(first, second, "strong", witness=True)
    if verdict.witness is not None:
        # swapping the sides must falsify the certificate
        assert verdict.witness.holds(verdict.left, verdict.right)
        assert not verdict.witness.holds(verdict.right, verdict.left)


# ----------------------------------------------------------------------
# pinned shapes of the union-kernel route
# ----------------------------------------------------------------------
def _tau_on_one_side():
    """``P`` against ``tau.P``: observationally equivalent, strongly not."""
    process = random_fsp(30, alphabet=("a", "b"), tau_probability=0.0, seed=11)
    start_extension = [("pre", var) for var in process.extension(process.start)]
    prefixed = FSP(
        states=process.states | {"pre"},
        start="pre",
        alphabet=process.alphabet,
        transitions=process.transitions | {("pre", TAU, process.start)},
        variables=process.variables,
        extensions=process.extensions | set(start_extension),
    )
    return process, prefixed


def _crossing_the_vector_threshold(edit: bool):
    """Sides below the vector threshold whose union is above it."""
    seed = 4 if edit else 3
    left = random_fsp(300, alphabet=("a", "b", "c"), seed=seed)
    right = random_equivalent_copy(left, duplicates=40, seed=seed)
    return left, perturb(right, seed=seed) if edit else right


def _bloated_copy_with_an_edit():
    left = random_fsp(30, alphabet=("a", "b"), seed=5)
    return left, perturb(random_equivalent_copy(left, duplicates=30, seed=5), seed=5)


_SHAPES = {
    "tau-on-one-side": _tau_on_one_side,
    "union-crosses-vector-threshold-copy": lambda: _crossing_the_vector_threshold(edit=False),
    "union-crosses-vector-threshold-edit": lambda: _crossing_the_vector_threshold(edit=True),
    "bloated-copy-with-edit": _bloated_copy_with_an_edit,
}
_DECIDERS = {"strong": strongly_equivalent, "observational": observationally_equivalent}


@pytest.mark.parametrize("notion", sorted(_DECIDERS))
@pytest.mark.parametrize("shape", sorted(_SHAPES))
def test_union_route_pinned_shapes(shape, notion):
    first, second = _SHAPES[shape]()
    verdict = _checked(notion, first, second, _DECIDERS[notion])
    details = verdict.stats.details
    assert details["union_states"] == first.num_states + second.num_states
    assert 1 <= details["union_blocks"] <= details["union_states"]
    assert ("witness_size" in details) == (not verdict.equivalent)


def test_pinned_shapes_are_what_they_claim():
    without_tau, with_tau = _tau_on_one_side()
    assert with_tau.has_tau() and not without_tau.has_tau()
    assert Engine().check(without_tau, with_tau, "observational").equivalent
    for edit in (False, True):
        left, right = _crossing_the_vector_threshold(edit)
        assert max(left.num_states, right.num_states) < VECTOR_STATE_THRESHOLD
        assert left.num_states + right.num_states >= VECTOR_STATE_THRESHOLD
        assert Engine().check(left, right, "strong").equivalent is not edit
    copy_left, copy_right = _bloated_copy_with_an_edit()
    assert copy_right.num_states == 2 * copy_left.num_states
