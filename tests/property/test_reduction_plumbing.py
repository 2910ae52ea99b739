"""Property tests for the per-state plumbing of the reduced on-the-fly checks.

The reductions keep their verdict-level oracle in
``tests/explore/test_reduction_oracle.py``; this file pins the two pieces of
bookkeeping under it, each against a slow reference kept here:

* the weak trace-replay step equals the union of ``weak_successors`` over a
  tau-closed macro-state;
* the leaf layout a :class:`SymmetryReducer` compiles from its composition
  tree round-trips every reachable state (flatten, then rebuild), on random
  ``SystemSpec`` trees mixing products with restriction, hiding and
  relabelling wrappers and a stacked :class:`ConfluenceReducer`;
* ``SymmetryReducer.canonical`` agrees with a reference that walks the
  operator nodes themselves;
* the committed ``canonical_bytes`` fixtures still render byte-identically,
  and every state behind them canonicalises as the reference does.

``REDUCTION_ORACLE_EXAMPLES`` scales the hypothesis example budget, as for
the differential oracle (the CI nightly lane raises it).
"""

from __future__ import annotations

import os
from collections import deque

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.explore.implicit import as_implicit
from repro.explore.onthefly import _Explorer, _replay_step
from repro.explore.products import _LazyProduct, _LazyWrapper
from repro.explore.reduce import (
    ConfluenceReducer,
    FullPermutationSymmetry,
    RotationSymmetry,
    SymmetryReducer,
    _leaves,
    _rebuild,
    canonical_bytes,
    prepare_operand,
)
from repro.explore.system import (
    HideSpec,
    LeafSpec,
    ProductSpec,
    RelabelSpec,
    RestrictSpec,
    build_implicit,
)
from tests.explore.test_reduction_metamorphic import FIXTURES, _canonical_cases
from tests.property.strategies import fsp_strategy

MAX_EXAMPLES = int(os.environ.get("REDUCTION_ORACLE_EXAMPLES", "25"))
PLUMBING_SETTINGS = settings(
    max_examples=MAX_EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: reachable states visited per generated system (the trees are small, so
#: this rarely binds; it only keeps a pathological draw cheap).
_STATE_BUDGET = 300


# ----------------------------------------------------------------------
# References: the node walk the compiled layout replaced
# ----------------------------------------------------------------------
def _reference_flatten(node, state, out: list) -> None:
    if isinstance(node, _LazyProduct):
        _reference_flatten(node.left, state[0], out)
        _reference_flatten(node.right, state[1], out)
    elif isinstance(node, (_LazyWrapper, SymmetryReducer, ConfluenceReducer)):
        _reference_flatten(node.inner, state, out)
    else:
        out.append(state)


def _reference_unflatten(node, flat: tuple, index: int):
    if isinstance(node, _LazyProduct):
        left, index = _reference_unflatten(node.left, flat, index)
        right, index = _reference_unflatten(node.right, flat, index)
        return (left, right), index
    if isinstance(node, (_LazyWrapper, SymmetryReducer, ConfluenceReducer)):
        return _reference_unflatten(node.inner, flat, index)
    return flat[index], index + 1


def _reference_canonical(reducer: SymmetryReducer, state):
    flat: list = []
    _reference_flatten(reducer.inner, state, flat)
    canonical = tuple(flat)
    for symmetry in reducer.symmetries:
        canonical = symmetry.canonical(canonical)
    rebuilt, _ = _reference_unflatten(reducer.inner, canonical, 0)
    return rebuilt


def _reachable(node, budget: int = _STATE_BUDGET) -> list:
    start = node.initial()
    seen = {start}
    order = [start]
    queue = deque([start])
    while queue and len(order) < budget:
        for _action, target in node.successors(queue.popleft()):
            if target not in seen:
                seen.add(target)
                order.append(target)
                queue.append(target)
    return order


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
_LEAF_FSPS = fsp_strategy(max_states=3, alphabet=("a", "b"), max_transitions=5, all_accepting=True)


@st.composite
def spec_tree_strategy(draw, max_leaves: int = 4):
    """A random composition tree: products anywhere, wrappers at any level."""
    count = draw(st.integers(min_value=1, max_value=max_leaves))
    nodes = [LeafSpec(draw(_LEAF_FSPS), label=f"leaf{index}") for index in range(count)]
    while len(nodes) > 1:
        at = draw(st.integers(min_value=0, max_value=len(nodes) - 2))
        op = draw(st.sampled_from(["ccs", "interleave"]))
        nodes[at : at + 2] = [_wrapped(draw, ProductSpec(op, nodes[at], nodes[at + 1]))]
    return _wrapped(draw, nodes[0])


def _wrapped(draw, spec):
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        kind = draw(st.sampled_from(["restrict", "hide", "relabel"]))
        if kind == "restrict":
            spec = RestrictSpec(spec, frozenset({"b"}))
        elif kind == "hide":
            spec = HideSpec(spec, frozenset({"a"}))
        else:
            spec = RelabelSpec(spec, {"a": "b", "b": "c"})
    return spec


def _leaf_total(spec) -> int:
    if isinstance(spec, LeafSpec):
        return 1
    if isinstance(spec, ProductSpec):
        return _leaf_total(spec.left) + _leaf_total(spec.right)
    return _leaf_total(spec.of)


@st.composite
def symmetry_strategy(draw, leaves: int):
    """A symmetry declaration over some of the ``leaves`` positions."""
    positions = draw(st.permutations(range(leaves)))
    if draw(st.booleans()):
        cut = draw(st.integers(min_value=1, max_value=leaves))
        chosen = positions[:cut]
        split = draw(st.integers(min_value=1, max_value=len(chosen)))
        groups = [chosen[:split]] + ([chosen[split:]] if chosen[split:] else [])
        return FullPermutationSymmetry(groups)
    ring_length = draw(st.integers(min_value=1, max_value=leaves))
    rings = [positions[:ring_length]]
    if 2 * ring_length <= leaves and draw(st.booleans()):
        rings.append(positions[ring_length : 2 * ring_length])
    return RotationSymmetry(rings)


@st.composite
def reducer_strategy(draw):
    """A SymmetryReducer over a random tree, optionally above a ConfluenceReducer."""
    spec = draw(spec_tree_strategy())
    inner = build_implicit(spec)
    if draw(st.booleans()):
        inner = ConfluenceReducer(inner)
    symmetry = draw(symmetry_strategy(_leaf_total(spec)))
    return spec, SymmetryReducer(inner, symmetry)


# ----------------------------------------------------------------------
# The weak replay step
# ----------------------------------------------------------------------
@given(
    fsp_strategy(max_states=5, alphabet=("a", "b"), max_transitions=10),
    st.data(),
)
@PLUMBING_SETTINGS
def test_weak_replay_step_is_the_union_of_weak_successors(fsp, data):
    explorer = _Explorer(as_implicit(fsp))
    seeds = data.draw(st.lists(st.sampled_from(sorted(fsp.states)), min_size=1, max_size=3))
    macro = frozenset(state for seed in seeds for state in explorer.closure(seed))
    for action in ("a", "b"):
        expected = frozenset(
            target for state in macro for target in explorer.weak_successors(state, action)
        )
        stepped = _replay_step(explorer, macro, action, True)
        assert stepped == expected
        # the step's result is tau-closed again, so the chain can continue
        assert stepped == frozenset(explorer.close(stepped))


# ----------------------------------------------------------------------
# The compiled leaf layout
# ----------------------------------------------------------------------
@given(reducer_strategy())
@PLUMBING_SETTINGS
def test_layout_round_trip_returns_the_same_state(drawn):
    spec, reducer = drawn
    for state in _reachable(reducer.inner):
        flat: list = []
        _leaves(reducer._layout, state, flat)
        assert len(flat) == _leaf_total(spec)
        assert _rebuild(reducer._layout, iter(flat)) == state


@given(reducer_strategy())
@PLUMBING_SETTINGS
def test_canonical_agrees_with_the_reference_node_walk(drawn):
    _spec, reducer = drawn
    for state in _reachable(reducer.inner):
        assert reducer.canonical(state) == _reference_canonical(reducer, state)


@pytest.mark.parametrize("name", sorted(_canonical_cases()))
def test_canonical_fixtures_stay_byte_identical(name):
    spec = _canonical_cases()[name]
    assert canonical_bytes(spec) == (FIXTURES / f"canonical_{name}.txt").read_bytes()
    reducer = prepare_operand(spec, "symmetry", for_equivalence=False)
    assert isinstance(reducer, SymmetryReducer)
    for state in _reachable(reducer.inner):
        assert reducer.canonical(state) == _reference_canonical(reducer, state)
