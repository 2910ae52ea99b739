"""Property tests for the one refinement chain (Definition 2.2.2, Lemma 3.2).

Each pass of the naive method (:func:`repro.partition.naive.naive_passes`) on
the saturated kernel ``P_hat`` is one level of the ``simeq_k`` chain.  The
same passes back :func:`repro.equivalence.kobs.k_limited_partition` and the
levels :func:`repro.equivalence.hml.distinguishing_formula` builds formulas
along, so these properties pin the chain against the independent fixed-point
oracle and tie the witnesses' modal depth to the level that separates a pair.
"""

from __future__ import annotations

from hypothesis import given, settings

from repro.core.lts import LTS
from repro.core.weak import saturate_lts
from repro.equivalence.hml import distinguishing_formula, modal_depth, satisfies
from repro.equivalence.kobs import k_limited_partition, limited_observational_partition
from repro.equivalence.observational import limited_observational_partition_reference
from repro.partition.generalized import GeneralizedPartitioningInstance
from repro.partition.naive import naive_passes, naive_refinement_passes
from repro.partition.refinable import RefinablePartition
from tests.property.strategies import fsp_strategy

SETTINGS = settings(max_examples=60, deadline=None)


def _union(first, second):
    return first.disjoint_union(second), "L:" + first.start, "R:" + second.start


def _chain(lts: LTS) -> list[list[int]]:
    """Every level of the chain on ``lts``: level 0, then one per pass."""
    block_of, num_blocks = lts.extension_block_ids()
    return [block_of, *naive_passes(lts, RefinablePartition(block_of, num_blocks))]


def _saturated(process) -> LTS:
    return saturate_lts(LTS.from_fsp(process, include_tau=True))


def _first_separating_level(process, first: str, second: str) -> int:
    k = 0
    while k_limited_partition(process, k).same_block(first, second):
        k += 1
    return k


@given(fsp_strategy())
@SETTINGS
def test_kernel_chain_fixed_point_is_the_reference(process):
    # limited_observational_partition runs the kernel chain past its last pass.
    reference = limited_observational_partition_reference(process)
    assert limited_observational_partition(process) == reference


@given(fsp_strategy())
@SETTINGS
def test_pass_count_is_levels_minus_one(process):
    for lts in (LTS.from_fsp(process, include_tau=True), _saturated(process)):
        levels = _chain(lts)
        assert levels[-1] == levels[-2]  # the last pass confirms the fixed point
        passes = naive_refinement_passes(GeneralizedPartitioningInstance.from_lts(lts))
        assert passes == len(levels) - 1


def _check_formula_depth(left, right, weak: bool) -> None:
    process, first, second = _union(left, right)
    formula = distinguishing_formula(process, first, second, weak=weak)
    if limited_observational_partition(process).same_block(first, second):
        assert formula is None
        return
    assert formula is not None
    assert modal_depth(formula) == _first_separating_level(process, first, second)
    assert satisfies(process, first, formula)
    assert not satisfies(process, second, formula)


@given(fsp_strategy(), fsp_strategy())
@SETTINGS
def test_weak_formula_depth_is_the_separation_level(left, right):
    _check_formula_depth(left, right, weak=True)


@given(fsp_strategy(allow_tau=False), fsp_strategy(allow_tau=False))
@SETTINGS
def test_strong_formula_depth_is_the_separation_level(left, right):
    # Without tau a weak move is a strong move (plus an epsilon self-loop,
    # which never splits a block), so simeq_k is the strong chain's level k.
    _check_formula_depth(left, right, weak=False)
