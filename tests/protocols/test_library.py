"""Tests for the scenario library: every classic, plus the JSON document layer."""

from __future__ import annotations

import pytest

from repro.core.errors import InvalidProcessError
from repro.explore import build_implicit, reachable_stats
from repro.protocols import (
    SCENARIOS,
    build_scenario,
    check_conformance,
    find_stuck,
    scenario_from_document,
    scenario_names,
    sweep_crashes,
    system_from_document,
)

SMALL_SIZES = {
    "two_phase_commit": 2,
    "quorum_voting": 3,
    "ring_election": 3,
    "token_passing": 3,
}


@pytest.fixture(params=sorted(SCENARIOS))
def scenario(request):
    return build_scenario(request.param, n=SMALL_SIZES[request.param])


class TestEveryScenario:
    def test_implementation_conforms_to_its_spec(self, scenario):
        verdict = check_conformance(scenario.spec, scenario.system)
        assert verdict.equivalent
        assert verdict.stats.details["route"].startswith("on-the-fly")

    def test_mutant_is_caught_with_a_verified_trace(self, scenario):
        verdict = check_conformance(scenario.spec, scenario.mutant)
        assert not verdict.equivalent
        assert verdict.stats.details["trace_verified"] is True
        assert verdict.stats.details["trace"]

    def test_fault_tolerance_sweep_is_confirmed(self, scenario):
        assert sweep_crashes(scenario).confirmed

    def test_sizes_are_recorded_and_slots_cover_the_sweep(self, scenario):
        assert scenario.n == SMALL_SIZES[scenario.name]
        assert len(scenario.crash_slots) >= scenario.f + 1
        assert scenario.protocol.name == scenario.name

    def test_system_is_finite_and_explorable(self, scenario):
        stats = reachable_stats(build_implicit(scenario.system))
        assert stats.complete
        assert stats.states >= 2


class TestScenarioDetails:
    def test_coordinator_crash_wedges_two_phase_commit_before_committing(self):
        from repro.protocols import Crash, apply_fault

        scenario = build_scenario("two_phase_commit", n=2)
        crashed = apply_fault(scenario.system, Crash("coordinator", 0))
        stuck = find_stuck(crashed)
        assert stuck is not None
        assert stuck.kind == "deadlock"
        assert "commit" not in stuck.trace

    def test_quorum_voting_decides_exactly_once(self):
        scenario = build_scenario("quorum_voting", n=3)
        stuck = find_stuck(scenario.system)
        # the one-shot protocol terminates -- but only after deciding
        assert stuck is not None and stuck.kind == "deadlock"
        assert "decide" in stuck.trace

    def test_ring_election_announces_the_maximum(self):
        scenario = build_scenario("ring_election", n=3)
        stuck = find_stuck(scenario.system)
        assert stuck is not None and "leader2" in stuck.trace

    def test_ring_mutant_elects_the_wrong_leader(self):
        scenario = build_scenario("ring_election", n=3)
        verdict = check_conformance(scenario.spec, scenario.mutant)
        assert not verdict.equivalent

    def test_token_passing_serves_round_robin_forever(self):
        scenario = build_scenario("token_passing", n=3)
        assert find_stuck(scenario.system) is None


class TestValidation:
    def test_quorum_voting_enforces_the_intersection_bound(self):
        with pytest.raises(InvalidProcessError, match="2f"):
            build_scenario("quorum_voting", n=2, f=1)

    def test_minimum_sizes(self):
        with pytest.raises(InvalidProcessError):
            build_scenario("two_phase_commit", n=0)
        with pytest.raises(InvalidProcessError):
            build_scenario("ring_election", n=1)
        with pytest.raises(InvalidProcessError):
            build_scenario("token_passing", n=1)

    def test_zero_tolerance_protocols_reject_a_fault_budget(self):
        for name in ("two_phase_commit", "ring_election", "token_passing"):
            with pytest.raises(InvalidProcessError, match="f must be 0"):
                build_scenario(name, n=3, f=1)

    def test_unknown_scenario_name(self):
        with pytest.raises(InvalidProcessError, match="unknown scenario"):
            build_scenario("three_phase_commit")

    def test_scenario_names_are_sorted(self):
        assert scenario_names() == tuple(sorted(SCENARIOS))


class TestDocuments:
    def test_bare_name_builds_the_default_size(self):
        scenario = scenario_from_document("quorum_voting")
        assert (scenario.n, scenario.f) == (5, 2)

    def test_mapping_overrides_sizes(self):
        scenario = scenario_from_document({"name": "quorum_voting", "n": 3, "f": 1})
        assert (scenario.n, scenario.f) == (3, 1)

    def test_malformed_scenario_documents_are_rejected(self):
        with pytest.raises(InvalidProcessError):
            scenario_from_document(42)
        with pytest.raises(InvalidProcessError):
            scenario_from_document({"n": 3})

    def test_system_document_sides(self):
        base = {"name": "two_phase_commit", "n": 2}
        scenario = build_scenario("two_phase_commit", n=2)
        assert system_from_document(base) == scenario.system
        assert system_from_document({**base, "side": "spec"}) == scenario.spec
        assert system_from_document({**base, "side": "mutant"}) == scenario.mutant

    def test_system_document_applies_faults_in_order(self):
        from repro.protocols import Crash, apply_fault

        document = {
            "name": "two_phase_commit",
            "n": 2,
            "faults": [{"kind": "crash", "role": "coordinator", "index": 0}],
        }
        scenario = build_scenario("two_phase_commit", n=2)
        assert system_from_document(document) == apply_fault(
            scenario.system, Crash("coordinator", 0)
        )

    @pytest.mark.parametrize(
        "document, message",
        [
            ({"name": "two_phase_commit", "fualts": []}, "fualts"),
            ({"name": "quorum_voting", "n": "5"}, "'n'"),
            ({"name": "quorum_voting", "n": True}, "'n'"),
            ({"name": "quorum_voting", "f": 1.0}, "'f'"),
            ({"name": "two_phase_commit", "faults": {"kind": "crash"}}, "faults"),
            ({"name": "ring_election", "faults": [{"kind": "crash", "role": "r", "x": 0}]}, "'x'"),
            (
                {"name": "ring_election", "faults": [{"kind": "crash", "role": "r", "index": "0"}]},
                "index",
            ),
        ],
    )
    def test_documents_are_strict(self, document, message):
        # A typo or a mistyped size must not silently check another system.
        with pytest.raises(InvalidProcessError, match=message):
            system_from_document(document)

    def test_unknown_side_is_rejected(self):
        with pytest.raises(InvalidProcessError, match="side"):
            system_from_document({"name": "two_phase_commit", "side": "oracle"})
