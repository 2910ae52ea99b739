"""Tests for the :class:`repro.engine.Process` handle and its artifact caches."""

from __future__ import annotations

import pytest

from repro.core.fsp import from_transitions
from repro.core.paper_figures import fig2_language_pair
from repro.engine import Engine, Process
from repro.engine import process as process_module
from repro.equivalence.minimize import minimize_observational, minimize_strong
from repro.equivalence.observational import observational_partition
from repro.equivalence.strong import strong_bisimulation_partition
from repro.partition import generalized
from repro.partition.generalized import Solver
from repro.utils import serialization


@pytest.fixture
def bloated():
    return from_transitions(
        [("p", "a", "x"), ("p", "a", "y"), ("x", "b", "z"), ("y", "b", "z")],
        start="p",
        all_accepting=True,
    )


class TestArtifactCaching:
    def test_artifacts_are_computed_once(self, bloated):
        handle = Process(bloated)
        assert handle.lts() is handle.lts()
        assert handle.weak_kernel() is handle.weak_kernel()
        assert handle.weak_view() is handle.weak_view()
        assert handle.saturated_lts() is handle.saturated_lts()
        assert handle.strong_partition() is handle.strong_partition()
        assert handle.observational_partition() is handle.observational_partition()
        assert handle.minimized_strong() is handle.minimized_strong()
        assert handle.minimized_observational() is handle.minimized_observational()
        assert handle.language_dfa() is handle.language_dfa()

    def test_weak_view_shares_the_kernel(self, bloated):
        handle = Process(bloated)
        assert handle.weak_view().kernel is handle.weak_kernel()

    def test_artifact_summary_tracks_materialisation(self, bloated):
        handle = Process(bloated)
        summary = handle.artifact_summary()
        assert summary["lts"] is False
        assert summary["strong_partitions"] == 0
        handle.minimized_strong()
        summary = handle.artifact_summary()
        assert summary["lts"] is True
        assert summary["strong_partitions"] == 1
        assert summary["minimized_strong"] == 1

    def test_partitions_cached_per_solver(self, bloated):
        handle = Process(bloated)
        by_pt = handle.strong_partition(Solver.PAIGE_TARJAN)
        by_ks = handle.strong_partition("kanellakis-smolka")
        assert by_pt.as_frozen() == by_ks.as_frozen()
        assert handle.artifact_summary()["strong_partitions"] == 2

    def test_solver_accepted_as_string(self, bloated):
        handle = Process(bloated)
        assert handle.strong_partition("paige-tarjan") is handle.strong_partition(
            Solver.PAIGE_TARJAN
        )

    def test_notions_share_one_saturated_kernel(self, bloated, monkeypatch):
        # With the threshold below the process size the notions' "auto"
        # resolves to the vector backend; the observational check's union and
        # k-observational's quotient must read the same cached saturation
        # instead of saturating the handle again.
        monkeypatch.setattr(generalized, "VECTOR_STATE_THRESHOLD", 2)
        engine = Engine()
        handle = engine.process(bloated)
        other = from_transitions([("q", "a", "r"), ("r", "b", "q")], start="q", all_accepting=True)
        saturated = []
        real_saturate = process_module.saturate_lts

        def spy(lts, *args, **kwargs):
            if lts is handle.lts():
                saturated.append(kwargs.get("backend"))
            return real_saturate(lts, *args, **kwargs)

        monkeypatch.setattr(process_module, "saturate_lts", spy)
        engine.check(handle, other, "observational")
        engine.check(handle, other, "k-observational", k=2)
        assert saturated == ["vector"]
        assert handle.artifact_summary()["minimized_observational"] == 1


class TestAgainstReferenceRoutes:
    def test_partitions_match_free_functions(self, bloated):
        handle = Process(bloated)
        assert (
            handle.strong_partition().as_frozen()
            == strong_bisimulation_partition(bloated).as_frozen()
        )
        assert (
            handle.observational_partition().as_frozen()
            == observational_partition(bloated).as_frozen()
        )

    def test_quotients_match_free_functions(self, bloated):
        handle = Process(bloated)
        assert handle.minimized_strong() == minimize_strong(bloated)
        assert handle.minimized_observational() == minimize_observational(bloated)

    def test_language_dfa_accepts_the_language(self):
        first, _ = fig2_language_pair()
        dfa = Process(first).language_dfa()
        assert dfa.accepts(())
        assert dfa.accepts(("a", "a"))
        assert not dfa.accepts(("a", "a", "a"))


class TestConstructors:
    def test_from_file(self, tmp_path):
        first, _ = fig2_language_pair()
        path = tmp_path / "p.json"
        serialization.dump(first, path)
        assert Process.from_file(path).fsp == first

    def test_from_expression(self):
        handle = Process.from_expression("a.b")
        assert handle.fsp.alphabet == {"a", "b"}
        assert handle.language_dfa().accepts(("a", "b"))

    def test_from_ccs(self):
        handle = Process.from_ccs("a.0")
        assert handle.fsp.num_states == 2

    def test_rejects_non_fsp(self):
        with pytest.raises(TypeError):
            Process("not a process")
