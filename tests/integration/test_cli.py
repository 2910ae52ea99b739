"""Tests for the command-line interface (``python -m repro``)."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import __version__
from repro.cli import EXIT_ERROR, EXIT_INEQUIVALENT, load_process, main
from repro.core.fsp import from_transitions
from repro.core.paper_figures import fig2_language_pair
from repro.utils import serialization


@pytest.fixture
def stored_pair(tmp_path: Path) -> tuple[str, str]:
    first, second = fig2_language_pair()
    first_path = tmp_path / "first.json"
    second_path = tmp_path / "second.json"
    serialization.dump(first, first_path)
    serialization.dump(second, second_path)
    return str(first_path), str(second_path)


class TestClassify:
    def test_classify_lists_model_classes(self, stored_pair, capsys):
        first, _second = stored_pair
        assert main(["classify", first]) == 0
        output = capsys.readouterr().out
        assert "restricted observable unary" in output
        assert "3 states" in output

    def test_classify_missing_file(self, tmp_path, capsys):
        assert main(["classify", str(tmp_path / "missing.json")]) == EXIT_ERROR
        assert "error:" in capsys.readouterr().err


class TestCheck:
    def test_language_equivalence_exit_zero(self, stored_pair, capsys):
        first, second = stored_pair
        assert main(["check", first, second, "--notion", "language"]) == 0
        assert "are equivalent" in capsys.readouterr().out

    def test_observational_inequivalence_exit_one(self, stored_pair, capsys):
        first, second = stored_pair
        assert main(["check", first, second, "--notion", "observational"]) == EXIT_INEQUIVALENT
        assert "NOT equivalent" in capsys.readouterr().out

    def test_k_observational_uses_level(self, stored_pair):
        first, second = stored_pair
        assert main(["check", first, second, "--notion", "k-observational", "--k", "1"]) == 0
        assert (
            main(["check", first, second, "--notion", "k-observational", "--k", "2"])
            == EXIT_INEQUIVALENT
        )

    def test_failure_and_strong_notions(self, stored_pair):
        first, second = stored_pair
        assert main(["check", first, second, "--notion", "failure"]) == EXIT_INEQUIVALENT
        assert main(["check", first, first, "--notion", "strong"]) == 0


class TestMinimizeAndConvert:
    def test_minimize_writes_smaller_process(self, tmp_path, capsys):
        bloated = from_transitions(
            [("p", "a", "x"), ("p", "a", "y"), ("x", "a", "z"), ("y", "a", "z")],
            start="p",
            all_accepting=True,
        )
        source = tmp_path / "bloated.json"
        target = tmp_path / "minimal.json"
        serialization.dump(bloated, source)
        assert main(["minimize", str(source), str(target), "--notion", "strong"]) == 0
        minimal = load_process(target)
        assert minimal.num_states < bloated.num_states
        assert "minimised" in capsys.readouterr().out

    def test_convert_json_to_aut_and_back(self, tmp_path, stored_pair):
        first, _second = stored_pair
        aut_path = tmp_path / "copy.aut"
        assert main(["convert", first, str(aut_path)]) == 0
        reloaded = load_process(aut_path)
        assert reloaded.num_states == load_process(first).num_states

    def test_convert_to_dot(self, tmp_path, stored_pair):
        first, _second = stored_pair
        dot_path = tmp_path / "graph.dot"
        assert main(["convert", first, str(dot_path)]) == 0
        assert dot_path.read_text().startswith("digraph")


class TestExpressionsAndCcs:
    def test_expr_strong_inequivalence(self, capsys):
        assert main(["expr", "a.(b + c)", "a.b + a.c"]) == EXIT_INEQUIVALENT
        assert main(["expr", "a.(b + c)", "a.b + a.c", "--notion", "language"]) == 0

    def test_expr_parse_error(self, capsys):
        assert main(["expr", "a + ", "a"]) == EXIT_ERROR
        assert "error:" in capsys.readouterr().err

    def test_ccs_compile_and_store(self, tmp_path, capsys):
        output = tmp_path / "term.json"
        definitions = tmp_path / "defs.ccs"
        definitions.write_text("P := a.b.P\n", encoding="utf-8")
        code = main(["ccs", "P", "--definitions", str(definitions), "--output", str(output)])
        assert code == 0
        compiled = load_process(output)
        assert compiled.num_states == 2
        assert "compiled" in capsys.readouterr().out

    def test_ccs_state_bound(self, capsys):
        """Exceeding --max-states is reported as an input error, not a silent truncation."""
        assert main(["ccs", "a.0", "--max-states", "1"]) == EXIT_ERROR
        assert "error:" in capsys.readouterr().err

    def test_malformed_json_is_an_error(self, tmp_path, capsys):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json", encoding="utf-8")
        assert main(["classify", str(bad)]) == EXIT_ERROR
        assert "error:" in capsys.readouterr().err


class TestVersion:
    def test_version_flag_prints_the_library_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out


class TestFileFormatContract:
    """Unknown extensions are rejected with the supported-format list (exit 2)."""

    def test_unknown_extension_is_rejected_on_load(self, tmp_path, capsys):
        weird = tmp_path / "process.xml"
        weird.write_text("<not-a-process/>", encoding="utf-8")
        assert main(["classify", str(weird)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert "unsupported extension" in err
        assert ".json" in err and ".aut" in err

    def test_extensionless_file_is_rejected(self, tmp_path, capsys):
        first, _ = fig2_language_pair()
        bare = tmp_path / "process"
        serialization.dump(first, bare)
        assert main(["classify", str(bare)]) == EXIT_ERROR
        assert "unsupported extension" in capsys.readouterr().err

    def test_dot_is_write_only(self, tmp_path, stored_pair, capsys):
        first, _second = stored_pair
        dot_path = tmp_path / "graph.dot"
        assert main(["convert", first, str(dot_path)]) == 0
        assert main(["classify", str(dot_path)]) == EXIT_ERROR
        assert "write-only" in capsys.readouterr().err

    def test_unknown_output_extension_is_rejected(self, tmp_path, stored_pair, capsys):
        first, _second = stored_pair
        assert main(["convert", first, str(tmp_path / "copy.xml")]) == EXIT_ERROR
        assert "unsupported extension" in capsys.readouterr().err


class TestExitCodeContract:
    """The documented 0 / 1 / 2 contract across commands."""

    def test_check_contract(self, stored_pair):
        first, second = stored_pair
        assert main(["check", first, first, "--notion", "strong"]) == 0
        assert main(["check", first, second, "--notion", "observational"]) == EXIT_INEQUIVALENT
        assert main(["check", first, str(Path(first).parent / "missing.json")]) == EXIT_ERROR

    def test_expr_contract(self):
        assert main(["expr", "a + b", "b + a"]) == 0
        assert main(["expr", "a.(b + c)", "a.b + a.c"]) == EXIT_INEQUIVALENT
        assert main(["expr", "a + ", "a"]) == EXIT_ERROR

    def test_unknown_notion_is_a_usage_error(self, stored_pair):
        first, second = stored_pair
        with pytest.raises(SystemExit) as excinfo:
            main(["check", first, second, "--notion", "telepathic"])
        assert excinfo.value.code == EXIT_ERROR

    def test_explain_prints_a_witness(self, stored_pair, capsys):
        first, second = stored_pair
        code = main(["check", first, second, "--notion", "observational", "--explain", "--stats"])
        assert code == EXIT_INEQUIVALENT
        out = capsys.readouterr().out
        assert "witness:" in out
        assert "stats:" in out


class TestConvertRoundTrip:
    def test_json_aut_json_round_trip_preserves_behaviour(self, tmp_path):
        """.aut renames states to integers but keeps structure and acceptance."""
        from repro.equivalence.strong import strongly_equivalent_processes

        original = from_transitions(
            [("p", "a", "q"), ("q", "b", "p"), ("q", "a", "q")],
            start="p",
            accepting=["q"],
        )
        source = tmp_path / "orig.json"
        via_aut = tmp_path / "copy.aut"
        back = tmp_path / "back.json"
        serialization.dump(original, source)
        assert main(["convert", str(source), str(via_aut)]) == 0
        assert main(["convert", str(via_aut), str(back)]) == 0
        reloaded = load_process(back)
        assert reloaded.num_states == original.num_states
        assert reloaded.num_transitions == original.num_transitions
        assert len(reloaded.accepting_states()) == len(original.accepting_states())
        assert strongly_equivalent_processes(original, reloaded)

    def test_json_to_dot_renders_all_transitions(self, tmp_path):
        original = from_transitions(
            [("p", "a", "q"), ("q", "b", "p")], start="p", all_accepting=True
        )
        source = tmp_path / "orig.json"
        dot_path = tmp_path / "graph.dot"
        serialization.dump(original, source)
        assert main(["convert", str(source), str(dot_path)]) == 0
        rendered = dot_path.read_text(encoding="utf-8")
        assert rendered.startswith("digraph")
        assert rendered.count("->") >= original.num_transitions


class TestBatch:
    @pytest.fixture
    def manifest(self, tmp_path, stored_pair):
        first, second = stored_pair
        checks = [
            {"left": Path(first).name, "right": Path(second).name, "notion": "language"},
            {"left": Path(first).name, "right": Path(second).name, "notion": "observational"},
            {"left": Path(first).name, "right": Path(first).name},
        ]
        path = Path(first).parent / "manifest.json"
        path.write_text(json.dumps({"checks": checks}), encoding="utf-8")
        return path

    def test_batch_reports_every_check_and_exit_one_on_any_inequivalence(self, manifest, capsys):
        assert main(["batch", str(manifest)]) == EXIT_INEQUIVALENT
        out = capsys.readouterr().out
        assert out.count("equivalent") >= 3
        assert "batch: 3 checks" in out

    def test_batch_all_equivalent_exits_zero(self, tmp_path, stored_pair, capsys):
        first, _second = stored_pair
        path = tmp_path / "ok.json"
        path.write_text(
            json.dumps([{"left": first, "right": first, "notion": "strong"}]),
            encoding="utf-8",
        )
        assert main(["batch", str(path)]) == 0
        assert "1 equivalent" in capsys.readouterr().out

    def test_batch_writes_structured_results(self, manifest, tmp_path, capsys):
        output = tmp_path / "results.json"
        main(["batch", str(manifest), "--output", str(output)])
        payload = json.loads(output.read_text(encoding="utf-8"))
        assert payload["summary"]["checks"] == 3
        assert [row["notion"] for row in payload["results"]] == [
            "language",
            "observational",
            "observational",
        ]
        assert all("seconds" in row for row in payload["results"])

    def test_unknown_notion_parameter_is_an_input_error(self, tmp_path, stored_pair, capsys):
        first, _second = stored_pair
        bad = tmp_path / "bad-param.json"
        bad.write_text(
            json.dumps([{"left": first, "right": first, "notion": "strong", "depth": 3}]),
            encoding="utf-8",
        )
        assert main(["batch", str(bad)]) == EXIT_ERROR
        assert "does not accept" in capsys.readouterr().err

    def test_malformed_manifest_is_an_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"checks": [{"left": "only.json"}]}), encoding="utf-8")
        assert main(["batch", str(bad)]) == EXIT_ERROR
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "entry, field",
        [
            ({"witness": True}, "'witness'"),
            ({"deadline_ms": 100}, "'deadline_ms'"),
            ({"left": 5}, "'left'"),
            ({"right": ["a.json"]}, "'right'"),
            ({"notion": "k-observational", "k": True}, "'k'"),
            ({"notion": "language", "max_states": "lots"}, "'max_states'"),
        ],
    )
    def test_bad_entry_names_its_index_and_field(self, tmp_path, stored_pair, capsys, entry, field):
        first, _second = stored_pair
        good = {"left": first, "right": first}
        bad = tmp_path / "bad-entry.json"
        bad.write_text(json.dumps([good, {**good, **entry}]), encoding="utf-8")
        assert main(["batch", str(bad)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert "check #1" in err and field in err
        assert "Traceback" not in err

    def test_non_list_manifest_is_an_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"not": "a manifest"}), encoding="utf-8")
        assert main(["batch", str(bad)]) == EXIT_ERROR
        assert "manifest" in capsys.readouterr().err


class TestOnTheFlyFlag:
    def test_check_on_the_fly_agrees_with_the_eager_route(self, stored_pair, capsys):
        first, second = stored_pair
        assert (
            main(["check", first, second, "--notion", "observational", "--on-the-fly"])
            == EXIT_INEQUIVALENT
        )
        assert main(["check", first, first, "--notion", "strong", "--on-the-fly"]) == 0

    def test_stats_report_pairs_visited(self, stored_pair, capsys):
        first, _second = stored_pair
        assert main(["check", first, first, "--on-the-fly", "--stats"]) == 0
        assert "product pairs visited" in capsys.readouterr().out

    def test_unsupported_notion_is_a_usage_error(self, stored_pair, capsys):
        first, second = stored_pair
        assert main(["check", first, second, "--notion", "language", "--on-the-fly"]) == EXIT_ERROR
        assert "error:" in capsys.readouterr().err


class TestExplore:
    @pytest.fixture
    def ring_pair(self, tmp_path: Path) -> tuple[str, str]:
        from repro.explore import spec_to_document
        from repro.generators.families import token_ring_pair

        ok, bad = token_ring_pair(4)
        ok_path = tmp_path / "ring_ok.json"
        bad_path = tmp_path / "ring_bad.json"
        ok_path.write_text(json.dumps(spec_to_document(ok)), encoding="utf-8")
        bad_path.write_text(json.dumps(spec_to_document(bad)), encoding="utf-8")
        return str(ok_path), str(bad_path)

    def test_stats_counts_without_materialising(self, ring_pair, capsys):
        ok, _bad = ring_pair
        assert main(["explore", "stats", ok]) == 0
        output = capsys.readouterr().out
        assert "reachable: exactly" in output and "states" in output

    def test_stats_limit_reports_a_lower_bound(self, ring_pair, capsys):
        ok, _bad = ring_pair
        assert main(["explore", "stats", ok, "--limit", "2"]) == 0
        assert "at least 2 states" in capsys.readouterr().out

    def test_check_finds_the_fault_with_a_witness(self, ring_pair, capsys):
        ok, bad = ring_pair
        assert main(["explore", "check", ok, bad, "--explain", "--stats"]) == EXIT_INEQUIVALENT
        output = capsys.readouterr().out
        assert "NOT equivalent" in output and "fault1" in output
        assert "product pairs visited" in output

    def test_check_equivalent_systems_exit_zero(self, ring_pair):
        ok, _bad = ring_pair
        assert main(["explore", "check", ok, ok, "--notion", "strong"]) == 0

    def test_materialize_writes_a_loadable_process(self, ring_pair, tmp_path, capsys):
        ok, _bad = ring_pair
        out = tmp_path / "ring.json"
        assert main(["explore", "materialize", ok, str(out)]) == 0
        assert load_process(out).num_states == 8

    def test_materialize_limit_is_enforced(self, ring_pair, tmp_path, capsys):
        ok, _bad = ring_pair
        out = tmp_path / "ring.json"
        assert main(["explore", "materialize", ok, str(out), "--limit", "2"]) == EXIT_ERROR
        assert "exceeded" in capsys.readouterr().err
        assert main(["explore", "materialize", ok, str(out), "--limit", "2", "--truncate"]) == 0
        assert load_process(out).num_states == 2

    def test_minimize_is_compositional(self, ring_pair, tmp_path, capsys):
        ok, _bad = ring_pair
        out = tmp_path / "ring_min.json"
        assert main(["explore", "minimize", ok, str(out)]) == 0
        assert "compositionally minimised" in capsys.readouterr().out
        assert load_process(out).num_states == 4

    def test_file_leaves_resolve_relative_to_the_document(self, stored_pair, tmp_path, capsys):
        first, _second = stored_pair
        system = tmp_path / "system.json"
        leaf = Path(first).name
        (tmp_path / leaf).write_text(Path(first).read_text(encoding="utf-8"), encoding="utf-8")
        system.write_text(
            json.dumps({"op": "interleave", "left": {"file": leaf}, "right": {"file": leaf}}),
            encoding="utf-8",
        )
        assert main(["explore", "stats", str(system)]) == 0
        assert "reachable" in capsys.readouterr().out

    def test_plain_process_files_are_leaves(self, stored_pair):
        first, second = stored_pair
        assert main(["explore", "check", first, second]) == EXIT_INEQUIVALENT

    def test_malformed_system_document_is_an_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"op": "tensor", "of": {}}), encoding="utf-8")
        assert main(["explore", "stats", str(bad)]) == EXIT_ERROR
        assert "error:" in capsys.readouterr().err


class TestProtocol:
    def test_check_library_scenario_by_name(self, capsys):
        assert main(["protocol", "check", "two_phase_commit", "--stats"]) == 0
        output = capsys.readouterr().out
        assert "equivalent to its spec" in output
        assert "product pairs visited" in output

    def test_check_mutant_side_exits_one_with_a_witness(self, tmp_path, capsys):
        scenario = tmp_path / "mutant.json"
        scenario.write_text(
            json.dumps({"name": "two_phase_commit", "n": 2, "side": "mutant"}),
            encoding="utf-8",
        )
        assert (
            main(["protocol", "check", str(scenario), "--explain"]) == EXIT_INEQUIVALENT
        )
        output = capsys.readouterr().out
        assert "NOT equivalent" in output and "defect0" in output

    def test_deadlock_search_finds_the_coordinator_crash(self, tmp_path, capsys):
        scenario = tmp_path / "crashed.json"
        scenario.write_text(
            json.dumps(
                {
                    "name": "two_phase_commit",
                    "n": 2,
                    "faults": [{"kind": "crash", "role": "coordinator", "index": 0}],
                }
            ),
            encoding="utf-8",
        )
        assert main(["protocol", "check", str(scenario), "--deadlock"]) == EXIT_INEQUIVALENT
        output = capsys.readouterr().out
        assert "deadlock at" in output and "trace:" in output

    def test_deadlock_search_on_a_healthy_scenario_exits_zero(self, capsys):
        assert main(["protocol", "check", "token_passing", "--deadlock"]) == 0
        assert "no deadlock or livelock" in capsys.readouterr().out

    def test_sweep_confirms_the_declared_tolerance(self, tmp_path, capsys):
        scenario = tmp_path / "qv.json"
        scenario.write_text(
            json.dumps({"name": "quorum_voting", "n": 3}), encoding="utf-8"
        )
        assert main(["protocol", "sweep", str(scenario)]) == 0
        output = capsys.readouterr().out
        assert "0 fault(s): equivalent" in output
        assert "2 fault(s): BROKEN" in output
        assert "tolerance confirmed" in output

    def test_instantiate_writes_an_explorable_system_document(self, tmp_path, capsys):
        out = tmp_path / "system.json"
        assert main(["protocol", "instantiate", "ring_election", str(out)]) == 0
        first = capsys.readouterr().out
        assert "reachable: exactly" in first
        reachable = next(
            line.strip() for line in first.splitlines() if "reachable:" in line
        )
        assert main(["explore", "stats", str(out)]) == 0
        assert reachable in capsys.readouterr().out

    @pytest.mark.parametrize(
        "document",
        [
            {"name": "two_phase_commit", "fualts": [{"kind": "crash", "role": "coordinator"}]},
            {"name": "quorum_voting", "n": "x"},
            {"name": "quorum_voting", "f": 1.5},
            {"name": "two_phase_commit", "faults": [{"kind": "crash", "role": "r", "idx": 0}]},
        ],
    )
    def test_malformed_scenario_document_is_an_input_error(self, tmp_path, capsys, document):
        scenario = tmp_path / "typo.json"
        scenario.write_text(json.dumps(document), encoding="utf-8")
        assert main(["protocol", "check", str(scenario), "--deadlock"]) == EXIT_ERROR
        assert "error:" in capsys.readouterr().err

    def test_unknown_scenario_is_an_input_error(self, capsys):
        assert main(["protocol", "check", "three_phase_commit"]) == EXIT_ERROR
        assert "error:" in capsys.readouterr().err
