"""Tiny-size runs of every workload, and the command's output contract."""

import json
import subprocess
import sys
from pathlib import Path

import batch
import protocol
import pytest
import service
from run import END_TO_END, PER_LAYER, WORKLOADS

ROOT = Path(__file__).resolve().parents[2]


def _check(outcome, *, open_loop=False):
    assert outcome.attempted > 0
    assert outcome.failures == []
    metrics = outcome.end_to_end()
    assert set(metrics) == set(END_TO_END)
    assert all(value > 0 for value in metrics.values())
    assert outcome.open_loop is open_loop


def test_batch_smoke():
    slots = ((12, "strong", "copy"), (12, "observational", "perturb"), (8, "failure", "copy"))
    _check(batch.run(1, 0.5, setup_repeats=1, cycles=1, slots=slots))


def test_protocol_smoke():
    _check(protocol.run(1, 0.5, setup_repeats=1, cases=protocol.CASES[-8:]))


@pytest.mark.parametrize("mode", ["hot", "edit"])
def test_service_smoke(mode):
    outcome = service.run(1, 1.5, mode=mode, setup_repeats=1, rates=(4.0, 8.0))
    _check(outcome, open_loop=True)
    assert len(outcome.details["steps"]) == 2
    assert outcome.layer["service.rtt_ms_p50"] > 0


def test_benchmark_json_matches_the_command():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (unit, _span, _field) in PER_LAYER.items()
    }
    layers = json.loads((ROOT / "perfbench" / "layers.json").read_text())["layers"]
    assert set(layers) == set(PER_LAYER)
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])


def test_command_prints_the_result_line_last():
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "protocol_explore",
         "--seed", "2", "--seconds", "0.5", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert result.returncode == 0, result.stderr
    last = json.loads(result.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert set(last["metrics"]) == set(PER_LAYER)
    assert last["metrics"]["explore.check_implicit_s"]["value"] > 0
    assert last["metrics"]["partition.solve_calls"]["value"] == 0
