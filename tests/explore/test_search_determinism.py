"""The on-the-fly search is reproducible: same pairs, same traces, every run.

Two guarantees:

* **Hash-seed independence.** Leaf processes list their moves in sorted
  order and defender responses follow discovery order, never the iteration
  order of a set, so a check explores the same pairs in the same order
  under every ``PYTHONHASHSEED``.  The
  subprocess test runs the same conformance checks under two seeds and
  compares the counts and traces.
* **Pinned searches.** The reduced protocol checks visit exactly the pair
  and state counts recorded here, with the same routes and traces.  Any
  change to the reductions' bookkeeping that alters the search (rather
  than only its cost) shows up as a diff against these numbers.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.explore.onthefly import check_implicit
from repro.protocols import build_scenario, find_stuck

_SRC = Path(__file__).resolve().parents[2] / "src"

_CHECK_SCRIPT = """
import json
from repro.explore.onthefly import check_implicit
from repro.protocols import build_scenario

out = {}
for name, n, side in CASES:
    scenario = build_scenario(name, n)
    result = check_implicit(scenario.spec, getattr(scenario, side), reduction="none")
    out[f"{name}/{side}"] = [result.pairs_visited, result.trace, result.route]
print(json.dumps(out))
"""

#: (scenario, n, side): quorum voting's pair count depends on the order of
#: the defender's weak responses, and the two-phase-commit mutant's search
#: on the order in which the leaf processes list their moves.
_CASES = (
    ("quorum_voting", 5, "system"),
    ("quorum_voting", 5, "mutant"),
    ("two_phase_commit", 6, "mutant"),
)


def _run_under_hash_seed(seed: int) -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(seed)
    env["PYTHONPATH"] = os.pathsep.join(part for part in (str(_SRC), env.get("PYTHONPATH")) if part)
    completed = subprocess.run(
        [sys.executable, "-c", f"CASES = {_CASES!r}\n{_CHECK_SCRIPT}"],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
        check=True,
    )
    return json.loads(completed.stdout)


def test_on_the_fly_search_ignores_the_hash_seed():
    first = _run_under_hash_seed(0)
    second = _run_under_hash_seed(1)
    assert first == second
    assert first["quorum_voting/system"][1] is None
    assert first["quorum_voting/mutant"][1] is not None
    assert first["two_phase_commit/mutant"][1] is not None


def test_quorum_n15_full_reduction_search_is_pinned():
    scenario = build_scenario("quorum_voting", 15)
    result = check_implicit(scenario.spec, scenario.system, reduction="full")
    assert result.equivalent
    assert result.pairs_visited == 46
    report = find_stuck(scenario.system, reduction="full")
    assert report is not None and report.kind == "deadlock"
    assert report.states_explored == 47
    assert report.trace[-1] == "decide"


def test_quorum_n5_mutant_full_reduction_trace_is_pinned():
    scenario = build_scenario("quorum_voting", 5)
    result = check_implicit(scenario.spec, scenario.mutant, reduction="full")
    assert not result.equivalent
    assert result.route == "bounded-game(k=2)"
    assert result.trace == ("decide", "decide")
    assert result.trace_verified is True
