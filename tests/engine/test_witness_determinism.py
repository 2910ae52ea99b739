"""Refusal witnesses do not depend on the hash seed.

After the distinguishing string ``a`` the left process below may refuse
``{a, b}``, ``{a, c}`` or ``{b, c}``, none of which the right process
refuses.  Maximal refusals come out of a set of sets, so a witness picked in
iteration order would change with ``PYTHONHASHSEED``; the engine reports the
least uncovered refusal by (size, sorted names) instead.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parents[2] / "src"

_SCRIPT = """
import json
from repro.core.fsp import FSP
from repro.engine import Engine

def process(transitions):
    states = sorted({s for s, _, _ in transitions} | {t for _, _, t in transitions})
    return FSP(states=states, start="s0", alphabet=("a", "b", "c"), transitions=transitions,
               variables=["x"], extensions=[(state, "x") for state in states])

left = process([("s0", "a", "s1"), ("s0", "a", "s2"), ("s0", "a", "s3"),
                ("s1", "a", "s1"), ("s2", "b", "s2"), ("s3", "c", "s3")])
right = process([("s0", "a", "s1"), ("s1", "a", "s1"), ("s1", "b", "s1"), ("s1", "c", "s1")])
verdict = Engine().check(left, right, "failure")
witness = verdict.witness
print(json.dumps([list(witness.string), sorted(witness.refusal), witness.in_left,
                  verdict.verify_witness()]))
"""


def _witness_under_hash_seed(seed: int) -> list:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(seed)
    env["PYTHONPATH"] = os.pathsep.join(part for part in (str(_SRC), env.get("PYTHONPATH")) if part)
    completed = subprocess.run(
        [sys.executable, "-c", _SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
        check=True,
    )
    return json.loads(completed.stdout)


def test_refusal_witness_is_the_least_under_every_hash_seed():
    witnesses = [_witness_under_hash_seed(seed) for seed in range(5)]
    assert witnesses == [[["a"], ["a", "b"], True, True]] * 5
