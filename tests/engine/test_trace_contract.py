"""The traced benchmark still sees every layer of a cold check.

``perfbench/tracing.py`` measures the layers by wrapping their entry points
(``LTS.from_fsp``, ``saturate_lts``, ``solve``, ``distinguishing_formula``,
``quotient``, ``Engine.check``).  A refactor that routed around one of them
would make its per-layer metric read zero without any test failing; one that
brought the quotient back into the check path would go unnoticed too.  This
test installs the tracer (read-only use of the benchmark module), runs one
inequivalent strong and one inequivalent observational check on a fresh
engine, and pins which spans each records.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from repro.engine import Engine
from repro.generators.random_fsp import perturb, random_fsp

_TRACING = Path(__file__).resolve().parents[2] / "perfbench" / "tracing.py"


@pytest.fixture
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    recorder = tracing.Tracer()
    installation = tracing.install(recorder)
    try:
        yield recorder
    finally:
        installation.remove()


def _spans_of(tracer, check) -> set[str]:
    before = len(tracer.spans)
    verdict = check()
    assert not verdict.equivalent and verdict.verify_witness()
    return {span[0] for span in tracer.spans[before:]}


def test_cold_checks_record_every_layer_and_no_quotient(tracer):
    left = random_fsp(20, alphabet=("a", "b"), seed=2)
    right = perturb(left, seed=2)
    engine = Engine()
    strong = _spans_of(tracer, lambda: engine.check(left, right, "strong"))
    observational = _spans_of(tracer, lambda: engine.check(left, right, "observational"))
    common = {"engine.check", "partition.solve.python", "equivalence.witness"}
    assert common | {"core.lts_from_fsp"} <= strong
    assert common | {"core.saturate"} <= observational
    assert "core.saturate" not in strong
    assert "equivalence.quotient" not in strong | observational
