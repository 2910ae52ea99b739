"""A wrong verdict or a forged witness must be counted as a failure."""

import json
from dataclasses import replace

import batch
import oracle
import protocol
import run
from repro import Engine
from repro.engine import engine as engine_module
from repro.engine.verdict import FormulaWitness
from repro.equivalence.hml import Tt
from repro.generators.random_fsp import perturb, random_equivalent_copy, random_fsp

TINY_SLOTS = ((12, "strong", "copy"), (12, "observational", "perturb"))


def _inequivalent_verdict():
    for seed in range(50):
        base = random_fsp(15, alphabet=("a", "b"), seed=seed)
        verdict = Engine().check(base, perturb(base, seed=seed), "observational")
        if not verdict.equivalent:
            return verdict
    raise AssertionError("no inequivalent pair among 50 seeds")


def test_genuine_verdicts_pass():
    base = random_fsp(15, alphabet=("a", "b"), seed=1)
    copy = random_equivalent_copy(base, duplicates=2, seed=1)
    assert oracle.engine_verdict(True, Engine().check(base, copy, "strong")) is None
    assert oracle.engine_verdict(None, _inequivalent_verdict()) is None


def test_wrong_and_forged_verdicts_fail():
    base = random_fsp(15, alphabet=("a", "b"), seed=2)
    copy = random_equivalent_copy(base, duplicates=2, seed=2)
    equivalent = Engine().check(base, copy, "strong")
    assert oracle.engine_verdict(True, replace(equivalent, equivalent=False)) is not None
    inequivalent = _inequivalent_verdict()
    forged = replace(inequivalent, witness=FormulaWitness(Tt(), weak=True))
    assert "rejected" in oracle.engine_verdict(None, forged)
    assert "no witness" in oracle.engine_verdict(None, replace(inequivalent, witness=None))


def test_injected_forged_witness_fails_the_batch_run(monkeypatch):
    genuine = engine_module.Engine.check

    def forging(self, *args, **kwargs):
        verdict = genuine(self, *args, **kwargs)
        return replace(verdict, equivalent=False, witness=FormulaWitness(Tt()))

    monkeypatch.setattr(engine_module.Engine, "check", forging)
    outcome = batch.run(1, 0.3, setup_repeats=1, cycles=1, slots=TINY_SLOTS)
    assert outcome.attempted > 0
    assert outcome.failed == outcome.wrong == outcome.attempted


def test_injected_wrong_conformance_fails_the_command(monkeypatch, capsys):
    import repro.protocols

    genuine = repro.protocols.check_conformance

    def flipping(*args, **kwargs):
        verdict = genuine(*args, **kwargs)
        return replace(verdict, equivalent=not verdict.equivalent)

    monkeypatch.setattr(repro.protocols, "check_conformance", flipping)
    status = run.main(["--workload", "protocol_explore", "--seed", "3", "--seconds", "0.3"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert status == 1
    assert result["correct"] is False
    assert result["failed"] > 0


def test_service_answer_must_match_the_engine():
    assert oracle.service_answer(True, {"equivalent": True}) is None
    assert oracle.service_answer(True, {"equivalent": False}) is not None
    assert oracle.service_answer(False, {}) is not None


def test_protocol_expectations():
    cases = protocol.make_cases(1, protocol.CASES[-8:])
    engine = Engine()
    for case in cases:
        assert protocol.verify(case, protocol.execute(case, engine)) is None
    conformance = next(case for case in cases if case["verb"] == "conformance")
    flipped = replace(protocol.execute(conformance, engine), equivalent=not conformance["expected"])
    assert protocol.verify(conformance, flipped) is not None
    stuck = next(case for case in cases if case["verb"] == "stuck" and case["expected"])
    assert protocol.verify(stuck, None) is not None
