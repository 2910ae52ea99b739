"""``protocol_explore``: on-the-fly checks over the ``protocols`` scenario library.

Closed loop, one caller.  Each cycle runs spec-vs-system conformance
(expected: conforms), spec-vs-mutant conformance (expected: does not, with a
replay-verified trace) and ``find_stuck`` deadlock searches (expected: the
known deadlock after a coordinator/station crash, orderly termination of
the one-shot protocols, nothing on the looping ones).  It covers quorum
voting, two-phase commit, token passing and ring election; quorum voting
runs with ``reduction="none"`` at n=5 and with ``reduction="full"`` at
n=15, including a mutant under full reduction.  Sizes are fixed so that
every seed runs the same mix (the two-phase-commit conformance case that
sits at the latency median runs three times per cycle, keeping the median
inside one case); the seed picks which validators crash.  Only the
``explore`` and ``protocols`` layers do real work here.
"""

from __future__ import annotations

import random

import oracle
from common import Outcome, closed_loop, repeated_setup
from stats import median, own_peak_rss_mb

#: One cycle: (verb, scenario, n, reduction, operand).  Operands:
#: ``system``/``mutant`` sides, ``crash`` (the scenario's first crash slot)
#: or ``crash_f1`` (f + 1 validators crashed, which breaks conformance).
CASES = (
    ("conformance", "quorum_voting", 15, "full", "system"),
    ("stuck", "quorum_voting", 15, "full", "system"),
    ("conformance", "quorum_voting", 5, "full", "mutant"),
    ("conformance", "quorum_voting", 5, "none", "system"),
    ("conformance", "quorum_voting", 5, "none", "mutant"),
    ("conformance", "quorum_voting", 5, "none", "crash_f1"),
    ("stuck", "quorum_voting", 5, "none", "system"),
    ("conformance", "two_phase_commit", 4, "none", "system"),
    ("conformance", "two_phase_commit", 4, "none", "system"),
    ("conformance", "two_phase_commit", 4, "none", "system"),
    ("conformance", "two_phase_commit", 6, "none", "mutant"),
    ("stuck", "two_phase_commit", 6, "none", "crash"),
    ("stuck", "two_phase_commit", 6, "none", "system"),
    ("conformance", "token_passing", 8, "none", "system"),
    ("conformance", "token_passing", 8, "none", "mutant"),
    ("stuck", "token_passing", 8, "none", "crash"),
    ("stuck", "token_passing", 8, "none", "system"),
    ("conformance", "ring_election", 8, "none", "system"),
    ("conformance", "ring_election", 8, "none", "mutant"),
    ("stuck", "ring_election", 8, "none", "system"),
)


def _stuck_expectation(name: str, operand: str, n: int) -> tuple[str | None, str | None]:
    """(expected stuck kind, action the trace must / must not reach)."""
    if operand == "crash":
        return "deadlock", "!commit" if name == "two_phase_commit" else None
    if name == "quorum_voting":
        return "deadlock", "decide"  # one-shot: orderly termination
    if name == "ring_election":
        return "deadlock", f"leader{n - 1}"
    return None, None  # looping protocols never get stuck


def make_cases(seed: int, cases=CASES) -> list[dict]:
    """Instantiate every case of one cycle (crashed validators drawn from ``seed``)."""
    from repro.explore.reduce import structural_state_estimate
    from repro.protocols import apply_fault, apply_faults, build_scenario

    rng = random.Random(f"protocol:{seed}")
    built = []
    for verb, name, n, reduction, operand in cases:
        scenario = build_scenario(name, n)
        if operand == "system":
            system = scenario.system
        elif operand == "mutant":
            system = scenario.mutant
        elif operand == "crash":
            system = apply_fault(scenario.system, scenario.crash_slots[0])
        else:
            crashed = rng.sample(list(scenario.crash_slots), scenario.f + 1)
            system = apply_faults(scenario.system, crashed)
        case = {
            "verb": verb,
            "label": f"{verb}/{name}/{operand}/{reduction}",
            "n": n,
            "structural_states": structural_state_estimate(system),
            "spec": scenario.spec,
            "system": system,
            "reduction": reduction,
        }
        if verb == "conformance":
            case["expected"] = operand == "system"
        else:
            case["expected"], case["must_reach"] = _stuck_expectation(name, operand, n)
        built.append(case)
    return built


def execute(case: dict, engine):
    from repro.protocols import check_conformance, find_stuck

    if case["verb"] == "conformance":
        return check_conformance(
            case["spec"], case["system"], engine=engine, reduction=case["reduction"]
        )
    return find_stuck(case["system"], reduction=case["reduction"])


def verify(case: dict, result) -> str | None:
    if case["verb"] == "conformance":
        return oracle.conformance(case["expected"], result)
    return oracle.stuck(case["expected"], case["must_reach"], result)


def run(
    seed: int,
    seconds: float,
    *,
    tracer=None,
    setup_repeats: int = 5,
    cases=CASES,
) -> Outcome:
    from repro import Engine
    from repro.protocols import build_scenario, check_conformance, find_stuck

    def setup():
        built = make_cases(seed, cases)
        # Warm-up on a three-validator quorum: every verb and reduction mode
        # pulls in its lazily imported modules before the clock starts.
        tiny = build_scenario("quorum_voting", 3)
        for reduction in ("none", "full"):
            check_conformance(tiny.spec, tiny.mutant, engine=Engine(), reduction=reduction)
            find_stuck(tiny.system, reduction=reduction)
        return built

    built, setup_s, setup_times = repeated_setup(setup, setup_repeats, lambda _: None)
    engine = Engine()
    records, window = closed_loop(built, lambda case: execute(case, engine), seconds, tracer=tracer)

    outcome = Outcome(setup_s=setup_s, attempted=len(records), window=window)
    elapsed = window[1] - window[0]
    pairs_visited = 0
    by_case: dict[str, list[float]] = {}
    for case, result, latency, error in records:
        outcome.latencies.append(latency)
        by_case.setdefault(case["label"], []).append(latency)
        outcome.fail(case["label"], error, None if error else verify(case, result))
        if case["verb"] == "conformance" and result is not None:
            pairs_visited += result.stats.details.get("pairs_visited", 0)
    outcome.ops_per_s = (outcome.attempted - outcome.failed) / elapsed
    outcome.sustained_rps = outcome.ops_per_s
    outcome.peak_rss_mb = own_peak_rss_mb()
    conformance = [case for case in built if case["verb"] == "conformance"]
    outcome.inputs = {
        "cases": [
            {
                "label": case["label"],
                "n": case["n"],
                "structural_states": case["structural_states"],
                "expected": case["expected"],
            }
            for case in built
        ],
        "verb_mix": {"conformance": len(conformance), "stuck": len(built) - len(conformance)},
        "answers": {
            "conforming": sum(1 for case in conformance if case["expected"]),
            "non_conforming": sum(1 for case in conformance if not case["expected"]),
        },
        "reduction_mix": {
            mode: sum(1 for case in built if case["reduction"] == mode) for mode in ("none", "full")
        },
    }
    info = engine.cache_info()
    lookups = info["hits"] + info["misses"]
    outcome.layer["engine.verdict_hit_ratio"] = info["hits"] / lookups if lookups else 0.0
    outcome.layer["explore.pairs_visited"] = float(pairs_visited)
    outcome.details = {
        "loop": "closed, one caller",
        "elapsed_s": elapsed,
        "setup_times_s": setup_times,
        "case_p50_ms": {
            label: median(values) * 1000.0 for label, values in sorted(by_case.items())
        },
    }
    return outcome
