"""``batch_mixed``: an offline manifest of distinct pairs on one in-process Engine.

Closed loop, one caller.  The manifest repeats a fixed cycle of slots --
size class, notion and pair kind -- while the seed draws every process, so
two seeds run the same mix on different inputs.  Pairs are equivalent
copies (``random_equivalent_copy``, answer known: equivalent) or
one-transition edits (``perturb``), checked under strong and observational
equivalence with witnesses; a few are failure and language checks on small
restricted-observable processes.  Small processes sit below and large ones
above the partition layer's 512-state vector dispatch threshold.  Every
pair is distinct, and the engine is replaced whenever the manifest starts
over, so the verdict cache never answers.
"""

from __future__ import annotations

import random

import oracle
from common import Outcome, closed_loop, repeated_setup
from stats import median, own_peak_rss_mb

#: One manifest cycle: (states, notion, pair kind).  The repeated slots set
#: where the latency percentiles fall: three 120-state observational copies
#: hold the median inside one slot kind, and two 540-state observational
#: edits (the witness-heavy slowest kind, a tenth of the cycle) hold the
#: tail inside one.
SLOTS = (
    (80, "strong", "copy"),
    (80, "strong", "perturb"),
    (120, "strong", "copy"),
    (120, "strong", "perturb"),
    (80, "observational", "copy"),
    (80, "observational", "perturb"),
    (120, "observational", "copy"),
    (120, "observational", "copy"),
    (120, "observational", "copy"),
    (120, "observational", "perturb"),
    (20, "failure", "copy"),
    (20, "failure", "perturb"),
    (20, "language", "copy"),
    (20, "language", "perturb"),
    (540, "strong", "copy"),
    (540, "strong", "perturb"),
    (540, "observational", "copy"),
    (540, "observational", "perturb"),
    (540, "observational", "copy"),
    (540, "observational", "perturb"),
)

#: Manifest length in cycles (distinct pairs = CYCLES * len(SLOTS)).
CYCLES = 8
ALPHABET = ("a", "b", "c")
VECTOR_THRESHOLD = 512


def make_pair(seed: int, index: int, slot) -> dict:
    """Pair ``index`` of the manifest for ``seed``."""
    from repro.generators.random_fsp import (
        perturb,
        random_equivalent_copy,
        random_fsp,
        random_restricted_observable_fsp,
    )

    states, notion, kind = slot
    rng = random.Random(f"batch:{seed}:{index}")
    if notion in ("failure", "language"):
        left = random_restricted_observable_fsp(states, alphabet=ALPHABET[:2], seed=rng)
    else:
        left = random_fsp(states, alphabet=ALPHABET, seed=rng)
    if kind == "copy":
        right = random_equivalent_copy(left, duplicates=3, seed=rng)
    else:
        right = perturb(left, seed=rng)
    return {
        "left": left,
        "right": right,
        "notion": notion,
        "kind": kind,
        "expected": True if kind == "copy" else None,
    }


def make_manifest(seed: int, cycles: int = CYCLES, slots=SLOTS) -> list[dict]:
    return [
        make_pair(seed, index, slots[index % len(slots)])
        for index in range(cycles * len(slots))
    ]


def describe_inputs(manifest: list[dict]) -> dict:
    """State/transition counts, dispatch-threshold share and the notion mix."""
    states = [pair[side].num_states for pair in manifest for side in ("left", "right")]
    transitions = [
        pair[side].num_transitions for pair in manifest for side in ("left", "right")
    ]
    notions: dict[str, int] = {}
    for pair in manifest:
        notions[pair["notion"]] = notions.get(pair["notion"], 0) + 1
    above = sum(
        1
        for pair in manifest
        if max(pair["left"].num_states, pair["right"].num_states) >= VECTOR_THRESHOLD
    )
    return {
        "pairs": len(manifest),
        "states_total": sum(states),
        "states_max": max(states),
        "transitions_total": sum(transitions),
        "transitions_max": max(transitions),
        "share_above_vector_threshold": above / len(manifest),
        "notion_mix": notions,
        "kind_mix": {
            kind: sum(1 for pair in manifest if pair["kind"] == kind)
            for kind in ("copy", "perturb")
        },
    }


def run(
    seed: int,
    seconds: float,
    *,
    tracer=None,
    setup_repeats: int = 3,
    cycles: int = CYCLES,
    slots=SLOTS,
) -> Outcome:
    from repro import Engine

    def setup():
        manifest = make_manifest(seed, cycles, slots)
        # Warm-up: one check per notion and per partition backend pulls in
        # every lazily imported module before the clock starts.
        warm: dict[tuple, dict] = {}
        for pair in manifest[: len(slots)]:
            large = pair["left"].num_states >= VECTOR_THRESHOLD
            if (pair["notion"], large) not in warm and not (large and pair["kind"] == "perturb"):
                warm[(pair["notion"], large)] = pair
        for pair in warm.values():
            Engine().check(pair["left"], pair["right"], pair["notion"], witness=True)
        return manifest

    manifest, setup_s, setup_times = repeated_setup(setup, setup_repeats, lambda _: None)
    engine = Engine()
    lookups = {"hits": 0, "misses": 0, "passes": 1}

    def execute(pair):
        return engine.check(pair["left"], pair["right"], pair["notion"], witness=True)

    def new_engine():
        nonlocal engine
        for key in ("hits", "misses"):
            lookups[key] += engine.cache_info()[key]
        lookups["passes"] += 1
        engine = Engine()

    records, window = closed_loop(manifest, execute, seconds, tracer=tracer, on_wrap=new_engine)
    new_engine()

    outcome = Outcome(setup_s=setup_s, attempted=len(records), window=window)
    elapsed = window[1] - window[0]
    equivalent = 0
    by_class: dict[str, list[float]] = {}
    for pair, verdict, latency, error in records:
        outcome.latencies.append(latency)
        key = f"{pair['left'].num_states}/{pair['notion']}/{pair['kind']}"
        by_class.setdefault(key, []).append(latency)
        answer = None if verdict is None else oracle.engine_verdict(pair["expected"], verdict)
        failed = outcome.fail(f"{pair['notion']}/{pair['kind']}", error, answer)
        if not failed and verdict.equivalent:
            equivalent += 1
    completed = outcome.attempted - outcome.failed
    outcome.ops_per_s = completed / elapsed
    outcome.sustained_rps = outcome.ops_per_s
    outcome.peak_rss_mb = own_peak_rss_mb()
    outcome.inputs = describe_inputs(manifest)
    outcome.inputs["answers"] = {
        "equivalent": equivalent,
        "inequivalent": completed - equivalent,
    }
    total = lookups["hits"] + lookups["misses"]
    outcome.layer["engine.verdict_hit_ratio"] = lookups["hits"] / total if total else 0.0
    outcome.details = {
        "loop": "closed, one caller",
        "elapsed_s": elapsed,
        "manifest_passes": lookups["passes"] - 1,
        "setup_times_s": setup_times,
        "class_p50_ms": {
            key: median(values) * 1000.0 for key, values in sorted(by_class.items())
        },
    }
    return outcome
