"""The checker's benchmark: one command per workload, every answer checked.

Usage (from the root of a source checkout)::

    python3 perfbench/run.py --workload batch_mixed --seed 1 --seconds 15 --trace 0

Workloads (``BENCHMARK.json`` records why each was chosen):

* ``batch_mixed`` -- offline manifest on one in-process ``Engine``;
* ``service_hot`` -- open loop of cache-hot digest checks against an
  ``EquivalenceServer``;
* ``service_edit`` -- open loop of upload-an-edit-then-check requests;
* ``protocol_explore`` -- ``check_conformance`` / ``find_stuck`` over the
  ``protocols`` library.

``service_hot`` is not in ``BENCHMARK.json``: its latencies are a couple of
milliseconds of process wake-ups, which moved by 30% between runs as the
shared host changed pace.  It stays runnable for the cached-path contrast
(verdict hit ratio 1, no partition work) its traced run shows.

``--trace 0`` measures the end-to-end metrics with the program unmodified.
``--trace 1`` splits the time: an untraced phase, then a phase with the
layer wrappers of :mod:`trace` installed; it reports the per-layer metrics
(self time and call counts per layer, service timings) and the tracing
overhead, the traced phase's ``ops_per_s`` against the untraced one's.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print every
metric by name with its unit, the generated inputs and, when traced, the
per-layer table.  The full record (inputs, rate steps, failures, layer
table) goes to ``.perfbench_work/results/``, traced spans to
``.perfbench_work/trace/``.  ``failed`` counts failed, refused, timed-out
and wrong operations (``failed_frac`` is printed above the JSON line; it
is not in ``metrics`` because it is 0 on a healthy run).  A wrong answer
sets ``correct`` to false and the exit code to 1.
"""

from __future__ import annotations

import argparse
import importlib
import json
import shutil
import sys
from pathlib import Path

from stats import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

#: workload name -> module holding its ``run(seed, seconds, tracer=...)``.
WORKLOADS = {
    "batch_mixed": ("batch", {}),
    "service_hot": ("service", {"mode": "hot"}),
    "service_edit": ("service", {"mode": "edit"}),
    "protocol_explore": ("protocol", {}),
}

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "sustained_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MiB",
}

#: per-layer metric -> (unit, span name or None, what is summed).  Span sums
#: cover the measured window; ``protocols.instantiate`` runs during set-up,
#: so its sum covers the set-up spans instead (see SETUP_SPANS).
PER_LAYER = {
    "core.lts_from_fsp_s": ("s", "core.lts_from_fsp", "self_s"),
    "core.saturate_s": ("s", "core.saturate", "self_s"),
    "core.saturate_calls": ("count", "core.saturate", "count"),
    "partition.solve_python_s": ("s", "partition.solve.python", "self_s"),
    "partition.solve_vector_s": ("s", "partition.solve.vector", "self_s"),
    "partition.solve_calls": ("count", None, None),
    "equivalence.quotient_s": ("s", "equivalence.quotient", "self_s"),
    "equivalence.witness_s": ("s", "equivalence.witness", "self_s"),
    "equivalence.witness_calls": ("count", "equivalence.witness", "count"),
    "equivalence.failure_s": ("s", "equivalence.failure", "self_s"),
    "automata.language_dfa_s": ("s", "automata.language_dfa", "self_s"),
    "engine.check_self_s": ("s", "engine.check", "self_s"),
    "engine.check_calls": ("count", "engine.check", "count"),
    "engine.verdict_hit_ratio": ("ratio", None, None),
    "explore.check_implicit_s": ("s", "explore.check_implicit", "self_s"),
    "explore.find_stuck_s": ("s", "explore.find_stuck", "self_s"),
    "explore.pairs_visited": ("count", None, None),
    "explore.reduce_successors_s": ("s", "explore.reduce_successors", "self_s"),
    "explore.reduce_successors_calls": ("count", "explore.reduce_successors", "count"),
    "protocols.instantiate_s": ("s", "protocols.instantiate", "self_s"),
    "service.rtt_ms_p50": ("ms", None, None),
    "service.queue_wait_ms_p50": ("ms", None, None),
    "service.queue_wait_ms_tail": ("ms", None, None),
    "service.compute_ms_p50": ("ms", None, None),
    "service.overhead_ms_p50": ("ms", None, None),
    "service.store_put_ms_p50": ("ms", None, None),
    "service.store_cache_hit_ratio": ("ratio", None, None),
    "service.steals": ("count", None, None),
    "service.overloads": ("count", None, None),
    "service.revivals": ("count", None, None),
    "service.generator_lag_ms_max": ("ms", None, None),
    "trace.overhead_frac": ("ratio", None, None),
}
SETUP_SPANS = frozenset({"protocols.instantiate"})


def bootstrap() -> None:
    """Import the program from this checkout's ``src`` (and nowhere else)."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import repro
    except ImportError as error:
        raise SystemExit(f"perfbench: cannot import the program from {src}: {error}") from None
    if not Path(repro.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {src}")


def run_workload(name: str, seed: int, seconds: float, tracer=None, **options):
    module_name, kwargs = WORKLOADS[name]
    module = importlib.import_module(module_name)
    return module.run(seed, seconds, tracer=tracer, **kwargs, **options)


def per_layer_metrics(traced, table: dict, setup_table: dict, untraced) -> dict[str, float]:
    """The ``per_layer`` metrics of ``BENCHMARK.json`` from one traced phase."""
    metrics: dict[str, float] = {}
    for metric, (_unit, span, field) in PER_LAYER.items():
        source = setup_table if span in SETUP_SPANS else table
        metrics[metric] = float(source.get(span, {}).get(field, 0)) if span else 0.0
    metrics["partition.solve_calls"] = float(
        sum(table.get(f"partition.solve.{b}", {}).get("count", 0) for b in ("python", "vector"))
    )
    metrics.update({key: float(value) for key, value in traced.layer.items()})
    if traced.open_loop:
        # Offered rates fix an open loop's ops_per_s: compare median latency.
        base, slowed = median(untraced.latencies), median(traced.latencies)
        metrics["trace.overhead_frac"] = slowed / base - 1.0 if base > 0 else 0.0
    elif untraced.ops_per_s > 0:
        metrics["trace.overhead_frac"] = 1.0 - traced.ops_per_s / untraced.ops_per_s
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bootstrap()
    import tracing

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record: dict = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds}
    if args.trace == 0:
        outcome = run_workload(args.workload, args.seed, args.seconds)
        metrics = outcome.end_to_end()
        units = END_TO_END
        attempted, failures, wrong = outcome.attempted, outcome.failures, outcome.wrong
    else:
        half = args.seconds / 2.0
        untraced = run_workload(args.workload, args.seed, half, setup_repeats=1)
        trace_dir = WORK / "trace" / f"{args.workload}-seed{args.seed}"
        shutil.rmtree(trace_dir, ignore_errors=True)
        tracer = tracing.Tracer(trace_dir)
        installation = tracing.install(tracer)
        try:
            outcome = run_workload(args.workload, args.seed, half, tracer, setup_repeats=1)
        finally:
            installation.remove()
        tracer.flush()
        spans = tracing.load_spans(trace_dir)
        table = tracing.layer_table(spans, outcome.window)
        setup_table = tracing.layer_table(spans, (float("-inf"), outcome.window[0]))
        metrics = per_layer_metrics(outcome, table, setup_table, untraced)
        units = {name: spec[0] for name, spec in PER_LAYER.items()}
        attempted = untraced.attempted + outcome.attempted
        failures = untraced.failures + outcome.failures
        wrong = untraced.wrong + outcome.wrong
        record["layer_table"] = table
        record["setup_layer_table"] = setup_table
        record["untraced_end_to_end"] = untraced.end_to_end()
        for title, rows in (("measured", table), ("set-up", setup_table)):
            print(f"{title + ' span':32s} {'self_s':>10s} {'total_s':>10s} {'count':>8s}")
            for span, row in sorted(rows.items()):
                print(f"{span:32s} {row['self_s']:10.4f} {row['total_s']:10.4f} {row['count']:8d}")

    correct = wrong == 0
    for name, value in metrics.items():
        print(f"{name:32s} {value:14.4f} {units[name]}")
    print(f"{'failed_frac':32s} {len(failures) / max(attempted, 1):14.4f} ratio")
    print("inputs", json.dumps(outcome.inputs, sort_keys=True))
    print("details", json.dumps(outcome.details, sort_keys=True, default=str))
    for reason in failures[:10]:
        print("FAILED", reason)
    record.update(
        inputs=outcome.inputs,
        details=outcome.details,
        metrics=metrics,
        failures=failures[:100],
        attempted=attempted,
    )
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1, default=str))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": {
                    name: {"value": value, "unit": units[name]} for name, value in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
