"""What every workload shares: the run record and the closed-loop runner."""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from stats import median, tail


@dataclass
class Outcome:
    """Everything one measured phase of a workload produced.

    ``latencies`` are the seconds of every attempted operation;
    ``failures`` holds one reason per failed, refused, timed-out or wrong
    operation, and ``wrong`` counts the answers the oracle rejected.
    ``ops_per_s`` is the rate of completed operations and
    ``sustained_rps`` the highest open-loop rate held within the latency
    limit (a closed loop's one caller sustains its own completion rate).
    """

    setup_s: float = 0.0
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    wrong: int = 0
    latencies: list[float] = field(default_factory=list)
    ops_per_s: float = 0.0
    sustained_rps: float = 0.0
    peak_rss_mb: float = 0.0
    inputs: dict[str, Any] = field(default_factory=dict)
    details: dict[str, Any] = field(default_factory=dict)
    layer: dict[str, float] = field(default_factory=dict)
    #: perf_counter interval of the measured phase (spans outside it are set-up)
    window: tuple[float, float] = (0.0, 0.0)
    open_loop: bool = False

    @property
    def failed(self) -> int:
        return len(self.failures)

    def fail(self, label: str, error: str | None, wrong_answer: str | None) -> bool:
        """Record an operation's error or rejected answer; True if it failed."""
        reason = error or wrong_answer
        if reason is None:
            return False
        self.wrong += error is None
        self.failures.append(f"{label}: {reason}")
        return True

    def end_to_end(self) -> dict[str, float]:
        """The end-to-end metrics of ``BENCHMARK.json`` (milliseconds where named)."""
        tail_value, tail_pct, samples = tail(self.latencies)
        self.details["latency_tail"] = {"percentile": tail_pct, "samples": samples}
        self.details["failed_frac"] = self.failed / self.attempted if self.attempted else 0.0
        return {
            "setup_s": self.setup_s,
            "ops_per_s": self.ops_per_s,
            "sustained_rps": self.sustained_rps,
            "latency_p50_ms": median(self.latencies) * 1000.0,
            "latency_tail_ms": tail_value * 1000.0,
            "peak_rss_mb": self.peak_rss_mb,
        }


def closed_loop(
    cases: list,
    execute: Callable[[Any], Any],
    seconds: float,
    *,
    tracer=None,
    on_wrap: Callable[[], None] | None = None,
) -> tuple[list[tuple[Any, Any, float, str | None]], tuple[float, float]]:
    """One caller, next operation only after the previous one completes.

    Cycles through ``cases`` until ``seconds`` have elapsed; ``on_wrap``
    runs (untimed) each time the list starts over, e.g. to swap in a fresh
    engine so no pair is ever answered from the verdict cache.  Returns
    ``(records, window)``: one ``(case, result, seconds, error)`` record
    per operation and the ``(begin, end)`` perf_counter window; answers are
    checked afterwards, outside the timed window.
    """
    records: list[tuple[Any, Any, float, str | None]] = []
    begin = time.perf_counter()
    index = 0
    while time.perf_counter() - begin < seconds:
        if index and index % len(cases) == 0 and on_wrap is not None:
            on_wrap()
        case = cases[index % len(cases)]
        if tracer is not None:
            tracer.request_id = index
        started = time.perf_counter()
        try:
            result, error = execute(case), None
        except Exception as exc:  # a failed operation is counted, not fatal
            result, error = None, f"{type(exc).__name__}: {exc}"
        records.append((case, result, time.perf_counter() - started, error))
        index += 1
    end = time.perf_counter()
    if tracer is not None:
        tracer.request_id = None
    return records, (begin, end)


def repeated_setup(setup: Callable[[], Any], repeats: int, dispose: Callable[[Any], None]):
    """Run ``setup`` ``repeats`` times; keep the last, report the median time.

    The kept state -- the generated inputs -- is then frozen out of the
    cyclic garbage collector: otherwise every full collection during the
    measurement re-scans the whole input pool, which charges the program's
    latency with a pause whose size depends on the benchmark's own memory
    (it doubled single check times on 540-state pairs).
    """
    times, state = [], None
    for _ in range(repeats):
        if state is not None:
            dispose(state)
        started = time.perf_counter()
        state = setup()
        times.append(time.perf_counter() - started)
    gc.collect()
    gc.freeze()
    return state, median(times), times
