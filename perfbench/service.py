"""``service_hot`` and ``service_edit``: open loops against an ``EquivalenceServer``.

The server runs in its own process (:mod:`server`) with at most ``nproc``
shard workers; the benchmark process is the client: one asyncio loop over
at most ``nproc`` connections.  Each connection carries one request at a
time, as the wire protocol serves a connection in order.

The load is an *open loop* at a few fixed offered rates, one step each.
Requests are due on a fixed schedule whatever the server does, queue in the
client while every connection is busy, and their latency is timed from
when they were due.  A step is *sustained* when nothing failed, its tail
latency stays under the workload's limit and its backlog (queued plus
in-flight requests) did not grow; ``sustained_rps`` is the completion rate
of the highest sustained step and ``ops_per_s`` the completion rate over
all steps.  There is no closed-loop capacity probe: on a shared two-CPU
machine its throughput swings by 2x from run to run.

Workloads:

* ``hot`` -- digest-referenced checks of small processes uploaded during
  setup, drawn Zipf-skewed from a fixed pool of pairs.  Setup warms every
  pair, so nearly every check is a verdict-cache hit in its shard: framing,
  routing and queueing dominate.
* ``edit`` -- each request uploads a one-transition ``perturb`` edit of one
  of thirty-two 100-130-state bases (``store``), then checks its base against the
  edit under observational equivalence: store writes and cold checks next
  to a base that stays hot on its shard (checks route by the left digest).

Every answer is checked against an in-process ``Engine`` answer for the
same pair, computed after the run for the pairs actually sent.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import select
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import oracle
from common import Outcome, repeated_setup
from stats import median, own_peak_rss_mb, percentile, tail, vm_hwm_mb

HERE = Path(__file__).resolve().parent
WORK = HERE.parent / ".perfbench_work"

#: Shards and client connections: at most one per CPU.
SHARDS = max(1, min(2, os.cpu_count() or 1))
CONNECTIONS = SHARDS
SERVER_START_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 30.0
DRAIN_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class Mode:
    rates: tuple[float, ...]  # offered requests/second, one open-loop step each
    latency_limit_ms: float  # tail-latency limit of a sustained step


MODES = {
    "hot": Mode(rates=(50.0, 100.0, 150.0), latency_limit_ms=50.0),
    "edit": Mode(rates=(3.0, 6.0, 9.0), latency_limit_ms=1000.0),
}

HOT_BASES = 32
HOT_SIZES = (20, 30, 40, 60)
HOT_ZIPF_S = 1.1
#: Thirty-two bases of 100..130 states: inside the 50-300 range of the edit
#: loop, cheap enough that a run sends well over a hundred edits, and many
#: and alike enough that neither the latency median nor its tail hinges on
#: the one or two costliest bases a seed happens to draw.
EDIT_BASE_SIZES = (100, 110, 120, 130) * 8
#: Pre-generated edits per setup; the run wraps around past this many.
EDIT_POOL = 200
ALPHABET = ("a", "b", "c")


# ----------------------------------------------------------------------
# the server process
# ----------------------------------------------------------------------
class ServerProcess:
    """One ``perfbench/server.py`` child; :meth:`close` stops and reaps it."""

    def __init__(self, store: Path, trace_dir: Path | None = None) -> None:
        command = [
            sys.executable,
            str(HERE / "server.py"),
            "--shards",
            str(SHARDS),
            "--store",
            str(store),
        ]
        if trace_dir is not None:
            command += ["--trace-dir", str(trace_dir)]
        self.proc = subprocess.Popen(command, stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], SERVER_START_TIMEOUT_S)
            line = self.proc.stdout.readline() if ready else b""
            if not line:
                raise RuntimeError("the benchmark server did not start")
            info = json.loads(line)
        except BaseException:
            self.close()
            raise
        self.port: int = info["port"]
        self.pid: int = info["pid"]

    def close(self) -> None:
        if self.proc.stdin is not None and not self.proc.stdin.closed:
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
def _zipf_sampler(shard_of_pair: list[int], rng: random.Random):
    """Zipf-skewed pair draws whose ranks alternate between shards.

    Which pair is hottest differs per seed, but consecutive ranks go to
    different shards, so every seed offers each shard the same share of the
    traffic: the skew is across pairs, not across shards.
    """
    count = len(shard_of_pair)
    by_shard: dict[int, list[int]] = {}
    for pair in rng.sample(range(count), count):
        by_shard.setdefault(shard_of_pair[pair], []).append(pair)
    queues = [by_shard[shard] for shard in sorted(by_shard)]
    ranks = []
    while len(ranks) < count:
        for queue in queues:
            if queue:
                ranks.append(queue.pop())
    weights = [0.0] * count
    for rank, pair in enumerate(ranks):
        weights[pair] = 1.0 / (rank + 1) ** HOT_ZIPF_S
    population = list(range(count))

    def draw() -> int:
        return rng.choices(population, weights)[0]

    return draw


def make_hot_pool(seed: int) -> list[dict]:
    """Pairs (base vs equivalent copy, base vs one-transition edit), two notions."""
    from repro.generators.random_fsp import perturb, random_equivalent_copy, random_fsp

    pairs = []
    for index in range(HOT_BASES):
        rng = random.Random(f"hot:{seed}:{index}")
        base = random_fsp(HOT_SIZES[index % len(HOT_SIZES)], alphabet=ALPHABET, seed=rng)
        notions = ("strong", "observational") if index % 2 else ("observational", "strong")
        copy, edit = random_equivalent_copy(base, 2, rng), perturb(base, rng)
        pairs.append({"left": base, "right": copy, "notion": notions[0]})
        pairs.append({"left": base, "right": edit, "notion": notions[1]})
    return pairs


def make_edit_inputs(seed: int) -> tuple[list, list[dict]]:
    """The bases and a pool of one-transition edits cycling over them."""
    from repro.generators.random_fsp import perturb, random_fsp

    rng = random.Random(f"edit:{seed}")
    bases = [random_fsp(size, alphabet=ALPHABET, seed=rng) for size in EDIT_BASE_SIZES]
    edits = []
    for index in range(EDIT_POOL):
        base_index = index % len(bases)
        edits.append({"base": base_index, "edit": perturb(bases[base_index], rng)})
    return bases, edits


def describe(processes, *, pairs: int, notions: dict, extra: dict) -> dict:
    states = [fsp.num_states for fsp in processes]
    transitions = [fsp.num_transitions for fsp in processes]
    return {
        "pairs": pairs,
        "processes": len(processes),
        "states_total": sum(states),
        "states_max": max(states),
        "transitions_total": sum(transitions),
        "transitions_max": max(transitions),
        "share_above_vector_threshold": sum(1 for s in states if s >= 512) / len(states),
        "notion_mix": notions,
        **extra,
    }


# ----------------------------------------------------------------------
# the asyncio client
# ----------------------------------------------------------------------
class Connection:
    """One NDJSON connection with one request in flight at a time."""

    def __init__(self, reader, writer) -> None:
        self.reader, self.writer = reader, writer
        self._next_id = 0

    @classmethod
    async def open(cls, port: int) -> "Connection":
        from repro.service import protocol

        reader, writer = await asyncio.open_connection(
            "127.0.0.1", port, limit=protocol.MAX_FRAME_BYTES + 2
        )
        return cls(reader, writer)

    async def call(self, op: str, params: dict) -> dict:
        from repro.service import protocol

        self._next_id += 1
        self.writer.write(protocol.request_frame(self._next_id, op, params))
        await self.writer.drain()
        line = await asyncio.wait_for(self.reader.readline(), REQUEST_TIMEOUT_S)
        if not line:
            raise protocol.ProtocolError("server closed the connection")
        response_id, result = protocol.parse_response(line)
        if response_id != self._next_id:
            raise protocol.ProtocolError("response id mismatch")
        return result

    async def close(self) -> None:
        self.writer.close()
        await self.writer.wait_closed()


@dataclass
class Request:
    """One request and what became of it."""

    key: int  # hot: pair index; edit: edit index
    due: float = 0.0
    done: float = 0.0
    rtt_s: float = 0.0
    store_rtt_s: float | None = None
    result: dict | None = None
    error: str | None = None

    @property
    def latency(self) -> float:
        return self.done - self.due


@dataclass
class Step:
    rate: float
    requests: list[Request] = field(default_factory=list)
    lags: list[float] = field(default_factory=list)
    backlog: list[int] = field(default_factory=list)
    elapsed: float = 0.0


class LoadClient:
    """Builds and sends the requests of one mode over open connections."""

    def __init__(self, mode: str, state: dict, tracer=None) -> None:
        self.mode = mode
        self.state = state
        self.tracer = tracer
        self.rng = random.Random(f"{mode}:requests:{state['seed']}")
        self._edit_cursor = 0
        if mode == "hot":
            self._draw = _zipf_sampler(state["pool_shards"], self.rng)

    def next_request(self) -> Request:
        if self.mode == "hot":
            return Request(self._draw())
        key = self._edit_cursor
        self._edit_cursor += 1
        return Request(key)

    async def send(self, conn: Connection, request: Request) -> None:
        from repro.service import protocol

        try:
            if self.mode == "hot":
                left, right, notion = self.state["pool_refs"][request.key]
            else:
                edit = self.state["edits"][request.key % len(self.state["edits"])]
                store_started = time.perf_counter()
                stored = await conn.call("store", {"process": edit["payload"]})
                request.store_rtt_s = time.perf_counter() - store_started
                self._span("service.store_put", store_started, request)
                base = self.state["base_digests"][edit["base"]]
                left, right, notion = base, stored["digest"], "observational"
            check_started = time.perf_counter()
            request.result = await conn.call(
                "check",
                {
                    "left": protocol.process_ref(left),
                    "right": protocol.process_ref(right),
                    "notion": notion,
                    "align": True,
                    "witness": False,
                },
            )
            request.rtt_s = time.perf_counter() - check_started
            self._span("service.rtt", check_started, request)
        except (
            protocol.ServiceError,
            protocol.ProtocolError,
            OSError,
            asyncio.TimeoutError,
        ) as exc:
            request.error = f"{type(exc).__name__}: {exc}"
        request.done = time.perf_counter()

    def _span(self, name: str, started: float, request: Request) -> None:
        if self.tracer is not None:
            self.tracer.record(name, started, time.perf_counter(), f"{self.mode}-{request.key}")


async def open_loop_step(
    load: LoadClient, conns: list[Connection], rate: float, seconds: float
) -> Step:
    """Offer ``rate`` requests/second for ``seconds``; drain; return the step."""
    step = Step(rate)
    queue: asyncio.Queue = asyncio.Queue()
    in_flight = [0]

    async def worker(conn: Connection) -> None:
        while True:
            request = await queue.get()
            if request is None:
                return
            in_flight[0] += 1
            await load.send(conn, request)
            in_flight[0] -= 1

    workers = [asyncio.ensure_future(worker(conn)) for conn in conns]
    begin = time.perf_counter()
    for index in range(max(1, round(rate * seconds))):
        due = begin + index / rate
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        request = load.next_request()
        request.due = due
        step.lags.append(time.perf_counter() - due)
        step.requests.append(request)
        queue.put_nowait(request)
        step.backlog.append(queue.qsize() + in_flight[0])
    for _ in workers:
        queue.put_nowait(None)
    done, pending = await asyncio.wait(workers, timeout=DRAIN_TIMEOUT_S)
    for task in pending:
        task.cancel()
    for task in done:
        task.result()
    step.elapsed = max((r.done for r in step.requests if r.done), default=begin) - begin
    return step


def backlog_growing(samples: list[int]) -> bool:
    """True when the last quarter's backlog clearly exceeds the first quarter's."""
    quarter = max(1, len(samples) // 4)
    first = sum(samples[:quarter]) / quarter
    last = sum(samples[-quarter:]) / quarter
    return last > 2.0 * first + CONNECTIONS


async def drive(load: LoadClient, port: int, step_s: float, mode: Mode):
    conns = [await Connection.open(port) for _ in range(CONNECTIONS)]
    try:
        begin = time.perf_counter()
        steps = [await open_loop_step(load, conns, rate, step_s) for rate in mode.rates]
        window = (begin, time.perf_counter())
    finally:
        for conn in conns:
            await conn.close()
    return steps, window


# ----------------------------------------------------------------------
# setup and the run
# ----------------------------------------------------------------------
def setup_server(mode: str, seed: int, store: Path, trace_dir: Path | None) -> dict:
    """Generate inputs, start the server, upload and warm up."""
    from repro.service import ServiceClient
    from repro.utils.serialization import to_dict

    shutil.rmtree(store, ignore_errors=True)
    state: dict = {"seed": seed, "mode": mode}
    if mode == "hot":
        state["pool"] = make_hot_pool(seed)
    else:
        bases, edits = make_edit_inputs(seed)
        for edit in edits:
            edit["payload"] = to_dict(edit["edit"])
        state["bases"], state["edits"] = bases, edits
    server = ServerProcess(store, trace_dir)
    state["server"] = server
    try:
        with ServiceClient(port=server.port) as client:
            if mode == "hot":
                state["pool_refs"], state["pool_shards"] = [], []
                for pair in state["pool"]:
                    refs = (client.store(pair["left"]), client.store(pair["right"]), pair["notion"])
                    state["pool_refs"].append(refs)
                    answer = client.check(refs[0], refs[1], refs[2])  # warm the verdict cache
                    state["pool_shards"].append(answer["shard"])
            else:
                # Checks route by the left operand's digest: the base, so each
                # base's edits stay on the shard that holds it hot.  One
                # warm-up edit per base fills that shard's caches.
                state["base_digests"] = [client.store(base) for base in state["bases"]]
                warm = state["edits"][: len(state["bases"])]
                for edit in warm:
                    digest = state["base_digests"][edit["base"]]
                    client.check(digest, client.store(edit["edit"]), "observational")
                state["edits"] = state["edits"][len(warm):]
    except BaseException:
        server.close()
        raise
    return state


def server_snapshot(port: int) -> dict:
    from repro.service import ServiceClient

    with ServiceClient(port=port) as client:
        stats = client.stats()
        metrics = client.metrics()

    def gauge(name: str) -> float:
        series = metrics.get(name, {}).get("series", [])
        return float(sum(entry.get("value", 0) for entry in series))

    shards = stats["shards"]
    return {
        "engine_hits": sum(s["engine"]["hits"] for s in shards),
        "engine_misses": sum(s["engine"]["misses"] for s in shards),
        "store_hits": sum((s["store"] or {}).get("hits", 0) for s in shards),
        "store_misses": sum((s["store"] or {}).get("misses", 0) for s in shards),
        "steals": gauge("repro_service_pool_steals"),
        "overloads": gauge("repro_service_pool_overloads"),
        "revivals": gauge("repro_service_pool_revivals"),
        "shard_pids": [s["pid"] for s in shards],
    }


def _ratio(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def run(
    seed: int,
    seconds: float,
    *,
    mode: str,
    tracer=None,
    setup_repeats: int = 3,
    rates: tuple[float, ...] | None = None,
) -> Outcome:
    spec = MODES[mode]
    if rates is not None:
        spec = Mode(rates=rates, latency_limit_ms=spec.latency_limit_ms)
    store = WORK / f"store-{mode}-{os.getpid()}"
    trace_dir = tracer.out_dir if tracer is not None else None
    state, setup_s, setup_times = repeated_setup(
        lambda: setup_server(mode, seed, store, trace_dir),
        setup_repeats,
        lambda old: old["server"].close(),
    )
    server: ServerProcess = state["server"]
    step_s = seconds / len(spec.rates)
    try:
        before = server_snapshot(server.port)
        load = LoadClient(mode, state, tracer)
        steps, window = asyncio.run(drive(load, server.port, step_s, spec))
        after = server_snapshot(server.port)
        peak_rss = own_peak_rss_mb() + vm_hwm_mb(server.pid) + sum(
            vm_hwm_mb(pid) for pid in after["shard_pids"]
        )
    finally:
        server.close()
        shutil.rmtree(store, ignore_errors=True)

    every = [r for step in steps for r in step.requests]
    references = _references(state, {r.key for r in every})
    outcome = Outcome(setup_s=setup_s, peak_rss_mb=peak_rss, window=window, open_loop=True)
    outcome.attempted = len(every)
    failed = set()
    for request in every:
        if request.result is None:
            error, answer = request.error or "no response", None
        else:
            error, answer = None, oracle.service_answer(references[request.key], request.result)
        if outcome.fail(f"{mode}#{request.key}", error, answer):
            failed.add(id(request))
    step_rows = []
    sustained = 0.0
    for step in steps:
        latencies = [r.latency for r in step.requests]
        step_tail, step_pct, _ = tail(latencies)
        ok = sum(1 for r in step.requests if id(r) not in failed)
        growing = backlog_growing(step.backlog)
        achieved = ok / step.elapsed if step.elapsed > 0 else 0.0
        within_limit = step_tail * 1000.0 < spec.latency_limit_ms
        passed = ok == len(step.requests) and not growing and within_limit
        if passed:
            sustained = achieved
        outcome.latencies.extend(latencies)
        step_rows.append(
            {
                "offered_rps": step.rate,
                "achieved_rps": achieved,
                "requests": len(step.requests),
                "failed": len(step.requests) - ok,
                "latency_p50_ms": median(latencies) * 1000.0,
                "latency_tail_ms": step_tail * 1000.0,
                "tail_percentile": step_pct,
                "backlog_max": max(step.backlog, default=0),
                "backlog_end": step.backlog[-1] if step.backlog else 0,
                "backlog_growing": growing,
                "generator_lag_ms_max": max(step.lags, default=0.0) * 1000.0,
                "sustained": passed,
            }
        )
    outcome.sustained_rps = sustained
    busy = sum(step.elapsed for step in steps)
    outcome.ops_per_s = (outcome.attempted - outcome.failed) / busy if busy > 0 else 0.0

    completed = [r for r in every if r.result is not None]
    rtts = [r.rtt_s * 1000.0 for r in completed]
    waits = [float(r.result.get("queue_wait") or 0.0) * 1000.0 for r in completed]
    computes = [float(r.result.get("seconds") or 0.0) * 1000.0 for r in completed]
    overheads = [rtt - wait - compute for rtt, wait, compute in zip(rtts, waits, computes)]
    stores = [r.store_rtt_s * 1000.0 for r in every if r.store_rtt_s is not None]
    outcome.layer = {
        "engine.verdict_hit_ratio": _ratio(
            after["engine_hits"] - before["engine_hits"],
            after["engine_misses"] - before["engine_misses"],
        ),
        "service.rtt_ms_p50": median(rtts),
        "service.queue_wait_ms_p50": median(waits),
        "service.queue_wait_ms_tail": tail(waits)[0],
        "service.compute_ms_p50": median(computes),
        "service.overhead_ms_p50": median(overheads),
        "service.store_put_ms_p50": median(stores),
        "service.store_cache_hit_ratio": _ratio(
            after["store_hits"] - before["store_hits"],
            after["store_misses"] - before["store_misses"],
        ),
        "service.steals": after["steals"] - before["steals"],
        "service.overloads": after["overloads"] - before["overloads"],
        "service.revivals": after["revivals"] - before["revivals"],
        "service.generator_lag_ms_max": max(row["generator_lag_ms_max"] for row in step_rows),
    }
    outcome.inputs = _describe_inputs(mode, state)
    equivalent = sum(1 for answer in references.values() if answer)
    outcome.inputs["answers_sent"] = {
        "equivalent": equivalent,
        "inequivalent": len(references) - equivalent,
    }
    outcome.details = {
        "loop": f"open loop over {CONNECTIONS} connections",
        "shards": SHARDS,
        "connections": CONNECTIONS,
        "latency_limit_ms": spec.latency_limit_ms,
        "steps": step_rows,
        "setup_times_s": setup_times,
        "rtt_ms_p99": percentile(rtts, 99.0),
        "shard_share": {
            str(shard): sum(1 for r in completed if r.result.get("shard") == shard) / len(completed)
            for shard in sorted({r.result.get("shard") for r in completed})
        },
    }
    return outcome


def _references(state: dict, keys) -> dict[int, bool]:
    """The in-process Engine answer for every distinct pair or edit sent."""
    from repro import Engine

    engine = Engine()
    references = {}
    for key in sorted(keys):
        if state["mode"] == "hot":
            pair = state["pool"][key]
            left, right, notion = pair["left"], pair["right"], pair["notion"]
        else:
            edit = state["edits"][key % len(state["edits"])]
            left, right, notion = state["bases"][edit["base"]], edit["edit"], "observational"
        references[key] = engine.check(left, right, notion, align=True, witness=False).equivalent
    return references


def _describe_inputs(mode: str, state: dict) -> dict:
    if mode == "hot":
        pool = state["pool"]
        processes = list({id(p[s]): p[s] for p in pool for s in ("left", "right")}.values())
        notions: dict[str, int] = {}
        for pair in pool:
            notions[pair["notion"]] = notions.get(pair["notion"], 0) + 1
        return describe(
            processes,
            pairs=len(pool),
            notions=notions,
            extra={"zipf_s": HOT_ZIPF_S},
        )
    processes = state["bases"] + [edit["edit"] for edit in state["edits"]]
    return describe(
        processes,
        pairs=len(state["edits"]),
        notions={"observational": len(state["edits"])},
        extra={"base_states": [base.num_states for base in state["bases"]]},
    )
