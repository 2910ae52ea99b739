"""The sharded worker pool: one single-process executor + engine per shard.

Kanellakis-Smolka checks over independent pairs are embarrassingly parallel,
but the engine's speed on server-style traffic comes from its *caches* --
and a naive shared pool scatters each process's checks across workers, so
every worker pays to compile the same artifacts.  A :class:`ShardPool`
instead owns ``num_shards`` :class:`~concurrent.futures.ProcessPoolExecutor`
instances of one worker process each, and routes every check by the content
digest of its left process (:func:`repro.utils.serialization.content_digest`).
The routing is therefore *sticky*: all checks touching a given process land
on the same worker, whose private bounded :class:`~repro.engine.Engine`
keeps that process's quotients, kernels and verdicts hot, while the shards
together multiply both the usable CPU and the aggregate cache capacity.

Worker lifecycle
----------------

Each worker is initialised (fork start method where available, so source
checkouts and pre-imported state carry over cheaply) with its shard index,
the shared read-only :class:`~repro.service.store.ProcessStore` root, and
its engine's cache bounds.  Job payloads are plain dicts and the results are
JSON-compatible dicts, so the inter-process traffic stays small; process
*references* resolve inside the worker against the content-addressed store,
which is exactly what lets a client upload a process once and check it
thousands of times without re-shipping it.

A crashed worker (OOM-killed, segfaulted C extension, ``os._exit``) breaks
its executor; :meth:`ShardPool.run` and :meth:`ShardPool.run_async` revive
the shard with a fresh executor -- the replacement worker starts with cold
caches but the content-addressed store still has every uploaded process --
and retry the job once before giving up.  Only genuine worker death
(:class:`~concurrent.futures.process.BrokenProcessPool`) takes that path:
every job submitted to a shard runs under :func:`_guarded`, which converts
*job-level* failures -- including exceptions that would not survive the
pickle trip home and would otherwise poison the executor -- into structured
:class:`~repro.service.protocol.ServiceError` replies, so a deterministic
bad job answers once instead of being replayed against a fresh worker.

Service hardening (deadlines, backpressure, work-stealing)
----------------------------------------------------------

* Check specs may carry an absolute monotonic ``deadline``; the worker
  aborts cooperatively (:func:`repro.service.flow.deadline_scope`) with a
  ``deadline_exceeded`` error -- before computing if the job out-queued its
  deadline, preemptively mid-refinement otherwise -- so slow-poison jobs
  cannot wedge a shard.
* ``max_queue`` bounds each shard's submitted-but-unfinished depth; the
  pool answers ``overloaded`` (with a retry hint) instead of queueing
  unboundedly.
* ``steal_threshold`` enables digest-affinity-preserving work-stealing:
  when a job's home shard is backed up, the job migrates to the least
  loaded shard *only if* it is store-referenced (any worker can resolve it
  against the shared store) and cache-cold on its home shard (its routing
  key has not been dispatched there recently -- stealing a cache-hot job
  would squander exactly the affinity the routing exists to build).  A
  stolen job whose host crashes falls back to its home shard once.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import multiprocessing
import os
import threading
import time
from collections import OrderedDict
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any

from repro.engine import request
from repro.service import flow, protocol
from repro.service.store import ProcessStore

try:  # pragma: no cover - always available on the supported platforms
    _MP_CONTEXT = multiprocessing.get_context("fork")
except ValueError:  # pragma: no cover - non-posix fallback
    _MP_CONTEXT = multiprocessing.get_context()

#: Default per-shard engine cache bounds (deliberately modest: the point of
#: sharding is that each worker only needs to hold *its* slice of the
#: working set, and per-worker memory is the budget operators actually set).
DEFAULT_MAX_PROCESSES = 64
DEFAULT_MAX_VERDICTS = 1024

#: Per-shard LRU of recently dispatched routing keys -- the pool-side proxy
#: for "this digest is hot in that worker's engine cache" that work-stealing
#: consults.  Sized above the per-shard engine bounds so the proxy errs
#: toward keeping affinity.
RECENT_KEYS_PER_SHARD = 128

#: Extra seconds the server waits past a request's deadline for the worker's
#: own structured ``deadline_exceeded`` reply (which carries shard/queue
#: telemetry) before answering on its behalf.
DEADLINE_GRACE_SECONDS = 0.5


def routing_key_of(spec: dict[str, Any]) -> str | None:
    """The affinity key of one check spec (``None`` = unroutable).

    A digest reference is its own key; an inline process or composed system
    is keyed by the digest of its canonically-serialised JSON.  The canonical
    separators match ``utils.serialization.canonical_bytes``, so an inline
    copy of a stored process routes to the same shard as its digest
    reference (the cache-affinity promise); composed-system and scenario
    documents hash the same way, keeping repeated questions about one system
    on one worker.  The cluster coordinator keys its node ring walk with the
    same function, so shard affinity and node affinity agree.
    """
    ref = spec.get("left")
    if isinstance(ref, dict):
        if isinstance(ref.get("digest"), str):
            return ref["digest"]
        if "process" in ref or "system" in ref or "scenario" in ref:
            body = ref.get("process", ref.get("system", ref.get("scenario")))
            canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
            return "sha256:" + hashlib.sha256(canonical.encode()).hexdigest()
    return None


# ----------------------------------------------------------------------
# worker-side state and job functions (top level: they must pickle)
# ----------------------------------------------------------------------
_WORKER: dict[str, Any] = {}


def _init_worker(
    shard_index: int,
    store_root: str | None,
    max_processes: int,
    max_verdicts: int,
    node_name: str | None = None,
) -> None:
    """Executor initializer: one engine (and store view) per worker process."""
    from repro.engine import Engine

    _WORKER["shard"] = shard_index
    _WORKER["engine"] = Engine(max_processes=max_processes, max_verdicts=max_verdicts)
    _WORKER["store"] = ProcessStore(store_root) if store_root is not None else None
    _WORKER["checks"] = 0
    _WORKER["node"] = node_name


def _worker_resolve(ref: Any):
    return protocol.resolve_ref(ref, _WORKER.get("store"))


def _check_failed(error: Exception) -> protocol.ServiceError:
    return protocol.ServiceError(protocol.CHECK_FAILED, str(error))


def _guarded(fn, *args) -> Any:
    """Run one job, converting every job-level failure to a ServiceError.

    This is the worker-side half of the crash-recovery contract: the parent
    retries a shard's job on a fresh executor *only* for
    :class:`BrokenProcessPool`, i.e. genuine worker death.  For that to be
    sound, no mere job exception may ever break the executor -- and an
    exception that fails to unpickle in the parent (third-party classes with
    required constructor arguments are the classic case) does exactly that:
    it kills the executor's result-handler thread, and the old code then
    replayed the deterministic poison job against a brand-new worker.
    Wrapping every submission here turns any such failure into a
    :class:`~repro.service.protocol.ServiceError`, whose ``__reduce__``
    guarantees the pickle round-trip, so a bad job answers once with a
    structured error and the worker lives on.
    """
    try:
        return fn(*args)
    except protocol.ServiceError:
        raise
    except flow.DeadlineExceeded:
        raise protocol.ServiceError(
            protocol.DEADLINE_EXCEEDED,
            "job deadline expired in the worker",
            {"shard": _WORKER.get("shard")},
        ) from None
    except Exception as error:
        raise protocol.ServiceError(
            protocol.INTERNAL, f"job raised {type(error).__name__}: {error}"
        ) from None


#: every check field's declared default (:data:`repro.engine.request.CHECK`)
_CHECK_DEFAULTS = {field.name: field.default for field in request.CHECK}


def _worker_check(spec: dict[str, Any]) -> dict[str, Any]:
    """Run one check inside the worker; returns a JSON-compatible verdict.

    Composed-system operands (``{"system": ...}`` references) take the
    on-the-fly route of :mod:`repro.explore` by default -- the product is
    never materialised in the worker -- as does any check whose manifest
    entry sets ``on_the_fly``; setting it to false instead composes the
    system eagerly and runs the classic cached route.
    """
    from repro.core.errors import ReproError
    from repro.explore.system import SystemSpec, compose_eager

    # A spec from repro.engine.request.check_spec carries every check field;
    # the declared defaults complete specs built by hand.
    job = {**_CHECK_DEFAULTS, **spec}
    enqueued = job.get("enqueued")
    queue_wait = max(0.0, time.monotonic() - enqueued) if enqueued is not None else None
    # The scope covers operand resolution too: a store read for a job that
    # already out-queued its deadline is work the client will never see.
    with flow.deadline_scope(job.get("deadline")):
        left = protocol.resolve_operand(job["left"], _WORKER.get("store"))
        right = protocol.resolve_operand(job["right"], _WORKER.get("store"))
        engine = _WORKER["engine"]
        composed = isinstance(left, SystemSpec) or isinstance(right, SystemSpec)
        on_the_fly = job["on_the_fly"]
        lazy = bool(on_the_fly) or (on_the_fly is None and composed)
        try:
            if lazy:
                extra = dict(job["params"])
                if job["reduction"] is not None:
                    extra["reduction"] = job["reduction"]
                verdict = engine.check_on_the_fly(
                    left, right, job["notion"], witness=job["witness"], **extra
                )
            else:
                if isinstance(left, SystemSpec):
                    left = compose_eager(left)
                if isinstance(right, SystemSpec):
                    right = compose_eager(right)
                verdict = engine.check(
                    left,
                    right,
                    job["notion"],
                    align=job["align"],
                    witness=job["witness"],
                    **job["params"],
                )
        except flow.DeadlineExceeded:
            raise
        except (ReproError, ValueError, TypeError) as error:
            raise _check_failed(error) from None
    _WORKER["checks"] += 1
    result = verdict.to_dict()
    if lazy:
        result["route"] = verdict.stats.details.get("route")
        result["pairs_visited"] = verdict.stats.details.get("pairs_visited")
        result["reduction"] = verdict.stats.details.get("reduction")
    result["shard"] = _WORKER["shard"]
    result["pid"] = os.getpid()
    if queue_wait is not None:
        result["queue_wait"] = round(queue_wait, 6)
    return result


def _worker_minimize(ref: Any, notion: str) -> dict[str, Any]:
    """Minimise one process inside the worker; returns the serialised quotient."""
    from repro.core.errors import ReproError
    from repro.utils.serialization import to_dict

    fsp = _worker_resolve(ref)
    try:
        minimal = _WORKER["engine"].minimize(fsp, notion=notion)
    except (ReproError, ValueError, TypeError) as error:
        raise _check_failed(error) from None
    return {
        "process": to_dict(minimal),
        "notion": notion,
        "states_before": fsp.num_states,
        "states_after": minimal.num_states,
        "shard": _WORKER["shard"],
    }


def _worker_classify(ref: Any) -> dict[str, Any]:
    """Classify one process inside the worker (Fig. 1a model hierarchy)."""
    from repro.core.classify import classify

    fsp = _worker_resolve(ref)
    return {
        "classes": sorted(str(model) for model in classify(fsp)),
        "states": fsp.num_states,
        "transitions": fsp.num_transitions,
        "shard": _WORKER["shard"],
    }


def _worker_stats() -> dict[str, Any]:
    """This worker's engine/store cache statistics (the ``stats`` RPC)."""
    store = _WORKER.get("store")
    return {
        "shard": _WORKER["shard"],
        "pid": os.getpid(),
        "checks": _WORKER["checks"],
        "engine": _WORKER["engine"].export_stats(node=_WORKER.get("node")),
        "store": store.cache_info() if store is not None else None,
    }


# ----------------------------------------------------------------------
# the pool
# ----------------------------------------------------------------------
class ShardPool:
    """``num_shards`` single-worker executors with digest-sticky routing."""

    def __init__(
        self,
        num_shards: int | None = None,
        store_root: str | os.PathLike | None = None,
        *,
        max_processes: int = DEFAULT_MAX_PROCESSES,
        max_verdicts: int = DEFAULT_MAX_VERDICTS,
        max_queue: int | None = None,
        steal_threshold: int | None = None,
        node_name: str | None = None,
    ) -> None:
        if num_shards is None:
            num_shards = max(1, os.cpu_count() or 1)
        if num_shards < 1:
            raise ValueError("num_shards must be positive")
        if max_queue is not None and max_queue < 1:
            raise ValueError("max_queue must be positive (or None for unbounded)")
        if steal_threshold is not None and steal_threshold < 1:
            raise ValueError("steal_threshold must be positive (or None to disable)")
        self.num_shards = num_shards
        self.store_root = str(store_root) if store_root is not None else None
        self.max_processes = max_processes
        self.max_verdicts = max_verdicts
        #: Backpressure bound: a shard refuses new checks (``overloaded``)
        #: once this many of its jobs are submitted-but-unfinished.
        self.max_queue = max_queue
        #: Work-stealing trigger: a stealable check leaves a home shard whose
        #: depth reached this bound for the least loaded shard.
        self.steal_threshold = steal_threshold
        #: Cluster-node identity stamped into each worker's exported engine
        #: stats (``None`` for the single-node service).
        self.node_name = node_name
        self._lock = threading.Lock()
        self._generations = [0] * num_shards
        self._depths = [0] * num_shards
        self._recent: list[OrderedDict[str, None]] = [OrderedDict() for _ in range(num_shards)]
        self._executors = [self._new_executor(index) for index in range(num_shards)]
        self._revivals = 0
        self._steals = 0
        self._overloads = 0

    def _new_executor(self, index: int) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=1,
            mp_context=_MP_CONTEXT,
            initializer=_init_worker,
            initargs=(
                index,
                self.store_root,
                self.max_processes,
                self.max_verdicts,
                self.node_name,
            ),
        )

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def shard_of(self, key: str) -> int:
        """The shard a routing key maps to (stable across runs and hosts).

        For a ``sha256:...`` content digest the hex itself is the hash; any
        other key is SHA-256'd first, so arbitrary strings route uniformly.
        """
        hex_part = ""
        if key.startswith("sha256:"):
            hex_part = key[len("sha256:") :]
        try:
            return int(hex_part[:16], 16) % self.num_shards
        except ValueError:
            # Not (valid) digest hex -- including malformed digests a client
            # sent: route by hashing the raw key so the worker's store lookup
            # gets to reject it with a proper unknown_digest error.
            hex_part = hashlib.sha256(key.encode("utf-8")).hexdigest()
            return int(hex_part[:16], 16) % self.num_shards

    def route_check(self, spec: dict[str, Any]) -> int:
        """The shard one check spec belongs to: keyed by its left process.

        Routing by the *left* reference means every manifest shaped ``one
        process vs many candidates`` stays entirely on one worker, whose
        engine then serves the repeated side from cache.

        Inline processes route by the digest of their canonically-serialised
        JSON, which equals the content digest whenever the dict came from
        ``to_dict`` (every library client does).  A hand-rolled client that
        inlines the same process with *unsorted* component lists still gets
        a deterministic shard, just not necessarily the digest's one --
        affinity is best-effort for non-canonical encodings, correctness is
        unaffected.
        """
        key = self.routing_key(spec)
        return self.shard_of(key) if key is not None else 0

    def routing_key(self, spec: dict[str, Any]) -> str | None:
        """The affinity key of one check spec (``None`` = unroutable, shard 0).

        Delegates to the module-level :func:`routing_key_of`, which the
        cluster coordinator shares so node affinity and shard affinity agree.
        """
        return routing_key_of(spec)

    # ------------------------------------------------------------------
    # submission with crash recovery
    # ------------------------------------------------------------------
    def submit(self, shard: int, fn, *args) -> Future:
        """Submit a raw job to one shard (no retry -- see :meth:`run`).

        Every job runs under :func:`_guarded` (so only worker death breaks
        the executor) and is counted against the shard's queue depth until
        its future resolves.
        """
        with self._lock:
            self._depths[shard] += 1
        try:
            future = self._executors[shard].submit(_guarded, fn, *args)
        except BaseException:
            self._job_done(shard)
            raise
        future.add_done_callback(lambda _future, shard=shard: self._job_done(shard))
        return future

    def _job_done(self, shard: int) -> None:
        with self._lock:
            if self._depths[shard] > 0:
                self._depths[shard] -= 1

    def revive(self, shard: int, generation: int) -> None:
        """Replace a broken shard executor (idempotent per generation)."""
        with self._lock:
            if self._generations[shard] != generation:
                return  # someone already revived this shard
            broken = self._executors[shard]
            self._generations[shard] += 1
            self._executors[shard] = self._new_executor(shard)
            self._revivals += 1
        broken.shutdown(wait=False, cancel_futures=True)

    def run(self, shard: int, fn, *args) -> Any:
        """Run one job on one shard, reviving the worker once if it crashed."""
        generation = self._generations[shard]
        try:
            return self.submit(shard, fn, *args).result()
        except BrokenProcessPool:
            self.revive(shard, generation)
            return self.submit(shard, fn, *args).result()

    async def run_async(self, shard: int, fn, *args) -> Any:
        """Awaitable :meth:`run` (used by the asyncio server)."""
        generation = self._generations[shard]
        try:
            return await asyncio.wrap_future(self.submit(shard, fn, *args))
        except BrokenProcessPool:
            self.revive(shard, generation)
            return await asyncio.wrap_future(self.submit(shard, fn, *args))

    # ------------------------------------------------------------------
    # the check-shaped surface (what the server and benchmarks call)
    # ------------------------------------------------------------------
    def plan_check(self, spec: dict[str, Any]) -> tuple[int, int]:
        """``(home, dispatch)`` shards for one spec, after flow control.

        The dispatch shard is the home shard unless work-stealing moves the
        job: with ``steal_threshold`` set, a *store-referenced* check (its
        left operand is a digest any worker resolves against the shared
        store) that is *cache-cold* on a backed-up home shard (its routing
        key was not dispatched there recently) migrates to the least loaded
        shard.  Hot or inline jobs stay home -- stealing them would squander
        exactly the affinity the digest routing exists to build.

        Raises
        ------
        ServiceError
            :data:`~repro.service.protocol.OVERLOADED` when ``max_queue`` is
            set and the chosen shard's queue is full; ``error.data`` carries
            a ``retry_after_ms`` hint.
        """
        home = self.route_check(spec)
        key = self.routing_key(spec)
        left = spec.get("left")
        store_referenced = isinstance(left, dict) and isinstance(left.get("digest"), str)
        with self._lock:
            shard = home
            if (
                self.steal_threshold is not None
                and store_referenced
                and self._depths[home] >= self.steal_threshold
                and key not in self._recent[home]
            ):
                target = min(range(self.num_shards), key=self._depths.__getitem__)
                if self._depths[target] < self._depths[home]:
                    shard = target
                    self._steals += 1
            if self.max_queue is not None and self._depths[shard] >= self.max_queue:
                self._overloads += 1
                depth = self._depths[shard]
                raise protocol.ServiceError(
                    protocol.OVERLOADED,
                    f"shard {shard} queue is full ({depth} jobs, max_queue={self.max_queue})",
                    {"retry_after_ms": 100, "shard": shard, "queue_depth": depth},
                )
            if key is not None:
                recent = self._recent[shard]
                recent[key] = None
                recent.move_to_end(key)
                if len(recent) > RECENT_KEYS_PER_SHARD:
                    recent.popitem(last=False)
        return home, shard

    def submit_check(
        self, spec: dict[str, Any], *, deadline: float | None = None
    ) -> tuple[int, int, dict[str, Any], Future]:
        """Plan and submit one check; ``(home, dispatch, job, future)``.

        The submitted job is a copy of ``spec`` stamped with its enqueue
        instant (for the worker's ``queue_wait`` telemetry) and, when given,
        the absolute monotonic ``deadline`` the worker enforces.
        """
        home, shard = self.plan_check(spec)
        job = dict(spec)
        job["enqueued"] = time.monotonic()
        if deadline is not None:
            job["deadline"] = deadline
        generation = self._generations[shard]
        try:
            future = self.submit(shard, _worker_check, job)
        except BrokenProcessPool:
            # The dispatch shard broke before accepting this job (a crash
            # left its executor unusable): revive it and fall back to the
            # home shard right away.
            self.revive(shard, generation)
            future = self.submit(home, _worker_check, job)
        return home, shard, job, future

    def check(self, spec: dict[str, Any], *, deadline: float | None = None) -> dict[str, Any]:
        """Run one check spec on its planned shard (blocking).

        A crashed dispatch shard is revived and the job retried once -- on
        its *home* shard, so a stolen job's fallback lands where its store
        reference is routed.
        """
        home, shard, job, future = self.submit_check(spec, deadline=deadline)
        generation = self._generations[shard]
        try:
            return future.result()
        except BrokenProcessPool:
            self.revive(shard, generation)
            return self.submit(home, _worker_check, job).result()

    async def run_async_check(
        self, spec: dict[str, Any], *, deadline: float | None = None
    ) -> dict[str, Any]:
        """Awaitable :meth:`check` with a deadline-bounded wait.

        The worker's own cooperative abort normally answers first (its
        ``deadline_exceeded`` error carries shard telemetry); the server-side
        :func:`asyncio.wait_for` at deadline + grace is the backstop for a
        worker stuck somewhere signals cannot reach.
        """
        home, shard, job, future = self.submit_check(spec, deadline=deadline)
        generation = self._generations[shard]
        try:
            return await self._await_job(future, deadline)
        except BrokenProcessPool:
            self.revive(shard, generation)
            return await self._await_job(self.submit(home, _worker_check, job), deadline)

    @staticmethod
    async def _await_job(future: Future, deadline: float | None) -> Any:
        wrapped = asyncio.wrap_future(future)
        remaining = flow.remaining_seconds(deadline)
        if remaining is None:
            return await wrapped
        try:
            return await asyncio.wait_for(wrapped, timeout=remaining + DEADLINE_GRACE_SECONDS)
        except asyncio.TimeoutError:
            raise protocol.ServiceError(
                protocol.DEADLINE_EXCEEDED,
                "deadline expired before the worker answered",
            ) from None

    def check_many(self, specs: list[dict[str, Any]]) -> list[dict[str, Any]]:
        """Fan a manifest out across the shards; results in manifest order.

        Jobs are submitted shard-sticky and collected in order; a shard that
        crashes mid-manifest is revived and its affected specs are re-run
        once each.
        """
        generations = list(self._generations)
        futures = []
        for spec in specs:
            shard = self.route_check(spec)
            futures.append((spec, shard, self.submit(shard, _worker_check, spec)))
        results = []
        for spec, shard, future in futures:
            try:
                results.append(future.result())
            except BrokenProcessPool:
                # One crash breaks every future still pending on that shard;
                # the stale generation snapshot makes revive() a no-op for
                # all of them but the first, so the shard restarts once per
                # crash, not once per affected spec.
                self.revive(shard, generations[shard])
                results.append(self.submit(shard, _worker_check, spec).result())
        return results

    def stats(self) -> list[dict[str, Any]]:
        """Per-shard worker statistics (engine + store cache info)."""
        return [self.run(shard, _worker_stats) for shard in range(self.num_shards)]

    def warm_up(self) -> None:
        """Fork every worker now (a no-op job per shard, awaited together).

        Executors spawn their worker lazily on first submit; forking that
        late -- from a process that has meanwhile started an asyncio loop
        and helper threads -- risks the classic fork-with-threads hazards.
        The server calls this before accepting connections so the forks
        happen while the process is still quiet (revival forks after a
        worker crash remain lazy, the rare case).
        """
        for future in [self.submit(shard, _worker_stats) for shard in range(self.num_shards)]:
            future.result()

    @property
    def revivals(self) -> int:
        """How many crashed shard workers have been replaced so far."""
        return self._revivals

    @property
    def steals(self) -> int:
        """How many checks migrated off their home shard so far."""
        return self._steals

    @property
    def overloads(self) -> int:
        """How many checks were refused with ``overloaded`` so far."""
        return self._overloads

    def queue_depths(self) -> list[int]:
        """Submitted-but-unfinished jobs per shard (a point-in-time read)."""
        with self._lock:
            return list(self._depths)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        for executor in self._executors:
            executor.shutdown(wait=False, cancel_futures=True)

    def __enter__(self) -> "ShardPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def __repr__(self) -> str:
        return (
            f"ShardPool(num_shards={self.num_shards}, store_root={self.store_root!r}, "
            f"max_queue={self.max_queue}, steal_threshold={self.steal_threshold}, "
            f"revivals={self._revivals}, steals={self._steals})"
        )
