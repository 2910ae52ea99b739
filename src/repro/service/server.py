"""The asyncio equivalence server: NDJSON RPCs fanned out over shard workers.

:class:`EquivalenceServer` owns one :class:`~repro.service.store.ProcessStore`
(where ``store`` uploads land) and one
:class:`~repro.service.shards.ShardPool` (where every check, minimisation and
classification actually runs).  The asyncio side never computes anything --
each connection is a cheap coroutine that parses frames, routes jobs to the
pool, and streams responses back -- so thousands of idle connections cost
almost nothing and the CPU-bound work saturates the worker processes.

Requests on one connection are answered in order (clients may pipeline);
``check_many`` fans its specs out across shards concurrently and reassembles
the results in manifest order, reporting per-check errors inline so one bad
spec cannot poison a 10,000-check batch.

Production posture
------------------

* **Deadlines.**  ``check``/``check_many``/``minimize``/``classify`` accept
  ``deadline_ms``; checks thread the deadline into the worker for
  cooperative cancellation (:mod:`repro.service.flow`), the rest get a
  server-side watchdog.  Either way the client sees a structured
  ``deadline_exceeded`` error instead of an unbounded wait.
* **Quotas.**  With ``quota_rps`` set, each client address draws compute
  requests from a token bucket (``check_many`` costs one token per check)
  and is answered ``overloaded`` -- with ``retry_after_ms`` -- when it
  outruns its rate.  Combined with the pool's bounded queues this is the
  backpressure story: reject early, never wedge.
* **Metrics.**  One :class:`~repro.service.metrics.MetricsRegistry` counts
  requests/errors per op, times requests, queue waits and engine seconds,
  and gauges live queue depths; exported by the ``metrics`` RPC (JSON) and,
  with ``metrics_port``, a Prometheus-text HTTP endpoint.  ``trace_stream``
  additionally logs one JSON record per request (id, op, client, shard,
  queue wait, engine time, cache provenance).

See ``docs/service-protocol.md`` for the wire format and a copy-pasteable
session, and :mod:`repro.service.client` for the matching client.
"""

from __future__ import annotations

import asyncio
import tempfile
import time
from collections import OrderedDict
from typing import IO, Any

from repro import __version__
from repro.engine import request
from repro.service import flow, protocol
from repro.service.metrics import MetricsRegistry, TraceLog
from repro.service.protocol import DEFAULT_PORT
from repro.service.shards import (
    DEFAULT_MAX_PROCESSES,
    DEFAULT_MAX_VERDICTS,
    ShardPool,
    _worker_classify,
    _worker_minimize,
)
from repro.service.store import ProcessStore

#: Most-recently-active client addresses with live token buckets; beyond
#: this, the coldest bucket is evicted (a returning client simply starts a
#: fresh, full bucket).
MAX_QUOTA_CLIENTS = 1024

#: Operations that never cost quota tokens: they are O(1) reads a client
#: needs precisely when it is being throttled.
QUOTA_EXEMPT_OPS = frozenset({"ping", "stats", "metrics"})


class EquivalenceServer:
    """A line-delimited-JSON equivalence-checking server.

    Parameters
    ----------
    host, port:
        Listen address; port 0 picks a free port (see :attr:`port` after
        :meth:`start`).
    store_root:
        Directory of the content-addressed process store, shared with every
        shard worker.  None creates a private temporary directory that lives
        as long as the server object.
    num_shards:
        Worker count of the shard pool (default: one per CPU).
    max_processes, max_verdicts:
        Per-shard engine cache bounds.
    max_queue, steal_threshold:
        Shard-pool flow control (see :class:`~repro.service.shards.ShardPool`):
        bounded per-shard queues and the work-stealing trigger.  Both default
        to off, preserving the pre-hardening behaviour.
    quota_rps, quota_burst:
        Per-client token-bucket quota (requests/second and burst capacity);
        ``quota_rps=None`` disables quotas, ``quota_burst=None`` defaults to
        twice the rate.
    metrics_port:
        Port for the Prometheus-text HTTP endpoint (0 picks a free port;
        None disables it).  Bound on the same host as the service.
    trace_stream:
        A text stream for per-request JSON trace records (``--trace`` passes
        stderr); None disables tracing.
    node_name:
        Cluster-node identity of this server (``repro cluster serve-node
        --name``).  Reported by ``ping``/``stats`` and stamped into each
        worker's exported engine stats so a gateway scraping several nodes
        renders their counters as distinct ``node=``-labelled series.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        *,
        store_root: str | None = None,
        num_shards: int | None = None,
        max_processes: int = DEFAULT_MAX_PROCESSES,
        max_verdicts: int = DEFAULT_MAX_VERDICTS,
        max_queue: int | None = None,
        steal_threshold: int | None = None,
        quota_rps: float | None = None,
        quota_burst: float | None = None,
        metrics_port: int | None = None,
        trace_stream: IO[str] | None = None,
        node_name: str | None = None,
    ) -> None:
        self.host = host
        self.port = port
        self.metrics_port = metrics_port
        self.node_name = node_name
        self._tempdir: tempfile.TemporaryDirectory | None = None
        if store_root is None:
            self._tempdir = tempfile.TemporaryDirectory(prefix="repro-service-")
            store_root = self._tempdir.name
        # The front-end store only ever *writes* (digest resolution happens
        # in the shard workers against their own instances), so a large
        # in-memory cache here would just pin dead uploads.
        self.store = ProcessStore(store_root, max_cached=8)
        self.pool = ShardPool(
            num_shards,
            store_root,
            max_processes=max_processes,
            max_verdicts=max_verdicts,
            max_queue=max_queue,
            steal_threshold=steal_threshold,
            node_name=node_name,
        )
        if quota_rps is not None and quota_rps <= 0:
            raise ValueError("quota_rps must be positive (or None to disable quotas)")
        self._quota_rps = quota_rps
        self._quota_burst = quota_burst if quota_burst is not None else (
            2.0 * quota_rps if quota_rps is not None else None
        )
        # Buckets live on the event-loop thread only, so no lock is needed.
        self._buckets: OrderedDict[str, flow.TokenBucket] = OrderedDict()
        self._server: asyncio.AbstractServer | None = None
        self._metrics_server: asyncio.AbstractServer | None = None
        self._connections = 0
        self._open_connections = 0
        self._requests = 0
        self._trace = TraceLog(trace_stream) if trace_stream is not None else None
        self.registry = MetricsRegistry()
        self._init_metrics()

    def _init_metrics(self) -> None:
        registry = self.registry
        self._m_requests = registry.counter(
            "repro_service_requests_total", "Requests served, by op", ("op",)
        )
        self._m_errors = registry.counter(
            "repro_service_errors_total", "Error responses, by op and code", ("op", "code")
        )
        self._m_request_seconds = registry.histogram(
            "repro_service_request_seconds", "End-to-end request latency, by op", ("op",)
        )
        self._m_queue_wait = registry.histogram(
            "repro_service_queue_wait_seconds", "Check queue wait, by shard", ("shard",)
        )
        self._m_engine_seconds = registry.histogram(
            "repro_service_engine_seconds", "Engine time per check, by notion", ("notion",)
        )
        self._m_cache = registry.counter(
            "repro_service_check_cache_total", "Check verdict cache hits/misses", ("outcome",)
        )
        registry.gauge(
            "repro_service_open_connections", "Currently open client connections"
        ).labels().set_function(lambda: self._open_connections)
        registry.gauge(
            "repro_service_pool_revivals", "Crashed shard workers replaced"
        ).labels().set_function(lambda: self.pool.revivals)
        registry.gauge(
            "repro_service_pool_steals", "Checks migrated off their home shard"
        ).labels().set_function(lambda: self.pool.steals)
        registry.gauge(
            "repro_service_pool_overloads", "Checks refused by full shard queues"
        ).labels().set_function(lambda: self.pool.overloads)
        depth = registry.gauge(
            "repro_service_shard_queue_depth", "Submitted-but-unfinished jobs, by shard", ("shard",)
        )
        for shard in range(self.pool.num_shards):
            depth.labels(str(shard)).set_function(
                lambda shard=shard: self.pool.queue_depths()[shard]
            )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind and start accepting connections (updates :attr:`port`)."""
        # Fork all shard workers before the loop gets busy (threads + fork
        # do not mix; see ShardPool.warm_up) -- also moves the start-up cost
        # out of the first request's latency.  Deliberately synchronous: a
        # helper thread here would itself widen the fork window.
        self.pool.warm_up()
        self._server = await asyncio.start_server(
            self._handle_connection,
            self.host,
            self.port,
            limit=protocol.MAX_FRAME_BYTES + 2,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if self.metrics_port is not None:
            self._metrics_server = await asyncio.start_server(
                self._handle_metrics_http, self.host, self.metrics_port
            )
            self.metrics_port = self._metrics_server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        """Run until cancelled (the ``repro serve`` entry point)."""
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._metrics_server is not None:
            self._metrics_server.close()
            await self._metrics_server.wait_closed()
            self._metrics_server = None
        self.pool.shutdown()
        if self._tempdir is not None:
            self._tempdir.cleanup()
            self._tempdir = None

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections += 1
        self._open_connections += 1
        peername = writer.get_extra_info("peername")
        peer = str(peername[0]) if isinstance(peername, tuple) and peername else "unknown"
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # StreamReader's limit tripped: the frame is over-long.
                    writer.write(
                        protocol.error_response(
                            None, protocol.BAD_REQUEST, "frame exceeds the size limit"
                        )
                    )
                    await writer.drain()
                    break
                if not line:
                    break  # EOF: client closed the connection
                if line.strip() == b"":
                    continue
                writer.write(await self._respond(line, peer))
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover - client vanished
            pass
        except asyncio.CancelledError:
            # Server shutdown with this connection open.  Returning normally
            # (instead of propagating) keeps asyncio.streams' connection
            # callback from logging a spurious traceback per connection.
            pass
        finally:
            self._open_connections -= 1
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
                # CancelledError: server shutdown with this connection open;
                # the socket is already closed, a traceback would be noise.
                pass

    async def _respond(self, line: bytes, peer: str = "unknown") -> bytes:
        """One request line in, one response line out (never raises)."""
        request_id: Any = None
        op: str | None = None
        started = time.monotonic()
        try:
            document = protocol.decode_frame(line)
            request_id = document.get("id")
            op, params = protocol.validate_request(document)
            self._requests += 1
            fields = request.parse(op, params)
            self._enforce_quota(peer, op, fields)
            result = await self._dispatch(op, fields)
            self._observe(op, None, started)
            self._trace_record(request_id, peer, op, "ok", started, result)
            return protocol.ok_response(request_id, result)
        except protocol.ProtocolError as error:
            self._observe(op, protocol.BAD_REQUEST, started)
            self._trace_record(request_id, peer, op, protocol.BAD_REQUEST, started, None)
            return protocol.error_response(request_id, protocol.BAD_REQUEST, str(error))
        except protocol.STRUCTURED_ERRORS as error:
            self._observe(op, error.code, started)
            self._trace_record(request_id, peer, op, error.code, started, None)
            return protocol.error_response(request_id, error.code, error.message, error.data)
        except Exception as error:  # last-resort guard: a bug must not kill the connection
            self._observe(op, protocol.INTERNAL, started)
            self._trace_record(request_id, peer, op, protocol.INTERNAL, started, None)
            return protocol.error_response(request_id, protocol.INTERNAL, repr(error))

    # ------------------------------------------------------------------
    # flow control and observability
    # ------------------------------------------------------------------
    def _enforce_quota(self, peer: str, op: str, fields: dict[str, Any]) -> None:
        """Charge one client's token bucket for a compute op (or reject)."""
        if self._quota_rps is None or op in QUOTA_EXEMPT_OPS:
            return
        bucket = self._buckets.get(peer)
        if bucket is None:
            assert self._quota_burst is not None
            bucket = flow.TokenBucket(self._quota_rps, self._quota_burst)
            self._buckets[peer] = bucket
            if len(self._buckets) > MAX_QUOTA_CLIENTS:
                self._buckets.popitem(last=False)
        self._buckets.move_to_end(peer)
        cost = float(max(1, len(fields["checks"]))) if op == "check_many" else 1.0
        wait = bucket.try_acquire(cost)
        if wait > 0:
            raise protocol.ServiceError(
                protocol.OVERLOADED,
                f"client quota exceeded ({self._quota_rps:g} requests/s)",
                {"retry_after_ms": int(wait * 1000) + 1},
            )

    def _observe(self, op: str | None, code: str | None, started: float) -> None:
        label = op or "invalid"
        self._m_requests.labels(label).inc()
        self._m_request_seconds.labels(label).observe(time.monotonic() - started)
        if code is not None:
            self._m_errors.labels(label, code).inc()

    def _observe_check(self, result: dict[str, Any]) -> None:
        """Fold one successful check result into the histograms."""
        queue_wait = result.get("queue_wait")
        if isinstance(queue_wait, (int, float)):
            self._m_queue_wait.labels(str(result.get("shard", "?"))).observe(float(queue_wait))
        seconds = result.get("seconds")
        if isinstance(seconds, (int, float)):
            self._m_engine_seconds.labels(str(result.get("notion", "?"))).observe(float(seconds))
        if "from_cache" in result:
            self._m_cache.labels("hit" if result.get("from_cache") else "miss").inc()

    def _trace_record(
        self,
        request_id: Any,
        peer: str,
        op: str | None,
        status: str,
        started: float,
        result: dict[str, Any] | None,
    ) -> None:
        if self._trace is None:
            return
        fields: dict[str, Any] = {
            "id": request_id,
            "peer": peer,
            "op": op or "invalid",
            "status": status,
            "seconds": round(time.monotonic() - started, 6),
        }
        if isinstance(result, dict) and "shard" in result:
            fields["shard"] = result.get("shard")
            if "queue_wait" in result:
                fields["queue_wait"] = result.get("queue_wait")
            if "seconds" in result:
                fields["engine_seconds"] = result.get("seconds")
            if "from_cache" in result:
                fields["cache"] = "hit" if result.get("from_cache") else "miss"
        self._trace.record(**fields)

    async def _run_with_watchdog(self, shard: int, deadline: float | None, fn, *args) -> Any:
        """``pool.run_async`` bounded by a server-side deadline.

        Used by ops whose workers do not thread deadlines internally
        (minimize/classify): the job itself is not cancelled, but the client
        gets its structured timeout instead of an unbounded wait.
        """
        coro = self.pool.run_async(shard, fn, *args)
        remaining = flow.remaining_seconds(deadline)
        if remaining is None:
            return await coro
        try:
            return await asyncio.wait_for(coro, timeout=max(remaining, 0.0))
        except asyncio.TimeoutError:
            raise protocol.ServiceError(
                protocol.DEADLINE_EXCEEDED, "deadline expired before the worker answered"
            ) from None

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    async def _dispatch(self, op: str, fields: dict[str, Any]) -> dict[str, Any]:
        """Serve one parsed request (``fields``: :func:`repro.engine.request.parse`)."""
        deadline = request.deadline_at(fields.get("deadline_ms"))
        if op == "ping":
            pong = {"pong": True, "version": __version__, "shards": self.pool.num_shards}
            if self.node_name is not None:
                pong["node"] = self.node_name
            return pong
        if op == "store":
            return await asyncio.to_thread(self._put, fields["process"])
        if op == "check":
            return await self._run_check(request.check_spec(fields), deadline)
        if op == "check_many":
            return await self._op_check_many(fields["checks"], deadline)
        if op == "minimize":
            notion = request.minimize_notion(fields["notion"])
            job: tuple = (_worker_minimize, fields["process"], notion)
        elif op == "classify":
            job = (_worker_classify, fields["process"])
        elif op == "stats":
            return await self._op_stats()
        else:
            return {"metrics": self.registry.snapshot()}
        shard = self.pool.route_check({"left": fields["process"]})
        return await self._run_with_watchdog(shard, deadline, *job)

    def _put(self, ref: dict[str, Any]) -> dict[str, Any]:
        # Validation, digesting and the disk write are CPU/IO work, run off
        # the event loop so a large upload cannot stall other connections
        # (the store's cache bookkeeping is lock-protected).
        fsp = protocol.resolve_ref({"process": ref})
        return {
            "digest": self.store.put(fsp),
            "states": fsp.num_states,
            "transitions": fsp.num_transitions,
        }

    async def _run_check(self, spec: dict[str, Any], deadline: float | None) -> dict[str, Any]:
        result = await self.pool.run_async_check(spec, deadline=deadline)
        self._observe_check(result)
        return result

    async def _op_check_many(
        self, checks: list[dict[str, Any]], deadline: float | None
    ) -> dict[str, Any]:
        # One deadline for the whole batch: every spec gets the same
        # absolute instant, so stragglers abort together.
        async def one(check: dict[str, Any]) -> dict[str, Any]:
            from concurrent.futures.process import BrokenProcessPool

            try:
                return await self._run_check(request.check_spec(check), deadline)
            except protocol.STRUCTURED_ERRORS as error:
                # Per-check failure: reported inline, the batch continues.
                return {"error": protocol.error_body(error.code, error.message, error.data)}
            except BrokenProcessPool:
                # The spec killed its worker even after the revive-and-retry:
                # report it inline rather than poisoning the whole batch.
                return {
                    "error": {
                        "code": protocol.INTERNAL,
                        "message": "worker process crashed while serving this check",
                    }
                }
            except Exception as error:
                # Any other worker-side failure (e.g. a corrupt store entry)
                # is also confined to its own slot of the batch.
                return {"error": {"code": protocol.INTERNAL, "message": repr(error)}}

        return protocol.batch_result(await asyncio.gather(*(one(check) for check in checks)))

    async def _op_stats(self) -> dict[str, Any]:
        from repro.service.shards import _worker_stats

        shard_stats = await asyncio.gather(
            *(
                self.pool.run_async(shard, _worker_stats)
                for shard in range(self.pool.num_shards)
            )
        )
        return {
            "server": {
                "version": __version__,
                "node": self.node_name,
                "shards": self.pool.num_shards,
                "connections": self._connections,
                "requests": self._requests,
                "revivals": self.pool.revivals,
                "steals": self.pool.steals,
                "overloads": self.pool.overloads,
                "queue_depths": self.pool.queue_depths(),
                "quota_clients": len(self._buckets),
                "store": self.store.cache_info(),
            },
            "shards": list(shard_stats),
        }

    # ------------------------------------------------------------------
    # the Prometheus scrape endpoint
    # ------------------------------------------------------------------
    async def _handle_metrics_http(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """A deliberately minimal HTTP/1.1 responder: any GET gets the text.

        This is a scrape endpoint, not a web server: one request per
        connection, headers are read and discarded, and the response always
        closes the connection (Prometheus handles both politely).
        """
        try:
            while True:
                line = await asyncio.wait_for(reader.readline(), timeout=5.0)
                if not line or line in (b"\r\n", b"\n"):
                    break
            body = self.registry.render().encode("utf-8")
            head = (
                "HTTP/1.1 200 OK\r\n"
                "Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
                f"Content-Length: {len(body)}\r\n"
                "Connection: close\r\n"
                "\r\n"
            )
            writer.write(head.encode("ascii") + body)
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError, asyncio.TimeoutError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
                pass


def serve(
    host: str = "127.0.0.1",
    port: int = DEFAULT_PORT,
    *,
    store_root: str | None = None,
    num_shards: int | None = None,
    max_processes: int = DEFAULT_MAX_PROCESSES,
    max_verdicts: int = DEFAULT_MAX_VERDICTS,
    max_queue: int | None = None,
    steal_threshold: int | None = None,
    quota_rps: float | None = None,
    quota_burst: float | None = None,
    metrics_port: int | None = None,
    trace_stream: IO[str] | None = None,
    node_name: str | None = None,
) -> None:
    """Blocking entry point used by ``repro serve`` (Ctrl-C to stop)."""

    async def main() -> None:
        server = EquivalenceServer(
            host,
            port,
            store_root=store_root,
            num_shards=num_shards,
            max_processes=max_processes,
            max_verdicts=max_verdicts,
            max_queue=max_queue,
            steal_threshold=steal_threshold,
            quota_rps=quota_rps,
            quota_burst=quota_burst,
            metrics_port=metrics_port,
            trace_stream=trace_stream,
            node_name=node_name,
        )
        await server.start()
        extras = ""
        if server.metrics_port is not None:
            extras = f", metrics on :{server.metrics_port}"
        name = f" [{server.node_name}]" if server.node_name else ""
        print(
            f"repro service{name} on {server.host}:{server.port} "
            f"({server.pool.num_shards} shard(s), store at {server.store.root}{extras})",
            flush=True,
        )
        try:
            await server.serve_forever()
        finally:
            await server.stop()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        pass
