"""The HTTP/JSON gateway: the cluster's front door.

A :class:`ClusterGateway` wraps one :class:`~repro.cluster.coordinator.
ClusterCoordinator` in a small hand-rolled HTTP/1.1 server (stdlib asyncio
only, same discipline as the rest of the service stack).  HTTP is the
boundary where non-Python clients, load balancers and scrapers live; the
wire RPCs map one-to-one onto POST routes and the two conventional probe
endpoints are GETs:

====================  =======================================================
``POST /v1/check``    one equivalence check (body = check params)
``POST /v1/check_many``  a manifest of checks
``POST /v1/minimize``    minimisation (artifact-cache first)
``POST /v1/classify``    hierarchy classification
``POST /v1/store``       upload + replicate one process
``POST /v1/stats``       coordinator + per-node stats
``POST /v1/ping``        coordinator liveness detail
``GET  /healthz``        200 when >= 1 node is healthy, else 503
``GET  /metrics``        Prometheus text (gateway + node-labelled engine series)
====================  =======================================================

Responses are ``{"ok": true, "result": ...}`` or ``{"ok": false, "error":
{"code", "message", "data"}}`` with the service error codes mapped onto
HTTP statuses (``overloaded`` -> 429 with ``Retry-After``, ``unknown_digest``
-> 404, ``deadline_exceeded`` -> 504, ...), so plain HTTP clients get
meaningful statuses and :class:`~repro.cluster.client.ClusterClient` can
reconstruct the exact :class:`~repro.service.protocol.ServiceError`.

``/metrics`` satisfies the per-node namespacing contract: engine counters
fetched from each node's ``stats`` op (which the nodes label via
``Engine.export_stats(node=...)``) are re-exported as gauges labelled
``{node, shard}``, so one scrape of the gateway distinguishes every
engine in the cluster.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any

from repro.cluster.coordinator import ClusterCoordinator
from repro.engine import request
from repro.service import protocol
from repro.service.metrics import MetricsRegistry

from repro.cluster import DEFAULT_GATEWAY_PORT

__all__ = ["DEFAULT_GATEWAY_PORT", "ClusterGateway", "serve_gateway"]

#: Largest accepted request body; same ceiling as one NDJSON frame.
MAX_BODY_BYTES = protocol.MAX_FRAME_BYTES

#: HTTP status for each service error code.
_STATUS_FOR_CODE = {
    protocol.BAD_REQUEST: 400,
    protocol.UNKNOWN_OP: 404,
    protocol.INVALID_PROCESS: 400,
    protocol.UNKNOWN_DIGEST: 404,
    protocol.CHECK_FAILED: 422,
    protocol.DEADLINE_EXCEEDED: 504,
    protocol.OVERLOADED: 429,
    protocol.INTERNAL: 500,
}

_POST_OPS = ("check", "check_many", "minimize", "classify", "store", "stats", "ping")

#: Node stats fetch for /metrics must not stall a scrape behind a sick node.
METRICS_STATS_TIMEOUT = 5.0


class ClusterGateway:
    """HTTP front end over one coordinator (see module docstring)."""

    def __init__(
        self,
        coordinator: ClusterCoordinator,
        *,
        host: str = "127.0.0.1",
        port: int = DEFAULT_GATEWAY_PORT,
    ) -> None:
        self.coordinator = coordinator
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None
        self.registry = MetricsRegistry()
        self._requests = self.registry.counter(
            "repro_gateway_requests_total", "HTTP requests accepted", ("route",)
        )
        self._errors = self.registry.counter(
            "repro_gateway_errors_total", "HTTP requests answered with an error", ("route", "code")
        )
        self._latency = self.registry.histogram(
            "repro_gateway_request_seconds", "HTTP request latency", ("route",)
        )
        node_healthy = self.registry.gauge(
            "repro_cluster_node_healthy", "1 when the coordinator's last probe succeeded", ("node",)
        )
        for node_id, node in coordinator.nodes.items():
            node_healthy.labels(node_id).set_function(
                lambda node=node: 1.0 if node.healthy else 0.0
            )
        for name, help_text, attr in (
            ("repro_cluster_failovers_total", "requests retried on another node", "failovers"),
            ("repro_cluster_steals_total", "checks stolen from a busy primary", "steals"),
            ("repro_cluster_repairs_total", "digest read-repairs pushed to nodes", "repairs"),
            ("repro_cluster_replications_total", "replica uploads accepted", "replications"),
            (
                "repro_cluster_replication_failures_total",
                "replica uploads that failed",
                "replication_failures",
            ),
            (
                "repro_cluster_artifact_hits_total",
                "minimize served from artifacts",
                "artifact_hits",
            ),
            (
                "repro_cluster_artifact_misses_total",
                "minimize artifact lookups that missed",
                "artifact_misses",
            ),
        ):
            self.registry.gauge(name, help_text).labels().set_function(
                lambda attr=attr: float(getattr(self.coordinator, attr))
            )
        # Engine counters re-exported per (node, shard); refreshed on scrape.
        self._engine_series = self.registry.gauge(
            "repro_cluster_engine_stat",
            "per-engine counters gathered from node stats",
            ("node", "shard", "stat"),
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        await self.coordinator.start()
        self._server = await asyncio.start_server(self._handle_connection, self.host, self.port)
        sockets = self._server.sockets or ()
        for sock in sockets:
            self.port = sock.getsockname()[1]
            break

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.coordinator.stop()

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                request = await self._read_request(reader)
                if request is None:
                    break
                method, path, headers, body = request
                status, payload, extra = await self._route(method, path, body)
                keep_alive = headers.get("connection", "").lower() != "close"
                await self._write_response(writer, status, payload, extra, keep_alive)
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError, ValueError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - peer reset
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, dict[str, str], bytes] | None:
        try:
            request_line = await reader.readline()
        except (ConnectionError, asyncio.LimitOverrunError):
            return None
        if not request_line:
            return None
        parts = request_line.decode("latin-1").split()
        if len(parts) != 3:
            raise ValueError("malformed request line")
        method, target, _version = parts
        headers: dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        if length < 0 or length > MAX_BODY_BYTES:
            raise ValueError("request body too large")
        body = await reader.readexactly(length) if length else b""
        return method.upper(), target.split("?", 1)[0], headers, body

    async def _write_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Any,
        extra_headers: dict[str, str],
        keep_alive: bool,
    ) -> None:
        reason = {
            200: "OK",
            400: "Bad Request",
            404: "Not Found",
            405: "Method Not Allowed",
            422: "Unprocessable Entity",
            429: "Too Many Requests",
            500: "Internal Server Error",
            503: "Service Unavailable",
            504: "Gateway Timeout",
        }.get(status, "OK")
        if isinstance(payload, str):
            body = payload.encode("utf-8")
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        else:
            body = (json.dumps(payload) + "\n").encode("utf-8")
            content_type = "application/json"
        headers = [
            f"HTTP/1.1 {status} {reason}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        headers.extend(f"{name}: {value}" for name, value in extra_headers.items())
        writer.write(("\r\n".join(headers) + "\r\n\r\n").encode("latin-1") + body)
        await writer.drain()

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    async def _route(
        self, method: str, path: str, body: bytes
    ) -> tuple[int, Any, dict[str, str]]:
        route = path
        self._requests.labels(route).inc()
        loop = asyncio.get_running_loop()
        started = loop.time()
        try:
            if path == "/healthz":
                if method != "GET":
                    return self._error(route, 405, protocol.BAD_REQUEST, "healthz is GET only")
                return await self._healthz()
            if path == "/metrics":
                if method != "GET":
                    return self._error(route, 405, protocol.BAD_REQUEST, "metrics is GET only")
                return 200, await self._render_metrics(), {}
            if path.startswith("/v1/"):
                op = path[len("/v1/") :]
                if op not in _POST_OPS:
                    return self._error(route, 404, protocol.UNKNOWN_OP, f"unknown route {path!r}")
                if method != "POST":
                    return self._error(route, 405, protocol.BAD_REQUEST, f"{path} is POST only")
                return await self._rpc(route, op, body)
            return self._error(route, 404, protocol.UNKNOWN_OP, f"unknown route {path!r}")
        finally:
            self._latency.labels(route).observe(loop.time() - started)

    def _error(
        self,
        route: str,
        status: int,
        code: str,
        message: str,
        data: dict[str, Any] | None = None,
    ) -> tuple[int, Any, dict[str, str]]:
        self._errors.labels(route, code).inc()
        error = protocol.error_body(code, message, data)
        extra: dict[str, str] = {}
        if code == protocol.OVERLOADED:
            retry_ms = (data or {}).get("retry_after_ms")
            if isinstance(retry_ms, (int, float)):
                extra["Retry-After"] = str(max(1, round(retry_ms / 1000)))
        return status, {"ok": False, "error": error}, extra

    async def _rpc(self, route: str, op: str, body: bytes) -> tuple[int, Any, dict[str, str]]:
        if body:
            try:
                params = json.loads(body.decode("utf-8"))
            except (json.JSONDecodeError, UnicodeDecodeError):
                return self._error(route, 400, protocol.BAD_REQUEST, "body is not valid JSON")
        else:
            params = {}
        try:
            if op in ("ping", "stats"):
                request.parse(op, params)  # no fields: anything sent is unknown
                result = await getattr(self.coordinator, op)()
            else:  # the coordinator's other operations parse their own params
                name = "store_process" if op == "store" else op
                result = await getattr(self.coordinator, name)(params)
        except protocol.STRUCTURED_ERRORS as error:
            status = _STATUS_FOR_CODE.get(error.code, 500)
            return self._error(route, status, error.code, error.message, error.data or None)
        except Exception as error:  # pragma: no cover - defensive boundary
            return self._error(route, 500, protocol.INTERNAL, f"{type(error).__name__}: {error}")
        return 200, {"ok": True, "result": result}, {}

    async def _healthz(self) -> tuple[int, Any, dict[str, str]]:
        health = self.coordinator.health()
        healthy = sum(health.values())
        status = 200 if healthy >= 1 else 503
        return status, {
            "ok": healthy >= 1,
            "healthy_nodes": healthy,
            "nodes": health,
        }, {}

    async def _render_metrics(self) -> str:
        """Prometheus text: gateway series plus per-(node, shard) engine stats."""
        await self._refresh_engine_series()
        return self.registry.render()

    async def _refresh_engine_series(self) -> None:
        async def fetch(node) -> tuple[str, dict[str, Any] | None]:
            try:
                return node.node_id, await node.link.request(
                    "stats", timeout=METRICS_STATS_TIMEOUT
                )
            except (ConnectionError, OSError, protocol.ServiceError):
                return node.node_id, None

        results = await asyncio.gather(
            *(fetch(node) for node in self.coordinator.nodes.values() if node.healthy)
        )
        for node_id, stats in results:
            if not stats:
                continue
            for shard in stats.get("shards", []) or []:
                engine = shard.get("engine") if isinstance(shard, dict) else None
                if not isinstance(engine, dict):
                    continue
                shard_label = str(shard.get("shard", "?"))
                # export_stats labels the payload with node=...; prefer the
                # node's own label so relabelled nodes stay distinguishable.
                node_label = str(engine.get("node") or node_id)
                for stat, value in engine.items():
                    if isinstance(value, (int, float)) and not isinstance(value, bool):
                        self._engine_series.labels(node_label, shard_label, stat).set(
                            float(value)
                        )


def serve_gateway(
    nodes: dict[str, tuple[str, int]],
    *,
    host: str = "127.0.0.1",
    port: int = DEFAULT_GATEWAY_PORT,
    replication_factor: int = 2,
    steal_threshold: int | None = None,
    store_root: str | None = None,
    probe_interval: float = 1.0,
) -> None:
    """Blocking entry point: build a coordinator and serve HTTP until killed."""
    from repro.cluster.store import ClusterStore

    store = ClusterStore(store_root) if store_root else None
    coordinator = ClusterCoordinator(
        nodes,
        replication_factor=replication_factor,
        steal_threshold=steal_threshold,
        store=store,
        probe_interval=probe_interval,
    )
    gateway = ClusterGateway(coordinator, host=host, port=port)

    async def main() -> None:
        await gateway.start()
        node_list = ", ".join(sorted(nodes))
        print(
            f"repro cluster gateway on http://{gateway.host}:{gateway.port} "
            f"-> nodes [{node_list}] (rf={coordinator.replication_factor})",
            flush=True,
        )
        try:
            await gateway.serve_forever()
        finally:
            await gateway.stop()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        pass
