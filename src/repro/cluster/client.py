"""Synchronous HTTP client for the cluster gateway.

:class:`ClusterClient` shares :class:`~repro.service.client.ServiceClient`'s
operations -- one encoder, :class:`~repro.service.client.Operations` -- but
speaks the gateway's HTTP/JSON dialect instead of raw
NDJSON, so anything written against the TCP client ports to the cluster by
swapping the constructor.  Error envelopes (``{"ok": false, "error":
{...}}``) are rehydrated into the same :class:`~repro.service.protocol.
ServiceError` values the TCP client raises, and ``overloaded`` answers are
retried on the shared :class:`~repro.service.retry.RetryPolicy` backoff
schedule, honouring the server's ``retry_after_ms`` hint.

Stdlib only (``http.client``); connections are kept alive across requests
and transparently reopened after a drop.
"""

from __future__ import annotations

import http.client
import json
from typing import Any

from repro.core.fsp import FSP
from repro.service import protocol
from repro.service.client import Operations
from repro.service.retry import DEFAULT_RETRIES, RetryPolicy

from repro.cluster import DEFAULT_GATEWAY_PORT

__all__ = ["ClusterClient"]


def _overload_hint(error: Exception):
    """Retry predicate for :meth:`RetryPolicy.run` (overloaded answers only)."""
    if isinstance(error, protocol.ServiceError) and error.code == protocol.OVERLOADED:
        hint = (error.data or {}).get("retry_after_ms")
        return float(hint) if isinstance(hint, (int, float)) else None
    return False


class ClusterClient(Operations):
    """Talk to a :class:`~repro.cluster.gateway.ClusterGateway` over HTTP."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = DEFAULT_GATEWAY_PORT,
        timeout: float = 60.0,
        *,
        overload_retries: int = DEFAULT_RETRIES,
        retry_policy: RetryPolicy | None = None,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._connection: http.client.HTTPConnection | None = None
        self._retry = retry_policy if retry_policy is not None else RetryPolicy(overload_retries)

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------
    def close(self) -> None:
        if self._connection is not None:
            self._connection.close()
            self._connection = None

    def __enter__(self) -> "ClusterClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _request_once(self, method: str, path: str, body: dict[str, Any] | None) -> Any:
        payload = json.dumps(body).encode("utf-8") if body is not None else None
        headers = {"Content-Type": "application/json"} if payload is not None else {}
        for attempt in (0, 1):  # one transparent reconnect after a dropped keep-alive
            if self._connection is None:
                self._connection = http.client.HTTPConnection(
                    self.host, self.port, timeout=self.timeout
                )
            try:
                self._connection.request(method, path, body=payload, headers=headers)
                response = self._connection.getresponse()
                raw = response.read()
                break
            except (ConnectionError, http.client.HTTPException, OSError):
                self.close()
                if attempt:
                    raise
        return self._decode(path, response.status, raw)

    def _decode(self, path: str, status: int, raw: bytes) -> Any:
        if path == "/metrics" and status == 200:
            return raw.decode("utf-8")
        try:
            document = json.loads(raw.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError):
            raise protocol.ProtocolError(
                f"gateway answered {path} with HTTP {status} and a non-JSON body"
            ) from None
        if path == "/healthz":
            return document
        if not isinstance(document, dict) or "ok" not in document:
            raise protocol.ProtocolError(f"malformed gateway envelope on {path}")
        if document["ok"]:
            return document.get("result", {})
        error = document.get("error") or {}
        raise protocol.ServiceError(
            str(error.get("code", protocol.INTERNAL)),
            str(error.get("message", "gateway error")),
            error.get("data") if isinstance(error.get("data"), dict) else {},
        )

    def request(self, op: str, params: dict[str, Any] | None = None) -> Any:
        """POST one operation to its ``/v1/<op>`` route (``overloaded`` retried)."""
        return self._retry.run(
            lambda: self._request_once("POST", f"/v1/{op}", params or {}),
            is_overloaded=_overload_hint,
        )

    # ------------------------------------------------------------------
    # operations beyond the shared ones
    # ------------------------------------------------------------------
    def healthz(self) -> dict[str, Any]:
        """The gateway's health document (does not raise on 503)."""
        return self._request_once("GET", "/healthz", None)

    def metrics_text(self) -> str:
        """The gateway's Prometheus exposition text."""
        return self._request_once("GET", "/metrics", None)

    def store(self, process: FSP | dict) -> dict[str, Any]:
        """Upload + replicate one process; returns digest and replica list."""
        ref = protocol.process_ref(process)
        return self.request("store", {"process": ref["process"]})
