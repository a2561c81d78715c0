"""Asyncio scrape endpoint for a live :class:`AdmissionService`.

Runs on the *same* event loop as :meth:`AdmissionService.serve` (one
thread, no locks - the handler only ever reads between ticks), built
directly on ``asyncio.start_server`` so the repository stays free of
HTTP framework dependencies.  Three routes:

``/metrics``
    Prometheus text exposition (format 0.0.4) of the service's
    :class:`~repro.telemetry.metrics.MetricsRegistry`.  With
    ``?format=json`` (or ``Accept: application/json``) it returns the
    registry snapshot plus the service's live status - the payload the
    ops console (``python -m repro.service watch``) renders.

``/healthz``
    Liveness: 200 as long as the loop can answer at all; 503
    ``{"status": "degraded", "error": ...}`` once a tick failed to
    write its journal or checkpoint (the last good checkpoint still
    resumes).

``/readyz``
    Readiness: 503 when the pending queue is saturated
    (``pending >= SATURATION_FRACTION * queue_limit`` - new arrivals
    are being shed) or when checkpointing is configured but stale
    (more than ``STALENESS_SLOTS`` slots since the last checkpoint -
    a crash now would replay too much).  The JSON body lists each
    probe's verdict.

This module is the service's **exposition layer**: the one place
wall-clock time may legitimately appear next to metric data (scrape
timestamps are meaningful to an operator, meaningless to the
determinism contract).  It is therefore on the DET010 clock allowlist - see
docs/ANALYSIS.md for the rationale.
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from .loop import AdmissionService

#: `/readyz` turns 503 when the pending queue reaches this fraction of
#: ``queue_limit``.
SATURATION_FRACTION = 0.95
#: `/readyz` turns 503 when checkpointing is configured and the last
#: checkpoint is more than this many slots behind the live slot.
STALENESS_SLOTS = 10_000


class MetricsEndpoint:
    """One scrape endpoint bound to one service.

    Args:
        service: the live service to expose.
        host: bind address (loopback by default - put a real proxy in
            front for anything else).
        port: TCP port; 0 picks a free one (see :attr:`port` after
            :meth:`start`).
    """

    def __init__(self, service: AdmissionService,
                 host: str = "127.0.0.1", port: int = 0) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "MetricsEndpoint":
        """Bind and start serving; resolves the actual port."""
        self._server = await asyncio.start_server(
            self._handle, host=self.host, port=self.port)
        sockets = self._server.sockets or []
        if sockets:
            self.port = sockets[0].getsockname()[1]
        return self

    async def stop(self) -> None:
        """Stop accepting connections and close the server."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    @property
    def url(self) -> str:
        """Base URL of the running endpoint."""
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------------
    # Request handling
    # ------------------------------------------------------------------
    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            request_line = await asyncio.wait_for(reader.readline(),
                                                  timeout=5.0)
            parts = request_line.decode("latin-1").split()
            if len(parts) < 2:
                return
            method, target = parts[0], parts[1]
            accept = ""
            while True:
                line = await asyncio.wait_for(reader.readline(),
                                              timeout=5.0)
                if line in (b"\r\n", b"\n", b""):
                    break
                header = line.decode("latin-1")
                if header.lower().startswith("accept:"):
                    accept = header.split(":", 1)[1].strip()
            if method.upper() not in ("GET", "HEAD"):
                status, content_type, body = (
                    405, "text/plain; charset=utf-8",
                    b"method not allowed\n")
            else:
                status, content_type, body = self._route(target, accept)
            writer.write(_response_bytes(
                status, content_type, body,
                include_body=method.upper() != "HEAD"))
            await writer.drain()
        except (asyncio.TimeoutError, ConnectionError):
            pass
        finally:
            try:
                writer.close()
            except Exception:
                pass

    def _route(self, target: str,
               accept: str) -> Tuple[int, str, bytes]:
        split = urlsplit(target)
        path = split.path.rstrip("/") or "/"
        query = parse_qs(split.query)
        if path == "/metrics":
            wants_json = (query.get("format", [""])[0] == "json"
                          or "application/json" in accept)
            if wants_json:
                return 200, "application/json", self._json_payload()
            text = self.service.metrics.to_prometheus()
            return (200, "text/plain; version=0.0.4; charset=utf-8",
                    text.encode("utf-8"))
        if path == "/healthz":
            error = self.service.persistence_error
            if error is not None:
                return 503, "application/json", _json_bytes(
                    {"status": "degraded", "error": error,
                     "done": self.service.done})
            return 200, "application/json", _json_bytes(
                {"status": "ok", "done": self.service.done})
        if path == "/readyz":
            ready, probes = self._readiness()
            payload = _json_bytes(
                {"ready": ready, "probes": probes})
            return (200 if ready else 503), "application/json", payload
        return 404, "application/json", _json_bytes(
            {"error": f"no route {path!r}",
             "routes": ["/metrics", "/healthz", "/readyz"]})

    def _json_payload(self) -> bytes:
        return _json_bytes({
            "status": self.service.status(),
            "metrics": self.service.metrics.snapshot(),
            # Scrape timestamp: exposition-layer wall clock (DET010
            # allowlisted; never enters journals or checkpoints).
            "scraped_unix": time.time(),
        })

    def _readiness(self) -> Tuple[bool, dict]:
        service = self.service
        pending = service.engine.pending_count()
        limit = service.config.queue_limit
        saturated = pending >= SATURATION_FRACTION * limit
        probes = {
            "queue": {
                "ok": not saturated,
                "pending": pending,
                "limit": limit,
            },
        }
        stale = False
        if service.config.checkpoint_every is not None:
            slot = service.engine.clock.current_slot
            last = service.last_checkpoint_slot
            behind = slot if last is None else slot - last
            stale = behind > STALENESS_SLOTS
            probes["checkpoint"] = {
                "ok": not stale,
                "slots_behind": behind,
            }
        return (not saturated and not stale), probes


def _json_bytes(payload) -> bytes:
    return (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")


_STATUS_TEXT = {200: "OK", 404: "Not Found",
                405: "Method Not Allowed", 503: "Service Unavailable"}


def _response_bytes(status: int, content_type: str, body: bytes,
                    include_body: bool = True) -> bytes:
    """One full HTTP/1.1 response.  A HEAD reply (``include_body``
    False) keeps the GET body's Content-Length but sends no body."""
    reason = _STATUS_TEXT.get(status, "Unknown")
    head = (f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n")
    return head.encode("latin-1") + (body if include_body else b"")
