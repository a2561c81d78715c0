"""The asyncio scrape endpoint: routes, formats, readiness probes.

Requests are issued as raw bytes over ``asyncio.open_connection`` so
everything - server and client - stays on the one event loop the
endpoint is designed to share with :meth:`AdmissionService.serve`.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.service import AdmissionService, MetricsEndpoint, http
from repro.telemetry.metrics import MetricsRegistry


def http_get(port, target, method="GET", accept=None):
    """One raw HTTP request against the loopback endpoint."""

    async def go():
        reader, writer = await asyncio.open_connection("127.0.0.1",
                                                       port)
        headers = f"{method} {target} HTTP/1.1\r\nHost: x\r\n"
        if accept:
            headers += f"Accept: {accept}\r\n"
        writer.write((headers + "\r\n").encode("latin-1"))
        await writer.drain()
        raw = await reader.read()
        writer.close()
        return raw

    raw = asyncio.get_event_loop().run_until_complete(go())
    head, _, body = raw.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    headers = dict(line.split(": ", 1) for line in lines[1:] if ": " in line)
    return status, headers, body


@pytest.fixture()
def served(make_service_config):
    """A ticked service with a live endpoint on a free port."""
    loop = asyncio.new_event_loop()
    asyncio.set_event_loop(loop)
    service = AdmissionService(make_service_config(max_arrivals=40),
                               registry=MetricsRegistry())
    for _ in range(3):
        service.tick()
    endpoint = MetricsEndpoint(service)
    loop.run_until_complete(endpoint.start())
    try:
        yield service, endpoint
    finally:
        loop.run_until_complete(endpoint.stop())
        loop.close()
        asyncio.set_event_loop(None)


class TestMetricsRoute:
    def test_prometheus_text_default(self, served):
        service, endpoint = served
        status, headers, body = http_get(endpoint.port, "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith(
            "text/plain; version=0.0.4")
        text = body.decode("utf-8")
        assert "# TYPE service_slots_total counter" in text
        assert "service_slots_total 3" in text
        assert "service_slot_latency_seconds_count 3" in text

    def test_prometheus_text_parses_sample_per_line(self, served):
        _, endpoint = served
        _, _, body = http_get(endpoint.port, "/metrics")
        for line in body.decode("utf-8").splitlines():
            if line.startswith("#"):
                assert line.split()[1] == "TYPE"
                continue
            name_part, value = line.rsplit(" ", 1)
            float(value)  # every sample value is a number
            assert name_part

    def test_json_via_query_param(self, served):
        service, endpoint = served
        status, headers, body = http_get(endpoint.port,
                                         "/metrics?format=json")
        assert status == 200
        assert headers["Content-Type"] == "application/json"
        payload = json.loads(body)
        assert payload["status"]["slot"] == 2
        assert payload["metrics"]["counters"][
            "service_slots_total"] == 3.0
        assert payload["scraped_unix"] > 0

    def test_json_via_accept_header(self, served):
        _, endpoint = served
        status, _, body = http_get(endpoint.port, "/metrics",
                                   accept="application/json")
        assert status == 200
        assert "metrics" in json.loads(body)

    def test_head_returns_empty_body(self, served):
        _, endpoint = served
        status, headers, body = http_get(endpoint.port, "/metrics",
                                         method="HEAD")
        assert status == 200
        assert body == b""
        assert int(headers["Content-Length"]) > 0


class TestHealthRoutes:
    def test_healthz_ok(self, served):
        _, endpoint = served
        status, _, body = http_get(endpoint.port, "/healthz")
        assert status == 200
        payload = json.loads(body)
        assert payload["status"] == "ok"
        assert payload["done"] is False

    def test_readyz_ok_when_queue_has_room(self, served):
        _, endpoint = served
        status, _, body = http_get(endpoint.port, "/readyz")
        assert status == 200
        assert json.loads(body)["ready"] is True

    def test_readyz_503_under_queue_saturation(self,
                                               make_service_config):
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        service = AdmissionService(make_service_config(
            queue_limit=2, mean_arrivals_per_slot=10.0))
        while service.engine.pending_count() < 2:
            service.tick()
        endpoint = MetricsEndpoint(service)
        loop.run_until_complete(endpoint.start())
        try:
            status, _, body = http_get(endpoint.port, "/readyz")
            assert status == 503
            payload = json.loads(body)
            assert payload["ready"] is False
            assert payload["probes"]["queue"]["ok"] is False
            assert payload["probes"]["queue"]["pending"] >= 2
        finally:
            loop.run_until_complete(endpoint.stop())
            loop.close()
            asyncio.set_event_loop(None)

    def test_readyz_503_when_checkpoint_stale(self,
                                              make_service_config,
                                              tmp_path, monkeypatch):
        monkeypatch.setattr(http, "STALENESS_SLOTS", 2)
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        service = AdmissionService(make_service_config(
            max_arrivals=40,
            checkpoint_path=str(tmp_path / "s.ckpt"),
            checkpoint_every=1000))
        for _ in range(5):
            service.tick()
        endpoint = MetricsEndpoint(service)
        loop.run_until_complete(endpoint.start())
        try:
            status, _, body = http_get(endpoint.port, "/readyz")
            assert status == 503
            probes = json.loads(body)["probes"]
            assert probes["checkpoint"]["ok"] is False
            assert probes["checkpoint"]["slots_behind"] > 2
            assert probes["queue"]["ok"] is True
        finally:
            loop.run_until_complete(endpoint.stop())
            loop.close()
            asyncio.set_event_loop(None)


class TestProtocolEdges:
    def test_unknown_route_404(self, served):
        _, endpoint = served
        status, _, body = http_get(endpoint.port, "/nope")
        assert status == 404
        assert "/metrics" in json.loads(body)["routes"]

    def test_post_is_405(self, served):
        _, endpoint = served
        status, _, _ = http_get(endpoint.port, "/metrics",
                                method="POST")
        assert status == 405

    def test_trailing_slash_accepted(self, served):
        _, endpoint = served
        status, _, _ = http_get(endpoint.port, "/healthz/")
        assert status == 200

    def test_port_zero_resolves_to_real_port(self, served):
        _, endpoint = served
        assert endpoint.port != 0
        assert endpoint.url == f"http://127.0.0.1:{endpoint.port}"
