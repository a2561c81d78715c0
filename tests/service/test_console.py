"""The terminal ops console: frame rendering, rates, CLI round-trip.

Rendering is tested against synthetic payloads (it is a pure function
of two scrape dicts); the end-to-end path is tested by pointing
``fetch_status`` / ``run_status`` at a real endpoint.
"""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.service import AdmissionService, MetricsEndpoint
from repro.service.console import (fetch_status, render_status,
                                   run_status, run_watch)
from repro.telemetry.metrics import MetricsRegistry


def payload(slot=10, scraped=100.0, **counter_overrides):
    counters = {"arrivals": 50.0, "accepted": 40.0, "shed": 10.0,
                "deferred": 5.0, "started": 38.0, "completed": 30.0,
                "dropped": 2.0, "reward": 123.456, "slots": 10.0}
    counters.update(counter_overrides)
    return {
        "status": {
            "policy": "greedy", "slot": slot, "done": False,
            "pending": 3, "active": 7, "queue_limit": 64,
            "last_checkpoint_slot": 8, "checkpoint_every": 4,
            "counters": counters,
        },
        "metrics": {
            "counters": {}, "gauges": {},
            "histograms": {"service_slot_latency_seconds": {
                "count": 10, "p50": 0.001, "p95": 0.004, "p99": 0.009}},
        },
        "scraped_unix": scraped,
    }


class TestRenderStatus:
    def test_frame_shows_header_queue_and_totals(self):
        frame = render_status(payload())
        assert "policy=greedy slot=10" in frame
        assert "3/64 (5% full)" in frame
        assert "active=7" in frame
        assert "slot 8 (every 4 slots)" in frame
        assert "arrivals=50" in frame
        assert "shed=10" in frame
        assert "reward   123.46 over 10 slots" in frame

    def test_latency_line_in_milliseconds(self):
        frame = render_status(payload())
        assert "p50=1.00ms p95=4.00ms p99=9.00ms (n=10)" in frame

    def test_rates_from_consecutive_scrapes(self):
        first = payload(scraped=100.0)
        second = payload(slot=20, scraped=102.0, arrivals=70.0,
                         completed=40.0)
        frame = render_status(second, previous=first)
        assert "arrivals=70 (10.0/s)" in frame
        assert "completed=40 (5.0/s)" in frame

    def test_no_rates_without_previous_or_time_delta(self):
        assert "/s)" not in render_status(payload())
        same_instant = render_status(payload(), previous=payload())
        assert "/s)" not in same_instant

    def test_done_marker(self):
        done = payload()
        done["status"]["done"] = True
        assert "(done)" in render_status(done)

    def test_bandit_gauges_rendered(self):
        rich = payload()
        rich["metrics"]["gauges"] = {
            "bandit_surviving_arms": 5.0,
            "bandit_threshold_mhz": 1200.0,
            "engine_pending": 3.0,
        }
        frame = render_status(rich)
        assert "surviving_arms=5" in frame
        assert "threshold_mhz=1.2e+03" in frame
        assert "engine_pending" not in frame

    def test_minimal_payload_does_not_crash(self):
        assert render_status({})  # renders a header line regardless

    def test_registry_latency_histogram_preferred(self):
        rich = payload()
        rich["metrics"]["histograms"] = {
            "service_slot_latency_seconds": {
                "count": 10, "p50": 0.002, "p95": 0.005, "p99": 0.008}}
        assert "p50=2.00ms" in render_status(rich)


class TestEndToEnd:
    @pytest.fixture()
    def live_url(self, make_service_config):
        """A ticked service behind a real endpoint, served from a
        background thread so the blocking console clients can call it."""
        service = AdmissionService(make_service_config(max_arrivals=40),
                                   registry=MetricsRegistry())
        while not service.done:
            service.tick()
        service.close()
        loop = asyncio.new_event_loop()
        endpoint = MetricsEndpoint(service)
        loop.run_until_complete(endpoint.start())
        thread = threading.Thread(target=loop.run_forever, daemon=True)
        thread.start()
        try:
            yield endpoint.url
        finally:
            loop.call_soon_threadsafe(loop.stop)
            thread.join(timeout=5)
            loop.run_until_complete(endpoint.stop())
            loop.close()

    def test_fetch_status_round_trips(self, live_url):
        scraped = fetch_status(live_url)
        assert scraped["status"]["done"] is True
        assert scraped["metrics"]["counters"][
            "service_slots_total"] > 0

    def test_fetch_accepts_full_metrics_url(self, live_url):
        assert fetch_status(live_url + "/metrics")["status"]

    def test_run_status_prints_a_frame(self, live_url, capsys):
        assert run_status(live_url) == 0
        out = capsys.readouterr().out
        assert "repro.service :: policy=greedy" in out

    def test_run_watch_exits_when_done(self, live_url, capsys):
        assert run_watch(live_url, interval=0.01, iterations=3) == 0
        assert "(done)" in capsys.readouterr().out

    def test_unreachable_endpoint_exits_2(self, capsys):
        url = "http://127.0.0.1:1"  # reserved port, nothing listens
        assert run_status(url, timeout=0.2) == 2
        assert run_watch(url, timeout=0.2, iterations=1) == 2
        assert "cannot scrape" in capsys.readouterr().out

    def test_fetch_malformed_json_raises_connection_error(self):
        with pytest.raises(ConnectionError):
            fetch_status("http://127.0.0.1:1", timeout=0.2)

