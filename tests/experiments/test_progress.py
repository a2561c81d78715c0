"""Tests for the live progress heartbeat.

The load-bearing property: progress is *observation only*.  With the
heartbeat on or off, serial or parallel, the records of a sweep are
byte-identical - the reporter can count and print, never influence.
"""

import io

import pytest

from repro.baselines.greedy import GreedyOffline
from repro.baselines.ocorp import OcorpOffline
from repro.exceptions import ConfigurationError
from repro.experiments.executor import (execute_specs, resolve_progress)
from repro.experiments.runner import build_offline_specs
from repro.telemetry import ProgressReporter

from test_executor import record_key, tiny_config


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def tick(self, seconds):
        self.now += seconds

    def __call__(self):
        return self.now


def make_reporter(min_interval_s=0.0, **kwargs):
    stream = io.StringIO()
    clock = FakeClock()
    reporter = ProgressReporter(stream=stream, clock=clock,
                                min_interval_s=min_interval_s,
                                **kwargs)
    return reporter, stream, clock


class TestProgressReporter:
    def test_opening_line_on_start(self):
        reporter, stream, _ = make_reporter()
        reporter.start(10)
        assert "0/10 specs (0.0%)" in stream.getvalue()

    def test_advance_counts_and_emits(self):
        reporter, stream, clock = make_reporter()
        reporter.start(4)
        clock.tick(2.0)
        reporter.advance(2)
        assert reporter.done == 2
        line = stream.getvalue().splitlines()[-1]
        assert "2/4 specs (50.0%)" in line
        assert "1.0 spec/s" in line
        assert "ETA 2s" in line

    def test_throttling(self):
        reporter, stream, clock = make_reporter(min_interval_s=10.0)
        reporter.start(100)
        for _ in range(50):
            clock.tick(0.01)
            reporter.advance(1)
        # Opening line only; every advance fell inside the interval.
        assert reporter.lines_emitted == 1
        clock.tick(10.0)
        reporter.advance(1)
        assert reporter.lines_emitted == 2

    def test_completion_always_emits(self):
        reporter, stream, clock = make_reporter(min_interval_s=1000.0)
        reporter.start(2)
        clock.tick(0.001)
        reporter.advance(2)
        assert "2/2 specs (100.0%)" in stream.getvalue()

    def test_finish_always_emits(self):
        reporter, _, _ = make_reporter(min_interval_s=1000.0)
        reporter.start(3)
        before = reporter.lines_emitted
        reporter.finish()
        assert reporter.lines_emitted == before + 1

    def test_phase_label_rendered(self):
        reporter, stream, _ = make_reporter()
        reporter.set_phase("fig4")
        reporter.start(1)
        assert "phase=fig4" in stream.getvalue()

    def test_phase_persists_across_cycles(self):
        # The CLIs set the phase, then the executor starts the cycle;
        # start() must not clobber the label.
        reporter, stream, _ = make_reporter()
        reporter.set_phase("fig3")
        reporter.start(2)
        reporter.start(2)
        assert stream.getvalue().count("phase=fig3") == 2
        reporter.start(2, phase="fig4")
        assert "phase=fig4" in stream.getvalue()

    def test_reuse_resets_counts(self):
        reporter, _, _ = make_reporter()
        reporter.start(2)
        reporter.advance(2)
        reporter.start(5)
        assert reporter.done == 0
        assert reporter.total == 5

    def test_label(self):
        reporter, stream, _ = make_reporter(label="bench")
        reporter.start(1)
        assert stream.getvalue().startswith("[bench]")

    def test_zero_total(self):
        reporter, stream, _ = make_reporter()
        reporter.start(0)
        assert "0/0 specs (100.0%)" in stream.getvalue()

    def test_guards(self):
        with pytest.raises(ConfigurationError):
            ProgressReporter(min_interval_s=-1.0)
        reporter, _, _ = make_reporter()
        with pytest.raises(ConfigurationError):
            reporter.start(-1)
        reporter.start(1)
        with pytest.raises(ConfigurationError):
            reporter.advance(-1)


class TestResolveProgress:
    def test_falsy_disables(self):
        assert resolve_progress(None) is None
        assert resolve_progress(False) is None

    def test_true_builds_default(self):
        assert isinstance(resolve_progress(True), ProgressReporter)

    def test_reporter_passes_through(self):
        reporter = ProgressReporter(stream=io.StringIO())
        assert resolve_progress(reporter) is reporter


class TestHeartbeatUnderBackends:
    """Records byte-identical with progress on or off, both backends."""

    def specs(self):
        return build_offline_specs(
            algorithm_factories=[GreedyOffline, OcorpOffline],
            x_values=[8, 12],
            make_config=tiny_config,
            num_requests_of=lambda x: int(x),
            num_seeds=2)

    def test_serial_records_identical_with_progress(self):
        specs = self.specs()
        reporter, stream, _ = make_reporter()
        plain = execute_specs(specs, workers=1)
        observed = execute_specs(specs, workers=1, progress=reporter)
        assert ([record_key(r) for r in plain]
                == [record_key(r) for r in observed])
        assert reporter.done == len(specs)
        assert f"{len(specs)}/{len(specs)} specs" in stream.getvalue()

    def test_process_records_identical_with_progress(self):
        specs = self.specs()
        reporter, stream, _ = make_reporter()
        plain = execute_specs(specs, workers=2)
        observed = execute_specs(specs, workers=2, progress=reporter)
        assert ([record_key(r) for r in plain]
                == [record_key(r) for r in observed])
        assert reporter.done == len(specs)
        assert f"{len(specs)}/{len(specs)} specs" in stream.getvalue()

    def test_serial_and_process_agree_under_progress(self):
        specs = self.specs()
        serial_reporter, _, _ = make_reporter()
        process_reporter, _, _ = make_reporter()
        serial = execute_specs(specs, workers=1,
                               progress=serial_reporter)
        parallel = execute_specs(specs, workers=4,
                                 progress=process_reporter)
        assert ([record_key(r) for r in serial]
                == [record_key(r) for r in parallel])

    def test_progress_heartbeats_cover_every_spec(self):
        specs = self.specs()
        reporter, _, _ = make_reporter()
        execute_specs(specs, workers=2, progress=reporter)
        # One spec per chunk: one advance per spec, all accounted for.
        assert reporter.done == len(specs)
        assert reporter.total == len(specs)
