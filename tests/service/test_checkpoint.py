"""Checkpoint/restore: kill at a random slot, resume, byte-identity.

The property at the heart of the service subsystem: for ANY kill point
past the first checkpoint, resuming from disk yields a decision journal
byte-identical to an uninterrupted run's.  trace-diff is reused as the
assertion, and raw bytes are compared on top (trace-diff compares
parsed events; byte equality is the stronger claim).
"""

from __future__ import annotations

import errno
import json
import os
import pickle

import numpy as np
import pytest

from repro.exceptions import (ConfigurationError, PersistenceError,
                              ReproError)
from repro.service import (AdmissionService, ServiceCheckpoint,
                           read_checkpoint, truncate_journal,
                           write_checkpoint)
from repro.service.checkpoint import JournalCursor
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.export import read_jsonl
from repro.telemetry.tracediff import first_divergence


def run_to_drain(service):
    while not service.done:
        service.tick()
    service.close()


def run_killed(service, kill_slot):
    """Crash simulation: abandon the service, flush nothing."""
    while not service.done:
        report = service.tick()
        if report.outcome.slot >= kill_slot:
            return


def checkpointed_config(make_service_config, tmp_path, tag,
                        **overrides):
    return make_service_config(
        journal_path=str(tmp_path / f"{tag}.jsonl"),
        checkpoint_path=str(tmp_path / f"{tag}.ckpt"),
        checkpoint_every=5,
        **overrides)


class TestResumeByteIdentity:
    @pytest.mark.parametrize("policy", ["greedy", "dynamicrr", "random"])
    def test_random_kill_slots_resume_identically(
            self, make_service_config, tmp_path, policy):
        """The property test of the ISSUE: checkpoint at a random slot,
        resume, and the journal is byte-identical (trace-diff clean)."""
        overrides = dict(policy=policy, max_arrivals=60,
                         mean_arrivals_per_slot=3.0)
        baseline_config = checkpointed_config(
            make_service_config, tmp_path, f"base-{policy}", **overrides)
        baseline = AdmissionService(baseline_config)
        run_to_drain(baseline)
        total_slots = int(baseline.counters["slots"])
        baseline_bytes = open(baseline_config.journal_path, "rb").read()

        rng = np.random.default_rng(20260808)
        kill_slots = sorted(set(
            int(s) for s in rng.integers(6, total_slots - 2, size=3)))
        for kill_slot in kill_slots:
            tag = f"kill-{policy}-{kill_slot}"
            config = checkpointed_config(make_service_config, tmp_path,
                                         tag, **overrides)
            killed = AdmissionService(config)
            run_killed(killed, kill_slot)
            resumed = AdmissionService.resume(config.checkpoint_path)
            run_to_drain(resumed)

            assert open(config.journal_path, "rb").read() == \
                baseline_bytes, f"bytes diverged for kill@{kill_slot}"
            divergence = first_divergence(
                read_jsonl(baseline_config.journal_path),
                read_jsonl(config.journal_path))
            assert divergence is None

    def test_resumed_counters_are_cumulative(self, make_service_config,
                                             tmp_path):
        config = checkpointed_config(make_service_config, tmp_path,
                                     "counters", max_arrivals=60)
        baseline = AdmissionService(config)
        run_to_drain(baseline)
        expected = dict(baseline.counters)

        config2 = checkpointed_config(make_service_config, tmp_path,
                                      "counters2", max_arrivals=60)
        killed = AdmissionService(config2)
        run_killed(killed, 12)
        resumed = AdmissionService.resume(config2.checkpoint_path)
        run_to_drain(resumed)
        assert resumed.counters == expected

    def test_resume_is_counted_not_journaled(
            self, make_service_config, tmp_path):
        config = checkpointed_config(make_service_config, tmp_path,
                                     "resumes", max_arrivals=40)
        killed = AdmissionService(config, registry=MetricsRegistry())
        run_killed(killed, 10)
        registry = MetricsRegistry()
        resumed = AdmissionService.resume(config.checkpoint_path,
                                          registry=registry)
        assert registry.counter("service_resumes_total") == 1
        run_to_drain(resumed)
        assert registry.counter("service_resumes_total") == 1
        with open(config.journal_path) as handle:
            journal_kinds = {json.loads(line)["kind"] for line in handle}
        assert "resume" not in journal_kinds
        assert "checkpoint" in journal_kinds


class TestCheckpointBytes:
    """A checkpoint's bytes depend only on the run: the host-measured
    series (``*_seconds``, ``service_alloc_*``) stay out of its
    registry state."""

    def run_in(self, directory, make_service_config, monkeypatch):
        """One metered run writing relative paths inside `directory`."""
        directory.mkdir()
        monkeypatch.chdir(directory)
        service = AdmissionService(make_service_config(
            journal_path="run.jsonl", checkpoint_path="run.ckpt",
            checkpoint_every=10, max_arrivals=120,
            mean_arrivals_per_slot=6.0, queue_limit=8),
            registry=MetricsRegistry())
        run_to_drain(service)
        return ((directory / "run.ckpt").read_bytes(),
                (directory / "run.jsonl").read_bytes())

    def test_identical_runs_write_identical_checkpoints(
            self, make_service_config, tmp_path, monkeypatch):
        first = self.run_in(tmp_path / "a", make_service_config,
                            monkeypatch)
        second = self.run_in(tmp_path / "b", make_service_config,
                             monkeypatch)
        assert first == second
        state = read_checkpoint(str(tmp_path / "a" / "run.ckpt")) \
            .metrics_state
        names = {name for family in ("counters", "gauges", "histograms")
                 for name, _ in state[family]}
        assert "service_batch_size" in names
        assert not any(name.endswith("_seconds") for name in names)

    def test_profiled_run_writes_the_plain_checkpoint(
            self, tmp_path, monkeypatch):
        """``--profile --profile-mem`` publishes allocation gauges; the
        checkpoints and journal stay byte-identical to a plain run's."""
        from repro.service.loadgen import run_loadgen

        written = []
        for name, profiled in (("plain", False), ("profiled", True)):
            directory = tmp_path / name
            directory.mkdir()
            monkeypatch.chdir(directory)
            run_loadgen(arrivals=1000, rate=8.0, policy="dynamicrr",
                        journal_path="run.jsonl", checkpoint_path="run.ckpt",
                        checkpoint_every=100, profile=profiled,
                        profile_mem=profiled)
            written.append(((directory / "run.ckpt").read_bytes(),
                            (directory / "run.jsonl").read_bytes()))
        assert written[0] == written[1]

    def test_wall_clock_series_restart_on_resume(
            self, make_service_config, tmp_path):
        config = checkpointed_config(make_service_config, tmp_path,
                                     "restart", max_arrivals=60)
        killed = AdmissionService(config, registry=MetricsRegistry())
        run_killed(killed, 12)
        registry = MetricsRegistry()
        resumed = AdmissionService.resume(config.checkpoint_path,
                                          registry=registry)
        assert registry.histogram("service_slot_latency_seconds") is None
        batches = registry.histogram("service_batch_size").count
        run_to_drain(resumed)
        resumed_slots = registry.histogram("service_batch_size").count \
            - batches
        assert registry.histogram(
            "service_slot_latency_seconds").count == resumed_slots > 0


class TestCheckpointFiles:
    def test_roundtrip(self, tmp_path):
        checkpoint = ServiceCheckpoint(
            config={"policy": "greedy"}, slot=9,
            engine_state={"slot": 9}, policy_state=None,
            stream_state={"next_id": 3},
            journal=JournalCursor(events_recorded=5, byte_position=120),
            metrics_state={"slot": 9, "counters": {
                ("service_slots_total", ()): 10.0}})
        path = str(tmp_path / "c.ckpt")
        write_checkpoint(path, checkpoint)
        loaded = read_checkpoint(path)
        assert loaded.slot == 9
        assert loaded.journal.byte_position == 120
        assert loaded.metrics_state == checkpoint.metrics_state
        assert not hasattr(loaded, "counters")

    def test_read_missing_checkpoint_raises(self, tmp_path):
        with pytest.raises(ConfigurationError):
            read_checkpoint(str(tmp_path / "absent.ckpt"))

    def test_read_schema_2_checkpoint_raises(self, tmp_path):
        """A /2 file still carries DynamicRR's LP-PT ``workspace`` and
        ``solve_state``; it must fail at read time with a typed error,
        not with a KeyError halfway through a restore."""
        stale = ServiceCheckpoint(
            config={"policy": "dynamicrr"}, slot=9,
            engine_state={"slot": 9},
            policy_state={"bandit": None, "workspace": None,
                          "solve_state": None, "tracker": None},
            stream_state={"next_id": 3},
            journal=JournalCursor(), metrics_state={},
            schema="repro.service-checkpoint/2")
        path = tmp_path / "stale.ckpt"
        path.write_bytes(pickle.dumps(stale))
        with pytest.raises(ConfigurationError, match="stale checkpoint"):
            read_checkpoint(str(path))

    def test_read_schema_3_checkpoint_raises(self, tmp_path):
        """A /3 file still carries DynamicRR's ``cumulative_reward``."""
        stale = ServiceCheckpoint(
            config={"policy": "dynamicrr"}, slot=9,
            engine_state={"slot": 9},
            policy_state={"bandit": None, "tracker": None,
                          "cumulative_reward": 0.0},
            stream_state={"next_id": 3},
            journal=JournalCursor(), metrics_state={},
            schema="repro.service-checkpoint/3")
        path = tmp_path / "stale.ckpt"
        path.write_bytes(pickle.dumps(stale))
        with pytest.raises(ConfigurationError, match="stale checkpoint"):
            read_checkpoint(str(path))

    def test_read_schema_4_checkpoint_raises(self, tmp_path):
        """A /4 file still carries the service's private ``counters``
        beside the registry state that now holds them alone."""
        stale = ServiceCheckpoint(
            config={"policy": "greedy"}, slot=9,
            engine_state={"slot": 9}, policy_state=None,
            stream_state={"next_id": 3}, journal=JournalCursor(),
            metrics_state={}, schema="repro.service-checkpoint/4")
        stale.counters = {"arrivals": 3.0}
        path = tmp_path / "stale.ckpt"
        path.write_bytes(pickle.dumps(stale))
        with pytest.raises(ConfigurationError, match="stale checkpoint"):
            read_checkpoint(str(path))

    def test_read_garbage_raises(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"not a pickle")
        with pytest.raises(ConfigurationError):
            read_checkpoint(str(path))

    def test_truncate_journal_cuts_back(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_bytes(b"a" * 100)
        truncate_journal(str(path), 40)
        assert path.stat().st_size == 40

    def test_truncate_beyond_size_raises(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_bytes(b"a" * 10)
        with pytest.raises(ConfigurationError):
            truncate_journal(str(path), 40)


class TestWriteFailures:
    """An I/O error mid-write leaves no temp file and no torn checkpoint:
    it raises a typed error and the previous checkpoint still resumes."""

    @pytest.fixture()
    def first(self, make_service_config, tmp_path):
        """A service that has written its first checkpoint."""
        config = checkpointed_config(make_service_config, tmp_path, "io")
        service = AdmissionService(config)
        while service.last_checkpoint_slot is None:
            service.tick()
        return service, config.checkpoint_path

    @pytest.mark.parametrize("target, code", [
        ("pickle.dump", errno.ENOSPC),
        ("os.fsync", errno.ENOSPC),
        ("os.replace", errno.EACCES),
    ])
    def test_io_error_raises_typed_and_keeps_previous(
            self, first, monkeypatch, target, code):
        service, path = first
        previous = read_checkpoint(path)

        def fail(*args, **kwargs):
            raise OSError(code, os.strerror(code))

        module, name = target.split(".")
        monkeypatch.setattr(f"repro.service.checkpoint.{module}.{name}",
                            fail)
        with pytest.raises(PersistenceError, match=os.strerror(code)):
            while service.last_checkpoint_slot == previous.slot:
                service.tick()
        monkeypatch.undo()
        assert not os.path.exists(path + ".tmp")
        kept = read_checkpoint(path)
        assert kept.slot == previous.slot
        assert kept.journal == previous.journal
        resumed = AdmissionService.resume(path)
        run_to_drain(resumed)

    def test_error_is_a_repro_error(self, tmp_path, monkeypatch):
        checkpoint = ServiceCheckpoint(
            config={}, slot=1, engine_state={}, policy_state=None,
            stream_state={}, journal=JournalCursor(), metrics_state={})

        def fail(*args, **kwargs):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr("repro.service.checkpoint.pickle.dump", fail)
        with pytest.raises(ReproError):
            write_checkpoint(str(tmp_path / "c.ckpt"), checkpoint)
        assert list(tmp_path.iterdir()) == []
