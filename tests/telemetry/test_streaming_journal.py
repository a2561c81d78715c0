"""Tests for the opt-in streaming (chunked JSONL) Journal mode."""

from __future__ import annotations

import errno
import json
import os
import re

import pytest

from repro.exceptions import ConfigurationError, PersistenceError
from repro.sim.events import Event, EventKind
from repro.telemetry import audit
from repro.telemetry.audit import Journal
from repro.telemetry.export import write_jsonl


def make_events(n):
    return [Event(slot=t, kind=EventKind.ARRIVAL, request_id=t)
            for t in range(n)]


class TestStreamingBytes:
    def test_stream_matches_write_jsonl_bytes(self, tmp_path):
        """The streamed file is byte-identical to the batch exporter's."""
        events = make_events(25)
        streamed = tmp_path / "stream.jsonl"
        journal = Journal(stream_path=str(streamed), flush_every=7)
        for event in events:
            journal.record(event)
        journal.close()

        batch = tmp_path / "batch.jsonl"
        write_jsonl(batch, [e.to_record() for e in events])
        assert streamed.read_bytes() == batch.read_bytes()

    @pytest.mark.parametrize("flush_every", [1, 3, 10, 1000])
    def test_flush_interval_never_changes_bytes(self, tmp_path,
                                                flush_every):
        events = make_events(17)
        path = tmp_path / f"f{flush_every}.jsonl"
        journal = Journal(stream_path=str(path), flush_every=flush_every)
        for event in events:
            journal.record(event)
        journal.close()
        reference = "".join(
            json.dumps(e.to_record(), sort_keys=True) + "\n"
            for e in events)
        assert path.read_text() == reference

    def test_flushed_events_leave_memory(self, tmp_path):
        journal = Journal(stream_path=str(tmp_path / "j.jsonl"),
                          flush_every=5)
        for event in make_events(12):
            journal.record(event)
        # Two full chunks flushed; only the tail of 2 remains buffered.
        assert len(journal.events()) == 2
        assert journal.total_recorded == 12
        assert len(journal) == 12
        journal.close()


class TestAppendMode:
    def test_append_continues_file_and_indices(self, tmp_path):
        path = tmp_path / "j.jsonl"
        first = Journal(stream_path=str(path), flush_every=2)
        for event in make_events(6):
            first.record(event)
        first.close()

        seen = []

        class Spy:
            def observe(self, record, index):
                seen.append(index)

        second = Journal(stream_path=str(path), flush_every=2,
                         append=True, already_recorded=6)
        second.attach(Spy())
        second.record(Event(slot=6, kind=EventKind.ARRIVAL,
                            request_id=6))
        second.close()
        assert seen == [6]
        lines = path.read_text().splitlines()
        assert len(lines) == 7
        assert json.loads(lines[-1])["request"] == 6

    def test_byte_position_flushes_and_reports_length(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = Journal(stream_path=str(path), flush_every=100)
        for event in make_events(4):
            journal.record(event)
        pos = journal.byte_position()
        assert pos == path.stat().st_size > 0
        assert journal.events() == []  # byte_position flushed
        journal.close()

    def test_append_requires_stream_path(self):
        with pytest.raises(ConfigurationError):
            Journal(append=True)

    def test_rejects_bad_knobs(self, tmp_path):
        with pytest.raises(ConfigurationError):
            Journal(flush_every=0)
        with pytest.raises(ConfigurationError):
            Journal(stream_path=str(tmp_path / "x.jsonl"),
                    append=True, already_recorded=-1)


class TestCrashConsistency:
    """A streaming journal interrupted mid-run must leave a parseable
    JSONL prefix that downstream consumers (trace-diff, checkpoint
    resume-truncation) accept as-is."""

    def test_context_manager_flushes_on_exception(self, tmp_path):
        path = tmp_path / "crash.jsonl"
        events = make_events(9)
        with pytest.raises(RuntimeError):
            with Journal(stream_path=str(path), flush_every=4) as journal:
                for event in events:
                    journal.record(event)
                raise RuntimeError("simulated crash")
        lines = path.read_text().splitlines()
        assert len(lines) == 9  # the unflushed tail was not lost
        parsed = [json.loads(line) for line in lines]
        assert [p["request"] for p in parsed] == list(range(9))

    def test_crash_prefix_accepted_by_trace_diff(self, tmp_path):
        from repro.telemetry.diffcore import EXIT_OK
        from repro.telemetry.diffcore import EXIT_REGRESSED as EXIT_DIVERGED
        from repro.telemetry.tracediff import main as trace_diff
        full = tmp_path / "full.jsonl"
        with Journal(stream_path=str(full), flush_every=3) as journal:
            for event in make_events(12):
                journal.record(event)

        crashed = tmp_path / "crashed.jsonl"
        with pytest.raises(RuntimeError):
            with Journal(stream_path=str(crashed),
                         flush_every=3) as journal:
                for event in make_events(12):
                    journal.record(event)
                raise RuntimeError("simulated crash")
        # Identical streams: the flushed crash file is a *complete*
        # copy here (everything recorded pre-crash survived).
        assert trace_diff([str(full), str(crashed)]) == EXIT_OK

        # A genuine prefix (crash before the last records) still
        # parses; trace-diff localizes the truncation, not a parse
        # error (exit 1, not 2).
        prefix = tmp_path / "prefix.jsonl"
        with pytest.raises(RuntimeError):
            with Journal(stream_path=str(prefix),
                         flush_every=3) as journal:
                for event in make_events(7):
                    journal.record(event)
                raise RuntimeError("simulated crash")
        assert trace_diff([str(full), str(prefix)]) == EXIT_DIVERGED

    def test_crash_prefix_accepted_by_resume_truncation(self, tmp_path):
        from repro.service.checkpoint import truncate_journal
        path = tmp_path / "j.jsonl"
        journal = Journal(stream_path=str(path), flush_every=2)
        for event in make_events(5):
            journal.record(event)
        cursor = journal.byte_position()  # checkpoint taken here
        with pytest.raises(RuntimeError):
            with journal:
                for event in make_events(3):
                    journal.record(event)
                raise RuntimeError("simulated crash")
        assert path.stat().st_size > cursor  # ran past the checkpoint
        truncate_journal(str(path), cursor)
        lines = path.read_text().splitlines()
        assert len(lines) == 5
        assert all(json.loads(line) for line in lines)

    def test_exit_without_exception_also_closes(self, tmp_path):
        path = tmp_path / "clean.jsonl"
        with Journal(stream_path=str(path), flush_every=100) as journal:
            journal.record(make_events(1)[0])
            assert journal.streaming
        assert not journal.streaming  # closed, handle released
        assert len(path.read_text().splitlines()) == 1

    def test_null_journal_context_manager(self):
        from repro.telemetry.audit import NULL_JOURNAL
        with NULL_JOURNAL as journal:
            journal.record({"kind": "arrival"})
        assert journal.events() == []


class _FailingHandle:
    """A stream handle whose writes fail with one errno."""

    def __init__(self, code):
        self.code = code

    def write(self, data):
        raise OSError(self.code, os.strerror(self.code))


class TestIoFaults:
    """A full disk or a permission error on the stream file surfaces as
    a typed error naming the file, and a failed flush loses nothing."""

    @pytest.mark.parametrize("code", [errno.ENOSPC, errno.EACCES])
    def test_open_failure(self, tmp_path, monkeypatch, code):
        path = str(tmp_path / "j.jsonl")

        def refuse(name, mode):
            raise OSError(code, os.strerror(code), name)

        monkeypatch.setattr(audit, "open", refuse, raising=False)
        with pytest.raises(PersistenceError, match=re.escape(path)) as caught:
            Journal(stream_path=path)
        assert caught.value.__cause__.errno == code

    def test_missing_directory(self, tmp_path):
        path = str(tmp_path / "missing" / "j.jsonl")
        with pytest.raises(PersistenceError, match=re.escape(path)):
            Journal(stream_path=path)

    @pytest.mark.parametrize("code", [errno.ENOSPC, errno.EACCES])
    def test_flush_failure_keeps_buffer_and_position(self, tmp_path, code):
        path = tmp_path / "j.jsonl"
        journal = Journal(stream_path=str(path), flush_every=4)
        for event in make_events(3):
            journal.record(event)
        written = journal.byte_position()
        pending = make_events(4)
        for event in pending[:3]:
            journal.record(event)
        handle = journal._handle
        journal._handle = _FailingHandle(code)
        # The fourth record fills the buffer and flushes.
        with pytest.raises(PersistenceError,
                           match=re.escape(str(path))) as caught:
            journal.record(pending[3])
        assert caught.value.__cause__.errno == code
        assert journal._bytes == written
        assert journal.events() == [e.to_record() for e in pending]
        assert journal.total_recorded == 7
        # Once the disk recovers, the next flush writes everything.
        journal._handle = handle
        assert journal.byte_position() == path.stat().st_size
        journal.close()
        assert len(path.read_text().splitlines()) == 7


class TestInMemoryUnchanged:
    """The default (no stream_path) behaviour is exactly the old one."""

    def test_events_and_len(self):
        journal = Journal()
        for event in make_events(5):
            journal.record(event)
        assert len(journal) == 5
        assert len(journal.events()) == 5
        assert not journal.streaming

    def test_clear_resets(self):
        journal = Journal()
        for event in make_events(5):
            journal.record(event)
        journal.clear()
        assert len(journal) == 0
        assert journal.events() == []

    def test_flush_is_noop_in_memory(self):
        journal = Journal()
        journal.record(make_events(1)[0])
        journal.flush()
        assert len(journal.events()) == 1
