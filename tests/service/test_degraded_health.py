"""A failed journal or checkpoint write degrades ``/healthz``.

Three injected faults: ENOSPC while writing the checkpoint, ENOSPC on a
journal flush, and a journal flush that tears its final line before
failing.  In each case the tick raises ``PersistenceError``, the
service keeps the message, ``/healthz`` answers 503 ``degraded`` with
it, and the last good checkpoint still resumes to a journal
byte-identical to an uninterrupted run's.
"""

from __future__ import annotations

import asyncio
import errno
import json
import os

import pytest

from repro.exceptions import PersistenceError
from repro.service import AdmissionService, MetricsEndpoint

ENOSPC = os.strerror(errno.ENOSPC)


def run_to_drain(service):
    while not service.done:
        service.tick()
    service.close()


def get_healthz(service):
    """One GET /healthz against a live endpoint on a free port."""

    async def go():
        endpoint = await MetricsEndpoint(service).start()
        try:
            reader, writer = await asyncio.open_connection("127.0.0.1",
                                                           endpoint.port)
            writer.write(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            await writer.drain()
            raw = await reader.read()
            writer.close()
        finally:
            await endpoint.stop()
        return raw

    raw = asyncio.run(go())
    head, _, body = raw.partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(body)


class FailingHandle:
    """A journal file handle whose writes fail with ENOSPC, optionally
    after writing the first half of the chunk (a torn final line)."""

    def __init__(self, handle, torn):
        self._handle = handle
        self._torn = torn

    def write(self, data):
        if self._torn:
            self._handle.write(data[:len(data) // 2])
            self._handle.flush()
        raise OSError(errno.ENOSPC, ENOSPC)

    def __getattr__(self, name):
        return getattr(self._handle, name)


def fail_checkpoint(service, monkeypatch):
    def fail(*args, **kwargs):
        raise OSError(errno.ENOSPC, ENOSPC)

    monkeypatch.setattr("repro.service.checkpoint.os.fsync", fail)


def fail_journal(service, monkeypatch):
    journal = service.journal
    monkeypatch.setattr(journal, "_handle",
                        FailingHandle(journal._handle, torn=False))


def tear_journal(service, monkeypatch):
    journal = service.journal
    monkeypatch.setattr(journal, "_handle",
                        FailingHandle(journal._handle, torn=True))


@pytest.mark.parametrize("inject", [fail_checkpoint, fail_journal,
                                    tear_journal],
                         ids=["checkpoint-enospc", "journal-enospc",
                              "journal-torn-line"])
def test_persistence_error_degrades_healthz(make_service_config, tmp_path,
                                            monkeypatch, inject):
    def config(tag):
        return make_service_config(
            journal_path=str(tmp_path / f"{tag}.jsonl"),
            checkpoint_path=str(tmp_path / f"{tag}.ckpt"),
            checkpoint_every=5, max_arrivals=60)

    baseline = AdmissionService(config("base"))
    run_to_drain(baseline)
    expected = open(baseline.config.journal_path, "rb").read()

    service = AdmissionService(config("faulty"))
    while service.last_checkpoint_slot is None:
        service.tick()
    assert service.persistence_error is None
    assert get_healthz(service) == (200, {"status": "ok", "done": False})

    inject(service, monkeypatch)
    with pytest.raises(PersistenceError, match=ENOSPC):
        while not service.done:
            service.tick()
    monkeypatch.undo()
    assert ENOSPC in service.persistence_error
    status, payload = get_healthz(service)
    assert status == 503
    assert payload == {"status": "degraded", "done": False,
                       "error": service.persistence_error}
    if inject is tear_journal:
        assert not open(service.config.journal_path,
                        "rb").read().endswith(b"\n")

    resumed = AdmissionService.resume(service.config.checkpoint_path)
    assert resumed.persistence_error is None
    run_to_drain(resumed)
    assert open(service.config.journal_path, "rb").read() == expected
