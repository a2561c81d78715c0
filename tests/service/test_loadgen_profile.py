"""Profiling through the service drivers: ``run_loadgen``/``run_resume``.

A 2000-arrival, rate-8 greedy loadgen is profiled end to end.  Its
canonical digest (span calls plus counters, wall clock stripped) is
pinned in ``golden/loadgen_profile_digest.json``, together with the
digest of a resume after a kill.  The resumed run's counters include the values its
checkpoint restored, so the golden also pins how the service's own
registry folds into the digest.

Regenerate with ``PYTHONPATH=src python tests/service/test_loadgen_profile.py``
after an intended change, and say which span or counter moved.
"""

from __future__ import annotations

import json
import pathlib
import tempfile

import pytest

from repro.service.loadgen import run_loadgen, run_resume
from repro.telemetry.profiling import canonical_digest

GOLDEN = (pathlib.Path(__file__).parent / "golden"
          / "loadgen_profile_digest.json")

ARRIVALS = 2000
RATE = 8.0
KILL_AT_SLOT = 120
CHECKPOINT_EVERY = 50


def profiled_loadgen(**knobs) -> dict:
    return run_loadgen(arrivals=ARRIVALS, rate=RATE, profile=True,
                       **knobs)


def killed_then_resumed(directory: pathlib.Path) -> dict:
    checkpoint = str(directory / "service.ckpt")
    killed = run_loadgen(arrivals=ARRIVALS, rate=RATE,
                         checkpoint_path=checkpoint,
                         checkpoint_every=CHECKPOINT_EVERY,
                         kill_at_slot=KILL_AT_SLOT)
    assert killed["killed"] is True
    return run_resume(checkpoint, profile=True)


def recorded_digests(directory: pathlib.Path) -> dict:
    """Canonical digest of each profiled run the golden pins."""
    return {
        "loadgen": canonical_digest(profiled_loadgen()["profile"]),
        "resume": canonical_digest(
            killed_then_resumed(directory)["profile"]),
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


class TestLoadgenProfile:
    def test_digest_matches_golden(self, golden):
        summary = profiled_loadgen()
        assert canonical_digest(summary["profile"]) == golden["loadgen"]
        assert golden["loadgen"]["spans"]["slot_admission"]["calls"] \
            == 294
        assert len(golden["loadgen"]["counters"]) == 8

    def test_folded_and_memory_rows_written(self, tmp_path):
        folded = tmp_path / "service.folded"
        summary = profiled_loadgen(profile_mem=True,
                                   profile_out=str(folded))
        lines = folded.read_text().splitlines()
        assert lines
        for line in lines:
            stack, weight = line.rsplit(" ", 1)
            assert stack and int(weight) >= 1
        rows = summary["profile_mem"]
        assert rows
        assert {"site", "size_kb", "count"} <= set(rows[0])

    def test_profile_out_alone_implies_profile(self, tmp_path):
        folded = tmp_path / "service.folded"
        summary = run_loadgen(arrivals=ARRIVALS, rate=RATE,
                              profile_out=str(folded))
        assert "profile" in summary
        assert folded.read_text()

    def test_bench_manifest_carries_the_summary_digest(self, tmp_path):
        bench = tmp_path / "BENCH_service.json"
        summary = profiled_loadgen(bench_path=str(bench))
        manifest = json.loads(bench.read_text())
        assert manifest["profiles"]["loadgen"] == summary["profile"]
        assert manifest["metrics"]["loadgen"] == summary["metrics"]

    def test_kill_then_profiled_resume(self, tmp_path, golden):
        summary = killed_then_resumed(tmp_path)
        assert summary["resumed"] is True
        assert canonical_digest(summary["profile"]) == golden["resume"]
        # The restored registry carries the pre-kill counts, so the
        # digest's counters equal the resumed service's registry.
        counters = summary["profile"]["counters"]
        for series, value in summary["registry_counters"].items():
            assert counters[series] == value

    def test_unprofiled_run_has_no_profile(self):
        summary = run_loadgen(arrivals=ARRIVALS, rate=RATE)
        assert "profile" not in summary
        assert "profile_mem" not in summary


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as directory:
        recorded = recorded_digests(pathlib.Path(directory))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(recorded, indent=2, sort_keys=True)
                      + "\n")
