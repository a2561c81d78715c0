"""Journaling through the sweep executor: determinism and inertness.

The load-bearing properties mirror the tracing ones:

* journaling is *inert* - records (and the metrics inside them) are
  identical with journaling on or off;
* journals are *canonical* - a serial and a parallel execution of the
  same specs produce byte-identical journals, so trace-diff between
  them exits 0 and any real divergence is localizable.
"""

from repro.baselines.greedy import GreedyOffline, GreedyOnline
from repro.core.dynamic_rr import DynamicRR
from repro.core.heu import Heu
from repro.experiments.executor import (OFFLINE, ONLINE, RunSpec,
                                        execute_run, execute_specs)
from repro.experiments.runner import run_offline_sweep
from repro.experiments.settings import base_config
from repro.telemetry import (NULL_JOURNAL, audit_records,
                             collect_sweep_journal, get_journal)
from repro.telemetry.diffcore import EXIT_OK
from repro.telemetry.diffcore import EXIT_REGRESSED as EXIT_DIVERGED
from repro.telemetry.tracediff import main


def tiny_config(x=0, seed=0):
    cfg = base_config(seed)
    return cfg.with_overrides(
        network=cfg.network.__class__(num_base_stations=6))


def record_key(record):
    return (record.algorithm, record.x, record.seed,
            tuple(sorted((k, v) for k, v in record.metrics.items()
                         if k != "runtime_s")))


def offline_spec(journal=False, factory=GreedyOffline, seed=1):
    return RunSpec(mode=OFFLINE, factory=factory, x=8.0, seed=seed,
                   config=tiny_config(8, seed), num_requests=8,
                   journal=journal)


def online_spec(journal=False, factory=GreedyOnline, seed=0):
    return RunSpec(mode=ONLINE, factory=factory, x=6.0, seed=seed,
                   config=tiny_config(6, seed), num_requests=6,
                   horizon_slots=10, journal=journal)


class TestJournalIsInert:
    def test_unjournaled_record_has_no_journal(self):
        assert execute_run(offline_spec()).journal is None

    def test_journaled_record_carries_events(self):
        record = execute_run(offline_spec(journal=True))
        assert record.journal
        assert all(isinstance(e, dict) for e in record.journal)

    def test_metrics_identical_with_and_without_journaling(self):
        plain = execute_run(offline_spec(factory=Heu))
        journaled = execute_run(offline_spec(factory=Heu,
                                             journal=True))
        assert record_key(plain) == record_key(journaled)

    def test_online_metrics_identical_with_journaling(self):
        plain = execute_run(online_spec(factory=DynamicRR))
        journaled = execute_run(online_spec(factory=DynamicRR,
                                            journal=True))
        assert record_key(plain) == record_key(journaled)

    def test_journal_restored_after_journaled_run(self):
        execute_run(offline_spec(journal=True))
        assert get_journal() is NULL_JOURNAL

    def test_journal_composes_with_tracing(self):
        import dataclasses

        spec = dataclasses.replace(offline_spec(journal=True),
                                   trace=True)
        record = execute_run(spec)
        assert record.journal and record.trace


class TestSerialParallelJournalEquivalence:
    def specs(self):
        return [offline_spec(factory=Heu), online_spec(),
                online_spec(factory=DynamicRR)]

    def test_journals_byte_identical(self):
        serial = execute_specs(self.specs(), workers=1, journal=True)
        parallel = execute_specs(self.specs(), workers=3, journal=True)
        assert ([record_key(r) for r in serial]
                == [record_key(r) for r in parallel])
        assert (collect_sweep_journal(serial)
                == collect_sweep_journal(parallel))

    def test_merged_stream_is_canonical_spec_order(self):
        records = execute_specs(self.specs(), workers=3, journal=True)
        merged = collect_sweep_journal(records)
        runs = [e["run"] for e in merged]
        assert runs == sorted(runs)
        assert set(runs) == {0, 1, 2}

    def test_trace_diff_serial_vs_parallel_exits_zero(self, tmp_path):
        import json

        paths = []
        for workers in (1, 3):
            records = execute_specs(self.specs(), workers=workers,
                                    journal=True)
            path = tmp_path / f"w{workers}.jsonl"
            path.write_text("".join(
                json.dumps(e, sort_keys=True) + "\n"
                for e in collect_sweep_journal(records)),
                encoding="utf-8")
            paths.append(str(path))
        assert main(paths) == EXIT_OK

    def test_trace_diff_different_seeds_diverges(self, tmp_path,
                                                 capsys):
        import json

        paths = []
        for seed in (0, 1):
            records = execute_specs(
                [online_spec(factory=DynamicRR, seed=seed)],
                workers=1, journal=True)
            path = tmp_path / f"s{seed}.jsonl"
            path.write_text("".join(
                json.dumps(e, sort_keys=True) + "\n"
                for e in collect_sweep_journal(records)),
                encoding="utf-8")
            paths.append(str(path))
        assert main(paths) == EXIT_DIVERGED
        out = capsys.readouterr().out
        assert "diverge at event" in out
        assert "< [" in out and "> [" in out


class TestSweepAudit:
    def test_runner_journal_knob(self):
        sweep = run_offline_sweep(
            algorithm_factories=[Heu],
            x_values=[8],
            make_config=tiny_config,
            num_requests_of=lambda x: int(x),
            num_seeds=2,
            x_label="num_requests",
            journal=True)
        assert all(r.journal for r in sweep.records)
        outcome = audit_records(sweep.records)
        assert outcome.ok
        assert outcome.runs_audited == len(sweep.records)
        assert outcome.checks["reward_accounting"] > 0

    def test_unjournaled_sweep_audits_nothing(self):
        sweep = run_offline_sweep(
            algorithm_factories=[GreedyOffline],
            x_values=[8],
            make_config=tiny_config,
            num_requests_of=lambda x: int(x),
            num_seeds=1,
            x_label="num_requests")
        assert all(r.journal is None for r in sweep.records)
        assert audit_records(sweep.records).runs_audited == 0
