"""Tests for the parallel sweep execution layer.

The load-bearing property is the determinism guarantee: for the same
spec list, every backend (serial, process pool, any worker count or
chunking) must return the *identical* sequence of records - same
algorithms, x, seeds, and metric values to full float precision.
"""

import functools

import numpy as np
import pytest

from repro.baselines.greedy import GreedyOffline, GreedyOnline
from repro.baselines.ocorp import OcorpOffline, OcorpOnline
from repro.core.dynamic_rr import DynamicRR
from repro.exceptions import ConfigurationError
from repro.experiments.executor import (OFFLINE, ONLINE, ProcessBackend,
                                        RunSpec, SerialBackend,
                                        _fresh_algorithm,
                                        default_chunk_size, execute_run,
                                        execute_specs, execute_sweep,
                                        make_backend, resolve_workers)
from repro.experiments.runner import (build_offline_specs,
                                      build_online_specs,
                                      run_offline_sweep,
                                      run_online_sweep)
from repro.experiments.settings import base_config


def tiny_config(x, seed):
    cfg = base_config(seed)
    return cfg.with_overrides(
        network=cfg.network.__class__(num_base_stations=6))


def record_key(record):
    """A record as a fully-comparable tuple (exact float equality).

    ``runtime_s`` is excluded: it is a wall-clock measurement of the
    executing machine, not a simulated quantity, so it legitimately
    varies between runs.  Every other metric must match exactly.
    """
    return (record.algorithm, record.x, record.seed,
            tuple(sorted((k, v) for k, v in record.metrics.items()
                         if k != "runtime_s")))


class TestRunSpec:
    def test_unknown_mode_rejected(self):
        spec = RunSpec(mode="nope", factory=GreedyOffline, x=1.0,
                       seed=0, config=tiny_config(1, 0), num_requests=4)
        with pytest.raises(ConfigurationError):
            spec.validate()

    def test_online_needs_horizon(self):
        spec = RunSpec(mode=ONLINE, factory=GreedyOnline, x=1.0,
                       seed=0, config=tiny_config(1, 0), num_requests=4)
        with pytest.raises(ConfigurationError):
            spec.validate()

    def test_bad_num_requests_rejected(self):
        spec = RunSpec(mode=OFFLINE, factory=GreedyOffline, x=1.0,
                       seed=0, config=tiny_config(1, 0), num_requests=0)
        with pytest.raises(ConfigurationError):
            spec.validate()

    def test_execute_run_is_deterministic(self):
        spec = RunSpec(mode=OFFLINE, factory=GreedyOffline, x=8.0,
                       seed=1, config=tiny_config(8, 1), num_requests=8)
        first = execute_run(spec)
        second = execute_run(spec)
        assert record_key(first) == record_key(second)
        assert first.algorithm == "Greedy"


class TestFactorySeeding:
    """Policies with an rng constructor knob must not fall back to OS
    entropy inside a sweep (regression: DynamicRR made Figs. 4-6
    irreproducible even serially)."""

    def test_rng_factory_is_seeded_deterministically(self):
        a = _fresh_algorithm(DynamicRR, seed=3)
        b = _fresh_algorithm(DynamicRR, seed=3)
        assert (a._rng.integers(0, 10**9, size=4)
                == b._rng.integers(0, 10**9, size=4)).all()

    def test_different_seeds_different_streams(self):
        a = _fresh_algorithm(DynamicRR, seed=3)
        b = _fresh_algorithm(DynamicRR, seed=4)
        assert not (a._rng.integers(0, 10**9, size=8)
                    == b._rng.integers(0, 10**9, size=8)).all()

    def test_explicitly_bound_rng_is_respected(self):
        factory = functools.partial(DynamicRR,
                                    rng=np.random.default_rng(99))
        reference = np.random.default_rng(99).integers(0, 10**9, size=4)
        policy = _fresh_algorithm(factory, seed=3)
        assert (policy._rng.integers(0, 10**9, size=4)
                == reference).all()

    def test_factory_without_rng_param_untouched(self):
        policy = _fresh_algorithm(GreedyOnline, seed=3)
        assert policy.name == "Greedy"

    def test_dynamic_rr_run_is_reproducible(self):
        spec = RunSpec(mode=ONLINE, factory=DynamicRR, x=6.0, seed=0,
                       config=tiny_config(6, 0), num_requests=6,
                       horizon_slots=8)
        assert record_key(execute_run(spec)) \
            == record_key(execute_run(spec))


class TestWorkerKnob:
    def test_resolve_defaults(self):
        assert resolve_workers(None) == 1
        assert resolve_workers(1) == 1
        assert resolve_workers(4) == 4
        assert resolve_workers(0) >= 1

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_workers(-2)

    def test_backend_selection(self):
        assert isinstance(make_backend(1), SerialBackend)
        assert isinstance(make_backend(None), SerialBackend)
        backend = make_backend(3)
        assert isinstance(backend, ProcessBackend)
        assert backend.workers == 3

    def test_process_backend_guards(self):
        with pytest.raises(ConfigurationError):
            ProcessBackend(1)

    def test_default_chunk_size(self):
        assert default_chunk_size(0, 4) == 1
        assert default_chunk_size(7, 4) == 1
        assert default_chunk_size(64, 4) == 4

    def test_empty_spec_list(self):
        assert execute_specs([], workers=4) == []


class TestSerialParallelEquivalence:
    """workers=1 and workers=4 must agree bit for bit."""

    def fig3_shaped_specs(self):
        # Fig. 3 shape: offline algorithms x |R| sweep x seeds.
        return build_offline_specs(
            algorithm_factories=[GreedyOffline, OcorpOffline],
            x_values=[8, 12],
            make_config=tiny_config,
            num_requests_of=lambda x: int(x),
            num_seeds=2)

    def fig4_shaped_specs(self):
        # Fig. 4 shape: online policies x |R| sweep x seeds.
        return build_online_specs(
            policy_factories=[GreedyOnline, OcorpOnline],
            x_values=[6, 10],
            make_config=tiny_config,
            num_requests_of=lambda x: int(x),
            horizon_slots=15,
            num_seeds=2)

    def test_fig3_shaped_sweep_identical(self):
        specs = self.fig3_shaped_specs()
        serial = execute_specs(specs, workers=1)
        parallel = execute_specs(specs, workers=4)
        assert ([record_key(r) for r in serial]
                == [record_key(r) for r in parallel])

    def test_fig4_shaped_sweep_identical(self):
        specs = self.fig4_shaped_specs()
        serial = execute_specs(specs, workers=1)
        parallel = execute_specs(specs, workers=4)
        assert ([record_key(r) for r in serial]
                == [record_key(r) for r in parallel])

    def test_multi_spec_chunks_match_serial(self):
        # 16 specs on 2 workers: every dispatched chunk holds 2 specs.
        specs = build_offline_specs(
            algorithm_factories=[GreedyOffline, OcorpOffline],
            x_values=[8, 12],
            make_config=tiny_config,
            num_requests_of=lambda x: int(x),
            num_seeds=4)
        assert default_chunk_size(len(specs), 2) == 2
        serial = execute_specs(specs, workers=1)
        chunked = execute_specs(specs, workers=2)
        assert ([record_key(r) for r in serial]
                == [record_key(r) for r in chunked])

    def test_execute_sweep_preserves_canonical_order(self):
        specs = self.fig3_shaped_specs()
        sweep = execute_sweep(specs, "num_requests", workers=4)
        assert [(r.x, r.seed, r.algorithm) for r in sweep.records] \
            == [(s.x, s.seed, s.factory().name) for s in specs]


class TestRunnerWorkersKnob:
    """The public sweep runners honor workers end to end."""

    def test_offline_sweep_parallel_matches_serial(self):
        kwargs = dict(
            algorithm_factories=[GreedyOffline, OcorpOffline],
            x_values=[8, 12],
            make_config=tiny_config,
            num_requests_of=lambda x: int(x),
            num_seeds=2,
            x_label="num_requests")
        serial = run_offline_sweep(**kwargs)
        parallel = run_offline_sweep(workers=4, **kwargs)
        assert ([record_key(r) for r in serial.records]
                == [record_key(r) for r in parallel.records])
        assert parallel.x_label == "num_requests"

    def test_online_sweep_parallel_matches_serial(self):
        kwargs = dict(
            policy_factories=[GreedyOnline],
            x_values=[10],
            make_config=tiny_config,
            num_requests_of=lambda x: int(x),
            horizon_slots=15,
            num_seeds=2,
            x_label="num_requests")
        serial = run_online_sweep(**kwargs)
        parallel = run_online_sweep(workers=4, **kwargs)
        assert ([record_key(r) for r in serial.records]
                == [record_key(r) for r in parallel.records])
