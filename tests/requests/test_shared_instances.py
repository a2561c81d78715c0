"""Aliasing guards for the read-only instances requests share.

A generator validates its rate grid once and every request's
distribution points at the same rates and probabilities arrays; every
request with ``n`` stages points at the same pipeline.  Sharing is only
safe while nothing can write through it, so these tests pin both the
sharing and the read-only guarantees, and that a checkpoint's pickle
round trip keeps the distributions equal.
"""

import copy

import numpy as np
import pytest

from repro.config import NetworkConfig, RequestConfig
from repro.network.topology import generate_topology
from repro.requests import RequestGenerator, standard_ar_pipeline
from repro.service import (JournalCursor, ServiceCheckpoint,
                           read_checkpoint, write_checkpoint)


@pytest.fixture()
def requests():
    network = generate_topology(NetworkConfig(num_base_stations=6), rng=0)
    generator = RequestGenerator(RequestConfig(), network, rng=0)
    return generator.generate_batch(30)


def test_requests_share_one_grid(requests):
    first = requests[0].distribution
    for request in requests[1:]:
        other = request.distribution
        assert other.rates_mbps.base is first.rates_mbps.base
        assert other.probabilities.base is first.probabilities.base
        assert not np.shares_memory(other.rewards, first.rewards)


@pytest.mark.parametrize("field", ["rates_mbps", "probabilities",
                                   "rewards"])
def test_in_place_writes_raise(requests, field):
    view = getattr(requests[0].distribution, field)
    before = view.copy()
    with pytest.raises(ValueError):
        view[0] = 1.0
    with pytest.raises(ValueError):
        view *= 2.0
    if field != "rewards":
        with pytest.raises(ValueError):
            view.base[0] = 1.0
    assert np.array_equal(view, before)


@pytest.mark.parametrize("num_tasks", range(1, 9))
def test_standard_pipeline_is_shared(num_tasks):
    pipeline = standard_ar_pipeline(num_tasks)
    assert standard_ar_pipeline(num_tasks) is pipeline
    assert len(pipeline) == num_tasks


def test_requests_share_standard_pipelines(requests):
    for request in requests:
        assert request.pipeline is standard_ar_pipeline(
            len(request.pipeline))


def test_checkpoint_round_trip_keeps_distributions(requests, tmp_path):
    """Pending requests copied and pickled as the service checkpoints
    them, then read back, carry equal distributions and pipelines, still
    read-only."""
    path = str(tmp_path / "pending.ckpt")
    write_checkpoint(path, ServiceCheckpoint(
        config=None, slot=0,
        engine_state={"pending": copy.deepcopy(requests)},
        policy_state=None, stream_state={}, journal=JournalCursor(),
        metrics_state={}))
    restored = read_checkpoint(path).engine_state["pending"]
    assert len(restored) == len(requests)
    for before, after in zip(requests, restored):
        for field in ("rates_mbps", "probabilities", "rewards"):
            old = getattr(before.distribution, field)
            new = getattr(after.distribution, field)
            assert new.dtype == old.dtype
            assert new.tobytes() == old.tobytes()
            with pytest.raises(ValueError):
                new[0] = 1.0
        assert after.expected_reward == before.expected_reward
        assert after.pipeline.tasks == before.pipeline.tasks
        assert (after.pipeline.total_compute_weight
                == before.pipeline.total_compute_weight)
