"""Golden digests pin every field of the generated workloads.

Each digest covers every field of every request a workload API draws -
id, serving station, arrival slot, deadline, stream duration,
``C_unit``, each pipeline stage and the distribution's rates,
probabilities and rewards as raw float64 bytes - plus the generator's
RNG state after the draws.  Scalars are hashed through ``repr`` together
with their type name, so a stray ``np.float64`` or ``np.int64`` changes
a digest as surely as a different value does.

The digests were recorded from the per-request design, which rebuilt
and re-validated the rate grid and the pipeline for every request.  Any
later change to the generation path must reproduce them exactly: same
values, same types, same RNG stream.
"""

import hashlib
import sys

import numpy as np
import pytest

from repro.config import NetworkConfig, RequestConfig
from repro.network.topology import generate_topology
from repro.requests import (PoissonArrivalStream, RequestGenerator,
                            make_decaying_distribution)

#: Workload configs: the Section VI-A defaults; one that reaches the
#: single-level grid, uniform decay and the 5-8 stage pipelines; and a
#: finer, faster-decaying grid.
CONFIGS = {
    "default": RequestConfig(),
    "edges": RequestConfig(num_rate_levels=1, rate_decay=1.0,
                           tasks_range=(1, 8), reward_unit_range=(0.0, 3.0),
                           data_rate_range_mbps=(4.0, 4.0),
                           deadline_ms=90.0, stream_duration_slots=3,
                           c_unit_mhz_per_mbps=7.5),
    "fine": RequestConfig(num_rate_levels=17, rate_decay=0.55,
                          tasks_range=(4, 6),
                          data_rate_range_mbps=(1.5, 33.0)),
}

#: sha256 of the requests and RNG state, by (config, workload API).
GOLDEN = {
    ("default", "batch"):
        "d5fcd6cdcf79c0b71cbcbb70c726ebe2fec338b065b790a20182245a9a2a2289",
    ("default", "arrivals"):
        "cf04f322c8a1c2a4b63359df01c9125d353a8dbe42686ba68bd6a422a8fe5534",
    ("default", "stream"):
        "e8f50e58765b925c8c8377a3485d80e7d7ffbd54a89dcfbb421b78e30f6a16d3",
    ("edges", "batch"):
        "fe17c9412cb0c1749fd1871c7c7dc3d25ab15a50476681447b80b905c4649093",
    ("edges", "arrivals"):
        "fac9953d7267fcbc2dea139ae6a73211cacb52d7546a7d17334f30c0140f53e2",
    ("edges", "stream"):
        "6100c436d589753d7fc84ea92cd7615a414b9c092842967f9f0079da7c8bef41",
    ("fine", "batch"):
        "b7a4f1f41c59af90d102124e1154d961b239efa0a420e6ae51d63dffa1401e89",
    ("fine", "arrivals"):
        "c6927720b606c92b7203cfc9309722dc922bca5e9d550732239896dad84f8424",
    ("fine", "stream"):
        "006ccc3ebdda055757cd05dacf2d4cc199405c637e77df82c2ef8f602283e19d",
}

#: sha256 of :func:`make_decaying_distribution` outputs and RNG state.
GOLDEN_DISTRIBUTIONS = (
    "52658eca5705edc2091008a51ea2c58abb727ece264997fa0b1ed1e806fc5d18")


class _Digest:
    """A sha256 over typed scalars and raw array bytes."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()

    def scalar(self, value) -> None:
        self._hash.update(f"{type(value).__name__}:{value!r};".encode())

    def array(self, values: np.ndarray) -> None:
        self._hash.update(f"{values.dtype.str}{values.shape}:".encode())
        self._hash.update(np.ascontiguousarray(values).tobytes())

    def distribution(self, dist) -> None:
        self.array(dist.rates_mbps)
        self.array(dist.probabilities)
        self.array(dist.rewards)

    def request(self, request) -> None:
        for value in (request.request_id, request.serving_station,
                      request.arrival_slot, request.deadline_ms,
                      request.stream_duration_slots,
                      request.c_unit_mhz_per_mbps, len(request.pipeline)):
            self.scalar(value)
        for task in request.pipeline:
            self.scalar(task.name)
            self.scalar(task.output_kb)
            self.scalar(task.compute_weight)
        self.distribution(request.distribution)

    def rng(self, rng: np.random.Generator) -> None:
        self.scalar(rng.bit_generator.state)

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


@pytest.fixture(scope="module")
def network():
    return generate_topology(NetworkConfig(num_base_stations=7), rng=3)


def _digest_workload(config_name: str, api: str, network) -> str:
    generator = RequestGenerator(CONFIGS[config_name], network, rng=11)
    digest = _Digest()
    if api == "batch":
        requests = generator.generate_batch(40)
        requests += generator.generate_batch(3)
    elif api == "arrivals":
        requests = generator.generate_arrivals(40, horizon_slots=9)
    else:
        stream = PoissonArrivalStream(generator, mean_per_slot=2.5, rng=5,
                                      limit=60)
        requests = []
        for _ in range(8):
            requests += stream.next_batch(sys.maxsize)[1]
        state = stream.export_state()
        # Resume a second stream from the snapshot: it must continue the
        # first one's arrivals exactly.
        generator = RequestGenerator(CONFIGS[config_name], network, rng=999)
        counts = np.random.default_rng(999)
        resumed = PoissonArrivalStream(generator, mean_per_slot=2.5,
                                       rng=counts, limit=60)
        resumed.restore_state(state)
        while not resumed.exhausted:
            requests += resumed.next_batch(sys.maxsize)[1]
        digest.rng(counts)
    for request in requests:
        digest.request(request)
    digest.rng(generator.rng)
    return digest.hexdigest()


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_generated_requests_match_golden(key, network):
    assert _digest_workload(*key, network) == GOLDEN[key]


def test_decaying_distributions_match_golden():
    rng = np.random.default_rng(23)
    digest = _Digest()
    for levels, decay, price, jitter in [(10, 0.85, 13.0, 0.05),
                                         (1, 0.5, 12.0, 0.05),
                                         (6, 1.0, 0.0, 0.0),
                                         (3, 0.1, 14.5, 0.9)]:
        dist = make_decaying_distribution(
            rate_range_mbps=(2.0, 30.0), num_levels=levels, decay=decay,
            unit_price=price, rng=rng, price_jitter=jitter)
        digest.distribution(dist)
    digest.rng(rng)
    assert digest.hexdigest() == GOLDEN_DISTRIBUTIONS
