"""Golden digests pin DynamicRR's journals and the LP-PT model bytes.

DynamicRR once carried an incremental LP-PT path (a cross-round model
workspace plus a solution cache) next to the plain cold build.  Both
paths produced the bytes pinned below; the cold build is the only one
left, so it must still reproduce them exactly.  Covered across the
Figs. 4-6 knobs: the base workload, a different station count, and a
different rate support - plus the raw LP-PT export (rows, objective,
bounds, names) at two sizes of the slot's selected set ``R_t``.
"""

import hashlib
import json

import numpy as np

from repro.config import (NetworkConfig, OnlineConfig, RequestConfig,
                          SimulationConfig)
from repro.core.dynamic_rr import DynamicRR
from repro.core.instance import ProblemInstance
from repro.core.lp_relaxation import build_lp_pt
from repro.sim.online_engine import OnlineEngine
from repro.telemetry import Journal, use_journal

#: sha256 of the JSONL journal of one DynamicRR run per config.
GOLDEN_JOURNALS = {
    "base": (
        "a9c963429c46b0f1875a5bcc1f4139d6eccadca136399b724b6b6c2ae521a740"),
    "stations12": (
        "d4520f978910a27a634792a516c097d6c8df9ac7f04d959ff1ae63eb50143228"),
    "rate9to15": (
        "cc828ca80cdb9da9aa140f0c76ea9756d23964812ac84abc4557704381be6148"),
}

#: sha256 of the LP-PT export for the first ``n`` requests.
GOLDEN_LP_PT = {
    4: "b27d218369807801c34b81f5e814b2b1ba156079e50d8ec9e3a943ad0fe0c87a",
    12: "eef042be092f69af7b5b9ffa8745c58a30d0d6b4dc8b2801714a2d43b60a269a",
}


def build(num_stations=8, rate_range=None, seed=1234):
    requests = RequestConfig(num_requests=24)
    if rate_range is not None:
        requests = RequestConfig(num_requests=24,
                                 data_rate_range_mbps=rate_range)
    config = SimulationConfig(
        network=NetworkConfig(num_base_stations=num_stations),
        requests=requests,
        online=OnlineConfig(horizon_slots=30),
        seed=seed,
    ).validate()
    instance = ProblemInstance.build(config, seed=seed)
    workload = instance.new_workload(num_requests=24, seed=seed,
                                     horizon_slots=30)
    return instance, workload


def journal_digest(instance, requests, horizon=30):
    """sha256 of the run's journal, serialized as ``write_jsonl`` does."""
    journal = Journal()
    with use_journal(journal):
        OnlineEngine(instance, requests, horizon_slots=horizon,
                     rng=7).run(DynamicRR(rng=7))
    text = "".join(json.dumps(event, sort_keys=True) + "\n"
                   for event in journal.events())
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def lp_pt_digest(instance, requests, waiting):
    """sha256 of one LP-PT's CSR rows, objective, bounds and names."""
    lp, _index = build_lp_pt(instance, requests, waiting)
    a_ub, b_ub, a_eq, b_eq = lp.sparse_rows()
    digest = hashlib.sha256()
    for arr in (a_ub.indptr, a_ub.indices, a_ub.data, b_ub,
                a_eq.indptr, a_eq.indices, a_eq.data, b_eq,
                lp.objective_vector(),
                np.asarray(lp.bounds(), dtype=float)):
        digest.update(np.ascontiguousarray(arr).tobytes())
    digest.update("\x00".join(lp.variable_names()).encode("utf-8"))
    digest.update("\x00".join(con.name for con in lp.constraints)
                  .encode("utf-8"))
    return digest.hexdigest()


class TestWarmColdEquivalence:
    """The cold path reproduces the journals both old paths produced."""

    def test_base_workload(self):
        instance, workload = build()
        assert journal_digest(instance, workload) == GOLDEN_JOURNALS["base"]

    def test_more_stations(self):
        instance, workload = build(num_stations=12)
        assert (journal_digest(instance, workload)
                == GOLDEN_JOURNALS["stations12"])

    def test_different_rate_support(self):
        instance, workload = build(rate_range=(9.0, 15.0))
        assert (journal_digest(instance, workload)
                == GOLDEN_JOURNALS["rate9to15"])


class TestLpPtGolden:
    def test_model_bytes_at_two_slot_set_sizes(self, small_instance,
                                               small_workload):
        waiting = {r.request_id: 5.0 * (i % 3)
                   for i, r in enumerate(small_workload)}
        for size, expected in GOLDEN_LP_PT.items():
            requests = small_workload[:size]
            assert lp_pt_digest(small_instance, requests, waiting) \
                == expected, f"|R_t| = {size}"
