"""Golden digests pin every Eq. (1)-(2) consumer's output bytes.

The latency model once kept a scalar per-station path beside its
vectorized delay rows, and every online baseline tested the deadline one
station at a time.  The digests below were recorded from that design;
the single kernel and its deadline predicate must reproduce them
exactly.  Online: the JSONL journal of two short runs per baseline
policy - the default 40-slot streams, where the deadline mostly decides
drops, and short streams on short slots, where queued requests are
placed after waiting.  Offline: the decision records of the Fig. 3
comparison set plus Random on one small default-config workload, hashed
through ``repr`` so a stray ``np.float64`` or ``np.bool_`` changes them.
"""

import hashlib
import json

import pytest

from repro.baselines import (GreedyOffline, GreedyOnline, HeuKktOffline,
                             HeuKktOnline, OcorpOffline, OcorpOnline,
                             RandomOffline, RandomOnline)
from repro.config import (NetworkConfig, OnlineConfig, RequestConfig,
                          SimulationConfig)
from repro.core.appro import Appro
from repro.core.heu import Heu
from repro.core.instance import ProblemInstance
from repro.experiments.settings import base_config
from repro.sim.engine import run_offline
from repro.sim.online_engine import OnlineEngine
from repro.telemetry import Journal, use_journal

#: sha256 of the JSONL journal of one online run per (policy, load).
GOLDEN_JOURNALS = {
    ("Greedy", "base"):
        "3004da7e2f65257cfbcecab034d4e11e1ed9a2a66991863a0ffc5464c9f56f35",
    ("OCORP", "base"):
        "e2bdd21c8d25a5a8d313e2a14142aff506354c5f9cc168dc65c359adea5b6930",
    ("HeuKKT", "base"):
        "c8a3c8134f5df14f9f8da2b535b3bb81742ef3969b34887bd1767169c104c9f3",
    ("Random", "base"):
        "20f46a19e826021efe8b9cd1b2cc267f950a57c1a475035970cbfcd78bed7da6",
    ("Greedy", "queued"):
        "f3b2590122561304050af87ed5bef33a9fd76d4e8d88ff53cbf97bfbdd140e67",
    ("OCORP", "queued"):
        "61ce3d2a0f72ed84fe2d8f933e8ccdd2cd238bdbdb6cf456e15e8ceba2797b8a",
    ("HeuKKT", "queued"):
        "da2ef96d2463c207276a6fbc4d0a4c6be21ca11f60d101bd9aae2018163254ef",
    ("Random", "queued"):
        "d45896520031b8b352bcdf8436cb6037f8be472874a6b6a33da8f0e7d14b3c1a",
}

#: Online loads: (requests, stream slots, deadline ms, slot length ms).
LOADS = {
    "base": (60, 40, 200.0, 50.0),
    "queued": (200, 3, 300.0, 20.0),
}

#: sha256 of the ``repr`` of one offline run's decisions, by algorithm.
GOLDEN_DECISIONS = {
    "Appro": (
        "1868d3727a40839b237e131c88296ab060e01c54edc1d2cf1c8cd1ad3d22891f"),
    "Heu": (
        "38c77d601b83934cead917f9b0410baf8e637726d27c2d74f1e60c010571a71a"),
    "Greedy": (
        "2b87ca4263bfd303b34273372f2bcef28139c31945e3cc19ed22a4194de2f6e6"),
    "OCORP": (
        "cfea7fa9121a08f5e2f937e1a5327ddb83e9eed019fcb8def6fa30a654139423"),
    "HeuKKT": (
        "e96c78c3cd506ae0e845543613d7c7b9b89589339d59044c1e79297bb2739621"),
    "Random": (
        "b4014c61b91294fd53b794ae6987f84432be794ee33aae259201d432948b58c0"),
}

ONLINE_POLICIES = {
    "Greedy": GreedyOnline,
    "OCORP": OcorpOnline,
    "HeuKKT": HeuKktOnline,
    "Random": lambda: RandomOnline(rng=7),
}

OFFLINE_ALGORITHMS = {
    "Appro": Appro,
    "Heu": Heu,
    "Greedy": GreedyOffline,
    "OCORP": OcorpOffline,
    "HeuKKT": HeuKktOffline,
    "Random": lambda: RandomOffline(rng=7),
}


def journal_digest(make_policy, load, seed=1234, horizon=30):
    """sha256 of one online run's journal (``write_jsonl`` bytes)."""
    num_requests, stream_slots, deadline_ms, slot_length_ms = LOADS[load]
    config = SimulationConfig(
        network=NetworkConfig(num_base_stations=8),
        requests=RequestConfig(num_requests=num_requests,
                               stream_duration_slots=stream_slots,
                               deadline_ms=deadline_ms),
        online=OnlineConfig(horizon_slots=horizon),
        seed=seed,
    ).validate()
    instance = ProblemInstance.build(config, seed=seed)
    workload = instance.new_workload(num_requests=num_requests, seed=seed,
                                     horizon_slots=horizon)
    journal = Journal()
    with use_journal(journal):
        OnlineEngine(instance, workload, horizon_slots=horizon,
                     slot_length_ms=slot_length_ms,
                     rng=7).run(make_policy())
    text = "".join(json.dumps(event, sort_keys=True) + "\n"
                   for event in journal.events())
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def decisions_digest(make_algorithm, seed=3, num_requests=60):
    """sha256 of one Fig. 3 style offline run's decision records."""
    instance = ProblemInstance.build(base_config(seed), seed=seed)
    workload = instance.new_workload(num_requests=num_requests, seed=seed)
    result = run_offline(make_algorithm(), instance, workload, seed=seed)
    decisions = result.decisions
    text = repr([decisions[rid] for rid in sorted(decisions)])
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("load", sorted(LOADS))
@pytest.mark.parametrize("name", sorted(ONLINE_POLICIES))
def test_online_journal_golden(name, load):
    assert (journal_digest(ONLINE_POLICIES[name], load)
            == GOLDEN_JOURNALS[(name, load)])


@pytest.mark.parametrize("name", sorted(OFFLINE_ALGORITHMS))
def test_offline_decisions_golden(name):
    assert (decisions_digest(OFFLINE_ALGORITHMS[name])
            == GOLDEN_DECISIONS[name])
