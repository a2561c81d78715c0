"""The package loads only what a path runs.

networkx is a test-only dependency (the A/B oracle of
``tests/network/test_topology_ab.py``); the topology and its shortest
paths run on ``scipy.sparse.csgraph``.  The asyncio, HTTP and TLS
stacks, multiprocessing and the profilers load only on the paths that
use them: the scrape endpoint and ``serve()``, the ops console, a
``--workers`` pool, ``--profile``/``--profile-mem``.  A fresh
interpreter imports the entry packages, builds an instance, ticks a
service and runs a serial ``execute_run``, then reports which of those
modules ended up in ``sys.modules``.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: Modules no tick and no serial run may load (each with its
#: submodules).
UNUSED_ON_THE_TICK_PATH = (
    "networkx", "asyncio", "ssl", "urllib.request", "http.client",
    "multiprocessing", "concurrent.futures.process", "cProfile",
    "tracemalloc")

PROBE = """
import sys
import repro
import repro.experiments
import repro.service
from repro.config import SimulationConfig
from repro.core.heu import Heu
from repro.core.instance import ProblemInstance
from repro.experiments.executor import OFFLINE, RunSpec, execute_run
from repro.service.loadgen import build_config
from repro.service.loop import AdmissionService
from repro.telemetry.metrics import MetricsRegistry
instance = ProblemInstance.build(SimulationConfig(), seed=0)
assert instance.paths.one_way_delay_ms(0, 1) > 0
service = AdmissionService(build_config(5000, 64.0, queue_limit=64),
                           registry=MetricsRegistry())
while not service.done:
    service.tick()
service.close()
assert service.counters["slots"] > 64
record = execute_run(RunSpec(mode=OFFLINE, factory=Heu, x=20.0, seed=0,
                             config=SimulationConfig(seed=0),
                             num_requests=20))
assert record.metrics["num_admitted"] > 0
names = {NAMES}
print(sorted(name for name in sys.modules
             if any(name == n or name.startswith(n + ".") for n in names)))
""".replace("{NAMES}", repr(UNUSED_ON_THE_TICK_PATH))


def run_probe(source):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, "-c", source], env=env,
                          capture_output=True, text=True, timeout=300,
                          check=True).stdout.strip()


def test_tick_and_serial_run_load_only_what_they_use():
    assert run_probe(PROBE) == "[]"


def test_lazy_exports_still_resolve():
    source = ("from repro.service import MetricsEndpoint, run_loadgen, "
              "fetch_status\n"
              "import repro.service as service\n"
              "assert MetricsEndpoint.__module__ == 'repro.service.http'\n"
              "print([getattr(service, name).__name__ for name in "
              "('run_loadgen', 'fetch_status', 'AdmissionService')])\n")
    assert run_probe(source) == \
        "['run_loadgen', 'fetch_status', 'AdmissionService']"
