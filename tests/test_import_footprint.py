"""The package never loads networkx.

networkx is a test-only dependency (the A/B oracle of
``tests/network/test_topology_ab.py``); the topology and its shortest
paths run on ``scipy.sparse.csgraph``.  A fresh interpreter imports the
entry packages and builds an instance, then reports whether networkx
ended up in ``sys.modules``.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import sys
import repro
import repro.experiments
import repro.service
from repro.config import SimulationConfig
from repro.core.instance import ProblemInstance
instance = ProblemInstance.build(SimulationConfig(), seed=0)
assert instance.paths.one_way_delay_ms(0, 1) > 0
print(sorted(name for name in sys.modules
             if name == "networkx" or name.startswith("networkx.")))
"""


def test_entry_packages_do_not_import_networkx():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    result = subprocess.run([sys.executable, "-c", PROBE], env=env,
                            capture_output=True, text=True, timeout=300,
                            check=True)
    assert result.stdout.strip() == "[]"
