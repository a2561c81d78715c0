"""Smoke tests: the example scripts must stay runnable.

Only the fast examples run here (the others exercise the same APIs at
larger scale); each runs in a subprocess exactly as a user would run
it.
"""

import subprocess
import sys
from pathlib import Path


EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, *args: str) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True, text=True, timeout=300, check=True)
    return result.stdout


class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py", "3")
        assert "MEC network: 20 base stations" in out
        assert "Appro" in out and "Heu" in out
        assert "HeuKKT" in out

    def test_ar_campus(self):
        out = run_example("ar_campus.py", "3")
        assert "Historical DR estimate" in out
        assert "Per-station placements" in out
        assert "total reward" in out

    def test_failure_injection(self):
        out = run_example("failure_injection.py", "3")
        assert "Outage: stations (0, 1, 2) down" in out
        assert "Reward lost to the outage" in out
        assert "Requests started on dead stations during the outage: 0" \
            in out
        assert "'station_down': 3" in out

    def test_online_adaptation(self):
        out = run_example("online_adaptation.py", "3")
        assert "DynamicRR" in out and "HeuKKT" in out
        assert "Threshold bandit state after the run" in out
        assert "Exploitation choice: C^th" in out

    def test_cli_module(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro.experiments", "--figures",
             "3", "--scale", "bench"],
            capture_output=True, text=True, timeout=300, check=True)
        assert "Figure 3 (a): total_reward" in result.stdout
        assert "Appro" in result.stdout
