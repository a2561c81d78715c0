"""Positive/negative fixtures for the five whole-program rules."""

from repro.analysis import run_analysis


def scan(tmp_path, files, select):
    for relpath, source in files.items():
        target = tmp_path / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source, encoding="utf-8")
    return run_analysis([tmp_path], select=select).findings


def split_det010(findings):
    """DET010 findings as (site (path, line) pairs, flow findings)."""
    sites = [(f.path, f.line) for f in findings
             if f.message.startswith("wall-clock call")]
    flows = [f for f in findings if "flows into" in f.message]
    assert len(sites) + len(flows) == len(findings)
    return sites, flows


class TestDet010:
    def test_two_hop_taint_into_event_payload(self, tmp_path):
        findings = scan(tmp_path, {"repro/a.py": (
            "import time\n"
            "class Event:\n"
            "    pass\n"
            "def _stamp():\n"
            "    return time.time()\n"
            "def _enrich(slot):\n"
            "    return (_stamp(), slot)\n"
            "def emit(slot):\n"
            "    return Event(value=_enrich(slot))\n")},
            ["DET010"])
        sites, flows = split_det010(findings)
        assert sites == [("repro/a.py", 5)]
        assert len(flows) == 1
        assert flows[0].line == 9
        assert "time.time()" in flows[0].message
        assert "_stamp" in flows[0].message

    def test_cross_module_taint_into_checkpoint(self, tmp_path):
        findings = scan(tmp_path, {
            "repro/clock.py": (
                "import time\n"
                "def wall_s():\n"
                "    return time.time()\n"),
            "repro/ckpt.py": (
                "from repro.clock import wall_s\n"
                "class ServiceCheckpoint:\n"
                "    pass\n"
                "def snapshot(slot):\n"
                "    return ServiceCheckpoint(slot=slot,"
                " at=wall_s())\n")},
            ["DET010"])
        sites, flows = split_det010(findings)
        assert sites == [("repro/clock.py", 3)]
        assert [f.path for f in flows] == ["repro/ckpt.py"]

    def test_journal_record_is_a_sink(self, tmp_path):
        findings = scan(tmp_path, {"repro/a.py": (
            "import time\n"
            "def log(journal, slot):\n"
            "    journal.record((slot, time.time()))\n")},
            ["DET010"])
        sites, flows = split_det010(findings)
        assert sites == [("repro/a.py", 3)]
        assert len(flows) == 1
        assert "record" in flows[0].message

    def test_clean_payload_is_negative(self, tmp_path):
        findings = scan(tmp_path, {"repro/a.py": (
            "class Event:\n"
            "    pass\n"
            "def emit(slot, reward):\n"
            "    return Event(slot=slot, reward=reward)\n")},
            ["DET010"])
        assert findings == []

    def test_sanitizer_module_launders_taint(self, tmp_path):
        # wall_s lives in the metrics registry: calls into it return
        # clean values by declaration, but metrics.py is a flow
        # sanitizer only - its own clock call is still flagged.
        findings = scan(tmp_path, {
            "repro/telemetry/metrics.py": (
                "import time\n"
                "def wall_s():\n"
                "    return time.time()\n"),
            "repro/a.py": (
                "from repro.telemetry.metrics import wall_s\n"
                "class Event:\n"
                "    pass\n"
                "def emit(slot):\n"
                "    return Event(at=wall_s())\n")},
            ["DET010"])
        assert split_det010(findings) == (
            [("repro/telemetry/metrics.py", 3)], [])

    def test_policy_record_is_not_a_sink(self, tmp_path):
        # bandit policies expose .record(arm, reward); only journal
        # receivers are serialization sinks.
        findings = scan(tmp_path, {"repro/a.py": (
            "import time\n"
            "def learn(policy, arm):\n"
            "    policy.record(arm, time.time())\n")},
            ["DET010"])
        assert split_det010(findings) == ([("repro/a.py", 3)], [])


class TestConc001:
    POSITIVE = {"repro/run.py": (
        "from concurrent.futures import ProcessPoolExecutor\n"
        "_MEMO = {}\n"
        "def _remember(spec):\n"
        "    _MEMO[spec] = 1\n"
        "def execute_run(spec):\n"
        "    _remember(spec)\n"
        "    return spec\n"
        "def main(specs):\n"
        "    with ProcessPoolExecutor() as pool:\n"
        "        return list(pool.map(execute_run, specs))\n")}

    def test_global_mutation_behind_helper_is_caught(self, tmp_path):
        findings = scan(tmp_path, self.POSITIVE, ["CONC001"])
        assert len(findings) == 1
        assert "_MEMO" in findings[0].message
        assert "execute_run -> _remember" in findings[0].message

    def test_unreachable_writer_is_negative(self, tmp_path):
        findings = scan(tmp_path, {"repro/run.py": (
            "from concurrent.futures import ProcessPoolExecutor\n"
            "_MEMO = {}\n"
            "def offline(spec):\n"
            "    _MEMO[spec] = 1\n"
            "def execute_run(spec):\n"
            "    return spec\n"
            "def main(specs):\n"
            "    with ProcessPoolExecutor() as pool:\n"
            "        return list(pool.map(execute_run, specs))\n")},
            ["CONC001"])
        assert findings == []

    def test_local_shadow_is_negative(self, tmp_path):
        findings = scan(tmp_path, {"repro/run.py": (
            "from concurrent.futures import ProcessPoolExecutor\n"
            "def execute_run(spec):\n"
            "    memo = {}\n"
            "    memo[spec] = 1\n"
            "    return memo\n"
            "def main(specs):\n"
            "    with ProcessPoolExecutor() as pool:\n"
            "        return list(pool.map(execute_run, specs))\n")},
            ["CONC001"])
        assert findings == []

    def test_blessed_current_idiom_is_exempt(self, tmp_path):
        findings = scan(tmp_path, {
            "repro/telemetry/tracer.py": (
                "_current = None\n"
                "def set_tracer(tracer):\n"
                "    global _current\n"
                "    _current = tracer\n"),
            "repro/run.py": (
                "from concurrent.futures import"
                " ProcessPoolExecutor\n"
                "from repro.telemetry.tracer import set_tracer\n"
                "def execute_run(spec):\n"
                "    set_tracer(spec)\n"
                "    return spec\n"
                "def main(specs):\n"
                "    with ProcessPoolExecutor() as pool:\n"
                "        return list(pool.map(execute_run,"
                " specs))\n")},
            ["CONC001"])
        assert findings == []

    def test_contextvar_write_is_exempt(self, tmp_path):
        findings = scan(tmp_path, {"repro/run.py": (
            "import contextvars\n"
            "from concurrent.futures import ProcessPoolExecutor\n"
            "_slot = contextvars.ContextVar('slot')\n"
            "def execute_run(spec):\n"
            "    _slot = 3\n"
            "    return spec\n"
            "def main(specs):\n"
            "    with ProcessPoolExecutor() as pool:\n"
            "        return list(pool.map(execute_run, specs))\n")},
            ["CONC001"])
        assert findings == []

    def test_service_tick_is_an_entry_point(self, tmp_path):
        findings = scan(tmp_path, {"repro/service/loop.py": (
            "_SEEN = {}\n"
            "class AdmissionService:\n"
            "    def tick(self, slot):\n"
            "        _SEEN[slot] = True\n"
            "        return slot\n")},
            ["CONC001"])
        assert len(findings) == 1
        assert "_SEEN" in findings[0].message


class TestConc002:
    def test_blocking_call_behind_helper_is_caught(self, tmp_path):
        findings = scan(tmp_path, {"repro/srv.py": (
            "import time\n"
            "def _poll():\n"
            "    time.sleep(0.1)\n"
            "async def serve():\n"
            "    _poll()\n")},
            ["CONC002"])
        assert len(findings) == 1
        assert "time.sleep" in findings[0].message
        assert "serve -> _poll" in findings[0].message

    def test_direct_blocking_call_anchors_at_site(self, tmp_path):
        findings = scan(tmp_path, {"repro/srv.py": (
            "import time\n"
            "async def serve():\n"
            "    time.sleep(0.1)\n")},
            ["CONC002"])
        assert len(findings) == 1
        assert findings[0].line == 3

    def test_sync_only_blocking_is_negative(self, tmp_path):
        findings = scan(tmp_path, {"repro/srv.py": (
            "import time\n"
            "def watch():\n"
            "    time.sleep(0.1)\n"
            "async def serve(n):\n"
            "    return n\n")},
            ["CONC002"])
        assert findings == []

    def test_executor_hop_is_exempt(self, tmp_path):
        # the blocking function is passed by reference, not called.
        findings = scan(tmp_path, {"repro/srv.py": (
            "import asyncio\n"
            "import time\n"
            "def _poll():\n"
            "    time.sleep(0.1)\n"
            "async def serve():\n"
            "    loop = asyncio.get_running_loop()\n"
            "    await loop.run_in_executor(None, _poll)\n")},
            ["CONC002"])
        assert findings == []


class TestPkl010:
    def test_lock_two_hops_inside_payload_is_caught(self, tmp_path):
        findings = scan(tmp_path, {"repro/a.py": (
            "import threading\n"
            "class Inner:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "class Engine:\n"
            "    def __init__(self):\n"
            "        self._inner = Inner()\n"
            "class RunSpec:\n"
            "    pass\n"
            "def make(engine: Engine):\n"
            "    return RunSpec(engine=engine)\n")},
            ["PKL010"])
        assert len(findings) == 1
        assert "threading.Lock" in findings[0].message
        assert "Inner._lock" in findings[0].message

    def test_lambda_attr_in_closure_is_caught(self, tmp_path):
        findings = scan(tmp_path, {"repro/a.py": (
            "class Engine:\n"
            "    def __init__(self):\n"
            "        self._fn = lambda x: x\n"
            "class ServiceCheckpoint:\n"
            "    pass\n"
            "def snap(engine: Engine):\n"
            "    return ServiceCheckpoint(engine=engine)\n")},
            ["PKL010"])
        assert len(findings) == 1
        assert "lambda" in findings[0].message

    def test_plain_data_closure_is_negative(self, tmp_path):
        findings = scan(tmp_path, {"repro/a.py": (
            "class Engine:\n"
            "    def __init__(self, seed):\n"
            "        self._seed = seed\n"
            "        self._slots = []\n"
            "class RunSpec:\n"
            "    pass\n"
            "def make(engine: Engine):\n"
            "    return RunSpec(engine=engine)\n")},
            ["PKL010"])
        assert findings == []

    def test_lock_outside_payload_closure_is_negative(self, tmp_path):
        findings = scan(tmp_path, {"repro/a.py": (
            "import threading\n"
            "class Pool:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "class RunSpec:\n"
            "    pass\n"
            "def make(seed):\n"
            "    return RunSpec(seed=seed)\n")},
            ["PKL010"])
        assert findings == []

    def test_annotated_field_pulls_class_into_closure(self, tmp_path):
        findings = scan(tmp_path, {"repro/a.py": (
            "import threading\n"
            "class Engine:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.RLock()\n"
            "class RunSpec:\n"
            "    engine: Engine\n")},
            ["PKL010"])
        assert len(findings) == 1
        assert "threading.RLock" in findings[0].message


class TestUnit010:
    def test_mismatched_family_across_modules(self, tmp_path):
        findings = scan(tmp_path, {
            "repro/caps.py": (
                "def capacity_mhz():\n"
                "    return 1200.0\n"),
            "repro/admit.py": (
                "from repro.caps import capacity_mhz\n"
                "def admit(demand_mbps):\n"
                "    return demand_mbps\n"
                "def go():\n"
                "    return admit(capacity_mhz())\n")},
            ["UNIT010"])
        assert len(findings) == 1
        assert "demand_mbps" in findings[0].message
        assert "mhz" in findings[0].message

    def test_matching_family_is_negative(self, tmp_path):
        findings = scan(tmp_path, {"repro/a.py": (
            "def capacity_mhz():\n"
            "    return 1200.0\n"
            "def admit(demand_mhz):\n"
            "    return demand_mhz\n"
            "def go():\n"
            "    return admit(capacity_mhz())\n")},
            ["UNIT010"])
        assert findings == []

    def test_units_converter_is_the_blessed_crossing(self, tmp_path):
        findings = scan(tmp_path, {
            "repro/units.py": (
                "def rate_mbps(value_mhz, factor):\n"
                "    return value_mhz * factor\n"),
            "repro/a.py": (
                "from repro.units import rate_mbps\n"
                "def capacity_mhz():\n"
                "    return 1200.0\n"
                "def admit(demand_mbps):\n"
                "    return demand_mbps\n"
                "def go():\n"
                "    return admit(rate_mbps(capacity_mhz(),"
                " 2.0))\n")},
            ["UNIT010"])
        assert findings == []

    def test_mismatched_assignment_from_return(self, tmp_path):
        findings = scan(tmp_path, {"repro/a.py": (
            "def capacity_mhz():\n"
            "    return 1200.0\n"
            "def use():\n"
            "    rate_mbps = capacity_mhz()\n"
            "    return rate_mbps\n")},
            ["UNIT010"])
        assert len(findings) == 1
        assert "mbps" in findings[0].message

    def test_keyword_argument_mismatch(self, tmp_path):
        findings = scan(tmp_path, {"repro/a.py": (
            "def admit(demand_mhz):\n"
            "    return demand_mhz\n"
            "def go(uplink_mbps):\n"
            "    return admit(demand_mhz=uplink_mbps)\n")},
            ["UNIT010"])
        assert len(findings) == 1
