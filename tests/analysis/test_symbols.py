"""Module-summary extraction: the file-local facts the whole-program
pass is built from."""

from repro.analysis.framework import module_from_source
from repro.analysis.symbols import (module_dotted_name, summarize_module,
                                    unit_family)


def summarize(source, relpath="repro/x/mod.py"):
    return summarize_module(module_from_source(source, relpath))


class TestModuleNaming:
    def test_dotted_name_strips_extension(self):
        assert module_dotted_name("repro/service/loop.py") \
            == "repro.service.loop"

    def test_package_init_maps_to_package(self):
        assert module_dotted_name("repro/service/__init__.py") \
            == "repro.service"


class TestUnitFamily:
    def test_mhz_and_mbps_suffixes(self):
        assert unit_family("demand_mhz") == "mhz"
        assert unit_family("uplink_mbps") == "mbps"
        assert unit_family("slot") is None


class TestImports:
    def test_plain_and_aliased_imports_resolve(self):
        summary = summarize(
            "import time\n"
            "import numpy as np\n"
            "from repro.sim import events\n"
            "from repro.sim.events import Event as Ev\n")
        assert summary.imports["time"] == "time"
        assert summary.imports["np"] == "numpy"
        assert summary.imports["events"] == "repro.sim.events"
        assert summary.imports["Ev"] == "repro.sim.events.Event"

    def test_relative_import_resolves_against_package(self):
        summary = summarize(
            "from .events import Event\n",
            relpath="repro/sim/timeline.py")
        assert summary.imports["Event"] == "repro.sim.events.Event"


class TestFunctionFacts:
    def test_calls_params_and_returns_are_recorded(self):
        summary = summarize(
            "import time\n"
            "def stamp():\n"
            "    return time.time()\n")
        fn = summary.functions["stamp"]
        assert [site.chain for site in fn.calls] == ["time.time"]
        # the returned expression is that call's value
        assert ("call", "0") in {tuple(o)
                                 for o in fn.return_origins}

    def test_origins_flow_through_local_assignment(self):
        summary = summarize(
            "def wrap(x):\n"
            "    y = x\n"
            "    z = (y, 1)\n"
            "    return z\n")
        fn = summary.functions["wrap"]
        assert ("param", "0") in {tuple(o)
                                  for o in fn.return_origins}

    def test_global_writes_rebind_and_mutate(self):
        summary = summarize(
            "_CACHE = {}\n"
            "_MODE = 'a'\n"
            "def poke(k):\n"
            "    global _MODE\n"
            "    _MODE = 'b'\n"
            "    _CACHE[k] = 1\n")
        fn = summary.functions["poke"]
        kinds = {(row[0], row[1]) for row in fn.global_writes}
        assert ("rebind", "_MODE") in kinds
        assert ("mutate", "_CACHE") in kinds
        assert summary.globals["_CACHE"] == "mutable"

    def test_local_shadow_is_not_a_global_write(self):
        summary = summarize(
            "_CACHE = {}\n"
            "def pure(k):\n"
            "    _CACHE = {}\n"
            "    _CACHE[k] = 1\n"
            "    return _CACHE\n")
        assert summary.functions["pure"].global_writes == []

    def test_self_attr_store_and_type_are_recorded(self):
        summary = summarize(
            "import threading\n"
            "class Engine:\n"
            "    def __init__(self, seed):\n"
            "        self._seed = seed\n"
            "        self._lock = threading.Lock()\n")
        fn = summary.functions["Engine.__init__"]
        assert any(row[0] == "_seed" for row in fn.attr_stores)
        assert ("_lock", "threading.Lock") in {
            (row[0], row[1]) for row in fn.attr_types}

    def test_pool_targets_detected(self):
        summary = summarize(
            "from concurrent.futures import ProcessPoolExecutor\n"
            "def work(x):\n"
            "    return x\n"
            "def main(xs):\n"
            "    with ProcessPoolExecutor() as pool:\n"
            "        pool.submit(work, xs[0])\n"
            "        return list(pool.map(work, xs))\n")
        assert "work" in summary.pool_targets

