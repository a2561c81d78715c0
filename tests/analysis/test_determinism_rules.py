"""Positive/negative fixtures for DET010's site check, DET002, and
DET003."""

from repro.analysis import analyze_source


def rules_hit(source, relpath="repro/sim/mod.py", select=None):
    return [f.rule for f in analyze_source(source, relpath,
                                           select=select)]


class TestDet001WallClock:
    """DET010's file-local site check (the wall-clock call itself)."""

    def test_time_time_flagged(self):
        source = (
            "import time\n"
            "def stamp():\n"
            "    return time.time()\n")
        assert rules_hit(source, select=["DET010"]) == ["DET010"]

    def test_perf_counter_from_import_flagged(self):
        source = (
            "from time import perf_counter\n"
            "def stamp():\n"
            "    return perf_counter()\n")
        assert rules_hit(source, select=["DET010"]) == ["DET010"]

    def test_datetime_now_flagged_both_import_forms(self):
        plain = (
            "import datetime\n"
            "def stamp():\n"
            "    return datetime.datetime.now()\n")
        from_form = (
            "from datetime import datetime\n"
            "def stamp():\n"
            "    return datetime.now()\n")
        assert rules_hit(plain, select=["DET010"]) == ["DET010"]
        assert rules_hit(from_form, select=["DET010"]) == ["DET010"]

    def test_negative_simulated_clock_ok(self):
        source = (
            "def advance(clock):\n"
            "    return clock.now_ms() + 50\n")
        assert rules_hit(source, select=["DET010"]) == []

    def test_allowlisted_tracer_module_ok(self):
        source = (
            "import time\n"
            "def stamp():\n"
            "    return time.perf_counter()\n")
        assert rules_hit(source, relpath="repro/telemetry/tracer.py",
                         select=["DET010"]) == []
        assert rules_hit(source, relpath="repro/telemetry/ledger.py",
                         select=["DET010"]) == []


class TestDet002GlobalRng:
    def test_stdlib_random_flagged(self):
        source = (
            "import random\n"
            "def draw():\n"
            "    return random.random()\n")
        assert rules_hit(source, select=["DET002"]) == ["DET002"]

    def test_stdlib_from_import_flagged(self):
        source = (
            "from random import shuffle\n"
            "def mix(items):\n"
            "    shuffle(items)\n")
        assert rules_hit(source, select=["DET002"]) == ["DET002"]

    def test_numpy_legacy_global_flagged(self):
        source = (
            "import numpy as np\n"
            "def seed_all(seed):\n"
            "    np.random.seed(seed)\n")
        assert rules_hit(source, select=["DET002"]) == ["DET002"]

    def test_unseeded_default_rng_flagged(self):
        source = (
            "import numpy as np\n"
            "def fresh():\n"
            "    return np.random.default_rng()\n")
        assert rules_hit(source, select=["DET002"]) == ["DET002"]

    def test_none_seed_default_rng_flagged(self):
        source = (
            "import numpy as np\n"
            "def fresh():\n"
            "    return np.random.default_rng(None)\n")
        assert rules_hit(source, select=["DET002"]) == ["DET002"]

    def test_none_seed_keyword_flagged(self):
        source = (
            "import numpy as np\n"
            "def fresh():\n"
            "    return np.random.default_rng(seed=None)\n")
        assert rules_hit(source, select=["DET002"]) == ["DET002"]

    def test_none_seed_sequence_flagged(self):
        source = (
            "from numpy.random import SeedSequence\n"
            "def fresh():\n"
            "    return SeedSequence(None)\n")
        assert rules_hit(source, select=["DET002"]) == ["DET002"]

    def test_keywords_without_seed_flagged(self):
        source = (
            "import numpy as np\n"
            "def fresh():\n"
            "    return np.random.SeedSequence(spawn_key=(1,))\n")
        assert rules_hit(source, select=["DET002"]) == ["DET002"]

    def test_positional_seed_with_keywords_ok(self):
        source = (
            "import numpy as np\n"
            "def fresh():\n"
            "    return np.random.SeedSequence(7, spawn_key=(1,))\n")
        assert rules_hit(source, select=["DET002"]) == []

    def test_double_star_keywords_ok(self):
        source = (
            "import numpy as np\n"
            "def fresh(options):\n"
            "    return np.random.default_rng(**options)\n")
        assert rules_hit(source, select=["DET002"]) == []

    def test_seed_sequence_argument_ok(self):
        source = (
            "import numpy as np\n"
            "def fresh(seq):\n"
            "    return np.random.default_rng(seq)\n")
        assert rules_hit(source, select=["DET002"]) == []

    def test_seeded_default_rng_ok(self):
        source = (
            "import numpy as np\n"
            "def fresh(seed):\n"
            "    return np.random.default_rng(seed)\n")
        assert rules_hit(source, select=["DET002"]) == []

    def test_generator_draw_ok(self):
        source = (
            "def draw(rng):\n"
            "    return rng.integers(10)\n")
        assert rules_hit(source, select=["DET002"]) == []

    def test_rng_module_allowlisted(self):
        source = (
            "import numpy as np\n"
            "def fresh():\n"
            "    return np.random.default_rng()\n")
        assert rules_hit(source, relpath="repro/rng.py",
                         select=["DET002"]) == []


class TestDet003UnorderedSerialization:
    def test_set_iteration_in_to_record_flagged(self):
        source = (
            "def to_record(stations):\n"
            "    return [s for s in set(stations)]\n")
        assert rules_hit(source, select=["DET003"]) == ["DET003"]

    def test_keys_iteration_in_export_flagged(self):
        source = (
            "def export_rows(table):\n"
            "    out = []\n"
            "    for key in table.keys():\n"
            "        out.append(key)\n"
            "    return out\n")
        assert rules_hit(source, select=["DET003"]) == ["DET003"]

    def test_sorted_wrapper_ok(self):
        source = (
            "def to_record(stations):\n"
            "    return [s for s in sorted(set(stations))]\n")
        assert rules_hit(source, select=["DET003"]) == []

    def test_non_serialization_context_ok(self):
        source = (
            "def total(stations):\n"
            "    return sum(1 for s in set(stations))\n")
        assert rules_hit(source, select=["DET003"]) == []

    def test_telemetry_module_is_always_a_context(self):
        source = (
            "def widen(stations):\n"
            "    return [s for s in set(stations)]\n")
        assert rules_hit(source, relpath="repro/telemetry/custom.py",
                         select=["DET003"]) == ["DET003"]
