"""Positive/negative fixtures for NUM001 and UNIT010's site check."""

from repro.analysis import analyze_source


def rules_hit(source, relpath="repro/core/mod.py", select=None):
    return [f.rule for f in analyze_source(source, relpath,
                                           select=select)]


class TestNum001FloatEquality:
    def test_float_literal_equality_flagged(self):
        source = (
            "def keep(coef):\n"
            "    return coef != 0.0\n")
        assert rules_hit(source, select=["NUM001"]) == ["NUM001"]

    def test_domain_name_pair_flagged(self):
        source = (
            "def same(total_reward, journaled_reward):\n"
            "    return total_reward == journaled_reward\n")
        assert rules_hit(source, select=["NUM001"]) == ["NUM001"]

    def test_negative_int_comparison_ok(self):
        source = (
            "def empty(count):\n"
            "    return count == 0\n")
        assert rules_hit(source, select=["NUM001"]) == []

    def test_negative_string_sense_ok(self):
        source = (
            "def is_le(sense):\n"
            "    return sense == '<='\n")
        assert rules_hit(source, select=["NUM001"]) == []

    def test_isclose_untouched(self):
        source = (
            "import math\n"
            "def same(total_reward, journaled_reward):\n"
            "    return math.isclose(total_reward, journaled_reward)\n")
        assert rules_hit(source, select=["NUM001"]) == []


class TestUnit001SuffixDiscipline:
    """UNIT010's file-local check (one expression at a time)."""

    def test_binop_mixing_flagged(self):
        source = (
            "def demand(capacity_mhz, rate_mbps):\n"
            "    return capacity_mhz - rate_mbps\n")
        assert rules_hit(source, select=["UNIT010"]) == ["UNIT010"]

    def test_comparison_mixing_flagged(self):
        source = (
            "def fits(capacity_mhz, rate_mbps):\n"
            "    return rate_mbps < capacity_mhz\n")
        assert rules_hit(source, select=["UNIT010"]) == ["UNIT010"]

    def test_direct_assignment_mismatch_flagged(self):
        source = (
            "def alias(rate_mbps):\n"
            "    demand_mhz = rate_mbps\n"
            "    return demand_mhz\n")
        assert rules_hit(source, select=["UNIT010"]) == ["UNIT010"]

    def test_same_family_arithmetic_ok(self):
        source = (
            "def headroom(capacity_mhz, reserved_mhz):\n"
            "    return capacity_mhz - reserved_mhz\n")
        assert rules_hit(source, select=["UNIT010"]) == []

    def test_converter_call_ok(self):
        source = (
            "from repro.units import demand_mhz\n"
            "def need(rate_mbps, c_unit):\n"
            "    return demand_mhz(rate_mbps, c_unit)\n")
        assert rules_hit(source, select=["UNIT010"]) == []

    def test_units_module_allowlisted(self):
        source = (
            "def mbps_to_mhz(rate_mbps, factor_mhz):\n"
            "    return rate_mbps * factor_mhz\n")
        assert rules_hit(source, relpath="repro/units.py",
                         select=["UNIT010"]) == []
