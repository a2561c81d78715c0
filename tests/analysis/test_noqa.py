"""``# repro: noqa`` suppression semantics."""

import pytest

from repro.analysis import analyze_source
from repro.analysis.framework import module_from_source, parse_noqa
from repro.exceptions import ConfigurationError

VIOLATION = (
    "import time\n"
    "def stamp():\n"
    "    return time.time(){pragma}\n")


def det010(source):
    return [f.rule for f in analyze_source(source, "repro/x/mod.py",
                                           select=["DET010"])]


class TestNoqaSuppression:
    def test_matching_code_suppresses(self):
        source = VIOLATION.format(
            pragma="  # repro: noqa DET010")
        assert det010(source) == []

    def test_justification_text_allowed(self):
        source = VIOLATION.format(
            pragma="  # repro: noqa DET010 -- advisory metric")
        assert det010(source) == []

    def test_bare_noqa_suppresses_everything(self):
        source = VIOLATION.format(pragma="  # repro: noqa")
        assert det010(source) == []

    def test_wrong_code_does_not_suppress(self):
        source = VIOLATION.format(
            pragma="  # repro: noqa NUM001")
        assert det010(source) == ["DET010"]

    def test_pragma_on_other_line_does_not_suppress(self):
        source = ("import time  # repro: noqa DET010\n"
                  "def stamp():\n"
                  "    return time.time()\n")
        assert det010(source) == ["DET010"]

    def test_plain_flake8_noqa_is_not_ours(self):
        source = VIOLATION.format(pragma="  # noqa")
        assert det010(source) == ["DET010"]

    def test_multiple_codes(self):
        source = VIOLATION.format(
            pragma="  # repro: noqa NUM001, DET010")
        assert det010(source) == []

    def test_suppression_is_counted(self):
        from repro.analysis.framework import (resolve_rules,
                                              run_rules)
        module = module_from_source(
            VIOLATION.format(pragma="  # repro: noqa DET010"),
            "repro/x/mod.py")
        report = run_rules([module], resolve_rules(["DET010"]))
        assert report.findings == []
        assert report.suppressed == 1

    def test_four_letter_code_suppresses_only_itself(self):
        # UNIT010 and NUM001 both fire on this comparison; naming
        # UNIT010 must not widen into a bare noqa.
        source = ("def fits(capacity_mhz, rate_mbps):\n"
                  "    return capacity_mhz == rate_mbps"
                  "  # repro: noqa UNIT010 -- why\n")
        rules = [f.rule for f in analyze_source(
            source, "repro/x/mod.py", select=["UNIT010", "NUM001"])]
        assert rules == ["NUM001"]

    def test_unknown_code_is_an_error(self):
        source = VIOLATION.format(pragma="  # repro: noqa DET01O")
        with pytest.raises(ConfigurationError,
                           match=r"repro/x/mod.py:3: .*DET01O"):
            det010(source)

    def test_parse_noqa_table(self):
        lines = [
            "x = 1",
            "y = 2  # repro: noqa",
            "z = 3  # repro: noqa DET010,NUM001 -- why",
            "w = 4  # repro: noqa UNIT010 -- why",
            "v = 5  # repro: noqa CONC001, PKL010",
        ]
        table = parse_noqa(lines)
        assert 1 not in table
        assert table[2] == {"*"}
        assert table[3] == {"DET010", "NUM001"}
        assert table[4] == {"UNIT010"}
        assert table[5] == {"CONC001", "PKL010"}


class TestCommentsOnly:
    """Pragmas are read from comment tokens, never from strings."""

    def test_docstring_pragma_waives_nothing(self):
        source = ("import time\n"
                  "def stamp():\n"
                  '    return time.time(), """# repro: noqa DET010"""\n')
        assert det010(source) == ["DET010"]

    def test_string_pragma_waives_nothing(self):
        source = VIOLATION.format(pragma=', "# repro: noqa"')
        assert det010(source) == ["DET010"]

    def test_comment_pragma_after_string_still_waives(self):
        source = VIOLATION.format(
            pragma=', "# repro: noqa NUM001"  # repro: noqa DET010')
        assert det010(source) == []

    def test_docstring_naming_retired_id_is_not_an_error(self):
        source = ('"""Write ``# repro: noqa DET001`` to waive."""\n'
                  + VIOLATION.format(pragma=""))
        assert det010(source) == ["DET010"]

    def test_parse_noqa_skips_docstring_lines(self):
        lines = [
            'def f():',
            '    """Example::',
            '',
            '        x = 1  # repro: noqa DET010',
            '    """',
            '    return 1  # repro: noqa NUM001',
        ]
        assert parse_noqa(lines) == {6: {"NUM001"}}
