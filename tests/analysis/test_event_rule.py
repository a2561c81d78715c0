"""Event-kind wiring, checked on the real modules.

Each :class:`~repro.sim.events.EventKind` member declares its glyph and
audit role in its :class:`~repro.sim.events.EventSpec`, so the strip
chart (``timeline.py``) and the invariant monitor (``audit.py``) read
them from the kind itself instead of keeping their own tables.  These
tests check that every kind reaches both consumers, and that the
analysis pass stays silent on the three modules, whole or partial.
"""

from pathlib import Path

import repro.sim.events
import repro.sim.timeline
import repro.telemetry.audit
from repro.analysis import run_analysis
from repro.sim.events import Event, EventKind
from repro.sim.timeline import strip_chart
from repro.telemetry.audit import _roles

_REAL = {
    "repro/sim/events.py": Path(repro.sim.events.__file__),
    "repro/sim/timeline.py": Path(repro.sim.timeline.__file__),
    "repro/telemetry/audit.py": Path(repro.telemetry.audit.__file__),
}


def copy_tree(tmp_path, skip=()):
    """Copy the real modules into ``tmp_path``."""
    for relpath, source in _REAL.items():
        if relpath in skip:
            continue
        target = tmp_path / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source.read_text(encoding="utf-8"),
                          encoding="utf-8")
    return tmp_path


class TestEvt001:
    def test_real_tree_is_fully_wired(self, tmp_path):
        legend = strip_chart([], horizon_slots=1).splitlines()[1]
        roles = _roles()
        for kind in EventKind:
            chart = strip_chart([Event(slot=0, kind=kind)],
                                horizon_slots=1, width=1)
            assert chart.splitlines()[0] == kind.spec.glyph, kind
            assert f"{kind.spec.glyph}={kind.value}" in legend.split()
            assert roles[kind.value] == kind.spec.role.value
        assert set(roles) == {kind.value for kind in EventKind}
        assert run_analysis([copy_tree(tmp_path)]).findings == []

    def test_incomplete_fixture_tree_is_silent(self, tmp_path):
        root = copy_tree(tmp_path, skip=("repro/telemetry/audit.py",))
        assert run_analysis([root]).findings == []
