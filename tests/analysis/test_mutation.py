"""Whole-program mutation tests against the *real* tree.

Copy the shipped sources into a fixture tree, seed exactly one
violation, and verify the analysis pass catches it.  These are the
acceptance tests for DET010 (a wall-clock read two call-hops upstream
of an emitted event's payload), CONC001 (a module-level dict written
from a worker-reachable helper), and PKL010 (a lambda passed into the
service's ServiceCheckpoint).
"""

import shutil
from pathlib import Path

from repro.analysis import run_analysis

REPO_SRC = Path(__file__).resolve().parents[2] / "src"

DET010_HELPERS = '''    def _stamp_now(self) -> float:
        return time.time()

    def _enrich_detail(self, slot: int) -> tuple:
        return (self._stamp_now(), slot)

'''

CONC001_HELPERS = '''_RESULT_MEMO: dict = {}


def _memoize_result(spec, result):
    _RESULT_MEMO[id(spec)] = result
    return result


'''


def copy_tree(tmp_path):
    root = tmp_path / "tree"
    shutil.copytree(REPO_SRC / "repro", root / "repro")
    return root


def seed_det010(root):
    """time.time() two call-hops upstream of a journaled event's
    payload (the CHECKPOINT emission of the service loop)."""
    target = root / "repro" / "service" / "loop.py"
    text = target.read_text(encoding="utf-8")
    anchor = "    def tick(self"
    assert anchor in text
    text = text.replace(anchor, DET010_HELPERS + anchor, 1)
    old = "        emit(EventKind.CHECKPOINT, slot)"
    assert old in text
    new = ("        emit(EventKind.CHECKPOINT, slot,\n"
           "             detail=self._enrich_detail(slot))")
    target.write_text(text.replace(old, new, 1), encoding="utf-8")


def seed_conc001(root):
    """Module-level dict written from a worker-reachable helper."""
    target = root / "repro" / "experiments" / "executor.py"
    text = target.read_text(encoding="utf-8")
    anchor = "def execute_run("
    assert anchor in text
    text = text.replace(anchor, CONC001_HELPERS + anchor, 1)
    marker = text.index(anchor)
    body_at = text.index("\n", text.index(":", marker)) + 1
    text = text[:body_at] + "    _memoize_result(None, None)\n" \
        + text[body_at:]
    target.write_text(text, encoding="utf-8")


def seed_pkl010(root):
    """A lambda passed straight into the checkpoint constructor."""
    target = root / "repro" / "service" / "loop.py"
    text = target.read_text(encoding="utf-8")
    old = "            config=self.config,\n"
    assert text.count(old) == 1
    target.write_text(text.replace(
        old, "            config=lambda: self.config,\n"),
        encoding="utf-8")


def findings_for(root, select):
    return run_analysis([root], select=select).findings


class TestCleanTree:
    def test_copied_tree_is_clean(self, tmp_path):
        root = copy_tree(tmp_path)
        assert findings_for(
            root, ["DET010", "CONC001", "CONC002", "PKL010",
                   "UNIT010"]) == []


class TestDet010Mutation:
    def test_strict_mode_catches_two_hop_clock_leak(self, tmp_path):
        root = copy_tree(tmp_path)
        seed_det010(root)
        findings = findings_for(root, ["DET010"])
        assert findings, "seeded clock leak not caught"
        assert all(f.rule == "DET010" for f in findings)
        assert any("time.time()" in f.message
                   and "_enrich_detail" in f.message
                   for f in findings)
        assert all(f.path.endswith("service/loop.py")
                   for f in findings)


class TestConc001Mutation:
    def test_strict_mode_catches_worker_global_write(self, tmp_path):
        root = copy_tree(tmp_path)
        seed_conc001(root)
        findings = findings_for(root, ["CONC001"])
        assert len(findings) == 1
        assert "_RESULT_MEMO" in findings[0].message
        assert "execute_run -> _memoize_result" \
            in findings[0].message
        assert findings[0].path.endswith("experiments/executor.py")


class TestPkl010Mutation:
    def test_lambda_in_service_checkpoint_caught(self, tmp_path):
        root = copy_tree(tmp_path)
        seed_pkl010(root)
        findings = findings_for(root, ["PKL010"])
        assert len(findings) == 1
        assert "ServiceCheckpoint" in findings[0].message
        assert findings[0].path.endswith("service/loop.py")
