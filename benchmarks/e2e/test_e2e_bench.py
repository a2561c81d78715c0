"""Tests of the end-to-end benchmark itself.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.single_threaded_env()
run.add_source_path()

import layers  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parents[1]


@pytest.fixture(scope="module")
def units(tmp_path_factory):
    """Per workload: untraced samples, traced samples and the recorder
    of the units that hold its first two ops (seed 0, and seed 1 where a
    unit is a single op)."""
    scratch = str(tmp_path_factory.mktemp("scratch"))
    expected = run.load_expected()
    out = {}
    for name, workload in workloads.WORKLOADS.items():
        recorder = layers.Recorder()
        plain, traced = [], []
        seed = 0
        while len(plain) < 2:
            plain_unit = run.run_unit(workload, seed, scratch, expected)
            with layers.Patcher(recorder):
                traced_unit = run.run_unit(workload, seed, scratch,
                                           expected, recorder)
            run.mark_divergence(plain_unit, traced_unit)
            plain += plain_unit
            traced += traced_unit
            seed += 1
        out[name] = (plain, traced, recorder)
    return out


def test_tracing_is_inert(units):
    expected = run.load_expected()
    for name, (plain, traced, _recorder) in units.items():
        for before, after in zip(plain[:2], traced[:2]):
            assert before.checked and after.checked, name
            entry = expected[name][before.unit]
            want = entry if before.index is None else entry[before.index]
            assert before.digest == want, (name, before.op_id)
            assert after.digest == want, (name, after.op_id)
        problems = [(s.op_id, s.problem) for s in plain + traced
                    if s.problem is not None]
        assert problems == [], name


def test_every_layer_is_called_where_it_dominates(units):
    summaries = {name: layers.summarize(recorder.ops)
                 for name, (_p, _t, recorder) in units.items()}
    for layer in layers.LAYERS:
        for name in layer.dominant:
            calls = summaries[name]["layers"][layer.name]["calls_per_op"]
            assert calls > 0, f"layer {layer.name} got no calls on {name}"


def test_layer_self_times_sum_to_op_time(units):
    for name, (_plain, _traced, recorder) in units.items():
        summary = layers.summarize(recorder.ops)
        assert summary["attributed"] == pytest.approx(1.0, abs=0.05), name


def test_every_target_resolves():
    for _layer, target in layers.all_targets():
        owner, attribute, original = layers.resolve(target)
        assert getattr(owner, attribute) is original


def test_self_times_of_synthetic_nested_spans():
    clock = iter([0.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0])
    recorder = layers.Recorder(clock=lambda: next(clock))
    recorder.begin_op("op")
    recorder.enter("sim")        # 0 .. 10
    recorder.enter("policy")     # 2 .. 5
    recorder.enter("latency")    # 3 .. 4
    recorder.leave()
    recorder.leave()
    recorder.enter("policy")     # 6 .. 8
    recorder.leave()
    recorder.leave()
    trace = recorder.end_op(10.0)
    assert trace.layers == {"sim": [1, 10.0, 5.0],
                            "policy": [2, 5.0, 4.0],
                            "latency": [1, 1.0, 1.0]}
    summary = layers.summarize([trace])
    assert summary["layers"]["sim"]["self_ms_per_op"] == 5000.0
    assert summary["layers"]["policy"]["share"] == 0.4
    assert summary["attributed"] == 1.0


def test_reference_speed_scaling():
    now = [0.0]
    cost = [2 * speed.NOMINAL_S]          # half speed around t = 0

    def chunk():
        now[0] += cost[0]

    probe = speed.SpeedProbe(clock=lambda: now[0], chunk=chunk)
    for _ in range(3):
        probe.sample()
    now[0] = 10.0
    cost[0] = speed.NOMINAL_S             # reference speed around t = 10
    for _ in range(3):
        probe.sample()
    probe.maybe_sample()                  # the last sample is too recent
    assert len(probe.seconds) == 6
    assert probe.scale(0.02, 0.1) == pytest.approx(0.05)
    assert probe.scale(10.1, 0.1) == pytest.approx(0.1)
    # Far from every sample: the three nearest set the speed.
    assert probe.speed(7.0, 7.0) == pytest.approx(1.0)


def _wrapped_attributes():
    """Every attribute of a loaded module or class that is a shim."""
    found = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name.startswith("repro")
                                  or name.startswith("scipy.optimize")):
            continue
        for attribute, value in list(vars(module).items()):
            if hasattr(value, "e2e_bench_target"):
                found.append(f"{name}.{attribute}")
            if isinstance(value, type):
                found += [f"{name}.{attribute}.{key}"
                          for key, member in vars(value).items()
                          if hasattr(member, "e2e_bench_target")]
    return found


def test_every_patched_attribute_is_restored():
    import repro.core.appro
    import repro.core.dynamic_rr

    originals = {target: layers.resolve(target)[2]
                 for _layer, target in layers.all_targets()}
    with layers.Patcher(layers.Recorder()) as patcher:
        saved = list(patcher.saved)
        assert len(saved) > len(originals)
        assert all(getattr(holder, name) is not original
                   for holder, name, original in saved)
        # Names imported into other modules are wrapped too.
        assert hasattr(repro.core.appro.build_lp_relaxation,
                       "e2e_bench_target")
        assert hasattr(repro.core.dynamic_rr.build_lp_pt, "e2e_bench_target")
    assert patcher.saved == []
    assert all(getattr(holder, name) is original
               for holder, name, original in saved)
    assert _wrapped_attributes() == []
    for target, original in originals.items():
        assert layers.resolve(target)[2] is original


def test_failed_install_restores_what_it_patched(monkeypatch):
    broken = layers.Layer("broken", "", (), ("repro.core.appro:Appro.nope",))
    monkeypatch.setattr(layers, "LAYERS", layers.LAYERS + (broken,))
    with pytest.raises(LookupError):
        with layers.Patcher(layers.Recorder()):
            pass
    assert _wrapped_attributes() == []


def _last_json(stdout: str):
    return json.loads(stdout.strip().splitlines()[-1])


def _run_cli(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "benchmarks/e2e/run.py", *args],
                          cwd=str(cwd), capture_output=True, text=True,
                          timeout=300, check=False)


def test_benchmark_json_matches_what_run_emits(tmp_path):
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert doc["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert doc["paths"] == ["benchmarks/e2e"]
    assert doc["run_seconds"] == run.DEFAULT_SECONDS
    assert doc["workloads"] == [{"name": w.name, "why": w.why}
                                for w in workloads.WORKLOADS.values()]
    assert doc["end_to_end"] == run.E2E_METRICS
    assert doc["per_layer"] == layers.per_layer_metrics()

    untraced = _run_cli("--workload", "fig3-offline", "--seconds", "0")
    assert untraced.returncode == 0, untraced.stderr
    result = _last_json(untraced.stdout)
    assert list(result) == ["correct", "attempted", "failed", "metrics"]
    assert result["correct"] and result["attempted"] == 2
    assert {name: metric["unit"] for name, metric in
            result["metrics"].items()} == {
        spec["name"]: spec["unit"] for spec in doc["end_to_end"]}
    assert all(metric["value"] > 0 for metric in result["metrics"].values())

    traced = _run_cli("--workload", "fig3-offline", "--seconds", "0",
                      "--trace", "1", "--trace-dir", str(tmp_path))
    assert traced.returncode == 0, traced.stderr
    result = _last_json(traced.stdout)
    assert result["correct"]
    assert {name: metric["unit"] for name, metric in
            result["metrics"].items()} == {
        spec["name"]: spec["unit"] for spec in doc["per_layer"]}
    assert (tmp_path / "spans.jsonl").is_file()
    assert json.loads((tmp_path / "layers.json").read_text())["ops"] == 2


def test_fails_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = _run_cli("--workload", "fig3-offline", cwd=tmp_path)
    assert completed.returncode != 0
    assert completed.stdout == ""
