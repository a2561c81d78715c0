#!/usr/bin/env python3
"""End-to-end benchmark of the offline, online and service paths.

Run from the repository root::

    python3 benchmarks/e2e/run.py                       # all workloads
    python3 benchmarks/e2e/run.py --workload fig3-offline --seed 3
    python3 benchmarks/e2e/run.py --trace 1             # per-layer table

``--workload NAME`` measures one workload in this process; without it
every workload runs in its own fresh child process, one after another.
``--seconds N`` is how long a run keeps starting new units; the unit in
flight always finishes.  ``--trace 1`` runs every unit twice, untraced
and then traced, prints the per-layer table and the tracing overhead,
and writes ``spans.jsonl`` and ``layers.json`` to ``--trace-dir``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics untraced, the per-layer metrics traced.  End-to-end times are
reported at reference speed (see ``speed.py``); the raw wall-clock
times are printed beside them.  The program's own source is imported
from ``src/`` next to this directory; the run exits with status 2 and
prints no result when it is missing.
"""

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional

#: Start of the run; the program is imported later, so ``setup_s``
#: includes its import time.
_STARTED = time.perf_counter()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SOURCE = ROOT / "src"
#: Scratch space (journals, checkpoints, traces) inside the checkout.
WORK = ROOT / ".e2e-bench"
EXPECTED = HERE / "expected.json"

#: Default measuring time of one run (``run_seconds`` in BENCHMARK.json).
DEFAULT_SECONDS = 25
#: Set-ups per run; ``setup_s`` reports the median.
SETUP_REPEATS = 3

#: The end-to-end metrics, with the worsening each may show before a
#: change counts as a regression (share of the parent's median).
E2E_METRICS: List[Dict[str, Any]] = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.05},
    {"name": "requests_per_s", "unit": "1/s", "better": "higher",
     "bound": 0.25},
    {"name": "op_ms_p50", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "op_ms_tail", "unit": "ms", "better": "lower", "bound": 0.25},
]


@dataclass
class Sample:
    """One executed op (``unit`` and ``index`` as in :class:`workloads.Op`)."""

    unit: str
    index: Optional[int]
    #: ``time.perf_counter()`` when the op started.
    start: float
    seconds: float
    requests: int
    digest: str
    problem: Optional[str]
    #: Whether ``expected.json`` holds a digest for this op.
    checked: bool = False
    #: ``seconds`` at reference speed (set after an untraced run).
    scaled: float = 0.0

    @property
    def op_id(self) -> str:
        return self.unit if self.index is None else f"{self.unit}:{self.index}"


def source_present() -> bool:
    return (SOURCE / "repro" / "__init__.py").is_file()


def add_source_path() -> None:
    """Import the program from this checkout's ``src/``."""
    if str(SOURCE) not in sys.path:
        sys.path.insert(0, str(SOURCE))


def single_threaded_env() -> None:
    """One busy thread: numpy's BLAS would otherwise start one per core."""
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS"):
        os.environ.setdefault(variable, "1")


def load_expected() -> Dict[str, Any]:
    with open(EXPECTED, encoding="utf-8") as handle:
        return json.load(handle)


def percentile(values: List[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q))


def peak_rss_mb() -> float:
    # Linux reports ru_maxrss in KiB.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Running units
# ----------------------------------------------------------------------
def run_unit(workload, seed: int, scratch: str, expected: Dict[str, Any],
             recorder=None, probe=None) -> List[Sample]:
    """Run every op of one unit; an op that raises ends the unit.

    With a :class:`speed.SpeedProbe`, the reference chunk is sampled
    between ops.
    """
    import workloads

    samples: List[Sample] = []
    ops = workload.ops(seed, scratch)
    try:
        for op in ops:
            if recorder is not None:
                recorder.begin_op(op.op_id)
            began = time.perf_counter()
            try:
                output = op.call()
            except Exception as error:  # a failed op is counted, not fatal
                seconds = time.perf_counter() - began
                if recorder is not None:
                    recorder.end_op(seconds)
                traceback.print_exc(file=sys.stderr)
                samples.append(Sample(op.unit, op.index, began, seconds, 0,
                                      "", f"raised {error!r}"))
                break
            seconds = time.perf_counter() - began
            if recorder is not None:
                recorder.end_op(seconds)
            if probe is not None:
                probe.maybe_sample()
            digest = workloads.digest(output)
            problem = op.check(output)
            want = workloads.expected_digest(expected, workload.name, op)
            if problem is None and want is not None and want != digest:
                problem = f"digest {digest} != expected {want}"
            samples.append(Sample(op.unit, op.index, began, seconds,
                                  op.requests(output), digest, problem,
                                  checked=want is not None))
    finally:
        ops.close()
    return samples


def mark_divergence(plain: List[Sample], traced: List[Sample]) -> None:
    """Flag traced ops whose output differs from the untraced run's."""
    for before, after in zip(plain, traced):
        if after.problem is None and after.digest != before.digest:
            after.problem = (f"traced digest {after.digest} != untraced "
                             f"{before.digest}")
    if len(plain) != len(traced) and traced and traced[-1].problem is None:
        traced[-1].problem = (f"traced unit ran {len(traced)} ops, "
                              f"untraced {len(plain)}")


def timed_setup(workload, seed: int, scratch: str, probe) -> float:
    """Build inputs, run one warm-up op, collect garbage; seconds at
    reference speed."""
    began = time.perf_counter()
    ops = workload.ops(seed, scratch)
    try:
        next(ops).call()
    finally:
        ops.close()
    gc.collect()
    seconds = time.perf_counter() - began
    probe.sample()
    return probe.scale(began, seconds)


def measure(workload, seed: int, seconds: float, scratch: str,
            expected: Dict[str, Any], probe, recorder=None):
    """Run units with seeds ``seed, seed + 1, ...`` for ``seconds``.

    Returns ``(untraced samples, traced samples, units run)``; with a
    recorder every unit runs untraced and then traced.  The untraced
    samples carry their reference-speed times.
    """
    import layers

    untraced: List[Sample] = []
    traced: List[Sample] = []
    began = time.perf_counter()
    units = 0
    while units == 0 or time.perf_counter() - began < seconds:
        plain = run_unit(workload, seed + units, scratch, expected,
                         probe=probe)
        untraced.extend(plain)
        if recorder is not None:
            with layers.Patcher(recorder):
                shimmed = run_unit(workload, seed + units, scratch,
                                   expected, recorder)
            mark_divergence(plain, shimmed)
            traced.extend(shimmed)
        units += 1
    probe.sample()
    for sample in untraced:
        sample.scaled = probe.scale(sample.start, sample.seconds)
    return untraced, traced, units


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def e2e_values(workload, samples: List[Sample],
               setup_s: float) -> Dict[str, float]:
    ms = [sample.scaled * 1000.0 for sample in samples]
    busy_s = sum(sample.scaled for sample in samples)
    return {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "requests_per_s": sum(s.requests for s in samples) / busy_s,
        "op_ms_p50": percentile(ms, 50),
        "op_ms_tail": percentile(ms, workload.tail_percentile),
    }


def result_line(samples: List[Sample], values: Dict[str, float],
                specs: List[Dict[str, Any]]) -> Dict[str, Any]:
    failed = sum(1 for sample in samples if sample.problem is not None)
    return {
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {spec["name"]: {"value": values[spec["name"]],
                                   "unit": spec["unit"]}
                    for spec in specs},
    }


def print_problems(samples: List[Sample], limit: int = 10) -> None:
    bad = [sample for sample in samples if sample.problem is not None]
    for sample in bad[:limit]:
        print(f"  FAILED op {sample.op_id}: {sample.problem}")
    if len(bad) > limit:
        print(f"  ... and {len(bad) - limit} more failed ops")


def report_untraced(workload, samples: List[Sample], units: int,
                    values: Dict[str, float], import_s: float,
                    setups: List[float], checked: int, probe) -> None:
    import speed

    count = len(samples)
    tail = workload.tail_percentile
    beyond = sum(1 for sample in samples
                 if sample.scaled * 1000.0 > values["op_ms_tail"])
    raw_ms = [sample.seconds * 1000.0 for sample in samples]
    speeds = [speed.NOMINAL_S / seconds for seconds in probe.seconds]
    kind = "ticks" if workload.name.startswith("service") else "runs"
    print(f"  setup_s         {values['setup_s']:10.4f} s   "
          f"(imports {import_s:.3f} s + median of "
          f"{', '.join(f'{s:.3f}' for s in setups)} s)")
    print(f"  peak_rss_mb     {values['peak_rss_mb']:10.2f} MB")
    print(f"  requests_per_s  {values['requests_per_s']:10.1f} 1/s")
    print(f"  op_ms_p50       {values['op_ms_p50']:10.3f} ms  "
          f"(raw {percentile(raw_ms, 50):.3f} ms; n = {count} {kind} in "
          f"{units} units)")
    print(f"  op_ms_tail      {values['op_ms_tail']:10.3f} ms  "
          f"(raw {percentile(raw_ms, tail):.3f} ms; p{tail}, {beyond} "
          f"samples beyond)")
    print(f"  machine speed   {statistics.median(speeds):10.3f} x reference "
          f"(median of {len(speeds)} samples, range {min(speeds):.3f} to "
          f"{max(speeds):.3f})")
    print(f"  ops {count}, failed "
          f"{sum(1 for s in samples if s.problem is not None)}, "
          f"{checked} checked against expected.json")


def run_workload(args) -> int:
    import layers
    import speed
    import workloads

    import_raw_s = time.perf_counter() - _STARTED
    workload = workloads.WORKLOADS[args.workload]
    expected = load_expected()
    WORK.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK)
    recorder = layers.Recorder() if args.trace else None
    probe = speed.SpeedProbe()
    probe.warm_up()
    probe.sample()
    try:
        setups = [timed_setup(workload,
                              args.seed + workloads.WARMUP_SEED_OFFSET + r,
                              scratch, probe)
                  for r in range(SETUP_REPEATS)]
        import_s = probe.scale(_STARTED, import_raw_s)
        untraced, traced, units = measure(workload, args.seed, args.seconds,
                                          scratch, expected, probe, recorder)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    setup_s = import_s + statistics.median(setups)
    mode = "traced" if args.trace else "untraced"
    print(f"workload {workload.name}  seed {args.seed}  seconds "
          f"{args.seconds}  {mode}  (closed loop, 1 client, virtual time)")
    checked = sum(1 for sample in untraced if sample.checked)
    if not args.trace:
        values = e2e_values(workload, untraced, setup_s)
        report_untraced(workload, untraced, units, values, import_s,
                        setups, checked, probe)
        print_problems(untraced)
        result = result_line(untraced, values, E2E_METRICS)
        detail = {"units": units, "tail_percentile": workload.tail_percentile,
                  "import_s": import_s, "import_raw_s": import_raw_s,
                  "setups_s": setups,
                  "op_ms": [sample.scaled * 1000.0 for sample in untraced],
                  "op_ms_raw": [sample.seconds * 1000.0
                                for sample in untraced],
                  "reference_s": probe.seconds}
    else:
        summary = layers.summarize(recorder.ops)
        plain_s = sum(sample.seconds for sample in untraced)
        traced_s = sum(sample.seconds for sample in traced)
        overhead = traced_s / plain_s - 1.0 if plain_s else 0.0
        print(layers.render(summary))
        print(f"  tracing overhead {overhead:+.1%} (traced "
              f"{traced_s * 1000.0 / max(len(traced), 1):.3f} ms/op vs "
              f"untraced {plain_s * 1000.0 / max(len(untraced), 1):.3f} "
              f"ms/op over {units} units)")
        trace_dir = args.trace_dir or str(WORK / "trace" / workload.name)
        extra = {"seed": args.seed, "units": units, "overhead": overhead}
        layers.write_trace(trace_dir, workload.name, recorder.ops, summary,
                           extra)
        print(f"  spans.jsonl and layers.json in {trace_dir}")
        samples = untraced + traced
        print_problems(samples)
        result = result_line(samples, summary["metrics"],
                             layers.per_layer_metrics())
        detail = {"units": units, "overhead": overhead,
                  "attributed": summary["attributed"]}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"workload": workload.name, "seed": args.seed,
                       **result, "detail": detail}, handle, indent=1)
            handle.write("\n")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own fresh process, one after another."""
    import workloads

    results: Dict[str, Any] = {}
    status = 0
    for name in workloads.WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        if args.trace_dir:
            command += ["--trace-dir", os.path.join(args.trace_dir, name)]
        completed = subprocess.run(command, stdout=subprocess.PIPE,
                                   text=True, cwd=str(ROOT), check=False)
        sys.stdout.write(completed.stdout)
        lines = completed.stdout.strip().splitlines()
        if completed.returncode != 0 or not lines:
            print(f"{name}: exited with status {completed.returncode}")
            status = 1
            continue
        results[name] = json.loads(lines[-1])
    print(f"{'workload':<20}{'correct':>8}{'ops':>8}{'failed':>8}")
    for name, result in results.items():
        print(f"{name:<20}{str(result['correct']):>8}"
              f"{result['attempted']:>8}{result['failed']:>8}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"seed": args.seed, "seconds": args.seconds,
                       "trace": args.trace, "workloads": results},
                      handle, indent=1)
            handle.write("\n")
    print(json.dumps({"workloads": results}))
    return status


def write_expected() -> int:
    """Regenerate ``expected.json`` from this checkout (seeds 0, 1, ...)."""
    import workloads

    WORK.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="expected-", dir=WORK)
    table: Dict[str, Dict[str, Any]] = {}
    try:
        for name, workload in workloads.WORKLOADS.items():
            units: Dict[str, Any] = {}
            for seed in range(workload.expected_units):
                samples = run_unit(workload, seed, scratch, {})
                bad = [s for s in samples if s.problem is not None]
                if bad:
                    print(f"{name} seed {seed}: op {bad[0].op_id} "
                          f"failed: {bad[0].problem}", file=sys.stderr)
                    return 1
                for sample in samples:
                    if sample.index is None:
                        units[sample.unit] = sample.digest
                    else:
                        units.setdefault(sample.unit, []).append(
                            sample.digest)
            table[name] = units
            print(f"{name}: {workload.expected_units} units", flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = ["{"]
    for w, (name, units) in enumerate(table.items()):
        lines.append(f" {json.dumps(name)}: {{")
        items = list(units.items())
        for u, (unit, value) in enumerate(items):
            comma = "," if u < len(items) - 1 else ""
            lines.append(f"  {json.dumps(unit)}: {json.dumps(value)}{comma}")
        lines.append(" }" + ("," if w < len(table) - 1 else ""))
    lines.append("}")
    EXPECTED.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return 0


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="one workload, in this process "
                        "(default: every workload, each in a child)")
    parser.add_argument("--seed", type=int, default=0,
                        help="shifts every seed the workloads use")
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS,
                        help="keep starting units for this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run with the per-layer breakdown")
    parser.add_argument("--trace-dir",
                        help="where a traced run writes spans.jsonl and "
                        "layers.json (default .e2e-bench/trace/<workload>)")
    parser.add_argument("--out", help="also write the result JSON here")
    parser.add_argument("--write-expected", action="store_true",
                        help="regenerate expected.json and exit")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not source_present():
        print(f"run.py: no program source at {SOURCE}", file=sys.stderr)
        return 2
    single_threaded_env()
    add_source_path()
    if args.write_expected:
        return write_expected()
    if args.workload is None:
        return run_all(args)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
