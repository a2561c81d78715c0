"""Performance attribution: span-tree digests and deep capture.

The tracer (:mod:`repro.telemetry.tracer`) records raw span events,
which are not a *comparable artifact*: you cannot hand two traces to
CI and ask "which span regressed".  This module closes that gap with
three layers (:func:`digest_from_events` is the one aggregation of
span events; ``--trace-summary`` renders its digest):

* :class:`ProfileDigest` - the canonical attribution record of one (or
  many merged) runs: per **span path** (``offline_run/build_lp/
  lp_solve``) the call count, cumulative wall time, exclusive self
  time, and min/max per call, plus every domain counter
  (``simplex_iterations_total``, ``lp_solves_total``, ``bnb_nodes``,
  ...) joined onto
  its owning span via :func:`counter_owner`.  Digests merge
  associatively (per algorithm, across ProcessPool workers), serialize
  to JSON, and split cleanly into a *deterministic* part (calls,
  counters - a pure function of config + seeds, byte-identical between
  serial and parallel execution; see :func:`canonical_digest`) and an
  advisory wall-clock part (the ``*_s`` fields).

* **Deep capture** - :class:`Capture`, the one capture path of sweep
  runs and the service, wraps a block in a tracer, opt-in ``cProfile``
  and opt-in ``tracemalloc``; its trace is the tracer's spans followed
  by the metrics registry's counters, the one store of counts.
  ``cProfile`` statistics (:func:`capture_stats` / :func:`merge_stats`)
  are reduced to picklable dicts so they ride home on
  :class:`~repro.sim.results.RunRecord` like traces do, and opt-in
  ``tracemalloc`` top-N allocation sites (:func:`capture_memory_top` /
  :func:`merge_memory`) for flat-RSS claims.

* **Flamegraph export** - :func:`folded_from_stats` expands the
  cProfile caller graph into collapsed-stack lines ("a;b;c 1234",
  weights in microseconds) loadable by speedscope and flamegraph.pl,
  and :func:`folded_from_digest` does the same exactly (no
  approximation) for the instrumented span tree.

``python -m repro.experiments perf-diff`` (see
:mod:`repro.telemetry.perfdiff`) compares two digests and localizes
the worst regressed span; the experiments/report/service CLIs grow
``--profile`` / ``--profile-mem`` / ``--profile-out`` flags that
produce these artifacts.  Profiling is zero-overhead-by-default and
inert: enabling it cannot change any record metric, journal byte, or
checkpoint (the executor's inertness tests pin this).
"""

from __future__ import annotations

import functools
import json
from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path
from typing import (Any, Dict, Iterable, List, Mapping, Optional,
                    Sequence, Tuple, Union)

from ..exceptions import ConfigurationError
from .metrics import label_key, series_name
from .summary import list_lines, run_key, span_index, table_lines
from .tracer import Tracer, use_tracer

#: Schema identifier of one serialized digest.
DIGEST_SCHEMA = "repro.profile-digest/1"
#: Schema identifier of a digest-set export (``PROF_*.json``).
PROFILE_SET_SCHEMA = "repro.profile-set/1"

#: Digest fields measured from the executing machine's clock.  They
#: are the advisory half of a digest; everything else (calls,
#: counters) is deterministic and must match between two executions of
#: the same run (see :func:`canonical_digest`).
DIGEST_WALL_CLOCK_FIELDS = ("total_s", "self_s", "min_s", "max_s")

#: Counter base name -> owning span leaf name, for the counters that
#: no event kind declares.  ``perf-diff`` and the digest join use
#: :func:`counter_owner` to attribute domain counters to the span whose
#: code increments them, so a report can say "simplex phase-2
#: iterations +4.1x in lp_solve" instead of listing bare counters.
#: Event counters take their owner from their
#: :class:`~repro.sim.events.EventSpec`.
COUNTER_OWNERS: Dict[str, str] = {
    "lp_solves_total": "lp_solve",
    "simplex_iterations_total": "lp_solve",
    "bnb_nodes": "ilp_solve",
    "rounding_rounds": "rounding",
    "bandit_explore_steps": "bandit_round",
    "bandit_exploit_steps": "bandit_round",
    "engine_cloud_served_total": "slot_admission",
    "engine_reward_total": "slot_admission",
}

#: Separator between span names in a digest path.
PATH_SEP = "/"


def counter_base(series: str) -> str:
    """The base metric name of a flat series id (labels stripped)."""
    brace = series.find("{")
    return series if brace < 0 else series[:brace]


def counter_owner(series: str) -> Optional[str]:
    """The span leaf that owns a counter series (None: no owner)."""
    base = counter_base(series)
    owner = COUNTER_OWNERS.get(base)
    return owner if owner is not None else _event_owners().get(base)


@functools.lru_cache(maxsize=None)
def _event_owners() -> Dict[str, str]:
    """Event counter base name -> the span its EventSpec names.

    Imported on first use: ``repro.sim`` imports this package.
    """
    from ..sim.events import EventKind

    return {kind.spec.counter: kind.spec.span for kind in EventKind
            if kind.spec.span is not None}


@dataclass
class SpanProfile:
    """Attribution of one span path inside a digest."""

    path: str
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    min_s: float = 0.0
    max_s: float = 0.0

    @property
    def leaf(self) -> str:
        """The span's own name (last path segment)."""
        return self.path.rsplit(PATH_SEP, 1)[-1]

    def to_dict(self) -> Dict[str, Any]:
        return {"calls": self.calls, "total_s": self.total_s,
                "self_s": self.self_s, "min_s": self.min_s,
                "max_s": self.max_s}

    @classmethod
    def from_dict(cls, path: str,
                  data: Mapping[str, Any]) -> "SpanProfile":
        return cls(path=path, calls=int(data.get("calls", 0)),
                   total_s=float(data.get("total_s", 0.0)),
                   self_s=float(data.get("self_s", 0.0)),
                   min_s=float(data.get("min_s", 0.0)),
                   max_s=float(data.get("max_s", 0.0)))

    def absorb(self, other: "SpanProfile") -> None:
        """Merge another profile of the same path into this one."""
        if self.calls == 0:
            self.min_s = other.min_s
        elif other.calls:
            self.min_s = min(self.min_s, other.min_s)
        self.max_s = max(self.max_s, other.max_s)
        self.calls += other.calls
        self.total_s += other.total_s
        self.self_s += other.self_s


@dataclass
class ProfileDigest:
    """Canonical performance-attribution record of one or more runs.

    Attributes:
        spans: span path -> :class:`SpanProfile`.
        counters: flat series id -> total (tracer counters and, when a
            metrics registry rode the run, its counters too).
        top_level_s: wall time of top-level (parentless) spans.
        runs: how many runs were merged into this digest.
    """

    spans: Dict[str, SpanProfile] = field(default_factory=dict)
    counters: Dict[str, float] = field(default_factory=dict)
    top_level_s: float = 0.0
    runs: int = 0

    def span_counters(self, leaf: str) -> Dict[str, float]:
        """The counters :func:`counter_owner` joins onto one span."""
        return {series: value
                for series, value in sorted(self.counters.items())
                if counter_owner(series) == leaf}

    def to_dict(self) -> Dict[str, Any]:
        """The digest as a canonical JSON-ready dict."""
        return {
            "schema": DIGEST_SCHEMA,
            "runs": self.runs,
            "top_level_s": self.top_level_s,
            "spans": {path: self.spans[path].to_dict()
                      for path in sorted(self.spans)},
            "counters": {series: self.counters[series]
                         for series in sorted(self.counters)},
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ProfileDigest":
        """Rebuild a digest from :meth:`to_dict` output.

        Raises:
            ConfigurationError: on malformed input.
        """
        try:
            spans = {str(path): SpanProfile.from_dict(str(path), row)
                     for path, row in data.get("spans", {}).items()}
            counters = {str(series): float(value)
                        for series, value
                        in data.get("counters", {}).items()}
            return cls(spans=spans, counters=counters,
                       top_level_s=float(data.get("top_level_s", 0.0)),
                       runs=int(data.get("runs", 0)))
        except (AttributeError, TypeError, ValueError) as error:
            raise ConfigurationError(
                f"malformed profile digest: {error}") from error

    def absorb(self, other: "ProfileDigest") -> None:
        """Merge another digest into this one (associative)."""
        for path in sorted(other.spans):
            mine = self.spans.setdefault(path, SpanProfile(path))
            mine.absorb(other.spans[path])
        for series in sorted(other.counters):
            self.counters[series] = (self.counters.get(series, 0.0)
                                     + other.counters[series])
        self.top_level_s += other.top_level_s
        self.runs += other.runs


def merge_digests(digests: Iterable[Union[ProfileDigest,
                                          Mapping[str, Any]]]
                  ) -> ProfileDigest:
    """Merge digests (objects or dicts) into one aggregate."""
    out = ProfileDigest()
    for digest in digests:
        if not isinstance(digest, ProfileDigest):
            digest = ProfileDigest.from_dict(digest)
        out.absorb(digest)
    return out


def canonical_digest(digest: Union[ProfileDigest, Mapping[str, Any]]
                     ) -> Dict[str, Any]:
    """The deterministic half of a digest (wall-clock fields removed).

    Two executions of the same run - serial vs parallel, profiled on
    different machines - must produce *equal* canonical digests: span
    paths, call counts, and domain counters are pure functions of
    config + seeds.
    """
    data = (digest.to_dict() if isinstance(digest, ProfileDigest)
            else dict(digest))
    return {
        "schema": data.get("schema", DIGEST_SCHEMA),
        "runs": data.get("runs", 0),
        "spans": {path: {key: value for key, value in row.items()
                         if key not in DIGEST_WALL_CLOCK_FIELDS}
                  for path, row in data.get("spans", {}).items()},
        "counters": dict(data.get("counters", {})),
    }


# ----------------------------------------------------------------------
# Building digests from trace events
# ----------------------------------------------------------------------
def digest_from_events(events: Iterable[Mapping[str, Any]],
                       runs: int = 1) -> ProfileDigest:
    """Build a :class:`ProfileDigest` from a trace event stream.

    Accepts a single run's events or a merged sweep trace (parent
    links are resolved per run by
    :func:`repro.telemetry.summary.span_index`).  Span paths are
    the full ancestor chain joined with ``/``; a re-entrant span
    therefore lands on a *longer* path (``a/a``) instead of double
    counting on ``a``.  Counter events - the registry's counters,
    which :class:`Capture` appends to the spans - fold in under the
    registry's flat series id
    (:func:`~repro.telemetry.metrics.series_name`).
    """
    digest = ProfileDigest(runs=runs)
    span_events: List[Mapping[str, Any]] = []
    for event in events:
        kind = event.get("kind")
        if kind == "span":
            span_events.append(event)
        elif kind == "counter":
            series = series_name(event["name"],
                                 label_key(event.get("labels") or {}))
            digest.counters[series] = (digest.counters.get(series, 0.0)
                                       + float(event.get("value", 0.0)))

    # Resolve each span's full ancestor path and its direct-child time.
    by_seq, child_s = span_index(span_events)
    paths: Dict[Tuple[Any, ...], str] = {}

    def path_of(event: Mapping[str, Any]) -> str:
        key = run_key(event) + (event.get("seq"),)
        cached = paths.get(key)
        if cached is not None:
            return cached
        parent = event.get("parent")
        if parent is None:
            path = str(event["name"])
        else:
            parent_event = by_seq.get(run_key(event) + (parent,))
            if parent_event is None:
                path = str(event["name"])
            else:
                path = path_of(parent_event) + PATH_SEP \
                    + str(event["name"])
        paths[key] = path
        return path

    for event in span_events:
        duration = float(event.get("duration_s", 0.0))
        key = run_key(event) + (event.get("seq"),)
        span = digest.spans.setdefault(path_of(event),
                                       SpanProfile(path_of(event)))
        single = SpanProfile(span.path, calls=1, total_s=duration,
                             self_s=max(0.0, duration
                                        - child_s.get(key, 0.0)),
                             min_s=duration, max_s=duration)
        span.absorb(single)
        if event.get("parent") is None:
            digest.top_level_s += duration
    return digest


def collect_sweep_profiles(sweeps: Mapping[str, Any]
                           ) -> Dict[str, ProfileDigest]:
    """Merge per-record digests of one or more sweeps, per algorithm.

    Mirrors the metric namespacing of
    :func:`repro.telemetry.ledger.manifest_from_sweeps`: with several
    sweep groups the keys become ``"<group>/<algorithm>"``.  Records
    without a digest (profiling off) contribute nothing.
    """
    namespaced = len(sweeps) > 1
    out: Dict[str, ProfileDigest] = {}
    for group in sorted(sweeps):
        for record in sweeps[group].records:
            data = getattr(record, "profile", None)
            if not data:
                continue
            key = (f"{group}/{record.algorithm}" if namespaced
                   else record.algorithm)
            target = out.setdefault(key, ProfileDigest())
            target.absorb(ProfileDigest.from_dict(data))
    return out


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def render_digest(digest: Union[ProfileDigest, Mapping[str, Any]],
                  top: int = 20, markdown: bool = False) -> str:
    """A per-span attribution table, hottest self time first."""
    if not isinstance(digest, ProfileDigest):
        digest = ProfileDigest.from_dict(digest)
    header = ["span path", "calls", "total_ms", "self_ms", "min_ms",
              "max_ms"]
    ordered = sorted(digest.spans.values(),
                     key=lambda s: (-s.self_s, s.path))
    rows: List[List[str]] = []
    for span in ordered[:max(0, top)]:
        rows.append([span.path, str(span.calls),
                     f"{span.total_s * 1e3:.2f}",
                     f"{span.self_s * 1e3:.2f}",
                     f"{span.min_s * 1e3:.3f}",
                     f"{span.max_s * 1e3:.3f}"])
    lines = table_lines(header, rows, markdown, "(no spans profiled)")
    omitted = len(ordered) - len(rows)
    if omitted > 0:
        lines.append(f"  ... {omitted} cooler span path(s) omitted ...")
    if digest.counters:
        # Tag a counter with its owner only when the digest holds a
        # span of that name (the rule perf-diff's worst_regression
        # uses): offline runs count engine events with no
        # slot_admission span.
        leaves = {path.rsplit(PATH_SEP, 1)[-1] for path in digest.spans}
        owners = {series: counter_owner(series)
                  for series in sorted(digest.counters)}
        lines += list_lines("counters", (
            f"{series} = {digest.counters[series]:g}"
            + (f" [{owner}]" if owner in leaves else "")
            for series, owner in owners.items()), markdown)
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Profile-set files (PROF_*.json)
# ----------------------------------------------------------------------
def write_profile_set(path: Union[str, Path],
                      digests: Mapping[str, Union[ProfileDigest,
                                                  Mapping[str, Any]]]
                      ) -> Path:
    """Write a digest set as a pretty ``PROF_<name>.json`` snapshot."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "schema": PROFILE_SET_SCHEMA,
        "digests": {
            name: (digest.to_dict()
                   if isinstance(digest, ProfileDigest)
                   else dict(digest))
            for name, digest in sorted(digests.items())},
    }
    target.write_text(json.dumps(payload, sort_keys=True, indent=2)
                      + "\n")
    return target


def load_profile_set(path: Union[str, Path]) -> Dict[str, ProfileDigest]:
    """Load digests from any format that can carry them.

    Accepts a ``PROF_*.json`` profile set, a single serialized digest,
    a ``BENCH_*.json`` manifest with a ``profiles`` section, or a
    JSONL ledger (head manifest per name; keys become
    ``"<run>.<algorithm>"`` when several runs carry profiles).

    Raises:
        ConfigurationError: when the file carries no digests.
    """
    from .ledger import latest_by_name, load_manifests

    text = Path(path).read_text()
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        data = None
    out: Dict[str, ProfileDigest] = {}
    if isinstance(data, dict) and (
            data.get("schema") == PROFILE_SET_SCHEMA
            or "digests" in data):
        out = {str(name): ProfileDigest.from_dict(digest)
               for name, digest in data.get("digests", {}).items()}
    elif isinstance(data, dict) and (
            data.get("schema") == DIGEST_SCHEMA or "spans" in data):
        out = {"profile": ProfileDigest.from_dict(data)}
    else:
        manifests = latest_by_name(load_manifests(path))
        for name in sorted(manifests):
            profiles = getattr(manifests[name], "profiles", {}) or {}
            for algo in sorted(profiles):
                key = algo if len(manifests) == 1 \
                    else f"{name}.{algo}"
                out[key] = ProfileDigest.from_dict(profiles[algo])
    if not out:
        raise ConfigurationError(
            f"{path}: no profile digests found (was the run executed "
            f"with --profile?)")
    return out


# ----------------------------------------------------------------------
# Deep capture: cProfile statistics
# ----------------------------------------------------------------------
def _func_id(func: Tuple[str, int, str]) -> str:
    """Readable, stable id of a cProfile function key."""
    filename, lineno, name = func
    if filename in ("~", ""):
        return name  # builtins: ("~", 0, "<built-in ...>")
    short = filename.replace("\\", "/")
    marker = short.rfind("/repro/")
    if marker >= 0:
        short = short[marker + 1:]
    else:
        short = short.rsplit("/", 1)[-1]
    return f"{short}:{lineno}:{name}"


def capture_stats(profiler: Any) -> Dict[str, Any]:
    """Reduce a ``cProfile.Profile`` to a picklable stats mapping.

    Returns:
        function id -> ``{"calls", "prim", "tt", "ct", "callers":
        {caller id: [calls, prim, tt, ct]}}`` - the full caller graph,
        so flamegraph expansion and cross-worker merging stay exact
        per edge.
    """
    profiler.create_stats()
    out: Dict[str, Any] = {}
    for func, (cc, nc, tt, ct, callers) in profiler.stats.items():
        out[_func_id(func)] = {
            "calls": int(nc), "prim": int(cc),
            "tt": float(tt), "ct": float(ct),
            "callers": {
                _func_id(caller): [int(ccc), int(ncc), float(ttc),
                                   float(ctc)]
                for caller, (ccc, ncc, ttc, ctc) in callers.items()},
        }
    return out


def merge_stats(stats_list: Iterable[Mapping[str, Any]]
                ) -> Dict[str, Any]:
    """Sum cProfile stats mappings across runs/workers."""
    merged: Dict[str, Any] = {}
    for stats in stats_list:
        if not stats:
            continue
        for func in sorted(stats):
            row = stats[func]
            mine = merged.setdefault(
                func, {"calls": 0, "prim": 0, "tt": 0.0, "ct": 0.0,
                       "callers": {}})
            mine["calls"] += int(row.get("calls", 0))
            mine["prim"] += int(row.get("prim", 0))
            mine["tt"] += float(row.get("tt", 0.0))
            mine["ct"] += float(row.get("ct", 0.0))
            for caller in sorted(row.get("callers", {})):
                edge = row["callers"][caller]
                target = mine["callers"].setdefault(
                    caller, [0, 0, 0.0, 0.0])
                for i in range(4):
                    target[i] += edge[i]
    return merged


def top_functions(stats: Mapping[str, Any], top: int = 15,
                  key: str = "tt") -> List[Tuple[str, Dict[str, Any]]]:
    """The hottest functions of a stats mapping, by ``tt`` or ``ct``."""
    if key not in ("tt", "ct"):
        raise ConfigurationError(f"sort key must be tt or ct, got {key!r}")
    ordered = sorted(stats.items(),
                     key=lambda item: (-float(item[1].get(key, 0.0)),
                                       item[0]))
    return [(func, dict(row)) for func, row in ordered[:max(0, top)]]


def folded_from_stats(stats: Mapping[str, Any],
                      max_depth: int = 64,
                      min_weight_us: int = 1) -> List[str]:
    """Collapsed-stack lines from a cProfile caller graph.

    cProfile records caller->callee *edges*, not full stacks, so full
    stacks are reconstructed by walking the graph from its roots and
    distributing each function's self time (``tt``) across incoming
    paths proportionally to the cumulative time (``ct``) flowing along
    each edge - the same estimate flameprof makes.  The result is
    deterministic for a given stats mapping, and loadable by
    speedscope or flamegraph.pl (weights are integer microseconds).
    Cycles are cut by never revisiting a function already on the
    current path; ``max_depth`` bounds pathological graphs.
    """
    callees: Dict[str, List[Tuple[str, float]]] = {}
    called: set = set()
    for func in sorted(stats):
        for caller in sorted(stats[func].get("callers", {})):
            edge_ct = float(stats[func]["callers"][caller][3])
            callees.setdefault(caller, []).append((func, edge_ct))
            called.add(func)
    weights: Dict[str, float] = {}

    def walk(func: str, ratio: float, path: Tuple[str, ...]) -> None:
        row = stats.get(func)
        if row is None or ratio <= 0.0:
            return
        self_s = float(row.get("tt", 0.0)) * ratio
        if self_s > 0.0:
            line = ";".join(path)
            weights[line] = weights.get(line, 0.0) + self_s
        if len(path) >= max_depth:
            return
        total_ct = max(float(row.get("ct", 0.0)), 1e-12)
        for callee, edge_ct in callees.get(func, ()):
            if callee in path:
                continue  # recursion: collapse onto the outer frame
            walk(callee, ratio * min(1.0, edge_ct / total_ct),
                 path + (callee,))

    roots = [func for func in sorted(stats) if func not in called]
    for root in roots:
        walk(root, 1.0, (root,))
    lines = []
    for line in sorted(weights):
        weight = int(round(weights[line] * 1e6))
        if weight >= min_weight_us:
            lines.append(f"{line} {weight}")
    return lines


def folded_from_digest(digest: Union[ProfileDigest, Mapping[str, Any]],
                       min_weight_us: int = 1) -> List[str]:
    """Collapsed-stack lines from a digest's span tree (exact)."""
    if not isinstance(digest, ProfileDigest):
        digest = ProfileDigest.from_dict(digest)
    lines = []
    for path in sorted(digest.spans):
        weight = int(round(digest.spans[path].self_s * 1e6))
        if weight >= min_weight_us:
            lines.append(f"{path.replace(PATH_SEP, ';')} {weight}")
    return lines


def write_folded(path: Union[str, Path],
                 lines: Sequence[str]) -> Path:
    """Write collapsed-stack lines to a ``.folded`` file."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text("".join(line + "\n" for line in lines))
    return target


# ----------------------------------------------------------------------
# Deep capture: tracemalloc allocation sites
# ----------------------------------------------------------------------
def capture_memory_top(snapshot: Any, top: int = 25
                       ) -> List[Dict[str, Any]]:
    """Top allocation sites of a ``tracemalloc`` snapshot.

    Returns picklable rows ``{"site": "file:lineno", "size_kb",
    "count"}`` sorted by size descending, file paths shortened to the
    ``repro/...`` suffix where possible.
    """
    rows: List[Dict[str, Any]] = []
    for stat in snapshot.statistics("lineno")[:max(0, top)]:
        frame = stat.traceback[0]
        rows.append({"site": _func_id((frame.filename, frame.lineno,
                                       ""))[:-1],
                     "size_kb": stat.size / 1024.0,
                     "count": int(stat.count)})
    return rows


def merge_memory(rows_list: Iterable[Sequence[Mapping[str, Any]]],
                 top: int = 25) -> List[Dict[str, Any]]:
    """Sum allocation-site rows across runs and re-rank by size."""
    by_site: Dict[str, Dict[str, Any]] = {}
    for rows in rows_list:
        if not rows:
            continue
        for row in rows:
            site = str(row["site"])
            mine = by_site.setdefault(site, {"site": site,
                                             "size_kb": 0.0,
                                             "count": 0})
            mine["size_kb"] += float(row.get("size_kb", 0.0))
            mine["count"] += int(row.get("count", 0))
    ordered = sorted(by_site.values(),
                     key=lambda r: (-r["size_kb"], r["site"]))
    return ordered[:max(0, top)]


def render_memory_top(rows: Sequence[Mapping[str, Any]],
                      markdown: bool = False) -> str:
    """A top-allocation-sites table (size descending)."""
    header = ["allocation site", "size_kb", "blocks"]
    body = [[str(row["site"]), f"{float(row['size_kb']):.1f}",
             str(int(row["count"]))] for row in rows]
    return "\n".join(table_lines(header, body, markdown,
                                 "(no allocations captured)"))


# ----------------------------------------------------------------------
# The one capture path
# ----------------------------------------------------------------------
class Capture:
    """Observe one block of work: its spans, cProfile and tracemalloc.

    The one capture behind a traced or profiled
    :class:`~repro.experiments.executor.RunSpec` and a profiled service
    ``loadgen``/``resume``::

        capture = Capture(profile=True, registry=registry)
        with capture:
            work()
        capture.digest, capture.stats, capture.memory

    Args:
        trace: record the block's spans on a fresh
            :class:`~repro.telemetry.Tracer` (``capture.tracer``); on
            exit ``events`` holds the trace.
        profile: trace, and also run the block under ``cProfile``; on
            exit ``digest`` holds the :class:`ProfileDigest` and
            ``stats`` the :func:`capture_stats` mapping.
        profile_mem: on exit ``memory`` holds the top ``tracemalloc``
            allocation sites (tracemalloc starts here unless already
            running).
        registry: the metrics registry the block counts into; the
            caller installs it.  The trace is the tracer's spans
            followed by one counter record per registry counter, in
            sorted series order.  A live service passes its own
            registry, which a resume restores from a checkpoint; a null
            registry (``export_state()`` is None) adds no counters.

    Capture is observation only: the block computes the same results
    with it on or off.
    """

    def __init__(self, trace: bool = False, profile: bool = False,
                 profile_mem: bool = False, registry: Any = None) -> None:
        self.tracer = Tracer() if (trace or profile) else None
        self.registry = registry
        self.profile_mem = profile_mem
        self._profiler = None
        if profile:
            import cProfile  # only a profiled block loads the profiler

            self._profiler = cProfile.Profile()
        self._stack = ExitStack()
        self.events: Optional[List[Dict[str, Any]]] = None
        self.digest: Optional[ProfileDigest] = None
        self.stats: Optional[Dict[str, Any]] = None
        self.memory: Optional[List[Dict[str, Any]]] = None

    def __enter__(self) -> "Capture":
        if self.tracer is not None:
            self._stack.enter_context(use_tracer(self.tracer))
        if self.profile_mem:
            import tracemalloc  # only --profile-mem loads it

            if not tracemalloc.is_tracing():
                tracemalloc.start()
                self._stack.callback(tracemalloc.stop)
        if self._profiler is not None:
            self._profiler.enable()
        return self

    def __exit__(self, exc_type, exc, traceback) -> None:
        with self._stack:
            if self._profiler is not None:
                self._profiler.disable()
            if self.profile_mem:
                import tracemalloc

                if tracemalloc.is_tracing():
                    self.memory = capture_memory_top(
                        tracemalloc.take_snapshot())
        if exc_type is not None or self.tracer is None:
            return
        state = (self.registry.export_state()
                 if self.registry is not None else None)
        counters = state["counters"] if state is not None else {}
        self.events = self.tracer.events() + [
            {"kind": "counter", "name": name, "labels": dict(labels),
             "value": value}
            for (name, labels), value in counters.items()]
        if self._profiler is not None:
            self.digest = digest_from_events(self.events)
            self.stats = capture_stats(self._profiler)
