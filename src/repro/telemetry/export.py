"""Trace export: JSONL persistence, canonicalisation, sweep merging.

A *trace* is the flat event list produced by
:meth:`repro.telemetry.tracer.Tracer.events`.  This module writes and
reads traces as JSON Lines (one event per line - the format every
trace viewer and ``jq`` pipeline can consume), strips wall-clock
fields for determinism comparisons, and merges the per-run traces a
parallel sweep produces into one stream ordered by canonical RunSpec
position.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterable, List, Sequence, Union

from ..exceptions import ConfigurationError

#: Event fields measured from the executing machine's clock.  They are
#: the only fields allowed to differ between two executions of the same
#: deterministic run (serial vs parallel, this machine vs another).
WALL_CLOCK_FIELDS = ("start_s", "duration_s")


def canonical_events(events: Iterable[Dict[str, Any]]
                     ) -> List[Dict[str, Any]]:
    """A trace with wall-clock fields removed.

    Two executions of the same deterministic run must produce *equal*
    canonical traces - the property the serial/parallel equivalence
    tests assert.  Input events are not mutated.
    """
    out: List[Dict[str, Any]] = []
    for event in events:
        out.append({key: value for key, value in event.items()
                    if key not in WALL_CLOCK_FIELDS})
    return out


def write_jsonl(path: Union[str, Path],
                events: Iterable[Dict[str, Any]]) -> Path:
    """Write a trace as JSON Lines; returns the resolved path.

    Parent directories are created as needed.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with target.open("w") as handle:
        for event in events:
            handle.write(json.dumps(event, sort_keys=True))
            handle.write("\n")
    return target


def read_jsonl(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Read a JSON Lines file back into a list of objects.

    The one JSONL reader: traces, decision journals and run ledgers
    all load through it.  Blank lines are skipped.

    Raises:
        ConfigurationError: naming ``file:line`` of a line that is not
            a JSON object.
    """
    events: List[Dict[str, Any]] = []
    with Path(path).open(encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError as error:
                raise ConfigurationError(
                    f"{path}:{lineno}: not valid JSON: {error}") from error
            if not isinstance(event, dict):
                raise ConfigurationError(
                    f"{path}:{lineno}: expected a JSON object, got "
                    f"{type(event).__name__}")
            events.append(event)
    return events


def collect_sweep_trace(records: Sequence[Any], stream: str = "trace"
                        ) -> List[Dict[str, Any]]:
    """Merge the per-run traces of a sweep into one event stream.

    Each record (duck-typed: ``trace`` / ``algorithm`` / ``x`` /
    ``seed`` attributes, i.e. a :class:`~repro.sim.results.RunRecord`)
    contributes its events annotated with the record's canonical
    position and identity.  Records are visited in the order given -
    the canonical RunSpec order the executor guarantees - so the merged
    stream is deterministic no matter which worker produced which run.
    Untraced records contribute nothing.  ``stream="journal"`` merges
    the decision journals instead (see
    :func:`~repro.telemetry.audit.collect_sweep_journal`).
    """
    return [{**event, "run": run_index, "algorithm": record.algorithm,
             "x": record.x, "seed": record.seed}
            for run_index, record in enumerate(records)
            for event in getattr(record, stream, None) or ()]
