"""Frozen copy of the string-named slot-indexed LP builder (test oracle).

This is the LP / LP-PT builder as it stood before the index-array
rewrite, with the slice of the old dict-row model container it needs:
one ``y_{rid}_{sid}_{slot}`` name per column, one ``dict`` per row, one
memo lookup per truncated rate.  It is kept verbatim so the A/B tests
can prove the array builder hands HiGHS byte-for-byte the same problem.
Do not edit it to follow the library; it is the reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse

from repro.requests.distributions import RateRewardDistribution, _PROB_TOL

PREFIX_SLACK = 2.0


class NamedLinearProgram:
    """The old append-only container: named columns, dict rows."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.lows: List[float] = []
        self.highs: List[float] = []
        self.objs: List[float] = []
        self.rows: List[Tuple[str, Dict[int, float], str, float]] = []

    def add_variables_bulk(self, names, lows, highs, objectives) -> int:
        first = len(self.names)
        self.names.extend(names)
        self.lows.extend(np.asarray(lows, dtype=float).tolist())
        self.highs.extend(np.asarray(highs, dtype=float).tolist())
        self.objs.extend(np.asarray(objectives, dtype=float).tolist())
        return first

    def add_constraint_indexed(self, coeffs: Mapping[int, float],
                               sense: str, rhs: float, name: str) -> None:
        row = dict(zip(map(int, coeffs.keys()), map(float, coeffs.values())))
        row = {idx: coef for idx, coef in row.items() if coef != 0.0}
        self.rows.append((name, row, sense, float(rhs)))

    def variable_names(self) -> List[str]:
        return list(self.names)

    def constraint_names(self) -> List[str]:
        return [name for name, _row, _sense, _rhs in self.rows]

    def objective_vector(self) -> np.ndarray:
        return np.array(self.objs, dtype=float)

    def bounds(self) -> List[Tuple[float, float]]:
        return list(zip(self.lows, self.highs))

    def sparse_rows(self):
        n = len(self.names)
        ub_indptr, ub_indices, ub_data, ub_rhs = [0], [], [], []
        eq_indptr, eq_indices, eq_data, eq_rhs = [0], [], [], []
        for _name, coeffs, sense, rhs in self.rows:
            keys = sorted(coeffs)
            if sense == "==":
                eq_indices.extend(keys)
                eq_data.extend(map(coeffs.__getitem__, keys))
                eq_indptr.append(len(eq_indices))
                eq_rhs.append(rhs)
            elif sense == "<=":
                ub_indices.extend(keys)
                ub_data.extend(map(coeffs.__getitem__, keys))
                ub_indptr.append(len(ub_indices))
                ub_rhs.append(rhs)
            else:
                ub_indices.extend(keys)
                ub_data.extend(-coeffs[k] for k in keys)
                ub_indptr.append(len(ub_indices))
                ub_rhs.append(-rhs)
        a_ub = sparse.csr_array(
            (np.asarray(ub_data, dtype=float),
             np.asarray(ub_indices, dtype=np.int32),
             np.asarray(ub_indptr, dtype=np.int32)),
            shape=(len(ub_rhs), n))
        a_eq = sparse.csr_array(
            (np.asarray(eq_data, dtype=float),
             np.asarray(eq_indices, dtype=np.int32),
             np.asarray(eq_indptr, dtype=np.int32)),
            shape=(len(eq_rhs), n))
        return (a_ub, np.asarray(ub_rhs, dtype=float),
                a_eq, np.asarray(eq_rhs, dtype=float))


def _var_name(request_id: int, station_id: int, slot: int) -> str:
    return f"y_{request_id}_{station_id}_{slot}"


@dataclass(frozen=True)
class NamedLpIndex:
    triples: Mapping[str, Tuple[int, int, int]]
    by_request: Mapping[int, Tuple[str, ...]]

    def options_table(self, values: Mapping[str, float],
                      tol: float = 1e-9
                      ) -> Dict[int, List[Tuple[int, int, float]]]:
        table: Dict[int, List[Tuple[int, int, float]]] = {
            rid: [] for rid in self.by_request}
        get = values.get
        for name, (rid, station_id, slot) in self.triples.items():
            mass = float(get(name, 0.0))
            if mass > tol:
                table[rid].append((station_id, slot, mass))
        return table


class _DistTables:
    __slots__ = ("distribution", "rates", "reward_prefix", "_trunc")

    def __init__(self, distribution: RateRewardDistribution) -> None:
        self.distribution = distribution
        probs = distribution.probabilities
        rewards = distribution.rewards
        self.rates = distribution.rates_mbps
        n = int(self.rates.size)
        self.reward_prefix = np.array(
            [float(probs[:k] @ rewards[:k]) for k in range(n + 1)])
        self._trunc: Dict[float, float] = {}

    def truncated(self, cap: float) -> float:
        value = self._trunc.get(cap)
        if value is None:
            top = self.rates[-1]
            if cap > top:
                value = self.truncated(float(top))
            else:
                value = self.distribution.expected_truncated_rate(cap)
            self._trunc[cap] = value
        return value

    def reward_within(self, max_rates: np.ndarray) -> np.ndarray:
        counts = np.searchsorted(self.rates, max_rates + _PROB_TOL,
                                 side="right")
        return self.reward_prefix[counts]


@dataclass(frozen=True)
class _StationGeometry:
    num_slots: int
    capacity_rate: float
    capacity_mhz: float
    threshold_rates: Tuple[float, ...]
    max_rates: np.ndarray


def _station_geometry(instance) -> Dict[int, _StationGeometry]:
    slot_size = instance.slot_size_mhz
    c_unit = instance.c_unit
    out: Dict[int, _StationGeometry] = {}
    for sid in instance.network.station_ids:
        num_slots = instance.network.num_slots(sid)
        capacity = instance.network.station(sid).capacity_mhz
        offsets = np.arange(num_slots) * slot_size
        out[sid] = _StationGeometry(
            num_slots=num_slots,
            capacity_rate=capacity / c_unit,
            capacity_mhz=capacity,
            threshold_rates=tuple(m * slot_size / c_unit
                                  for m in range(1, num_slots + 1)),
            max_rates=(capacity - offsets) / c_unit)
    return out


@dataclass
class _StationBlocks:
    geometry: _StationGeometry
    first_cols: List[int]
    tables: List[_DistTables]

    def prefix_rows(self, prefix_caps: Sequence[float]
                    ) -> Iterator[Tuple[int, Dict[int, float]]]:
        if not self.first_cols:
            return
        firsts = np.asarray(self.first_cols)
        num_caps = len(prefix_caps)
        trunc = np.empty((len(self.tables), num_caps))
        for i, tab in enumerate(self.tables):
            memo = tab.truncated
            trunc[i] = [memo(cap) for cap in prefix_caps]
        for m in range(1, num_caps + 1):
            col = trunc[:, m - 1]
            mask = col > 0
            if not mask.any():
                continue
            cols = (firsts[mask][:, None] + np.arange(m)).ravel()
            data = np.repeat(col[mask], m)
            yield m, dict(zip(cols.tolist(), data.tolist()))

    def capacity_row(self, cap: float) -> Dict[int, float]:
        num_slots = self.geometry.num_slots
        if not self.first_cols:
            return {}
        firsts = np.asarray(self.first_cols)
        trunc = np.array([tab.truncated(cap) for tab in self.tables])
        mask = trunc > 0
        if not mask.any():
            return {}
        cols = (firsts[mask][:, None] + np.arange(num_slots)).ravel()
        data = np.repeat(trunc[mask], num_slots)
        return dict(zip(cols.tolist(), data.tolist()))


def _row_caps(geometry: _StationGeometry, instance,
              fair_share_count: Optional[int]
              ) -> Tuple[List[float], float]:
    if fair_share_count is None:
        return list(geometry.threshold_rates), geometry.capacity_rate
    share = geometry.capacity_mhz / (fair_share_count * instance.c_unit)
    return ([min(threshold, share)
             for threshold in geometry.threshold_rates],
            min(geometry.capacity_rate, share))


def _build_model(lp: NamedLinearProgram, instance, requests,
                 waiting: Mapping[int, float],
                 fair_share_count: Optional[int]) -> NamedLpIndex:
    geometry = _station_geometry(instance)
    triples: Dict[str, Tuple[int, int, int]] = {}
    by_request: Dict[int, List[str]] = {}
    blocks: Dict[int, _StationBlocks] = {
        sid: _StationBlocks(geometry=geo, first_cols=[], tables=[])
        for sid, geo in geometry.items()}
    concat_cache: Dict[Tuple[int, ...],
                       Tuple[np.ndarray, Tuple[Tuple[int, int], ...]]] = {}

    for request in requests:
        rid = request.request_id
        tab = _DistTables(request.distribution)
        stations = tuple(instance.latency.feasible_stations(
            request, waiting.get(rid, 0.0)))
        if not stations:
            by_request[rid] = []
            continue
        entry = concat_cache.get(stations)
        if entry is None:
            geos = [geometry[sid] for sid in stations]
            spans: List[Tuple[int, int]] = []
            offset = 0
            for geo in geos:
                spans.append((offset, geo.num_slots))
                offset += geo.num_slots
            entry = (np.concatenate([geo.max_rates for geo in geos]),
                     tuple(spans))
            concat_cache[stations] = entry
        concat_max, spans = entry
        ers_all = tab.reward_within(concat_max)
        names: List[str] = []
        for sid, (_offset, num_slots) in zip(stations, spans):
            names.extend(_var_name(rid, sid, slot)
                         for slot in range(num_slots))
        first = lp.add_variables_bulk(names, (0.0,) * len(names),
                                      (1.0,) * len(names), ers_all)
        for sid, (offset, num_slots) in zip(stations, spans):
            for slot in range(num_slots):
                triples[names[offset + slot]] = (rid, sid, slot)
            station = blocks[sid]
            station.first_cols.append(first + offset)
            station.tables.append(tab)
        by_request[rid] = names

    next_first = 0
    for rid, names in by_request.items():
        if names:
            first = next_first
            lp.add_constraint_indexed(
                dict.fromkeys(range(first, first + len(names)), 1.0),
                "<=", 1.0, name=f"choice_{rid}")
        next_first += len(names)

    for sid in instance.network.station_ids:
        station = blocks[sid]
        geo = station.geometry
        prefix_caps, capacity_cap = _row_caps(geo, instance,
                                              fair_share_count)
        for m, coeffs in station.prefix_rows(prefix_caps):
            lp.add_constraint_indexed(
                coeffs, "<=",
                PREFIX_SLACK * geo.threshold_rates[m - 1],
                name=f"prefix_{sid}_{m}")
        coeffs = station.capacity_row(capacity_cap)
        if coeffs:
            lp.add_constraint_indexed(coeffs, "<=", geo.capacity_rate,
                                      name=f"capacity_{sid}")

    return NamedLpIndex(
        triples=triples,
        by_request={rid: tuple(names) for rid, names in by_request.items()})


def build_named_lp_relaxation(instance, requests, waiting_ms=None):
    """The old ``build_lp_relaxation``: ``(model, index)``."""
    lp = NamedLinearProgram()
    index = _build_model(lp, instance, requests, dict(waiting_ms or {}),
                         fair_share_count=None)
    return lp, index


def build_named_lp_pt(instance, requests, waiting_ms=None):
    """The old ``build_lp_pt``: ``(model, index)``."""
    lp = NamedLinearProgram()
    index = _build_model(lp, instance, requests, dict(waiting_ms or {}),
                         fair_share_count=max(len(requests), 1))
    return lp, index
