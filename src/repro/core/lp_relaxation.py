"""The resource-slot-indexed LP relaxation (Eqs. 8-12) and LP-PT (22-23).

The novelty of the paper's relaxation is indexing assignments by the
*starting resource slot*: variable ``y_{jil}`` says request ``r_j``
starts at slot ``l`` of station ``bs_i``.  Two consequences:

* the objective coefficient ``ER_{jil}`` (Eq. 8) only counts reward
  from realizations whose demand fits into the capacity remaining
  *after* the slot offset ``l * C_l`` - large-rate realizations earn
  nothing from deep slots, which kills the incentive to chase rare
  high-reward rates;
* the prefix constraint (Eq. 10) bounds the *truncated* expected demand
  of everything starting at-or-before a slot by twice the slot offset,
  which is exactly what Lemma 2's Markov argument needs.

The delay requirement (Eq. 11) is linear in ``y`` given the waiting
time, so we enforce it by pruning: ``y_{jil}`` is only created when the
placement delay of (j, i) meets the deadline - equivalent for any
binary solution, and tighter for fractional ones.

``LP-PT`` (Eqs. 22-23) is the per-time-slot variant used by DynamicRR:
identical shape, with the truncation additionally capped by the fair
share ``C(bs_i) / |R_t|``.

Build strategy
--------------

The model is assembled from precomputed arrays, not per-coefficient
Python loops: each request's distribution is lowered once into a
:class:`_DistTables` (a reward-prefix table evaluated with the same
slice-and-dot expression as
:meth:`~repro.requests.distributions.RateRewardDistribution.expected_reward_within`,
plus a memo of truncated expected rates per cap), and each station's
slot geometry into per-slot max-rate arrays.  Every coefficient the
model receives is bit-identical to the one the naive per-triple loops
would produce - only the bookkeeping around them is vectorized.

Every call builds a fresh model from scratch; DynamicRR builds one
LP-PT per round and nothing is carried between rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..requests.distributions import RateRewardDistribution, _PROB_TOL
from ..requests.request import ARRequest
from ..solver.model import LinearProgram
from .instance import ProblemInstance

#: Slack factor on the prefix-demand constraint (the ``2`` in Eq. 10).
PREFIX_SLACK = 2.0


def _var_name(request_id: int, station_id: int, slot: int) -> str:
    return f"y_{request_id}_{station_id}_{slot}"


@dataclass(frozen=True)
class LpIndex:
    """Maps LP variables back to (request, station, slot) triples.

    Attributes:
        triples: variable name -> (request_id, station_id, slot).
        by_request: request_id -> list of its variable names.
    """

    triples: Mapping[str, Tuple[int, int, int]]
    by_request: Mapping[int, Tuple[str, ...]]

    def assignment_options(self, values: Mapping[str, float],
                           request_id: int,
                           tol: float = 1e-9
                           ) -> List[Tuple[int, int, float]]:
        """Positive-mass (station, slot, probability) options of a request.

        Args:
            values: an LP solution.
            request_id: the request.
            tol: drop options below this mass.
        """
        options: List[Tuple[int, int, float]] = []
        for name in self.by_request.get(request_id, ()):
            mass = float(values.get(name, 0.0))
            if mass > tol:
                _, station_id, slot = self.triples[name]
                options.append((station_id, slot, mass))
        return options

    def options_table(self, values: Mapping[str, float],
                      tol: float = 1e-9
                      ) -> Dict[int, List[Tuple[int, int, float]]]:
        """Positive-mass options of *every* request, in one pass.

        Returns the same lists (same order) as calling
        :meth:`assignment_options` per request; rounding loops that
        re-query one solution across many rounds use this to avoid the
        per-round re-extraction.
        """
        table: Dict[int, List[Tuple[int, int, float]]] = {
            rid: [] for rid in self.by_request}
        get = values.get
        for name, (rid, station_id, slot) in self.triples.items():
            mass = float(get(name, 0.0))
            if mass > tol:
                table[rid].append((station_id, slot, mass))
        return table


def expected_reward_coefficient(instance: ProblemInstance,
                                request: ARRequest, station_id: int,
                                slot: int) -> float:
    """``ER_{jil}`` of Eq. (8).

    The reward counts only realizations whose demand fits into the
    capacity remaining after the slot offset:
    ``sum_{rho : rho * C_unit <= C(bs_i) - l * C_l} pi_rho * RD_rho``.
    """
    remaining_mhz = instance.slots_of(station_id).remaining_after_mhz(slot)
    max_rate = remaining_mhz / instance.c_unit
    return request.distribution.expected_reward_within(max_rate)


# ----------------------------------------------------------------------
# Precomputed per-distribution / per-station tables
# ----------------------------------------------------------------------
class _DistTables:
    """Cached expectation tables of one request's distribution.

    ``reward_prefix[k]`` is the expected reward counting only the ``k``
    smallest support rates, evaluated with the same contiguous
    slice-and-dot expression as ``expected_reward_within`` so the
    floats are bit-identical to the per-triple evaluation.
    ``truncated()`` memoizes ``expected_truncated_rate`` per cap - the
    prefix rows query the same handful of caps for every station.
    """

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
        """Memoized ``E[min(rho, cap)]`` (exact same float as uncached).

        Caps at or above the support's largest rate all truncate
        nothing - ``np.minimum(rates, cap)`` returns ``rates``
        elementwise exactly - so they share one memo entry.
        """
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
        """Vectorized ``ER`` over a station's per-slot max rates."""
        counts = np.searchsorted(self.rates, max_rates + _PROB_TOL,
                                 side="right")
        return self.reward_prefix[counts]


@dataclass(frozen=True)
class _StationGeometry:
    """Slot geometry of one station, lowered to rate space once."""

    num_slots: int
    capacity_rate: float
    capacity_mhz: float
    #: ``m * C_l / C_unit`` for m = 1..L (Eq. 10 thresholds).
    threshold_rates: Tuple[float, ...]
    #: ``(C(bs_i) - l * C_l) / C_unit`` for l = 0..L-1 (Eq. 8 budgets).
    max_rates: np.ndarray


def _station_geometry(instance: ProblemInstance
                      ) -> Dict[int, _StationGeometry]:
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
    """Column blocks landed at one station, in insertion order.

    Each feasible (request, station) pair contributes one contiguous
    block of ``num_slots`` columns; the prefix row for threshold ``m``
    takes the first ``m`` columns of every block.
    """

    geometry: _StationGeometry
    first_cols: List[int]
    tables: List[_DistTables]

    def prefix_rows(self, prefix_caps: Sequence[float]
                    ) -> Iterator[Tuple[int, Dict[int, float]]]:
        """All non-empty prefix rows at once: yields ``(m, coeffs)``.

        Row ``m`` maps the first ``m`` columns of every block whose
        truncated rate at ``prefix_caps[m - 1]`` is positive to that
        rate, keys ascending (float64 arrays round-trip exactly); the
        batched assembly runs the per-column work in numpy instead of
        per-entry Python.
        """
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


def _row_caps(geometry: _StationGeometry, instance: ProblemInstance,
              fair_share_count: Optional[int]
              ) -> Tuple[List[float], float]:
    """Per-m prefix caps and the capacity-row cap of one station.

    LP-PT (Eq. 23) also caps each by the fair share ``C(bs_i) / |R_t|``
    in rate space; the plain LP passes ``fair_share_count=None``.
    """
    if fair_share_count is None:
        return list(geometry.threshold_rates), geometry.capacity_rate
    share = geometry.capacity_mhz / (fair_share_count * instance.c_unit)
    return ([min(threshold, share)
             for threshold in geometry.threshold_rates],
            min(geometry.capacity_rate, share))


# ----------------------------------------------------------------------
# Model assembly
# ----------------------------------------------------------------------
def _build_model(lp: LinearProgram, instance: ProblemInstance,
                 requests: Sequence[ARRequest],
                 waiting: Mapping[int, float],
                 fair_share_count: Optional[int]) -> LpIndex:
    """Assemble the slot-indexed LP into `lp`; returns its index.

    Byte-compatible with the historical per-triple build: same variable
    and constraint names, same insertion order, same float values.
    """
    geometry = _station_geometry(instance)
    triples: Dict[str, Tuple[int, int, int]] = {}
    by_request: Dict[int, List[str]] = {}
    blocks: Dict[int, _StationBlocks] = {
        sid: _StationBlocks(geometry=geo, first_cols=[], tables=[])
        for sid, geo in geometry.items()}

    # Feasible-station sets repeat heavily across requests; cache each
    # set's concatenated per-slot budget array (one searchsorted per
    # request instead of one per (request, station)).
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

    # Constraint (9): each request starts in at most one slot.  A
    # request's columns are contiguous (its blocks were appended
    # back-to-back), so the row is a pure index range.
    next_first = 0
    for rid, names in by_request.items():
        if names:
            first = next_first
            lp.add_constraint_indexed(
                dict.fromkeys(range(first, first + len(names)), 1.0),
                "<=", 1.0, name=f"choice_{rid}")
        next_first += len(names)

    # Constraints (10)/(23) + the per-station expected-capacity row.
    # The capacity row is a valid per-station bound with no slack
    # factor: any admission policy keeps the realized
    # (capacity-truncated) occupancy within ``C(bs_i)`` in every run,
    # hence in expectation - the LP image of ILP-RM's constraint (4).
    # The optimal policy satisfies it, so adding it preserves Lemma 1
    # (``LPOpt >= Opt``) while forcing the fractional solution to
    # *choose* which requests to carry when the workload exceeds
    # capacity - which is where the expected-reward awareness of the
    # objective actually bites.
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

    return LpIndex(
        triples=triples,
        by_request={rid: tuple(names) for rid, names in by_request.items()})


def build_lp_relaxation(instance: ProblemInstance,
                        requests: Sequence[ARRequest],
                        waiting_ms: Optional[Mapping[int, float]] = None
                        ) -> Tuple[LinearProgram, LpIndex]:
    """Build the slot-indexed **LP** (Eqs. 8-12).

    Args:
        instance: the problem instance.
        requests: the workload to place.
        waiting_ms: per-request waiting time already incurred (the
            ``b_j - a_j`` part of Eq. (2)); defaults to 0 for the
            offline batch problem.

    Returns:
        ``(lp, index)`` - the model and the variable index maps.
    """
    waiting = dict(waiting_ms or {})
    lp = LinearProgram(name="LP", maximize=True)
    index = _build_model(lp, instance, requests, waiting,
                         fair_share_count=None)
    return lp, index


def build_lp_pt(instance: ProblemInstance,
                requests: Sequence[ARRequest],
                waiting_ms: Optional[Mapping[int, float]] = None
                ) -> Tuple[LinearProgram, LpIndex]:
    """Build **LP-PT** (Eqs. 22-23) for one time slot of DynamicRR.

    Identical to the plain LP except that constraint (23) additionally
    truncates each request's expected rate by the fair round-robin
    share ``C(bs_i) / |R_t|`` (expressed in rate space through
    ``C_unit``).  With ``|R_t| = 0`` the model is empty.

    Args:
        instance: the problem instance.
        requests: the slot's selected set ``R_t``.
        waiting_ms: accumulated waiting of each request in ``R_t``.
    """
    waiting = dict(waiting_ms or {})
    lp = LinearProgram(name="LP-PT", maximize=True)
    index = _build_model(lp, instance, requests, waiting,
                         fair_share_count=max(len(requests), 1))
    return lp, index
