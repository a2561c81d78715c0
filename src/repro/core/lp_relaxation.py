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

The model is the block matrix over the index sets J x I x L, emitted
from index arrays.  A *block* is the ``L_i`` contiguous columns of one
feasible (request, station) pair.  Each station has ``L_i + 1``
candidate rows - the prefix rows ``m = 1..L_i`` of Eq. (10)/(23), then
its capacity row - and every (block, candidate row) pair at a station
contributes the block's first ``m`` (or all ``L_i``) columns with the
request's truncated rate, when that rate is positive.  One pass over
those pairs yields every row; a candidate row with no entry is not
emitted.

Only the expectations stay scalar: each reward prefix and each
truncated rate is one 1-D dot, exactly as
:meth:`~repro.requests.distributions.RateRewardDistribution.expected_reward_within`
and ``expected_truncated_rate`` compute it, because a batched product
would round differently.  A request's reward prefixes (one per number
of rates that fit) are computed once per distribution
(:meth:`~repro.requests.distributions.RateRewardDistribution.reward_prefixes`),
so a request that stays pending is not re-priced every round.  Variable
and constraint names are produced only when a caller asks for them.

Every call builds a fresh model; DynamicRR builds one LP-PT per round.
What the build reads that does not depend on the round's requests is
cached on the instance
(:meth:`~repro.core.instance.ProblemInstance.derived`) and read by every
later build; nothing else is carried between rounds:

* per instance, every station's candidate rows before the fair-share
  cap of LP-PT, and per station slot the largest rate that fits the
  capacity left after the slot offset;
* per instance and |R_t| (the plain LP is its own entry), the distinct
  fair-share-capped row caps and each row's cap, and, per rate support
  (:attr:`~repro.requests.distributions.RateRewardDistribution.support_key`:
  requests drawn on one :class:`~repro.requests.distributions.RateGrid`
  share it), how many rates fit each station slot (one
  ``searchsorted`` on the sorted support) and ``E[min(rho, cap)]`` at
  every cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import ConfigurationError
from ..requests.distributions import _PROB_TOL
from ..requests.request import ARRequest
from ..solver.model import LinearProgram
from .instance import ProblemInstance

#: Slack factor on the prefix-demand constraint (the ``2`` in Eq. 10).
PREFIX_SLACK = 2.0

#: LP mass at or below this is no option (it also absorbs the solver's
#: tiny negative noise); see :func:`repro.core.rounding.randomized_round`.
MASS_TOL = 1e-9


@dataclass(frozen=True)
class LpIndex:
    """Maps LP columns back to (request, station, slot) triples.

    Attributes:
        request_id, station_id, slot: int arrays, one entry per column.
        ranges: request_id -> its contiguous column range, for every
            request of the build in input order (empty when no station
            meets its deadline).
    """

    request_id: np.ndarray
    station_id: np.ndarray
    slot: np.ndarray
    ranges: Mapping[int, range]

    def variable_names(self) -> List[str]:
        """``y_{rid}_{sid}_{slot}`` per column."""
        return [f"y_{rid}_{sid}_{slot}" for rid, sid, slot in zip(
            self.request_id.tolist(), self.station_id.tolist(),
            self.slot.tolist())]

    def options_table(self, x: np.ndarray
                      ) -> Dict[int, List[Tuple[int, int, float]]]:
        """``request_id -> [(station, slot, mass), ...]`` of solution `x`
        for every request of the build, in column order, without the
        options of mass at or below :data:`MASS_TOL`."""
        table: Dict[int, List[Tuple[int, int, float]]] = {
            rid: [] for rid in self.ranges}
        keep = np.flatnonzero(x > MASS_TOL)
        for rid, option in zip(self.request_id[keep].tolist(),
                               zip(self.station_id[keep].tolist(),
                                   self.slot[keep].tolist(),
                                   x[keep].tolist())):
            table[rid].append(option)
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


@dataclass(frozen=True)
class _StationRows:
    """Every station's candidate rows, in ``network.station_ids`` order.

    Station ``p`` owns rows ``row_first[p] .. row_first[p] + L_p``: the
    prefix rows ``m = 1..L_p`` of Eq. (10)/(23), then its capacity row.
    They depend on the network alone, so :func:`_station_rows` builds
    them once per instance; the arrays are read-only.
    """

    station_ids: np.ndarray
    position: Mapping[int, int]
    num_slots: np.ndarray
    capacity: np.ndarray
    row_first: np.ndarray
    row_station: np.ndarray
    row_m: np.ndarray
    is_capacity: np.ndarray
    row_width: np.ndarray
    row_rhs: np.ndarray
    #: The truncation cap of each row before any fair share (rate space).
    row_cap: np.ndarray
    #: Station ``p``'s slots are ``slot_first[p] .. slot_first[p] + L_p``
    #: in :attr:`slot_limit`.
    slot_first: np.ndarray
    #: Per station slot ``l``, the largest rate whose demand fits the
    #: capacity left after the slot offset, plus :data:`_PROB_TOL`.
    slot_limit: np.ndarray


def _station_rows(instance: ProblemInstance) -> _StationRows:
    """The instance's :class:`_StationRows`, built on first use."""

    def build() -> _StationRows:
        network = instance.network
        slot_size, c_unit = instance.slot_size_mhz, instance.c_unit
        stations = [network.station(sid) for sid in network.station_ids]
        num_slots = np.array([bs.num_slots(slot_size) for bs in stations],
                             dtype=np.int64)
        capacity = np.array([bs.capacity_mhz for bs in stations],
                            dtype=float)
        capacity_rate = capacity / c_unit
        row_first = np.cumsum(num_slots + 1) - (num_slots + 1)
        row_station = np.repeat(np.arange(num_slots.size), num_slots + 1)
        row_m = np.arange(row_station.size) - row_first[row_station] + 1
        is_capacity = row_m > num_slots[row_station]
        threshold = row_m * slot_size / c_unit
        slot_first = np.cumsum(num_slots) - num_slots
        slot_station = np.repeat(np.arange(num_slots.size), num_slots)
        slot = np.arange(slot_station.size) - slot_first[slot_station]
        arrays = dict(
            station_ids=np.array([bs.station_id for bs in stations],
                                 dtype=np.int64),
            num_slots=num_slots, capacity=capacity, row_first=row_first,
            row_station=row_station, row_m=row_m, is_capacity=is_capacity,
            row_width=np.where(is_capacity, num_slots[row_station], row_m),
            row_rhs=np.where(is_capacity, capacity_rate[row_station],
                             PREFIX_SLACK * threshold),
            row_cap=np.where(is_capacity, capacity_rate[row_station],
                             threshold),
            slot_first=slot_first,
            slot_limit=((capacity[slot_station] - slot * slot_size) / c_unit
                        + _PROB_TOL))
        for array in arrays.values():
            array.flags.writeable = False
        return _StationRows(
            position={bs.station_id: p for p, bs in enumerate(stations)},
            **arrays)

    return instance.derived("lp_station_rows", build)


class _CountTables:
    """What a build reads that depends on the instance, the fair-share
    count and a rate support alone; see :func:`_count_tables`."""

    __slots__ = ("stations", "caps", "row_cap_at", "_supports")

    def __init__(self, stations: _StationRows, caps: np.ndarray,
                 row_cap_at: np.ndarray) -> None:
        self.stations = stations
        #: The distinct row caps, ascending (rate space).
        self.caps = caps
        #: Each candidate row's position in :attr:`caps`.
        self.row_cap_at = row_cap_at
        #: support key -> (rates, probabilities, fits, truncated).
        self._supports: Dict[Tuple[int, int], Tuple[np.ndarray, ...]] = {}

    def support(self, key: Tuple[int, int], rates: np.ndarray,
                probs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(fits, truncated)`` of one support, computed once.

        ``fits`` holds, per station slot, how many rates fit the
        capacity left after the slot offset (one ``searchsorted`` on
        the sorted support); ``truncated`` holds ``E[min(rho, cap)]``
        per cap, one dot each as ``expected_truncated_rate`` takes it.
        `key` is the support's
        :attr:`~repro.requests.distributions.RateRewardDistribution.support_key`;
        the entry keeps `rates` and `probs` (views of the keyed
        arrays), so no other support can reuse their ids.
        """
        entry = self._supports.get(key)
        if entry is None:
            fits = np.searchsorted(rates, self.stations.slot_limit,
                                   side="right")
            truncated = np.array(list(map(probs.dot, np.minimum(
                rates, self.caps[:, None]))), dtype=float)
            fits.flags.writeable = truncated.flags.writeable = False
            entry = self._supports[key] = (rates, probs, fits, truncated)
        return entry[2], entry[3]


def _count_tables(instance: ProblemInstance,
                  fair_share_count: Optional[int]) -> _CountTables:
    """The :class:`_CountTables` of the plain LP (`fair_share_count`
    None) or of an LP-PT over that many requests, built once per
    instance and count."""

    def build() -> _CountTables:
        stations = _station_rows(instance)
        row_cap = stations.row_cap
        if fair_share_count is not None:
            share = stations.capacity / (fair_share_count * instance.c_unit)
            row_cap = np.minimum(row_cap, share[stations.row_station])
        caps, row_cap_at = np.unique(row_cap, return_inverse=True)
        caps.flags.writeable = row_cap_at.flags.writeable = False
        return _CountTables(stations, caps, row_cap_at)

    return instance.derived(f"lp_count_tables_{fair_share_count}", build)


def _build_model(lp: LinearProgram, instance: ProblemInstance,
                 requests: Sequence[ARRequest],
                 waiting: Mapping[int, float],
                 fair_share_count: Optional[int]) -> LpIndex:
    """Assemble the slot-indexed LP into `lp`; returns its index."""
    tables = _count_tables(instance, fair_share_count)
    stations = tables.stations
    station_ids, position = stations.station_ids, stations.position
    num_slots, row_station = stations.num_slots, stations.row_station
    row_width, row_rhs = stations.row_width, stations.row_rhs

    # Blocks: one per feasible (request, station), in column order.
    block_req: List[int] = []
    block_station: List[int] = []
    for r, request in enumerate(requests):
        feasible = [position[sid] for sid in instance.latency.
                    feasible_stations(request,
                                      waiting.get(request.request_id, 0.0))]
        block_req += [r] * len(feasible)
        block_station += feasible
    block_req_arr = np.array(block_req, dtype=np.int64)
    block_station_arr = np.array(block_station, dtype=np.int64)
    block_width = num_slots[block_station_arr]
    block_first = np.cumsum(block_width) - block_width
    request_end = np.cumsum(np.bincount(
        block_req_arr, weights=block_width,
        minlength=len(requests)).astype(np.int64)).tolist()
    ranges: Dict[int, range] = dict(zip(
        (request.request_id for request in requests),
        map(range, [0] + request_end[:-1], request_end)))
    if len(ranges) != len(requests):
        raise ConfigurationError("LP requests must have distinct ids")

    # The distinct supports of the requests with columns (requests
    # drawn on one RateGrid share one) and each such request's reward
    # prefixes, padded to the longest support.
    dists = [request.distribution for request in requests]
    support_at: Dict[Tuple[int, int], int] = {}
    fit_rows: List[np.ndarray] = []
    trunc_rows: List[np.ndarray] = []
    support_of = np.zeros(len(requests), dtype=np.int64)
    used = sorted(set(block_req))
    prefixes = np.zeros((len(requests), max(
        (dists[r].num_levels for r in used), default=0) + 1))
    for r in used:
        key = dists[r].support_key
        at = support_at.get(key)
        if at is None:
            at = support_at[key] = len(fit_rows)
            fits, truncated = tables.support(key, dists[r].rates_mbps,
                                             dists[r].probabilities)
            fit_rows.append(fits)
            trunc_rows.append(truncated)
        support_of[r] = at
        reward_prefixes = dists[r].reward_prefixes()
        prefixes[r, :reward_prefixes.size] = reward_prefixes

    # Columns and their Eq. (8) objective: the reward prefix over the
    # ``k`` rates that fit the capacity left after the slot offset.
    col_block = np.repeat(np.arange(block_first.size), block_width)
    col_req = block_req_arr[col_block]
    col_station = block_station_arr[col_block]
    col_slot = np.arange(col_block.size) - block_first[col_block]
    fits = np.array(fit_rows, dtype=np.int64).reshape(
        len(fit_rows), stations.slot_limit.size)[
        support_of[col_req], stations.slot_first[col_station] + col_slot]
    index = LpIndex(request_id=np.array([r.request_id for r in requests],
                                        dtype=np.int64)[col_req],
                    station_id=station_ids[col_station],
                    slot=col_slot, ranges=ranges)
    lp.add_columns(np.zeros(col_block.size), np.ones(col_block.size),
                   prefixes[col_req, fits], index.variable_names)

    # Constraint (9): each request starts in at most one slot; its
    # columns are one contiguous range, and the ranges tile all columns.
    chosen = [(rid, cols) for rid, cols in ranges.items() if cols]
    choice_nnz = np.array([len(cols) for _, cols in chosen], dtype=np.int64)

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
    #
    # Pairs (block, candidate row of its station), by row: each row
    # takes its station's blocks in ascending order, so columns ascend
    # in a row.
    by_station = np.argsort(block_station_arr, kind="stable")
    at_station = np.bincount(block_station_arr, minlength=num_slots.size)
    row_blocks = at_station[row_station]
    pair_first = np.cumsum(row_blocks) - row_blocks
    pair_row = np.repeat(np.arange(row_station.size), row_blocks)
    pair_block = by_station[
        np.arange(pair_row.size)
        + np.repeat((np.cumsum(at_station) - at_station)[row_station]
                    - pair_first, row_blocks)]
    # E[min(rho, cap)] of the block's support at the row's cap.
    coef = np.array(trunc_rows, dtype=float).reshape(
        len(trunc_rows), tables.caps.size)[
        support_of[block_req_arr[pair_block]], tables.row_cap_at[pair_row]]
    keep = coef > 0
    pair_block, pair_row, coef = pair_block[keep], pair_row[keep], coef[keep]
    width = row_width[pair_row]
    row_nnz = np.bincount(pair_row, weights=width,
                          minlength=row_station.size).astype(np.int64)
    rows = np.flatnonzero(row_nnz)
    entry_start = np.cumsum(width) - width
    cols = (np.repeat(block_first[pair_block] - entry_start, width)
            + np.arange(int(width.sum())))

    def row_names() -> List[str]:
        names = [f"choice_{rid}" for rid, _ in chosen]
        for sid, m, cap_row in zip(station_ids[row_station[rows]].tolist(),
                                   stations.row_m[rows].tolist(),
                                   stations.is_capacity[rows].tolist()):
            names.append(f"capacity_{sid}" if cap_row
                         else f"prefix_{sid}_{m}")
        return names

    lp.add_rows(
        np.concatenate([choice_nnz, row_nnz[rows]]),
        np.concatenate([np.arange(col_block.size), cols]),
        np.concatenate([np.ones(col_block.size), np.repeat(coef, width)]),
        "<=",
        np.concatenate([np.ones(choice_nnz.size), row_rhs[rows]]),
        row_names)
    return index


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
        ``(lp, index)`` - the model and its column index.
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
