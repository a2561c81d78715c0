"""Resource-slot partitioning and capacity accounting.

The paper's LP relaxation hinges on slicing each base station's
computing capacity ``C(bs_i)`` into ``L = floor(C(bs_i) / C_l)``
*resource slots* of ``C_l`` MHz each (Section IV-A, Fig. 2).  A request
assigned to *starting slot* ``l`` begins consuming resources at offset
``l * C_l`` and may spill across several subsequent slots, because its
realized data rate - and hence its demand - is unknown at assignment
time.

:class:`ResourceSlots` captures the static slot geometry of one
station; :class:`CapacityLedger` tracks dynamic occupancy across the
whole network while algorithms admit, migrate, and release requests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..exceptions import CapacityError, ConfigurationError
from .topology import MECNetwork, slot_count


@dataclass(frozen=True)
class ResourceSlots:
    """Static slot geometry of one base station.

    Attributes:
        capacity_mhz: the station's total capacity ``C(bs_i)``.
        slot_size_mhz: the slot capacity ``C_l``.
    """

    capacity_mhz: float
    slot_size_mhz: float

    def __post_init__(self) -> None:
        if self.capacity_mhz <= 0:
            raise ConfigurationError(
                f"capacity must be positive, got {self.capacity_mhz}")
        if self.slot_size_mhz <= 0:
            raise ConfigurationError(
                f"slot size must be positive, got {self.slot_size_mhz}")

    @property
    def num_slots(self) -> int:
        """``L = floor(C(bs_i) / C_l)``, as :func:`slot_count` rules."""
        return slot_count(self.capacity_mhz, self.slot_size_mhz)

    def slot_offset_mhz(self, slot: int) -> float:
        """Resource offset ``l * C_l`` at which slot `slot` begins.

        Slots are indexed from 0; the paper's ``l``-th slot with
        threshold ``l * C_l`` corresponds to index ``l`` here, i.e. a
        request starting at slot index ``l`` finds ``l * C_l`` MHz
        potentially occupied before it.
        """
        self._check_slot(slot)
        return slot * self.slot_size_mhz

    def remaining_after_mhz(self, slot: int) -> float:
        """Capacity remaining from slot `slot` on: ``C(bs_i) - l*C_l``.

        This is the budget that determines the expected reward
        ``ER_{jil}`` of Eq. (8): only realized rates whose demand fits
        into this remainder earn their reward.
        """
        self._check_slot(slot)
        return self.capacity_mhz - self.slot_offset_mhz(slot)

    def _check_slot(self, slot: int) -> None:
        if not 0 <= slot < self.num_slots:
            raise ConfigurationError(
                f"slot index {slot} out of range [0, {self.num_slots})")


class CapacityLedger:
    """Dynamic occupancy tracker for every station in a network.

    The ledger records, per station, the demands (MHz) of currently
    admitted requests.  It enforces the hard capacity constraint and
    exposes the prefix-occupancy test of Algorithm 1 line 6 ("the
    requests assigned so far occupy at most ``l * C_l``").

    Args:
        network: the MEC network whose capacities to track.
    """

    def __init__(self, network: MECNetwork) -> None:
        self._network = network
        self._occupied: Dict[int, float] = {
            sid: 0.0 for sid in network.station_ids}
        self._holdings: Dict[Tuple[int, int], float] = {}

    @property
    def network(self) -> MECNetwork:
        """The tracked network."""
        return self._network

    def occupied_mhz(self, station_id: int) -> float:
        """Total MHz currently occupied at one station."""
        try:
            return self._occupied[station_id]
        except KeyError:
            raise ConfigurationError(
                f"unknown station id {station_id}") from None

    def free_mhz(self, station_id: int) -> float:
        """Remaining free capacity at one station."""
        cap = self._network.station(station_id).capacity_mhz
        return cap - self.occupied_mhz(station_id)

    def holding_mhz(self, request_id: int, station_id: int) -> float:
        """MHz held by one request at one station (0 if none)."""
        return self._holdings.get((request_id, station_id), 0.0)

    def stations_of(self, request_id: int) -> List[int]:
        """Stations where a request currently holds resources."""
        return sorted(sid for (rid, sid), amount in self._holdings.items()
                      if rid == request_id and amount > 0)

    def fits(self, station_id: int, demand_mhz: float) -> bool:
        """Whether `demand_mhz` more MHz fit at the station."""
        if demand_mhz < 0:
            raise ConfigurationError(
                f"demand must be >= 0, got {demand_mhz}")
        return demand_mhz <= self.free_mhz(station_id) + 1e-9

    def prefix_open(self, station_id: int, slot: int) -> bool:
        """Admission test of Algorithm 1 line 6.

        True iff the requests assigned so far to the station occupy at
        most ``l * C_l`` MHz, i.e. starting slot `slot` is still open.

        Raises:
            ConfigurationError: for an unknown station, or a slot outside
                ``[0, L)`` of that station.
        """
        network = self._network
        num_slots = network.num_slots(station_id)
        if not 0 <= slot < num_slots:
            raise ConfigurationError(
                f"slot index {slot} out of range [0, {num_slots})")
        return self.occupied_mhz(station_id) <= (
            slot * network.slot_size_mhz + 1e-9)

    def reserve(self, request_id: int, station_id: int,
                demand_mhz: float) -> None:
        """Reserve `demand_mhz` MHz for a request at a station.

        Raises:
            CapacityError: if the reservation would exceed capacity.
        """
        if demand_mhz < 0:
            raise ConfigurationError(
                f"demand must be >= 0, got {demand_mhz}")
        if not self.fits(station_id, demand_mhz):
            raise CapacityError(
                f"request {request_id} needs {demand_mhz:.1f} MHz at "
                f"station {station_id} but only "
                f"{self.free_mhz(station_id):.1f} MHz are free")
        self._occupied[station_id] += demand_mhz
        key = (request_id, station_id)
        self._holdings[key] = self._holdings.get(key, 0.0) + demand_mhz

    def release(self, request_id: int, station_id: int,
                demand_mhz: float) -> None:
        """Release previously reserved MHz.

        Raises:
            CapacityError: if the request does not hold that much.
        """
        key = (request_id, station_id)
        held = self._holdings.get(key, 0.0)
        if demand_mhz < 0 or demand_mhz > held + 1e-9:
            raise CapacityError(
                f"request {request_id} holds {held:.1f} MHz at station "
                f"{station_id}, cannot release {demand_mhz:.1f}")
        self._holdings[key] = held - demand_mhz
        self._occupied[station_id] -= demand_mhz
        if self._holdings[key] <= 1e-12:
            del self._holdings[key]

    def release_all(self, request_id: int) -> None:
        """Release every holding of one request (idempotent)."""
        for station_id in self.stations_of(request_id):
            self.release(request_id, station_id,
                         self.holding_mhz(request_id, station_id))

    def migrate(self, request_id: int, src: int, dst: int,
                demand_mhz: float) -> None:
        """Atomically move a holding between stations.

        Used by Heu's adjustment step.  Raises :class:`CapacityError`
        (leaving state unchanged) if the destination cannot host it.
        """
        if not self.fits(dst, demand_mhz):
            raise CapacityError(
                f"cannot migrate {demand_mhz:.1f} MHz of request "
                f"{request_id} to station {dst}: only "
                f"{self.free_mhz(dst):.1f} MHz free")
        self.release(request_id, src, demand_mhz)
        self.reserve(request_id, dst, demand_mhz)

    def utilization(self) -> Dict[int, float]:
        """Per-station occupied fraction (0..1)."""
        return {
            sid: self.occupied_mhz(sid)
            / self._network.station(sid).capacity_mhz
            for sid in self._network.station_ids
        }

    def snapshot(self) -> Dict[int, float]:
        """Copy of the per-station occupancy map (MHz)."""
        return dict(self._occupied)
