"""Algorithm **DynamicRR** (Algorithm 3): online learning of ``C^th``.

Per time slot:

1. The Lipschitz bandit (successive elimination over the discretized
   threshold grid ``Z'``) proposes the minimum per-request share
   ``C^th_t`` (lines 1-9).
2. ``R_t`` is built by sorting pending requests by expected data rate
   and filling while the average round-robin share stays above
   ``C^th_t`` (lines 10-11).
3. **LP-PT** (Eqs. 22-23) is solved over ``R_t``, rounded with the
   ``y/4`` rule, and admitted slot-by-slot - the Heu machinery with LP
   replaced by LP-PT (line 12).  Requests that fail remain pending and
   retry in later slots (preemptive waiting).
4. The slot's settled reward is fed back to the bandit as that arm's
   sample.

Reward attribution is exact: the engine settles a request's reward in
the very slot it starts (its responsiveness ``D_j`` is known after its
first served share), which is the slot whose arm admitted it.

Bandit reward normalization: arm samples are the slot reward divided by
a fixed scale (an estimate of the maximum achievable per-slot reward),
clipped to [0, 1] so the confidence radius calibration applies.

The policy's state is flat over an unbounded slot stream: the bandit's
per-arm statistics, the rounding RNG and the reward scale.  The
learning trajectory - each round's arm and reward - is history, and
the decision journal holds it (``ARM_SELECTED`` and that slot's
``START`` rewards; see :func:`~repro.experiments.report.bandit_rounds`).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..bandits.lipschitz import LipschitzBandit
from ..config import OnlineConfig
from ..requests.request import ARRequest
from ..rng import RngLike, ensure_rng
from ..sim.events import EventKind
from ..solver.interface import solve_lp
from ..telemetry import get_tracer
from ..telemetry.audit import emit, emit_many, get_journal
from ..telemetry.metrics import get_metrics
from .lp_relaxation import build_lp_pt
from .rounding import (DEFAULT_ROUNDING_SCALE, check_max_rounds,
                       round_and_admit)


class DynamicRR:
    """The online learning policy for the dynamic problem.

    Implements the :class:`~repro.sim.online_engine.OnlinePolicy`
    surface; run it with :class:`~repro.sim.online_engine.OnlineEngine`.

    Args:
        online_config: bandit/threshold parameters (paper defaults when
            None).
        rounding_scale: the ``y/4`` divisor.
        max_rounds: rounding passes per slot over the not-yet-admitted
            requests of ``R_t`` (must be >= 1).
        bandit_policy: the finite-arm learner that drives the threshold:
            the paper's successive elimination (``"se"``), or UCB1
            (``"ucb1"``) or epsilon-greedy (``"egreedy"``) for ablations.
        rng: randomness for rounding and realization order.
    """

    name = "DynamicRR"

    def __init__(self, online_config: Optional[OnlineConfig] = None,
                 rounding_scale: float = DEFAULT_ROUNDING_SCALE,
                 max_rounds: int = 24,
                 bandit_policy: str = "se",
                 rng: RngLike = None) -> None:
        if bandit_policy not in ("se", "ucb1", "egreedy"):
            raise ValueError(
                f"bandit_policy must be 'se', 'ucb1' or 'egreedy', got "
                f"{bandit_policy!r}")
        self.config = online_config or OnlineConfig()
        self.config.validate()
        self.rounding_scale = rounding_scale
        self.max_rounds = check_max_rounds(max_rounds)
        self.bandit_policy = bandit_policy
        self._rng = ensure_rng(rng)
        self._engine = None
        self._bandit: Optional[LipschitzBandit] = None
        self._reward_scale = 1.0
        self._selected_this_slot = False

    # ------------------------------------------------------------------
    # OnlinePolicy surface
    # ------------------------------------------------------------------
    def begin(self, engine) -> None:
        """Set up the bandit against the engine's horizon."""
        self._engine = engine
        lo, hi = self.config.threshold_range_mhz
        policy = None
        if self.bandit_policy == "ucb1":
            from ..bandits.ucb import UCB1
            policy = UCB1(num_arms=self.config.num_arms,
                          confidence_scale=self.config.confidence_scale)
        elif self.bandit_policy == "egreedy":
            from ..bandits.epsilon_greedy import EpsilonGreedy
            policy = EpsilonGreedy(num_arms=self.config.num_arms,
                                   rng=self._rng)
        self._bandit = LipschitzBandit(
            low=lo, high=hi, num_arms=self.config.num_arms,
            horizon=engine.clock.horizon_slots,
            policy=policy,
            explore_fraction=0.2,
            confidence_scale=self.config.confidence_scale)
        self._reward_scale = self._estimate_reward_scale(engine)

    def schedule(self, slot: int,
                 pending: Sequence[ARRequest]) -> List:
        """Pick ``R_t``, solve LP-PT, round, and admit."""
        from ..sim.online_engine import Placement  # local: avoid cycle

        engine = self._engine
        assert engine is not None and self._bandit is not None
        self._selected_this_slot = False
        if not pending:
            return []

        tracer = get_tracer()
        with tracer.span("bandit_round", algorithm=self.name):
            threshold = self._bandit.select_value()
            self._selected_this_slot = True
            emit(EventKind.ARM_SELECTED, slot,
                 arm=self._bandit.grid.nearest_arm(threshold),
                 value=threshold)
            get_metrics().set_gauge("bandit_threshold_mhz", threshold)

            from .threshold import select_slot_requests
            r_t = select_slot_requests(pending, engine.total_free_mhz(),
                                       threshold)
        if not r_t:
            return []

        with tracer.span("build_lp", algorithm=self.name):
            waiting = {r.request_id: engine.waiting_ms(r, slot)
                       for r in r_t}
            lp, index = build_lp_pt(engine.instance, r_t, waiting)
        if lp.num_variables == 0:
            return []
        solution = solve_lp(lp)
        admitted = round_and_admit(
            engine.instance, index.options_table(solution.x), r_t,
            self._seeded_ledger(engine, threshold), self._rng,
            scale=self.rounding_scale, max_rounds=self.max_rounds,
            algorithm=self.name, reserve_cap_mhz=threshold)
        return [Placement(request_id=o.request.request_id,
                          station_id=o.assignment.station_id)
                for o in admitted]

    def observe(self, slot: int, slot_reward: float) -> None:
        """Feed the slot's settled reward back to the bandit.

        The learning trajectory is the journal's: each round's
        ``ARM_SELECTED`` (the threshold played), its ``START`` rewards
        and the ``ARM_ELIMINATED`` events emitted here (see
        :func:`~repro.experiments.report.bandit_rounds`).
        """
        if not self._selected_this_slot or self._bandit is None:
            return
        normalized = min(1.0, max(0.0, slot_reward / self._reward_scale))
        journal = get_journal()
        metrics = get_metrics()
        # Every shipped policy exposes active_arms(); a custom one
        # without it simply skips the surviving-arm series.
        active_arms = getattr(self._bandit.policy, "active_arms", None)
        before = (set(active_arms())
                  if (journal.enabled or metrics.enabled)
                  and active_arms is not None else None)
        self._bandit.record(normalized)
        if before is not None:
            self._emit_eliminations(slot, before, set(active_arms()))
        if metrics.enabled and active_arms is not None:
            metrics.set_gauge("bandit_surviving_arms",
                              float(len(active_arms())))

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _emit_eliminations(self, slot: int, before: set,
                           after: set) -> None:
        """Emit an ARM_ELIMINATED for each arm this round's record()
        eliminated.

        The justification payload is the pair the elimination rule
        compared - the arm's UCB and the best LCB over the arms active
        when the decision was made (LCB/UCB values do not change at
        elimination time, only the active flag does).
        """
        eliminated = sorted(before - after)
        if not eliminated:
            return
        policy = self._bandit.policy
        has_bounds = (hasattr(policy, "ucb") and hasattr(policy, "lcb"))
        best_lcb = (max(policy.lcb(a) for a in before)
                    if has_bounds else None)
        emit_many(EventKind.ARM_ELIMINATED, slot, eliminated,
                  lambda arm: dict(
                      arm=arm, value=self._bandit.grid.value(arm),
                      detail=((policy.ucb(arm), best_lcb)
                              if has_bounds else None)))

    def _seeded_ledger(self, engine, threshold_mhz: float):
        """A ledger pre-loaded with the *guaranteed shares* of running
        requests.

        In the round-robin setting a running request is guaranteed
        ``min(demand, C^th)`` - not its full demand - so the prefix
        test of the admission step charges each active request that
        amount.  Capacity beyond the guarantees is elastically shared
        (the engine's RR model stretches processing when shares shrink);
        ``C^th`` is exactly the knob that trades admission count
        against congestion slowdown, which is what the bandit tunes.
        """
        ledger = engine.instance.new_ledger()
        sentinel = 10 ** 9
        for station in engine.station_loads():
            if station.down:
                # Injected outage: block the station entirely.
                ledger.reserve(sentinel, station.station_id,
                               station.capacity_mhz)
                continue
            reserved = min(station.active_count * threshold_mhz,
                           station.capacity_mhz)
            if reserved > 0:
                ledger.reserve(sentinel, station.station_id, reserved)
        return ledger

    def _estimate_reward_scale(self, engine) -> float:
        """A fixed per-slot reward scale for bandit normalization.

        Upper-bounds the sustainable completion rate: the network can
        host at most ``capacity / min_demand`` concurrent requests, each
        completing once per ``stream_duration`` slots.
        """
        cfg_req = engine.instance.config.requests
        min_rate = cfg_req.data_rate_range_mbps[0]
        min_demand = max(min_rate * engine.instance.c_unit, 1e-9)
        concurrent = engine.instance.network.total_capacity_mhz() / min_demand
        per_slot = max(concurrent / cfg_req.stream_duration_slots, 1e-9)
        max_reward = (cfg_req.reward_unit_range[1]
                      * cfg_req.data_rate_range_mbps[1])
        return max(per_slot * max_reward, 1e-9)

    # ------------------------------------------------------------------
    # Checkpoint/restore (streaming service)
    # ------------------------------------------------------------------
    def export_state(self) -> dict:
        """Snapshot everything :meth:`begin` initializes plus the
        bandit's arm statistics."""
        import copy

        return {
            "bandit": copy.deepcopy(self._bandit),
            "rng_state": self._rng.bit_generator.state,
            "reward_scale": self._reward_scale,
            "selected_this_slot": self._selected_this_slot,
        }

    def restore_state(self, state: dict) -> None:
        """Install a snapshot produced by :meth:`export_state`.

        Call after :meth:`begin` (which binds the engine); this
        overwrites the fresh learning state with the checkpointed one.
        """
        self._bandit = state["bandit"]
        self._rng.bit_generator.state = state["rng_state"]
        self._reward_scale = state["reward_scale"]
        self._selected_this_slot = state["selected_this_slot"]
        # EpsilonGreedy shares the policy RNG with the rounding RNG at
        # construction; re-bind so the restored run keeps sharing it.
        if self._bandit is not None and self._bandit.policy is not None \
                and hasattr(self._bandit.policy, "_rng"):
            self._bandit.policy._rng = self._rng

    # Introspection -----------------------------------------------------
    @property
    def bandit(self) -> Optional[LipschitzBandit]:
        """The threshold bandit of the current/most recent run."""
        return self._bandit

    def current_threshold_mhz(self) -> Optional[float]:
        """The bandit's current exploitation choice."""
        if self._bandit is None:
            return None
        return self._bandit.best_value()
