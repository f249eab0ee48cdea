"""Generalization of latency balancing to more than two tiers (§3.1).

The paper sketches the recursion: as long as tier latencies are unequal,
shifting hot pages toward the lowest-latency tier reduces the average
access latency, and the all-equal state is the equilibrium. This module
implements that as a pairwise balancer: each quantum it finds the
lowest- and highest-latency tiers and requests a shift of access
probability from the slow tier to the fast one, sized by a proportional
controller on the latency gap (with the same ``delta`` dead-band as
Algorithm 2 so balanced systems hold still).

It is exposed both standalone (for unit tests on synthetic latencies) and
as a :class:`repro.tiering.base.TieringSystem` via
:class:`MultiTierColloidSystem`, which reuses HeMem-style tracking.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.core.measurement import DEFAULT_EWMA_ALPHA, LatencyMonitor
from repro.core.shift import DEFAULT_DELTA
from repro.errors import ConfigurationError
from repro.pages.migration import MigrationPlan
from repro.pages.selection import select_pages_by_probability
from repro.tiering.base import QuantumContext, QuantumDecision
from repro.tiering.hemem import HememSystem


@dataclass(frozen=True)
class PairwiseShift:
    """One requested probability shift between two tiers."""

    src_tier: int
    dst_tier: int
    dp: float


class MultiTierBalancer:
    """Stateless pairwise latency-balancing policy."""

    def __init__(self, delta: float = DEFAULT_DELTA,
                 gain: float = 0.25, max_dp: float = 0.10) -> None:
        if not 0 < delta < 1:
            raise ConfigurationError("delta must be in (0, 1)")
        if not 0 < gain <= 1:
            raise ConfigurationError("gain must be in (0, 1]")
        if not 0 < max_dp <= 1:
            raise ConfigurationError("max_dp must be in (0, 1]")
        self.delta = float(delta)
        self.gain = float(gain)
        self.max_dp = float(max_dp)

    def compute(self, latencies_ns: Sequence[float],
                tier_shares: Sequence[float]) -> Optional[PairwiseShift]:
        """Shift from the slowest tier to the fastest, or None if balanced.

        Args:
            latencies_ns: Measured per-tier latencies.
            tier_shares: Current per-tier access-probability shares (used
                to cap the shift at what the source tier actually holds).
        """
        lat = np.asarray(latencies_ns, dtype=float)
        shares = np.asarray(tier_shares, dtype=float)
        if lat.shape != shares.shape or lat.ndim != 1 or len(lat) < 2:
            raise ConfigurationError("need aligned per-tier vectors (>=2)")
        if (lat <= 0).any():
            raise ConfigurationError("latencies must be positive")
        fast = int(np.argmin(lat))
        slow = int(np.argmax(lat))
        if lat[slow] - lat[fast] < self.delta * lat[fast]:
            return None
        gap = (lat[slow] - lat[fast]) / lat[fast]
        dp = min(self.gain * gap, self.max_dp, float(shares[slow]))
        if dp <= 0:
            return None
        return PairwiseShift(src_tier=slow, dst_tier=fast, dp=dp)


def find_balanced_split(solver, app, balancer: Optional[MultiTierBalancer]
                        = None, pinned=(), max_rounds: int = 200):
    """Iterate the pairwise balancer against the solver to equilibrium.

    The analytic counterpart of what :class:`MultiTierColloidSystem`
    does online: starting from a uniform split, repeatedly solve for the
    tier latencies and apply the balancer's requested pairwise shift
    until it reports balanced (all latency gaps inside the dead-band).
    Each round's solve is warm-started from the previous round's
    equilibrium — successive rounds differ by at most ``max_dp`` of
    probability, so the fixed point barely moves between them.

    Args:
        solver: An :class:`~repro.memhw.fixedpoint.EquilibriumSolver`
            over two or more tiers.
        app: The application core group.
        balancer: Balancing policy (defaults to ``MultiTierBalancer()``).
        pinned: Pinned (group, tier) pairs, as for ``solver.solve``.
        max_rounds: Round budget before giving up.

    Returns:
        ``(split, equilibrium)`` — the balanced per-tier split and the
        equilibrium solved at it.

    Raises:
        ConvergenceError: If the balancer still requests shifts after
            ``max_rounds`` rounds.
    """
    from repro.errors import ConvergenceError

    if balancer is None:
        balancer = MultiTierBalancer()
    n = solver.n_tiers
    if n < 2:
        raise ConfigurationError("balancing needs at least two tiers")
    split = np.full(n, 1.0 / n)
    warm = None
    for _ in range(max_rounds):
        eq = solver.solve([(app, split)], pinned=pinned,
                          initial_latencies=warm)
        warm = eq.latencies_ns
        shift = balancer.compute(eq.latencies_ns, split)
        if shift is None:
            return split, eq
        split = split.copy()
        split[shift.src_tier] -= shift.dp
        split[shift.dst_tier] += shift.dp
        split = np.clip(split, 0.0, None)
        split = split / split.sum()
    raise ConvergenceError(
        f"pairwise balancing did not settle within {max_rounds} rounds"
    )


class MultiTierColloidSystem(HememSystem):
    """Latency balancing over N tiers, on HeMem-style tracking."""

    name = "multitier-colloid"

    def __init__(self, delta: float = DEFAULT_DELTA, gain: float = 0.25,
                 ewma_alpha: float = DEFAULT_EWMA_ALPHA,
                 **hemem_kwargs) -> None:
        super().__init__(**hemem_kwargs)
        self._balancer = MultiTierBalancer(delta=delta, gain=gain)
        self._ewma_alpha = ewma_alpha
        self._monitor: Optional[LatencyMonitor] = None

    def on_configure(self, machine, static_limit_bytes: int,
                     quantum_ns: float) -> None:
        self._monitor = LatencyMonitor(
            [t.unloaded_latency_ns for t in machine.tiers],
            ewma_alpha=self._ewma_alpha,
        )

    def quantum(self, ctx: QuantumContext) -> QuantumDecision:
        self.update_tracking(ctx)
        if self._monitor is None:
            raise ConfigurationError("system not configured")
        self._monitor.update(ctx.cha)
        if ctx.time_s - self._last_action_s < self.action_period_s:
            return QuantumDecision.idle()
        self._last_action_s = ctx.time_s

        rates = self._monitor.smoothed_rates
        total_rate = float(rates.sum())
        shares = rates / total_rate if total_rate > 0 else (
            np.full(self._monitor.n_tiers, 0.0)
        )
        shift = self._balancer.compute(self._monitor.latencies_ns(), shares)
        if shift is None:
            return QuantumDecision.idle()

        placement = ctx.placement
        probs = self.counters.access_probabilities()
        sizes = placement.pages.sizes_bytes
        candidates = placement.pages.pages_in_tier(shift.src_tier)
        chosen = select_pages_by_probability(
            probs, sizes, candidates, shift.dp, byte_budget=2**62
        )
        if chosen.size == 0:
            return QuantumDecision.idle()
        # Respect destination capacity by trimming the selection.
        free = placement.free_bytes(shift.dst_tier)
        cum = np.cumsum(sizes[chosen])
        fit = int(np.searchsorted(cum, free, side="right"))
        chosen = chosen[:fit]
        self.account("plans", 1)
        return QuantumDecision(plan=MigrationPlan(
            chosen, np.full(len(chosen), shift.dst_tier, dtype=np.int64)
        ))
