"""Closed-loop rate/latency equilibrium solver.

Given a machine (tiers + latency curves), one or more application core
groups whose traffic splits across tiers according to their page
placements, any pinned core groups (the antagonist), and extra per-tier
traffic (page migrations), this module solves the coupled system

    per-core demand rate  =  N * 64 / L_avg          (closed loop, §3.1)
    tier utilization      =  wire traffic / B_eff(mix)
    tier latency          =  curve(utilization)
    L_avg                 =  sum_i  p_i * L_i

by damped fixed-point iteration on the tier latencies. The curves are
monotone increasing in utilization and demand is monotone decreasing in
latency, so the composite map has a unique fixed point which the damped
iteration finds reliably; damping is adapted downward whenever the residual
grows.

This is the analytic stand-in for the physical testbed: the paper's own
performance analysis (§2.2) uses exactly these relations to explain its
measurements.

The solve is the simulation loop's dominant cost, so three fast paths
keep it nearly free in steady state (§2.2: the system sits at a steady
state between quanta):

* **Warm starts** — ``solve(..., initial_latencies=...)`` seeds the
  iteration with a nearby known equilibrium (the previous quantum's, or
  the previous point of a sweep) instead of the unloaded latencies. The
  fixed point is unique, so the answer is the same within the solver
  tolerance; only the iteration count collapses.
* **Memoization** — an exact-key LRU cache on the solver returns the
  previously computed :class:`Equilibrium` in O(1) when a quantum
  re-poses the identical system (same app groups, splits, pinned groups,
  and extra traffic; the tier specs are fixed per solver instance).
  Cached results are shared objects: treat an :class:`Equilibrium` as
  immutable. Disable with ``--no-solver-cache`` / ``REPRO_SOLVER_CACHE=0``
  (mirroring ``REPRO_CHECK`` / ``REPRO_METRICS``, so pool workers
  inherit the setting).
* **A vectorized sweep** — per-solve constants (traffic-class
  aggregates, core-group coefficients, tier mix efficiencies) are hoisted
  into arrays once per solve and each iteration is a handful of numpy
  vector operations instead of per-tier Python loops. Floating-point
  addition order is preserved (extra traffic, then the application
  class, then pinned groups, exactly as the per-tier lists were built),
  so the vectorized sweep computes the same floats.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError, ConvergenceError
from repro.memhw.corestate import CoreGroup
from repro.memhw.latency import TierCurveArray, TrafficClass
from repro.memhw.tier import MemoryTierSpec
from repro.units import CACHELINE_BYTES

_MAX_ITERATIONS = 2000
#: Convergence criterion on the max relative latency change per sweep.
#: Public so the invariant checker can bound cached-equilibrium residuals
#: against the same tolerance the solver converged with.
SOLVER_RELATIVE_TOLERANCE = 1e-10
_INITIAL_DAMPING = 0.5
_MIN_DAMPING = 1e-3

#: Default capacity of the per-solver memoization cache (solves).
DEFAULT_SOLVE_CACHE_SIZE = 512

#: Environment variable that switches solve memoization off process-wide
#: (the CLI's ``--no-solver-cache`` sets it to "0" so process-pool
#: workers inherit the setting). Unset means enabled.
SOLVER_CACHE_ENV_VAR = "REPRO_SOLVER_CACHE"

_FALSEY = ("", "0", "false", "no", "off")


def solver_cache_enabled() -> bool:
    """Whether solve memoization is enabled process-wide (default on)."""
    return os.environ.get(SOLVER_CACHE_ENV_VAR,
                          "1").lower() not in _FALSEY


def enable_solver_cache() -> None:
    """Enable solve memoization process-wide (and in child processes)."""
    os.environ[SOLVER_CACHE_ENV_VAR] = "1"


def disable_solver_cache() -> None:
    """Disable solve memoization process-wide (and in child processes)."""
    os.environ[SOLVER_CACHE_ENV_VAR] = "0"


@dataclass(frozen=True)
class AppEquilibrium:
    """One application's share of an equilibrium.

    Attributes:
        avg_latency_ns: Placement-weighted latency this application sees.
        read_rate: Demand-read bandwidth (bytes/ns) of this application;
            the throughput metric for GUPS-style workloads.
        split: The traffic split this application was solved with.
        tier_read_rate: This application's demand reads per tier
            (bytes/ns).
    """

    avg_latency_ns: float
    read_rate: float
    split: np.ndarray
    tier_read_rate: np.ndarray


@dataclass(frozen=True)
class Equilibrium:
    """Solved steady-state of the memory system shared by N >= 1
    applications.

    The aggregate fields describe the hardware (what the CHA observes);
    :attr:`apps` carries each application's own view, in the order the
    applications were passed to :meth:`EquilibriumSolver.solve`.
    Instances may be shared by the solver's memoization cache — treat
    them (including the array attributes) as immutable.

    Attributes:
        latencies_ns: Loaded latency of each tier (CHA-to-memory).
        apps: Per-application views, in input order.
        tier_wire_traffic: Total wire traffic per tier (bytes/ns), including
            writebacks, pinned groups, and extra traffic.
        tier_read_request_rate: Read requests per ns arriving at each tier —
            what the CHA counters observe (applications + antagonist +
            migration reads).
        utilizations: Effective utilization of each tier.
        effective_bandwidths: Mix-dependent achievable bandwidth per tier.
        iterations: Fixed-point iterations used.
    """

    latencies_ns: np.ndarray
    apps: Tuple[AppEquilibrium, ...]
    tier_wire_traffic: np.ndarray
    tier_read_request_rate: np.ndarray
    utilizations: np.ndarray
    effective_bandwidths: np.ndarray
    iterations: int

    @property
    def total_read_rate(self) -> float:
        """Summed demand-read bandwidth across all applications."""
        return float(sum(app.read_rate for app in self.apps))

    @property
    def measured_p(self) -> float:
        """Traffic share of tier 0 as the CHA would measure it.

        This is ``R_D / (R_D + R_A)`` over *all* read requests, which is
        what Algorithm 1 computes from the counters. It includes antagonist
        and migration traffic, exactly as on real hardware.
        """
        total = float(self.tier_read_request_rate.sum())
        if total <= 0:
            return 0.0
        return float(self.tier_read_request_rate[0]) / total


class _SolveProblem:
    """Per-solve constants of the fixed-point map.

    Everything that does not change across iterations is aggregated here
    once, so each sweep is pure array arithmetic. The extra-traffic
    aggregates are accumulated in the per-tier class order (and the
    application and pinned contributions added after, in that order) so
    float addition order — and hence the computed sums — matches the
    historical per-tier list construction exactly. With several
    application groups the additions run in input order, which for one
    group is bit-identical to the historical single-app path.
    """

    __slots__ = ("apps", "pinned", "extra_total", "extra_rand",
                 "extra_write", "extra_read", "extra_req")

    def __init__(self, apps: Sequence[Tuple[CoreGroup, np.ndarray]],
                 pinned: Sequence[Tuple[CoreGroup, int]],
                 extra: Sequence[Sequence[TrafficClass]]) -> None:
        n = len(extra)
        self.apps = tuple(
            (group, split, group.n_cores > 0, group.traffic_multiplier(),
             group.randomness, group.wire_read_fraction(),
             1.0 - group.wire_read_fraction())
            for group, split in apps
        )
        self.pinned = tuple(
            (group, tier_idx, group.traffic_multiplier(), group.randomness,
             group.wire_read_fraction(), 1.0 - group.wire_read_fraction())
            for group, tier_idx in pinned if group.n_cores > 0
        )
        self.extra_total = np.zeros(n)
        self.extra_rand = np.zeros(n)
        self.extra_write = np.zeros(n)
        self.extra_read = np.zeros(n)
        self.extra_req = np.zeros(n)
        for i in range(n):
            for cls in extra[i]:
                self.extra_total[i] += cls.bandwidth
                self.extra_rand[i] += cls.bandwidth * cls.randomness
                self.extra_write[i] += (
                    cls.bandwidth * (1.0 - cls.read_fraction)
                )
                self.extra_read[i] += cls.bandwidth * cls.read_fraction
                self.extra_req[i] += (
                    cls.bandwidth * cls.read_fraction / CACHELINE_BYTES
                )


class EquilibriumSolver:
    """Reusable solver bound to a fixed set of tiers.

    Construction precomputes the per-tier latency curves and mix
    coefficients; :meth:`solve` may then be called many times per
    simulation quantum.

    Args:
        tiers: The memory tiers (fixed for the solver's lifetime; they
            are therefore not part of the memoization key).
        cache_size: LRU capacity of the solve memoization cache.
        use_cache: Explicitly enable/disable memoization; ``None``
            (default) resolves the process-wide ``REPRO_SOLVER_CACHE``
            switch at construction, so pool workers inherit the CLI's
            ``--no-solver-cache``.
        validate_cache_hits: When True, every cache hit re-evaluates one
            fixed-point sweep at the cached latencies and records the
            residual in :attr:`last_hit_residual` — the invariant
            checker's hook for verifying that cached equilibria still
            satisfy the fixed point. Off by default (it costs one sweep
            per hit).
    """

    def __init__(self, tiers: Sequence[MemoryTierSpec],
                 cache_size: int = DEFAULT_SOLVE_CACHE_SIZE,
                 use_cache: Optional[bool] = None,
                 validate_cache_hits: bool = False) -> None:
        if not tiers:
            raise ConfigurationError("at least one tier is required")
        self._tiers: Tuple[MemoryTierSpec, ...] = tuple(tiers)
        self._curve_array = TierCurveArray(self._tiers)
        self._unloaded = np.array(
            [t.unloaded_latency_ns for t in self._tiers], dtype=float
        )
        self._theo_bw = np.array(
            [t.theoretical_bandwidth for t in self._tiers], dtype=float
        )
        self._eff_seq = np.array(
            [t.efficiency_sequential for t in self._tiers], dtype=float
        )
        self._eff_delta = np.array(
            [t.efficiency_random - t.efficiency_sequential
             for t in self._tiers], dtype=float
        )
        self._rw_penalty = np.array(
            [t.rw_penalty for t in self._tiers], dtype=float
        )
        self._duplex = np.array([t.duplex for t in self._tiers],
                                dtype=bool)
        self._any_duplex = bool(self._duplex.any())
        if cache_size < 1:
            raise ConfigurationError("cache_size must be >= 1")
        self._cache: "OrderedDict[tuple, Equilibrium]" = OrderedDict()
        self._cache_size = int(cache_size)
        self._cache_enabled = (solver_cache_enabled() if use_cache is None
                               else bool(use_cache))
        self._validate_cache_hits = bool(validate_cache_hits)
        #: Whether the most recent :meth:`solve` was served from the cache.
        self.last_was_cache_hit = False
        #: Fixed-point residual of the most recent validated cache hit
        #: (None unless ``validate_cache_hits`` and the last solve hit).
        self.last_hit_residual: Optional[float] = None
        self.cache_hits = 0
        self.cache_misses = 0
        from repro.obs.metrics import METRICS

        if METRICS.enabled:
            self._m_iterations = METRICS.histogram(
                "repro_solver_iterations", start=1.0, factor=2.0,
                n_buckets=12,
                help="fixed-point iterations per computed equilibrium "
                     "solve (cache hits excluded)",
            )
            self._m_cache_hits = METRICS.counter(
                "repro_solver_cache_hits_total",
                help="equilibrium solves served from the memoization "
                     "cache",
            )
            self._m_cache_misses = METRICS.counter(
                "repro_solver_cache_misses_total",
                help="equilibrium solves computed by fixed-point "
                     "iteration",
            )
        else:
            self._m_iterations = None
            self._m_cache_hits = None
            self._m_cache_misses = None

    @property
    def tiers(self) -> Tuple[MemoryTierSpec, ...]:
        """The tier specifications this solver was built with."""
        return self._tiers

    @property
    def n_tiers(self) -> int:
        """Number of tiers."""
        return len(self._tiers)

    @property
    def cache_enabled(self) -> bool:
        """Whether this instance memoizes solves."""
        return self._cache_enabled

    def clear_cache(self) -> None:
        """Drop every memoized solve."""
        self._cache.clear()

    def solve(
        self,
        apps: Sequence[Tuple[CoreGroup, Sequence[float]]],
        pinned: Sequence[Tuple[CoreGroup, int]] = (),
        extra_traffic: Optional[Sequence[Sequence[TrafficClass]]] = None,
        initial_latencies: Optional[Sequence[float]] = None,
    ) -> Equilibrium:
        """Solve one shared steady state for N >= 1 application groups.

        Every group closes its own rate/latency loop through its own
        placement split, but all of them load the same tiers — with
        several groups this is the colocation coupling: tier latencies
        (and therefore what the CHA observes) reflect *total* traffic,
        while each application's demand follows only its own
        placement-weighted latency.

        Args:
            apps: ``(core_group, split)`` pairs, one per application, in
                a stable order (the order tenants are declared). Each
                split is the fraction of that application's accesses
                served by each tier; it must be non-negative and sum to 1
                (within tolerance) when the group has any cores.
            pinned: (group, tier index) pairs whose traffic goes entirely
                to one tier (the antagonist).
            extra_traffic: Optional per-tier open-loop traffic classes
                (page-migration reads/writes).
            initial_latencies: Optional warm start — per-tier latencies
                to seed the iteration with (typically a nearby known
                equilibrium, e.g. the previous quantum's). The fixed
                point is unique, so this changes only the iteration
                count, not the answer (within the solver tolerance). It
                is deliberately *not* part of the memoization key.

        Returns:
            The solved :class:`Equilibrium`, whose ``apps`` tuple is in
            input order. With memoization enabled an identical
            configuration returns the cached instance — treat it as
            immutable.

        Raises:
            ConfigurationError: On malformed inputs.
            ConvergenceError: If the damped iteration fails to settle.
        """
        if not apps:
            raise ConfigurationError(
                "at least one application group is required"
            )
        normalized = tuple(
            (group, self._normalize_split(group, split))
            for group, split in apps
        )
        pinned_t = self._normalize_pinned(pinned)
        extra = self._normalize_extra(extra_traffic)
        warm = self._normalize_warm(initial_latencies)

        self.last_was_cache_hit = False
        self.last_hit_residual = None
        key = None
        if self._cache_enabled:
            key = (tuple((group, split.tobytes())
                         for group, split in normalized),
                   pinned_t,
                   tuple(tuple(classes) for classes in extra))
            cached = self._cache_hit(key, normalized, pinned_t, extra)
            if cached is not None:
                return cached

        problem = _SolveProblem(normalized, pinned_t, extra)
        latencies, state, iteration = self._iterate(problem, warm)
        app_states, wire, req, utils, beffs = state
        equilibrium = Equilibrium(
            latencies_ns=latencies,
            apps=tuple(
                AppEquilibrium(avg_latency_ns=avg, read_rate=rate,
                               split=split, tier_read_rate=tier_read)
                for (avg, rate, tier_read), (_, split)
                in zip(app_states, normalized)
            ),
            tier_wire_traffic=wire,
            tier_read_request_rate=req,
            utilizations=utils,
            effective_bandwidths=beffs,
            iterations=iteration,
        )
        self._record_miss(iteration)
        if self._cache_enabled:
            self._cache_store(key, equilibrium)
        return equilibrium

    # -- solve plumbing --------------------------------------------------

    def _normalize_split(self, app: CoreGroup,
                         split: Sequence[float]) -> np.ndarray:
        n = self.n_tiers
        split_arr = np.asarray(split, dtype=float)
        if split_arr.shape != (n,):
            raise ConfigurationError(
                f"split must have {n} entries, got shape {split_arr.shape}"
            )
        if (split_arr < -1e-12).any():
            raise ConfigurationError("split fractions must be non-negative")
        split_arr = np.clip(split_arr, 0.0, None)
        total_split = split_arr.sum()
        if app.n_cores > 0:
            if abs(total_split - 1.0) > 1e-6:
                raise ConfigurationError(
                    f"split must sum to 1, got {total_split}"
                )
            split_arr = split_arr / total_split
        return split_arr

    def _normalize_pinned(
        self, pinned: Sequence[Tuple[CoreGroup, int]],
    ) -> Tuple[Tuple[CoreGroup, int], ...]:
        n = self.n_tiers
        pinned_t = tuple((group, int(tier_idx))
                         for group, tier_idx in pinned)
        for _, tier_idx in pinned_t:
            if not 0 <= tier_idx < n:
                raise ConfigurationError(
                    f"pinned tier index {tier_idx} out of range"
                )
        return pinned_t

    def _normalize_extra(
        self,
        extra_traffic: Optional[Sequence[Sequence[TrafficClass]]],
    ) -> List[List[TrafficClass]]:
        n = self.n_tiers
        if extra_traffic is None:
            return [[] for _ in range(n)]
        if len(extra_traffic) != n:
            raise ConfigurationError(
                "extra_traffic must have one entry per tier"
            )
        return [list(classes) for classes in extra_traffic]

    def _normalize_warm(
        self, initial_latencies: Optional[Sequence[float]],
    ) -> Optional[np.ndarray]:
        if initial_latencies is None:
            return None
        n = self.n_tiers
        warm = np.asarray(initial_latencies, dtype=float)
        if warm.shape != (n,):
            raise ConfigurationError(
                f"initial_latencies must have {n} entries, got shape "
                f"{warm.shape}"
            )
        if not np.isfinite(warm).all() or (warm <= 0).any():
            raise ConfigurationError(
                "initial_latencies must be finite and positive"
            )
        return warm

    def _cache_hit(self, key: tuple,
                   apps: Sequence[Tuple[CoreGroup, np.ndarray]],
                   pinned_t: Tuple[Tuple[CoreGroup, int], ...],
                   extra: Sequence[Sequence[TrafficClass]]):
        cached = self._cache.get(key)
        if cached is None:
            return None
        self._cache.move_to_end(key)
        self.last_was_cache_hit = True
        self.cache_hits += 1
        if self._m_cache_hits is not None:
            self._m_cache_hits.inc()
        if self._validate_cache_hits:
            problem = _SolveProblem(apps, pinned_t, extra)
            check_lat, _ = self._evaluate(problem, cached.latencies_ns)
            self.last_hit_residual = float(np.max(
                np.abs(check_lat - cached.latencies_ns)
                / cached.latencies_ns
            ))
        return cached

    def _iterate(self, problem: _SolveProblem,
                 warm: Optional[np.ndarray]):
        if warm is not None:
            latencies = warm.copy()
        else:
            latencies = self._unloaded.copy()
        damping = _INITIAL_DAMPING
        previous_residual = np.inf
        for iteration in range(1, _MAX_ITERATIONS + 1):
            new_latencies, state = self._evaluate(problem, latencies)
            residual = float(
                np.max(np.abs(new_latencies - latencies) / latencies)
            )
            if residual < SOLVER_RELATIVE_TOLERANCE:
                # The accepted iterate was just evaluated: ``state``
                # already holds the flows at (effectively) the fixed
                # point, so no extra post-convergence sweep is needed.
                latencies = new_latencies
                break
            if residual > previous_residual:
                damping = max(_MIN_DAMPING, damping * 0.5)
            else:
                damping = min(_INITIAL_DAMPING, damping * 1.05)
            previous_residual = residual
            latencies = latencies + damping * (new_latencies - latencies)
        else:
            raise ConvergenceError(
                f"equilibrium did not converge (residual {residual:.3e})"
            )
        return latencies, state, iteration

    def _record_miss(self, iteration: int) -> None:
        self.cache_misses += 1
        if self._m_cache_misses is not None:
            self._m_cache_misses.inc()
            self._m_iterations.observe(iteration)

    def _cache_store(self, key: tuple, equilibrium) -> None:
        self._cache[key] = equilibrium
        if len(self._cache) > self._cache_size:
            self._cache.popitem(last=False)

    def _evaluate(self, problem: _SolveProblem, latencies: np.ndarray):
        """One sweep of the fixed-point map.

        Returns ``(new_latencies, state)`` where ``state`` carries the
        flows computed from the input latencies: ``(app_states,
        tier_wire_traffic, tier_read_request_rate, utilizations,
        effective_bandwidths)``; ``app_states`` holds one
        ``(avg_latency, read_rate, tier_read_rate)`` triple per
        application group, in input order.
        """
        # Per-tier aggregates in historical addition order: extra
        # classes (pre-summed), then the application classes in input
        # order, then pinned groups. ``a.copy(); a += b`` computes the
        # same floats as the historical ``a + b``.
        total = problem.extra_total.copy()
        rand_sum = problem.extra_rand.copy()
        write_sum = problem.extra_write.copy()
        read_sum = problem.extra_read.copy()
        req = problem.extra_req.copy()
        app_states = []
        for group, split, has_cores, mult, rand, wrf, one_minus_wrf in \
                problem.apps:
            if has_cores:
                app_avg_latency = float(np.dot(split, latencies))
                app_read_rate = group.demand_read_rate(app_avg_latency)
            else:
                app_avg_latency = float(latencies[0])
                app_read_rate = 0.0
            app_tier_read = app_read_rate * split
            app_bw = app_tier_read * mult
            total += app_bw
            rand_sum += app_bw * rand
            write_sum += app_bw * one_minus_wrf
            read_sum += app_bw * wrf
            req += app_tier_read / CACHELINE_BYTES
            app_states.append((app_avg_latency, app_read_rate,
                               app_tier_read))
        for group, tier_idx, mult, rand, wrf, one_minus_wrf in \
                problem.pinned:
            rate = group.demand_read_rate(float(latencies[tier_idx]))
            bw = rate * mult
            total[tier_idx] += bw
            rand_sum[tier_idx] += bw * rand
            write_sum[tier_idx] += bw * one_minus_wrf
            read_sum[tier_idx] += bw * wrf
            req[tier_idx] += rate / CACHELINE_BYTES

        nonzero = total > 0.0
        mean_rand = np.zeros_like(total)
        np.divide(rand_sum, total, out=mean_rand, where=nonzero)
        write_share = np.zeros_like(total)
        np.divide(write_sum, total, out=write_share, where=nonzero)
        pattern_eff = self._eff_seq + mean_rand * self._eff_delta
        # write_share of 0.5 corresponds to a 1:1 read/write mix -> full
        # penalty.
        rw_eff = 1.0 - self._rw_penalty * np.minimum(
            1.0, 2.0 * write_share
        )
        beffs = self._theo_bw * pattern_eff * rw_eff
        if self._any_duplex:
            load = np.where(self._duplex,
                            np.maximum(read_sum, write_sum), total)
        else:
            load = total
        utils = np.zeros_like(total)
        np.divide(load, beffs, out=utils, where=beffs > 0.0)
        new_latencies = self._curve_array.latency_ns(utils)
        state = (app_states, total, req, utils, beffs)
        return new_latencies, state
