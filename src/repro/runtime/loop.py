"""The quantum-driven simulation loop, for N >= 1 tenants.

A run hosts one or more **tenants** — each a (workload, tiering system,
placement, executor) tuple with its own controller — on one machine,
coupled through one shared hardware equilibrium. A solo run is simply
the one-tenant case. Each quantum the loop:

1. advances every tenant's workload (possibly changing its
   distribution) and the antagonist schedule;
2. derives each tenant's tier split from its placement and its true
   access distribution;
3. solves one hardware equilibrium over every tenant's demand —
   including last quantum's migration traffic — and integrates the
   CHA/MBM counters;
4. hands each tenant's tiering system its observables and collects a
   migration plan;
5. executes each plan under the tenant's byte budget, remembering the
   copy traffic for the next solve;
6. records metrics per tenant, plus an aggregate record (summed
   throughput, shared latencies) that for one tenant is its own record.

Migration traffic deliberately lands in the *next* quantum's equilibrium:
the copies decided at the end of quantum k physically overlap the
application traffic of quantum k+1 (summed across tenants in declaration
order).

What a tenant sees under colocation:

* Its CHA sample integrates the *machine* equilibrium (total request
  rates, shared loaded latencies — exactly what the hardware counters
  show any observer), while its MBM sample and access feed are scoped
  to its own traffic, as resource-monitoring IDs scope MBM on real
  hardware.
* It migrates only its own pages, inside a private
  :class:`~repro.pages.placement.PlacementState` whose per-tier
  capacities are its grant from the
  :class:`~repro.pages.placement.CapacityArbiter`; migration budgets are
  enforced per tenant by private executors. The machine-level
  ``check_colocation`` invariant closes the loop: grants and placed
  bytes can never over-commit a physical tier.
* Its events are emitted through a
  :class:`~repro.obs.tracer.TenantTracer`, so colocated traces are
  tenant-labeled without any controller knowing about colocation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.check.invariants import (
    NULL_CHECKER,
    Checker,
    checks_enabled,
    find_shift_computer,
)
from repro.errors import ConfigurationError
from repro.memhw.antagonist import antagonist_core_group
from repro.memhw.cha import ChaCounters
from repro.memhw.fixedpoint import EquilibriumSolver
from repro.memhw.mbm import MbmMonitor
from repro.memhw.topology import Machine
from repro.obs.events import TRACE_SCHEMA_VERSION
from repro.obs.metrics import METRICS
from repro.obs.placement import PlacementObserver, placement_audit_enabled
from repro.obs.profile import Counters, PhaseProfiler
from repro.obs.tracer import NULL_TRACER, TenantTracer
from repro.pages.migration import MigrationExecutor
from repro.pages.pagestate import PageArray
from repro.pages.placement import (
    CapacityArbiter,
    PlacementState,
    fill_default_first,
)
from repro.runtime.metrics import MetricsRecorder, QuantumRecord
from repro.tiering.base import QuantumContext, TieringSystem
from repro.tracking.feed import AccessFeed
from repro.units import mib, ms_to_ns
from repro.workloads.base import Workload

#: Default static migration limit: 25 MiB per 10 ms quantum (2.5 GiB/s),
#: in line with the rate limits the evaluated systems configure.
DEFAULT_MIGRATION_LIMIT_PER_QUANTUM = 25 * mib(1)

ContentionSchedule = Union[int, Callable[[float], int]]


def coerce_intensity(value, time_s: Optional[float] = None) -> int:
    """Validate one contention-schedule value to a non-negative int.

    Schedules are user-supplied callables, so their returns are hostile
    input: anything that is not cleanly a non-negative integer (None,
    NaN, infinities, fractional floats, arbitrary objects) raises
    :class:`ConfigurationError` naming the simulated time, instead of
    silently truncating into a wrong antagonist intensity.
    """
    where = ("in the contention schedule" if time_s is None
             else f"from the contention schedule at t={time_s:.3f}s")
    try:
        intensity = int(value)
    except (TypeError, ValueError, OverflowError) as error:
        raise ConfigurationError(
            f"got {value!r} {where}; expected a non-negative integer "
            "intensity"
        ) from error
    if isinstance(value, float) and not value.is_integer():
        raise ConfigurationError(
            f"got non-integer {value!r} {where}; expected a "
            "non-negative integer intensity"
        )
    if intensity < 0:
        raise ConfigurationError(
            f"got negative intensity {value!r} {where}; expected a "
            "non-negative integer"
        )
    return intensity




@dataclass(frozen=True)
class TenantSpec:
    """One tenant of a colocated run.

    Attributes:
        name: Unique tenant label — appears on every tenant-scoped trace
            event, metric series, and report section.
        workload: The tenant's workload instance (owns its page count
            and access distribution).
        system: The tenant's tiering system instance (owns its
            controller state; must not be shared between tenants).
        weight: Optional capacity-arbitration weight; None means the
            tenant's working-set bytes (footprint-proportional grants).
    """

    name: str
    workload: Workload
    system: TieringSystem
    weight: Optional[float] = None


@dataclass
class _Tenant:
    """Runtime state of one tenant (private to the loop)."""

    spec: TenantSpec
    tracer: object
    checker: object
    rng: np.random.Generator
    cha: ChaCounters
    mbm: MbmMonitor
    placement: PlacementState
    executor: MigrationExecutor
    grant: tuple
    copy_read_debt: np.ndarray
    copy_write_debt: np.ndarray
    metrics: MetricsRecorder = field(default_factory=MetricsRecorder)
    placement_obs: Optional[PlacementObserver] = None
    audit_warm: Optional[np.ndarray] = None

    @property
    def name(self) -> str:
        return self.spec.name

    def app_core_group(self):
        """The tenant's core group with its system's throughput scale
        (e.g. MEMTIS hugepage-split TLB pressure) applied."""
        group = self.spec.workload.core_group()
        scale = self.spec.system.throughput_scale()
        if scale != 1.0:
            group = group.with_mlp(group.mlp * scale)
        return group


class SimulationLoop:
    """Binds a machine and N >= 1 tenants into a running simulation.

    Pass either ``workload`` and ``system`` (a solo run) or ``tenants``
    (a colocated run). A solo run is one unlabeled tenant: its events
    carry no ``tenant`` field, its random streams are seeded from
    ``seed`` and ``seed + 1``, and ``workload``/``system``/
    ``placement``/``executor`` name its parts directly. Declared tenants
    are labeled, derive their streams from ``[seed, i]`` and
    ``[seed + 1, i]`` (so adding a tenant never perturbs the others),
    and are checked for cross-tenant conservation every quantum under
    invariant checking. Per-tenant series live in :attr:`tenant_metrics`.

    Args:
        machine: The shared machine.
        workload: The solo run's workload.
        system: The solo run's tiering system.
        quantum_ms: Runtime quantum.
        contention: Antagonist intensity, as an int or a callable of
            simulated time (validated by :func:`coerce_intensity`).
        cha_noise_sigma: Lognormal noise on each tenant's CHA samples.
        migration_limit_bytes: Static per-quantum migration budget,
            enforced per tenant (each tenant has its own executor and
            token bucket, as each real tenant's kernel threads would).
        seed: Base seed of every random stream.
        tracer: Optional tracer.
        profile: Enable the phase profiler (phases aggregate across
            tenants).
        checker: Optional checker override; declared tenants get
            per-tenant checkers that follow its enabled state.
        tenants: Tenant declarations; order is the solve and capacity
            arbitration order and must stay stable for determinism.
    """

    def __init__(
        self,
        machine: Machine,
        workload: Optional[Workload] = None,
        system: Optional[TieringSystem] = None,
        quantum_ms: float = 10.0,
        contention: ContentionSchedule = 0,
        cha_noise_sigma: float = 0.01,
        migration_limit_bytes: int = DEFAULT_MIGRATION_LIMIT_PER_QUANTUM,
        seed: int = 1234,
        tracer=None,
        profile: bool = False,
        checker=None,
        tenants: Optional[Sequence[TenantSpec]] = None,
    ) -> None:
        if quantum_ms <= 0:
            raise ConfigurationError("quantum must be positive")
        if (tenants is None) == (workload is None or system is None):
            raise ConfigurationError(
                "pass a workload and a system, or tenants (not both)"
            )
        self.colocated = tenants is not None
        if not self.colocated:
            tenants = [TenantSpec(workload.name, workload, system)]
        names = [spec.name for spec in tenants]
        if len(set(names)) != len(names):
            raise ConfigurationError(
                f"tenant names must be unique, got {names}"
            )
        if len({id(spec.system) for spec in tenants}) != len(tenants):
            raise ConfigurationError(
                "tenants must not share tiering-system instances"
            )
        self.machine = machine
        self.tracer = NULL_TRACER if tracer is None else tracer
        # Invariant checking: an explicit checker wins; otherwise honor
        # the process-wide REPRO_CHECK switch (the CLI's --check).
        if checker is None:
            checker = (Checker(tracer=self.tracer) if checks_enabled()
                       else NULL_CHECKER)
        self.checker = checker
        self.profiler = PhaseProfiler(enabled=profile)
        self.counters = Counters()
        n_tiers = len(machine.tiers)
        # Fleet metrics (REPRO_METRICS / --metrics). Metric handles are
        # resolved once here; the per-step cost when disabled is a
        # single attribute check on the module-level registry.
        if METRICS.enabled:
            self._m_quantum_wall = METRICS.histogram(
                "repro_quantum_wall_ns", start=1e3, factor=2.0,
                n_buckets=24,
                help="wall-clock nanoseconds per simulation quantum",
            )
            self._m_tier_latency = [
                METRICS.histogram(
                    f"repro_tier{i}_loaded_latency_ns", start=50.0,
                    factor=1.5, n_buckets=24,
                    help=f"CPU-observed loaded latency of tier {i} (ns)",
                )
                for i in range(n_tiers)
            ]
            self._m_quanta = METRICS.counter(
                "repro_quanta_total", help="simulation quanta executed")
            self._m_migrated = METRICS.counter(
                "repro_migrated_bytes_total",
                help="bytes charged to the hardware model as migration "
                     "traffic",
            )
        self.quantum_ns = ms_to_ns(quantum_ms)
        self.quantum_s = quantum_ms / 1e3
        if callable(contention):
            self._contention = contention
        else:
            level = coerce_intensity(contention)
            self._contention = lambda _t: level

        self.solver = EquilibriumSolver(
            machine.tiers, validate_cache_hits=self.checker.enabled
        )
        # Warm start: the previous quantum's solved latencies seed the
        # next solve (the system sits at a steady state between quanta).
        self._warm_latencies: Optional[np.ndarray] = None
        # Placement observability (REPRO_PLACEMENT_AUDIT /
        # --placement-audit): ledger + flow samples each quantum plus a
        # periodic misplacement-gap audit. The audit runs through a
        # private solver with private warm-start state so an audited run
        # is bit-identical to an unaudited one.
        audited = placement_audit_enabled() and self.tracer.enabled
        self._audit_solver: Optional[EquilibriumSolver] = (
            EquilibriumSolver(machine.tiers)
            if audited and n_tiers == 2 else None
        )

        # Arbitrate the shared capacity once, up front: grants are the
        # tenants' placement capacities for the whole run (a lone tenant
        # is granted the whole machine).
        self._capacities = tuple(t.capacity_bytes for t in machine.tiers)
        working_sets = [spec.workload.n_pages * spec.workload.page_bytes
                        for spec in tenants]
        weights = None
        if any(spec.weight is not None for spec in tenants):
            weights = [
                float(spec.weight) if spec.weight is not None else float(ws)
                for spec, ws in zip(tenants, working_sets)
            ]
        grants = CapacityArbiter(self._capacities).grant(working_sets,
                                                         weights=weights)
        self._tenants: List[_Tenant] = []
        for i, (spec, grant) in enumerate(zip(tenants, grants)):
            if self.colocated:
                tenant_tracer = TenantTracer(self.tracer, spec.name)
                tenant_checker = (Checker(tracer=tenant_tracer)
                                  if self.checker.enabled else NULL_CHECKER)
                rng_seed, cha_seed = [seed, i], [seed + 1, i]
            else:
                tenant_tracer, tenant_checker = self.tracer, self.checker
                rng_seed, cha_seed = seed, seed + 1
            pages = PageArray.uniform(spec.workload.n_pages,
                                      spec.workload.page_bytes)
            placement = PlacementState(pages, grant)
            fill_default_first(placement)
            action_period_s = getattr(spec.system, "action_period_s", None)
            if action_period_s:
                burst_quanta = max(2, int(round(action_period_s * 1e3
                                                / quantum_ms)))
            else:
                burst_quanta = 2
            self._tenants.append(_Tenant(
                spec=spec,
                tracer=tenant_tracer,
                checker=tenant_checker,
                rng=np.random.default_rng(rng_seed),
                cha=ChaCounters(
                    n_tiers=n_tiers,
                    noise_sigma=cha_noise_sigma,
                    rng=np.random.default_rng(cha_seed),
                ),
                mbm=MbmMonitor(
                    n_tiers=n_tiers,
                    traffic_multiplier=(
                        spec.workload.core_group().traffic_multiplier()),
                ),
                placement=placement,
                executor=MigrationExecutor(
                    placement, migration_limit_bytes,
                    burst_quanta=burst_quanta,
                    tracer=tenant_tracer,
                ),
                grant=tuple(grant),
                # Copy "debt": bytes of migration traffic not yet charged
                # to the hardware model. Batched migrations (MEMTIS's
                # 500 ms kmigrated) update placement instantly but their
                # copies are streamed at the configured migration rate
                # over the following quanta.
                copy_read_debt=np.zeros(n_tiers),
                copy_write_debt=np.zeros(n_tiers),
                placement_obs=(
                    PlacementObserver(n_tiers=n_tiers, tracer=tenant_tracer)
                    if audited else None),
            ))
            spec.system.attach(placement)
            spec.system.on_configure(machine, migration_limit_bytes,
                                     self.quantum_ns)
        first = self._tenants[0]
        self.workload, self.system = first.spec.workload, first.spec.system
        self.placement, self.executor = first.placement, first.executor
        self._copy_rate_limit = float(migration_limit_bytes)
        # One tenant's records are the run's; several are aggregated.
        self.metrics = (first.metrics if len(self._tenants) == 1
                        else MetricsRecorder())
        self.time_s = 0.0
        self._epoch = 0
        # Last antagonist intensity observed; a change mid-run is the
        # paper's Fig. 4c dynamism and opens a new diagnostics epoch.
        self._last_intensity: Optional[int] = None
        if self.tracer.enabled:
            labels = {}
            if self.colocated:
                labels["tenants"] = [
                    {"tenant": spec.name, "workload": spec.workload.name,
                     "system": spec.system.name}
                    for spec in tenants
                ]
            self.tracer.emit(
                "run_start",
                schema_version=TRACE_SCHEMA_VERSION,
                system="colocation" if self.colocated else system.name,
                workload="+".join(spec.workload.name for spec in tenants),
                n_tiers=n_tiers,
                quantum_ms=quantum_ms,
                migration_limit_bytes=int(migration_limit_bytes),
                **labels,
            )

    # -- introspection ----------------------------------------------------

    @property
    def tenant_names(self) -> List[str]:
        """Tenant names in declaration (and solve) order."""
        return [t.name for t in self._tenants]

    @property
    def tenant_metrics(self) -> Dict[str, MetricsRecorder]:
        """Per-tenant metrics recorders, keyed by tenant name."""
        return {t.name: t.metrics for t in self._tenants}

    @property
    def tenant_placements(self) -> Dict[str, PlacementState]:
        """Per-tenant placements, keyed by tenant name."""
        return {t.name: t.placement for t in self._tenants}

    @property
    def tenant_systems(self) -> Dict[str, TieringSystem]:
        """Per-tenant tiering systems, keyed by tenant name."""
        return {t.name: t.spec.system for t in self._tenants}

    @property
    def tenant_grants(self) -> Dict[str, tuple]:
        """Arbitrated per-tier byte grants, keyed by tenant name."""
        return {t.name: t.grant for t in self._tenants}

    # -- per-quantum cycle ------------------------------------------------

    def _drain_copy_debt(self):
        """Charge up to one quantum's worth of copy traffic this quantum.

        Each tenant's copies ride its own migration budget; the charged
        traffic classes are summed across tenants in declaration order.

        Returns:
            (per-tier traffic-class lists or None, bytes charged per
            tenant) — the migration bandwidth presented to the
            equilibrium solver and the amounts recorded as this
            quantum's migration volume.
        """
        from repro.memhw.latency import TrafficClass

        traffic = None
        charged = []
        for tenant in self._tenants:
            read_debt = tenant.copy_read_debt
            write_debt = tenant.copy_write_debt
            if read_debt.sum() + write_debt.sum() <= 0:
                charged.append(0)
                continue
            # Reads and writes of one copy happen together; scale both
            # sides by the same factor so the rate limit covers moved
            # bytes (the read side), matching the executor's accounting.
            fraction = min(1.0, self._copy_rate_limit
                           / max(read_debt.sum(), 1.0))
            charged_read = read_debt * fraction
            charged_write = write_debt * fraction
            read_debt -= charged_read
            write_debt -= charged_write
            if traffic is None:
                traffic = [[] for _ in range(len(charged_read))]
            for t, classes in enumerate(traffic):
                if charged_read[t] > 0:
                    classes.append(TrafficClass(
                        bandwidth=charged_read[t] / self.quantum_ns,
                        randomness=0.3, read_fraction=1.0,
                    ))
                if charged_write[t] > 0:
                    classes.append(TrafficClass(
                        bandwidth=charged_write[t] / self.quantum_ns,
                        randomness=0.3, read_fraction=0.0,
                    ))
            charged.append(int(charged_read.sum()))
        return traffic, charged

    def _audit_evaluate(self, index: int, apps, antagonist):
        """Steady-state evaluation callback for tenant ``index``'s
        misplacement audit.

        Varies only that tenant's split while holding every other
        tenant's current split (and the antagonist) fixed — the audit
        asks "given everybody else's behavior this quantum, where should
        *this* tenant's pages sit?". Solves on the private audit solver
        with per-tenant warm-start chaining; the loop's solver, cache,
        and warm latencies are never touched, which is what keeps
        audited runs bit-identical.
        """
        solver = self._audit_solver
        tenant = self._tenants[index]

        def evaluate(p: float):
            probe = [
                (group, [p, 1.0 - p] if j == index else split)
                for j, (group, split) in enumerate(apps)
            ]
            eq = solver.solve(probe, pinned=[(antagonist, 0)],
                              initial_latencies=tenant.audit_warm)
            tenant.audit_warm = eq.latencies_ns
            return eq.latencies_ns, eq.apps[index].read_rate

        return evaluate

    def step(self) -> QuantumRecord:
        """Advance every tenant by one quantum; returns the aggregate."""
        t = self.time_s
        tracer = self.tracer
        profiler = self.profiler
        metered = METRICS.enabled
        if metered:
            wall_start = perf_counter_ns()
        if tracer.enabled:
            tracer.time_s = t
        profiler.start()
        tenants = self._tenants
        probs, splits, shifted = [], [], []
        for tenant in tenants:
            workload = tenant.spec.workload
            moved = bool(workload.advance(t))
            # Dynamic workloads report hot-set reshuffles; the event is
            # what lets repro.obs.diagnose segment the run into epochs
            # and judge per-epoch (re)convergence.
            if moved and tracer.enabled:
                self._epoch += 1
                tenant.tracer.emit("workload_shift", epoch=self._epoch)
            tenant_probs = workload.access_probabilities()
            split = tenant.placement.tier_probabilities(tenant_probs)
            # Hardware-managed systems (memory mode) steer traffic
            # without moving pages; they publish the split they produce.
            override_fn = getattr(tenant.spec.system,
                                  "traffic_split_override", None)
            if override_fn is not None:
                override = override_fn()
                if override is not None:
                    split = override
            probs.append(tenant_probs)
            splits.append(split)
            shifted.append(moved)
        intensity = coerce_intensity(self._contention(t), time_s=t)
        if intensity != self._last_intensity:
            previous = self._last_intensity
            self._last_intensity = intensity
            if previous is not None and tracer.enabled:
                self._epoch += 1
                tracer.emit(
                    "contention_change",
                    intensity=intensity,
                    previous=previous,
                    epoch=self._epoch,
                )
        antagonist = antagonist_core_group(intensity,
                                           self.machine.antagonist)
        dt_workload = profiler.lap("workload_advance")

        migration_traffic, charged = self._drain_copy_debt()
        apps = [(tenant.app_core_group(), split)
                for tenant, split in zip(tenants, splits)]
        equilibrium = self.solver.solve(
            apps,
            pinned=[(antagonist, 0)],
            extra_traffic=migration_traffic,
            initial_latencies=self._warm_latencies,
        )
        self._warm_latencies = equilibrium.latencies_ns
        for tenant, app_eq in zip(tenants, equilibrium.apps):
            tenant.cha.observe(equilibrium, self.quantum_ns)
            tenant.mbm.observe_rates(app_eq.tier_read_rate, self.quantum_ns)
        if self.checker.enabled:
            self.checker.check_equilibrium(
                t, equilibrium.latencies_ns, equilibrium.total_read_rate,
                equilibrium.measured_p,
            )
            if self.solver.last_was_cache_hit:
                self.checker.check_solver_cache(
                    t, self.solver.last_hit_residual
                )
        dt_solve = profiler.lap("equilibrium_solve")
        if tracer.enabled:
            tracer.emit(
                "solver_converged",
                iterations=equilibrium.iterations,
                latencies_ns=equilibrium.latencies_ns,
                app_read_rate=equilibrium.total_read_rate,
                measured_p=equilibrium.measured_p,
                cached=self.solver.last_was_cache_hit,
            )
        counters = self.counters
        counters.inc("quanta")
        if self.solver.last_was_cache_hit:
            counters.inc("solver_cache_hits")
        else:
            counters.inc("solver_cache_misses")
            counters.inc("solver_iterations", equilibrium.iterations)

        dt_decide = 0
        dt_migrate = 0
        records = []
        for i, tenant in enumerate(tenants):
            app_eq = equilibrium.apps[i]
            feed = AccessFeed(
                access_probs=probs[i],
                request_rate=app_eq.read_rate / 64.0,
                quantum_ns=self.quantum_ns,
                rng=tenant.rng,
            )
            ctx = QuantumContext(
                time_s=t,
                quantum_ns=self.quantum_ns,
                placement=tenant.placement,
                cha=tenant.cha.sample_and_reset(),
                mbm=tenant.mbm.sample_and_reset(),
                feed=feed,
                rng=tenant.rng,
                tracer=tenant.tracer,
            )
            decision = tenant.spec.system.quantum(ctx)
            dt_decide += profiler.lap("tiering_decision")
            checker = tenant.checker
            if checker.enabled:
                shift = find_shift_computer(tenant.spec.system)
                if shift is not None:
                    checker.check_shift(t, shift)
                # Snapshot after the decision: systems may legitimately
                # reshape the page table (MEMTIS hugepage splits); only
                # the executor's moves must conserve pages.
                snapshot = checker.placement_snapshot(tenant.placement)
            result = tenant.executor.execute(
                decision.plan, self.quantum_ns, decision.budget_bytes
            )
            if checker.enabled:
                checker.check_migration(
                    t, tenant.placement, result, decision.budget_bytes,
                    snapshot,
                )
                checker.check_placement_flows(
                    t, tenant.placement, result, snapshot
                )
            if result.bytes_moved > 0:
                tenant.copy_read_debt += result.read_bytes_per_tier
                tenant.copy_write_debt += result.write_bytes_per_tier
            dt_migrate += profiler.lap("migration_execute")
            if tenant.placement_obs is not None:
                evaluate = None
                audit_key = None
                if (self._audit_solver is not None
                        and tenant.placement_obs.audit_due()):
                    evaluate = self._audit_evaluate(i, apps, antagonist)
                    # The probe equilibrium holds every *other* tenant's
                    # split fixed; the audited tenant's own split is the
                    # probe variable and must stay out of the key.
                    audit_key = (
                        tuple(
                            (group,
                             None if j == i else tuple(map(float, split)))
                            for j, (group, split) in enumerate(apps)
                        ),
                        antagonist,
                    )
                tenant.placement_obs.observe_quantum(
                    access_probs=probs[i],
                    placement=tenant.placement,
                    result=result,
                    p_actual=float(splits[i][0]),
                    evaluate=evaluate,
                    probs_changed=shifted[i],
                    audit_key=audit_key,
                )

            record = QuantumRecord(
                time_s=t,
                throughput=app_eq.read_rate,
                latencies_ns=(
                    equilibrium.latencies_ns + self.machine.cpu_to_cha_ns
                ),
                p_true=float(splits[i][0]),
                p_measured=equilibrium.measured_p,
                app_tier_bandwidth=(
                    app_eq.tier_read_rate * apps[i][0].traffic_multiplier()
                ),
                migration_bytes=charged[i],
                antagonist_intensity=intensity,
            )
            tenant.metrics.record(record)
            records.append(record)
            counters.inc("migrated_bytes", charged[i])
            counters.inc("moves_applied", result.moves_applied)
            counters.inc("moves_deferred", result.moves_deferred)
            counters.inc("moves_skipped", result.moves_skipped)

        # Cross-tenant conservation: the machine-level invariant.
        if self.colocated and self.checker.enabled:
            self.checker.check_colocation(
                t, self._capacities,
                [(tenant.name, tenant.placement) for tenant in tenants],
            )
        if profiler.enabled and tracer.enabled:
            tracer.emit(
                "phase_timing",
                phases={
                    "workload_advance": dt_workload,
                    "equilibrium_solve": dt_solve,
                    "tiering_decision": dt_decide,
                    "migration_execute": dt_migrate,
                },
            )

        if len(records) == 1:
            aggregate = records[0]
        else:
            # Summed throughput/bandwidth, shared latencies,
            # demand-weighted true default-tier share.
            total_rate = sum(r.throughput for r in records)
            if total_rate > 0:
                p_true = sum(r.throughput * r.p_true
                             for r in records) / total_rate
            else:
                p_true = float(np.mean([r.p_true for r in records]))
            aggregate = QuantumRecord(
                time_s=t,
                throughput=total_rate,
                latencies_ns=records[0].latencies_ns,
                p_true=p_true,
                p_measured=equilibrium.measured_p,
                app_tier_bandwidth=sum(r.app_tier_bandwidth
                                       for r in records),
                migration_bytes=sum(charged),
                antagonist_intensity=intensity,
            )
            self.metrics.record(aggregate)
        if metered:
            self._m_quantum_wall.observe(perf_counter_ns() - wall_start)
            for tier, hist in enumerate(self._m_tier_latency):
                hist.observe(float(aggregate.latencies_ns[tier]))
            self._m_quanta.inc()
            self._m_migrated.inc(sum(charged))
        self.time_s = t + self.quantum_s
        return aggregate

    def run(self, duration_s: float) -> MetricsRecorder:
        """Run for ``duration_s`` of simulated time; returns the metrics."""
        if duration_s <= 0:
            raise ConfigurationError("duration must be positive")
        n_quanta = int(round(duration_s / self.quantum_s))
        for __ in range(max(1, n_quanta)):
            self.step()
        return self.metrics

    def emit_run_end(self) -> None:
        """Emit the ``run_end`` trace event with the runtime counters.

        Called by drivers when a run is complete (the loop itself never
        knows — ``run``/``step`` can be called repeatedly). No-op with
        a disabled tracer.
        """
        if not self.tracer.enabled:
            return
        self.tracer.time_s = self.time_s
        self.tracer.emit(
            "run_end",
            simulated_s=self.time_s,
            n_quanta=len(self.metrics),
            counters=self.counters.snapshot(),
        )
