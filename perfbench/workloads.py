"""The benchmark's workloads: which simulation cells each one runs, and why.

Every cell is a trace-mode :class:`~repro.exec.spec.RunSpec` of a fixed
simulated length, so each commit is timed on equal simulated work (a
steady-mode cell would stop when it decides it has settled, and a change
in convergence would change the work measured). All specs derive from
the ``--seed`` argument; the simulator receives only these specs.

Every cell starts with its GUPS hot set wholly in the alternate tier:
the seed picks the first GUPS seed (``seed * 1000``, ``seed * 1000 + 1``,
...) whose hot region misses the pages the initial default-first fill
puts in the default tier. Where the random hot region lands relative to
that fill otherwise decides most of a run's migration volume and
convergence time (an overlapping hot set needs little promotion), which
would make the simulated metrics a lottery over seeds rather than a
measure of the policies. The seed still moves the hot region within the
alternate tier, the hot-set shift target, the co-runner, and every
sampling and noise stream.

The migration budget is the loop's default (25 MiB per 10 ms quantum,
what ``repro run`` uses), not the budget scaled with the machine: the
scaled budget hides the known hemem+colloid churn at 0x contention,
which ``page-bound`` exists to measure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Tuple

import numpy as np

from repro.exec import execute
from repro.exec.spec import (
    COLOCATION_SYSTEM,
    MachineSpec,
    RunSpec,
    TenantCellSpec,
    WorkloadSpec,
)

#: Simulated seconds per cell: 400 quanta of 10 ms, so a three-cell pass
#: times 1200 ``step()`` calls (enough for a p99 with 12 samples beyond).
CELL_SECONDS = 4.0

#: Simulated time of the mid-run disturbances in ``observed-dynamic``.
DISTURBANCE_S = 2.0


@dataclass(frozen=True)
class Cell:
    """One simulation cell of a workload."""

    label: str
    spec: RunSpec

    @property
    def colocated(self) -> bool:
        return bool(self.spec.tenants)

    @property
    def disturbances_s(self) -> Tuple[float, ...]:
        """Times the run is knocked off its steady state: the start,
        contention steps and hot-set shifts."""
        times = {0.0}
        times.update(t for t, __ in self.spec.contention)
        times.update(self.spec.workload.hot_shift_times_s)
        return tuple(sorted(times))

    @property
    def final_contention(self) -> int:
        return int(self.spec.contention[-1][1])


@dataclass(frozen=True)
class Workload:
    """A named set of cells and the reason the benchmark runs it."""

    name: str
    why: str
    observed: bool
    cells: Callable[[int], Tuple[Cell, ...]]


#: GUPS seeds tried per benchmark seed before giving up.
GUPS_SEED_STRIDE = 1000


def hot_set_starts_in_alternate(spec: RunSpec) -> bool:
    """Whether no GUPS hot page starts in the default tier."""
    loop = execute.build_loop(spec)
    if spec.tenants:
        placements = loop.tenant_placements
        pairs = [(placements[t.name], t.workload) for t in spec.tenants
                 if t.workload.kind == "gups"]
    else:
        pairs = [(loop.placement, spec.workload)]
    return not any(
        np.any(placement.pages.tier[workload.build().hot_mask()] == 0)
        for placement, workload in pairs)


def _with_alternate_start(make_spec: Callable[[int], RunSpec],
                          seed: int) -> RunSpec:
    """``make_spec(gups_seed)`` for the first GUPS seed derived from
    ``seed`` whose hot set starts in the alternate tier."""
    for offset in range(GUPS_SEED_STRIDE):
        spec = make_spec(seed * GUPS_SEED_STRIDE + offset)
        if hot_set_starts_in_alternate(spec):
            return spec
    raise ValueError(f"no GUPS seed for seed {seed} starts its hot set "
                     "in the alternate tier")


def _gups(scale: float, seed: int, shifts=()) -> WorkloadSpec:
    return WorkloadSpec.make("gups", hot_shift_times_s=shifts, scale=scale,
                             seed=seed)


def _cell(system: str, scale: float, seed: int, contention,
          shifts=()) -> Cell:
    label = f"{system}@{'->'.join(str(c) for __, c in contention)}x"
    if shifts:
        label += "+shift"
    return Cell(label, _with_alternate_start(lambda gups_seed: RunSpec(
        system=system,
        workload=_gups(scale, gups_seed, shifts),
        machine=MachineSpec(scale=scale),
        mode="trace",
        contention=tuple(contention),
        seed=seed,
        duration_s=CELL_SECONDS,
    ), seed))


def solver_bound(seed: int) -> Tuple[Cell, ...]:
    # Under 3x contention the solver's memo rarely hits, so the
    # equilibrium solve (memhw) does most of the work; the small machine
    # keeps the page layers cheap.
    return tuple(_cell(system, 0.0625, seed, ((0.0, 3),))
                 for system in ("hemem", "tpp+colloid", "memtis"))


def page_bound(seed: int) -> Tuple[Cell, ...]:
    # Uncontended, the solver mostly hits its memo; tiering decisions,
    # page finders and the executor dominate, and their cost grows with
    # the page count (twice solver-bound's) while the solver's does not.
    return tuple(_cell(system, 0.125, seed, ((0.0, 0),))
                 for system in ("hemem+colloid", "tpp+colloid",
                                "memtis+colloid"))


def observed_dynamic(seed: int) -> Tuple[Cell, ...]:
    # The only workload with the tracer and placement audit on, with
    # ColocatedLoop/solve_multi, and with disturbances that break the
    # solver's warm-start chain and migrate pages both ways.
    scale = 0.0625
    step = _cell("hemem+colloid", scale, seed,
                 ((0.0, 0), (DISTURBANCE_S, 2)))
    shift = _cell("tpp+colloid", scale, seed, ((0.0, 1),),
                  shifts=(DISTURBANCE_S,))
    corunner = WorkloadSpec.make("silo", scale=scale / 2, seed=seed + 1)

    def colocated(gups_seed: int) -> RunSpec:
        primary = _gups(scale / 2, gups_seed)
        return RunSpec(
            system=COLOCATION_SYSTEM,
            workload=primary,
            machine=MachineSpec(scale=scale),
            mode="trace",
            contention=((0.0, 2),),
            seed=seed,
            duration_s=CELL_SECONDS,
            tenants=(
                TenantCellSpec.make("gups", primary, "hemem+colloid"),
                TenantCellSpec.make("silo", corunner, "hemem+colloid"),
            ),
        )

    pair = Cell("gups+silo@2x", _with_alternate_start(colocated, seed))
    return (step, shift, pair)


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        Workload("solver-bound",
                 "3x contention: the solver memo rarely hits, so the "
                 "equilibrium solve (memhw) dominates",
                 observed=False, cells=solver_bound),
        Workload("page-bound",
                 "0x contention, twice the pages: tiering, page finders "
                 "and the executor dominate; shows hemem+colloid churn",
                 observed=False, cells=page_bound),
        Workload("observed-dynamic",
                 "tracer, placement audit and report fold on; contention "
                 "step, hot-set shift and a colocated pair",
                 observed=True, cells=observed_dynamic),
    )
}
