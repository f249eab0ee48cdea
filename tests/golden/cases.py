"""The golden-regression case set and its evaluation.

Each case is a tiny (scale 0.03, seconds-long) but fully representative
run whose :class:`~repro.exec.result.CellResult` is pinned to a
committed JSON fixture. The suite fails whenever a change alters any
simulated number — deliberate behavior changes must refresh the
fixtures (``python -m tests.golden.refresh``) and commit the diff,
which makes every numeric drift reviewable.

Cases cover the three run modes, a two-tenant colocated cell, and a
repeated (n_runs=3) grid cell, the latter pinning the content-hash seed
derivation of :func:`repro.exec.runner.derive_run_seed`.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

from repro.exec.runner import Runner, aggregate, expand_seeds
from repro.exec.spec import COLOCATION_SYSTEM, TenantCellSpec
from repro.experiments.common import (
    ExperimentConfig,
    best_case_spec,
    steady_cell_spec,
    trace_cell_spec,
)
from repro.experiments.colocation import migration_limit, tenant_workloads

#: Where the committed fixtures live.
FIXTURE_DIR = Path(__file__).parent / "fixtures"

#: Geometry/seed shared by every golden case.
GOLDEN = ExperimentConfig(scale=0.03, seed=7)

#: Repetition count for the aggregated grid case.
GRID_RUNS = 3


def _steady(system: str, intensity: int):
    # Golden cells cap at 2 simulated seconds; the default settling
    # floor (max(3, 0.7 * cap)) would exceed the cap, so pin it low.
    spec = steady_cell_spec(system, intensity, GOLDEN, max_duration_s=2.0)
    return dataclasses.replace(spec, min_duration_s=1.0)


def _colocated_trace():
    # GUPS + Silo, both under hemem+colloid, sharing the machine at 2x.
    gups, silo = tenant_workloads(GOLDEN)
    spec = trace_cell_spec(
        COLOCATION_SYSTEM, GOLDEN, duration_s=1.5,
        contention=((0.0, 2),), workload=gups,
        migration_limit_bytes=migration_limit(GOLDEN),
    )
    return dataclasses.replace(spec, tenants=(
        TenantCellSpec.make("gups", gups, "hemem+colloid"),
        TenantCellSpec.make("silo", silo, "hemem+colloid"),
    ))


#: Single-spec cases: name -> RunSpec.
CASES = {
    "steady_hemem_c0": _steady("hemem", 0),
    "steady_hemem_colloid_c3": _steady("hemem+colloid", 3),
    "trace_tpp_colloid_step": trace_cell_spec(
        "tpp+colloid", GOLDEN, duration_s=1.5,
        contention=((0.0, 0), (0.75, 3)),
    ),
    "best_case_c2": best_case_spec(2, GOLDEN),
    "trace_colocated_gups_silo_c2": _colocated_trace(),
}

#: The aggregated case: (name, base spec, n_runs).
GRID_CASE = ("grid_hemem_colloid_c1_x3", _steady("hemem+colloid", 1),
             GRID_RUNS)


def evaluate_case(spec) -> dict:
    """Execute one single-spec case into its fixture payload."""
    result = Runner().run_one(spec)
    return {"spec_hash": spec.content_hash(), "result": result.to_dict()}


def evaluate_grid_case(spec, n_runs: int) -> dict:
    """Execute the repeated case into its fixture payload.

    The derived seeds are part of the payload: a change to the seed
    derivation (or to the spec hash feeding it) shows up as a fixture
    diff even if the aggregate numbers happen to stay close.
    """
    copies = expand_seeds(spec, n_runs)
    results = Runner().run(list(copies))
    agg = aggregate([results[copy] for copy in copies])
    return {
        "spec_hash": spec.content_hash(),
        "seeds": [copy.seed for copy in copies],
        "aggregate": {
            "throughput": agg.throughput,
            "minimum": agg.minimum,
            "maximum": agg.maximum,
            "tail_latencies_ns": list(agg.tail_latencies_ns),
            "tail_default_share": agg.tail_default_share,
        },
    }


def evaluate_all() -> dict:
    """name -> payload for every golden case (singles + grid)."""
    payloads = {name: evaluate_case(spec) for name, spec in CASES.items()}
    name, spec, n_runs = GRID_CASE
    payloads[name] = evaluate_grid_case(spec, n_runs)
    return payloads


def fixture_path(name: str) -> Path:
    return FIXTURE_DIR / f"{name}.json"


def load_fixture(name: str) -> dict:
    return json.loads(fixture_path(name).read_text())


def all_case_names() -> list:
    return [*CASES, GRID_CASE[0]]
