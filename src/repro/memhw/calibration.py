"""Calibration of the analytic hardware model against the paper.

The latency-curve parameters in :func:`repro.memhw.topology.paper_testbed`
were chosen to hit the operating points the paper reports for its §2.1
testbed. This module makes those targets explicit, measures how close a
machine gets (:func:`calibration_report`), and can re-fit the free
parameters with ``scipy.optimize.least_squares``
(:func:`calibrate_paper_testbed`).

Targets (all from §2.1/§2.2 and Figure 2a):

* antagonist in isolation: 51% / 65% / 70% of theoretical default-tier
  bandwidth at 5/10/15 cores;
* GUPS (hot set packed in the default tier) + antagonist: default-tier
  CPU latency of ~175 / 266 / 350 ns (2.5x / 3.8x / 5x the 70 ns
  unloaded) at 1x/2x/3x;
* GUPS alone keeps the default tier's latency below the alternate tier's
  (hot-packing is optimal at 0x).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.errors import CalibrationError
from repro.memhw.antagonist import (
    INTENSITY_ISOLATED_SHARE,
    AntagonistSpec,
    antagonist_core_group,
)
from repro.memhw.corestate import CoreGroup
from repro.memhw.fixedpoint import EquilibriumSolver
from repro.memhw.topology import Machine, paper_testbed

#: Default-tier CPU latency inflation targets at 1x/2x/3x (Figure 2a).
LATENCY_INFLATION_TARGETS: Dict[int, float] = {1: 2.5, 2: 3.8, 3: 5.0}

#: Default-tier probability share when the hot set is packed in the
#: default tier and spare capacity holds cold pages (§2.1 geometry).
HOT_PACKED_P = 0.9167


def _gups_group(machine: Machine) -> CoreGroup:
    return CoreGroup("gups", 15, machine.app_base_mlp,
                     randomness=1.0, read_fraction=0.5)


def calibration_report(machine: Optional[Machine] = None) -> Dict[str, Dict]:
    """Measure the calibration targets on ``machine``.

    Returns a nested dict with ``achieved`` and ``target`` values for
    each group of targets; the calibration tests assert band membership.
    """
    if machine is None:
        machine = paper_testbed()
    solver = EquilibriumSolver(machine.tiers)
    app = _gups_group(machine)
    idle_app = CoreGroup("idle", 0, 1.0)

    antagonist_shares = {}
    for level, target in INTENSITY_ISOLATED_SHARE.items():
        if level == 0:
            continue
        ant = antagonist_core_group(level, machine.antagonist)
        eq = solver.solve([(idle_app, [1.0, 0.0])], pinned=[(ant, 0)])
        achieved = float(
            eq.tier_wire_traffic[0] / machine.tiers[0].theoretical_bandwidth
        )
        antagonist_shares[level] = {"achieved": achieved, "target": target}

    unloaded_cpu = machine.cpu_latency_ns(
        machine.tiers[0].unloaded_latency_ns
    )
    inflations = {}
    for level, target in LATENCY_INFLATION_TARGETS.items():
        ant = antagonist_core_group(level, machine.antagonist)
        eq = solver.solve([(app, [HOT_PACKED_P, 1 - HOT_PACKED_P])],
                          pinned=[(ant, 0)])
        achieved = machine.cpu_latency_ns(
            float(eq.latencies_ns[0])
        ) / unloaded_cpu
        inflations[level] = {"achieved": achieved, "target": target}

    eq0 = solver.solve([(app, [HOT_PACKED_P, 1 - HOT_PACKED_P])])
    hot_packing_ok = bool(eq0.latencies_ns[0] < eq0.latencies_ns[1])

    return {
        "antagonist_isolated_share": antagonist_shares,
        "default_latency_inflation": inflations,
        "hot_packing_optimal_at_0x": {
            "achieved": hot_packing_ok, "target": True,
        },
    }


@dataclass(frozen=True)
class CalibrationResult:
    """Outcome of a calibration fit."""

    machine: Machine
    residual_norm: float
    parameters: Dict[str, float]


def calibrate_paper_testbed(
    initial: Optional[Machine] = None,
    max_nfev: int = 60,
) -> CalibrationResult:
    """Fit the free hardware parameters to the paper's targets.

    Free parameters: antagonist per-core MLP, default-tier queueing
    scale, default-tier sequential/random efficiencies. The alternate
    tier's parameters are pinned by its link-level physics.
    """
    from scipy.optimize import least_squares

    base = initial if initial is not None else paper_testbed()

    def build(params: np.ndarray) -> Machine:
        ant_mlp, wq, eff_seq, eff_rand = params
        eff_rand = min(eff_rand, eff_seq - 1e-3)
        default = dataclasses.replace(
            base.tiers[0],
            queueing_scale_ns=float(wq),
            efficiency_sequential=float(eff_seq),
            efficiency_random=float(eff_rand),
        )
        return dataclasses.replace(
            base,
            tiers=(default, base.tiers[1]),
            antagonist=AntagonistSpec(
                mlp_per_core=float(ant_mlp),
                randomness=base.antagonist.randomness,
                read_fraction=base.antagonist.read_fraction,
            ),
        )

    def residuals(params: np.ndarray) -> np.ndarray:
        machine = build(params)
        report = calibration_report(machine)
        res = []
        for level, entry in report["antagonist_isolated_share"].items():
            res.append(entry["achieved"] - entry["target"])
        for level, entry in report["default_latency_inflation"].items():
            res.append(
                (entry["achieved"] - entry["target"]) / entry["target"]
            )
        return np.asarray(res)

    x0 = np.array([
        base.antagonist.mlp_per_core,
        base.tiers[0].queueing_scale_ns,
        base.tiers[0].efficiency_sequential,
        base.tiers[0].efficiency_random,
    ])
    fit = least_squares(
        residuals, x0,
        bounds=([4.0, 1.0, 0.5, 0.3], [64.0, 120.0, 0.99, 0.95]),
        max_nfev=max_nfev,
    )
    if not fit.success and fit.status <= 0:
        raise CalibrationError(f"calibration failed: {fit.message}")
    machine = build(fit.x)
    return CalibrationResult(
        machine=machine,
        residual_norm=float(np.linalg.norm(fit.fun)),
        parameters={
            "antagonist_mlp": float(fit.x[0]),
            "default_queueing_scale_ns": float(fit.x[1]),
            "default_efficiency_sequential": float(fit.x[2]),
            "default_efficiency_random": float(fit.x[3]),
        },
    )
