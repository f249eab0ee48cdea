"""Integration tests for the multi-tenant colocation story.

The paper's §6 multi-tenant sketch: tenants sharing a machine couple
through the hardware equilibrium, and a latency-aware tenant vacates an
overloaded default tier where a latency-agnostic one stays put. These
tests run the full colocated stack (shared solve, per-tenant
controllers, capacity arbitration, invariant checking) and assert the
observable claims with band tolerances.
"""

import numpy as np
import pytest

from repro.exec.factories import make_system
from repro.experiments.common import scaled_machine
from repro.runtime.loop import SimulationLoop, TenantSpec
from repro.workloads.gups import GupsWorkload
from repro.workloads.silo import SiloYcsbWorkload
from tests.conftest import FAST_SCALE

HALF = FAST_SCALE / 2.0


def colocated_loop(primary_system: str, contention: int,
                   duration_s: float) -> SimulationLoop:
    loop = SimulationLoop(
        machine=scaled_machine(FAST_SCALE),
        tenants=[
            TenantSpec(name="gups",
                       workload=GupsWorkload(scale=HALF, seed=11),
                       system=make_system(primary_system)),
            TenantSpec(name="silo",
                       workload=SiloYcsbWorkload(scale=HALF, seed=12),
                       system=make_system("hemem+colloid")),
        ],
        contention=contention,
        seed=11,
    )
    loop.run(duration_s=duration_s)
    return loop


@pytest.fixture(scope="module")
def contended():
    """Primary under hemem vs hemem+colloid, both at 2x contention."""
    return {
        system: colocated_loop(system, contention=2, duration_s=12.0)
        for system in ("hemem", "hemem+colloid")
    }


def tail_latencies(loop: SimulationLoop) -> np.ndarray:
    tail = max(1, len(loop.metrics) // 4)
    return loop.metrics.latencies_ns[-tail:].mean(axis=0)


def tail_throughput(loop: SimulationLoop, tenant: str) -> float:
    metrics = loop.tenant_metrics[tenant]
    tail = max(1, len(metrics) // 4)
    return float(metrics.throughput[-tail:].mean())


class TestSharedEquilibrium:
    def test_colloid_tenants_balance_loaded_latencies(self, contended):
        # Algorithm 2's epsilon band, loosened to the integration band
        # used by the single-app claims: at steady state the colocated
        # Colloid tenants keep per-tier loaded latencies within 2x.
        latencies = tail_latencies(contended["hemem+colloid"])
        ratio = float(latencies.max() / latencies.min())
        assert ratio < 2.0, latencies

    def test_latency_agnostic_primary_leaves_imbalance(self, contended):
        balanced = tail_latencies(contended["hemem+colloid"])
        unbalanced = tail_latencies(contended["hemem"])
        ratio_balanced = float(balanced.max() / balanced.min())
        ratio_unbalanced = float(unbalanced.max() / unbalanced.min())
        assert ratio_unbalanced > ratio_balanced + 0.2, (
            ratio_unbalanced, ratio_balanced)

    def test_latency_awareness_pays_under_contention(self, contended):
        aware = tail_throughput(contended["hemem+colloid"], "gups")
        agnostic = tail_throughput(contended["hemem"], "gups")
        assert aware > agnostic * 1.1, (aware, agnostic)

    def test_checks_stay_clean_throughout(self, contended):
        for loop in contended.values():
            assert loop.checker.checks_run > 0
            assert not loop.checker.violations
