"""Tests for the simulation loop."""

import pytest

from repro.errors import ConfigurationError
from repro.runtime.loop import SimulationLoop
from repro.tiering.hemem import HememSystem
from repro.tiering.static import StaticPlacementSystem
from repro.workloads.gups import GupsWorkload
from tests.conftest import FAST_SCALE


def make_loop(small_machine, system=None, contention=0, **kwargs):
    workload = GupsWorkload(scale=FAST_SCALE, seed=4)
    return SimulationLoop(
        machine=small_machine,
        workload=workload,
        system=system if system is not None else StaticPlacementSystem(),
        contention=contention,
        seed=4,
        **kwargs,
    )


class TestStep:
    def test_records_one_quantum(self, small_machine):
        loop = make_loop(small_machine)
        record = loop.step()
        assert record.time_s == 0.0
        assert record.throughput > 0
        assert record.latencies_ns.shape == (2,)
        assert len(loop.metrics) == 1

    def test_clock_advances_by_quantum(self, small_machine):
        loop = make_loop(small_machine, quantum_ms=5.0)
        loop.step()
        loop.step()
        assert loop.time_s == pytest.approx(0.01)

    def test_run_duration(self, small_machine):
        loop = make_loop(small_machine)
        metrics = loop.run(duration_s=0.5)
        assert len(metrics) == 50  # 10 ms quanta

    def test_static_system_throughput_is_stationary(self, small_machine):
        loop = make_loop(small_machine)
        metrics = loop.run(duration_s=0.5)
        assert metrics.throughput.std() < 0.01 * metrics.throughput.mean()

    def test_latencies_are_cpu_observed(self, small_machine):
        """Recorded latencies include the CPU-to-CHA hop."""
        loop = make_loop(small_machine)
        record = loop.step()
        assert record.latencies_ns[1] >= 135.0  # 130 CHA + 5


class TestContention:
    def test_constant_contention(self, small_machine):
        loop = make_loop(small_machine, contention=3)
        record = loop.step()
        assert record.antagonist_intensity == 3
        assert record.latencies_ns[0] > 200.0

    def test_schedule_callable(self, small_machine):
        loop = make_loop(
            small_machine, contention=lambda t: 3 if t >= 0.05 else 0
        )
        metrics = loop.run(duration_s=0.1)
        intensities = [r.antagonist_intensity for r in metrics.records]
        assert intensities[0] == 0
        assert intensities[-1] == 3

    def test_contention_raises_latency_and_drops_throughput(
            self, small_machine):
        quiet = make_loop(small_machine, contention=0).run(0.2)
        loud = make_loop(small_machine, contention=3).run(0.2)
        assert loud.throughput.mean() < quiet.throughput.mean()
        assert loud.latencies_ns[:, 0].mean() > (
            quiet.latencies_ns[:, 0].mean()
        )


class TestInitialPlacement:
    def test_default_fill_packs_default_tier(self, small_machine):
        loop = make_loop(small_machine)
        assert loop.placement.free_bytes(0) < loop.placement.pages.sizes_bytes[0]

    def test_rejects_bad_quantum(self, small_machine):
        workload = GupsWorkload(scale=FAST_SCALE, seed=4)
        with pytest.raises(ConfigurationError):
            SimulationLoop(machine=small_machine, workload=workload,
                           system=StaticPlacementSystem(), quantum_ms=0.0)


class TestMigrationTrafficSpreading:
    def test_copy_debt_drains_at_rate_limit(self, small_machine):
        """A bursty system's copies are charged over following quanta."""
        loop = make_loop(small_machine, system=HememSystem(),
                         migration_limit_bytes=2 * 1024 * 1024)
        metrics = loop.run(duration_s=1.0)
        per_quantum = metrics.migration_bytes
        assert per_quantum.max() <= 2 * 1024 * 1024

    def test_p_true_tracks_promotions(self, small_machine):
        loop = make_loop(small_machine, system=HememSystem())
        metrics = loop.run(duration_s=4.0)
        assert metrics.p_true[-1] > metrics.p_true[0] - 0.05
        assert metrics.p_true[-10:].mean() > 0.8
