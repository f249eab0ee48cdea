"""Percentile support rule, convergence windows and the output ledger."""

import numpy as np
import pytest

from perfbench import measure
from perfbench.workloads import WORKLOADS


def test_p99_needs_ten_samples_beyond():
    samples = list(range(1, 1001))
    value, n, beyond = measure.nearest_rank(samples, 0.99)
    assert (value, n, beyond) == (990, 1000, 10)
    with pytest.raises(ValueError):
        measure.nearest_rank(samples[:999], 0.99)


def test_median_by_nearest_rank():
    value, n, beyond = measure.nearest_rank([5, 1, 3, 4, 2] * 5, 0.5)
    assert (value, n, beyond) == (3, 25, 12)


def test_convergence_windows_end_at_the_next_disturbance():
    cell = WORKLOADS["observed-dynamic"].cells(1)[0]
    assert cell.disturbances_s == (0.0, 2.0)
    times = np.arange(400) * 0.01
    # Settles at 0.5 s, then never settles after the step at 2 s.
    values = np.where(times < 0.5, 1.0, 2.0)
    values[times >= 2.0] = np.where(np.arange(200) % 2, 1.0, 3.0)
    first, second = measure.convergence_times(cell, times, values)
    assert first == pytest.approx(0.5)
    assert second == pytest.approx(2.0)


def test_ledger_flags_a_repeat_that_differs():
    cell = WORKLOADS["solver-bound"].cells(1)[0]
    ledger = measure.Ledger()
    ledger.admit([measure.CellRun(cell, fingerprint="a")], "reference")
    ledger.admit([measure.CellRun(cell, fingerprint="a")], "timed")
    assert ledger.failed == 0
    ledger.admit([measure.CellRun(cell, fingerprint="b")], "checked")
    ledger.admit([measure.CellRun(cell, error="ValueError: x")], "timed")
    assert (ledger.attempted, ledger.failed) == (4, 2)


def test_workload_specs_depend_only_on_the_seed():
    for workload in WORKLOADS.values():
        first = workload.cells(7)
        assert first == workload.cells(7)
        assert first != workload.cells(8)
        assert all(c.spec.mode == "trace" for c in first)


def test_every_gups_hot_set_starts_in_the_alternate_tier():
    from perfbench.workloads import hot_set_starts_in_alternate

    for workload in WORKLOADS.values():
        for cell in workload.cells(3):
            assert hot_set_starts_in_alternate(cell.spec), cell.label
