"""Passes over a workload's cells: timing, output checks, simulated metrics.

A *pass* builds every cell of a workload with
:func:`repro.exec.execute.build_loop` and calls the loop's ``step()``
for the cell's fixed simulated length. Observed workloads also run the
tracer and placement audit, then fold each cell's trace with
:func:`repro.obs.diagnose.diagnose_events` and
:func:`repro.obs.report.summarize_events`, as ``repro run --trace
--placement-audit`` followed by ``repro report`` would.

Every module function the program offers is looked up at call time
(``execute.build_loop``, ``diagnose.diagnose_events``, ...) so the
traced pass, which patches them, sees its wrappers.
"""

from __future__ import annotations

import gc
import hashlib
import math
from dataclasses import dataclass, field
from time import perf_counter_ns
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.analysis.convergence import convergence_time_s
from repro.exec import execute
from repro.obs import diagnose, report
from repro.obs.tracer import DEFAULT_RING_SIZE, Tracer

from perfbench.workloads import Cell


#: Quanta each cell is stepped, untimed, before the first timed pass.
WARMUP_QUANTA = 20


class OutputCheckFailed(Exception):
    """A cell produced output the benchmark rejects."""


def nearest_rank(samples: Sequence[float], q: float,
                 min_beyond: int = 10):
    """The ``q`` quantile by nearest rank, with its support.

    Returns ``(value, n, beyond)``: ``beyond`` samples lie above the
    returned rank. Raises ValueError when fewer than ``min_beyond`` do,
    since such a percentile rests on too few samples to repeat.
    """
    n = len(samples)
    if n == 0:
        raise ValueError("no samples")
    rank = max(1, math.ceil(q * n))
    beyond = n - rank
    if beyond < min_beyond:
        raise ValueError(
            f"p{q * 100:g} of {n} samples has {beyond} beyond it; "
            f"need {min_beyond}")
    return sorted(samples)[rank - 1], n, beyond


@dataclass
class CellRun:
    """One execution of one cell."""

    cell: Cell
    setup_ns: int = 0
    wall_ns: int = 0
    step_ns: List[int] = field(default_factory=list)
    fingerprint: str = ""
    tail_throughput: float = 0.0
    migration_bytes: float = 0.0
    converge_s: List[float] = field(default_factory=list)
    error: Optional[str] = None


def _fingerprint(loop) -> str:
    """Digest of every simulated series the run recorded (per tenant for
    a colocated loop); equal seeds must give equal digests."""
    digest = hashlib.sha256()
    recorders = [loop.metrics]
    recorders.extend(getattr(loop, "tenant_metrics", {}).values())
    for metrics in recorders:
        for series in (metrics.throughput, metrics.latencies_ns,
                       metrics.p_true, metrics.migration_bytes):
            digest.update(np.ascontiguousarray(series).tobytes())
    return digest.hexdigest()


def convergence_times(cell: Cell, times: np.ndarray,
                      throughput: np.ndarray) -> List[float]:
    """Convergence time after each disturbance, in simulated seconds.

    Each disturbance is judged on the window up to the next one; a
    disturbance that never settles counts as the rest of its window.
    """
    out = []
    marks = list(cell.disturbances_s) + [float(cell.spec.duration_s)]
    for start, end in zip(marks, marks[1:]):
        window = (times >= start) & (times < end)
        settled = convergence_time_s(times[window], throughput[window],
                                     start)
        out.append(end - start if settled is None else settled)
    return out


def _fold_trace(loop, tracer: Tracer) -> None:
    loop.emit_run_end()
    events = tracer.events()
    emitted = sum(tracer.counts.values())
    if len(events) != emitted:
        raise OutputCheckFailed(
            f"trace ring kept {len(events)} of {emitted} events")
    diagnose.diagnose_events(events)
    report.summarize_events(events)


def _tracer(spec) -> Tracer:
    """An in-memory tracer whose ring holds the whole cell's trace."""
    n_quanta = int(round(spec.duration_s * 1000.0 / spec.quantum_ms))
    return Tracer(ring_size=max(DEFAULT_RING_SIZE, n_quanta * 32))


def run_cell(cell: Cell, observed: bool) -> CellRun:
    """Build and run one cell; failures are recorded, never raised."""
    run = CellRun(cell)
    spec = cell.spec
    n_quanta = int(round(spec.duration_s * 1000.0 / spec.quantum_ms))
    try:
        start = perf_counter_ns()
        tracer = _tracer(spec) if observed else None
        loop = execute.build_loop(spec, tracer=tracer)
        built = perf_counter_ns()
        samples = run.step_ns
        step = loop.step
        for __ in range(n_quanta):
            before = perf_counter_ns()
            step()
            samples.append(perf_counter_ns() - before)
        if observed:
            _fold_trace(loop, tracer)
        done = perf_counter_ns()
        run.setup_ns = built - start
        run.wall_ns = done - built
        metrics = loop.metrics
        throughput = metrics.throughput
        if not (np.all(np.isfinite(throughput)) and np.all(throughput > 0)):
            raise OutputCheckFailed("non-finite or non-positive throughput")
        tail = max(1, len(metrics) // 4)
        run.tail_throughput = float(throughput[-tail:].mean())
        run.migration_bytes = float(metrics.migration_bytes.sum())
        run.converge_s = convergence_times(cell, metrics.time_s, throughput)
        run.fingerprint = _fingerprint(loop)
    except Exception as error:  # a failed cell is counted, not fatal
        run.error = f"{type(error).__name__}: {error}"
    return run


def warm_up(cells: Sequence[Cell], observed: bool,
            quanta: int = WARMUP_QUANTA) -> None:
    """Build and briefly step every cell, untimed, so that imports and
    first-call set-up are done before the first timed pass."""
    for cell in cells:
        try:
            loop = execute.build_loop(
                cell.spec, tracer=_tracer(cell.spec) if observed else None)
            for __ in range(quanta):
                loop.step()
        except Exception:  # the full passes meet and record any failure
            pass


def run_pass(cells: Sequence[Cell], observed: bool) -> List[CellRun]:
    """Run every cell once, after collecting garbage left by the last
    pass so that no pass pays for its predecessor's objects."""
    gc.collect()
    return [run_cell(cell, observed) for cell in cells]


def pass_wall_s(runs: Sequence[CellRun]) -> float:
    """Host seconds spent stepping (and folding traces) in one pass."""
    return sum(run.wall_ns for run in runs) / 1e9


def pass_setup_s(runs: Sequence[CellRun]) -> float:
    """Host seconds spent building the pass's loops."""
    return sum(run.setup_ns for run in runs) / 1e9


def time_setup(cells: Sequence[Cell], observed: bool) -> float:
    """Host seconds to build every cell's loop once (nothing stepped)."""
    gc.collect()
    total = 0
    for cell in cells:
        start = perf_counter_ns()
        tracer = _tracer(cell.spec) if observed else None
        execute.build_loop(cell.spec, tracer=tracer)
        total += perf_counter_ns() - start
    return total / 1e9


class Ledger:
    """Counts attempted and failed cell runs against a reference run.

    The first run of each cell is its reference; every later run of the
    same cell must reproduce its simulated series exactly, since the
    simulator is deterministic for a given spec.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []
        self.reference: Dict[str, CellRun] = {}

    def admit(self, runs: Sequence[CellRun], stage: str) -> None:
        for run in runs:
            self.attempted += 1
            label = run.cell.label
            if run.error is not None:
                self.failures.append(f"{stage} {label}: {run.error}")
                continue
            first = self.reference.setdefault(label, run)
            if run.fingerprint != first.fingerprint:
                self.failures.append(
                    f"{stage} {label}: simulated series differ between "
                    "repeats of one seed")

    @property
    def failed(self) -> int:
        return len(self.failures)


def best_case_throughput(cell: Cell) -> float:
    """The §2.2 best-case oracle throughput at the cell's final
    contention (untimed; single-tenant cells only)."""
    workload = cell.spec.workload.build()
    machine = cell.spec.machine.build(workload)
    best = execute.best_case_result(workload, machine,
                                    cell.final_contention, cell.spec.seed)
    return float(best.throughput)


def geomean(values: Sequence[float]) -> float:
    return float(math.exp(sum(math.log(v) for v in values) / len(values)))
