"""Runtime: the quantum-driven simulation loop, metrics recording, and
steady-state experiment running."""

from repro.runtime.metrics import MetricsRecorder, QuantumRecord
from repro.runtime.loop import SimulationLoop, TenantSpec
from repro.runtime.experiment import (
    RepeatedResult,
    SteadyStateResult,
    repeat_steady_state,
    run_steady_state,
)
from repro.runtime.export import to_csv, to_json

__all__ = [
    "MetricsRecorder",
    "QuantumRecord",
    "SimulationLoop",
    "TenantSpec",
    "RepeatedResult",
    "SteadyStateResult",
    "repeat_steady_state",
    "run_steady_state",
    "to_csv",
    "to_json",
]
