"""Multi-tenant colocation: N applications sharing one machine.

The cycle lives in :class:`~repro.runtime.loop.SimulationLoop`, which
takes a tenant list (a solo run is its one-tenant case). This module
keeps the historical names importable.
"""

from __future__ import annotations

from repro.runtime.loop import SimulationLoop, TenantSpec


class ColocatedLoop(SimulationLoop):
    """Historical name of a :class:`~repro.runtime.loop.SimulationLoop`
    built from ``tenants``."""


__all__ = ["ColocatedLoop", "TenantSpec"]
