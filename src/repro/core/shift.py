"""Algorithm 2: computing the desired shift in access probability (§3.2).

A binary-search over ``p`` (the default tier's share of access
probability) using two watermarks:

* ``p_hi`` upper-bounds the region where the default tier *may* still be
  faster;
* ``p_lo`` lower-bounds the region where it is *definitely* faster.

Each quantum tightens the watermark on the side the latency comparison
resolves, and the controller steers ``p`` toward the midpoint. Two
invariants hold for static workloads: ``p_lo <= p <= p_hi`` and
``p_lo <= p* <= p_hi`` (``p*`` the equilibrium), so the gap shrinks and
``p`` converges to ``p*`` (Figure 4a).

Dynamic workloads can violate either invariant: a jump in ``p`` is
self-healing because the watermarks are updated from the *measured* ``p``
before the midpoint is computed (Figure 4b); a jump in ``p*`` is detected
when the watermarks have collapsed (gap < ``epsilon``) while latencies are
still unbalanced (gap > ``delta`` criterion), and the stale watermark is
reset (Figure 4c).

Parameter trade-offs (paper text): larger ``epsilon`` detects workload
changes faster but is less stable; larger ``delta`` is more stable but
settles further from the optimum.
"""

from __future__ import annotations

from repro.errors import ConfigurationError

#: Paper defaults (§5): epsilon = 0.01, delta = 0.05.
DEFAULT_EPSILON = 0.01
DEFAULT_DELTA = 0.05


class ShiftComputer:
    """Stateful implementation of Algorithm 2."""

    def __init__(self, delta: float = DEFAULT_DELTA,
                 epsilon: float = DEFAULT_EPSILON,
                 enable_resets: bool = True) -> None:
        if not 0 < delta < 1:
            raise ConfigurationError("delta must be in (0, 1)")
        if not 0 < epsilon < 1:
            raise ConfigurationError("epsilon must be in (0, 1)")
        self.delta = float(delta)
        self.epsilon = float(epsilon)
        #: Ablation hook: with resets disabled, a moved equilibrium
        #: outside the collapsed bracket is never recovered (Figure 4c's
        #: failure mode).
        self.enable_resets = bool(enable_resets)
        self.p_lo = 0.0
        self.p_hi = 1.0
        self.resets = 0
        #: Which watermark the most recent :meth:`compute` call reset
        #: ("hi" or "lo"), or None if it reset nothing — read by the
        #: tracing helpers to attribute resets to quanta.
        self.last_reset_side: "str | None" = None
        #: Whether tracing has announced this bracket's initialization
        #: (the [0, 1] state is itself a reset of both watermarks).
        self.init_traced = False

    def compute(self, p: float, latency_default: float,
                latency_alternate: float) -> float:
        """One quantum of Algorithm 2; returns the desired |shift| in p.

        Args:
            p: Measured default-tier access-probability share.
            latency_default: Measured default-tier latency (L_D).
            latency_alternate: Measured alternate-tier latency (L_A).
        """
        if not 0.0 <= p <= 1.0:
            raise ConfigurationError(f"p must be in [0, 1], got {p}")
        if latency_default <= 0 or latency_alternate <= 0:
            raise ConfigurationError("latencies must be positive")
        self.last_reset_side = None
        if abs(latency_default - latency_alternate) < (
                self.delta * latency_default):
            return 0.0
        if latency_default < latency_alternate:
            self.p_lo = p
        else:
            self.p_hi = p
        if self.enable_resets and self.p_hi < self.p_lo + self.epsilon:
            # Watermarks collapsed but latencies are still unbalanced:
            # the equilibrium moved outside the bracket; reset the stale
            # side (Figure 4c).
            if latency_default < latency_alternate:
                self.p_hi = 1.0
                self.last_reset_side = "hi"
            else:
                self.p_lo = 0.0
                self.last_reset_side = "lo"
            self.resets += 1
        return abs((self.p_lo + self.p_hi) / 2.0 - p)

    def target_p(self) -> float:
        """Midpoint of the current bracket — where the controller steers."""
        return (self.p_lo + self.p_hi) / 2.0

    def reset(self) -> None:
        """Reinitialize the bracket to [0, 1]."""
        self.p_lo = 0.0
        self.p_hi = 1.0
        self.last_reset_side = None
        self.init_traced = False


def find_equilibrium_p(solver, app, pinned=(), tolerance: float = 1e-4,
                       max_iterations: int = 60) -> float:
    """Locate ``p*`` — the split where the two tiers' latencies cross.

    This is the point Algorithm 2's watermarks bracket: for ``p`` below
    ``p*`` the default tier is faster (shift toward it pays off), above
    it the alternate tier is. Solved by bisection on the latency gap
    ``L_D(p) - L_A(p)``, which is monotone increasing in ``p`` (more
    default-tier traffic loads the default tier and unloads the
    alternate). Each probe is warm-started from the previous
    equilibrium, so the whole search costs a handful of fixed-point
    iterations per probe.

    Args:
        solver: A two-tier :class:`~repro.memhw.fixedpoint.EquilibriumSolver`.
        app: The application core group.
        pinned: Pinned (group, tier) pairs, as for ``solver.solve``.
        tolerance: Bracket width on ``p`` at which to stop.
        max_iterations: Bisection probe budget.

    Returns:
        ``p*`` in [0, 1]; 0.0 (or 1.0) when the default tier is never
        (or always) the slower one across the whole range.
    """
    if solver.n_tiers != 2:
        raise ConfigurationError("equilibrium-p search is two-tier only")

    warm = None

    def gap(p: float) -> float:
        nonlocal warm
        eq = solver.solve([(app, [p, 1.0 - p])], pinned=pinned,
                          initial_latencies=warm)
        warm = eq.latencies_ns
        return float(eq.latencies_ns[0] - eq.latencies_ns[1])

    if gap(0.0) >= 0.0:
        return 0.0
    if gap(1.0) <= 0.0:
        return 1.0
    lo, hi = 0.0, 1.0
    for _ in range(max_iterations):
        mid = (lo + hi) / 2.0
        if gap(mid) < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < tolerance:
            break
    return (lo + hi) / 2.0


def trace_shift(tracer, shift: ShiftComputer, p: float, dp: float,
                latency_default_ns: float,
                latency_alternate_ns: float) -> None:
    """Emit the ``compute_shift`` (and, if one fired, ``watermark_reset``)
    events for one :meth:`ShiftComputer.compute` call.

    Shared by :class:`~repro.core.controller.ColloidController` and the
    TPP integration, which drives the shift computer directly. Callers
    guard with ``tracer.enabled`` so the disabled cost stays one check.

    The first traced call announces the bracket's [0, 1] initialization
    as a ``watermark_reset`` with ``side="init"`` — the initial state is
    both watermarks at their reset values, and recording it lets the
    report distinguish "never reset" from "not traced".
    """
    if not shift.init_traced:
        shift.init_traced = True
        tracer.emit(
            "watermark_reset", side="init", p=p, resets=shift.resets,
        )
    tracer.emit(
        "compute_shift",
        p=p,
        p_lo=shift.p_lo,
        p_hi=shift.p_hi,
        dp=dp,
        latency_default_ns=latency_default_ns,
        latency_alternate_ns=latency_alternate_ns,
    )
    if shift.last_reset_side is not None:
        tracer.emit(
            "watermark_reset",
            side=shift.last_reset_side,
            p=p,
            resets=shift.resets,
        )
