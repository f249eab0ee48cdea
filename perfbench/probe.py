"""Benchmark-side layer tracing: class-level wrappers, spans, self time.

Nothing inside the simulator is instrumented. :func:`instrument`
replaces public callables of the simulator's layers with timing wrappers
for the duration of a ``with`` block and puts every original back on
exit, so the timed and checked passes always run unpatched code.

Each wrapped call records one span ``[name, start_ns, end_ns, parent,
note]`` in a :class:`SpanLog`. A span's parent is the innermost span
open when it started (the benchmark is single-threaded, so spans nest
properly). :func:`fold` turns the log into per-span and per-layer self
time: a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
from dataclasses import dataclass, field
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: The simulator's modules that the benchmark splits time across.
LAYERS = ("workloads", "memhw", "tracking", "core", "tiering", "pages",
          "runtime", "exec", "obs")

#: Spans started inside a placement observation are the audit's own work
#: (its private equilibrium solves), so they are charged to it, not to
#: the layer whose callable they entered.
AUDIT_SPAN = "obs.placement_observe"


def layer_of(span_name: str) -> str:
    """The layer a span name belongs to (the text before the first dot)."""
    return span_name.split(".", 1)[0]


class SpanLog:
    """In-memory span recorder; written out only when the run ends."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, perf_counter_ns(), 0, parent, None])
        self._stack.append(index)
        return index

    def close(self, index: int, note=None) -> None:
        span = self.spans[index]
        span[2] = perf_counter_ns()
        span[4] = note
        self._stack.pop()

    def write(self, path) -> None:
        """Write the spans as JSON lines (one span per line)."""
        with open(path, "w") as handle:
            for name, start, end, parent, note in self.spans:
                handle.write(json.dumps(
                    {"name": name, "start_ns": start, "end_ns": end,
                     "parent": parent, "note": note}))
                handle.write("\n")


# -- targets ---------------------------------------------------------------

def _solve_note(solver, result):
    hit = bool(solver.last_was_cache_hit)
    return (hit, 0 if hit else int(result.iterations))


def _moves_note(_executor, result):
    return (int(result.moves_applied), int(result.moves_deferred))


@dataclass(frozen=True)
class Target:
    """One callable to time.

    ``owner`` is ``"module:Class"`` for a method, patched on that class
    and on every subclass that defines its own version, or ``"module"``
    for a module-level function. ``note(obj, result)`` condenses a
    method's result into the span's note.
    """

    owner: str
    attr: str
    span: str
    note: Optional[Callable] = None


TARGETS: Tuple[Target, ...] = (
    Target("repro.workloads.base:Workload", "advance", "workloads.advance"),
    Target("repro.memhw.fixedpoint:EquilibriumSolver", "solve",
           "memhw.solve", _solve_note),
    Target("repro.memhw.fixedpoint:EquilibriumSolver", "solve_multi",
           "memhw.solve_multi", _solve_note),
    Target("repro.memhw.cha:ChaCounters", "observe", "memhw.counters"),
    Target("repro.memhw.mbm:MbmMonitor", "observe", "memhw.counters"),
    Target("repro.memhw.mbm:MbmMonitor", "observe_rates", "memhw.counters"),
    Target("repro.tracking.pebs:PebsSampler", "collect", "tracking.pebs"),
    Target("repro.tracking.hintfaults:HintFaultTracker", "quantum",
           "tracking.hintfault"),
    Target("repro.core.controller:ColloidController", "decide",
           "core.decide"),
    Target("repro.core.shift:ShiftComputer", "compute", "core.shift",
           lambda _shift, dp: dp > 0),
    Target("repro.core.finder:BinnedPageFinder", "find", "core.finder",
           lambda _finder, pages: len(pages)),
    Target("repro.core.finder:HotListPageFinder", "find", "core.finder",
           lambda _finder, pages: len(pages)),
    Target("repro.tiering.base:TieringSystem", "quantum", "tiering.quantum"),
    Target("repro.pages.migration:MigrationExecutor", "execute",
           "pages.execute", _moves_note),
    Target("repro.pages.placement:PlacementState", "tier_probabilities",
           "pages.tier_probabilities"),
    Target("repro.runtime.loop:SimulationLoop", "step", "runtime.step"),
    Target("repro.runtime.colocation:ColocatedLoop", "step", "runtime.step"),
    Target("repro.exec.execute", "build_loop", "exec.build_loop"),
    Target("repro.obs.tracer:Tracer", "emit", "obs.tracer_emit"),
    Target("repro.obs.placement:PlacementObserver", "observe_quantum",
           AUDIT_SPAN),
    Target("repro.obs.diagnose", "diagnose_events", "obs.fold"),
    Target("repro.obs.report", "summarize_events", "obs.fold"),
)


def _subclasses(cls) -> List[type]:
    seen, todo = [], [cls]
    while todo:
        current = todo.pop()
        if current not in seen:
            seen.append(current)
            todo.extend(current.__subclasses__())
    return seen


def resolve(target: Target) -> List[Tuple[object, object]]:
    """Every ``(owner, original)`` pair the target patches.

    Importing :mod:`repro.exec.factories` first makes every tiering
    system (and its Colloid variant) a known subclass.
    """
    importlib.import_module("repro.exec.factories")
    module_name, __, class_name = target.owner.partition(":")
    module = importlib.import_module(module_name)
    if not class_name:
        return [(module, getattr(module, target.attr))]
    owners = []
    for cls in _subclasses(getattr(module, class_name)):
        original = cls.__dict__.get(target.attr)
        if callable(original) and not getattr(
                original, "__isabstractmethod__", False):
            owners.append((cls, original))
    return owners


def _timed(log: SpanLog, span: str, fn, note):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = log.open(span)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            log.close(index)
            raise
        log.close(index, note(args[0], result) if note else None)
        return result

    return wrapper


@contextlib.contextmanager
def instrument(log: SpanLog, targets: Sequence[Target] = TARGETS):
    """Time every target into ``log`` for the ``with`` block.

    Patches are applied at class level (or module level for functions)
    and undone in reverse order on exit, even when the block raises.
    """
    patched: List[Tuple[object, str, object]] = []
    try:
        for target in targets:
            for owner, original in resolve(target):
                setattr(owner, target.attr,
                        _timed(log, target.span, original, target.note))
                patched.append((owner, target.attr, original))
        yield log
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)


# -- self-time fold ----------------------------------------------------------

@dataclass
class SpanStats:
    """Folded totals for one span name."""

    calls: int = 0
    self_ns: int = 0
    notes: list = field(default_factory=list)


@dataclass
class Fold:
    """Self time by span name and by layer, plus the spans' notes."""

    by_span: Dict[str, SpanStats]
    by_layer: Dict[str, int]

    def self_ms(self, span: str) -> float:
        stats = self.by_span.get(span)
        return stats.self_ns / 1e6 if stats else 0.0

    def calls(self, span: str) -> int:
        stats = self.by_span.get(span)
        return stats.calls if stats else 0

    def notes(self, span: str) -> list:
        stats = self.by_span.get(span)
        return stats.notes if stats else []


def fold(spans: Sequence[list]) -> Fold:
    """Fold spans into self time.

    A span's self time is its duration minus its direct children's
    durations; since children nest inside their parent and never overlap
    each other, that is exactly the part of the span no child covers.
    A span of another layer opened inside an :data:`AUDIT_SPAN` is
    charged to the audit: its self time goes to the audit span name and
    its call is not counted, so the audit's private solves never count
    as the run's solver work.
    """
    child_ns = [0] * len(spans)
    charged: List[str] = []
    for name, start, end, parent, __ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
            if charged[parent] == AUDIT_SPAN and layer_of(name) != "obs":
                name = AUDIT_SPAN
        charged.append(name)
    by_span: Dict[str, SpanStats] = {}
    by_layer = {layer: 0 for layer in LAYERS}
    for index, (name, start, end, __, note) in enumerate(spans):
        own = end - start - child_ns[index]
        stats = by_span.setdefault(charged[index], SpanStats())
        stats.self_ns += own
        if charged[index] == name:
            stats.calls += 1
            if note is not None:
                stats.notes.append(note)
        layer = layer_of(charged[index])
        by_layer[layer] += own
    return Fold(by_span=by_span, by_layer=by_layer)
