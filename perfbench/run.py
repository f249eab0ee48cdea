"""Benchmark: host time per simulated second and Colloid fidelity.

Run from the repository root::

    python3 perfbench/run.py --workload solver-bound --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, measured with tracing off;
``--trace 1`` prints the per-layer metrics from separate traced passes.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is
0 when every output check passed, 1 when one failed (the result is
still printed) and 2 when the benchmark could not run at all (nothing
is printed on standard output).

Single process, single thread: the simulator under test is imported
from ``src/`` next to this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent

#: Extra untimed set-up rounds per run, so ``setup_s`` is a median of
#: many builds rather than of a few passes.
SETUP_ROUNDS = 15


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_program():
    """Put this checkout's ``src/`` first on the path and import it.

    Leftover ``REPRO_*`` switches from the caller's environment would
    turn on checks, metrics or audits the spec does not ask for, so they
    are dropped.
    """
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        raise ImportError(f"no simulator source at {source}")
    sys.path.insert(0, str(source))
    sys.path.insert(0, str(ROOT))
    for name in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[name]
    import repro

    if Path(repro.__file__).resolve().parent != source / "repro":
        raise ImportError(f"imported repro from {repro.__file__}")


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _timed_passes(cells, observed, seconds, ledger, stage, trace_log=None):
    """Run passes until ``seconds`` of measuring would be exceeded (at
    least one). With ``trace_log``, traced passes alternate with
    untraced ones and both lists are returned."""
    from perfbench import measure, probe

    untraced, traced = [], []
    spent = 0.0
    while True:
        started = perf_counter()
        runs = measure.run_pass(cells, observed)
        ledger.admit(runs, stage)
        untraced.append(runs)
        if trace_log is not None:
            log = probe.SpanLog() if traced else trace_log
            with probe.instrument(log):
                runs = measure.run_pass(cells, observed)
            ledger.admit(runs, "traced")
            traced.append((runs, probe.fold(log.spans)))
        spent += perf_counter() - started
        per_round = spent / len(untraced)
        if spent + per_round > seconds:
            return untraced, traced


def _sim_metrics(ledger, cells):
    """Simulated-side metrics from each cell's first (reference) run."""
    from perfbench import measure

    runs = [ledger.reference[cell.label] for cell in cells]
    sim_s = sum(float(cell.spec.duration_s) for cell in cells)
    ratios = [run.tail_throughput / measure.best_case_throughput(run.cell)
              for run in runs if not run.cell.colocated]
    converge = [t for run in runs for t in run.converge_s]
    return {
        "sim_tput_vs_best": _metric(measure.geomean(ratios), "ratio"),
        "sim_migrate_mib_per_s": _metric(
            sum(run.migration_bytes for run in runs) / 2**20 / sim_s,
            "MiB/sim_s"),
        "sim_converge_s": _metric(statistics.fmean(converge), "sim_s"),
    }


def end_to_end(workload, seed, seconds):
    from perfbench import measure

    cells = workload.cells(seed)
    observed = workload.observed
    ledger = measure.Ledger()
    measure.warm_up(cells, observed)
    passes, __ = _timed_passes(cells, observed, seconds, ledger, "timed")
    _checked_pass(cells, observed, ledger)
    lines = []
    metrics = {}
    if ledger.failed == 0:
        sim_s = sum(float(cell.spec.duration_s) for cell in cells)
        steps = [ns / 1e6 for runs in passes for run in runs
                 for ns in run.step_ns]
        p99, n, beyond = measure.nearest_rank(steps, 0.99)
        setups = [measure.pass_setup_s(runs) for runs in passes]
        setups += [measure.time_setup(cells, observed)
                   for __ in range(SETUP_ROUNDS)]
        metrics = {
            "host_s_per_sim_s": _metric(statistics.median(
                measure.pass_wall_s(runs) / sim_s for runs in passes),
                "s/s"),
            "quantum_ms_p50": _metric(statistics.median(steps), "ms"),
            "quantum_ms_p99": _metric(p99, "ms"),
            "setup_s": _metric(statistics.median(setups), "s"),
            "peak_rss_mib": _metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "MiB"),
        }
        metrics.update(_sim_metrics(ledger, cells))
        lines.append(f"passes: {len(passes)} timed, {len(cells)} cells, "
                     f"{sim_s:g} simulated s each")
        lines.append(f"quantum samples: {n} step() calls, {beyond} beyond "
                     "p99")
    lines.append(f"error_rate: {ledger.failed / ledger.attempted:.6g} "
                 f"fraction ({ledger.failed} of {ledger.attempted} cell "
                 "runs failed)")
    return ledger, metrics, lines


def _checked_pass(cells, observed, ledger):
    """One untimed pass with the program's invariant checker on; returns
    its host seconds."""
    from repro.check import disable_checks, enable_checks

    from perfbench import measure

    enable_checks()
    try:
        runs = measure.run_pass(cells, observed)
    finally:
        disable_checks()
    ledger.admit(runs, "checked")
    return measure.pass_wall_s(runs)


def per_layer(workload, seed, seconds, spans_path):
    from perfbench import measure, probe

    cells = workload.cells(seed)
    observed = workload.observed
    ledger = measure.Ledger()
    measure.warm_up(cells, observed)
    log = probe.SpanLog()
    untraced, traced = _timed_passes(cells, observed, seconds, ledger,
                                     "untraced", trace_log=log)
    checked_s = _checked_pass(cells, observed, ledger)
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    log.write(spans_path)
    lines = [f"spans: {len(log.spans)} in {spans_path}"]
    if ledger.failed:
        return ledger, {}, lines
    plain_s = statistics.median(measure.pass_wall_s(r) for r in untraced)
    traced_s = statistics.median(measure.pass_wall_s(r) for r, __ in traced)
    # Each traced pass runs right after an untraced one, so the paired
    # difference cancels most of the host's slow speed changes.
    overhead_s = statistics.median(
        measure.pass_wall_s(t) - measure.pass_wall_s(u)
        for u, (t, __) in zip(untraced, traced))
    folds = [f for __, f in traced]

    def ms(span):
        return _metric(statistics.median(f.self_ms(span) for f in folds),
                       "ms")

    first = folds[0]
    solves = first.notes("memhw.solve")
    hits = sum(1 for hit, __ in solves if hit)
    misses = len(solves) - hits
    shifts = first.notes("core.shift")
    moves = first.notes("pages.execute")
    applied = sum(a for a, __ in moves)
    deferred = sum(d for __, d in moves)
    metrics = {
        "memhw.solve_ms": ms("memhw.solve"),
        "memhw.solve_calls": _metric(len(solves), "count"),
        "memhw.solve_hit_ratio": _metric(
            hits / len(solves) if solves else 0.0, "ratio"),
        "memhw.solve_iters_per_miss": _metric(
            sum(i for __, i in solves) / misses if misses else 0.0,
            "count"),
        "memhw.solve_multi_ms": ms("memhw.solve_multi"),
        "memhw.counters_ms": ms("memhw.counters"),
        "tiering.quantum_self_ms": ms("tiering.quantum"),
        "core.decide_ms": ms("core.decide"),
        "core.finder_ms": ms("core.finder"),
        "core.finder_pages": _metric(sum(first.notes("core.finder")),
                                     "count"),
        "core.shift_calls": _metric(len(shifts), "count"),
        "core.shift_move_ratio": _metric(
            sum(shifts) / len(shifts) if shifts else 0.0, "ratio"),
        "tracking.pebs_ms": ms("tracking.pebs"),
        "tracking.hintfault_ms": ms("tracking.hintfault"),
        "pages.execute_ms": ms("pages.execute"),
        "pages.moves_applied": _metric(applied, "count"),
        "pages.moves_deferred": _metric(deferred, "count"),
        "pages.applied_ratio": _metric(
            applied / (applied + deferred) if applied + deferred else 0.0,
            "ratio"),
        "pages.tier_probabilities_ms": ms("pages.tier_probabilities"),
        "workloads.advance_ms": ms("workloads.advance"),
        "runtime.step_self_ms": ms("runtime.step"),
        "exec.build_loop_ms": ms("exec.build_loop"),
        "obs.tracer_emit_ms": ms("obs.tracer_emit"),
        "obs.tracer_events": _metric(first.calls("obs.tracer_emit"),
                                     "count"),
        "obs.placement_observe_ms": ms(probe.AUDIT_SPAN),
        "obs.fold_ms": ms("obs.fold"),
        "check.overhead_ratio": _metric(checked_s / plain_s, "ratio"),
        "trace.overhead_s": _metric(overhead_s, "s"),
    }
    for layer in probe.LAYERS:
        metrics[f"{layer}.self_ms"] = _metric(statistics.median(
            f.by_layer.get(layer, 0) / 1e6 for f in folds), "ms")
    total = sum(first.by_layer.values()) or 1
    shares = sorted(first.by_layer.items(), key=lambda kv: -kv[1])
    lines.append("layer self-time shares (first traced pass): " + ", ".join(
        f"{layer} {ns / total:.1%}" for layer, ns in shares if ns))
    lines.append(f"traced passes: {len(traced)}; untraced {plain_s:.4f} s, "
                 f"traced {traced_s:.4f} s per pass (medians); tracing "
                 f"overhead {overhead_s:.4f} s (median of paired passes)")
    return ledger, metrics, lines


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        _import_program()
        from perfbench.workloads import WORKLOADS
    except ImportError as error:
        print(f"error: cannot import the simulator: {error}",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0 or args.seed < 0:
        print("error: --seconds must be positive and --seed non-negative",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if workload.observed:
        from repro.obs.placement import enable_placement_audit

        enable_placement_audit()
    print(f"workload: {workload.name} (seed {args.seed}): {workload.why}")
    print(f"host: {platform.node()} {platform.machine()} "
          f"{platform.processor() or '?'}; python "
          f"{platform.python_version()}")
    if args.trace:
        spans = (ROOT / ".perfbench_out"
                 / f"spans-{workload.name}-seed{args.seed}.jsonl")
        ledger, metrics, lines = per_layer(workload, args.seed,
                                           args.seconds, spans)
    else:
        ledger, metrics, lines = end_to_end(workload, args.seed,
                                            args.seconds)
    for line in lines:
        print(line)
    for failure in ledger.failures:
        print(f"FAILED {failure}")
    for name, metric in metrics.items():
        print(f"{name}: {metric['value']:.6g} {metric['unit']}")
    correct = ledger.failed == 0
    print(json.dumps({"correct": correct, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
