"""Self-time folding and wrapper restoration of the benchmark's probe."""

from perfbench import probe
from perfbench.probe import AUDIT_SPAN, SpanLog, fold, instrument


def span(name, start, end, parent, note=None):
    return [name, start, end, parent, note]


def test_self_time_subtracts_direct_children_only():
    spans = [
        span("runtime.step", 0, 100, -1),
        span("tiering.quantum", 10, 60, 0),
        span("tracking.pebs", 12, 20, 1),
        span("core.decide", 25, 55, 1),
        span("core.finder", 30, 50, 3, 7),
        span("memhw.solve", 70, 90, 0, (False, 30)),
    ]
    result = fold(spans)
    assert result.self_ms("runtime.step") * 1e6 == 100 - 50 - 20
    assert result.self_ms("tiering.quantum") * 1e6 == 50 - 8 - 30
    assert result.self_ms("core.decide") * 1e6 == 30 - 20
    assert result.self_ms("core.finder") * 1e6 == 20
    assert result.by_layer["core"] == 10 + 20
    assert result.by_layer["tiering"] == 12
    assert result.by_layer["memhw"] == 20
    # Self times partition the root span exactly.
    assert sum(result.by_layer.values()) == 100
    assert result.notes("core.finder") == [7]


def test_audit_solves_are_charged_to_obs():
    spans = [
        span("runtime.step", 0, 200, -1),
        span("memhw.solve", 0, 40, 0, (False, 20)),
        span(AUDIT_SPAN, 50, 150, 0),
        span("memhw.solve", 60, 100, 2, (False, 9)),
        span("memhw.solve", 100, 110, 2, (True, 0)),
        span("obs.tracer_emit", 120, 125, 2),
    ]
    result = fold(spans)
    # Only the run's own solve counts as solver work.
    assert result.calls("memhw.solve") == 1
    assert result.notes("memhw.solve") == [(False, 20)]
    assert result.by_layer["memhw"] == 40
    # The audit keeps its private solves; the emit stays the tracer's.
    assert result.self_ms(AUDIT_SPAN) * 1e6 == 100 - 5
    assert result.calls(AUDIT_SPAN) == 1
    assert result.calls("obs.tracer_emit") == 1
    assert result.by_layer["obs"] == 100
    assert result.by_layer["runtime"] == 200 - 40 - 100


def test_span_log_nests_by_call_order():
    log = SpanLog()
    outer = log.open("runtime.step")
    inner = log.open("memhw.solve")
    log.close(inner, "note")
    log.close(outer)
    sibling = log.open("pages.execute")
    log.close(sibling)
    parents = [s[3] for s in log.spans]
    assert parents == [-1, 0, -1]
    assert log.spans[1][4] == "note"
    assert all(s[2] >= s[1] for s in log.spans)


def _originals():
    return {(owner, t.attr): original
            for t in probe.TARGETS for owner, original in probe.resolve(t)}


def test_instrument_restores_every_original():
    before = _originals()
    assert len(before) >= len(probe.TARGETS)
    log = SpanLog()
    with instrument(log) as active:
        assert active is log
        for (owner, attr), original in before.items():
            patched = (getattr(owner, attr) if isinstance(owner, type)
                       else owner.__dict__[attr])
            assert patched is not original
    for (owner, attr), original in before.items():
        assert owner.__dict__[attr] is original


def test_instrument_restores_when_the_block_raises():
    before = _originals()
    try:
        with instrument(SpanLog()):
            raise RuntimeError("boom")
    except RuntimeError:
        pass
    for (owner, attr), original in before.items():
        assert owner.__dict__[attr] is original


def test_instrumented_loop_records_each_layer():
    from repro.exec import execute

    from perfbench.workloads import WORKLOADS

    cell = WORKLOADS["page-bound"].cells(1)[0]
    log = SpanLog()
    with instrument(log):
        loop = execute.build_loop(cell.spec)
        for __ in range(30):
            loop.step()
    result = fold(log.spans)
    assert result.calls("exec.build_loop") == 1
    assert result.calls("runtime.step") == 30
    assert result.calls("memhw.solve") == 30
    assert result.calls("tiering.quantum") == 30
    assert result.calls("pages.execute") == 30
    assert result.calls("tracking.pebs") == 30
    assert result.calls("core.shift") > 0
