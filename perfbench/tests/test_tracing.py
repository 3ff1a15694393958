import types

import pytest

from tracing import Tracer, aggregate, covered


def test_covered_merges_overlaps_and_clips_to_the_span():
    assert covered([], 0.0, 10.0) == 0.0
    assert covered([(1.0, 3.0), (5.0, 6.0)], 0.0, 10.0) == pytest.approx(3.0)
    assert covered([(1.0, 4.0), (2.0, 5.0), (3.0, 3.5)], 0.0, 10.0) == pytest.approx(4.0)
    assert covered([(-2.0, 1.0), (9.0, 12.0)], 0.0, 10.0) == pytest.approx(2.0)


def test_self_time_is_duration_minus_child_coverage():
    spans = [
        (1, 0, "child", 1.0, 3.0),
        (2, 0, "child", 4.0, 5.0),
        (3, 2, "grandchild", 4.2, 4.7),
        (0, None, "root", 0.0, 10.0),
    ]
    agg = aggregate(spans)
    assert agg["root"] == {"calls": 1, "s": 10.0, "self_s": pytest.approx(7.0)}
    assert agg["child"]["calls"] == 2
    assert agg["child"]["s"] == pytest.approx(3.0)
    assert agg["child"]["self_s"] == pytest.approx(2.5)
    assert agg["grandchild"]["self_s"] == pytest.approx(0.5)


def test_recursive_name_counts_total_time_once():
    spans = [(1, 0, "f", 1.0, 2.0), (0, None, "f", 0.0, 4.0)]
    agg = aggregate(spans)
    assert agg["f"]["calls"] == 2
    assert agg["f"]["s"] == pytest.approx(4.0)
    assert agg["f"]["self_s"] == pytest.approx(4.0)


def test_tracer_records_parents_and_restores_patches():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    mod = types.SimpleNamespace()
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2
    mod.tiny = lambda: None
    original_inner = mod.inner
    seen = []
    tracer.patch(mod, "inner", tracer.timed(mod.inner, "m.inner", lambda a, r: seen.append((a, r))))
    tracer.patch(mod, "outer", tracer.timed(mod.outer, "m.outer"))
    tracer.patch(mod, "tiny", tracer.counted(mod.tiny, "m.tiny"))

    assert mod.outer(1) == 4
    mod.tiny()
    mod.tiny()
    spans, counts = tracer.take()
    by_name = {name: (sid, parent) for sid, parent, name, *_ in spans}
    assert by_name["m.outer"][1] is None
    assert by_name["m.inner"][1] == by_name["m.outer"][0]
    assert seen == [((1,), 2)]
    assert counts["m.tiny"] == 2
    assert tracer.take() == ([], {})

    tracer.restore()
    assert mod.inner is original_inner
    assert mod.outer(1) == 4
    assert tracer.spans == []


def test_span_closes_when_the_call_raises():
    tracer = Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.timed(boom, "boom")()
    spans, _ = tracer.take()
    assert [s[2] for s in spans] == ["boom"]
    assert tracer._stack == []
