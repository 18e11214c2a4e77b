"""Tests of the span arithmetic and of patching and restoring bindings.

    python3 -m pytest perfbench -q
"""

import types

import pytest

import layers
import spans


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def test_nested_spans_subtract_child_time():
    clock = FakeClock()
    t = spans.Tracer(clock)
    t.enter("outer")
    clock.advance(2.0)
    t.enter("inner")
    clock.advance(3.0)
    t.exit()
    clock.advance(1.0)
    t.enter("inner")
    clock.advance(4.0)
    t.exit()
    t.exit()
    assert t.get("outer").calls == 1
    assert t.get("outer").self_s == pytest.approx(3.0)
    assert t.get("outer").incl_s == pytest.approx(10.0)
    assert t.get("inner").calls == 2
    assert t.get("inner").self_s == pytest.approx(7.0)
    assert t.get("inner").incl_s == pytest.approx(7.0)


def test_recursive_span_counts_inclusive_time_once():
    clock = FakeClock()
    t = spans.Tracer(clock)
    t.enter("f")
    clock.advance(1.0)
    t.enter("g")
    clock.advance(1.0)
    t.enter("f")
    clock.advance(5.0)
    t.exit()
    t.exit()
    clock.advance(1.0)
    t.exit()
    f, g = t.get("f"), t.get("g")
    assert f.calls == 2
    assert f.self_s == pytest.approx(7.0)  # 2 s outer + 5 s inner
    assert f.incl_s == pytest.approx(8.0)  # outermost span only, not 8 + 5
    assert g.self_s == pytest.approx(1.0)
    assert g.incl_s == pytest.approx(6.0)


def test_grandchild_time_is_not_subtracted_twice():
    clock = FakeClock()
    t = spans.Tracer(clock)
    t.enter("a")
    t.enter("b")
    clock.advance(1.0)
    t.enter("c")
    clock.advance(2.0)
    t.exit()
    t.exit()
    clock.advance(4.0)
    t.exit()
    assert t.get("a").self_s == pytest.approx(4.0)
    assert t.get("b").self_s == pytest.approx(1.0)
    assert t.get("c").self_s == pytest.approx(2.0)
    total_self = sum(st.self_s for st in t.stats.values())
    assert total_self == pytest.approx(t.get("a").incl_s)


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    t = spans.Tracer(clock)

    def boom():
        clock.advance(1.0)
        raise ValueError("x")

    wrapped = t.wrap("m.boom", boom)
    with pytest.raises(ValueError):
        wrapped()
    assert t.stack == []
    assert t.get("m.boom").calls == 1
    assert t.get("m.boom").self_s == pytest.approx(1.0)


def _fake_modules():
    lib = types.ModuleType("fakelib.lib")

    def helper(x):
        return x + 1

    def entry(x):
        return lib.helper(x) * 2

    def _private(x):
        return x

    for fn in (helper, entry, _private):
        fn.__module__ = lib.__name__
        setattr(lib, fn.__name__, fn)
    user = types.ModuleType("fakelib.user")
    user.helper = helper  # a re-binding, like `from .lib import helper`
    return lib, user


def test_instrument_patches_every_binding_and_restores_them():
    lib, user = _fake_modules()
    originals = (lib.helper, lib.entry, lib._private, user.helper)
    t = spans.Tracer(FakeClock())
    with spans.instrument(t, {"lib": lib}, [lib, user]):
        assert lib.entry(1) == 4
        assert user.helper(1) == 2
        assert lib._private is originals[2]
    assert (lib.helper, lib.entry, lib._private, user.helper) == originals
    assert t.get("lib.entry").calls == 1
    assert t.get("lib.helper").calls == 2
    assert "lib._private" not in t.stats


def test_counters_and_kept_results():
    lib, user = _fake_modules()
    t = spans.Tracer(FakeClock())
    on_call = {"lib.helper": lambda tr, args: tr.count("helper.x", args["x"])}
    with spans.instrument(t, {"lib": lib}, [lib, user], on_call, ("lib.entry",)):
        lib.entry(3)
        lib.entry(x=5)
    assert t.counters["helper.x"] == 8
    assert t.results["lib.entry"] == [8, 12]


def test_optimizer_counts():
    reports = [object() for _ in range(6)]
    trace = types.SimpleNamespace(reports=[reports[0], reports[2], reports[3]], iterations=2)
    # evals: r0 base; r1 rejected; r2 accepted; r3 accepted; r4, r5 rejected
    # after r3, so r3 was a base too and only r1, r4 and r5 wasted a gradient.
    got = layers.optimizer_counts(reports, trace)
    assert got == {"iterations": 2, "loss_evals": 6, "accept_ratio": 2 / 5, "unused_grads": 3}
    trace.reports.append(reports[5])
    trace.iterations = 3
    # Ending on an accepted report: its gradient is never used.
    assert layers.optimizer_counts(reports, trace)["unused_grads"] == 3
