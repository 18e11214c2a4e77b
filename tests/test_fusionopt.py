import tracemalloc

import numpy as np
import pytest

from conftest import smooth_image
from wavefuse.errors import ShapeError
from wavefuse.fusionopt import OptConfig, optimize
from wavefuse.losses import LossWeights, ssim


def test_identical_sources_recover_source():
    a = smooth_image(np.random.default_rng(5), 32)
    fused, trace = optimize(a, a.copy(), OptConfig(max_iters=500))
    assert ssim(fused, a) > 0.995
    assert trace.iterations <= 500


def test_monotone_trace():
    g = np.random.default_rng(5)
    a = smooth_image(g, 32)
    b = smooth_image(g, 32)
    _, trace = optimize(a, b, OptConfig(max_iters=120))
    totals = [r.total for r in trace.reports]
    assert all(t1 >= t2 for t1, t2 in zip(totals, totals[1:]))
    assert trace.stop_reason in ("converged", "max_iters")


def test_substantial_loss_reduction():
    g = np.random.default_rng(5)
    a = smooth_image(g, 32)
    b = smooth_image(g, 32)
    _, trace = optimize(a, b)
    assert trace.reports[-1].total < 0.5 * trace.reports[0].total


def test_result_stays_in_range():
    g = np.random.default_rng(6)
    a = smooth_image(g, 32)
    b = smooth_image(g, 32)
    fused, _ = optimize(a, b, OptConfig(max_iters=50))
    assert fused.min() >= 0.0 and fused.max() <= 1.0


def test_intensity_only_pull_toward_single_source():
    g = np.random.default_rng(7)
    a = smooth_image(g, 32)
    b = smooth_image(g, 32)
    w = LossWeights(alpha=1.0, beta=0.0, gamma=0.0, alpha1=1.0, alpha2=0.0)
    fused, _ = optimize(a, b, OptConfig(max_iters=200, weights=w, init="source_b"))
    assert np.abs(fused - a).mean() < np.abs(b - a).mean()


def test_init_modes():
    g = np.random.default_rng(8)
    a = smooth_image(g, 16)
    b = smooth_image(g, 16)
    for init, start in (("average", (a + b) / 2), ("source_a", a), ("source_b", b)):
        _, trace = optimize(a, b, OptConfig(max_iters=1, init=init))
        from wavefuse.losses import loss_total

        assert trace.reports[0].total == pytest.approx(
            loss_total(start, a, b, with_grad=False).total, abs=1e-15
        )


def test_exhausted_line_search_stops_at_the_start():
    # The intensity pull toward b is half the pull toward a, so every step
    # along the gradient from f = a raises the loss: all 21 step sizes fail.
    g = np.random.default_rng(10)
    a = g.uniform(0.2, 0.4, (24, 24))
    b = g.uniform(0.6, 0.8, (24, 24))
    w = LossWeights(alpha1=1.0, alpha2=0.5, beta=0.0, gamma=0.0)
    fused, trace = optimize(a, b, OptConfig(weights=w, init="source_a"))
    assert trace.stop_reason == "converged"
    assert trace.iterations == 0
    assert len(trace.reports) == 1
    assert np.array_equal(fused, a)


def test_iterations_is_derived_from_the_reports():
    g = np.random.default_rng(9)
    _, trace = optimize(smooth_image(g, 16), smooth_image(g, 16), OptConfig(max_iters=3))
    assert trace.iterations == len(trace.reports) - 1 == 3
    with pytest.raises(AttributeError):
        trace.iterations = 0


def test_trace_csv_format():
    g = np.random.default_rng(9)
    a = smooth_image(g, 16)
    b = smooth_image(g, 16)
    _, trace = optimize(a, b, OptConfig(max_iters=3))
    lines = trace.csv().splitlines()
    assert lines[0] == "iter,total,l_int,l_text,l_ssim"
    assert lines[1].startswith("0,")
    assert len(lines) == len(trace.reports) + 1


def test_config_validation():
    for step in (0.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="step"):
            OptConfig(step=step)
    for tolerance in (-1e-3, np.inf, np.nan):
        with pytest.raises(ValueError, match="tolerance"):
            OptConfig(tolerance=tolerance)
    with pytest.raises(ValueError):
        OptConfig(max_iters=0)
    with pytest.raises(ValueError):
        OptConfig(init="zeros")


def test_shape_guards():
    with pytest.raises(ShapeError):
        optimize(np.zeros((16, 16)), np.zeros((16, 17)))
    with pytest.raises(ShapeError):
        optimize(np.zeros((8, 8)), np.zeros((8, 8)))


def test_smallest_accepted_size():
    # 16x16 is the smallest pair optimize takes; one pixel less raises.
    g = np.random.default_rng(15)
    a, b = g.uniform(0, 1, (2, 16, 16))
    fused, trace = optimize(a, b, OptConfig(max_iters=3))
    assert fused.shape == (16, 16) and np.isfinite(fused).all()
    assert trace.reports[-1].total < trace.reports[0].total
    for shape in ((15, 16), (16, 15)):
        with pytest.raises(ShapeError):
            optimize(*g.uniform(0, 1, (2, *shape)))


def test_peak_memory_does_not_grow_with_iterations():
    # Only the live report keeps a gradient, so a longer run adds scalar loss
    # terms alone (each run below takes all its iterations).
    a, b = np.random.default_rng(9).uniform(0, 1, (2, 128, 128))
    peaks = []
    for iters in (10, 100):
        tracemalloc.start()
        try:
            _, trace = optimize(a, b, OptConfig(max_iters=iters))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert trace.iterations == iters
    assert peaks[1] <= 1.05 * peaks[0]
