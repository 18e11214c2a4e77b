"""The benchmark's span counters (perfbench/layers.py) read layer arguments by
name: mhsa's q_src, conv2d's x and kernel, softmax_rows' m and enhance_block's
f1 and cfg. A signature change that renames one of them breaks the traced
benchmark run; the first test runs the same hooks on three forwards. The
traced workloads assert exact span counts, which a new public helper, or a
lane thread calling a public function, would change; the first test counts
the forward's, the second score's on a small triple, and the third the loss
path's counts on a short optimize run. The optimizer counts tell step
bases from rejected candidates by the identity of the reports loss_total
returned; the fourth test holds optimize to that."""

import importlib
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import layers  # noqa: E402
import spans  # noqa: E402
import wavefuse  # noqa: E402
import workloads  # noqa: E402
from wavefuse import fusionopt, metrics, network  # noqa: E402


def test_traced_forward_feeds_every_counter(rng, monkeypatch):
    # The net workloads' table of spans per forward, on a window-aligned pair,
    # on one that takes net-small's mirror-pad and crop path, and on one whose
    # logits (1 to 3.1 M elements) run softmax_rows and mhsa in two lanes,
    # which must keep every span on the caller's thread.
    modules = {m: importlib.import_module(f"wavefuse.{m}") for m in layers.MODULES}
    cfg = network.NetConfig()
    weights = network.init_weights(cfg, 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    for shape in ((32, 32), (33, 47), (128, 128)):
        a, b = rng.uniform(0, 1, (2, *shape))
        tracer = spans.Tracer()
        with spans.instrument(
            tracer, modules, [wavefuse, *modules.values()], on_call=layers.COUNTERS
        ):
            out = network.forward(a, b, weights, cfg)
        assert out.shape == shape
        for name, want in workloads.NetFuse.CALLS_PER_FORWARD.items():
            assert tracer.get(name).calls == want, (shape, name)
        for counter in ("mhsa.flop", "conv2d.flop", "softmax.bytes", "pad.real_px"):
            assert tracer.counters.get(counter, 0.0) > 0, (shape, counter)
        assert tracer.get("tensor.softmax_rows").self_s > 0, shape
    assert not hasattr(network.forward, "__wrapped__")  # bindings restored


def test_traced_score_span_counts(rng):
    modules = {m: importlib.import_module(f"wavefuse.{m}") for m in layers.MODULES}
    a, b = rng.uniform(0, 1, (2, 64, 64))
    f = 0.5 * (a + b)
    tracer = spans.Tracer()
    with spans.instrument(
        tracer, modules, [wavefuse, *modules.values()], on_call=layers.COUNTERS
    ):
        metrics.score(a, b, f)
        metrics.band_correlation_study(a, b, f)
    # The benchmark's own table: 22 ssim calls of five filts each, and two
    # filts per image in q_abf and in fmi, 122 filts in all.
    for name, want in workloads.Score.EXPECTED_CALLS.items():
        assert tracer.get(name).calls == want, name


def test_traced_optimize_span_counts(rng):
    # The var-fuse workload's table: spans per loss_total call. A filter that
    # reached another public function (filt_adjoint calling filt, say) would
    # change these counts.
    modules = {m: importlib.import_module(f"wavefuse.{m}") for m in layers.MODULES}
    a, b = rng.uniform(0, 1, (2, 32, 32))
    tracer = spans.Tracer()
    with spans.instrument(tracer, modules, [wavefuse, *modules.values()]):
        fusionopt.optimize(a, b, fusionopt.OptConfig(max_iters=3))
    n = tracer.get("losses.loss_total").calls
    assert n >= 4
    for name, per_loss in workloads.VarFuse.CALLS_PER_LOSS.items():
        assert tracer.get(name).calls == per_loss * n, name
    assert tracer.get("fusionopt.optimize").calls == 1


def test_optimize_keeps_the_reports_loss_total_returned(rng):
    # A step of 2 makes the line search reject candidates as well. The trace
    # holds the very reports loss_total returned, each spent one without its
    # gradient; a copy would skew the benchmark's unused_grads silently.
    modules = {m: importlib.import_module(f"wavefuse.{m}") for m in layers.MODULES}
    a, b = rng.uniform(0, 1, (2, 32, 32))
    tracer = spans.Tracer()
    with spans.instrument(
        tracer, modules, [wavefuse, *modules.values()], keep_results=("losses.loss_total",)
    ):
        _, trace = fusionopt.optimize(a, b, fusionopt.OptConfig(max_iters=10, step=2.0))
    results = tracer.results["losses.loss_total"]
    assert all(any(r is kept for kept in results) for r in trace.reports)
    assert [r.grad is not None for r in trace.reports] == [False] * trace.iterations + [True]
    counts = layers.optimizer_counts(results, trace)
    assert counts["loss_evals"] == len(results) > len(trace.reports)
    assert counts["unused_grads"] == len(results) - trace.iterations
