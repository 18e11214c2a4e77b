"""Per-layer metrics from a traced run.

Counts marked "computed" come from argument shapes, not from the hardware:
they repeat exactly from run to run and ignore cache traffic and temporaries.
"""

import math

import numpy as np

MODULES = ("tensor", "wavelet", "attention", "network", "losses", "fusionopt", "metrics")


def _conv2d(tracer, args):
    b, cin, h, w = np.shape(args["x"])
    cout, _, k, _ = np.shape(args["kernel"])
    tracer.count("conv2d.flop", 2.0 * b * cout * cin * k * k * h * w)


def _mhsa(tracer, args):
    # Q, K, V and output projections (4 t*c*c) plus Q K^T and attn V (2 t*t*c),
    # per window, at 2 flops per multiply-add.
    nwin, t, c = args["q_src"].tokens.shape
    tracer.count("mhsa.flop", 2.0 * nwin * t * c * (4 * c + 2 * t))


def _softmax_rows(tracer, args):
    # One read of the input and one write of the output, float64.
    tracer.count("softmax.bytes", 2.0 * 8 * np.size(args["m"]))


def _enhance_block(tracer, args):
    b, _, h, w = np.shape(args["f1"])
    mult = 2 * args["cfg"].window
    tracer.count("pad.real_px", b * h * w)
    tracer.count("pad.padded_px", b * math.ceil(h / mult) * mult * math.ceil(w / mult) * mult)


COUNTERS = {
    "tensor.conv2d": _conv2d,
    "attention.mhsa": _mhsa,
    "tensor.softmax_rows": _softmax_rows,
    "network.enhance_block": _enhance_block,
}

# Per-layer metrics computed from array shapes rather than measured.
COMPUTED = (
    "tensor.softmax_rows.mib_moved",
    "tensor.conv2d.gflop",
    "attention.mhsa.gflop",
    "network.pad_ratio",
)

UNITS = {
    "tensor.softmax_rows.calls": "count",
    "tensor.softmax_rows.self_s": "s",
    "tensor.softmax_rows.mib_moved": "MiB",
    "tensor.conv2d.calls": "count",
    "tensor.conv2d.self_s": "s",
    "tensor.conv2d.gflop": "GFLOP",
    "tensor.layer_norm.calls": "count",
    "tensor.layer_norm.self_s": "s",
    "attention.mhsa.calls": "count",
    "attention.mhsa.self_s": "s",
    "attention.mhsa.gflop": "GFLOP",
    "attention.window_partition.self_s": "s",
    "attention.window_merge.self_s": "s",
    "attention.frequency_interaction.self_s": "s",
    "wavelet.dwt2.calls": "count",
    "wavelet.dwt2.self_s": "s",
    "wavelet.iwt2.calls": "count",
    "wavelet.iwt2.self_s": "s",
    "network.forward.self_s": "s",
    "network.feature_extract.incl_s": "s",
    "network.enhance_block.calls": "count",
    "network.enhance_block.self_s": "s",
    "network.pad_ratio": "ratio",
    "losses.filt.calls": "count",
    "losses.filt.self_s": "s",
    "losses.filt_adjoint.calls": "count",
    "losses.filt_adjoint.self_s": "s",
    "losses.reflect_pad_adjoint.self_s": "s",
    "losses.loss_intensity.self_s": "s",
    "losses.loss_texture.self_s": "s",
    "losses.loss_ssim.self_s": "s",
    "fusionopt.iterations": "count",
    "fusionopt.loss_evals": "count",
    "fusionopt.accept_ratio": "ratio",
    "fusionopt.unused_grads": "count",
    "metrics.ssim.incl_s": "s",
    "metrics.q_abf.incl_s": "s",
    "metrics.q_w.incl_s": "s",
    "metrics.fmi.incl_s": "s",
    "metrics.band_correlation_study.incl_s": "s",
    "metrics.q_w.peak_mib": "MiB",
    **{f"{m}.self_s": "s" for m in MODULES},
    "trace.overhead_s": "s",
}


def optimizer_counts(loss_results, trace):
    """Iterations, loss evaluations, accepted / evaluated candidates, and
    gradients computed but never used for a step.

    `loss_results` are the LossReports that loss_total returned, in order.
    Every accepted report except the last becomes the base of the next step;
    the last does so only if candidates were evaluated after it.
    """
    evals = len(loss_results)
    bases = len(trace.reports) - 1 + (loss_results[-1] is not trace.reports[-1])
    return {
        "iterations": trace.iterations,
        "loss_evals": evals,
        "accept_ratio": trace.iterations / (evals - 1),
        "unused_grads": evals - bases,
    }


def per_layer(tracer, wl, qw_peak_mib):
    """Every metric in UNITS except trace.overhead_s; 0 where the workload
    does not reach the layer."""
    m = {}
    for name in UNITS:
        span, _, field = name.rpartition(".")
        if field in ("calls", "self_s", "incl_s") and span in tracer.stats:
            m[name] = getattr(tracer.stats[span], field)
    for module in MODULES:
        m[f"{module}.self_s"] = sum(
            st.self_s for span, st in tracer.stats.items() if span.startswith(module + ".")
        )
    # ssim is defined in losses; in these workloads only metrics calls it.
    m["metrics.ssim.incl_s"] = tracer.get("losses.ssim").incl_s
    c = tracer.counters
    m["tensor.softmax_rows.mib_moved"] = c.get("softmax.bytes", 0.0) / 2**20
    m["tensor.conv2d.gflop"] = c.get("conv2d.flop", 0.0) / 1e9
    m["attention.mhsa.gflop"] = c.get("mhsa.flop", 0.0) / 1e9
    real = c.get("pad.real_px", 0.0)
    m["network.pad_ratio"] = c.get("pad.padded_px", 0.0) / real if real else 0.0
    trace = getattr(wl, "last_trace", None)
    if trace is not None:
        opt = optimizer_counts(tracer.results.get("losses.loss_total", []), trace)
        m.update({f"fusionopt.{k}": v for k, v in opt.items()})
    m["metrics.q_w.peak_mib"] = qw_peak_mib
    for name in UNITS:
        m.setdefault(name, 0.0)
    return m
