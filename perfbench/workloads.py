"""The benchmark's workloads: seeded inputs, one run of the library, output checks.

Every workload calls the library through module attributes looked up at call
time (`lib.network.forward`, never a name bound at set-up), so the traced run
sees every call. The library receives only arrays made here from the seed.
"""

import json
from pathlib import Path

import numpy as np

REFERENCE = Path(__file__).resolve().parent / "reference.json"
REFERENCE_SEED = 0
# Output bits depend on the BLAS kernel; the reference holds across kernels to
# this float64 tolerance, not bit for bit.
REF_RTOL = 1e-9
REF_ATOL = 1e-12
RANGE_EPS = 1e-9

# Sizes for net-small: none is a multiple of 2 * window (16), so every pair
# takes the mirror-pad and crop path in each enhance block.
SMALL_SIZES = [
    (33, 47), (57, 31), (40, 56), (25, 70), (63, 38), (45, 45),
    (29, 59), (52, 27), (71, 34), (36, 66), (49, 53), (27, 41),
    (61, 61), (35, 29), (44, 69), (67, 50), (31, 37), (55, 43),
    (39, 62), (69, 26), (26, 54), (58, 35), (47, 71), (42, 30),
]


def source_pair(rng, h, w):
    """A synthetic "visible" / "infrared" pair in [0, 1].

    Visible: a grid of flat patches about 8 px wide with jittered borders
    (sharp edges), plus fine noise texture. Infrared: a smooth background
    ramp plus one bright Gaussian blob in each ~32x32 px cell. Patch levels,
    blob sizes and blob brightness are evenly spaced values in a seeded
    order, so the seed moves features around but barely changes the image
    statistics, the work or the losses.
    """
    y = (np.arange(h)[:, None] + 0.5) / h
    x = (np.arange(w)[None, :] + 0.5) / w

    def spread(lo, hi, n):
        return rng.permutation(np.linspace(lo, hi, n))

    def cuts(n):
        return np.sort(np.arange(1, n) / n + rng.uniform(-0.3, 0.3, n - 1) / n)

    ny, nx = max(2, h // 8), max(2, w // 8)
    # Dark and bright patches alternate like a checkerboard, so every border
    # is a dark-bright step and the total edge strength is nearly seed-free.
    bright = (np.arange(ny)[:, None] + np.arange(nx)[None, :]) % 2 == 1
    levels = np.empty((ny, nx))
    levels[bright] = spread(0.55, 0.9, int(bright.sum()))
    levels[~bright] = spread(0.1, 0.45, int((~bright).sum()))
    vis = levels[np.searchsorted(cuts(ny), y[:, 0])][:, np.searchsorted(cuts(nx), x[0])]
    # Fine texture: white noise smoothed by [1, 2, 1] / 4 along each axis.
    z = rng.standard_normal((h + 2, w + 2))
    z = (z[:-2] + 2.0 * z[1:-1] + z[2:]) / 4.0
    tex = (z[:, :-2] + 2.0 * z[:, 1:-1] + z[:, 2:]) / 4.0
    vis = np.clip(vis + 0.08 * tex, 0.0, 1.0)

    angle = rng.uniform(0.0, 2.0 * np.pi)
    ir = 0.25 + 0.1 * ((x - 0.5) * np.cos(angle) + (y - 0.5) * np.sin(angle))
    my, mx = max(1, h // 32), max(1, w // 32)
    n = my * mx
    cy = (np.repeat(np.arange(my), mx) + rng.uniform(0.35, 0.65, n)) * h / my
    cx = (np.tile(np.arange(mx), my) + rng.uniform(0.35, 0.65, n)) * w / mx
    sigma, amp = spread(4.0, 8.0, n), spread(0.3, 0.6, n)
    gy = np.exp(-(((h * y[:, 0])[None, :] - cy[:, None]) ** 2) / (2 * sigma[:, None] ** 2))
    gx = np.exp(-(((w * x[0])[None, :] - cx[:, None]) ** 2) / (2 * sigma[:, None] ** 2))
    ir = ir + (gy * amp[:, None]).T @ gx  # sum of separable blobs
    return vis, np.clip(ir, 0.0, 1.0)


def _check_image(key, img, shape):
    if img.shape != shape:
        return [f"{key}: shape {img.shape}, expected {shape}"]
    if not np.isfinite(img).all():
        return [f"{key}: non-finite values"]
    if img.min() < 0.0 or img.max() > 1.0:
        return [f"{key}: values outside [0, 1]: [{img.min()}, {img.max()}]"]
    return []


def _check_range(key, values, lo, hi):
    values = np.asarray(values)
    if not np.isfinite(values).all():
        return [f"{key}: non-finite values"]
    if values.min() < lo or values.max() > hi:
        return [f"{key}: values outside [{lo}, {hi}]: [{values.min()}, {values.max()}]"]
    return []


class NetFuse:
    """network.forward over a list of pairs, default NetConfig, seed-0 weights."""

    # Spans per forward with the default NetConfig (4 blocks, 2 streams, 2 bands).
    CALLS_PER_FORWARD = {
        "network.forward": 1,
        "network.feature_extract": 2,
        "network.enhance_block": 4,
        "tensor.conv2d": 17,
        "tensor.layer_norm": 16,
        "tensor.softmax_rows": 16,
        "attention.mhsa": 16,
        "wavelet.dwt2": 8,
        "wavelet.iwt2": 8,
        "losses.filt": 0,
    }

    def __init__(self, lib, seed, sizes):
        self.lib = lib
        rng = np.random.default_rng(seed)
        self.pairs = [source_pair(rng, h, w) for h, w in sizes]
        self.cfg = lib.network.NetConfig()
        self.weights = lib.network.init_weights(self.cfg, 0)
        self.pixels = sum(h * w for h, w in sizes)

    def run(self):
        fwd = self.lib.network
        return {
            f"fused{i:02d}": fwd.forward(a, b, self.weights, self.cfg)
            for i, (a, b) in enumerate(self.pairs)
        }

    def check(self, out):
        problems = []
        for i, (a, _) in enumerate(self.pairs):
            key = f"fused{i:02d}"
            problems += _check_image(key, out[key], a.shape)
        return problems

    def final_loss(self, out):
        losses = self.lib.losses
        return float(np.mean([
            losses.loss_total(out[f"fused{i:02d}"], a, b, with_grad=False).total
            for i, (a, b) in enumerate(self.pairs)
        ]))

    def expected_calls(self, tracer):
        n = len(self.pairs)
        return {name: k * n for name, k in self.CALLS_PER_FORWARD.items()}


class NetLarge(NetFuse):
    """One 256x256 forward: bulk attention, conv and softmax kernels."""

    name = "net-large"

    def __init__(self, lib, seed):
        super().__init__(lib, seed, [(256, 256)])


class NetSmall(NetFuse):
    """24 small unaligned forwards: per-call overhead and the mirror-pad/crop path."""

    name = "net-small"

    def __init__(self, lib, seed):
        super().__init__(lib, seed, SMALL_SIZES)


class VarFuse:
    """fusionopt.optimize at 128x128, 50 iterations: loss filters and adjoints,
    no attention."""

    name = "var-fuse"

    MAX_ITERS = 50
    # Spans per loss_total call.
    CALLS_PER_LOSS = {
        "losses.loss_intensity": 1,
        "losses.loss_texture": 1,
        "losses.loss_ssim": 1,
        "losses.filt": 16,
        "losses.filt_adjoint": 8,
        "losses.reflect_pad_adjoint": 8,
    }

    def __init__(self, lib, seed):
        self.lib = lib
        self.a, self.b = source_pair(np.random.default_rng(seed), 128, 128)
        self.cfg = lib.fusionopt.OptConfig(max_iters=self.MAX_ITERS)
        self.pixels = self.a.size

    def run(self):
        fused, trace = self.lib.fusionopt.optimize(self.a, self.b, self.cfg)
        self.last_trace = trace
        return {
            "fused": fused,
            "loss_trace": np.array([r.total for r in trace.reports]),
            "iterations": np.array([float(trace.iterations)]),
        }

    def check(self, out):
        problems = _check_image("fused", out["fused"], self.a.shape)
        trace = out["loss_trace"]
        iters = int(out["iterations"][0])
        problems += _check_range("loss_trace", trace, 0.0, np.inf)
        if np.any(np.diff(trace) > 0.0):
            problems.append("loss_trace: loss increased")
        if len(trace) != iters + 1 or iters > self.MAX_ITERS:
            problems.append(f"loss_trace: {len(trace)} entries for {iters} iterations")
        return problems

    def final_loss(self, out):
        return float(out["loss_trace"][-1])

    def expected_calls(self, tracer):
        n = tracer.get("losses.loss_total").calls
        calls = {name: k * n for name, k in self.CALLS_PER_LOSS.items()}
        calls.update({"fusionopt.optimize": 1, "tensor.softmax_rows": 0, "tensor.conv2d": 0})
        return calls


class Score:
    """metrics.score and band_correlation_study on one 512x512 triple whose
    fused image is a fixed per-pixel blend: SSIM, Q_abf, Q_w, FMI."""

    name = "score"

    # Each ssim call runs 5 filts; q_abf and fmi each run 2 per image.
    EXPECTED_CALLS = {
        "metrics.score": 1,
        "metrics.band_correlation_study": 1,
        "metrics.q_abf": 1,
        "metrics.q_w": 1,
        "metrics.fmi": 1,
        "losses.ssim": 22,
        "losses.filt": 22 * 5 + 12,
        "wavelet.dwt2": 3,
        "tensor.softmax_rows": 0,
    }

    def __init__(self, lib, seed):
        self.lib = lib
        self.a, self.b = source_pair(np.random.default_rng(seed), 512, 512)
        y, x = np.mgrid[0:512, 0:512] / 512.0
        blend = 0.5 + 0.3 * np.sin(2.0 * np.pi * x) * np.cos(2.0 * np.pi * y)
        self.f = blend * self.a + (1.0 - blend) * self.b
        self.pixels = self.f.size

    def run(self):
        m = self.lib.metrics
        report = m.score(self.a, self.b, self.f)
        rows = m.band_correlation_study(self.a, self.b, self.f)
        return {
            "metrics": np.array([report.ssim_a, report.ssim_b, report.q_abf, report.q_w, report.fmi]),
            "bands": np.array([[low, high] for _, _, low, high in rows]),
        }

    def check(self, out):
        ssim_a, ssim_b, qabf, qw, fmi = out["metrics"]
        return (
            _check_range("ssim", [ssim_a, ssim_b], -1.0, 1.0 + RANGE_EPS)
            + _check_range("q_abf", qabf, 0.0, 1.0 + RANGE_EPS)
            + _check_range("q_w", qw, -1.0, 1.0 + RANGE_EPS)
            + _check_range("fmi", fmi, 0.0, 1.0 + RANGE_EPS)
            + _check_range("bands", out["bands"], -1.0, 1.0 + RANGE_EPS)
            + ([] if out["bands"].shape == (8, 2) else [f"bands: shape {out['bands'].shape}"])
        )

    def final_loss(self, out):
        return self.lib.losses.loss_total(self.f, self.a, self.b, with_grad=False).total

    def expected_calls(self, tracer):
        return dict(self.EXPECTED_CALLS)


WORKLOADS = {cls.name: cls for cls in (NetLarge, NetSmall, VarFuse, Score)}


def digest(out):
    """Compact float64 summary of a run's outputs: shape, sum, sum of squares
    and up to 16 evenly spaced values of each array."""
    d = {}
    for key, arr in out.items():
        flat = np.ravel(arr)
        idx = np.linspace(0, flat.size - 1, num=min(16, flat.size)).round().astype(int)
        d[key] = {
            "shape": list(np.shape(arr)),
            "sum": float(flat.sum()),
            "sumsq": float((flat * flat).sum()),
            "sample": flat[idx].tolist(),
        }
    return d


def load_reference(name, seed):
    """The reference digest of workload `name`, or None for a seed without one."""
    if seed != REFERENCE_SEED:
        return None
    with open(REFERENCE) as fh:
        return json.load(fh)["workloads"][name]


def compare(got, ref):
    """Differences between two digests beyond the float64 tolerance."""
    problems = []
    if sorted(got) != sorted(ref):
        return [f"outputs {sorted(got)}, reference has {sorted(ref)}"]
    for key in ref:
        g, r = got[key], ref[key]
        if g["shape"] != r["shape"]:
            problems.append(f"{key}: shape {g['shape']}, reference {r['shape']}")
            continue
        for field in ("sum", "sumsq", "sample"):
            if not np.allclose(g[field], r[field], rtol=REF_RTOL, atol=REF_ATOL):
                problems.append(f"{key}.{field} differs from the reference")
    return problems


def check(wl, out, ref):
    """All problems with one run's outputs: invariants, then the reference."""
    problems = wl.check(out)
    if ref is not None:
        problems += compare(digest(out), ref)
    return problems
