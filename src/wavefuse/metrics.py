"""Fusion quality metrics: SSIM, gradient-preservation score (Q_abf family),
Piella's weighted quality index (Q_w), and feature mutual information (FMI),
plus the wavelet band-correlation study.

The gradient-preservation score is normalized by its attainable maximum so
that perfect edge preservation scores exactly 1.
"""

from dataclasses import dataclass

import numpy as np

from . import losses
from .errors import ShapeError
from .imageio import check_images, csv_text
from .losses import SOBEL_X, SOBEL_Y, SSIM_WINDOW, _sliding, _strips, filt, ssim
from .wavelet import dwt2

QABF_GAMMA_G = 0.9994
QABF_KAPPA_G = -15.0
QABF_SIGMA_G = 0.5
QABF_GAMMA_T = 0.9879
QABF_KAPPA_T = -22.0
QABF_SIGMA_T = 0.8

QW_WINDOW = 8
FMI_BINS = 256

# Sobel responses below this are treated as exactly zero before the
# orientation branch. Reflect padding makes the x-response mathematically
# zero along the first and last columns (mirrored neighbors cancel), but
# different summation orders leave ~1e-17 residue; without the snap the
# arctan branch at zero would flip by pi on such pixels.
EDGE_EPS = 1e-12


@dataclass(frozen=True)
class MetricReport:
    ssim_a: float
    ssim_b: float
    q_abf: float
    q_w: float
    fmi: float


def _edge_features(x, orientation):
    """Sobel gradient strength of x and, if orientation, its orientation,
    written a row strip at a time over its x and y responses."""
    # Under reflect padding the Sobel response across a side under 3 px is 0.
    if min(x.shape) < 3:
        raise ShapeError(f"edge features need at least 3x3 images, got {x.shape}")
    g, t = filt(x, SOBEL_X), filt(x, SOBEL_Y)
    for s in _strips(len(x), x[0].nbytes):
        sx, sy = g[s], t[s]
        sx[np.abs(sx) < EDGE_EPS] = 0.0
        sy[np.abs(sy) < EDGE_EPS] = 0.0
        if orientation:  # where sx is 0 it is arctan(inf) = pi/2
            theta = np.divide(sy, sx, out=np.full_like(sx, np.inf), where=sx != 0.0)
        np.sqrt(sx * sx + sy * sy, out=sx)
        if orientation:
            np.arctan(theta, out=sy)
    return g, t


def _qabf_sigmoid(x, gamma, kappa, sigma):
    return gamma / (1.0 + np.exp(kappa * (x - sigma)))


def _preservation(g_src, t_src, g_f, t_f):
    hi = np.maximum(g_src, g_f)
    ratio = np.divide(np.minimum(g_src, g_f), hi, out=np.ones_like(hi), where=hi > 0.0)
    align = 1.0 - np.abs(t_src - t_f) / (np.pi / 2.0)
    qg = _qabf_sigmoid(ratio, QABF_GAMMA_G, QABF_KAPPA_G, QABF_SIGMA_G)
    qt = _qabf_sigmoid(align, QABF_GAMMA_T, QABF_KAPPA_T, QABF_SIGMA_T)
    peak = _qabf_sigmoid(1.0, QABF_GAMMA_G, QABF_KAPPA_G, QABF_SIGMA_G) * _qabf_sigmoid(
        1.0, QABF_GAMMA_T, QABF_KAPPA_T, QABF_SIGMA_T
    )
    return qg * qt / peak


def q_abf(a, b, f):
    """Edge-strength-weighted average of per-source edge preservation.

    Flat triples (no edge energy anywhere) preserve everything vacuously and
    score 1. Holds f's and one source's features and the running numerator;
    the weights add up as each source's strength sum.
    """
    a, b, f = check_images(a, b, f)
    gf, tf = _edge_features(f, orientation=True)
    num = np.zeros(f.shape)
    total = 0.0
    for x in (a, b):
        g, t = _edge_features(x, orientation=True)
        for s in _strips(len(f), f[0].nbytes):
            num[s] += _preservation(g[s], t[s], gf[s], tf[s]) * g[s]
        total += g.sum()
        del g, t  # freed before the next source's Sobel filters
    if total == 0.0:
        return 1.0
    return float(num.sum() / total)


def _window_mean(x):
    """Mean of every QW_WINDOW x QW_WINDOW window, from separable box sums."""
    return _sliding(x, QW_WINDOW, np.add) / QW_WINDOW**2


def _window_stats(x):
    mean = _window_mean(x)
    # A one-pass variance can round below 0, and it leaves rounding residue on
    # a window whose samples are all equal, which would pass for signal in Q0;
    # such a window has variance exactly 0.
    var = np.maximum(_window_mean(x * x) - mean**2, 0.0)
    var[_sliding(x, QW_WINDOW, np.maximum) == _sliding(x, QW_WINDOW, np.minimum)] = 0.0
    return mean, var


def _q0(x, mean_x, var_x, y, mean_y, var_y):
    """Universal image quality index per sliding window."""
    # The one-pass covariance leaves rounding residue that can exceed the
    # Cauchy-Schwarz bound sqrt(var_x * var_y) on windows whose pixels differ
    # by an ulp, and that is nonzero on flat windows, whose covariance with
    # any other is exactly 0. Clamped to the bound, |Q0| <= 1 up to rounding.
    # Spent temporaries are dropped and num divided in place, for q_w's peak.
    bound = np.sqrt(var_x * var_y)
    cov = np.clip(_window_mean(x * y) - mean_x * mean_y, -bound, bound)
    del bound
    num = 4.0 * cov * mean_x * mean_y
    del cov
    den = (var_x + var_y) * (mean_x**2 + mean_y**2)
    ok = den != 0.0
    out = np.divide(num, den, out=num, where=ok)
    del den
    # Degenerate windows: equal content is perfect, anything else scores 0.
    bad = ~ok
    out[bad] = _sliding(np.abs(x - y), QW_WINDOW, np.maximum)[bad] == 0.0
    return out


def _weighted_q0(a, b, f, q, c):
    """Write the saliency-weighted Q0 of every window of a, b and f into q,
    and its saliency weight max(var_a, var_b) into c."""
    (mean_a, var_a), (mean_b, var_b), (mean_f, var_f) = map(_window_stats, (a, b, f))
    q0_af = _q0(a, mean_a, var_a, f, mean_f, var_f)
    q0_bf = _q0(b, mean_b, var_b, f, mean_f, var_f)
    sal = var_a + var_b
    lam = np.divide(var_a, sal, out=np.full_like(sal, 0.5), where=sal > 0.0)
    q[...] = lam * q0_af + (1.0 - lam) * q0_bf
    np.maximum(var_a, var_b, out=c)


def q_w(a, b, f):
    """Piella's index: saliency-weighted Q0 over 8x8 sliding windows, run over
    row strips of windows; only the whole Q0 and saliency maps are held."""
    a, b, f = check_images(a, b, f)
    if min(a.shape) < QW_WINDOW:
        raise ShapeError(f"q_w needs at least {QW_WINDOW}x{QW_WINDOW}, got {a.shape}")
    halo = QW_WINDOW - 1
    q, c = np.empty((2, a.shape[0] - halo, a.shape[1] - halo))
    for s in _strips(len(q), q[0].nbytes):
        _weighted_q0(*(x[s.start : s.stop + halo] for x in (a, b, f)), q[s], c[s])
    total = c.sum()
    return float(q.mean() if total == 0.0 else np.multiply(c, q, out=q).sum() / total)


def _entropy(p):
    nz = p[p > 0.0]
    return float(-(nz * np.log(nz)).sum())


def _bin_index(v):
    """Each sample's bin, in v's shape, among FMI_BINS equal bins over v's
    range, as np.histogram2d assigns it: by arithmetic checked against the
    edges, or by binary search where one correction step leaves a miss."""
    lo, hi = v.min(), v.max()
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    # histogram2d's edges, which never decrease; with the top one open, the
    # bin is the i with edges[i] <= v < edges[i + 1], and hi is in the last.
    edges = np.linspace(lo, hi, FMI_BINS + 1)
    edges[-1] = np.inf
    below, above = edges[:-1], edges[1:]
    # A Python float division overflows to inf without a warning.
    scale = FMI_BINS / float(hi - lo) if hi > lo else np.inf
    if scale < np.inf:
        i = ((v - lo) * scale).astype(np.intp)
        np.minimum(i, FMI_BINS - 1, out=i)
        i -= v < below[i]
        i += v >= above[i]
        if (below[i] <= v).all() and (v < above[i]).all():
            return i
    # Ranges a few ulps wide, where the edges repeat.
    return np.searchsorted(edges, v, side="right") - 1


def _normalized_mi(x, ix, y):
    """2*I(X;Y) / (H(X)+H(Y)) over 256-bin joint histograms; ix is
    _bin_index(x), which the caller computes once for several y."""
    iy = _bin_index(y)
    iy += ix * FMI_BINS
    hist = np.bincount(iy.ravel(), minlength=FMI_BINS**2).reshape(FMI_BINS, -1)
    del iy
    p = hist / hist.sum()
    del hist
    px = p.sum(axis=1)
    py = p.sum(axis=0)
    hx, hy, hxy = _entropy(px), _entropy(py), _entropy(p)
    if hx + hy == 0.0:
        return 1.0 if np.array_equal(x, y) else 0.0
    return 2.0 * (hx + hy - hxy) / (hx + hy)


def fmi(a, b, f):
    """Mean normalized mutual information between gradient-magnitude features
    of the fused image and each source."""
    a, b, f = check_images(a, b, f)
    feat_a, feat_b, feat_f = (_edge_features(x, orientation=False)[0] for x in (a, b, f))
    bins_f = _bin_index(feat_f)
    return 0.5 * (_normalized_mi(feat_f, bins_f, feat_a) + _normalized_mi(feat_f, bins_f, feat_b))


def score(a, b, f):
    """All metrics for one (source a, source b, fused) triple."""
    a, b, f = check_images(a, b, f)
    return MetricReport(
        ssim_a=ssim(f, a),
        ssim_b=ssim(f, b),
        q_abf=q_abf(a, b, f),
        q_w=q_w(a, b, f),
        fmi=fmi(a, b, f),
    )


def peak_bytes(h, w):
    """Estimated peak bytes score allocates on an h x w triple, in images, p
    images rounded up to filter tiles, and s strips (whole tiles of rows of
    about losses._STRIP_BYTES, as the strip loops take them).
    At their last filters SSIM and Q_abf hold one image (x * y, or the running
    numerator), three p (both window means and a folded map, or f's features
    and the source's x response), the padded input and output and a strip;
    Q_abf holds one image, four p and seven s in a preservation map. Q_w: two
    maps, thirteen s. FMI binning a source: three edge features, two bin
    indices, a gathered bin edge per pixel and a byte mask; then three
    features, one bin index and, at its normalisation, the joint histogram and
    its normalisation (256² each), or, at an entropy, the normalisation and
    three arrays of at most one entry per pixel over nonzero bins."""
    n, p = h * w, (h - h % -losses._TILE) * (w - w % -losses._TILE)
    s = w * min(h, _strips(h, 8 * w)[0].stop)
    joint = FMI_BINS**2 + max(FMI_BINS**2, 3 * min(n, FMI_BINS**2))
    fmi_peak = max(3 * p + 3 * n + n // 8, 3 * p + n + joint)
    return 8 * max(n + 5 * p + s, n + 4 * p + 7 * s, 2 * n + 13 * s, fmi_peak)


def study_peak_bytes(h, w):
    """Estimated peak bytes band_correlation_study allocates on an h x w
    triple: the fused bands and one source's (two whole images), and six bands
    and a strip of the row pass, counted padded by the SSIM window's half width
    a side. In ssim's covariance filter those six are both window means, b2,
    x * y, the output and the padded band."""
    pad = SSIM_WINDOW // 2
    hb, wb = h // 2 + 2 * pad, w // 2 + 2 * pad
    return 8 * (2 * h * w + 6 * hb * wb + wb * min(h // 2, _strips(h // 2, 8 * wb)[0].stop))


_BANDS = ("ll", "lh", "hl", "hh")


def band_correlation_study(a, b, f):
    """SSIM between every source wavelet band and the fused frequency groups.

    Rows: (band, source) for the four bands of each source. ssim_low compares
    the source band against the fused LL band. ssim_high compares against the
    fused detail group: the matched detail band for detail-band rows, and the
    mean over the three fused detail bands for the LL row.
    """
    a, b, f = check_images(a, b, f)
    n = 2 * SSIM_WINDOW  # each band must hold one SSIM window
    if min(a.shape) < n or a.shape[0] % 2 or a.shape[1] % 2:
        raise ShapeError(f"band study needs even dims >= {n}x{n}, got {a.shape}")
    fb = dwt2(f[None, None])[:, 0, 0]
    rows = []
    for src, img in (("a", a), ("b", b)):
        for k, sb in enumerate(dwt2(img[None, None])[:, 0, 0]):
            low = ssim(sb, fb[0])
            if k == 0:
                high = float(np.mean([ssim(sb, fh) for fh in fb[1:]]))
            else:
                high = ssim(sb, fb[k])
            rows.append((_BANDS[k], src, low, high))
    return rows


def study_csv(rows):
    return csv_text("band,src,ssim_low,ssim_high", rows)


def metrics_csv(report):
    names = ("ssim_a", "ssim_b", "q_abf", "q_w", "fmi")
    return csv_text("metric,value", ((name, getattr(report, name)) for name in names))
