"""Fusion quality metrics: SSIM, gradient-preservation score (Q_abf family),
Piella's weighted quality index (Q_w), and feature mutual information (FMI),
plus the wavelet band-correlation study.

The gradient-preservation score is normalized by its attainable maximum so
that perfect edge preservation scores exactly 1.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .imageio import check_images, to_tensor
from .losses import SOBEL_X, SOBEL_Y, _sliding, filt, ssim
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


def _edge_strength_orientation(x):
    sx = filt(x, SOBEL_X)
    sy = filt(x, SOBEL_Y)
    sx = np.where(np.abs(sx) < EDGE_EPS, 0.0, sx)
    sy = np.where(np.abs(sy) < EDGE_EPS, 0.0, sy)
    g = np.sqrt(sx * sx + sy * sy)
    theta = np.where(sx == 0.0, np.pi / 2.0, np.arctan(np.divide(sy, np.where(sx == 0.0, 1.0, sx))))
    return g, theta


def _qabf_sigmoid(x, gamma, kappa, sigma):
    return gamma / (1.0 + np.exp(kappa * (x - sigma)))


def _preservation(g_src, t_src, g_f, t_f):
    ratio = np.where(
        g_src > g_f,
        np.divide(g_f, np.where(g_src == 0.0, 1.0, g_src)),
        np.where(g_f > g_src, np.divide(g_src, np.where(g_f == 0.0, 1.0, g_f)), 1.0),
    )
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
    score 1.
    """
    a, b, f = check_images(a, b, f)
    if min(a.shape) < 3:
        raise ShapeError(f"q_abf needs at least 3x3 images, got {a.shape}")
    ga, ta = _edge_strength_orientation(a)
    gb, tb = _edge_strength_orientation(b)
    gf, tf = _edge_strength_orientation(f)
    qa = _preservation(ga, ta, gf, tf)
    qb = _preservation(gb, tb, gf, tf)
    denom = (ga + gb).sum()
    if denom == 0.0:
        return 1.0
    return float((qa * ga + qb * gb).sum() / denom)


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
    # The bound is dropped at once: q_w's peak memory is reached below.
    bound = np.sqrt(var_x * var_y)
    cov = np.clip(_window_mean(x * y) - mean_x * mean_y, -bound, bound)
    del bound
    num = 4.0 * cov * mean_x * mean_y
    den = (var_x + var_y) * (mean_x**2 + mean_y**2)
    out = np.empty_like(num)
    ok = den != 0.0
    out[ok] = num[ok] / den[ok]
    # Degenerate windows: equal content is perfect, anything else scores 0.
    bad = ~ok
    out[bad] = _sliding(np.abs(x - y), QW_WINDOW, np.maximum)[bad] == 0.0
    return out


def q_w(a, b, f):
    """Piella's index: saliency-weighted Q0 over 8x8 sliding windows."""
    a, b, f = check_images(a, b, f)
    if min(a.shape) < QW_WINDOW:
        raise ShapeError(f"q_w needs at least {QW_WINDOW}x{QW_WINDOW}, got {a.shape}")
    mean_a, var_a = _window_stats(a)
    mean_b, var_b = _window_stats(b)
    mean_f, var_f = _window_stats(f)
    q0_af = _q0(a, mean_a, var_a, f, mean_f, var_f)
    q0_bf = _q0(b, mean_b, var_b, f, mean_f, var_f)
    sal = var_a + var_b
    lam = np.where(sal > 0.0, var_a / np.where(sal == 0.0, 1.0, sal), 0.5)
    q = lam * q0_af + (1.0 - lam) * q0_bf
    c = np.maximum(var_a, var_b)
    total = c.sum()
    return float(q.mean() if total == 0.0 else (c * q).sum() / total)


def _entropy(p):
    nz = p[p > 0.0]
    return float(-(nz * np.log(nz)).sum())


def _normalized_mi(x, y):
    """2*I(X;Y) / (H(X)+H(Y)) over 256-bin joint histograms."""
    hist, _, _ = np.histogram2d(x.ravel(), y.ravel(), bins=FMI_BINS)
    p = hist / hist.sum()
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
    feat_a, _ = _edge_strength_orientation(a)
    feat_b, _ = _edge_strength_orientation(b)
    feat_f, _ = _edge_strength_orientation(f)
    return 0.5 * (_normalized_mi(feat_f, feat_a) + _normalized_mi(feat_f, feat_b))


def score(a, b, f):
    """All metrics for one (source a, source b, fused) triple."""
    return MetricReport(
        ssim_a=ssim(f, a),
        ssim_b=ssim(f, b),
        q_abf=q_abf(a, b, f),
        q_w=q_w(a, b, f),
        fmi=fmi(a, b, f),
    )


_BANDS = ("ll", "lh", "hl", "hh")


def band_correlation_study(a, b, f):
    """SSIM between every source wavelet band and the fused frequency groups.

    Rows: (band, source) for the four bands of each source. ssim_low compares
    the source band against the fused LL band. ssim_high compares against the
    fused detail group: the matched detail band for detail-band rows, and the
    mean over the three fused detail bands for the LL row.
    """
    a, b, f = check_images(a, b, f)
    if min(a.shape) < 22 or a.shape[0] % 2 or a.shape[1] % 2:
        raise ShapeError(f"band study needs even dims >= 22x22, got {a.shape}")
    fb = dwt2(to_tensor(f))[:, 0, 0]
    rows = []
    for src, img in (("a", a), ("b", b)):
        for k, sb in enumerate(dwt2(to_tensor(img))[:, 0, 0]):
            low = ssim(sb, fb[0])
            if k == 0:
                high = float(np.mean([ssim(sb, fh) for fh in fb[1:]]))
            else:
                high = ssim(sb, fb[k])
            rows.append((_BANDS[k], src, low, high))
    return rows


def study_csv(rows):
    lines = ["band,src,ssim_low,ssim_high"]
    for band, src, low, high in rows:
        lines.append(f"{band},{src},{format(low, '.9g')},{format(high, '.9g')}")
    return "\n".join(lines) + "\n"


def metrics_csv(report):
    lines = ["metric,value"]
    for name in ("ssim_a", "ssim_b", "q_abf", "q_w", "fmi"):
        lines.append(f"{name},{format(getattr(report, name), '.9g')}")
    return "\n".join(lines) + "\n"
