"""Fusion loss suite: intensity (L1), texture (Sobel-gradient L1), and SSIM,
with analytic gradients w.r.t. the fused image and a finite-difference checker.

All filtering uses reflect padding; gradients flow through the exact adjoint of
that padded correlation, so finite differences agree to machine-level accuracy
away from the L1 kinks.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError
from .imageio import check_images

# A kernel is a pair of 1-D taps of one odd length (down the rows, along the
# columns); the 2-D kernel is their outer product.
SOBEL_X = (np.array([1.0, 2.0, 1.0]), np.array([-1.0, 0.0, 1.0]))
SOBEL_Y = SOBEL_X[::-1]

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_C1 = 0.01**2
SSIM_C2 = 0.03**2

GRADCHECK_H = 1e-6
GRADCHECK_SAMPLES = 64


@dataclass(frozen=True)
class LossWeights:
    alpha: float = 2.0
    beta: float = 10.0
    gamma: float = 1.0
    alpha1: float = 1.0
    alpha2: float = 1.0
    gamma1: float = 0.5
    gamma2: float = 0.5

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma", "alpha1", "alpha2", "gamma1", "gamma2"):
            if getattr(self, name) < 0:
                raise ValueError(f"loss weight {name} must be >= 0")


@dataclass(frozen=True)
class LossReport:
    total: float
    l_int: float
    l_text: float
    l_ssim: float
    grad: np.ndarray | None = field(default=None, repr=False)


def _fold_rows(g, pad):
    """Adjoint of reflect-padding axis 0 of an array by `pad` on both sides."""
    n = len(g) - 2 * pad
    if n == 1:
        # Every padded row copies the single row.
        return g.sum(axis=0, keepdims=True)
    out = g[pad : pad + n].copy()
    # Outside an edge, distances 1..n-1 mirror onto rows 1..n-1 counted from
    # that edge; each further n-1 rows bounce off the opposite edge.
    for tail, view in ((g[:pad][::-1], out), (g[pad + n :], out[::-1])):
        for start in range(0, pad, n - 1):
            chunk = tail[start : start + n - 1]
            view[1 : 1 + len(chunk)] += chunk
            view = view[::-1]
    return out


def reflect_pad_adjoint(g, pad):
    """Fold gradients on the padded array back onto the original pixels."""
    return _fold_rows(_fold_rows(g, pad).T, pad).T


def _part(x, axis, start, n):
    """The n rows (axis 0) or columns (axis 1) of x from `start` on, as a view."""
    return x[start : start + n] if axis == 0 else x[:, start : start + n]


def _correlate(x, taps, axis):
    """Valid 1-D correlation of x with taps along one axis."""
    n = x.shape[axis] - len(taps) + 1
    out = taps[0] * _part(x, axis, 0, n)
    for u in range(1, len(taps)):
        out += taps[u] * _part(x, axis, u, n)
    return out


def _correlate_adjoint(g, taps, axis):
    """Adjoint of _correlate: scatter g back through each tap."""
    shape = list(g.shape)
    shape[axis] += len(taps) - 1
    out = np.zeros(shape)
    for u, t in enumerate(taps):
        view = _part(out, axis, u, g.shape[axis])
        view += t * g
    return out


def _sliding(x, size, reduce):
    """Apply a binary ufunc (np.add, np.minimum, ...) across every size x size
    window of x, one axis at a time; the output is the valid part."""
    for axis in (0, 1):
        n = x.shape[axis] - size + 1
        out = _part(x, axis, 0, n).copy()
        for u in range(1, size):
            reduce(out, _part(x, axis, u, n), out=out)
        x = out
    return x


def filt(x, k):
    """Correlate with the separable kernel k (taps down the rows, taps along
    the columns) under reflect padding; output size equals input size."""
    kr, kc = k
    xp = np.pad(x, len(kr) // 2, mode="reflect")
    return _correlate(_correlate(xp, kr, 0), kc, 1)


def filt_adjoint(g, k):
    """Exact adjoint of filt for a kernel k."""
    kr, kc = k
    gp = _correlate_adjoint(_correlate_adjoint(g, kc, 1), kr, 0)
    return reflect_pad_adjoint(gp, len(kr) // 2)


def grad_abs(x):
    """|Sobel_x| + |Sobel_y| per pixel."""
    return np.abs(filt(x, SOBEL_X)) + np.abs(filt(x, SOBEL_Y))


def loss_intensity(f, a, b, alpha1=1.0, alpha2=1.0):
    """Mean L1 pull toward both sources; subgradient sign(0) = 0."""
    f, a, b = check_images(f, a, b)
    n = f.size
    value = alpha1 * np.abs(f - a).sum() / n + alpha2 * np.abs(f - b).sum() / n
    grad = (alpha1 * np.sign(f - a) + alpha2 * np.sign(f - b)) / n
    return value, grad


def _texture_terms(f, a, b):
    """Sobel responses of f and the residual |grad f| - max(|grad a|, |grad b|)."""
    sxf = filt(f, SOBEL_X)
    syf = filt(f, SOBEL_Y)
    return sxf, syf, np.abs(sxf) + np.abs(syf) - np.maximum(grad_abs(a), grad_abs(b))


def loss_texture(f, a, b):
    """Mean L1 distance between |grad f| and the pointwise max of the source
    gradient magnitudes; gradient via the Sobel adjoints."""
    f, a, b = check_images(f, a, b)
    n = f.size
    sxf, syf, diff = _texture_terms(f, a, b)
    value = np.abs(diff).sum() / n
    up = np.sign(diff) / n
    grad = filt_adjoint(up * np.sign(sxf), SOBEL_X) + filt_adjoint(up * np.sign(syf), SOBEL_Y)
    return value, grad


def gaussian_window(size=SSIM_WINDOW, sigma=SSIM_SIGMA):
    """Normalised Gaussian window as a separable kernel (g1, g1)."""
    r = np.arange(size) - (size - 1) / 2.0
    g = np.exp(-(r**2) / (2.0 * sigma**2))
    g /= g.sum()
    return g, g


def _ssim_terms(x, y, g):
    """Window means of x and y and the factors of the SSIM map a1*a2 / (b1*b2)."""
    mu_x = filt(x, g)
    mu_y = filt(y, g)
    var_x = filt(x * x, g) - mu_x**2
    var_y = filt(y * y, g) - mu_y**2
    cov = filt(x * y, g) - mu_x * mu_y
    a1 = 2.0 * mu_x * mu_y + SSIM_C1
    a2 = 2.0 * cov + SSIM_C2
    b1 = mu_x**2 + mu_y**2 + SSIM_C1
    b2 = var_x + var_y + SSIM_C2
    return mu_x, mu_y, a1, a2, b1, b2


def ssim_map(x, y):
    """Per-pixel SSIM with an 11x11 Gaussian window (sigma 1.5, L = 1)."""
    x, y = check_images(x, y)
    if min(x.shape) < SSIM_WINDOW:
        raise ShapeError(f"image {x.shape} smaller than SSIM window {SSIM_WINDOW}")
    _, _, a1, a2, b1, b2 = _ssim_terms(x, y, gaussian_window())
    return a1 * a2 / (b1 * b2)


def ssim(x, y):
    return float(ssim_map(x, y).mean())


def _ssim_value_grad(f, a):
    """Mean SSIM(f, a) and its closed-form derivative w.r.t. f."""
    g = gaussian_window()
    n = f.size
    mu_f, mu_a, a1, a2, b1, b2 = _ssim_terms(f, a, g)
    value = float((a1 * a2 / (b1 * b2)).mean())
    # Partials of the per-pixel map w.r.t. the filtered statistics.
    d_mu = 2.0 * mu_a * a2 / (b1 * b2) - 2.0 * mu_f * a1 * a2 / (b1**2 * b2)
    d_var = -a1 * a2 / (b1 * b2**2)
    d_cov = 2.0 * a1 / (b1 * b2)
    # mu_f, var_f and cov all depend on f; fold each chain through the window.
    up_mu = d_mu - 2.0 * mu_f * d_var - mu_a * d_cov
    grad = (
        filt_adjoint(up_mu, g)
        + 2.0 * f * filt_adjoint(d_var, g)
        + a * filt_adjoint(d_cov, g)
    ) / n
    return value, grad


def loss_ssim(f, a, b, gamma1=0.5, gamma2=0.5):
    """gamma1*(1 - SSIM(f,a)) + gamma2*(1 - SSIM(f,b)) with analytic gradient."""
    f, a, b = check_images(f, a, b)
    va, ga = _ssim_value_grad(f, a)
    vb, gb = _ssim_value_grad(f, b)
    value = gamma1 * (1.0 - va) + gamma2 * (1.0 - vb)
    grad = -gamma1 * ga - gamma2 * gb
    return value, grad


def loss_total(f, a, b, w=LossWeights(), with_grad=True):
    """Weighted sum of the three terms; grad is d(total)/d(fused image)."""
    l_int, g_int = loss_intensity(f, a, b, w.alpha1, w.alpha2)
    l_text, g_text = loss_texture(f, a, b)
    l_ssim, g_ssim = loss_ssim(f, a, b, w.gamma1, w.gamma2)
    total = w.alpha * l_int + w.beta * l_text + w.gamma * l_ssim
    grad = None
    if with_grad:
        grad = w.alpha * g_int + w.beta * g_text + w.gamma * g_ssim
    return LossReport(
        total=float(total),
        l_int=float(l_int),
        l_text=float(l_text),
        l_ssim=float(l_ssim),
        grad=grad,
    )


def kink_free_mask(f, a, b, h):
    """Pixels whose +-h perturbation cannot cross an L1 kink of any term."""
    margin = 10.0 * h
    mask = (np.abs(f - a) > margin) & (np.abs(f - b) > margin)
    # A single-pixel change moves each Sobel response in a 3x3 neighborhood by
    # at most 2h and the magnitude sum by at most 8h; guard with slack.
    sxf, syf, diff = _texture_terms(f, a, b)
    tex_margin = 40.0 * h
    tex_ok = (
        (np.abs(sxf) > tex_margin)
        & (np.abs(syf) > tex_margin)
        & (np.abs(diff) > tex_margin)
    )
    mask &= _sliding(np.pad(tex_ok, 2, mode="edge"), 5, np.minimum)
    return mask


def gradcheck(f, a, b, w=LossWeights(), seed=0):
    """Max relative error between the analytic gradient and central finite
    differences (step GRADCHECK_H) at GRADCHECK_SAMPLES kink-free pixels.
    Raises if too few safe pixels exist."""
    f, a, b = check_images(f, a, b)
    analytic = loss_total(f, a, b, w).grad
    idx = np.argwhere(kink_free_mask(f, a, b, GRADCHECK_H))
    if len(idx) < GRADCHECK_SAMPLES:
        raise ValueError(
            f"only {len(idx)} kink-free pixels available, need {GRADCHECK_SAMPLES}"
        )
    rng = np.random.default_rng(seed)
    picks = idx[rng.choice(len(idx), size=GRADCHECK_SAMPLES, replace=False)]
    worst = 0.0
    for i, j in picks:
        fp = f.copy()
        fp[i, j] = f[i, j] + GRADCHECK_H
        fm = f.copy()
        fm[i, j] = f[i, j] - GRADCHECK_H
        num = (
            loss_total(fp, a, b, w, with_grad=False).total
            - loss_total(fm, a, b, w, with_grad=False).total
        ) / (2.0 * GRADCHECK_H)
        ana = analytic[i, j]
        if max(abs(ana), abs(num)) <= 1e-9:
            # Both sides are below the finite-difference rounding floor
            # (eps * loss / h); a ratio there measures noise, not error.
            continue
        err = abs(ana - num) / max(abs(ana), abs(num), 1e-8)
        worst = max(worst, err)
    return worst
