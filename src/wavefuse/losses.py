"""Fusion loss suite: intensity (L1), texture (Sobel-gradient L1), and SSIM,
with analytic gradients w.r.t. the fused image and a finite-difference checker.

All filtering uses reflect padding; gradients flow through the exact adjoint of
that padded correlation, so finite differences agree to machine-level accuracy
away from the L1 kinks. Both run one kernel: for each 16 x 16 output tile of a
pass, one BLAS product of the band matrix of the pass's taps with an input slab.
"""

from dataclasses import dataclass, field, fields

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

# Input bytes per strip of the row-local filters, so a strip stays in L2 cache.
_STRIP_BYTES = 256 * 1024
# Output rows and columns of each banded product in filt and filt_adjoint.
_TILE = 16


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
        for f in fields(self):
            if not 0 <= getattr(self, f.name) < np.inf:
                raise ValueError(f"loss weight {f.name} must be >= 0 and finite")


@dataclass
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


def _tiles(x, rows, cols):
    """The rows x cols blocks of a C-contiguous x whose origins are _TILE
    apart on both axes, as far as they fit, as one 4-D view."""
    s0, s1 = x.strides
    shape = ((x.shape[0] - rows) // _TILE + 1, (x.shape[1] - cols) // _TILE + 1, rows, cols)
    return np.ndarray(shape, x.dtype, x, 0, (_TILE * s0, _TILE * s1, s0, s1))


def _band(taps):
    """The (T + k - 1, T) matrix whose column j holds the k taps from row j:
    the transpose of T rows of T + k - 1 read from rows of T + k (taps, then
    zeros), so that each row's taps start one column later."""
    b = np.zeros((_TILE, _TILE + len(taps)))
    b[:, : len(taps)] = taps
    return b.ravel()[: _TILE * (_TILE + len(taps) - 1)].reshape(_TILE, -1).T.copy()


def _by_strips(fn, x, halo, width):
    """Run fn(strip, out) over strips of x, writing one output array of halo
    fewer rows than x and `width` columns. fn is row-local: output row i reads
    input rows i to i + halo. Strips are whole tiles of rows, so each row is
    computed as in one pass over x and the bits agree."""
    n = x.shape[0] - halo
    rows = max(_TILE, _STRIP_BYTES // x[0].nbytes // _TILE * _TILE)
    out = np.empty((n, width), x.dtype)
    for i in range(0, n, rows):
        fn(x[i : i + rows + halo], out[i : i + rows])
    return out


def _sliding(x, size, reduce):
    """Apply a binary ufunc (np.add, np.minimum, ...) across every size x size
    window of x (size >= 2), one axis at a time; the output is the valid part."""
    def windows(x, out):
        for axis, dst in ((0, None), (1, out)):
            n = x.shape[axis] - size + 1
            dst = reduce(_part(x, axis, 0, n), _part(x, axis, 1, n), out=dst)
            for u in range(2, size):
                reduce(dst, _part(x, axis, u, n), out=dst)
            x = dst
        return x

    return _by_strips(windows, x, size - 1, x.shape[1] - size + 1)


def _separable(x, kr, kc, pad, reflect):
    """Valid correlation with the kernel (kr, kc) of x padded by `pad` a side,
    by reflection or with zeros. Each pass multiplies the band of its taps
    with one (T + k - 1)-long slab per T x T output tile (T = _TILE), so every
    product has one shape wherever its tile falls. The padding also rounds the
    output and the row pass's columns up to whole tiles; the output is cropped."""
    m = len(kr) - 1
    (h, hx), (w, wx) = ((n + 2 * pad - m, n) for n in x.shape)
    xp = np.zeros((h + m - h % -_TILE, w - w % -_TILE + m - m % -_TILE))
    xp[pad : pad + hx, pad : pad + wx] = x
    if reflect:  # mirror the image rows' columns, then whole rows, about each edge
        for v, n in ((xp[pad : pad + hx].T, wx), (xp, hx)):
            dst = [*range(pad), *range(n + pad, n + 2 * pad)]
            src = [abs(j - pad) % max(1, 2 * n - 2) for j in dst]
            v[dst] = v[[pad + min(j, 2 * n - 2 - j) for j in src]]
    br, bc = _band(kr).T, _band(kc)

    def passes(s, out):
        t = np.empty((len(s) - m, s.shape[1]))
        np.matmul(br, _tiles(s, m + _TILE, _TILE), out=_tiles(t, _TILE, _TILE))
        np.matmul(_tiles(t, _TILE, m + _TILE), bc, out=_tiles(out, _TILE, _TILE))

    return _by_strips(passes, xp, m, w - w % -_TILE)[:h, :w]


def filt(x, k):
    """Correlate with the separable kernel k (taps down the rows, taps along
    the columns) under reflect padding; output size equals input size."""
    kr, kc = k
    return _separable(x, kr, kc, len(kr) // 2, True)


def filt_adjoint(g, k):
    """Exact adjoint of filt for a kernel k: the full convolution with k,
    which is filt's kernel with the taps reversed on g zero-padded, then the
    reflect padding folded back."""
    kr, kc = k
    return reflect_pad_adjoint(_separable(g, kr[::-1], kc[::-1], len(kr) - 1, False), len(kr) // 2)


def loss_intensity(f, a, b, w):
    """Mean L1 pull toward both sources (weights w.alpha1, w.alpha2); sign(0) = 0."""
    n = f.size
    value = w.alpha1 * np.abs(f - a).sum() / n + w.alpha2 * np.abs(f - b).sum() / n
    grad = (w.alpha1 * np.sign(f - a) + w.alpha2 * np.sign(f - b)) / n
    return value, grad


def _texture_terms(f, a, b):
    """Sobel responses of f and the residual |grad f| - max(|grad a|, |grad b|)."""
    sxf = filt(f, SOBEL_X)
    syf = filt(f, SOBEL_Y)
    ga, gb = (np.abs(filt(x, SOBEL_X)) + np.abs(filt(x, SOBEL_Y)) for x in (a, b))
    return sxf, syf, np.abs(sxf) + np.abs(syf) - np.maximum(ga, gb)


def loss_texture(f, a, b):
    """Mean L1 distance between |grad f| and the pointwise max of the source
    gradient magnitudes; gradient via the Sobel adjoints."""
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
    """Window means of x and y and the factors of the SSIM map a1*a2 / (b1*b2).
    The variances and the covariance are dropped once their factor exists."""
    mu_x = filt(x, g)
    mu_y = filt(y, g)
    var_x = filt(x * x, g) - mu_x**2
    var_y = filt(y * y, g) - mu_y**2
    b2 = var_x + var_y + SSIM_C2
    del var_x, var_y
    cov = filt(x * y, g) - mu_x * mu_y
    a2 = 2.0 * cov + SSIM_C2
    del cov
    a1 = 2.0 * mu_x * mu_y + SSIM_C1
    b1 = mu_x**2 + mu_y**2 + SSIM_C1
    return mu_x, mu_y, a1, a2, b1, b2


def ssim(x, y):
    """Mean SSIM with an 11x11 Gaussian window (sigma 1.5, L = 1)."""
    x, y = check_images(x, y)
    if min(x.shape) < SSIM_WINDOW:
        raise ShapeError(f"image {x.shape} smaller than SSIM window {SSIM_WINDOW}")
    _, _, a1, a2, b1, b2 = _ssim_terms(x, y, gaussian_window())
    return float((a1 * a2 / (b1 * b2)).mean())


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
    del a1, a2, b1, b2
    # mu_f, var_f and cov all depend on f; fold each chain through the window,
    # summing in place in the order (up_mu + var + cov) / n.
    up_mu = d_mu - 2.0 * mu_f * d_var - mu_a * d_cov
    del d_mu, mu_f, mu_a
    grad = filt_adjoint(up_mu, g)
    del up_mu
    grad += 2.0 * f * filt_adjoint(d_var, g)
    del d_var
    grad += a * filt_adjoint(d_cov, g)
    grad /= n
    return value, grad


def loss_ssim(f, a, b, w):
    """w.gamma1*(1 - SSIM(f,a)) + w.gamma2*(1 - SSIM(f,b)) with analytic gradient."""
    va, ga = _ssim_value_grad(f, a)
    vb, gb = _ssim_value_grad(f, b)
    value = w.gamma1 * (1.0 - va) + w.gamma2 * (1.0 - vb)
    grad = -w.gamma1 * ga - w.gamma2 * gb
    return value, grad


def loss_total(f, a, b, w=LossWeights(), with_grad=True):
    """Weighted sum of the three terms and its gradient in f, summed in place;
    the loss path's one image check, which the terms below it trust."""
    f, a, b = check_images(f, a, b)
    l_int, grad = loss_intensity(f, a, b, w)
    grad *= w.alpha
    l_text, g = loss_texture(f, a, b)
    grad += w.beta * g
    del g
    l_ssim, g = loss_ssim(f, a, b, w)
    grad += w.gamma * g
    total = w.alpha * l_int + w.beta * l_text + w.gamma * l_ssim
    return LossReport(
        total=float(total),
        l_int=float(l_int),
        l_text=float(l_text),
        l_ssim=float(l_ssim),
        grad=grad if with_grad else None,
    )


def _kink_free_mask(f, a, b, h):
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
    idx = np.argwhere(_kink_free_mask(f, a, b, GRADCHECK_H))
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
