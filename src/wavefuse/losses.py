"""Fusion loss suite: intensity (L1), texture (Sobel-gradient L1), and SSIM,
with analytic gradients w.r.t. the fused image and a finite-difference checker.

All filtering uses reflect padding; gradients flow through the exact adjoint,
whose fold follows the padding's one mirror schedule, so finite differences
agree to machine-level accuracy away from the L1 kinks. Both run one kernel:
per 16 x 16 output tile, one BLAS product of the taps' band matrix with a slab.
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


def _mirrors(x, image, pad):
    """The (edge rows, image rows) view pairs of reflect padding along axis 0:
    edges are the `pad` rows of x on each side of its n image rows, and image
    rows come from `image`, those n rows or a copy. Outside an edge, distances
    1..n-1 mirror rows 1..n-1 counted from that edge; each further n-1 rows
    bounce off the opposite edge. A single row mirrors itself."""
    n = len(image)
    step, first = max(1, n - 1), min(1, n - 1)
    for edge, rows in ((x[:pad][::-1], image), (x[pad + n : 2 * pad + n], image[::-1])):
        for start in range(0, pad, step):
            chunk = edge[start : start + step]
            yield chunk, rows[first : first + len(chunk)]
            rows = rows[::-1]


def reflect_pad_adjoint(g, pad):
    """Fold gradients on the padded array back onto the original pixels."""
    for _ in range(2):  # down the rows, then down the columns
        out = g[pad : len(g) - pad].copy()
        for edge, rows in _mirrors(g, out, pad):
            rows += edge
        g = out.T
    return g


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


def _strips(n, row_bytes):
    """Slices of n rows of row_bytes each: whole tiles of rows, about
    _STRIP_BYTES a strip and at least one tile."""
    rows = max(_TILE, _STRIP_BYTES // row_bytes // _TILE * _TILE)
    return [slice(i, i + rows) for i in range(0, n, rows)]


def _sliding(x, size, reduce):
    """Apply a binary ufunc (np.add, np.minimum, ...) across every size x size
    window of x (size >= 2), one axis at a time; the output is the valid part.
    It runs whole: q_w hands it row strips with their halo, and the kink mask
    one byte per pixel."""
    for _ in range(2):  # down the rows, then down the columns
        n = len(x) - size + 1
        out = reduce(x[:n], x[1 : n + 1])
        for u in range(2, size):
            reduce(out, x[u : u + n], out=out)
        x = out.T
    return x


def _separable(x, k, reflect):
    """Valid correlation with the kernel k of x padded by reflection, half the
    taps a side, or else with zeros, all but one tap a side. Each pass
    multiplies the band of its taps with one (T + k - 1)-long slab per T x T
    output tile (T = _TILE), so every product has one shape wherever its tile
    falls. The padding also rounds the output and the row pass's columns up to
    whole tiles; the output is cropped. Both passes run over strips of output
    rows (_strips), each reading k - 1 rows past its own; the strips are whole
    tiles, so every bit is as in one pass."""
    kr, kc = k
    m = len(kr) - 1
    pad = m // 2 if reflect else m
    (h, hx), (w, wx) = ((n + 2 * pad - m, n) for n in x.shape)
    xp = np.zeros((h + m - h % -_TILE, w - w % -_TILE + m - m % -_TILE))
    xp[pad : pad + hx, pad : pad + wx] = x
    if reflect:  # mirror the image rows' columns, then whole rows, about each edge
        for v, n in ((xp[pad : pad + hx].T, wx), (xp, hx)):
            for edge, rows in _mirrors(v, v[pad : pad + n], pad):
                edge[...] = rows
    br, bc = _band(kr).T, _band(kc)
    out = np.empty((len(xp) - m, w - w % -_TILE))
    for s in _strips(len(out), xp[0].nbytes):
        strip = xp[s.start : s.stop + m]
        t = np.empty((len(strip) - m, xp.shape[1]))
        np.matmul(br, _tiles(strip, m + _TILE, _TILE), out=_tiles(t, _TILE, _TILE))
        np.matmul(_tiles(t, _TILE, m + _TILE), bc, out=_tiles(out[s], _TILE, _TILE))
        del t  # freed before the next strip's row pass is taken
    return out[:h, :w]


def filt(x, k):
    """Correlate with the separable kernel k (taps down the rows, taps along
    the columns) under reflect padding; output size equals input size."""
    return _separable(x, k, True)


def filt_adjoint(g, k):
    """Exact adjoint of filt for a kernel k: the full convolution with k,
    which is filt's kernel with the taps reversed on g zero-padded, then the
    reflect padding folded back."""
    return reflect_pad_adjoint(_separable(g, [t[::-1] for t in k], False), len(k[0]) // 2)


def loss_intensity(f, a, b, w, with_grad=True):
    """Mean L1 pull toward both sources (weights w.alpha1, w.alpha2); sign(0) = 0."""
    n = f.size
    value = w.alpha1 * np.abs(f - a).sum() / n + w.alpha2 * np.abs(f - b).sum() / n
    if not with_grad:
        return value, None
    grad = (w.alpha1 * np.sign(f - a) + w.alpha2 * np.sign(f - b)) / n
    return value, grad


def _texture_terms(f, a, b):
    """Sobel responses of f and the residual |grad f| - max(|grad a|, |grad b|)."""
    sxf = filt(f, SOBEL_X)
    syf = filt(f, SOBEL_Y)
    ga, gb = (np.abs(filt(x, SOBEL_X)) + np.abs(filt(x, SOBEL_Y)) for x in (a, b))
    return sxf, syf, np.abs(sxf) + np.abs(syf) - np.maximum(ga, gb)


def loss_texture(f, a, b, with_grad=True):
    """Mean L1 distance between |grad f| and the pointwise max of the source
    gradient magnitudes; gradient via the Sobel adjoints."""
    n = f.size
    sxf, syf, diff = _texture_terms(f, a, b)
    value = np.abs(diff).sum() / n
    if not with_grad:
        return value, None
    np.sign(diff, out=diff)  # each adjoint's input is built over its response
    diff /= n
    for s in (sxf, syf):
        np.sign(s, out=s)
        s *= diff
    del diff
    grad = filt_adjoint(sxf, SOBEL_X)
    del sxf
    grad += filt_adjoint(syf, SOBEL_Y)
    return value, grad


def gaussian_window(size=SSIM_WINDOW, sigma=SSIM_SIGMA):
    """Normalised Gaussian window as a separable kernel (g1, g1)."""
    r = np.arange(size) - (size - 1) / 2.0
    g = np.exp(-(r**2) / (2.0 * sigma**2))
    g /= g.sum()
    return g, g


def _ssim_terms(x, y, g):
    """Window means of x and y and the SSIM factors a2 = 2 cov + C2 and
    b2 = var_x + var_y + C2 of the map a1*a2 / (b1*b2). Each second moment is
    folded into its filter's output in place, so every filter runs beside at
    most the two means and one folded map."""
    mu_x = filt(x, g)
    mu_y = filt(y, g)
    b2 = filt(x * x, g)
    b2 -= mu_x**2
    var_y = filt(y * y, g)
    var_y -= mu_y**2
    b2 += var_y
    b2 += SSIM_C2
    del var_y
    a2 = filt(x * y, g)
    a2 -= mu_x * mu_y
    a2 *= 2.0
    a2 += SSIM_C2
    return mu_x, mu_y, a2, b2


def _luminance(mu_x, mu_y, a1, b1):
    """Write the SSIM factors a1 = 2 mu_x mu_y + C1 and b1 = mu_x^2 + mu_y^2
    + C1 into a1 and b1, with no temporary."""
    np.square(mu_y, out=a1)
    np.square(mu_x, out=b1)
    b1 += a1
    b1 += SSIM_C1
    np.multiply(2.0, mu_x, out=a1)
    a1 *= mu_y
    a1 += SSIM_C1


def ssim(x, y):
    """Mean SSIM with an 11x11 Gaussian window (sigma 1.5, L = 1). It checks
    shapes and finiteness but no range: the band study scores wavelet bands,
    whose LL reaches 2 and detail bands reach -1 and 1."""
    x, y = check_images(x, y)
    if min(x.shape) < SSIM_WINDOW:
        raise ShapeError(f"image {x.shape} smaller than SSIM window {SSIM_WINDOW}")
    return _ssim_value_grad(x, y, with_grad=False)[0]


def _ssim_value_grad(f, a, with_grad=True):
    """Mean SSIM(f, a) and, if with_grad, its closed-form derivative w.r.t. f."""
    g = gaussian_window()
    mu_f, mu_a, a2, b2 = _ssim_terms(f, a, g)
    a1, b1 = np.empty(f.shape), np.empty(f.shape)  # two blocks: b1 is freed first
    _luminance(mu_f, mu_a, a1, b1)
    s = np.multiply(a1, a2, out=None if with_grad else a1)  # value only: over a1 and b1
    p = np.multiply(b1, b2, out=None if with_grad else b1)
    s /= p
    value = float(s.mean())
    if not with_grad:
        return value, None
    # Partials of the map s = a1*a2 / (b1*b2) w.r.t. the window statistics,
    # from p = 1 / (b1*b2): d_cov = 2*a1*p, d_var = -s/b2, and for the mean
    # d_mu - 2*mu_f*d_var - mu_a*d_cov = 2*mu_a*p*(a2 - a1) + 2*mu_f*s*(1/b2 - 1/b1).
    # Each is written over a factor it no longer needs.
    np.reciprocal(p, out=p)
    a2 -= a1  # a2 becomes up_mu: first 2*mu_a*p*(a2 - a1)
    a2 *= p
    a2 *= mu_a
    a2 *= 2.0
    del mu_a
    a1 *= p  # a1 becomes d_cov
    a1 *= 2.0
    del p
    mu_f *= s  # mu_f becomes 2*mu_f*s
    mu_f *= 2.0
    s /= b2  # s becomes -d_var
    np.reciprocal(b1, out=b1)
    np.reciprocal(b2, out=b2)
    b2 -= b1  # b2 becomes 1/b2 - 1/b1, then up_mu's second part
    del b1
    b2 *= mu_f
    del mu_f
    a2 += b2
    del b2
    # mu_f, var_f and cov all depend on f; fold each chain through the window,
    # summing in place in the order (up_mu + var + cov) / n, d_var's sign
    # folded into its subtraction.
    grad = filt_adjoint(a2, g)
    del a2
    grad -= 2.0 * (f * filt_adjoint(s, g))
    del s
    grad += a * filt_adjoint(a1, g)
    grad /= f.size
    return value, grad


def loss_ssim(f, a, b, w, with_grad=True):
    """w.gamma1*(1 - SSIM(f,a)) + w.gamma2*(1 - SSIM(f,b)) and, if with_grad,
    its analytic gradient."""
    va, ga = _ssim_value_grad(f, a, with_grad)
    vb, gb = _ssim_value_grad(f, b, with_grad)
    value = w.gamma1 * (1.0 - va) + w.gamma2 * (1.0 - vb)
    if with_grad:
        ga *= -w.gamma1
        gb *= w.gamma2
        ga -= gb
    return value, ga


def loss_total(f, a, b, w=LossWeights(), with_grad=True):
    """Weighted sum of the three terms and, if with_grad, its gradient in f,
    summed in place; the loss path's one image check, which the terms below
    it trust. Without the gradient no term computes one."""
    f, a, b = check_images(f, a, b)
    l_int, grad = loss_intensity(f, a, b, w, with_grad)
    l_text, g = loss_texture(f, a, b, with_grad)
    if with_grad:
        grad *= w.alpha
        grad += w.beta * g
    del g
    l_ssim, g = loss_ssim(f, a, b, w, with_grad)
    if with_grad:
        grad += w.gamma * g
    total = w.alpha * l_int + w.beta * l_text + w.gamma * l_ssim
    return LossReport(
        total=float(total),
        l_int=float(l_int),
        l_text=float(l_text),
        l_ssim=float(l_ssim),
        grad=grad,
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
    fh = f.copy()  # one perturbed copy; the caller's f is never written
    for i, j in picks:
        fh[i, j] = f[i, j] + GRADCHECK_H
        up = loss_total(fh, a, b, w, with_grad=False).total
        fh[i, j] = f[i, j] - GRADCHECK_H
        num = (up - loss_total(fh, a, b, w, with_grad=False).total) / (2.0 * GRADCHECK_H)
        fh[i, j] = f[i, j]
        ana = analytic[i, j]
        if max(abs(ana), abs(num)) <= 1e-9:
            # Both sides are below the finite-difference rounding floor
            # (eps * loss / h); a ratio there measures noise, not error.
            continue
        err = abs(ana - num) / max(abs(ana), abs(num), 1e-8)
        worst = max(worst, err)
    return worst


def gradcheck_peak_bytes(h, w):
    """Estimated peak bytes gradcheck allocates on an h x w triple: 11 images.
    10 are met in a finite difference's value-only loss_total: its 6-image
    working set (SSIM's window means and four factors, the map and its
    denominator written over two), beside the analytic gradient, the one
    perturbed copy and the kink-free pixel indices (two int64 per pixel at
    most). One more covers the heap's fragments: the many image-sized blocks
    the finite differences free and take again raised a fresh process's RSS
    about one image past the traced peak at 512x512 and 1024x1024."""
    return 11 * 8 * h * w
