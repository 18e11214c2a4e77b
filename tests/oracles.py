"""Independent brute-force reference implementations used to freeze expected
values. The numerics are written as plain per-pixel loops and the weights
file writer from README's "File formats" section, deliberately sharing no
code with the library: nothing here imports wavefuse."""

import math
import operator
import struct
import zlib
from types import SimpleNamespace

import numpy as np

GAUSS_SIZE = 11
GAUSS_SIGMA = 1.5
C1 = 0.01**2
C2 = 0.03**2

SX = [[-1, 0, 1], [-2, 0, 2], [-1, 0, 1]]
SY = [[-1, -2, -1], [0, 0, 0], [1, 2, 1]]


def reflect(i, n):
    # numpy 'reflect' convention: no edge duplication.
    if n == 1:
        return 0
    period = 2 * n - 2
    i = abs(i) % period
    return period - i if i >= n else i


def _reflected(n, k):
    """Per output index i < n, the reflected indices i + u - r of the k taps."""
    r = k // 2
    return [[reflect(i + u - r, n) for u in range(k)] for i in range(n)]


def correlate_reflect(x, k):
    h, w = x.shape
    x = x.tolist()
    cols = _reflected(w, len(k))
    out = np.zeros((h, w))
    for i, rows in enumerate(_reflected(h, len(k))):
        for j in range(w):
            s = 0.0
            for u, ku in zip(rows, k):
                for v, kuv in zip(cols[j], ku):
                    s += x[u][v] * kuv
            out[i, j] = s
    return out


def correlate_reflect_adjoint(g, k):
    """Adjoint of correlate_reflect: scatter each output through the kernel
    onto the pixels its reflect-padded window read."""
    h, w = g.shape
    g = g.tolist()
    cols = _reflected(w, len(k))
    out = [[0.0] * w for _ in range(h)]
    for i, rows in enumerate(_reflected(h, len(k))):
        for j in range(w):
            for u, ku in zip(rows, k):
                for v, kuv in zip(cols[j], ku):
                    out[u][v] += g[i][j] * kuv
    return np.array(out)


def reflect_fold(g, pad):
    """Adjoint of reflect padding by `pad`: add every padded pixel onto the
    original pixel it copies."""
    h, w = g.shape[0] - 2 * pad, g.shape[1] - 2 * pad
    out = np.zeros((h, w))
    for i in range(g.shape[0]):
        for j in range(g.shape[1]):
            out[reflect(i - pad, h), reflect(j - pad, w)] += g[i, j]
    return out


def conv2d_naive(x, kernel, bias, padding):
    b, cin, h, w = x.shape
    cout = kernel.shape[0]
    k = kernel.shape[2]
    # Channel vectors per pixel and per tap, as plain lists.
    xs = x.transpose(0, 2, 3, 1).tolist()
    ks = kernel.transpose(0, 2, 3, 1).tolist()
    out = np.zeros((b, cout, h, w))
    for bi in range(b):
        for co in range(cout):
            for i in range(h):
                for j in range(w):
                    s = float(bias[co])
                    for u in range(k):
                        for v in range(k):
                            ii = i + u - padding
                            jj = j + v - padding
                            if 0 <= ii < h and 0 <= jj < w:
                                s += sum(map(operator.mul, xs[bi][ii][jj], ks[co][u][v]))
                    out[bi, co, i, j] = s
    return out


def dwt2_naive(x):
    b, c, h, w = x.shape
    ll = np.zeros((b, c, h // 2, w // 2))
    lh = np.zeros_like(ll)
    hl = np.zeros_like(ll)
    hh = np.zeros_like(ll)
    for bi in range(b):
        for ci in range(c):
            for i in range(h // 2):
                for j in range(w // 2):
                    a = x[bi, ci, 2 * i, 2 * j]
                    bb = x[bi, ci, 2 * i, 2 * j + 1]
                    cc = x[bi, ci, 2 * i + 1, 2 * j]
                    d = x[bi, ci, 2 * i + 1, 2 * j + 1]
                    ll[bi, ci, i, j] = (a + bb + cc + d) / 2
                    lh[bi, ci, i, j] = (a + bb - cc - d) / 2
                    hl[bi, ci, i, j] = (a - bb + cc - d) / 2
                    hh[bi, ci, i, j] = (a - bb - cc + d) / 2
    return ll, lh, hl, hh


def gauss_kernel(size=GAUSS_SIZE, sigma=GAUSS_SIGMA):
    c = (size - 1) / 2
    k = [
        [math.exp(-((i - c) ** 2 + (j - c) ** 2) / (2 * sigma**2)) for j in range(size)]
        for i in range(size)
    ]
    total = sum(sum(row) for row in k)
    return [[v / total for v in row] for row in k]


def ssim_naive(x, y):
    """Per-pixel sliding-window SSIM, reflect padding, Gaussian weights."""
    h, w = x.shape
    x, y = x.tolist(), y.tolist()
    g = gauss_kernel()
    r = GAUSS_SIZE // 2
    total = 0.0
    for i in range(h):
        rows = [reflect(i + u - r, h) for u in range(GAUSS_SIZE)]
        for j in range(w):
            cols = [reflect(j + v - r, w) for v in range(GAUSS_SIZE)]
            mx = my = vx = vy = cov = 0.0
            for u in range(GAUSS_SIZE):
                for v in range(GAUSS_SIZE):
                    wt = g[u][v]
                    xv = x[rows[u]][cols[v]]
                    yv = y[rows[u]][cols[v]]
                    mx += wt * xv
                    my += wt * yv
                    vx += wt * xv * xv
                    vy += wt * yv * yv
                    cov += wt * xv * yv
            vx -= mx * mx
            vy -= my * my
            cov -= mx * my
            total += ((2 * mx * my + C1) * (2 * cov + C2)) / (
                (mx * mx + my * my + C1) * (vx + vy + C2)
            )
    return total / (h * w)


def texture_loss_naive(f, a, b):
    """Direct enumeration of the |grad f| vs max(|grad a|,|grad b|) L1 mean."""

    def gabs(x):
        return np.abs(correlate_reflect(x, SX)) + np.abs(correlate_reflect(x, SY))

    gf, ga, gb = gabs(f), gabs(a), gabs(b)
    h, w = f.shape
    total = 0.0
    for i in range(h):
        for j in range(w):
            total += abs(gf[i, j] - max(ga[i, j], gb[i, j]))
    return total / (h * w)


def intensity_loss_naive(f, a, b, a1=1.0, a2=1.0):
    h, w = f.shape
    total = 0.0
    for i in range(h):
        for j in range(w):
            total += a1 * abs(f[i, j] - a[i, j]) + a2 * abs(f[i, j] - b[i, j])
    return total / (h * w)


def ssim_loss_naive(f, a, b, g1=0.5, g2=0.5):
    return g1 * (1 - ssim_naive(f, a)) + g2 * (1 - ssim_naive(f, b))


def ssim_grad_naive(f, a):
    """Derivative of mean SSIM(f, a) w.r.t. f by the chain rule: the map's
    partials d_mu, d_var and d_cov in the window statistics of f, each sent
    back through the window's adjoint. mu_f = K f, var_f = K f^2 - mu_f^2 and
    cov = K (f a) - mu_f mu_a, so mu_f's total partial also collects var_f's
    and cov's own dependence on mu_f."""
    g = gauss_kernel()
    mu_f, mu_a = correlate_reflect(f, g), correlate_reflect(a, g)
    var_f = correlate_reflect(f * f, g) - mu_f**2
    var_a = correlate_reflect(a * a, g) - mu_a**2
    cov = correlate_reflect(f * a, g) - mu_f * mu_a
    a1, a2 = 2 * mu_f * mu_a + C1, 2 * cov + C2
    b1, b2 = mu_f**2 + mu_a**2 + C1, var_f + var_a + C2
    d_mu = 2 * mu_a * a2 / (b1 * b2) - 2 * mu_f * a1 * a2 / (b1**2 * b2)
    d_var = -a1 * a2 / (b1 * b2**2)
    d_cov = 2 * a1 / (b1 * b2)
    up_mu = d_mu - 2 * mu_f * d_var - mu_a * d_cov
    back = correlate_reflect_adjoint
    return (back(up_mu, g) + 2 * f * back(d_var, g) + a * back(d_cov, g)) / f.size


def ssim_terms_whole(x, y, filt, g):
    """The window means and factors (mu_x, mu_y, a1, a2, b1, b2) of the SSIM
    map a1*a2 / (b1*b2), in a frozen copy of the whole-image arithmetic the
    strip folds replaced. Only the window filter `filt(x, g)` is the caller's,
    so the library's maps can be held to these bits."""
    mu_x = filt(x, g)
    mu_y = filt(y, g)
    var_x = filt(x * x, g) - mu_x**2
    var_y = filt(y * y, g) - mu_y**2
    b2 = var_x + var_y + C2
    cov = filt(x * y, g) - mu_x * mu_y
    a2 = 2.0 * cov + C2
    a1 = 2.0 * mu_x * mu_y + C1
    b1 = mu_x**2 + mu_y**2 + C1
    return mu_x, mu_y, a1, a2, b1, b2


def ssim_whole(x, y, filt, g):
    """Mean SSIM from ssim_terms_whole's maps, as one whole-image map."""
    _, _, a1, a2, b1, b2 = ssim_terms_whole(x, y, filt, g)
    return float((a1 * a2 / (b1 * b2)).mean())


def ssim_value_grad_whole(f, a, filt, adjoint, g):
    """Mean SSIM(f, a) and its gradient in f, a frozen copy of the loss path's
    arithmetic on ssim_terms_whole's maps, every product and sum in the
    library's order; `adjoint` is the window filter's adjoint."""
    mu_f, mu_a, a1, a2, b1, b2 = ssim_terms_whole(f, a, filt, g)
    p = b1 * b2
    s = a1 * a2 / p
    p = 1.0 / p
    up_mu = (a2 - a1) * p * mu_a * 2.0 + (1.0 / b2 - 1.0 / b1) * (mu_f * s * 2.0)
    grad = adjoint(up_mu, g) - 2.0 * (f * adjoint(s / b2, g)) + a * adjoint(a1 * p * 2.0, g)
    return float(s.mean()), grad / f.size


def total_loss_naive(f, a, b, alpha=2.0, beta=10.0, gamma=1.0):
    return (
        alpha * intensity_loss_naive(f, a, b)
        + beta * texture_loss_naive(f, a, b)
        + gamma * ssim_loss_naive(f, a, b)
    )


QABF_PEAK = (0.9994 / (1 + math.exp(-15 * (1 - 0.5)))) * (
    0.9879 / (1 + math.exp(-22 * (1 - 0.8)))
)


def qabf_naive(a, b, f):
    # Edge responses below 1e-12 count as zero, matching the documented
    # orientation-branch convention of the library metric.
    def strength_angle(x):
        sx = correlate_reflect(x, SX)
        sy = correlate_reflect(x, SY)
        h, w = x.shape
        g = np.zeros((h, w))
        t = np.zeros((h, w))
        for i in range(h):
            for j in range(w):
                if abs(sx[i, j]) < 1e-12:
                    sx[i, j] = 0.0
                if abs(sy[i, j]) < 1e-12:
                    sy[i, j] = 0.0
                g[i, j] = math.hypot(sx[i, j], sy[i, j])
                if sx[i, j] == 0:
                    t[i, j] = math.pi / 2
                else:
                    t[i, j] = math.atan(sy[i, j] / sx[i, j])
        return g, t

    ga, ta = strength_angle(a)
    gb, tb = strength_angle(b)
    gf, tf = strength_angle(f)
    h, w = a.shape
    num = den = 0.0
    for i in range(h):
        for j in range(w):
            for gs, ts in ((ga, ta), (gb, tb)):
                if gs[i, j] > gf[i, j]:
                    ratio = gf[i, j] / gs[i, j]
                elif gf[i, j] > gs[i, j]:
                    ratio = gs[i, j] / gf[i, j]
                else:
                    ratio = 1.0
                align = 1 - abs(ts[i, j] - tf[i, j]) / (math.pi / 2)
                qg = 0.9994 / (1 + math.exp(-15 * (ratio - 0.5)))
                qt = 0.9879 / (1 + math.exp(-22 * (align - 0.8)))
                num += (qg * qt / QABF_PEAK) * gs[i, j]
                den += gs[i, j]
    return 1.0 if den == 0 else num / den


def qw_naive(a, b, f, win=8):
    h, w = a.shape
    terms = []
    for i in range(h - win + 1):
        for j in range(w - win + 1):
            wa = a[i : i + win, j : j + win].ravel()
            wb = b[i : i + win, j : j + win].ravel()
            wf = f[i : i + win, j : j + win].ravel()

            def var(x):
                # A constant window has variance exactly 0, not x.var()'s residue.
                return 0.0 if x.max() == x.min() else x.var()

            def q0(x, y):
                mx, my = x.mean(), y.mean()
                vx, vy = var(x), var(y)
                # a flat window has covariance exactly 0 with any other
                cov = 0.0 if vx == 0 or vy == 0 else (x * y).mean() - mx * my
                den = (vx + vy) * (mx * mx + my * my)
                if den == 0:
                    return 1.0 if np.abs(x - y).max() == 0 else 0.0
                return 4 * cov * mx * my / den

            sa, sb = var(wa), var(wb)
            lam = sa / (sa + sb) if sa + sb > 0 else 0.5
            terms.append((max(sa, sb), lam * q0(wa, wf) + (1 - lam) * q0(wb, wf)))
    total_c = sum(c for c, _ in terms)
    if total_c == 0:
        return sum(q for _, q in terms) / len(terms)
    return sum(c * q for c, q in terms) / total_c


def fmi_naive(a, b, f, bins=256):
    def feature(x):
        sx = correlate_reflect(x, SX)
        sy = correlate_reflect(x, SY)
        return np.sqrt(sx * sx + sy * sy)

    def nmi(x, y):
        hist, _, _ = np.histogram2d(x.ravel(), y.ravel(), bins=bins)
        p = hist / hist.sum()

        def ent(q):
            return -sum(v * math.log(v) for v in q.ravel() if v > 0)

        hx = ent(p.sum(axis=1))
        hy = ent(p.sum(axis=0))
        hxy = ent(p)
        if hx + hy == 0:
            return 1.0 if np.array_equal(x, y) else 0.0
        return 2 * (hx + hy - hxy) / (hx + hy)

    fa, fb, ff = feature(a), feature(b), feature(f)
    return 0.5 * (nmi(ff, fa) + nmi(ff, fb))



def sigmoid_naive(v):
    if v >= 0:
        return 1.0 / (1.0 + math.exp(-v))
    e = math.exp(v)
    return e / (1.0 + e)


def leaky_naive(x, slope):
    out = np.zeros(x.shape)
    for idx in np.ndindex(*x.shape):
        v = x[idx]
        out[idx] = v if v >= 0 else slope * v
    return out


def iwt2_naive(ll, lh, hl, hh):
    b, c, h, w = ll.shape
    x = np.zeros((b, c, 2 * h, 2 * w))
    for bi in range(b):
        for ci in range(c):
            for i in range(h):
                for j in range(w):
                    s = ll[bi, ci, i, j]
                    p = lh[bi, ci, i, j]
                    q = hl[bi, ci, i, j]
                    r = hh[bi, ci, i, j]
                    x[bi, ci, 2 * i, 2 * j] = (s + p + q + r) / 2
                    x[bi, ci, 2 * i, 2 * j + 1] = (s + p - q - r) / 2
                    x[bi, ci, 2 * i + 1, 2 * j] = (s - p + q - r) / 2
                    x[bi, ci, 2 * i + 1, 2 * j + 1] = (s - p - q + r) / 2
    return x


def matvec_naive(vec, m):
    """Row vector times matrix, both plain lists: out[o] = sum_i vec[i] m[i][o]."""
    return [sum(vec[i] * m[i][o] for i in range(len(vec))) for o in range(len(m[0]))]


def softmax_naive(m):
    """Row-wise softmax over the last axis, each row's max subtracted first."""
    m = np.asarray(m, dtype=np.float64)
    out = []
    for row in m.reshape(-1, m.shape[-1]).tolist():
        top = max(row)
        ex = [math.exp(v - top) for v in row]
        total = sum(ex)
        out.append([e / total for e in ex])
    return np.array(out).reshape(m.shape)


def window_attention_naive(xq, xk, wq, wk, wv, wo, heads, w, shift):
    """Multi-head attention inside each w x w window of the grid cyclically
    rolled by (-shift, -shift); queries and values come from xq, keys from xk.
    Full attention inside a window: no mask, no positional bias."""
    b, c, h, wd = xq.shape
    d = c // heads
    n = w * w
    xq, xk = xq.tolist(), xk.tolist()
    wq, wk, wv, wo = wq.tolist(), wk.tolist(), wv.tolist(), wo.tolist()
    out = np.zeros((b, c, h, wd))
    for bi in range(b):
        for wi in range(h // w):
            for wj in range(wd // w):
                # window pixel (u, v) of the rolled grid, in unrolled coordinates
                pix = [
                    ((wi * w + u + shift) % h, (wj * w + v + shift) % wd)
                    for u in range(w)
                    for v in range(w)
                ]
                vq = [[xq[bi][ci][i][j] for ci in range(c)] for i, j in pix]
                vk = [[xk[bi][ci][i][j] for ci in range(c)] for i, j in pix]
                q = [matvec_naive(t, wq) for t in vq]
                k = [matvec_naive(t, wk) for t in vk]
                v = [matvec_naive(t, wv) for t in vq]
                for t, (i, j) in enumerate(pix):
                    heads_out = [0.0] * c
                    for hd in range(heads):
                        chans = range(hd * d, (hd + 1) * d)
                        scores = [
                            sum(q[t][e] * k[s][e] for e in chans) / math.sqrt(d)
                            for s in range(n)
                        ]
                        top = max(scores)
                        ex = [math.exp(sc - top) for sc in scores]
                        total = sum(ex)
                        for e in chans:
                            acc = sum(ex[s] * v[s][e] for s in range(n))
                            heads_out[e] = acc / total
                    row = matvec_naive(heads_out, wo)
                    for co in range(c):
                        out[bi, co, i, j] = row[co]
    return out


def cross_modal_attention_naive(f1, f2, p1, p2, w, shift, route="qv"):
    """Cross-modal band attention. The stream whose queries and values come
    from one modality takes its keys, and the key weights, from the other, and
    the output projection of the query modality. route="qv" gives each
    modality the stream built on the other's queries/values; route="k" its own."""
    from_2 = window_attention_naive(
        f2, f1, p2.wq, p1.wk, p2.wv, p2.wo, p2.heads, w, shift
    )
    from_1 = window_attention_naive(
        f1, f2, p1.wq, p2.wk, p1.wv, p1.wo, p1.heads, w, shift
    )
    return (from_2, from_1) if route == "qv" else (from_1, from_2)


def mirror_index(i, n):
    # numpy 'symmetric' convention: the edge sample is repeated.
    i %= 2 * n
    return 2 * n - 1 - i if i >= n else i


def mirror_pad_naive(x, hp, wp):
    """Extend (B, C, H, W) to (B, C, hp, wp) by mirroring at bottom and right."""
    b, c, h, w = x.shape
    out = np.zeros((b, c, hp, wp))
    for bi in range(b):
        for ci in range(c):
            for i in range(hp):
                for j in range(wp):
                    ii, jj = mirror_index(i, h), mirror_index(j, w)
                    out[bi, ci, i, j] = x[bi, ci, ii, jj]
    return out


def layer_norm_naive(x, gain, shift, eps=1e-5):
    """Normalise the channel vector at every pixel, then the per-channel affine."""
    b, c, h, w = x.shape
    out = np.zeros(x.shape)
    for bi in range(b):
        for i in range(h):
            for j in range(w):
                vals = [x[bi, ci, i, j] for ci in range(c)]
                mu = sum(vals) / c
                std = math.sqrt(sum((v - mu) ** 2 for v in vals) / c + eps)
                for ci in range(c):
                    out[bi, ci, i, j] = (vals[ci] - mu) / std * gain[ci] + shift[ci]
    return out


def channel_gate_naive(x, w1, w2):
    """CBAM channel attention: sigmoid(MLP(avg) + MLP(max)) per channel."""
    b, c, h, w = x.shape
    hidden = w1.shape[0]

    def mlp(vec):
        hid = [
            max(0.0, sum(w1[r, ci] * vec[ci] for ci in range(c))) for r in range(hidden)
        ]
        return [sum(w2[co, r] * hid[r] for r in range(hidden)) for co in range(c)]

    out = np.zeros(x.shape)
    for bi in range(b):
        planes = [
            [x[bi, ci, i, j] for i in range(h) for j in range(w)] for ci in range(c)
        ]
        avg = [sum(p) / (h * w) for p in planes]
        mx = [max(p) for p in planes]
        gate = [sigmoid_naive(u + v) for u, v in zip(mlp(avg), mlp(mx))]
        for ci in range(c):
            for i in range(h):
                for j in range(w):
                    out[bi, ci, i, j] = x[bi, ci, i, j] * gate[ci]
    return out


def spatial_gate_naive(x, sa_w, sa_b):
    """CBAM spatial attention: a 7x7 conv over the channel mean and max maps."""
    b, c, h, w = x.shape
    maps = np.zeros((b, 2, h, w))
    for bi in range(b):
        for i in range(h):
            for j in range(w):
                vals = [x[bi, ci, i, j] for ci in range(c)]
                maps[bi, 0, i, j] = sum(vals) / c
                maps[bi, 1, i, j] = max(vals)
    logits = conv2d_naive(maps, sa_w, sa_b, 3)
    out = np.zeros(x.shape)
    for bi in range(b):
        for i in range(h):
            for j in range(w):
                gate = sigmoid_naive(logits[bi, 0, i, j])
                for ci in range(c):
                    out[bi, ci, i, j] = x[bi, ci, i, j] * gate
    return out


def token_mlp_naive(x, w1, b1, w2, b2, slope):
    """Per-pixel Linear -> LeakyReLU -> Linear over the channel vector."""
    b, c, h, w = x.shape
    hidden = w1.shape[0]
    out = np.zeros(x.shape)
    for bi in range(b):
        for i in range(h):
            for j in range(w):
                vals = [x[bi, ci, i, j] for ci in range(c)]
                hid = []
                for r in range(hidden):
                    s = sum(w1[r, ci] * vals[ci] for ci in range(c)) + b1[r]
                    hid.append(s if s >= 0 else slope * s)
                for co in range(c):
                    s = sum(w2[co, r] * hid[r] for r in range(hidden))
                    out[bi, co, i, j] = s + b2[co]
    return out


def enhance_block_naive(f1, f2, index, weights, cfg):
    """One frequency-enhance block for both streams: mirror-pad to a multiple
    of twice the window, LN, Haar split, cross-modal attention on LL and on
    the stacked [LH; HL; HH] bands, CBAM gating with the detail-band swap,
    inverse Haar + residual, LN, token MLP + residual, crop."""
    w = cfg.window
    shift = w // 2 if index % 2 else 0
    b, _, h, wd = f1.shape
    hp = h + (-h) % (2 * w)
    wp = wd + (-wd) % (2 * w)
    pre = [f"block{index}.s1", f"block{index}.s2"]
    padded, lows, highs = [], [], []
    for p, f in zip(pre, (f1, f2)):
        fp = mirror_pad_naive(f, hp, wp)
        ln = layer_norm_naive(fp, weights[f"{p}.ln1.gain"], weights[f"{p}.ln1.shift"])
        ll, lh, hl, hh = dwt2_naive(ln)
        padded.append(fp)
        lows.append(ll)
        highs.append(np.concatenate([lh, hl, hh], axis=0))

    def attn(p, band):
        proj = {k: weights[f"{p}.attn.{band}.{k}"] for k in ("wq", "wk", "wv", "wo")}
        return SimpleNamespace(heads=cfg.heads, **proj)

    route = cfg.cross_route
    low_a = cross_modal_attention_naive(
        *lows, attn(pre[0], "low"), attn(pre[1], "low"), w, shift, route
    )
    high_a = cross_modal_attention_naive(
        *highs, attn(pre[0], "high"), attn(pre[1], "high"), w, shift, route
    )
    outs = []
    for m, p in enumerate(pre):
        # stream m gates its own low band and the other stream's detail bands
        low = channel_gate_naive(
            low_a[m], weights[f"{p}.cbam.ca_w1"], weights[f"{p}.cbam.ca_w2"]
        )
        high = spatial_gate_naive(
            high_a[1 - m], weights[f"{p}.cbam.sa_w"], weights[f"{p}.cbam.sa_b"]
        )
        fprime = iwt2_naive(low, high[:b], high[b : 2 * b], high[2 * b :]) + padded[m]
        ln = layer_norm_naive(
            fprime, weights[f"{p}.ln2.gain"], weights[f"{p}.ln2.shift"]
        )
        mlp = token_mlp_naive(
            ln,
            weights[f"{p}.mlp.w1"],
            weights[f"{p}.mlp.b1"],
            weights[f"{p}.mlp.w2"],
            weights[f"{p}.mlp.b2"],
            0.1,
        )
        outs.append((mlp + fprime)[:, :, :h, :wd])
    return outs[0], outs[1]


def forward_naive(i1, i2, weights, cfg):
    """Network fusion of two (H, W) images, built from the loops above."""
    feats = []
    for m, img in ((1, i1), (2, i2)):
        x = np.asarray(img, dtype=np.float64)[None, None]
        for layer in (1, 2, 3):
            kernel = weights[f"fe{m}.{layer}.weight"]
            bias = weights[f"fe{m}.{layer}.bias"]
            x = leaky_naive(conv2d_naive(x, kernel, bias, 1), 0.1)
        feats.append(x)
    f1, f2 = feats
    for index in range(cfg.blocks):
        f1, f2 = enhance_block_naive(f1, f2, index, weights, cfg)
    x = np.concatenate([f1, f2], axis=1)
    for layer in (1, 2, 3):
        kernel, bias = weights[f"fuse.{layer}.weight"], weights[f"fuse.{layer}.bias"]
        x = conv2d_naive(x, kernel, bias, 1)
        if layer < 3:
            x = leaky_naive(x, 0.1)
    _, _, h, w = x.shape
    out = np.zeros((h, w))
    for i in range(h):
        for j in range(w):
            out[i, j] = min(max(x[0, 0, i, j], 0.0), 1.0)
    return out


def wfw_bytes(sizes, route, tensors):
    """A .wfw weights file packed field by field from README's layout: magic
    WFW1, u32 version 2, the six sizes (channels, blocks, window, heads,
    reduction, MLP ratio) as u32, a u8 length and the UTF-8 route, the u32
    tensor count, per name in sorted order a u16 length, the UTF-8 name, a u8
    rank and the u32 dims, then the float64 payloads in that order, all
    little-endian, and a CRC32 of every byte before it. Any sizes, names,
    shapes and values are packed as given, so tests craft bad files here."""
    enc = route.encode("utf-8")
    body = b"WFW1" + struct.pack("<I6IB", 2, *sizes, len(enc)) + enc
    body += struct.pack("<I", len(tensors))
    names = sorted(tensors)
    for name in names:
        raw, shape = name.encode("utf-8"), np.shape(tensors[name])
        body += struct.pack("<H", len(raw)) + raw
        body += struct.pack(f"<B{len(shape)}I", len(shape), *shape)
    for name in names:
        body += np.asarray(tensors[name], dtype="<f8").tobytes()
    return body + struct.pack("<I", zlib.crc32(body))
