"""Dense (B, C, H, W) float64 kernels: convolution, softmax, layer norm over
the channel axis, and the elementwise activations.

All functions are deterministic, and none keeps a thread of its own: softmax
rows over 2**20 elements or more (and attention's large window products) run
in two lanes, the second on a thread started and joined within the call, and
every element is computed as on one lane, so the lanes move no bit; BLAS's
own threads do (a default forward on a 75 x 79 pair differs between two CPUs
and one unless OPENBLAS_NUM_THREADS=1). Every kernel but softmax_rows leaves
its inputs unwritten; softmax_rows normalises a contiguous float64 argument
in place (its one caller passes logits it owns). The canonical carrier is a
contiguous numpy float64 array in (batch, channel, height, width) order, and
conv2d computes in it too.
"""

import math
import os
import threading

import numpy as np

_BLOCK = 1 << 18  # elements per softmax block: 2 MiB, about one core's L2 cache
_SPLIT = 1 << 20  # elements from which a kernel runs in two lanes


def _lanes(fn, n, size):
    """Run fn(lo, hi) over [0, n), in two lanes when the work is large.

    When size (the elements the work touches) is at least _SPLIT and this
    process may run on two or more CPUs, fn(n // 2, n) runs on a thread
    started and joined here while this thread runs fn(0, n // 2), and the
    worker's exception is raised here; otherwise fn(0, n) is one plain call.
    fn must not call a public function: a tracer wrapped around those keeps
    one span stack, which only the caller's thread may touch.
    """
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    if size < _SPLIT or n < 2 or cpus < 2:
        fn(0, n)
        return
    errors = []

    def second():
        try:
            fn(n // 2, n)
        except BaseException as e:  # re-raised on the caller's thread
            errors.append(e)

    worker = threading.Thread(target=second)
    worker.start()
    try:
        fn(0, n // 2)
    finally:
        worker.join()
    if errors:
        raise errors[0]


def conv2d(x, kernel, bias):
    """Cross-correlation with zero padding of a float64 (B, Cin, H, W) tensor.
    kernel is (Cout, Cin, k, k), k odd, and bias (Cout,); the (k-1)//2 padding
    preserves the spatial size. Shapes are the caller's to match (forward's
    weight schema does), so none is checked here."""
    cout, cin, k, _ = kernel.shape
    b, _, h, w = x.shape
    pad = (k - 1) // 2
    wp = w + 2 * pad
    # Each zero-padded channel plane, with one extra zero row, flattened over
    # (row, column), so that tap (u, v) reads the contiguous slice at
    # u * wp + v: one (Cout, Cin) @ (B, Cin, h * wp) product per tap, no im2col
    # buffer. The wp - w wrap-around columns of each output row are cropped.
    xp = np.zeros((b, cin, h + 2 * pad + 1, wp))
    xp[:, :, pad : pad + h, pad : pad + w] = x
    flat = xp.reshape(b, cin, -1)
    out = np.zeros((b, cout, h * wp))
    for u in range(k):
        for v in range(k):
            out += kernel[:, :, u, v] @ flat[:, :, u * wp + v : u * wp + v + h * wp]
    return out.reshape(b, cout, h, wp)[:, :, :, :w] + bias[:, None, None]


def softmax_rows(m):
    """Row-wise softmax over the last axis, one cache-sized block at a time.

    A C-contiguous float64 `m` is overwritten with its softmax and returned;
    any other input is converted to such a copy first, which is returned.
    The rows go in blocks of about _BLOCK elements, so each block's passes
    hit cache and the logits are read and written once; large inputs split
    the blocks over two lanes (_lanes). In each block, when every logit lies
    in (-700, 700 - ln n), n the row length, each exp is a normal float and
    each row sum finite and at least e^-700, so the logits are exponentiated
    as they are; otherwise each row's max is subtracted first. A block's row
    sums are one matrix-vector product, and each row is scaled by its sum's
    reciprocal.
    """
    m = np.ascontiguousarray(m, dtype=np.float64)
    n = m.shape[-1]
    rows = m.reshape(-1, n)
    if not rows.size:
        return m
    # Blocks of a multiple of 8 rows: BLAS groups the row sums of the gemv by
    # 4 rows, as on the whole array, so blocking leaves every bit as it was.
    step = max(8, _BLOCK // n // 8 * 8)
    top, ones = 700.0 - math.log(n), np.ones(n)

    def blocks(lo, hi):
        for i in range(lo * step, min(hi * step, len(rows)), step):
            r = rows[i : i + step]
            if not (r.min() > -700.0 and r.max() < top):
                r -= r.max(axis=-1, keepdims=True)
            np.exp(r, out=r)
            s = r @ ones
            np.reciprocal(s, out=s)
            r *= s[:, None]

    _lanes(blocks, -(-len(rows) // step), rows.size)
    return m


def layer_norm(x, gain, shift, eps=1e-5):
    """Normalize the channel vector (axis 1) at every pixel of a (B, C, H, W)
    tensor to zero mean / unit variance, then apply the per-channel affine
    (gain, shift), each of shape (C,)."""
    # The same subtract, square, sum and divide as np.var, with the mean
    # subtracted once and the rest done in place.
    d = x - x.mean(axis=1, keepdims=True)
    var = np.square(d).sum(axis=1, keepdims=True) / x.shape[1]
    d /= np.sqrt(var + eps)
    d *= gain[:, None, None]
    d += shift[:, None, None]
    return d


def leaky_relu(x, slope):
    """max(x, slope * x), written into the slope * x temporary."""
    t = np.multiply(slope, x, out=np.empty(np.shape(x)))
    return np.maximum(x, t, out=t)


def sigmoid(x):
    """1 / (1 + e^-x), computed from e = e^-|x| so that no exp overflows."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
