"""Dense (B, C, H, W) float64 kernels: convolution, softmax, layer norm over
the channel axis, and the elementwise activations.

All functions are deterministic. Every kernel but softmax_rows leaves its
inputs unwritten; softmax_rows normalises a contiguous float64 argument in
place (its one caller passes logits it owns) and splits the rows over the
usable cores, with bit-identical results whatever the core count. The
canonical carrier is a contiguous numpy float64 array in (batch, channel,
height, width) order; conv2d works channels-last inside and transposes back.
"""

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np


def conv2d(x, kernel, bias):
    """Cross-correlation with zero padding of a float64 (B, Cin, H, W) tensor.
    kernel is (Cout, Cin, k, k), k odd, and bias (Cout,); the (k-1)//2 padding
    preserves the spatial size. Shapes are the caller's to match (forward's
    weight schema does), so none is checked here."""
    cout, _, k, _ = kernel.shape
    b, _, h, w = x.shape
    pad = (k - 1) // 2
    # One (B*H*W, Cin) @ (Cin, Cout) product per tap on a channels-last copy;
    # no im2col buffer of k*k shifted copies is built.
    xt = np.pad(x.transpose(0, 2, 3, 1), ((0, 0), (pad, pad), (pad, pad), (0, 0)))
    taps = kernel.transpose(2, 3, 1, 0)
    out = np.zeros((b, h, w, cout))
    for u in range(k):
        for v in range(k):
            out += xt[:, u : u + h, v : v + w, :] @ taps[u, v]
    out += bias
    return np.ascontiguousarray(out.transpose(0, 3, 1, 2))


# Fewest elements per thread when softmax_rows splits: a 256² forward's calls
# (4 M to 12 M logits) split; those of forwards up to 80² (≤ 1.2 M) do not.
_MIN_PART = 2**20


def _softmax_part(rows):
    rows -= rows.max(axis=-1, keepdims=True)
    np.exp(rows, out=rows)
    rows /= rows.sum(axis=-1, keepdims=True)


def softmax_rows(m):
    """Row-wise softmax over the last axis, with max-subtraction for stability.

    A C-contiguous float64 `m` is overwritten with its softmax and returned;
    any other input is converted to such a copy first, which is returned.
    Inputs of at least 2 * _MIN_PART elements are split into contiguous blocks
    of rows, one per usable core, on a pool that lives for this call only (a
    forked child inherits no pool threads). Each row is computed exactly as in
    a serial pass, so the result does not depend on the core count.
    """
    m = np.ascontiguousarray(m, dtype=np.float64)
    rows = m.reshape(-1, m.shape[-1])
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        cpus = os.cpu_count() or 1
    parts = max(1, min(cpus, len(rows), m.size // _MIN_PART))
    if parts == 1:
        _softmax_part(rows)
        return m
    with ThreadPoolExecutor(parts) as pool:
        list(pool.map(_softmax_part, np.array_split(rows, parts)))
    return m


def layer_norm(x, gain, shift, eps=1e-5):
    """Normalize the channel vector (axis 1) at every pixel of a (B, C, H, W)
    tensor to zero mean / unit variance, then apply the per-channel affine
    (gain, shift), each of shape (C,)."""
    mu = x.mean(axis=1, keepdims=True)
    var = x.var(axis=1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * gain[:, None, None] + shift[:, None, None]


def leaky_relu(x, slope):
    """max(x, slope * x), written into the slope * x temporary."""
    t = np.multiply(slope, x, out=np.empty(np.shape(x)))
    return np.maximum(x, t, out=t)


def sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out
