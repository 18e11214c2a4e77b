"""Dense (B, C, H, W) float64 kernels: convolution, softmax, layer norm.

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

from .errors import ShapeError


def as_tensor(x):
    """Coerce to a float64 (B, C, H, W) array, validating rank."""
    a = np.ascontiguousarray(x, dtype=np.float64)
    if a.ndim != 4:
        raise ShapeError(f"expected rank-4 (B,C,H,W) array, got shape {a.shape}")
    return a


def conv2d(x, kernel, bias):
    """Cross-correlation with zero padding. kernel is (Cout, Cin, k, k), k odd;
    the (k-1)//2 padding preserves the spatial size."""
    x = as_tensor(x)
    kernel = np.asarray(kernel, dtype=np.float64)
    bias = np.asarray(bias, dtype=np.float64)
    if kernel.ndim != 4 or kernel.shape[2] != kernel.shape[3]:
        raise ShapeError(f"kernel must be (Cout,Cin,k,k), got {kernel.shape}")
    cout, cin, k, _ = kernel.shape
    if k % 2 == 0:
        raise ShapeError(f"kernel size must be odd, got {k}")
    if x.shape[1] != cin:
        raise ShapeError(
            f"input channels {x.shape} do not match kernel {kernel.shape}"
        )
    if bias.shape != (cout,):
        raise ShapeError(f"bias shape {bias.shape} does not match Cout {cout}")
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
    first, *rest = np.array_split(rows, parts)
    with ThreadPoolExecutor(parts - 1) as pool:
        futures = [pool.submit(_softmax_part, block) for block in rest]
        _softmax_part(first)
        for f in futures:
            f.result()
    return m


def layer_norm(x, gain, shift, eps=1e-5):
    """Normalize each row of a (n, C) token matrix to zero mean / unit variance,
    then apply the per-channel affine (gain, shift)."""
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * gain + shift


def leaky_relu(x, slope):
    x = np.asarray(x, dtype=np.float64)
    return np.where(x >= 0.0, x, slope * x)


def sigmoid(x):
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out
