"""Dense (B, C, H, W) float64 kernels: convolution, softmax, layer norm.

All functions are pure and deterministic; arrays are never mutated in place.
The canonical carrier is a contiguous numpy float64 array in (batch, channel,
height, width) order.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ShapeError


def as_tensor(x):
    """Coerce to a float64 (B, C, H, W) array, validating rank."""
    a = np.ascontiguousarray(x, dtype=np.float64)
    if a.ndim != 4:
        raise ShapeError(f"expected rank-4 (B,C,H,W) array, got shape {a.shape}")
    return a


def conv2d(x, kernel, bias, padding):
    """Cross-correlation with zero padding. kernel is (Cout, Cin, k, k), k odd.

    padding must be (k-1)//2 so the spatial size is preserved.
    """
    x = as_tensor(x)
    kernel = np.asarray(kernel, dtype=np.float64)
    bias = np.asarray(bias, dtype=np.float64)
    if kernel.ndim != 4 or kernel.shape[2] != kernel.shape[3]:
        raise ShapeError(f"kernel must be (Cout,Cin,k,k), got {kernel.shape}")
    cout, cin, k, _ = kernel.shape
    if k % 2 == 0:
        raise ShapeError(f"kernel size must be odd, got {k}")
    if padding != (k - 1) // 2:
        raise ShapeError(f"padding must be (k-1)/2 = {(k - 1) // 2}, got {padding}")
    if x.shape[1] != cin:
        raise ShapeError(
            f"input channels {x.shape} do not match kernel {kernel.shape}"
        )
    if bias.shape != (cout,):
        raise ShapeError(f"bias shape {bias.shape} does not match Cout {cout}")
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    win = sliding_window_view(xp, (k, k), axis=(2, 3))
    out = np.einsum("bihwuv,oiuv->bohw", win, kernel, optimize=True)
    return out + bias[None, :, None, None]


def softmax_rows(m):
    """Row-wise softmax with max-subtraction for stability."""
    m = np.asarray(m, dtype=np.float64)
    z = m - m.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def layer_norm(x, gain, shift, eps=1e-5):
    """Normalize each row of a (n, C) token matrix to zero mean / unit variance,
    then apply the per-channel affine (gain, shift)."""
    x = np.asarray(x, dtype=np.float64)
    gain = np.asarray(gain, dtype=np.float64)
    shift = np.asarray(shift, dtype=np.float64)
    if x.shape[-1] != gain.shape[0] or gain.shape != shift.shape:
        raise ShapeError(
            f"layer_norm channel mismatch: x {x.shape}, gain {gain.shape}, "
            f"shift {shift.shape}"
        )
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


def relu(x):
    return np.maximum(np.asarray(x, dtype=np.float64), 0.0)


def channel_concat(a, b):
    a, b = as_tensor(a), as_tensor(b)
    if a.shape[0] != b.shape[0] or a.shape[2:] != b.shape[2:]:
        raise ShapeError(f"channel_concat mismatch: {a.shape} vs {b.shape}")
    return np.concatenate([a, b], axis=1)


def batch_concat(a, b):
    a, b = as_tensor(a), as_tensor(b)
    if a.shape[1:] != b.shape[1:]:
        raise ShapeError(f"batch_concat mismatch: {a.shape} vs {b.shape}")
    return np.concatenate([a, b], axis=0)

