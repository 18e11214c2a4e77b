"""Windowed multi-head attention, the cross-modal band wiring, and CBAM-style
channel/spatial gating used to recombine frequency bands.

Shifted windows use a cyclic roll with full attention inside each window;
there is no masking and no positional bias.

network.forward checks the images, NetConfig and weights once; the layers
below it trust their arguments and do not check shapes, routes or heads again.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import ShapeError
from .tensor import as_tensor, conv2d, sigmoid, softmax_rows


@dataclass(frozen=True)
class WindowTokens:
    """Token matrices (num_windows*B, w*w, C) plus the tiling metadata needed
    to invert the partition."""

    tokens: np.ndarray
    window: int
    shift: int
    batch: int
    channels: int
    height: int
    width: int


@dataclass(frozen=True)
class AttentionParams:
    """Per-band projection weights; each is (C, C), heads must divide C."""

    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    heads: int


@dataclass(frozen=True)
class CbamParams:
    """Channel-attention MLP (C -> C/r -> C, biasless, shared across the avg
    and max branches) and the 7x7 spatial-attention conv (2 -> 1 channels)."""

    ca_w1: np.ndarray
    ca_w2: np.ndarray
    sa_w: np.ndarray
    sa_b: np.ndarray


def window_partition(x, w, shift):
    """Tile a (B, C, H, W) tensor into non-overlapping w x w windows.

    shift must be 0 or w//2; the shifted variant rolls the tensor by
    (-shift, -shift) before tiling.
    """
    x = as_tensor(x)
    b, c, h, ww = x.shape
    if w <= 0 or w > min(h, ww):
        raise ShapeError(f"window {w} invalid for spatial dims {h}x{ww}")
    if shift not in (0, w // 2):
        raise ShapeError(f"shift must be 0 or {w // 2}, got {shift}")
    if h % w or ww % w:
        raise ShapeError(f"window {w} must divide spatial dims {h}x{ww}")
    if shift:
        x = np.roll(x, (-shift, -shift), axis=(2, 3))
    nh, nw = h // w, ww // w
    t = x.reshape(b, c, nh, w, nw, w)
    t = t.transpose(0, 2, 4, 3, 5, 1).reshape(b * nh * nw, w * w, c)
    return WindowTokens(
        tokens=np.ascontiguousarray(t),
        window=w,
        shift=shift,
        batch=b,
        channels=c,
        height=h,
        width=ww,
    )


def window_merge(tok):
    """Exact inverse of window_partition."""
    w = tok.window
    b, c, h, ww = tok.batch, tok.channels, tok.height, tok.width
    nh, nw = h // w, ww // w
    t = tok.tokens.reshape(b, nh, nw, w, w, c).transpose(0, 5, 1, 3, 2, 4)
    x = t.reshape(b, c, h, ww)
    if tok.shift:
        x = np.roll(x, (tok.shift, tok.shift), axis=(2, 3))
    return np.ascontiguousarray(x)


def mhsa(q_src, k_src, v_src, p):
    """Multi-head attention over window token stacks.

    p.wq/p.wk/p.wv project the respective source stacks; heads are
    concatenated and mapped through p.wo.
    """
    nwin, t, c = q_src.tokens.shape
    h = p.heads
    d = c // h
    # The 1/sqrt(d) logit scale rides on wq, and K is laid out (nwin, h, d, t),
    # so q @ k is the scaled logits with no transpose or division over them.
    q = (q_src.tokens @ (p.wq / np.sqrt(d))).reshape(nwin, t, h, d).transpose(0, 2, 1, 3)
    k = (k_src.tokens @ p.wk).reshape(nwin, t, h, d).transpose(0, 2, 3, 1)
    v = (v_src.tokens @ p.wv).reshape(nwin, t, h, d).transpose(0, 2, 1, 3)
    attn = softmax_rows(q @ k)
    out = (attn @ v).transpose(0, 2, 1, 3).reshape(nwin, t, c) @ p.wo
    return replace(q_src, tokens=out)


def cross_modal_attention(f1, f2, p1, p2, w, shift, route="qv"):
    """Windowed attention wired across the two modalities of one band.

    route="qv" (default): each output stream takes queries and values from the
    opposite modality and keys from its own; route="k" sends only the keys
    across. Both use the output projection of the modality that supplied Q/V.
    `route` is NetConfig.cross_route, which checks it.
    """
    toks = (window_partition(f1, w, shift), window_partition(f2, w, shift))
    ps = (p1, p2)
    # outs[m]: Q, V and wo from modality m, K from the other one.
    outs = [
        mhsa(toks[m], toks[1 - m], toks[m], replace(ps[m], wk=ps[1 - m].wk)) for m in (0, 1)
    ]
    if route == "qv":
        outs.reverse()
    return tuple(window_merge(o) for o in outs)


def channel_attention(x, p):
    """Sigmoid channel gate from pooled statistics, broadcast over space."""
    avg = x.mean(axis=(2, 3))
    mx = x.max(axis=(2, 3))

    def mlp(v):
        return np.maximum(v @ p.ca_w1.T, 0.0) @ p.ca_w2.T

    gate = sigmoid(mlp(avg) + mlp(mx))
    return x * gate[:, :, None, None]


def spatial_attention(x, p):
    """Sigmoid spatial gate from channel mean/max maps, broadcast over channels."""
    maps = np.stack([x.mean(axis=1), x.max(axis=1)], axis=1)
    gate = sigmoid(conv2d(maps, p.sa_w, p.sa_b))
    return x * gate


def frequency_interaction(low1, low2, high1, high2, p1, p2):
    """Recombine attended bands with a cross-modal swap of the detail bands.

    Stream 1 = (CA(low1), SA(high2)), stream 2 = (CA(low2), SA(high1)), each a
    (low, high) pair whose high holds the LH, HL, HH bands stacked along batch.
    Stream m is gated by its own params.
    """
    streams = ((low1, high2, p1), (low2, high1, p2))
    return tuple((channel_attention(lo, p), spatial_attention(hi, p)) for lo, hi, p in streams)
