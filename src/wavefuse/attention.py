"""Windowed multi-head attention, the cross-modal band wiring, and CBAM-style
channel/spatial gating used to recombine frequency bands.

Shifted windows use a cyclic roll with full attention inside each window;
there is no masking and no positional bias.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import ShapeError
from .tensor import (
    as_tensor,
    batch_concat,
    conv2d,
    relu,
    sigmoid,
    softmax_rows,
)


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


def _same_windowing(*toks):
    ref = toks[0]
    for t in toks[1:]:
        if t.tokens.shape != ref.tokens.shape or (t.window, t.shift) != (
            ref.window,
            ref.shift,
        ):
            raise ShapeError(
                f"window token mismatch: {t.tokens.shape} (w={t.window}, "
                f"s={t.shift}) vs {ref.tokens.shape} (w={ref.window}, s={ref.shift})"
            )


def mhsa(q_src, k_src, v_src, p):
    """Multi-head attention over window token stacks.

    p.wq/p.wk/p.wv project the respective source stacks; heads are
    concatenated and mapped through p.wo.
    """
    _same_windowing(q_src, k_src, v_src)
    nwin, t, c = q_src.tokens.shape
    h = p.heads
    if c % h:
        raise ShapeError(f"heads {h} must divide channels {c}")
    d = c // h
    q = (q_src.tokens @ p.wq).reshape(nwin, t, h, d).transpose(0, 2, 1, 3)
    k = (k_src.tokens @ p.wk).reshape(nwin, t, h, d).transpose(0, 2, 1, 3)
    v = (v_src.tokens @ p.wv).reshape(nwin, t, h, d).transpose(0, 2, 1, 3)
    attn = softmax_rows(q @ k.transpose(0, 1, 3, 2) / np.sqrt(d))
    out = (attn @ v).transpose(0, 2, 1, 3).reshape(nwin, t, c) @ p.wo
    return replace(q_src, tokens=out)


def cross_modal_attention(f1, f2, p1, p2, w, shift, route="qv"):
    """Windowed attention wired across the two modalities of one band.

    route="qv" (default): each output stream takes queries and values from the
    opposite modality and keys from its own; route="k" sends only the keys
    across. Both use the output projection of the modality that supplied Q/V.
    """
    f1, f2 = as_tensor(f1), as_tensor(f2)
    if f1.shape != f2.shape:
        raise ShapeError(f"modalities differ in shape: {f1.shape} vs {f2.shape}")
    if route not in ("qv", "k"):
        raise ValueError(f"unknown route {route!r}")
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
    x = as_tensor(x)
    b, c = x.shape[:2]
    if p.ca_w1.shape[1] != c:
        raise ShapeError(f"channel params {p.ca_w1.shape} do not match C={c}")
    avg = x.mean(axis=(2, 3))
    mx = x.max(axis=(2, 3))

    def mlp(v):
        return relu(v @ p.ca_w1.T) @ p.ca_w2.T

    gate = sigmoid(mlp(avg) + mlp(mx))
    return x * gate[:, :, None, None]


def spatial_attention(x, p):
    """Sigmoid spatial gate from channel mean/max maps, broadcast over channels."""
    x = as_tensor(x)
    maps = np.stack([x.mean(axis=1), x.max(axis=1)], axis=1)
    gate = sigmoid(conv2d(maps, p.sa_w, p.sa_b, padding=3))
    return x * gate


def frequency_interaction(low1, low2, high1, high2, p1, p2):
    """Recombine attended bands with a cross-modal swap of the detail bands.

    Stream 1 = [CA(low1); SA(high2)] along batch (band order LL, LH, HL, HH),
    stream 2 = [CA(low2); SA(high1)]. Stream m is gated by its own params.
    """
    lows = as_tensor(low1), as_tensor(low2)
    highs = as_tensor(high1), as_tensor(high2)
    b = lows[0].shape[0]
    for m, high in enumerate(highs, 1):
        if high.shape[0] != 3 * b:
            raise ShapeError(f"high{m} batch {high.shape[0]} is not 3x the low batch {b}")
    ps = (p1, p2)
    return tuple(
        batch_concat(channel_attention(lows[m], ps[m]), spatial_attention(highs[1 - m], ps[m]))
        for m in (0, 1)
    )
