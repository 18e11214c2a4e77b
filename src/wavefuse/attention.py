"""Windowed multi-head attention, the cross-modal band wiring, and CBAM-style
channel/spatial gating used to recombine frequency bands.

Shifted windows use a cyclic roll with full attention inside each window;
there is no masking and no positional bias.

network.forward checks the images, NetConfig and weights once, and
enhance_block pads every band to a multiple of the window; the layers below
it, window_partition included, trust their arguments and check no shape,
window, shift, route or head count again.
"""

from dataclasses import dataclass, replace

import numpy as np

from .tensor import conv2d, sigmoid, softmax_rows


@dataclass(frozen=True)
class WindowTokens:
    """Token matrices (num_windows*B, w*w, C) with what window_merge needs to
    untile them: the window size, the shift and the (B, C, H, W) shape."""

    tokens: np.ndarray
    window: int
    shift: int
    shape: tuple


def window_partition(x, w, shift):
    """Tile a float64 (B, C, H, W) tensor into non-overlapping w x w windows.

    H and W are multiples of w (enhance_block pads them so), and shift is 0 or
    w//2; the shifted variant rolls the tensor by (-shift, -shift) first.
    """
    b, c, h, ww = x.shape
    if shift:
        x = np.roll(x, (-shift, -shift), axis=(2, 3))
    t = x.reshape(b, c, h // w, w, ww // w, w).transpose(0, 2, 4, 3, 5, 1)
    return WindowTokens(np.ascontiguousarray(t.reshape(-1, w * w, c)), w, shift, x.shape)


def window_merge(tok):
    """Exact inverse of window_partition."""
    w, (b, c, h, ww) = tok.window, tok.shape
    t = tok.tokens.reshape(b, h // w, ww // w, w, w, c).transpose(0, 5, 1, 3, 2, 4)
    x = t.reshape(tok.shape)
    if tok.shift:
        x = np.roll(x, (tok.shift, tok.shift), axis=(2, 3))
    return np.ascontiguousarray(x)


def mhsa(q_src, k_src, w, heads):
    """Multi-head attention over window token stacks.

    w = (wq, wk, wv, wo), each (C, C): wk projects k_src into keys, and wq and
    wv project q_src into queries and values; the heads (which must divide C)
    are concatenated and mapped through wo.
    """
    wq, wk, wv, wo = w
    nwin, t, c = q_src.tokens.shape
    h, d = heads, c // heads
    # The 1/sqrt(d) logit scale rides on wq, and K is laid out (nwin, h, d, t),
    # so q @ k is the scaled logits with no transpose or division over them.
    q = (q_src.tokens @ (wq / np.sqrt(d))).reshape(nwin, t, h, d).transpose(0, 2, 1, 3)
    k = (k_src.tokens @ wk).reshape(nwin, t, h, d).transpose(0, 2, 3, 1)
    attn = q @ k
    # The logits set the forward's peak: V is made only once Q and K are gone.
    del q, k
    attn = softmax_rows(attn)
    v = (q_src.tokens @ wv).reshape(nwin, t, h, d).transpose(0, 2, 1, 3)
    out = attn @ v
    del attn, v
    return replace(q_src, tokens=out.transpose(0, 2, 1, 3).reshape(nwin, t, c) @ wo)


def cross_modal_attention(tok1, tok2, w1, w2, heads, route):
    """Windowed attention wired across the two modalities of one band, given
    each modality's window_partition tokens; returns the two merged tensors.

    w1 and w2 are the (wq, wk, wv, wo) projections of each modality.
    route="qv": each output stream takes queries and values from the opposite
    modality and keys from its own; route="k" sends only the keys across. Both
    use the output projection of the modality that supplied Q/V. `route` is
    NetConfig.cross_route, which checks it.
    """
    toks, ws = (tok1, tok2), (w1, w2)
    # outs[m]: Q, V and wo from modality m, K from the other one.
    outs = [
        mhsa(toks[m], toks[1 - m], (ws[m][0], ws[1 - m][1], *ws[m][2:]), heads)
        for m in (0, 1)
    ]
    if route == "qv":
        outs.reverse()
    return tuple(window_merge(o) for o in outs)


def frequency_interaction(low1, low2, high1, high2, g1, g2):
    """Recombine attended bands with a cross-modal swap of the detail bands.

    Stream 1 = (CA(low1), SA(high2)), stream 2 = (CA(low2), SA(high1)), each a
    (low, high) pair whose high holds the LH, HL, HH bands stacked along batch.
    Stream m is gated by its own g = (ca_w1, ca_w2, sa_w, sa_b). CA scales each
    channel by sigmoid(MLP(mean) + MLP(max)), pooled over space, where the
    biasless MLP(v) = relu(v @ ca_w1.T) @ ca_w2.T (ca_w1 is (C/r, C), ca_w2
    (C, C/r)). SA scales each pixel by sigmoid(conv2d(maps, sa_w, sa_b)), maps
    the channel mean and max as two channels (sa_w (1, 2, 7, 7), sa_b (1,)).
    """
    out = []
    for lo, hi, (ca_w1, ca_w2, sa_w, sa_b) in ((low1, high2, g1), (low2, high1, g2)):
        pooled = np.stack([lo.mean(axis=(2, 3)), lo.max(axis=(2, 3))])
        ca = sigmoid((np.maximum(pooled @ ca_w1.T, 0.0) @ ca_w2.T).sum(axis=0))
        maps = np.stack([hi.mean(axis=1), hi.max(axis=1)], axis=1)
        out.append((lo * ca[:, :, None, None], hi * sigmoid(conv2d(maps, sa_w, sa_b))))
    return tuple(out)
