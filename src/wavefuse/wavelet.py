"""Single-level 2D orthonormal Haar analysis/synthesis with perfect reconstruction.

Applied independently to every (batch, channel) slice. The orthonormal scaling
(factor 1/2 per 2x2 block) preserves energy exactly, which the tests rely on.
The lossless `.bands` file of one decomposed plane is written and read here too.
"""

import struct
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, ShapeError
from .tensor import as_tensor

BANDS_MAGIC = b"WBN1"


@dataclass(frozen=True)
class SubbandSet:
    """The four half-resolution wavelet components of a (B, C, H, W) tensor."""

    ll: np.ndarray
    lh: np.ndarray
    hl: np.ndarray
    hh: np.ndarray

    def __post_init__(self):
        shapes = {self.ll.shape, self.lh.shape, self.hl.shape, self.hh.shape}
        if len(shapes) != 1:
            raise ShapeError(f"inconsistent subband shapes: {sorted(shapes)}")


def dwt2(x):
    """Haar analysis. Requires even H and W; odd inputs must be reflection-padded
    by the caller before decomposition."""
    x = as_tensor(x)
    _, _, h, w = x.shape
    if h % 2 or w % 2:
        raise ShapeError(
            f"dwt2 requires even spatial dims, got {h}x{w}; reflection-pad upstream"
        )
    a = x[:, :, 0::2, 0::2]
    b = x[:, :, 0::2, 1::2]
    c = x[:, :, 1::2, 0::2]
    d = x[:, :, 1::2, 1::2]
    return SubbandSet(
        ll=(a + b + c + d) / 2.0,
        lh=(a + b - c - d) / 2.0,
        hl=(a - b + c - d) / 2.0,
        hh=(a - b - c + d) / 2.0,
    )


def iwt2(s):
    """Exact inverse of dwt2."""
    ll, lh, hl, hh = s.ll, s.lh, s.hl, s.hh
    a = (ll + lh + hl + hh) / 2.0
    b = (ll + lh - hl - hh) / 2.0
    c = (ll - lh + hl - hh) / 2.0
    d = (ll - lh - hl + hh) / 2.0
    bb, cc, hh2, ww2 = ll.shape
    out = np.empty((bb, cc, hh2 * 2, ww2 * 2), dtype=np.float64)
    out[:, :, 0::2, 0::2] = a
    out[:, :, 0::2, 1::2] = b
    out[:, :, 1::2, 0::2] = c
    out[:, :, 1::2, 1::2] = d
    return out


def pack_high(s):
    """Stack the three detail bands along batch, order [LH; HL; HH]."""
    return np.concatenate([s.lh, s.hl, s.hh], axis=0)


def unpack(packed_low, packed_high):
    """Rebuild a SubbandSet from a low tensor (B,...) and a packed-high tensor (3B,...)."""
    low = as_tensor(packed_low)
    high = as_tensor(packed_high)
    b = low.shape[0]
    if high.shape[0] != 3 * b:
        raise ShapeError(
            f"packed high batch {high.shape[0]} is not 3x the low batch {b}"
        )
    if high.shape[1:] != low.shape[1:]:
        raise ShapeError(f"subband shape mismatch: {low.shape} vs {high.shape}")
    return SubbandSet(ll=low, lh=high[:b], hl=high[b : 2 * b], hh=high[2 * b :])


def save_bands(subbands, path):
    """Lossless .bands container: magic, u32 H', u32 W', then the LL, LH, HL,
    HH planes as little-endian f64."""
    ll = subbands.ll[0, 0]
    h, w = ll.shape
    with open(path, "wb") as fh:
        fh.write(BANDS_MAGIC + struct.pack("<II", h, w))
        for plane in (subbands.ll, subbands.lh, subbands.hl, subbands.hh):
            fh.write(np.ascontiguousarray(plane[0, 0], dtype="<f8").tobytes())


def load_bands(path):
    with open(path, "rb") as fh:
        buf = fh.read()
    if len(buf) < 12:
        raise FormatError(f"bands file truncated: {len(buf)} bytes")
    if buf[:4] != BANDS_MAGIC:
        raise FormatError(f"bad magic {buf[:4]!r}, expected {BANDS_MAGIC!r}")
    h, w = struct.unpack_from("<II", buf, 4)
    need = 12 + 4 * h * w * 8
    if len(buf) != need:
        raise FormatError(f"bands file has {len(buf)} bytes, expected {need}")
    planes = []
    pos = 12
    for _ in range(4):
        planes.append(
            np.frombuffer(buf[pos : pos + h * w * 8], dtype="<f8")
            .astype(np.float64)
            .reshape(1, 1, h, w)
        )
        pos += h * w * 8
    return SubbandSet(ll=planes[0], lh=planes[1], hl=planes[2], hh=planes[3])
