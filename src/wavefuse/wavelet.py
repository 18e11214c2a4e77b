"""Single-level 2D orthonormal Haar analysis/synthesis with perfect reconstruction.

Applied independently to every (batch, channel) slice. The bands of a
(B, C, H, W) tensor are one band-major float64 array of shape
(4, B, C, H/2, W/2) in the order LL, LH, HL, HH, so `s[0]` is the low band and
`s[1:]` the three detail bands. The orthonormal scaling (factor 1/2 per 2x2
block) preserves energy exactly, which the tests rely on. The lossless
`.bands` file of one decomposed plane is written and read here too.
"""

import struct

import numpy as np

from .errors import FormatError, ShapeError

BANDS_MAGIC = b"WBN1"


def dwt2(x):
    """Haar analysis of a (B, C, H, W) tensor into a (4, B, C, H/2, W/2) array
    of its LL, LH, HL, HH bands. Requires even H and W; odd inputs must be
    reflection-padded by the caller before decomposition."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 4:
        raise ShapeError(f"expected rank-4 (B,C,H,W) array, got shape {x.shape}")
    _, _, h, w = x.shape
    if h % 2 or w % 2:
        raise ShapeError(
            f"dwt2 requires even spatial dims, got {h}x{w}; reflection-pad upstream"
        )
    a = x[:, :, 0::2, 0::2]
    b = x[:, :, 0::2, 1::2]
    c = x[:, :, 1::2, 0::2]
    d = x[:, :, 1::2, 1::2]
    s = np.empty((4, *x.shape[:2], h // 2, w // 2), dtype=np.float64)
    s[0] = (a + b + c + d) / 2.0
    s[1] = (a + b - c - d) / 2.0
    s[2] = (a - b + c - d) / 2.0
    s[3] = (a - b - c + d) / 2.0
    return s


def iwt2(s):
    """Exact inverse of dwt2: `s` is its (4, B, C, h, w) array or any sequence
    of the four (B, C, h, w) bands in the order LL, LH, HL, HH."""
    ll, lh, hl, hh = s
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


def save_bands(bands, path):
    """Lossless .bands container of the (4, 1, 1, H', W') dwt2 array of one
    plane: magic, u32 H', u32 W', then the LL, LH, HL, HH planes as
    little-endian f64. Any other shape raises ShapeError."""
    if bands.ndim != 5 or bands.shape[:3] != (4, 1, 1):
        raise ShapeError(f"expected the (4, 1, 1, h, w) bands of one plane, got {bands.shape}")
    h, w = bands.shape[-2:]
    with open(path, "wb") as fh:
        fh.write(BANDS_MAGIC + struct.pack("<II", h, w))
        fh.write(np.asarray(bands[:, 0, 0], dtype="<f8").tobytes())


def load_bands(path):
    """Read a .bands file back as a (4, 1, 1, H', W') dwt2 array."""
    with open(path, "rb") as fh:
        buf = fh.read()
    if len(buf) < 12:
        raise FormatError(f"bands file truncated: {len(buf)} bytes")
    if buf[:4] != BANDS_MAGIC:
        raise FormatError(f"bad magic {buf[:4]!r}, expected {BANDS_MAGIC!r}")
    h, w = struct.unpack_from("<II", buf, 4)
    if not h or not w:
        raise FormatError(f"bands file declares empty {h}x{w} bands")
    need = 12 + 4 * h * w * 8
    if len(buf) != need:
        raise FormatError(f"bands file has {len(buf)} bytes, expected {need}")
    return np.frombuffer(buf, dtype="<f8", offset=12).astype(np.float64).reshape(4, 1, 1, h, w)
