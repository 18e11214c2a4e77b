"""Binary PGM/PPM I/O, [0,1] normalization, the BT.601 YCbCr round trip, the
image check that every library entry point runs on its inputs, and the CSV writer.

Grayscale images are plain (H, W) float64 arrays with values in [0, 1];
RGB images are (H, W, 3). PNM is the only supported container: it is
bit-exact and dependency free.
"""

import re

import numpy as np

from .errors import PnmParseError, ShapeError

_KB = 0.114
_KR = 0.299


# Whitespace runs and '#' comments, then the token: an empty token is the end.
_TOKEN = re.compile(rb"(?:\s+|#[^\n]*)*(\S*)")


def _read_token(buf, pos):
    """Return (token, next position) of the header token at or after pos."""
    m = _TOKEN.match(buf, pos)
    if not m[1]:
        raise PnmParseError("unexpected end of header", m.end())
    return m[1], m.end()


def load_pnm(path):
    """Load a binary PGM (P5) or PPM (P6) file.

    Returns an (H, W) array for P5 or an (H, W, 3) array for P6, scaled to
    [0, 1] by the file's maxval. 16-bit samples are big-endian per the PNM format.
    """
    with open(path, "rb") as fh:
        buf = fh.read()
    magic, pos = _read_token(buf, 0)
    if magic not in (b"P5", b"P6"):
        raise PnmParseError(f"bad magic {magic!r}, expected P5 or P6", 0)
    fields = []
    for _ in range(3):
        tok, pos = _read_token(buf, pos)
        if not tok.isdigit():
            raise PnmParseError(f"non-numeric header field {tok!r}", pos - len(tok))
        fields.append(int(tok))
    width, height, maxval = fields
    if maxval not in (255, 65535):
        raise PnmParseError(f"unsupported maxval {maxval}", pos)
    if width <= 0 or height <= 0:
        raise PnmParseError(f"invalid dimensions {width}x{height}", pos)
    if pos >= len(buf) or not buf[pos : pos + 1].isspace():
        raise PnmParseError("missing single whitespace after maxval", pos)
    pos += 1
    channels = 3 if magic == b"P6" else 1
    dtype = np.dtype(">u2") if maxval == 65535 else np.dtype("u1")
    count = width * height * channels
    need = count * dtype.itemsize
    payload = buf[pos : pos + need]
    if len(payload) < need:
        raise PnmParseError(
            f"truncated payload: need {need} bytes, have {len(buf) - pos}", pos
        )
    data = np.frombuffer(payload, dtype=dtype).astype(np.float64) / maxval
    if channels == 1:
        return data.reshape(height, width)
    return data.reshape(height, width, 3)


def save_pnm(image, path):
    """Write an (H, W) array as P5 or an (H, W, 3) array as P6, maxval 255.

    Quantization is round-half-away-from-zero so that save(load(x)) is the
    identity on 8-bit files. An empty image raises ShapeError and a NaN or an
    Inf ValueError, as in check_images.
    """
    img = np.asarray(image, dtype=np.float64)
    if img.ndim == 2:
        magic = b"P5"
    elif img.ndim == 3 and img.shape[2] == 3:
        magic = b"P6"
    else:
        raise ShapeError(f"expected (H,W) or (H,W,3) image, got {img.shape}")
    if img.size == 0:
        raise ShapeError(f"image must be non-empty, got shape {img.shape}")
    if not np.isfinite(img).all():
        raise ValueError("image holds NaN or Inf values")
    q = np.floor(np.clip(img, 0.0, 1.0) * 255.0 + 0.5).astype(np.uint8)
    h, w = img.shape[:2]
    with open(path, "wb") as fh:
        fh.write(magic + b"\n%d %d\n255\n" % (w, h))
        fh.write(q.tobytes())


def rgb_to_ycbcr(rgb):
    """Full-range BT.601 forward transform of an (H, W, 3) image with channels
    in [0, 1] to one (H, W, 3) array of the planes Y in [0, 1] and Cb, Cr in
    [-0.5, 0.5]."""
    r, g, b = rgb[..., 0], rgb[..., 1], rgb[..., 2]
    y = _KR * r + (1.0 - _KR - _KB) * g + _KB * b
    cb = 0.5 * (b - y) / (1.0 - _KB)
    cr = 0.5 * (r - y) / (1.0 - _KR)
    return np.stack([y, cb, cr], axis=-1)


def ycbcr_to_rgb(ycbcr):
    """Algebraic inverse of rgb_to_ycbcr on an (H, W, 3) array of Y, Cb, Cr;
    the result is clamped to [0, 1]."""
    y, cb, cr = np.moveaxis(ycbcr, -1, 0)
    r = y + 2.0 * (1.0 - _KR) * cr
    b = y + 2.0 * (1.0 - _KB) * cb
    g = (y - _KR * r - _KB * b) / (1.0 - _KR - _KB)
    return np.clip(np.stack([r, g, b], axis=-1), 0.0, 1.0)


def check_images(*images):
    """Return the images as float64 arrays.

    Raises ShapeError unless all share one non-empty (H, W) shape and
    ValueError if any holds a NaN or an Inf.
    """
    out = [np.asarray(img, dtype=np.float64) for img in images]
    shapes = [img.shape for img in out]
    if out[0].ndim != 2 or len(set(shapes)) != 1:
        raise ShapeError(f"expected (H,W) images of one shape, got {shapes}")
    if out[0].size == 0:
        raise ShapeError(f"images must be non-empty, got shape {shapes[0]}")
    for img in out:
        if not np.isfinite(img).all():
            raise ValueError("image holds NaN or Inf values")
    return out


def csv_text(header, rows):
    """The header line, then each row's cells joined by commas, strings as
    they are and numbers in '.9g'; every line ends in a newline."""
    lines = [",".join(v if isinstance(v, str) else format(v, ".9g") for v in row) for row in rows]
    return "\n".join([header, *lines]) + "\n"
