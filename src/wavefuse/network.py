"""Network assembly: shallow feature extractor, N cascaded frequency-enhance
blocks, the fusion/reconstruction head, and weight (de)serialization.

Weights live in a flat name -> float64 array map validated against the schema
implied by the configuration. The binary container is versioned, little-endian
and CRC-protected, and it records the whole NetConfig next to the tensors, so
load_weights returns a checked (weights, cfg) pair (see _header).
"""

import math
import struct
import zlib
from dataclasses import dataclass, replace

import numpy as np

from . import tensor as T
from .attention import cross_modal_attention, frequency_interaction, window_partition
from .errors import FormatError, ShapeError
from .imageio import check_images
from .wavelet import dwt2, iwt2

MAGIC = b"WFW1"
VERSION = 2
SLOPE = 0.1  # negative slope of every Leaky-ReLU
SIZES = ("channels", "blocks", "window", "heads", "reduction", "mlp_ratio")
_REMAKE = "re-create the file with `wavefuse init-weights`"


@dataclass(frozen=True)
class NetConfig:
    channels: int = 16
    blocks: int = 4
    window: int = 8
    heads: int = 4
    reduction: int = 4
    mlp_ratio: int = 2
    cross_route: str = "qv"  # "qv": queries/values cross modalities, "k": keys

    def __post_init__(self):
        for name in SIZES:
            if getattr(self, name) < 1:
                raise ShapeError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.channels % self.heads:
            raise ShapeError(f"channels {self.channels} not divisible by heads {self.heads}")
        if self.channels % self.reduction:
            raise ShapeError(
                f"channels {self.channels} not divisible by reduction {self.reduction}"
            )
        if self.cross_route not in ("qv", "k"):
            raise ValueError(f"unknown cross_route {self.cross_route!r}")


def weight_schema(cfg):
    """Map every parameter name to its required shape."""
    c, r, mr = cfg.channels, cfg.reduction, cfg.mlp_ratio
    schema = {}
    for m in (1, 2):
        for layer, cin in ((1, 1), (2, c), (3, c)):
            schema[f"fe{m}.{layer}.weight"] = (c, cin, 3, 3)
            schema[f"fe{m}.{layer}.bias"] = (c,)
    for i in range(cfg.blocks):
        for m in (1, 2):
            p = f"block{i}.s{m}"
            schema[f"{p}.ln1.gain"] = (c,)
            schema[f"{p}.ln1.shift"] = (c,)
            for band in ("low", "high"):
                for proj in ("wq", "wk", "wv", "wo"):
                    schema[f"{p}.attn.{band}.{proj}"] = (c, c)
            schema[f"{p}.cbam.ca_w1"] = (c // r, c)
            schema[f"{p}.cbam.ca_w2"] = (c, c // r)
            schema[f"{p}.cbam.sa_w"] = (1, 2, 7, 7)
            schema[f"{p}.cbam.sa_b"] = (1,)
            schema[f"{p}.ln2.gain"] = (c,)
            schema[f"{p}.ln2.shift"] = (c,)
            schema[f"{p}.mlp.w1"] = (mr * c, c)
            schema[f"{p}.mlp.b1"] = (mr * c,)
            schema[f"{p}.mlp.w2"] = (c, mr * c)
            schema[f"{p}.mlp.b2"] = (c,)
    for layer, cin, cout in ((1, 2 * c, c), (2, c, c), (3, c, 1)):
        schema[f"fuse.{layer}.weight"] = (cout, cin, 3, 3)
        schema[f"fuse.{layer}.bias"] = (cout,)
    return schema


def validate_weights(weights, cfg):
    """Reject unknown, missing, mis-shaped or non-finite entries."""
    schema = weight_schema(cfg)
    for kind, bad in (("unknown", weights.keys() - schema), ("missing", schema.keys() - weights)):
        if bad:
            raise FormatError(f"{kind} weight names: {sorted(bad)}")
    for name, shape in schema.items():
        if weights[name].shape != shape:
            raise FormatError(f"weight {name} has shape {weights[name].shape}, expected {shape}")
        if not np.isfinite(weights[name]).all():
            raise FormatError(f"weight {name} has non-finite values")


def init_weights(cfg, seed):
    """Seeded uniform +-1/sqrt(fan_in) init of every matrix and kernel; of the
    rank-1 tensors, the layer-norm gains are 1 and the biases and shifts 0."""
    rng = np.random.default_rng(seed)
    weights = {}
    for name, shape in sorted(weight_schema(cfg).items()):
        if len(shape) == 1:
            weights[name] = np.ones(shape) if name.endswith(".gain") else np.zeros(shape)
        else:
            bound = 1.0 / np.sqrt(math.prod(shape[1:]))  # 1 / sqrt(fan_in)
            weights[name] = rng.uniform(-bound, bound, size=shape)
    return weights


def feature_extract(x, weights, branch):
    """Three 3x3 convs (1 -> C -> C -> C), Leaky-ReLU after each."""
    for layer in (1, 2, 3):
        p = f"fe{branch}.{layer}"
        x = T.conv2d(x, weights[f"{p}.weight"], weights[f"{p}.bias"])
        x = T.leaky_relu(x, SLOPE)
    return x


def _pad_to_multiple(x, mult):
    """Mirror-pad bottom/right so both spatial dims are multiples of mult."""
    _, _, h, w = x.shape
    ph = (-h) % mult
    pw = (-w) % mult
    if ph == 0 and pw == 0:
        return x
    return np.pad(x, ((0, 0), (0, 0), (0, ph), (0, pw)), mode="symmetric")


def enhance_block(f1, f2, index, weights, cfg):
    """One frequency-enhancement block for both modality streams.

    LN -> mirror pad -> DWT -> cross-modal band attention -> channel/spatial
    gating with the detail-band swap -> IWT of the bands under the crop ->
    crop + residual -> LN -> token MLP + residual. Unaligned inputs are padded
    after the per-pixel LN and cropped at the IWT (odd sides keep one row or
    column there), so no padded band outlives it. Odd blocks shift the windows
    by half a window. Intermediates die once consumed.
    """
    h, wd = f1.shape[2:]
    shift = (index % 2) * (cfg.window // 2)

    def params(name, keys):  # both streams' block{index}.s{m}.{name}.{key} weights, in keys' order
        return [[weights[f"block{index}.s{m}.{name}.{k}"] for k in keys.split()] for m in (1, 2)]

    lows, highs = [], []
    for f, ln in zip((f1, f2), params("ln1", "gain shift")):
        s = dwt2(_pad_to_multiple(T.layer_norm(f, *ln), 2 * cfg.window))
        # Tokens are copies, so the bands die here; the details are one batch [LH; HL; HH].
        lows.append(window_partition(s[0], cfg.window, shift))
        highs.append(window_partition(s[1:].reshape(-1, *s.shape[2:]), cfg.window, shift))
    del s
    # Rebound, each band's tokens die as its attention returns.
    qkvo = "wq wk wv wo"
    lows = cross_modal_attention(*lows, *params("attn.low", qkvo), cfg.heads, cfg.cross_route)
    highs = cross_modal_attention(*highs, *params("attn.high", qkvo), cfg.heads, cfg.cross_route)
    streams = list(frequency_interaction(*lows, *highs, *params("cbam", "ca_w1 ca_w2 sa_w sa_b")))
    del lows, highs

    outs = []
    mlps = zip((f1, f2), params("ln2", "gain shift"), params("mlp", "w1 b1 w2 b2"))
    for f, ln, (w1, b1, w2, b2) in mlps:
        low, high = streams.pop(0)
        under = (..., slice(-(-h // 2)), slice(-(-wd // 2)))  # ceil(h/2) x ceil(w/2)
        fprime = iwt2([b[under] for b in (low, *high.reshape(3, *low.shape))])[..., :h, :wd]
        del low, high
        fprime += f
        x = T.layer_norm(fprime, *ln)
        # (B, C, H*W): the MLP mixes channels only. Rebinding x frees each input.
        x = w1 @ x.reshape(*x.shape[:2], -1)
        x += b1[:, None]
        x = w2 @ T.leaky_relu(x, SLOPE)
        x += b2[:, None]
        x = x.reshape(fprime.shape)
        x += fprime
        outs.append(x)
    return tuple(outs)


def peak_bytes(h, w, cfg):
    """Estimated peak bytes forward allocates on an h x w pair: the two block
    inputs, plus the larger of two stages, in C channels. At the second
    high-band logits, per padded pixel: detail tokens (1.5C), low-band outputs
    (0.5C), first stream's output (0.75C), q and k (1.5C), logits (0.75 heads
    window²). In the second token MLP, per pixel of the h x w crop: the first
    output and fprime (2C), and the hidden layer and one copy (2 mlp_ratio C)."""
    c, mult = cfg.channels, 2 * cfg.window
    padded = math.ceil(h / mult) * mult * math.ceil(w / mult) * mult
    attention = padded * (c * (1.5 + 0.5 + 0.75 + 1.5) + 0.75 * cfg.heads * cfg.window**2)
    return int(8 * (2 * c * h * w + max(attention, h * w * c * (2 + 2 * cfg.mlp_ratio))))


def forward(i1, i2, weights, cfg):
    """Fuse two grayscale images into one; deterministic for fixed weights.
    BLAS runs on one thread inside (tensor._one_blas_thread), so with numpy's
    bundled OpenBLAS the bits do not depend on the BLAS thread count."""
    i1, i2 = check_images(i1, i2)
    validate_weights(weights, cfg)
    with T._one_blas_thread():
        f1, f2 = (feature_extract(img[None, None], weights, m) for m, img in ((1, i1), (2, i2)))
        for i in range(cfg.blocks):
            f1, f2 = enhance_block(f1, f2, i, weights, cfg)
        x = np.concatenate([f1, f2], axis=1)
        for layer in (1, 2, 3):
            x = T.conv2d(x, weights[f"fuse.{layer}.weight"], weights[f"fuse.{layer}.bias"])
            if layer < 3:
                x = T.leaky_relu(x, SLOPE)
    return np.clip(x[0, 0], 0.0, 1.0)


def _header(cfg, shapes):
    """The bytes before the payloads: magic, u32 version, the config (six u32
    sizes in SIZES order, a u8 length and the UTF-8 route), u32 tensor count,
    and per name in sorted order a u16 length, the UTF-8 name, u8 rank, u32 dims."""
    route = cfg.cross_route.encode("utf-8")
    head = bytearray(MAGIC)
    head += struct.pack("<7IB", VERSION, *(getattr(cfg, f) for f in SIZES), len(route))
    head += route + struct.pack("<I", len(shapes))
    for name in sorted(shapes):
        enc, shape = name.encode("utf-8"), shapes[name]
        head += struct.pack(f"<H{len(enc)}sB{len(shape)}I", len(enc), enc, len(shape), *shape)
    return head


def save_weights(weights, cfg, path):
    """_header's bytes for cfg's schema, the f64 little-endian payloads in
    table order, and a trailing CRC32 of everything before it. Weights that
    validate_weights rejects raise FormatError before path is opened."""
    validate_weights(weights, cfg)
    body = _header(cfg, weight_schema(cfg))
    for name in sorted(weights):
        body += np.ascontiguousarray(weights[name], dtype="<f8").tobytes()
    body += struct.pack("<I", zlib.crc32(body))
    with open(path, "wb") as fh:
        fh.write(body)


def _compare_table(body, head):
    if body[: len(head)] != head:
        at = next((i for i, (x, y) in enumerate(zip(body, head)) if x != y), len(body))
        raise FormatError(f"weights table differs from its config's schema at byte {at}: {_REMAKE}")


def load_weights(path):
    """Read a weights file as (weights, cfg): the NetConfig it records and
    the tensors after that config's _header. Raises FormatError otherwise."""
    with open(path, "rb") as fh:
        buf = fh.read()
    if len(buf) < 12:
        raise FormatError(f"weights file truncated: {len(buf)} bytes")
    if buf[:4] != MAGIC:
        raise FormatError(f"bad magic {buf[:4]!r}, expected {MAGIC!r}")
    body = buf[:-4]
    if zlib.crc32(body) != struct.unpack("<I", buf[-4:])[0]:
        raise FormatError("CRC mismatch: weights file corrupted")
    (version,) = struct.unpack_from("<I", body, 4)
    if version != VERSION:
        raise FormatError(f"unsupported weights version {version}, expected {VERSION}: {_REMAKE}")
    try:
        *sizes, rlen = struct.unpack_from("<6IB", body, 8)
        route = body[33 : 33 + rlen].decode("utf-8")
        (count,) = struct.unpack_from("<I", body, 33 + rlen)
        cfg = NetConfig(**dict(zip(SIZES, sizes)), cross_route=route)
        # Each tensor takes at least a 3-byte table entry and an 8-byte payload.
        if not cfg.blocks <= count <= len(body) // 11:
            raise ValueError(f"{cfg.blocks} blocks and {count} tensors in {len(body)} bytes")
        # That bound still lets the schema hold 40 tensors per counted one, so
        # the count is compared with the schema's, taken from its size at one
        # and two blocks, before the schema is built.
        one, two = (len(weight_schema(replace(cfg, blocks=n))) for n in (1, 2))
        want = struct.pack("<I", one + (cfg.blocks - 1) * (two - one))
        _compare_table(body, body[: 33 + rlen] + want)
        schema = weight_schema(cfg)
        head = _header(cfg, schema)  # raises struct.error on a dimension past u32
    except (struct.error, ValueError, ShapeError) as exc:
        raise FormatError(f"malformed weights file: {exc}") from exc
    _compare_table(body, head)
    names = sorted(schema)
    sizes = [math.prod(schema[name]) for name in names]
    if len(body) != len(head) + 8 * sum(sizes):
        raise FormatError(f"{len(body) - len(head)} payload bytes, expected {8 * sum(sizes)}")
    flat = np.frombuffer(body, "<f8", offset=len(head)).astype(np.float64)
    parts = np.split(flat, np.cumsum(sizes)[:-1])
    weights = {name: part.reshape(schema[name]) for name, part in zip(names, parts)}
    validate_weights(weights, cfg)
    return weights, cfg
