"""Network assembly: shallow feature extractor, N cascaded frequency-enhance
blocks, the fusion/reconstruction head, and weight (de)serialization.

Weights live in a flat name -> float64 array map validated against the schema
implied by the configuration. The binary container is versioned, little-endian
and CRC-protected, and it records the whole NetConfig next to the tensors, so
load_weights returns a checked (weights, cfg) pair (see save_weights).
"""

import math
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .attention import (
    AttentionParams,
    CbamParams,
    cross_modal_attention,
    frequency_interaction,
)
from .errors import FormatError, ShapeError
from .imageio import check_images, from_tensor, to_tensor
from .wavelet import dwt2, iwt2

MAGIC = b"WFW1"
VERSION = 2
SLOPE = 0.1  # negative slope of every Leaky-ReLU
SIZES = ("channels", "blocks", "window", "heads", "reduction", "mlp_ratio")


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
            raise ShapeError(
                f"channels {self.channels} not divisible by heads {self.heads}"
            )
        if self.channels % self.reduction:
            raise ShapeError(
                f"channels {self.channels} not divisible by reduction "
                f"{self.reduction}"
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
    unknown = sorted(set(weights) - set(schema))
    if unknown:
        raise FormatError(f"unknown weight names: {unknown}")
    missing = sorted(set(schema) - set(weights))
    if missing:
        raise FormatError(f"missing weight names: {missing}")
    for name, shape in schema.items():
        if weights[name].shape != shape:
            raise FormatError(
                f"weight {name} has shape {weights[name].shape}, expected {shape}"
            )
        if not np.isfinite(weights[name]).all():
            raise FormatError(f"weight {name} has non-finite values")


def init_weights(cfg, seed):
    """Seeded uniform +-1/sqrt(fan_in) init; layer-norm gains 1, shifts 0."""
    rng = np.random.default_rng(seed)
    weights = {}
    for name, shape in sorted(weight_schema(cfg).items()):
        if name.endswith(".gain"):
            weights[name] = np.ones(shape)
        elif name.endswith(".shift"):
            weights[name] = np.zeros(shape)
        elif name.endswith(("bias", ".sa_b", ".b1", ".b2")):
            weights[name] = np.zeros(shape)
        else:
            if len(shape) == 4:
                fan_in = shape[1] * shape[2] * shape[3]
            else:
                fan_in = shape[1]
            bound = 1.0 / np.sqrt(fan_in)
            weights[name] = rng.uniform(-bound, bound, size=shape)
    return weights


def zero_weights(cfg):
    """All-zero parameters except unit layer-norm gains; makes every enhance
    block the exact identity on its input (the residual-only path)."""
    weights = {}
    for name, shape in weight_schema(cfg).items():
        if name.endswith(".gain"):
            weights[name] = np.ones(shape)
        else:
            weights[name] = np.zeros(shape)
    return weights


def feature_extract(x, weights, branch):
    """Three 3x3 convs (1 -> C -> C -> C), Leaky-ReLU after each."""
    for layer in (1, 2, 3):
        x = T.conv2d(
            x, weights[f"fe{branch}.{layer}.weight"], weights[f"fe{branch}.{layer}.bias"]
        )
        x = T.leaky_relu(x, SLOPE)
    return x


def _band_attention(x1, x2, index, band, weights, cfg):
    """Cross-modal attention over one band of block `index`; stream m uses the
    block{index}.s{m}.attn.{band} projections. Odd blocks shift the windows by
    half a window."""
    p1, p2 = (
        AttentionParams(
            *(weights[f"block{index}.s{m}.attn.{band}.{w}"] for w in ("wq", "wk", "wv", "wo")),
            heads=cfg.heads,
        )
        for m in (1, 2)
    )
    shift = (index % 2) * (cfg.window // 2)
    return cross_modal_attention(x1, x2, p1, p2, cfg.window, shift, cfg.cross_route)


def _cbam_params(weights, prefix):
    return CbamParams(
        ca_w1=weights[f"{prefix}.ca_w1"],
        ca_w2=weights[f"{prefix}.ca_w2"],
        sa_w=weights[f"{prefix}.sa_w"],
        sa_b=weights[f"{prefix}.sa_b"],
    )


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

    LN -> DWT -> cross-modal band attention -> channel/spatial gating with the
    detail-band swap -> IWT + residual -> LN -> token MLP + residual.
    Odd or non-window-aligned inputs are mirror-padded and cropped back.
    """
    h, wd = f1.shape[2:]
    prefixes = [f"block{index}.s{m}" for m in (1, 2)]

    padded, subs = [], []
    for f, p in zip((f1, f2), prefixes):
        fp = _pad_to_multiple(f, 2 * cfg.window)
        padded.append(fp)
        subs.append(dwt2(T.layer_norm(fp, weights[f"{p}.ln1.gain"], weights[f"{p}.ln1.shift"])))
    lows = _band_attention(subs[0][0], subs[1][0], index, "low", weights, cfg)
    # The detail bands as one (3B, C, h, w) batch [LH; HL; HH]: a view, no copy.
    highs = _band_attention(
        *(s[1:].reshape(-1, *s.shape[2:]) for s in subs), index, "high", weights, cfg
    )
    fres = frequency_interaction(
        *lows, *highs, *(_cbam_params(weights, f"{p}.cbam") for p in prefixes)
    )

    outs = []
    for (low, high), fp, p in zip(fres, padded, prefixes):
        fprime = iwt2((low, *high.reshape(3, *low.shape))) + fp
        x = T.layer_norm(fprime, weights[f"{p}.ln2.gain"], weights[f"{p}.ln2.shift"])
        x = x.reshape(*x.shape[:2], -1)  # (B, C, H*W): the MLP mixes channels only
        hid = T.leaky_relu(weights[f"{p}.mlp.w1"] @ x + weights[f"{p}.mlp.b1"][:, None], SLOPE)
        mlp_out = weights[f"{p}.mlp.w2"] @ hid + weights[f"{p}.mlp.b2"][:, None]
        outs.append((mlp_out.reshape(fprime.shape) + fprime)[:, :, :h, :wd])
    return tuple(outs)


def forward(i1, i2, weights, cfg):
    """Fuse two grayscale images into one; deterministic for fixed weights."""
    i1, i2 = check_images(i1, i2)
    validate_weights(weights, cfg)
    f1, f2 = (feature_extract(to_tensor(img), weights, m) for m, img in ((1, i1), (2, i2)))
    for i in range(cfg.blocks):
        f1, f2 = enhance_block(f1, f2, i, weights, cfg)
    x = np.concatenate([f1, f2], axis=1)
    for layer in (1, 2, 3):
        x = T.conv2d(x, weights[f"fuse.{layer}.weight"], weights[f"fuse.{layer}.bias"])
        if layer < 3:
            x = T.leaky_relu(x, SLOPE)
    return from_tensor(x)


def save_weights(weights, cfg, path):
    """Binary container: magic, u32 version, the config (six u32 sizes in
    SIZES order, then a u8 length and the UTF-8 route), u32 tensor count, a
    name/shape table, f64 little-endian payloads in table order, trailing
    CRC32 of everything before it."""
    names = sorted(weights)
    route = cfg.cross_route.encode("utf-8")
    body = bytearray(MAGIC)
    body += struct.pack("<7I", VERSION, *(getattr(cfg, f) for f in SIZES))
    body += struct.pack("<B", len(route)) + route
    body += struct.pack("<I", len(names))
    for name in names:
        arr = weights[name]
        enc = name.encode("utf-8")
        body += struct.pack("<H", len(enc)) + enc
        body += struct.pack("<B", arr.ndim)
        body += struct.pack("<%dI" % arr.ndim, *arr.shape)
    for name in names:
        body += np.ascontiguousarray(weights[name], dtype="<f8").tobytes()
    body += struct.pack("<I", zlib.crc32(body))
    with open(path, "wb") as fh:
        fh.write(body)


def load_weights(path):
    """Read a weights file as (weights, cfg): the tensors and the NetConfig
    it records, checked against each other. Raises FormatError otherwise."""
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
        raise FormatError(
            f"unsupported weights version {version}, expected {VERSION}: "
            "re-create the file with `wavefuse init-weights`"
        )
    try:
        sizes = struct.unpack_from("<6I", body, 8)
        (rlen,) = struct.unpack_from("<B", body, 32)
        route = body[33 : 33 + rlen].decode("utf-8")
        (count,) = struct.unpack_from("<I", body, 33 + rlen)
        pos = 37 + rlen
        table = []
        for _ in range(count):
            (nlen,) = struct.unpack_from("<H", body, pos)
            name = body[pos + 2 : pos + 2 + nlen].decode("utf-8")
            (rank,) = struct.unpack_from("<B", body, pos + 2 + nlen)
            pos += 3 + nlen
            table.append((name, struct.unpack_from("<%dI" % rank, body, pos)))
            pos += 4 * rank
        weights = {}
        for name, shape in table:
            end = pos + 8 * math.prod(shape)
            if end > len(body):
                raise FormatError(f"truncated payload for tensor {name}")
            weights[name] = np.frombuffer(body[pos:end], "<f8").astype(np.float64).reshape(shape)
            pos = end
        cfg = NetConfig(**dict(zip(SIZES, sizes)), cross_route=route)
    except (struct.error, ValueError, ShapeError) as exc:
        raise FormatError(f"malformed weights file: {exc}") from exc
    if pos != len(body):
        raise FormatError(f"{len(body) - pos} trailing bytes after payloads")
    if len(weights) != count:
        raise FormatError(f"{count - len(weights)} duplicate tensor names in table")
    if cfg.blocks > count:  # bounds the schema validate_weights builds
        raise FormatError(f"{cfg.blocks} blocks recorded but only {count} tensors")
    validate_weights(weights, cfg)
    return weights, cfg
