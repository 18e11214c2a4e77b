"""Command-line interface: fuse, fuse-opt, decompose, analyze-bands, metrics,
gradcheck, init-weights.

Exit codes: 0 success, 2 input/validation error, too little memory for fuse,
fuse-opt, metrics or analyze-bands, or a MemoryError in any command, 3
weights/format error, 4 internal invariant violation.
"""

import argparse
import dataclasses
import os
import sys
from pathlib import Path

import numpy as np

from . import fusionopt, losses, metrics, network
from .errors import FormatError, PnmParseError, ShapeError, WavefuseError
from .imageio import load_pnm, rgb_to_ycbcr, save_pnm, ycbcr_to_rgb
from .wavelet import dwt2, save_bands

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_FORMAT = 3
EXIT_INTERNAL = 4


def _load_luma(path):
    """Load an image and return (luma plane, (H, W, 3) YCbCr array or None)."""
    img = load_pnm(path)
    if img.ndim == 3:
        ycc = rgb_to_ycbcr(img)
        return ycc[..., 0], ycc
    return img, None


def _load_pair(args):
    """Load the two input lumas and the chroma that --color-from names."""
    ya, cca = _load_luma(args.input_a)
    yb, ccb = _load_luma(args.input_b)
    return ya, yb, cca if args.color_from == "a" else ccb


def _load_triple(args):
    """The lumas of the two sources and the fused image."""
    return [_load_luma(path)[0] for path in (args.input_a, args.input_b, args.fused)]


def smooth_image(rng, size=32):
    """Seeded smooth [0.1, 0.9] image; keeps gradcheck away from L1 kinks."""
    g = losses.gaussian_window(size=7, sigma=2.0)
    return np.clip(losses.filt(rng.uniform(0, 1, (size, size)), g) * 0.8 + 0.1, 0, 1)


def _from_args(cls, args, **given):
    """Build config dataclass `cls` from the parsed flags named after its
    fields; `given` supplies the fields that have no flag."""
    flags = {f.name: getattr(args, f.name) for f in dataclasses.fields(cls) if f.name not in given}
    return cls(**flags, **given)


def _add_field_flags(p, cls, specs):
    """One flag per (field, help[, flag]) spec: its dest is the field, its
    default and type come from `cls`, and its spelling defaults to --field."""
    for field, text, *flag in specs:
        default = getattr(cls, field)
        p.add_argument(
            *(flag or ["--" + field.replace("_", "-")]),
            dest=field,
            type=type(default),
            default=default,
            help=f"{text} (default %(default)s)",
        )


# init-weights records these in the weights file, where fuse reads them.
NET_FLAGS = (
    ("channels", "feature channels"),
    ("blocks", "enhance block count"),
    ("reduction", "channel-gate reduction"),
    ("mlp_ratio", "MLP expansion ratio"),
    ("window", "attention window size"),
    ("heads", "attention heads"),
    ("cross_route", "which projections cross modalities in band attention, qv or k", "--route"),
)
LOSS_FLAGS = (
    ("alpha", "intensity term weight"),
    ("beta", "texture term weight"),
    ("gamma", "SSIM term weight"),
    ("alpha1", "intensity pull toward a"),
    ("alpha2", "intensity pull toward b"),
    ("gamma1", "SSIM weight toward a"),
    ("gamma2", "SSIM weight toward b"),
)
OPT_FLAGS = (
    ("max_iters", "max iterations", "--iters"),
    ("step", "initial step size"),
    ("tolerance", "relative loss-change stopping tolerance", "--tol"),
    ("init", "initial fused image: average, source_a or source_b"),
)


def _add_pair_args(p):
    """The two inputs, the output and the chroma source of fuse and fuse-opt."""
    p.add_argument("input_a")
    p.add_argument("input_b")
    p.add_argument("-o", "--output", required=True, help="fused image output path")
    p.add_argument(
        "--color-from",
        choices=("a", "b"),
        default="a",
        help="which input supplies chroma for RGB output (default %(default)s)",
    )


def _emit_color(fused_y, chroma, out_path):
    if chroma is not None:
        fused_y = ycbcr_to_rgb(np.dstack([fused_y, chroma[..., 1:]]))
    save_pnm(fused_y, out_path)


def _fields(path):
    """The "name value" lines of memory.stat or /proc/meminfo, as ints."""
    return {k.rstrip(":"): int(v) for k, v, *_ in map(str.split, path.read_text().splitlines())}


def _headroom():
    """Bytes this process can still allocate, or None: the smallest readable of
    the soft address-space rlimit less the address-space size; the cgroup v2
    memory.max less the group's use net of its reclaimable inactive file cache;
    MemAvailable."""
    rooms = []
    try:
        import resource  # not on Windows

        soft = resource.getrlimit(resource.RLIMIT_AS)[0]
        if soft != resource.RLIM_INFINITY:
            size = int(Path("/proc/self/statm").read_text().split()[0])
            rooms.append(soft - size * os.sysconf("SC_PAGE_SIZE"))
    except (ImportError, OSError, ValueError):
        pass  # no resource module or no statm
    try:
        groups = Path("/proc/self/cgroup").read_text().splitlines()
        cg = Path("/sys/fs/cgroup" + next(g[3:] for g in groups if g.startswith("0::")))
        cache = _fields(cg / "memory.stat")["inactive_file"]
        used = int((cg / "memory.current").read_text()) - cache
        rooms.append(int((cg / "memory.max").read_text()) - used)
    except (OSError, StopIteration, ValueError, KeyError):
        pass  # no v2 group, or a memory.max of "max"
    try:
        rooms.append(_fields(Path("/proc/meminfo"))["MemAvailable"] * 1024)
    except (OSError, ValueError, KeyError):
        pass
    return min(rooms, default=None)


def _size(n):
    """n bytes in MiB to one decimal, or in whole KiB below 1 MiB."""
    return f"{n / 2**20:.1f} MiB" if n >= 2**20 else f"{n / 2**10:.0f} KiB"


def _check_memory(verb, shape, peak):
    """Turn a library's estimated `peak` bytes into what the command may add to
    this process's RSS, and return that need, or refuse the job, as an input
    error, when the need exceeds what this process can still allocate. The
    need adds a sixteenth for the allocations the estimates leave out and
    2.25 MiB for the library code and buffers a fresh process pages in."""
    need = peak + peak // 16 + 9 * 2**18
    room = _headroom()
    if room is not None and need > room:
        raise ValueError(
            f"{verb} {shape[0]}x{shape[1]} needs about {_size(need)}, more than "
            f"the {_size(room)} this process can still allocate"
        )
    return need


def cmd_fuse(args):
    ya, yb, chroma = _load_pair(args)
    weights, cfg = network.load_weights(args.weights)
    # malloc keeps the forward's freed activations in the heap (the package
    # raises its thresholds at import), so its RSS grows past peak_bytes: by
    # 1.22 to 1.35 times at 64² to 512² in a fresh process on one or two BLAS
    # threads.
    _check_memory("fusing", ya.shape, network.peak_bytes(*ya.shape, cfg) * 3 // 2)
    _emit_color(network.forward(ya, yb, weights, cfg), chroma, args.output)
    return EXIT_OK


def cmd_fuse_opt(args):
    ya, yb, chroma = _load_pair(args)
    cfg = _from_args(fusionopt.OptConfig, args, weights=_from_args(losses.LossWeights, args))
    _check_memory("optimizing", ya.shape, fusionopt.peak_bytes(*ya.shape))
    fused, trace = fusionopt.optimize(ya, yb, cfg)
    _emit_color(fused, chroma, args.output)
    if args.trace:
        with open(args.trace, "w", newline="") as fh:
            fh.write(trace.csv())
    print(
        f"iterations={trace.iterations} stop={trace.stop_reason} "
        f"loss={format(trace.reports[-1].total, '.9g')}"
    )
    return EXIT_OK


def cmd_decompose(args):
    y, _ = _load_luma(args.input)
    if y.shape[0] % 2 or y.shape[1] % 2:
        raise ShapeError(f"decompose needs even image sides, got {y.shape[0]}x{y.shape[1]}")
    bands = dwt2(y[None, None])
    os.makedirs(args.out_dir, exist_ok=True)
    stem = os.path.splitext(os.path.basename(args.input))[0]
    # LL spans [0, 2]: halve for display. Detail bands are signed: offset to
    # mid-gray. The .bands file alongside keeps the exact values.
    ll, *details = bands[:, 0, 0]
    save_pnm(ll / 2.0, os.path.join(args.out_dir, f"{stem}_ll.pgm"))
    for name, plane in zip(("lh", "hl", "hh"), details):
        save_pnm(plane / 2.0 + 0.5, os.path.join(args.out_dir, f"{stem}_{name}.pgm"))
    save_bands(bands, os.path.join(args.out_dir, f"{stem}.bands"))
    return EXIT_OK


def cmd_metrics(args):
    a, b, f = _load_triple(args)
    _check_memory("scoring", a.shape, metrics.peak_bytes(*a.shape))
    sys.stdout.write(metrics.metrics_csv(metrics.score(a, b, f)))
    return EXIT_OK


def cmd_analyze_bands(args):
    a, b, f = _load_triple(args)
    _check_memory("studying", a.shape, metrics.study_peak_bytes(*a.shape))
    text = metrics.study_csv(metrics.band_correlation_study(a, b, f))
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_gradcheck(args):
    n = args.size  # the check runs before the three n x n images exist, so it counts them
    if n < 1:
        raise ValueError(f"--size must be at least 1, got {n}")
    # numpy.random loads on first use, about 6 MiB of RSS in a fresh process:
    # loaded before the check, it is in the room the check reads, not the need.
    rng = np.random.default_rng(args.seed)
    _check_memory("gradient-checking", (n, n), losses.gradcheck_peak_bytes(n, n) + 3 * 8 * n * n)
    f, a, b = (smooth_image(rng, n) for _ in range(3))
    try:
        err = losses.gradcheck(f, a, b, seed=args.seed)
    except ValueError as exc:  # too few kink-free pixels: 16 has enough on seeds 0-59
        raise ValueError(f"--size {n} is too small: {exc}; use a larger --size, such as 16")
    print(f"max relative gradient error: {err:.3e}")
    return EXIT_OK if err < 1e-4 else EXIT_INTERNAL


def cmd_init_weights(args):
    cfg = _from_args(network.NetConfig, args)
    network.save_weights(network.init_weights(cfg, args.seed), cfg, args.output)
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="wavefuse",
        description="Wavelet-attention image fusion: fuse image pairs, "
        "optimize fused images variationally, and score fusion quality.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fuse", help="fuse two images with the network")
    _add_pair_args(p)
    p.add_argument("--weights", required=True, help="weights file path")
    p.set_defaults(func=cmd_fuse)

    p = sub.add_parser("fuse-opt", help="fuse by direct loss minimization")
    _add_pair_args(p)
    _add_field_flags(p, fusionopt.OptConfig, OPT_FLAGS)
    p.add_argument("--trace", help="write per-iteration loss CSV here")
    _add_field_flags(p, losses.LossWeights, LOSS_FLAGS)
    p.set_defaults(func=cmd_fuse_opt)

    p = sub.add_parser("decompose", help="write the four wavelet subbands")
    p.add_argument("input")
    p.add_argument("out_dir")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("analyze-bands", help="band-correlation SSIM study CSV")
    p.add_argument("input_a")
    p.add_argument("input_b")
    p.add_argument("fused")
    p.add_argument("--out", help="CSV output path (default stdout)")
    p.set_defaults(func=cmd_analyze_bands)

    p = sub.add_parser("metrics", help="score a fused image against its sources")
    p.add_argument("input_a")
    p.add_argument("input_b")
    p.add_argument("fused")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("gradcheck", help="verify analytic loss gradients")
    p.add_argument("--seed", type=int, default=0, help="rng seed (default 0)")
    p.add_argument("--size", type=int, default=32, help="test image size (default 32)")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("init-weights", help="write seeded random weights")
    p.add_argument("output")
    p.add_argument("--seed", type=int, default=0, help="rng seed (default 0)")
    _add_field_flags(p, network.NetConfig, NET_FLAGS)
    p.set_defaults(func=cmd_init_weights)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (PnmParseError, ShapeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except WavefuseError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
