"""Command-line interface: fuse, fuse-opt, decompose, analyze-bands, metrics,
gradcheck, init-weights, selftest.

Exit codes: 0 success, 2 input/validation error, 3 weights/format error,
4 internal invariant violation.
"""

import argparse
import sys

import numpy as np

from . import fusionopt, losses, metrics, network
from .errors import FormatError, PnmParseError, ShapeError, WavefuseError
from .imageio import load_pnm, rgb_to_ycbcr, save_pnm, to_tensor, YCbCrImage, ycbcr_to_rgb
from .wavelet import dwt2, save_bands

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_FORMAT = 3
EXIT_INTERNAL = 4


def _load_luma(path):
    """Load an image and return (luma plane, YCbCrImage or None)."""
    img = load_pnm(path)
    if img.ndim == 3:
        ycc = rgb_to_ycbcr(img)
        return ycc.y, ycc
    return img, None


def _load_pair(args):
    """Load the two input lumas and the chroma that --color-from names."""
    ya, cca = _load_luma(args.input_a)
    yb, ccb = _load_luma(args.input_b)
    if ya.shape != yb.shape:
        raise ShapeError(f"input sizes differ: {ya.shape} vs {yb.shape}")
    return ya, yb, cca if args.color_from == "a" else ccb


def smooth_image(rng, size=32):
    """Seeded smooth [0.1, 0.9] image; keeps gradcheck away from L1 kinks."""
    g = losses.gaussian_window(size=7, sigma=2.0)
    return np.clip(losses.filt(rng.uniform(0, 1, (size, size)), g) * 0.8 + 0.1, 0, 1)


def _config_from_args(args):
    return network.NetConfig(
        channels=args.channels,
        blocks=args.blocks,
        window=args.window,
        heads=args.heads,
        reduction=args.reduction,
        mlp_ratio=args.mlp_ratio,
        cross_route=args.route,
    )


def _add_config_flags(p):
    p.add_argument("--channels", type=int, default=16, help="feature channels (default 16)")
    p.add_argument("--blocks", type=int, default=4, help="enhance block count (default 4)")
    p.add_argument("--window", type=int, default=8, help="attention window size (default 8)")
    p.add_argument("--heads", type=int, default=4, help="attention heads (default 4)")
    p.add_argument("--reduction", type=int, default=4, help="channel-gate reduction (default 4)")
    p.add_argument("--mlp-ratio", type=int, default=2, help="MLP expansion ratio (default 2)")
    p.add_argument(
        "--route",
        choices=("qv", "k"),
        default="qv",
        help="which projections cross modalities in band attention (default qv)",
    )


def _add_loss_flags(p):
    p.add_argument("--alpha", type=float, default=2.0, help="intensity term weight (default 2)")
    p.add_argument("--beta", type=float, default=10.0, help="texture term weight (default 10)")
    p.add_argument("--gamma", type=float, default=1.0, help="SSIM term weight (default 1)")
    p.add_argument("--alpha1", type=float, default=1.0, help="intensity pull toward a (default 1)")
    p.add_argument("--alpha2", type=float, default=1.0, help="intensity pull toward b (default 1)")
    p.add_argument("--gamma1", type=float, default=0.5, help="SSIM weight toward a (default 0.5)")
    p.add_argument("--gamma2", type=float, default=0.5, help="SSIM weight toward b (default 0.5)")


def _loss_weights(args):
    return losses.LossWeights(
        alpha=args.alpha,
        beta=args.beta,
        gamma=args.gamma,
        alpha1=args.alpha1,
        alpha2=args.alpha2,
        gamma1=args.gamma1,
        gamma2=args.gamma2,
    )


def _emit_color(fused_y, chroma, out_path):
    if chroma is None:
        save_pnm(fused_y, out_path)
    else:
        rgb = ycbcr_to_rgb(YCbCrImage(y=fused_y, cb=chroma.cb, cr=chroma.cr))
        save_pnm(rgb, out_path)


def cmd_fuse(args):
    ya, yb, chroma = _load_pair(args)
    cfg = _config_from_args(args)
    fused = network.forward(ya, yb, network.load_weights(args.weights), cfg)
    _emit_color(fused, chroma, args.output)
    return EXIT_OK


def cmd_fuse_opt(args):
    ya, yb, chroma = _load_pair(args)
    cfg = fusionopt.OptConfig(
        max_iters=args.iters,
        step=args.step,
        weights=_loss_weights(args),
        init=args.init,
        tolerance=args.tol,
    )
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
    import os

    y, _ = _load_luma(args.input)
    if y.shape[0] % 2 or y.shape[1] % 2:
        print(f"error: decompose needs even dimensions, got {y.shape}", file=sys.stderr)
        return EXIT_INPUT
    subs = dwt2(to_tensor(y))
    os.makedirs(args.out_dir, exist_ok=True)
    stem = os.path.splitext(os.path.basename(args.input))[0]
    # LL spans [0, 2]: halve for display. Detail bands are signed: offset to
    # mid-gray. The .bands file alongside keeps the exact values.
    save_pnm(subs.ll[0, 0] / 2.0, os.path.join(args.out_dir, f"{stem}_ll.pgm"))
    for name in ("lh", "hl", "hh"):
        plane = getattr(subs, name)[0, 0]
        save_pnm(plane / 2.0 + 0.5, os.path.join(args.out_dir, f"{stem}_{name}.pgm"))
    save_bands(subs, os.path.join(args.out_dir, f"{stem}.bands"))
    return EXIT_OK


def cmd_metrics(args):
    a, _ = _load_luma(args.input_a)
    b, _ = _load_luma(args.input_b)
    f, _ = _load_luma(args.fused)
    report = metrics.score(a, b, f)
    sys.stdout.write(metrics.metrics_csv(report))
    return EXIT_OK


def cmd_analyze_bands(args):
    a, _ = _load_luma(args.input_a)
    b, _ = _load_luma(args.input_b)
    f, _ = _load_luma(args.fused)
    rows = metrics.band_correlation_study(a, b, f)
    text = metrics.study_csv(rows)
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_gradcheck(args):
    rng = np.random.default_rng(args.seed)
    f, a, b = (smooth_image(rng, args.size) for _ in range(3))
    err = losses.gradcheck(f, a, b, seed=args.seed)
    print(f"max relative gradient error: {err:.3e}")
    return EXIT_OK if err < 1e-4 else EXIT_INTERNAL


def cmd_init_weights(args):
    cfg = _config_from_args(args)
    network.save_weights(network.init_weights(cfg, args.seed), args.output)
    return EXIT_OK


def cmd_selftest(args):
    failures = []

    def check(name, ok):
        print(f"{'PASS' if ok else 'FAIL'} {name}")
        if not ok:
            failures.append(name)

    rng = np.random.default_rng(7)
    from .wavelet import iwt2

    x = rng.standard_normal((2, 3, 16, 16))
    rec = iwt2(dwt2(x))
    check("wavelet perfect reconstruction", np.abs(rec - x).max() < 1e-12)
    e_in = (x**2).sum()
    s = dwt2(x)
    e_out = sum((p**2).sum() for p in (s.ll, s.lh, s.hl, s.hh))
    check("wavelet energy conservation", abs(e_out - e_in) / e_in < 1e-9)

    from .tensor import softmax_rows

    sm = softmax_rows(rng.standard_normal((50, 9)))
    check("softmax rows sum to 1", np.abs(sm.sum(axis=1) - 1).max() < 1e-12)

    cfg = network.NetConfig()
    zw = network.zero_weights(cfg)
    feat = rng.standard_normal((1, cfg.channels, 32, 32))
    o1, o2 = network.enhance_block(feat, feat.copy(), 0, zw, cfg)
    check("zero-weight block is identity", np.array_equal(o1, feat))

    img = np.clip(rng.uniform(0, 1, (32, 32)), 0, 1)
    check("ssim(x,x)=1", abs(losses.ssim(img, img) - 1) < 1e-12)
    check("q_w self-fusion", abs(metrics.q_w(img, img, img) - 1) < 1e-9)
    check("fmi self-fusion", metrics.fmi(img, img, img) == 1.0)

    f, a, b = (smooth_image(rng) for _ in range(3))
    check("gradient check", losses.gradcheck(f, a, b, seed=7) < 1e-4)

    if failures:
        print(f"{len(failures)} selftest failure(s)")
        return EXIT_INTERNAL
    print("all selftests passed")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="wavefuse",
        description="Wavelet-attention image fusion: fuse image pairs, "
        "optimize fused images variationally, and score fusion quality.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fuse", help="fuse two images with the network")
    p.add_argument("input_a")
    p.add_argument("input_b")
    p.add_argument("--weights", required=True, help="weights file path")
    p.add_argument("-o", "--output", required=True, help="fused image output path")
    p.add_argument(
        "--color-from",
        choices=("a", "b"),
        default="a",
        help="which input supplies chroma for RGB output (default a)",
    )
    _add_config_flags(p)
    p.set_defaults(func=cmd_fuse)

    p = sub.add_parser("fuse-opt", help="fuse by direct loss minimization")
    p.add_argument("input_a")
    p.add_argument("input_b")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--color-from", choices=("a", "b"), default="a",
                   help="which input supplies chroma for RGB output (default a)")
    p.add_argument("--iters", type=int, default=500, help="max iterations (default 500)")
    p.add_argument("--step", type=float, default=0.05, help="initial step size (default 0.05)")
    p.add_argument("--tol", type=float, default=1e-7,
                   help="relative loss-change stopping tolerance (default 1e-7)")
    p.add_argument("--init", choices=("average", "source_a", "source_b"),
                   default="average", help="initial fused image (default average)")
    p.add_argument("--trace", help="write per-iteration loss CSV here")
    _add_loss_flags(p)
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
    _add_config_flags(p)
    p.set_defaults(func=cmd_init_weights)

    p = sub.add_parser("selftest", help="run the built-in invariant suite")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (PnmParseError, ShapeError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except WavefuseError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
