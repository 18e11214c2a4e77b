"""Acceptance suite: ten gate criteria, each timed and reported on one line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import time

import numpy as np
import pytest

from conftest import smooth_image
from oracles import fmi_naive, forward_naive, qabf_naive, qw_naive
from wavefuse import cli, network, wavelet
from wavefuse.attention import (
    AttentionParams,
    cross_modal_attention,
    mhsa,
    window_merge,
    window_partition,
)
from wavefuse.fusionopt import OptConfig, optimize
from wavefuse.losses import LossWeights, gradcheck, loss_total, ssim
from wavefuse.metrics import band_correlation_study, fmi, q_abf, q_w, study_csv
from wavefuse.tensor import softmax_rows
from wavefuse.wavelet import dwt2, iwt2


def report(number, name, limit, started, ok):
    elapsed = time.perf_counter() - started
    in_time = elapsed <= limit
    verdict = "PASS" if (ok and in_time) else "FAIL"
    print(f"{verdict} criterion {number}: {name} ({elapsed:.2f}s, limit {limit:.0f}s)")
    assert ok, f"criterion {number} ({name}) failed"
    assert in_time, f"criterion {number} took {elapsed:.2f}s, limit {limit}s"


def test_criterion_01_wavelet_reconstruction():
    started = time.perf_counter()
    ok = True
    for seed in range(100):
        x = np.random.default_rng(seed).standard_normal((1, 1, 64, 64))
        s = dwt2(x)
        ok &= bool(np.abs(iwt2(s) - x).max() < 1e-12)
        e_in = (x**2).sum()
        e_out = sum((p**2).sum() for p in s)  # LL, LH, HL, HH
        ok &= bool(abs(e_out - e_in) <= 1e-9 * e_in)
    report(1, "wavelet perfect reconstruction and energy", 1.0, started, ok)


def test_criterion_02_attention_invariants():
    started = time.perf_counter()
    g = np.random.default_rng(0)
    ok = True

    sm = softmax_rows(g.standard_normal((200, 17)) * 10)
    ok &= bool(np.abs(sm.sum(axis=1) - 1.0).max() < 1e-12)

    c = 8
    x = g.standard_normal((1, c, 16, 16))
    p = AttentionParams(
        wq=g.standard_normal((c, c)),
        wk=g.standard_normal((c, c)),
        wv=g.standard_normal((c, c)),
        wo=g.standard_normal((c, c)),
        heads=2,
    )
    o1, o2 = cross_modal_attention(x, x.copy(), p, p, 8, 0)
    tok = window_partition(x, 8, 0)
    plain = window_merge(mhsa(tok, tok, tok, p))
    ok &= bool(np.abs(o1 - plain).max() < 1e-12)
    ok &= bool(np.abs(o2 - plain).max() < 1e-12)

    # zero-injection: stream 1 ignores its own detail bands and modality 2's
    # low band, so perturbing those leaves it bit-identical
    from wavefuse.attention import CbamParams, frequency_interaction

    cb = CbamParams(
        ca_w1=g.standard_normal((c // 2, c)),
        ca_w2=g.standard_normal((c, c // 2)),
        sa_w=g.standard_normal((1, 2, 7, 7)),
        sa_b=g.standard_normal(1),
    )
    low1, low2 = g.standard_normal((2, 1, c, 8, 8))
    high1, high2 = g.standard_normal((2, 3, c, 8, 8))
    s1, _ = frequency_interaction(low1, low2, high1, high2, cb, cb)
    s1_b, _ = frequency_interaction(low1, low2 + 1.0, high1 + 1.0, high2, cb, cb)
    ok &= bool(np.array_equal(s1[0], s1_b[0]) and np.array_equal(s1[1], s1_b[1]))
    report(2, "attention rows, cross-modal reduction, zero injection", 5.0, started, ok)


def test_criterion_03_zero_weight_identity():
    started = time.perf_counter()
    cfg = network.NetConfig()
    w = network.zero_weights(cfg)
    g = np.random.default_rng(1)
    f1 = g.standard_normal((1, cfg.channels, 32, 32))
    f2 = g.standard_normal((1, cfg.channels, 32, 32))
    o1, o2 = network.enhance_block(f1, f2, 0, w, cfg)
    dev = max(np.abs(o1 - f1).max(), np.abs(o2 - f2).max())
    report(3, f"zero-weight block identity (max dev {dev})", 1.0, started, dev == 0.0)


def test_criterion_04_forward_shapes_and_golden_hash():
    cfg = network.NetConfig()
    w = network.init_weights(cfg, 0)
    g = np.random.default_rng(42)
    # The loop oracle takes seconds; the time limit bounds the library forward.
    want = forward_naive(g.uniform(0, 1, (16, 16)), g.uniform(0, 1, (16, 16)), w, cfg)
    started = time.perf_counter()
    ok = True
    for size in ((16, 16), (33, 17), (64, 64), (128, 128), (129, 97)):
        g = np.random.default_rng(42)
        a = g.uniform(0, 1, size)
        b = g.uniform(0, 1, size)
        out = network.forward(a, b, w, cfg)
        ok &= out.shape == size and bool(np.isfinite(out).all())
        ok &= bool(np.array_equal(out, network.forward(a, b, w, cfg)))
        if size == (16, 16):
            dev = np.abs(out - want).max()
            ok &= bool(dev <= 1e-12)
    name = f"forward sizes, determinism, loop oracle (max dev {dev:.1e})"
    report(4, name, 10.0, started, ok)


def gradcheck_pair():
    g = np.random.default_rng(0)
    a = smooth_image(g, 32)
    b = smooth_image(g, 32)
    f = np.clip((a + b) / 2.0 + g.uniform(-0.02, 0.02, a.shape), 0, 1)
    return f, a, b


def test_criterion_05_gradcheck():
    started = time.perf_counter()
    f, a, b = gradcheck_pair()
    errs = [
        gradcheck(f, a, b, LossWeights(alpha=1, beta=0, gamma=0)),
        gradcheck(f, a, b, LossWeights(alpha=0, beta=1, gamma=0)),
        gradcheck(f, a, b, LossWeights(alpha=0, beta=0, gamma=1)),
        gradcheck(f, a, b, LossWeights(alpha=2, beta=10, gamma=1)),
    ]
    ok = max(errs) < 1e-4
    report(5, f"analytic gradients (worst rel err {max(errs):.2e})", 30.0, started, ok)


def test_criterion_06_loss_zero_and_symmetry():
    started = time.perf_counter()
    g = np.random.default_rng(2)
    a = g.uniform(0, 1, (24, 24))
    r = loss_total(a, a.copy(), a.copy(), with_grad=False)
    ok = r.l_int == 0.0 and r.l_text == 0.0 and abs(r.l_ssim) < 1e-12

    f = smooth_image(g, 24)
    b = smooth_image(g, 24)
    r1 = loss_total(f, a, b, with_grad=False)
    r2 = loss_total(f, b, a, with_grad=False)
    ok &= abs(r1.total - r2.total) < 1e-12
    report(6, "loss terms vanish at equality; source-swap symmetry", 2.0, started, ok)


def test_criterion_07_optimizer():
    started = time.perf_counter()
    a = smooth_image(np.random.default_rng(5), 32)
    fused, trace = optimize(a, a.copy(), OptConfig(max_iters=500))
    totals = [r.total for r in trace.reports]
    ok = ssim(fused, a) > 0.995
    ok &= trace.iterations <= 500
    ok &= all(t1 >= t2 for t1, t2 in zip(totals, totals[1:]))
    report(7, f"optimizer self-fusion (SSIM {ssim(fused, a):.6f})", 60.0, started, ok)


def test_criterion_08_metrics_vs_oracles():
    started = time.perf_counter()
    g = np.random.default_rng(3)
    a = smooth_image(g, 32)
    b = smooth_image(g, 32)
    f = np.clip((a + b) / 2.0 + g.uniform(-0.05, 0.05, a.shape), 0, 1)
    ok = q_abf(a, a, a) >= 0.98
    ok &= abs(q_w(a, a, a) - 1.0) <= 1e-9
    ok &= fmi(a, a, a) == 1.0
    ok &= abs(q_abf(a, b, f) - qabf_naive(a, b, f)) < 1e-9
    ok &= abs(q_w(a, b, f) - qw_naive(a, b, f)) < 1e-9
    ok &= abs(fmi(a, b, f) - fmi_naive(a, b, f)) < 1e-9
    report(8, "fusion metrics match brute-force oracles", 30.0, started, ok)


def test_criterion_09_band_study():
    started = time.perf_counter()
    g = np.random.default_rng(4)
    a = smooth_image(g, 32)
    b = smooth_image(g, 32)
    rows = band_correlation_study(a, b, a.copy())
    by_key = {(band, src): (low, high) for band, src, low, high in rows}
    ok = abs(by_key[("ll", "a")][0] - 1.0) < 1e-12
    for band in ("lh", "hl", "hh"):
        ok &= abs(by_key[(band, "a")][1] - 1.0) < 1e-12
    csv1 = study_csv(rows).encode()
    csv2 = study_csv(band_correlation_study(a.copy(), b.copy(), a.copy())).encode()
    ok &= csv1 == csv2
    report(9, "band study self-fusion and CSV stability", 5.0, started, ok)


def test_criterion_10_serialization(tmp_path):
    started = time.perf_counter()
    cfg = network.NetConfig(channels=8, blocks=1, window=4, heads=2, reduction=2)
    w = network.init_weights(cfg, 0)
    wpath = tmp_path / "w.wfw"
    network.save_weights(w, cfg, wpath)
    back, _ = network.load_weights(wpath)
    ok = all(np.array_equal(back[k], w[k]) for k in w) and set(back) == set(w)

    bands = dwt2(np.random.default_rng(6).uniform(0, 1, (1, 1, 16, 18)))
    bpath = tmp_path / "x.bands"
    wavelet.save_bands(bands, bpath)
    loaded = wavelet.load_bands(bpath)
    for k in range(4):  # LL, LH, HL, HH
        ok &= bool(np.array_equal(loaded[k], bands[k]))

    # corrupted magic -> format error (CLI exit code 3)
    data = bytearray(wpath.read_bytes())
    data[:4] = b"NOPE"
    bad = tmp_path / "bad.wfw"
    bad.write_bytes(bytes(data))
    img = tmp_path / "i.pgm"
    from wavefuse.imageio import save_pnm

    save_pnm(np.full((16, 16), 0.5), img)
    code = cli.main(
        ["fuse", str(img), str(img), "--weights", str(bad), "-o", str(tmp_path / "o.pgm")]
    )
    ok &= code == 3

    # corrupted CRC also rejected
    data = bytearray(wpath.read_bytes())
    data[len(data) // 2] ^= 0xFF
    bad.write_bytes(bytes(data))
    with pytest.raises(Exception):
        network.load_weights(bad)
    report(10, "weights/.bands round-trips and rejection paths", 2.0, started, ok)
