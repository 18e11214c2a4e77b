import tracemalloc

import numpy as np
import pytest

from conftest import smooth_image
from oracles import fmi_naive, qabf_naive, qw_naive, ssim_naive
from wavefuse import metrics as M
from wavefuse.errors import ShapeError
from wavefuse.imageio import to_tensor
from wavefuse.losses import ssim
from wavefuse.wavelet import dwt2


def triple(seed=0, size=32):
    g = np.random.default_rng(seed)
    a = smooth_image(g, size)
    b = smooth_image(g, size)
    f = np.clip((a + b) / 2.0 + g.uniform(-0.05, 0.05, a.shape), 0, 1)
    return a, b, f


class TestQabf:
    def test_self_fusion_near_one(self):
        a, _, _ = triple()
        assert M.q_abf(a, a.copy(), a.copy()) >= 0.98

    def test_matches_oracle(self):
        a, b, f = triple(1)
        assert M.q_abf(a, b, f) == pytest.approx(qabf_naive(a, b, f), abs=1e-9)

    def test_source_swap_symmetry(self):
        a, b, f = triple(2)
        assert M.q_abf(a, b, f) == pytest.approx(M.q_abf(b, a, f), abs=1e-12)

    def test_flat_triple(self):
        z = np.zeros((16, 16))
        assert M.q_abf(z, z, z) == 1.0

    def test_constant_fused_scores_low(self):
        a, b, _ = triple(3)
        f = np.full_like(a, 0.5)
        assert M.q_abf(a, b, f) < M.q_abf(a, b, (a + b) / 2)

    def test_range(self):
        a, b, f = triple(4)
        assert 0.0 <= M.q_abf(a, b, f) <= 1.0


class TestQw:
    def test_self_fusion_exact(self):
        a, _, _ = triple()
        assert abs(M.q_w(a, a.copy(), a.copy()) - 1.0) <= 1e-9

    def test_matches_oracle(self):
        a, b, f = triple(5, size=24)
        assert M.q_w(a, b, f) == pytest.approx(qw_naive(a, b, f), abs=1e-9)

    def test_flat_triple(self):
        for c in (0.1, 0.3, 0.55, 0.7):
            for size in (9, 32):
                z = np.full((size, size), c)
                assert M.q_w(z, z, z) == 1.0, (c, size)

    def test_distinct_flat_images_score_zero(self):
        # For 0.1 and 0.55 the one-pass variance of a flat window rounds above
        # 0 (for 0.3 and 0.7, below); only the max == min rule makes these
        # windows degenerate.
        for c, d in ((0.3, 0.7), (0.1, 0.55), (0.55, 0.1)):
            z = np.full((16, 16), c)
            assert M.q_w(z, z, np.full((16, 16), d)) == 0.0, (c, d)

    def test_flat_sources_noisy_patch_matches_oracle(self):
        a = np.full((32, 32), 0.7)
        f = a.copy()
        f[12:16, 12:16] += np.random.default_rng(3).uniform(-0.2, 0.2, (4, 4))
        # a flat window has covariance exactly 0, so the index is exactly 504/625
        assert M.q_w(a, a.copy(), f) == 504 / 625
        assert qw_naive(a, a, f) == 504 / 625

    @pytest.mark.parametrize("case", ["levels", "flat_blocks", "flat_0.3", "flat_0.55"])
    def test_quantised_images_match_oracle(self, case):
        # Levels k/4 make every window sum exact, so the one-pass moments are
        # exact; flat blocks exercise the max == min rule. Noise of 1e-17 is
        # below half an ulp of the level, so that block is exactly flat at a
        # level float64 cannot hold, where E[x^2] - mean^2 leaves rounding residue
        # (below 0 for 0.3, above 0 for 0.55).
        g = np.random.default_rng(21)
        a, b = (g.integers(0, 5, (24, 20)) / 4.0 for _ in range(2))
        f = np.where(g.random(a.shape) < 0.5, a, b)
        if case == "flat_blocks":
            a[:12, :12] = 0.5
            b[6:18, 4:16] = 0.75
            f[10:, 8:] = 0.25
        if case.startswith("flat_0."):
            level = float(case[5:])
            for x, (i, j) in zip((a, b, f), ((0, 0), (4, 6), (9, 3))):
                x[i : i + 14, j : j + 12] = level + 1e-17 * g.uniform(-1.0, 1.0, (14, 12))
            assert np.all(f[9:23, 3:15] == level)
        assert abs(M.q_w(a, b, f) - qw_naive(a, b, f)) <= 1e-12

    def test_ulp_windows_stay_in_range(self):
        # Pixels are c or the next float above it, so every window's true
        # variance and covariance are ~1e-33, below the rounding residue of
        # the one-pass formulas; unclamped, that residue carried Q0 up to 1.65.
        # With the covariance clamped, only the rounding of the final ratios
        # and weights remains.
        g = np.random.default_rng(0)
        for _ in range(300):
            c = g.uniform(0.05, 0.95)
            a, b, f = np.where(g.random((3, 12, 12)) < 0.5, c, np.nextafter(c, 2.0))
            assert abs(M.q_w(a, b, f)) <= 1.0 + 4 * np.finfo(float).eps, c

    def test_peak_memory_256(self):
        a, b, f = triple(16, size=256)
        tracemalloc.start()
        try:
            M.q_w(a, b, f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_noise_scores_below_structured(self):
        a, b, _ = triple(6)
        noise = np.random.default_rng(99).uniform(0, 1, a.shape)
        assert M.q_w(a, b, noise) < 0.5 < M.q_w(a, b, (a + b) / 2)

    def test_too_small(self):
        z = np.zeros((4, 4))
        with pytest.raises(ShapeError):
            M.q_w(z, z, z)


class TestFmi:
    def test_self_fusion_exact(self):
        a, _, _ = triple()
        assert M.fmi(a, a.copy(), a.copy()) == 1.0

    def test_matches_oracle(self):
        a, b, f = triple(7)
        assert M.fmi(a, b, f) == pytest.approx(fmi_naive(a, b, f), abs=1e-9)

    def test_source_swap_symmetry(self):
        a, b, f = triple(8)
        assert M.fmi(a, b, f) == pytest.approx(M.fmi(b, a, f), abs=1e-12)

    def test_flat_triple(self):
        z = np.zeros((16, 16))
        assert M.fmi(z, z, z) == 1.0

    def test_range(self):
        a, b, f = triple(9)
        assert 0.0 <= M.fmi(a, b, f) <= 1.0


class TestScore:
    def test_report_fields(self):
        a, b, f = triple(10)
        r = M.score(a, b, f)
        assert r.ssim_a == pytest.approx(ssim_naive(f, a), abs=1e-10)
        assert r.ssim_b == pytest.approx(ssim_naive(f, b), abs=1e-10)
        assert r.q_abf == pytest.approx(M.q_abf(a, b, f))
        assert r.q_w == pytest.approx(M.q_w(a, b, f))
        assert r.fmi == pytest.approx(M.fmi(a, b, f))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            M.score(np.zeros((8, 8)), np.zeros((8, 8)), np.zeros((8, 9)))

    def test_metrics_csv(self):
        a, b, f = triple(11)
        text = M.metrics_csv(M.score(a, b, f))
        lines = text.splitlines()
        assert lines[0] == "metric,value"
        assert len(lines) == 6
        assert text.endswith("\n")


class TestBandStudy:
    def test_fused_equals_a_matched_bands_one(self):
        a, b, _ = triple(12)
        rows = M.band_correlation_study(a, b, a.copy())
        by_key = {(band, src): (low, high) for band, src, low, high in rows}
        assert by_key[("ll", "a")][0] == pytest.approx(1.0, abs=1e-12)
        for band in ("lh", "hl", "hh"):
            assert by_key[(band, "a")][1] == pytest.approx(1.0, abs=1e-12)

    def test_row_layout(self):
        a, b, f = triple(13)
        rows = M.band_correlation_study(a, b, f)
        assert [(r[0], r[1]) for r in rows] == [
            (band, src) for src in ("a", "b") for band in ("ll", "lh", "hl", "hh")
        ]

    def test_values_match_scripted_oracle(self):
        a, b, _ = triple(14)
        f = (a + b) / 2.0
        rows = M.band_correlation_study(a, b, f)
        subs = {s: dwt2(to_tensor(x)) for s, x in (("a", a), ("b", b), ("f", f))}

        def plane(src, band):
            return subs[src][("ll", "lh", "hl", "hh").index(band), 0, 0]

        for band, src, low, high in rows:
            sb = plane(src, band)
            assert low == pytest.approx(ssim(sb, plane("f", "ll")), abs=1e-9)
            if band == "ll":
                want = np.mean([ssim(sb, plane("f", hb)) for hb in ("lh", "hl", "hh")])
            else:
                want = ssim(sb, plane("f", band))
            assert high == pytest.approx(want, abs=1e-9)

    def test_csv_byte_stable(self):
        a, b, f = triple(15)
        first = M.study_csv(M.band_correlation_study(a, b, f)).encode()
        second = M.study_csv(M.band_correlation_study(a.copy(), b.copy(), f.copy()))
        assert first == second.encode()
        assert first.splitlines()[0] == b"band,src,ssim_low,ssim_high"
        assert len(first.splitlines()) == 9
        assert b"\r" not in first

    def test_odd_dims_rejected(self):
        z = np.zeros((23, 24))
        with pytest.raises(ShapeError):
            M.band_correlation_study(z, z, z)
