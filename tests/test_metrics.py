import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import smooth_image
from oracles import fmi_naive, qabf_naive, qw_naive, ssim_naive
from wavefuse import metrics as M
from wavefuse.errors import ShapeError
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

    @pytest.mark.parametrize("shape", [(1, 1), (2, 2), (2, 9), (9, 2)])
    def test_too_small(self, shape):
        z = np.zeros(shape)
        with pytest.raises(ShapeError):
            M.q_abf(z, z, z)


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

    def test_matches_oracle_64(self):
        a, b, f = triple(11, size=64)
        assert M.fmi(a, b, f) == pytest.approx(fmi_naive(a, b, f), abs=1e-9)

    @pytest.mark.parametrize("shape", [(1, 1), (2, 2), (2, 9), (9, 2)])
    def test_too_small(self, shape):
        # Across a side under 3 px the Sobel response is identically 0, so
        # random 2x2 triples scored a perfect 1.0.
        g = np.random.default_rng(12)
        with pytest.raises(ShapeError):
            M.fmi(*g.uniform(0, 1, (3, *shape)))

    def test_three_by_three_is_scored(self):
        a, b, f = np.random.default_rng(13).uniform(0, 1, (3, 3, 3))
        assert 0.0 <= M.fmi(a, b, f) <= 1.0


SAMPLE_KINDS = ("uniform", "quantised", "edges", "constant", "ulps")


def _samples(kind, g, n, scale):
    """n samples of one kind, scaled by `scale`."""
    if kind == "uniform":
        return g.uniform(0.0, 1.0, n) * scale
    if kind == "quantised":
        return g.integers(0, 256, n) / 255.0 * scale
    if kind == "edges":
        # Values on histogram2d's own bin edges, min and max included.
        lo, hi = np.sort(g.uniform(0.0, 1.0, 2)) * scale
        edges = np.linspace(lo, hi, M.FMI_BINS + 1)
        return np.concatenate([[lo, hi], g.choice(edges, max(n - 2, 0))])[:n]
    if kind == "constant":
        return np.full(n, g.uniform(0.0, 1.0) * scale)
    # A range a few ulps wide, where histogram2d's edges repeat.
    v = np.full(n, g.uniform(0.5, 1.0) * scale)
    for _ in range(3):
        v = np.where(g.random(n) < 0.5, np.nextafter(v, np.inf), v)
    return v


def joint_counts(x, y):
    """The FMI joint histogram, counted as metrics._normalized_mi counts it."""
    ix, iy = M._bin_index(x), M._bin_index(y)
    return np.bincount(ix * M.FMI_BINS + iy, minlength=M.FMI_BINS**2).reshape(M.FMI_BINS, -1)


def no_binary_search(*args, **kwargs):
    raise AssertionError("np.searchsorted called")


class TestJointHistogram:
    """The FMI joint histogram bins by arithmetic and must count exactly as
    np.histogram2d does."""

    @given(
        st.sampled_from(SAMPLE_KINDS),
        st.sampled_from(SAMPLE_KINDS),
        st.integers(-300, 6),
        st.integers(1, 600),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_counts_equal_histogram2d(self, kind_x, kind_y, exponent, n, seed):
        g = np.random.default_rng(seed)
        scale = 10.0**exponent
        x, y = _samples(kind_x, g, n, scale), _samples(kind_y, g, n, scale)
        want = np.histogram2d(x, y, bins=M.FMI_BINS)[0]
        assert np.array_equal(joint_counts(x, y), want)

    def test_ulp_wide_range(self, monkeypatch):
        # histogram2d's edges repeat here: it puts 1 - ulp in bin 127, not in
        # the bin one correction step from the arithmetic guess of 0.
        x = np.array([np.nextafter(1.0, 0.0), 1.0] * 3)
        y = np.arange(6.0)
        want = np.histogram2d(x, y, bins=M.FMI_BINS)[0]
        assert want[127].sum() == 3
        assert np.array_equal(joint_counts(x, y), want)
        monkeypatch.setattr(np, "searchsorted", no_binary_search)
        with pytest.raises(AssertionError, match="searchsorted"):
            M._bin_index(x)

    @pytest.mark.parametrize("kind", ["uniform", "quantised", "edges", "constant"])
    def test_arithmetic_path_is_taken(self, monkeypatch, kind):
        g = np.random.default_rng(14)
        x, y = _samples(kind, g, 4096, 1.0), _samples("uniform", g, 4096, 1.0)
        want = np.histogram2d(x, y, bins=M.FMI_BINS)[0]
        monkeypatch.setattr(np, "searchsorted", no_binary_search)
        assert np.array_equal(joint_counts(x, y), want)


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

    @pytest.mark.parametrize("fn", [M.score, M.q_abf, M.q_w], ids=lambda fn: fn.__name__)
    def test_peak_within_benchmark_bound_at_512(self, fn):
        # BENCHMARK.json bounds score's peak_mib at 5 % above the commit
        # before; peak_bytes (24 MiB at 512²) is held to that bound here.
        a, b, f = triple(17, size=512)
        tracemalloc.start()
        try:
            fn(a, b, f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.05 * M.peak_bytes(512, 512)


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
        subs = {s: dwt2(x[None, None]) for s, x in (("a", a), ("b", b), ("f", f))}

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

    def test_smallest_accepted_size(self):
        # 22x22 makes 11x11 bands, SSIM's smallest; one pixel less, or two to
        # keep the sides even, raises.
        g = np.random.default_rng(14)
        a, b, f = g.uniform(0, 1, (3, 22, 22))
        rows = M.band_correlation_study(a, b, f)
        ab, fb = (dwt2(x[None, None])[:, 0, 0] for x in (a, f))
        assert rows[0][2] == pytest.approx(ssim_naive(ab[0], fb[0]), abs=1e-10)
        for shape in ((21, 22), (22, 21), (20, 22), (22, 20)):
            with pytest.raises(ShapeError):
                M.band_correlation_study(*g.uniform(0, 1, (3, *shape)))


# The smallest side each metric accepts. At these sizes every filter runs on
# one partial tile.
MIN_SIDES = {
    "ssim": (lambda a, b, f: ssim(f, a), lambda a, b, f: ssim_naive(f, a), 11),
    "q_w": (M.q_w, qw_naive, 8),
    "q_abf": (M.q_abf, qabf_naive, 3),
    "fmi": (M.fmi, fmi_naive, 3),
}


@pytest.mark.parametrize("name", MIN_SIDES)
def test_smallest_accepted_size(name):
    # The smallest square is scored as its oracle scores it; one pixel less
    # on either side raises.
    fn, oracle, n = MIN_SIDES[name]
    g = np.random.default_rng(13)
    a, b, f = g.uniform(0, 1, (3, n, n))
    assert fn(a, b, f) == pytest.approx(oracle(a, b, f), abs=1e-10)
    for shape in ((n - 1, n), (n, n - 1)):
        with pytest.raises(ShapeError):
            fn(*g.uniform(0, 1, (3, *shape)))
