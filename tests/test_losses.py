import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import smooth_image
from oracles import (
    correlate_reflect,
    correlate_reflect_adjoint,
    gauss_kernel,
    intensity_loss_naive,
    reflect_fold,
    ssim_grad_naive,
    ssim_naive,
    ssim_terms_whole,
    ssim_value_grad_whole,
    ssim_whole,
    texture_loss_naive,
    total_loss_naive,
)
from wavefuse import fusionopt
from wavefuse import losses as L
from wavefuse.errors import ShapeError
from wavefuse.imageio import check_images

SX = [[-1, 0, 1], [-2, 0, 2], [-1, 0, 1]]


class TestFilters:
    def test_filt_matches_naive(self, rng):
        x = rng.standard_normal((7, 9))
        got = L.filt(x, L.SOBEL_X)
        want = correlate_reflect(x, SX)
        assert np.allclose(got, want, atol=1e-12)

    def test_sobel_tap_pairs_are_the_3x3_kernels(self):
        assert np.array_equal(np.outer(*L.SOBEL_X), SX)
        assert np.array_equal(np.outer(*L.SOBEL_Y), np.transpose(SX))

    @pytest.mark.parametrize("size, sigma", [(L.SSIM_WINDOW, L.SSIM_SIGMA), (7, 2.0)])
    def test_gaussian_tap_pair_is_the_2d_window(self, rng, size, sigma):
        # (11, 1.5) is the SSIM window; (7, 2.0) is the one cli.smooth_image uses.
        k = gauss_kernel(size, sigma)
        g = L.gaussian_window(size, sigma)
        assert np.abs(np.outer(*g) - k).max() <= 1e-14
        x = rng.standard_normal((9, 13))
        assert np.abs(L.filt(x, g) - correlate_reflect(x, k)).max() <= 1e-14

    def test_adjoint_identity(self, rng):
        # <filt(x), y> == <x, filt_adjoint(y)> for every kernel used here
        x = rng.standard_normal((8, 10))
        y = rng.standard_normal((8, 10))
        for k in (L.SOBEL_X, L.SOBEL_Y, L.gaussian_window()):
            lhs = (L.filt(x, k) * y).sum()
            rhs = (x * L.filt_adjoint(y, k)).sum()
            assert abs(lhs - rhs) < 1e-9

    def test_same_output_on_one_cpu(self, rng, tmp_path):
        # A process pinned to one CPU runs BLAS on one thread. The banded
        # products are small enough to run on one thread here too, so the
        # filters, their adjoints and optimize give the same bits.
        x = rng.uniform(0.0, 1.0, (512, 512))
        np.save(tmp_path / "x.npy", x)
        child = (
            "import os, sys\n"
            "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "import numpy as np\n"
            "from wavefuse import fusionopt, losses as L\n"
            "x = np.load(sys.argv[2])\n"
            "ks = (L.gaussian_window(), L.SOBEL_Y)\n"
            "outs = [f(x, k) for f in (L.filt, L.filt_adjoint) for k in ks]\n"
            "cfg = fusionopt.OptConfig(max_iters=3)\n"
            "outs.append(fusionopt.optimize(x[:128, :128], x[128:256, :128], cfg)[0])\n"
            "np.savez(sys.argv[3], *outs)\n"
        )
        src = str(Path(L.__file__).resolve().parent.parent)
        out = tmp_path / "one.npz"
        subprocess.run([sys.executable, "-c", child, src, tmp_path / "x.npy", out],
                       check=True, timeout=120)
        ks = (L.gaussian_window(), L.SOBEL_Y)
        here = [f(x, k) for f in (L.filt, L.filt_adjoint) for k in ks]
        here.append(fusionopt.optimize(x[:128, :128], x[128:256, :128],
                                       fusionopt.OptConfig(max_iters=3))[0])
        with np.load(out) as one:
            assert len(one.files) == len(here)
            for i, want in enumerate(here):
                assert np.array_equal(one[f"arr_{i}"], want), i


# Heights and widths of the strip tests, as a function of the rows per strip
# at width 64: one strip exactly, one strip plus one row, two strips and a
# remainder of one row, then a tall-narrow and a wide image.
STRIP_SHAPES = {
    "one_strip": lambda rows, halo: (rows + halo, 64),
    "plus_one_row": lambda rows, halo: (rows + halo + 1, 64),
    "remainder_of_one_row": lambda rows, halo: (2 * rows + halo + 1, 64),
    "tall_narrow": lambda rows, halo: (513, 97),
    "wide": lambda rows, halo: (97, 1000),
}
STRIP_FILTERS = {
    # name: (function of x, halo, extra input columns the strip sees)
    "gauss": (lambda x: L.filt(x, L.gaussian_window()), 0, 2 * (L.SSIM_WINDOW // 2)),
    "sobel_x": (lambda x: L.filt(x, L.SOBEL_X), 0, 2),
    "sobel_y": (lambda x: L.filt(x, L.SOBEL_Y), 0, 2),
    # The adjoint's strips read the gradient zero-padded by k - 1 on each side
    # and write k - 1 more rows than the gradient has.
    "gauss_adjoint": (
        lambda x: L.filt_adjoint(x, L.gaussian_window()),
        -(L.SSIM_WINDOW - 1),
        2 * (L.SSIM_WINDOW - 1),
    ),
    "sobel_x_adjoint": (lambda x: L.filt_adjoint(x, L.SOBEL_X), -2, 4),
    "sobel_y_adjoint": (lambda x: L.filt_adjoint(x, L.SOBEL_Y), -2, 4),
    # _sliding over q_w's 8 x 8 windows, on q_w's row strips of window rows,
    # each with its 7-row halo; one strip is the whole-image run.
    "box_sum": (lambda x: sliding_on_strips(x, np.add), 7, -7),
    "max": (lambda x: sliding_on_strips(x, np.maximum), 7, -7),
    "min": (lambda x: sliding_on_strips(x, np.minimum), 7, -7),
}


def sliding_on_strips(x, reduce):
    """_sliding run as q_w runs it: on each _strips strip of window rows with
    the 7 image rows past it, the strips' outputs stacked."""
    windows = x[7:, 7:]  # one entry per 8 x 8 window
    return np.concatenate([L._sliding(x[s.start : s.stop + 7], 8, reduce)
                           for s in L._strips(len(windows), windows[0].nbytes)])


class TestStrips:
    """filt and filt_adjoint run over strips of output rows, and _sliding on
    the row strips q_w hands it; every row must come out bit for bit as in
    one pass over the whole image."""

    @pytest.mark.parametrize("case", STRIP_SHAPES)
    @pytest.mark.parametrize("name", STRIP_FILTERS)
    def test_strips_match_one_pass(self, monkeypatch, rng, name, case):
        fn, halo, extra = STRIP_FILTERS[name]
        rows = L._STRIP_BYTES // (8 * (64 + extra))
        x = rng.uniform(0.0, 1.0, STRIP_SHAPES[case](rows, halo))
        got = fn(x)
        with monkeypatch.context() as m:
            m.setattr(L, "_STRIP_BYTES", 2**62)
            want = fn(x)
        assert got.shape == want.shape
        assert np.array_equal(got, want)

    def test_many_strips_match_loop_oracle(self, monkeypatch, rng):
        # A budget of a few rows per strip, rounded up to one tile of rows: a
        # 23-row image takes two strips.
        monkeypatch.setattr(L, "_STRIP_BYTES", 4 * 8 * (30 + 10))
        x = rng.standard_normal((23, 30))
        got = L.filt(x, L.gaussian_window())
        assert np.abs(got - correlate_reflect(x, gauss_kernel())).max() <= 1e-12

    def test_filt_peak_memory_512(self, rng):
        # One pass held the padded image, the row pass and the output at once
        # (8.2 MiB for a 2 MiB image); strips hold one strip of the row pass.
        x = rng.uniform(0.0, 1.0, (512, 512))
        g = L.gaussian_window()
        tracemalloc.start()
        try:
            L.filt(x, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * x.nbytes


SMALL_SHAPES = [(h, w) for h in range(1, 13) for w in range(1, 13)]


class TestSmallImages:
    """Every shape with sides 1-12, including sides at or below the Gaussian's
    pad of 5, where reflect padding wraps more than once."""

    KERNELS = {
        "sobel_x": (L.SOBEL_X, SX),
        "sobel_y": (L.SOBEL_Y, np.transpose(SX).tolist()),
        "gauss": (L.gaussian_window(), gauss_kernel()),
    }

    @pytest.mark.parametrize("name", KERNELS)
    def test_filt_and_adjoint_match_loop_oracles(self, name):
        k, k2d = self.KERNELS[name]
        g = np.random.default_rng(5)
        for shape in SMALL_SHAPES:
            x = g.standard_normal(shape)
            y = g.standard_normal(shape)
            fx = L.filt(x, k)
            ay = L.filt_adjoint(y, k)
            assert np.abs(fx - correlate_reflect(x, k2d)).max() <= 1e-13, shape
            assert np.abs(ay - correlate_reflect_adjoint(y, k2d)).max() <= 1e-13, shape
            lhs, rhs = (fx * y).sum(), (x * ay).sum()
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs)), shape

    @pytest.mark.parametrize("pad, cols", [(1, None), (5, None), (13, (0, 13, 26))])
    def test_one_hot_taps_read_numpy_reflect_padding(self, pad, cols):
        # Taps (e_u, e_v) pick the padded pixel (i + u, j + v) with no rounding,
        # which pins every mirrored row and column to numpy's "reflect" mode.
        eye = np.eye(2 * pad + 1)
        g = np.random.default_rng(8)
        for h, w in SMALL_SHAPES:
            x = g.standard_normal((h, w))
            xp = np.pad(x, pad, mode="reflect")
            for u in range(2 * pad + 1):
                for v in cols or range(2 * pad + 1):
                    got = L.filt(x, (eye[u], eye[v]))
                    assert np.array_equal(got, xp[u : u + h, v : v + w]), (h, w, u, v)

    @pytest.mark.parametrize("pad", [1, 5, 13])
    def test_reflect_pad_adjoint_matches_loop_fold(self, pad):
        g = np.random.default_rng(6)
        for h, w in SMALL_SHAPES:
            gp = g.standard_normal((h + 2 * pad, w + 2 * pad))
            got = L.reflect_pad_adjoint(gp, pad)
            assert np.abs(got - reflect_fold(gp, pad)).max() <= 1e-12, (h, w)

    def test_loss_total_value_and_gradient(self):
        # f stays 0.1 away from both sources, so no intensity kink is near.
        g = np.random.default_rng(7)
        h_fd = 1e-6
        for shape in SMALL_SHAPES:
            a = g.uniform(0.0, 0.3, shape)
            b = g.uniform(0.7, 1.0, shape)
            f = g.uniform(0.4, 0.6, shape)
            report = L.loss_total(f, a, b)
            assert report.total == pytest.approx(total_loss_naive(f, a, b), abs=1e-10), shape
            # Without the gradient no term computes one, and every value keeps its bits.
            bare = L.loss_total(f, a, b, with_grad=False)
            assert bare.grad is None
            for name in ("total", "l_int", "l_text", "l_ssim"):
                assert getattr(bare, name) == getattr(report, name), (shape, name)
            d = g.standard_normal(shape)
            up = L.loss_total(f + h_fd * d, a, b, with_grad=False).total
            down = L.loss_total(f - h_fd * d, a, b, with_grad=False).total
            slope = (report.grad * d).sum()
            assert abs((up - down) / (2 * h_fd) - slope) <= 1e-6 * max(1.0, abs(slope)), shape

    def test_ssim_gradient_matches_closed_form_oracle(self):
        # The oracle's chain rule in the partials d_mu, d_var and d_cov
        # pins every term of loss_ssim's gradient, far below what finite
        # differences resolve. On a 1x1 image every tap reads the one pixel,
        # so var_f's two derivative terms, each over 2,000 times the
        # gradient, cancel; the rounding left is some 5e-12 of the gradient.
        g = np.random.default_rng(10)
        for shape in [*SMALL_SHAPES, (128, 128)]:
            f, a, b = g.uniform(0.0, 1.0, (3, *shape))
            grads = ssim_grad_naive(f, a), ssim_grad_naive(f, b)
            tol = 1e-11 if shape == (1, 1) else 1e-12
            for w in (L.LossWeights(gamma1=0.5, gamma2=0.5), L.LossWeights(gamma1=1, gamma2=0)):
                value, grad = L.loss_ssim(f, a, b, w)
                want = -w.gamma1 * grads[0] - w.gamma2 * grads[1]
                assert np.abs(grad - want).max() <= tol * np.abs(want).max(), shape
                if min(shape) >= L.SSIM_WINDOW:
                    ssims = L.ssim(f, a), L.ssim(f, b)
                    assert value == w.gamma1 * (1.0 - ssims[0]) + w.gamma2 * (1.0 - ssims[1])


class TestIntensity:
    def test_zero_at_equality(self, rng):
        a = rng.uniform(0, 1, (6, 6))
        value, grad = L.loss_intensity(a, a, a.copy(), L.LossWeights())
        assert value == 0.0
        assert np.abs(grad).max() == 0.0  # sign(0) = 0 subgradient

    def test_single_pixel_enumeration(self):
        f = np.array([[1.0]])
        z = np.array([[0.0]])
        value, grad = L.loss_intensity(f, z, z, L.LossWeights())
        assert value == 2.0
        assert grad[0, 0] == 2.0

    def test_weights(self):
        f = np.array([[0.5]])
        a = np.array([[0.0]])
        b = np.array([[1.0]])
        value, grad = L.loss_intensity(f, a, b, L.LossWeights(alpha1=3.0, alpha2=1.0))
        assert value == pytest.approx(3.0 * 0.5 + 1.0 * 0.5)
        assert grad[0, 0] == pytest.approx(3.0 - 1.0)

    def test_matches_naive(self, rng):
        f, a, b = (rng.uniform(0, 1, (5, 7)) for _ in range(3))
        value, _ = L.loss_intensity(f, a, b, L.LossWeights())
        assert value == pytest.approx(intensity_loss_naive(f, a, b), abs=1e-12)


class TestTexture:
    def test_zero_at_equality(self, rng):
        a = rng.uniform(0, 1, (8, 8))
        value, _ = L.loss_texture(a, a.copy(), a.copy())
        assert value == 0.0

    def test_matches_naive(self, rng):
        f, a, b = (rng.uniform(0, 1, (6, 8)) for _ in range(3))
        value, _ = L.loss_texture(f, a, b)
        assert value == pytest.approx(texture_loss_naive(f, a, b), abs=1e-12)

    def test_constant_fused_sees_source_texture(self, rng):
        a = rng.uniform(0, 1, (6, 6))
        f = np.full((6, 6), 0.5)
        value, _ = L.loss_texture(f, a, a.copy())
        want = np.mean(
            np.abs(correlate_reflect(a, SX))
            + np.abs(correlate_reflect(a, np.asarray(SX).T.tolist()))
        )
        assert value == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("n", [64, 128])
    def test_working_set_is_at_most_8_5_images(self, n):
        # The gradient's adjoint inputs are built over the Sobel responses of
        # f, and the residual and its sign are dropped once spent; temporaries
        # that each made a fresh image held 11.6 images at 64x64.
        f, a, b = np.random.default_rng(8).uniform(0, 1, (3, n, n))
        tracemalloc.start()
        try:
            L.loss_texture(f, a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8.5 * f.nbytes


class TestSsim:
    def test_self_similarity(self, rng):
        x = rng.uniform(0, 1, (16, 16))
        assert L.ssim(x, x.copy()) == pytest.approx(1.0, abs=1e-12)

    def test_symmetry(self, rng):
        x = rng.uniform(0, 1, (14, 14))
        y = rng.uniform(0, 1, (14, 14))
        assert abs(L.ssim(x, y) - L.ssim(y, x)) < 1e-12

    def test_matches_naive(self, rng):
        x = smooth_image(rng, 16)
        y = smooth_image(rng, 16)
        assert L.ssim(x, y) == pytest.approx(ssim_naive(x, y), abs=1e-10)

    def test_too_small(self, rng):
        with pytest.raises(ShapeError):
            L.ssim(rng.uniform(0, 1, (8, 8)), rng.uniform(0, 1, (8, 8)))

    def test_loss_zero_at_equality(self, rng):
        a = rng.uniform(0, 1, (12, 12))
        value, _ = L.loss_ssim(a, a.copy(), a.copy(), L.LossWeights())
        assert abs(value) < 1e-12

    def test_loss_at_f_equals_a(self, rng):
        a = smooth_image(rng, 16)
        b = smooth_image(rng, 16)
        value, _ = L.loss_ssim(a, a.copy(), b, L.LossWeights())
        want = 0.5 * (1.0 - ssim_naive(a, b))
        assert value == pytest.approx(want, abs=1e-10)


# Strip budgets of filt under SSIM: the default, one tile of rows, one strip.
SSIM_BUDGETS = {"default": L._STRIP_BYTES, "one_tile": 1, "one_strip": 2**62}


class TestSsimStrips:
    """SSIM's filters run over row strips, and it folds its second moments
    into their outputs and writes its map in place; every map and value must
    keep the bits of the whole-image arithmetic in tests/oracles.py, whatever
    the strips of filt."""

    @pytest.mark.parametrize("budget", SSIM_BUDGETS)
    def test_maps_and_value_keep_the_whole_image_bits(self, monkeypatch, budget):
        g = np.random.default_rng(12)
        window = L.gaussian_window()
        for shape in [*SMALL_SHAPES, (128, 128), (513, 600), (37, 2100)]:
            x, y = g.uniform(0.0, 1.0, (2, *shape))
            want = ssim_terms_whole(x, y, L.filt, window)
            value = ssim_whole(x, y, L.filt, window) if min(shape) >= L.SSIM_WINDOW else None
            with monkeypatch.context() as m:
                m.setattr(L, "_STRIP_BYTES", SSIM_BUDGETS[budget])
                mu_x, mu_y, a2, b2 = L._ssim_terms(x, y, window)
                a1, b1 = np.empty((2, *shape))
                L._luminance(mu_x, mu_y, a1, b1)
                got = L.ssim(x, y) if value is not None else None
            for name, w, have in zip(("mu_x", "mu_y", "a1", "a2", "b1", "b2"), want,
                                     (mu_x, mu_y, a1, a2, b1, b2)):
                assert np.array_equal(have, w), (shape, name)
            assert got == value, shape

    @pytest.mark.parametrize("n", [64, 128])
    def test_loss_gradient_keeps_the_whole_image_bits(self, monkeypatch, n):
        # loss_total with its SSIM terms computed by the frozen whole-image
        # arithmetic gives the same total and gradient bits as the library's.
        f, a, b = np.random.default_rng(n).uniform(0.0, 1.0, (3, n, n))
        got = L.loss_total(f, a, b)

        def whole(f, a, with_grad=True):
            value, grad = ssim_value_grad_whole(f, a, L.filt, L.filt_adjoint, L.gaussian_window())
            return value, grad if with_grad else None

        monkeypatch.setattr(L, "_ssim_value_grad", whole)
        want = L.loss_total(f, a, b)
        assert got.total == want.total
        assert np.array_equal(got.grad, want.grad)


class TestTotal:
    def test_frozen_oracle_value(self):
        # [DERIVED] total_loss_naive on this exact seeded triple.
        g = np.random.default_rng(11)
        f, a, b = (smooth_image(g, 16) for _ in range(3))
        want = total_loss_naive(f, a, b)
        report = L.loss_total(f, a, b)
        assert report.total == pytest.approx(want, abs=1e-10)
        assert report.total == pytest.approx(
            2.0 * report.l_int + 10.0 * report.l_text + 1.0 * report.l_ssim, abs=1e-12
        )

    def test_all_terms_zero_at_equality(self, rng):
        a = rng.uniform(0, 1, (16, 16))
        report = L.loss_total(a, a.copy(), a.copy())
        assert report.l_int == 0.0
        assert report.l_text == 0.0
        assert abs(report.l_ssim) < 1e-12
        assert abs(report.total) < 1e-12

    def test_weight_selector(self, rng):
        f, a, b = (smooth_image(rng, 16) for _ in range(3))
        only_ssim = L.loss_total(f, a, b, L.LossWeights(alpha=0, beta=0, gamma=1))
        assert only_ssim.total == pytest.approx(only_ssim.l_ssim, abs=1e-15)

    def test_swap_symmetry(self, rng):
        f, a, b = (smooth_image(rng, 16) for _ in range(3))
        r1 = L.loss_total(f, a, b, with_grad=False)
        r2 = L.loss_total(f, b, a, with_grad=False)
        assert abs(r1.total - r2.total) < 1e-12

    @pytest.mark.parametrize("n", [256, 512])
    def test_value_only_working_set_is_at_most_6_8_images(self, n):
        # Without the gradient the SSIM map is written over a1 and its
        # denominator over b1, so no term outgrows SSIM's filters, about 6
        # images at 512².
        f, a, b = np.random.default_rng(9).uniform(0, 1, (3, n, n))
        tracemalloc.start()
        try:
            L.loss_total(f, a, b, with_grad=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6.8 * f.nbytes

    def test_checks_its_images_once(self, rng, monkeypatch):
        # loss_total is the loss path's one image check; the terms trust it.
        calls = []

        def counting(*images):
            calls.append(len(images))
            return check_images(*images)

        monkeypatch.setattr(L, "check_images", counting)
        f, a, b = (rng.uniform(0, 1, (16, 16)) for _ in range(3))
        L.loss_total(f, a, b)
        assert calls == [3]

    def test_negative_weight_rejected(self):
        # and non-finite ones: a NaN or infinite weight makes every loss non-finite
        bad = (("alpha", -1.0), ("alpha", np.nan), ("beta", np.inf), ("gamma2", -np.inf))
        for name, value in bad:
            with pytest.raises(ValueError, match=name):
                L.LossWeights(**{name: value})


class TestGradients:
    def make_pair(self, seed=0):
        g = np.random.default_rng(seed)
        a = smooth_image(g, 32)
        b = smooth_image(g, 32)
        f = np.clip((a + b) / 2.0 + g.uniform(-0.02, 0.02, a.shape), 0, 1)
        return f, a, b

    def test_gradcheck_intensity(self):
        f, a, b = self.make_pair()
        err = L.gradcheck(f, a, b, L.LossWeights(alpha=1, beta=0, gamma=0))
        assert err < 1e-4

    def test_gradcheck_texture(self):
        f, a, b = self.make_pair()
        err = L.gradcheck(f, a, b, L.LossWeights(alpha=0, beta=1, gamma=0))
        assert err < 1e-4

    def test_gradcheck_ssim(self):
        f, a, b = self.make_pair()
        err = L.gradcheck(f, a, b, L.LossWeights(alpha=0, beta=0, gamma=1))
        assert err < 1e-4

    def test_gradcheck_total(self):
        f, a, b = self.make_pair()
        assert L.gradcheck(f, a, b) < 1e-4

    def test_never_writes_its_inputs(self):
        # Read-only images give the same error as writable copies: the
        # finite differences perturb a copy of f, never f itself.
        f, a, b = self.make_pair(2)
        want = L.gradcheck(f.copy(), a.copy(), b.copy())
        for x in (f, a, b):
            x.flags.writeable = False
        assert L.gradcheck(f, a, b) == want

    def test_too_few_safe_pixels(self, rng):
        a = rng.uniform(0, 1, (16, 16))
        with pytest.raises(ValueError, match="kink-free"):
            L.gradcheck(a, a.copy(), a.copy())

    def test_descent_step_decreases_loss(self):
        f, a, b = self.make_pair(3)
        report = L.loss_total(f, a, b)
        stepped = np.clip(f - 1e-4 * report.grad, 0, 1)
        after = L.loss_total(stepped, a, b, with_grad=False)
        assert after.total < report.total
