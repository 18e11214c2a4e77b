import numpy as np
import pytest

from conftest import smooth_image
from oracles import (
    correlate_reflect,
    correlate_reflect_adjoint,
    gauss_kernel,
    intensity_loss_naive,
    reflect_fold,
    ssim_naive,
    texture_loss_naive,
    total_loss_naive,
)
from wavefuse import losses as L
from wavefuse.errors import ShapeError

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
            d = g.standard_normal(shape)
            up = L.loss_total(f + h_fd * d, a, b, with_grad=False).total
            down = L.loss_total(f - h_fd * d, a, b, with_grad=False).total
            slope = (report.grad * d).sum()
            assert abs((up - down) / (2 * h_fd) - slope) <= 1e-6 * max(1.0, abs(slope)), shape


class TestIntensity:
    def test_zero_at_equality(self, rng):
        a = rng.uniform(0, 1, (6, 6))
        value, grad = L.loss_intensity(a, a, a.copy())
        assert value == 0.0
        assert np.abs(grad).max() == 0.0  # sign(0) = 0 subgradient

    def test_single_pixel_enumeration(self):
        f = np.array([[1.0]])
        z = np.array([[0.0]])
        value, grad = L.loss_intensity(f, z, z)
        assert value == 2.0
        assert grad[0, 0] == 2.0

    def test_weights(self):
        f = np.array([[0.5]])
        a = np.array([[0.0]])
        b = np.array([[1.0]])
        value, grad = L.loss_intensity(f, a, b, alpha1=3.0, alpha2=1.0)
        assert value == pytest.approx(3.0 * 0.5 + 1.0 * 0.5)
        assert grad[0, 0] == pytest.approx(3.0 - 1.0)

    def test_matches_naive(self, rng):
        f, a, b = (rng.uniform(0, 1, (5, 7)) for _ in range(3))
        value, _ = L.loss_intensity(f, a, b)
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
        value, _ = L.loss_ssim(a, a.copy(), a.copy())
        assert abs(value) < 1e-12

    def test_loss_at_f_equals_a(self, rng):
        a = smooth_image(rng, 16)
        b = smooth_image(rng, 16)
        value, _ = L.loss_ssim(a, a.copy(), b)
        want = 0.5 * (1.0 - ssim_naive(a, b))
        assert value == pytest.approx(want, abs=1e-10)


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

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            L.LossWeights(alpha=-1.0)


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
