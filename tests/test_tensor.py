import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import conv2d_naive
from wavefuse import tensor as T
from wavefuse.errors import ShapeError


class TestConv2d:
    def test_zero_input_gives_bias(self):
        x = np.zeros((1, 1, 3, 3))
        k = np.arange(9.0).reshape(1, 1, 3, 3)
        out = T.conv2d(x, k, np.array([2.5]), padding=1)
        assert np.array_equal(out, np.full((1, 1, 3, 3), 2.5))

    def test_identity_kernel(self, rng):
        x = rng.standard_normal((2, 3, 5, 4))
        k = np.zeros((3, 3, 1, 1))
        for c in range(3):
            k[c, c, 0, 0] = 1.0
        out = T.conv2d(x, k, np.zeros(3), padding=0)
        assert np.array_equal(out, x)

    def test_all_ones_center_value(self):
        # 3x3 input 0..8, all-ones kernel: center output is the full sum.
        x = np.arange(9.0).reshape(1, 1, 3, 3)
        out = T.conv2d(x, np.ones((1, 1, 3, 3)), np.zeros(1), padding=1)
        assert out[0, 0, 1, 1] == 36.0

    def test_matches_naive(self, rng):
        x = rng.standard_normal((2, 3, 6, 5))
        k = rng.standard_normal((4, 3, 3, 3))
        b = rng.standard_normal(4)
        got = T.conv2d(x, k, b, padding=1)
        want = conv2d_naive(x, k, b, 1)
        assert np.allclose(got, want, atol=1e-12)

    def test_linearity(self, rng):
        x = rng.standard_normal((1, 2, 8, 8))
        y = rng.standard_normal((1, 2, 8, 8))
        k = rng.standard_normal((3, 2, 3, 3))
        zero_b = np.zeros(3)
        lhs = T.conv2d(2.0 * x + 3.0 * y, k, zero_b, 1)
        rhs = 2.0 * T.conv2d(x, k, zero_b, 1) + 3.0 * T.conv2d(y, k, zero_b, 1)
        assert np.abs(lhs - rhs).max() < 1e-9

    def test_channel_mismatch_names_shapes(self, rng):
        x = rng.standard_normal((1, 2, 4, 4))
        k = rng.standard_normal((1, 3, 3, 3))
        with pytest.raises(ShapeError, match=r"\(1, 2, 4, 4\)"):
            T.conv2d(x, k, np.zeros(1), 1)

    def test_wrong_padding_rejected(self, rng):
        x = rng.standard_normal((1, 1, 4, 4))
        with pytest.raises(ShapeError):
            T.conv2d(x, np.ones((1, 1, 3, 3)), np.zeros(1), padding=0)


class TestSoftmax:
    def test_symmetric_row(self):
        assert np.allclose(T.softmax_rows(np.array([[0.0, 0.0]])), [[0.5, 0.5]])

    def test_no_overflow(self):
        out = T.softmax_rows(np.array([[1000.0, 0.0]]))
        assert np.isfinite(out).all()
        assert out[0, 0] > 1.0 - 1e-12

    def test_log_values(self):
        row = np.log(np.array([[1.0, 2.0, 3.0]]))
        assert np.allclose(T.softmax_rows(row), [[1 / 6, 2 / 6, 3 / 6]])

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_rows_are_probability_vectors(self, seed):
        m = np.random.default_rng(seed).standard_normal((6, 7)) * 10
        out = T.softmax_rows(m)
        assert (out >= 0).all()
        assert np.abs(out.sum(axis=1) - 1.0).max() < 1e-12

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_shift_invariance(self, seed):
        g = np.random.default_rng(seed)
        m = g.standard_normal((4, 5))
        shifted = m + g.standard_normal((4, 1))
        assert np.allclose(T.softmax_rows(m), T.softmax_rows(shifted), atol=1e-12)


class TestLayerNorm:
    def test_constant_row_zeroed(self):
        x = np.full((2, 4), 3.7)
        out = T.layer_norm(x, np.ones(4), np.zeros(4))
        assert np.abs(out).max() < 1e-9

    def test_already_normalized(self):
        x = np.array([[-1.0, 1.0]])
        out = T.layer_norm(x, np.ones(2), np.zeros(2), eps=1e-300)
        assert np.allclose(out, [[-1.0, 1.0]], atol=1e-9)

    def test_degenerate_affine(self, rng):
        x = rng.standard_normal((3, 5))
        out = T.layer_norm(x, np.zeros(5), np.full(5, 1.25))
        assert np.array_equal(out, np.full((3, 5), 1.25))

    def test_mean_zero_var_one(self, rng):
        x = rng.standard_normal((10, 16)) * 5 + 2
        out = T.layer_norm(x, np.ones(16), np.zeros(16), eps=1e-12)
        assert np.abs(out.mean(axis=1)).max() < 1e-9
        assert np.abs(out.var(axis=1) - 1.0).max() < 1e-9

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_shift_and_scale_invariance(self, seed):
        g = np.random.default_rng(seed)
        x = g.standard_normal((4, 8))
        base = T.layer_norm(x, np.ones(8), np.zeros(8), eps=1e-12)
        moved = T.layer_norm(3.0 * x + 7.0, np.ones(8), np.zeros(8), eps=1e-12)
        assert np.abs(base - moved).max() < 1e-6


class TestPoolAndElementwise:
    def test_leaky_relu(self):
        assert T.leaky_relu(np.array(-1.0), 0.1) == -0.1
        assert T.leaky_relu(np.array(2.0), 0.1) == 2.0

    def test_sigmoid(self):
        assert T.sigmoid(np.array(0.0)) == 0.5
        big = T.sigmoid(np.array([800.0, -800.0]))
        assert np.isfinite(big).all()
        assert big[0] > 1.0 - 1e-12
        assert 0.0 <= big[1] < 1e-12

    def test_concat_split_roundtrip(self, rng):
        a = rng.standard_normal((2, 3, 4, 4))
        b = rng.standard_normal((3, 3, 4, 4))
        joined = T.batch_concat(a, b)
        assert np.array_equal(joined[:2], a) and np.array_equal(joined[2:], b)

    def test_channel_concat_mismatch(self, rng):
        with pytest.raises(ShapeError):
            T.channel_concat(
                rng.standard_normal((1, 2, 4, 4)), rng.standard_normal((1, 2, 5, 4))
            )
