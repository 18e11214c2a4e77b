import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import conv2d_naive, layer_norm_naive, softmax_naive
from wavefuse import tensor as T


class TestConv2d:
    def test_zero_input_gives_bias(self):
        x = np.zeros((1, 1, 3, 3))
        k = np.arange(9.0).reshape(1, 1, 3, 3)
        out = T.conv2d(x, k, np.array([2.5]))
        assert np.array_equal(out, np.full((1, 1, 3, 3), 2.5))

    def test_identity_kernel(self, rng):
        x = rng.standard_normal((2, 3, 5, 4))
        k = np.zeros((3, 3, 1, 1))
        for c in range(3):
            k[c, c, 0, 0] = 1.0
        out = T.conv2d(x, k, np.zeros(3))
        assert np.array_equal(out, x)

    def test_all_ones_center_value(self):
        # 3x3 input 0..8, all-ones kernel: center output is the full sum.
        x = np.arange(9.0).reshape(1, 1, 3, 3)
        out = T.conv2d(x, np.ones((1, 1, 3, 3)), np.zeros(1))
        assert out[0, 0, 1, 1] == 36.0

    def test_matches_naive(self, rng):
        x = rng.standard_normal((2, 3, 6, 5))
        k = rng.standard_normal((4, 3, 3, 3))
        b = rng.standard_normal(4)
        got = T.conv2d(x, k, b)
        want = conv2d_naive(x, k, b, 1)
        assert np.allclose(got, want, atol=1e-12)

    @pytest.mark.parametrize("k", [1, 3, 7])
    @pytest.mark.parametrize("cout", [1, 16])
    @pytest.mark.parametrize("cin", [1, 2, 16, 32])
    def test_matches_naive_grid(self, rng, cin, cout, k):
        # non-square images, batch 1 and 3, and one image smaller than 7x7
        for b, h, w in ((1, 5, 9), (3, 4, 3), (1, 3, 5)):
            x = rng.standard_normal((b, cin, h, w))
            kern = rng.standard_normal((cout, cin, k, k))
            bias = rng.standard_normal(cout)
            want = conv2d_naive(x, kern, bias, (k - 1) // 2)
            err = np.abs(T.conv2d(x, kern, bias) - want).max()
            assert err <= 1e-12 * np.abs(want).max(), (b, h, w, err)

    @given(
        st.sampled_from([1, 3]),
        st.sampled_from([1, 2, 16]),
        st.sampled_from([1, 16]),
        st.sampled_from([1, 3, 5, 7]),
        st.integers(1, 24),
        st.integers(1, 24),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_matches_naive_property(self, b, cin, cout, k, h, w, seed):
        # Reaches the last tap's slice into the extra zero row, and images
        # narrower or shorter than the kernel.
        g = np.random.default_rng(seed)
        x = g.standard_normal((b, cin, h, w))
        kern = g.standard_normal((cout, cin, k, k))
        bias = g.standard_normal(cout)
        want = conv2d_naive(x, kern, bias, (k - 1) // 2)
        err = np.abs(T.conv2d(x, kern, bias) - want).max()
        assert err <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("k", [3, 7])
    @pytest.mark.parametrize("cout", [1, 16])
    @pytest.mark.parametrize("cin", [1, 2, 16])
    def test_batch_rows_and_strided_input(self, rng, cin, cout, k):
        # IFI's spatial gate stacks [LH; HL; HH] along the batch, so each
        # image's result must not depend on the others in its batch; and a
        # strided view must give the bits of its contiguous copy.
        big = rng.standard_normal((3, cin, 22, 33))
        x = big[:, :, ::2, ::3]
        kern = rng.standard_normal((cout, cin, k, k))
        bias = rng.standard_normal(cout)
        out = T.conv2d(x, kern, bias)
        assert out.flags.c_contiguous
        assert np.array_equal(out, T.conv2d(np.ascontiguousarray(x), kern, bias))
        for i in range(3):
            assert np.array_equal(out[i : i + 1], T.conv2d(x[i : i + 1], kern, bias))

    def test_linearity(self, rng):
        x = rng.standard_normal((1, 2, 8, 8))
        y = rng.standard_normal((1, 2, 8, 8))
        k = rng.standard_normal((3, 2, 3, 3))
        zero_b = np.zeros(3)
        lhs = T.conv2d(2.0 * x + 3.0 * y, k, zero_b)
        rhs = 2.0 * T.conv2d(x, k, zero_b) + 3.0 * T.conv2d(y, k, zero_b)
        assert np.abs(lhs - rhs).max() < 1e-9


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

    def test_in_place_matches_oracle(self, rng):
        # softmax_rows normalises a contiguous float64 argument in place.
        m = rng.standard_normal((2, 3, 5, 7)) * 10
        before = m.copy()
        out = T.softmax_rows(m)
        assert out is m
        np.testing.assert_allclose(out, softmax_naive(before), rtol=1e-14, atol=0)
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, rtol=1e-14, atol=0)

    def test_copied_inputs_give_formula_values(self, rng):
        m = rng.standard_normal((7, 5)) * 10
        before = m.copy()
        out = T.softmax_rows(m.T)
        assert np.array_equal(m, before)
        np.testing.assert_allclose(out, softmax_naive(before.T), rtol=1e-14, atol=0)
        ints = np.arange(-6, 6).reshape(3, 4)
        np.testing.assert_allclose(T.softmax_rows(ints), softmax_naive(ints), rtol=1e-14, atol=0)

    @pytest.mark.parametrize("row", [
        np.r_[1000.0, np.zeros(7)],  # exp(1000) overflows
        -710.0 - np.arange(64.0),  # every exp underflows
        np.full(1000, 699.0),  # each logit above 700 - ln n
        np.full(2**15, 699.5),  # each exp finite, their sum not
    ], ids=["large", "underflow", "near_bound", "sum_overflows"])
    def test_rows_outside_the_gate_are_shifted(self, rng, row):
        # One such row sends the whole array through the max-subtracted form;
        # an overflow or a division by zero would raise, as the suite turns
        # warnings into errors.
        m = np.stack([rng.standard_normal(row.size), row])
        want = softmax_naive(m)
        out = T.softmax_rows(m)
        np.testing.assert_allclose(out, want, rtol=1e-14, atol=0)
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, rtol=1e-14, atol=0)

    def test_no_rows(self):
        m = np.empty((0, 5))
        assert T.softmax_rows(m) is m
        assert T.softmax_rows(np.empty((2, 0, 3))).shape == (2, 0, 3)


class TestLayerNorm:
    # layer_norm normalises the channel axis (1) of a (B, C, H, W) tensor.
    def test_constant_row_zeroed(self):
        x = np.full((2, 4, 3, 2), 3.7)
        out = T.layer_norm(x, np.ones(4), np.zeros(4))
        assert np.abs(out).max() < 1e-9

    def test_already_normalized(self):
        x = np.array([-1.0, 1.0]).reshape(1, 2, 1, 1)
        out = T.layer_norm(x, np.ones(2), np.zeros(2), eps=1e-300)
        assert np.allclose(out, x, atol=1e-9)

    def test_degenerate_affine(self, rng):
        x = rng.standard_normal((3, 5, 2, 4))
        out = T.layer_norm(x, np.zeros(5), np.full(5, 1.25))
        assert np.array_equal(out, np.full((3, 5, 2, 4), 1.25))

    def test_mean_zero_var_one(self, rng):
        x = rng.standard_normal((2, 16, 5, 3)) * 5 + 2
        out = T.layer_norm(x, np.ones(16), np.zeros(16), eps=1e-12)
        assert np.abs(out.mean(axis=1)).max() < 1e-9
        assert np.abs(out.var(axis=1) - 1.0).max() < 1e-9

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_shift_and_scale_invariance(self, seed):
        g = np.random.default_rng(seed)
        x = g.standard_normal((2, 8, 3, 2))
        base = T.layer_norm(x, np.ones(8), np.zeros(8), eps=1e-12)
        moved = T.layer_norm(3.0 * x + 7.0, np.ones(8), np.zeros(8), eps=1e-12)
        assert np.abs(base - moved).max() < 1e-6

    def test_matches_loop_oracle(self, rng):
        x = rng.standard_normal((2, 6, 5, 3)) * 3 + 1
        gain, shift = rng.standard_normal((2, 6))
        want = layer_norm_naive(x, gain, shift)
        assert np.abs(T.layer_norm(x, gain, shift) - want).max() <= 1e-12


class TestPoolAndElementwise:
    def test_leaky_relu(self):
        assert T.leaky_relu(np.array(-1.0), 0.1) == -0.1
        assert T.leaky_relu(np.array(2.0), 0.1) == 2.0
        # the same bits as the two-branch definition, on every special value
        tiny = np.finfo(np.float64).smallest_subnormal
        x = np.array([0.0, -0.0, tiny, -tiny, np.inf, -np.inf, np.nan, -3.5, 3.5])
        before = x.copy()
        got = T.leaky_relu(x, 0.1)
        assert np.array_equal(x, before, equal_nan=True)  # the input is not written
        want = np.where(x >= 0.0, x, 0.1 * x)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_sigmoid(self):
        assert T.sigmoid(np.array(0.0)) == 0.5
        big = T.sigmoid(np.array([800.0, -800.0]))
        assert np.isfinite(big).all()
        assert big[0] > 1.0 - 1e-12
        assert 0.0 <= big[1] < 1e-12
