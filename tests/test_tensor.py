import multiprocessing
import os
import threading
import time
import tracemalloc
from types import SimpleNamespace

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

    @pytest.mark.parametrize("b, cin, cout, k, h, w, rows", [
        (1, 16, 16, 3, 13, 10, 4),  # four strips, the last of one row
        (3, 2, 1, 7, 11, 9, 8),  # IFI's spatial gate: B = 3, strips of 8 and 3 rows
        (3, 1, 16, 3, 6, 8, 8),  # one strip per image
        (1, 16, 1, 3, 5, 6, 8),  # one strip, so one lane
    ], ids=["ragged", "gate", "strip_per_image", "single_strip"])
    def test_two_lanes_match_one(self, rng, monkeypatch, b, cin, cout, k, h, w, rows):
        # _STRIP set to `rows` rows of column buffer; every strip is a unit
        # of the lanes, which must leave every bit as one lane computes it.
        x = rng.standard_normal((b, cin, h, w))
        kern = rng.standard_normal((cout, cin, k, k))
        bias = rng.standard_normal(cout)
        monkeypatch.setattr(T, "_STRIP", rows * cin * k * k * (w + k - 1))
        usable_cpus(monkeypatch, 1)
        want = T.conv2d(x, kern, bias)
        usable_cpus(monkeypatch, 2)
        monkeypatch.setattr(T, "_SPLIT", 1)
        monkeypatch.setattr(T, "threading", SimpleNamespace(Thread=CountedThread))
        CountedThread.started = 0
        assert np.array_equal(T.conv2d(x, kern, bias), want)
        assert CountedThread.started == int(b * -(-h // rows) > 1)
        err = np.abs(want - conv2d_naive(x, kern, bias, (k - 1) // 2)).max()
        assert err <= 1e-12 * np.abs(want).max()

    def test_small_image_allocates_no_whole_strip(self, rng):
        # A strip holds at most h rows: the first layer's column buffer on a
        # 16 x 16 image is 9 x 16 x 18 elements, not the 1 MiB of a full strip.
        x = rng.standard_normal((1, 1, 16, 16))
        kern = rng.standard_normal((16, 1, 3, 3))
        tracemalloc.start()
        try:
            T.conv2d(x, kern, np.zeros(16))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * T._STRIP

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
        # The gate acts per block: one such row sends its whole block (here
        # the whole array) through the max-subtracted form; an overflow or a
        # division by zero would raise, as the suite turns warnings into
        # errors.
        m = np.stack([rng.standard_normal(row.size), row])
        want = softmax_naive(m)
        out = T.softmax_rows(m)
        np.testing.assert_allclose(out, want, rtol=1e-14, atol=0)
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, rtol=1e-14, atol=0)

    def test_no_rows(self):
        m = np.empty((0, 5))
        assert T.softmax_rows(m) is m
        assert T.softmax_rows(np.empty((2, 0, 3))).shape == (2, 0, 3)


def usable_cpus(monkeypatch, n):
    """Make _lanes see n usable CPUs, whatever the host has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


class CountedThread(threading.Thread):
    started = 0

    def start(self):
        CountedThread.started += 1
        super().start()


class TestLanes:
    @pytest.mark.parametrize("windows", [1, 3, 7])
    def test_two_lanes_match_one(self, rng, monkeypatch, windows):
        # Blocks of 24 rows of 64: 11, 32 and 75 blocks, the first and last
        # with a short last block, against one block of every row.
        m = rng.standard_normal((windows, 4, 64, 64)) * 10
        usable_cpus(monkeypatch, 2)
        want = T.softmax_rows(m.copy())
        monkeypatch.setattr(T, "_BLOCK", 24 * 64)
        monkeypatch.setattr(T, "_SPLIT", 1)
        monkeypatch.setattr(T, "threading", SimpleNamespace(Thread=CountedThread))
        CountedThread.started = 0
        assert np.array_equal(T.softmax_rows(m.copy()), want)
        assert CountedThread.started == 1

    @pytest.mark.parametrize("n", [7, 64])
    def test_blocks_keep_the_whole_array_bits(self, rng, n):
        # Four blocks, the last one short, give the bits of one pass of each
        # step over all rows. The row count is a multiple of 64, so that the
        # whole array's gemv, split over BLAS threads, groups rows by 4 too.
        m = rng.standard_normal((3 * (T._BLOCK // n // 8 * 8) + 64, n)) * 10
        e = np.exp(m)
        want = e * np.reciprocal(e @ np.ones(n))[:, None]
        assert np.array_equal(T.softmax_rows(m), want)

    def test_worker_exception_propagates(self, monkeypatch):
        usable_cpus(monkeypatch, 2)
        before = set(threading.enumerate())
        halves = []

        def fn(lo, hi):
            halves.append((lo, hi))
            if lo:
                raise KeyError("second half")

        with pytest.raises(KeyError, match="second half"):
            T._lanes(fn, 9, T._SPLIT)
        assert sorted(halves) == [(0, 4), (4, 9)]
        assert set(threading.enumerate()) == before

    @pytest.mark.parametrize("cpus, size, calls", [
        (1, 2**30, [(0, 9)]),
        (2, 2**20 - 1, [(0, 9)]),
        (2, 2**20, [(0, 4), (4, 9)]),
    ], ids=["one_cpu", "below_the_gate", "at_the_gate"])
    def test_split_needs_two_cpus_and_the_gate(self, monkeypatch, cpus, size, calls):
        usable_cpus(monkeypatch, cpus)
        seen = []
        T._lanes(lambda lo, hi: seen.append((lo, hi)), 9, size)
        assert sorted(seen) == calls

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(), reason="needs fork"
    )
    # BLAS threads make Python 3.12+ warn on any fork; the test is that the
    # child's split call still returns.
    @pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
    def test_forked_child_after_split_call(self, rng, monkeypatch):
        # A lane thread left running, or a pool kept across calls, would leave
        # the forked child a dead thread to wait on.
        usable_cpus(monkeypatch, 2)
        monkeypatch.setattr(T, "_BLOCK", 64)
        monkeypatch.setattr(T, "_SPLIT", 1)
        T.softmax_rows(rng.standard_normal((64, 9)))
        child = multiprocessing.get_context("fork").Process(
            target=T.softmax_rows, args=(rng.standard_normal((64, 9)),)
        )
        child.start()
        child.join(30)
        if child.is_alive():
            child.kill()
            child.join()
            pytest.fail("forked child hung in softmax_rows")
        assert child.exitcode == 0


@pytest.mark.skipif(T._BLAS_THREADS is None, reason="needs numpy's bundled OpenBLAS")
def test_overlapping_blas_scopes_restore_the_count_once():
    # Eight threads, more than the cores, enter and leave the scope, nested
    # too, and yield the interpreter inside it: inside, every one reads one
    # BLAS thread; after the last leaves, the count is the caller's again.
    get, put = T._BLAS_THREADS
    before, inside, start = get(), [], threading.Barrier(8)

    def worker():
        start.wait(60)
        for _ in range(200):
            with T._one_blas_thread():
                with T._one_blas_thread():
                    time.sleep(0)
                    inside.append(get())
                inside.append(get())

    try:
        put(before + 1)
        count = get()
        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
        assert not any(t.is_alive() for t in threads)
        assert len(inside) == 8 * 400 and set(inside) == {1}
        assert get() == count != 1
    finally:
        put(before)


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
