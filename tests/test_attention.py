from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import channel_gate_naive, cross_modal_attention_naive, spatial_gate_naive
from wavefuse import attention as att
from wavefuse.tensor import softmax_rows


def random_params(rng, c=8):
    """(wq, wk, wv, wo), each (c, c)."""
    return tuple(rng.standard_normal((c, c)) for _ in range(4))


def random_cbam(rng, c=8, r=2):
    """(ca_w1, ca_w2, sa_w, sa_b)."""
    return (
        rng.standard_normal((c // r, c)),
        rng.standard_normal((c, c // r)),
        rng.standard_normal((1, 2, 7, 7)),
        rng.standard_normal(1),
    )


def zero_cbam(c=8, r=2):
    return (np.zeros((c // r, c)), np.zeros((c, c // r)), np.zeros((1, 2, 7, 7)), np.zeros(1))


def cross_modal(x1, x2, p1, p2, heads, w, shift, route):
    """cross_modal_attention on the window tokens of two (B, C, H, W) tensors."""
    toks = (att.window_partition(x, w, shift) for x in (x1, x2))
    return att.cross_modal_attention(*toks, p1, p2, heads, route)


def oracle_params(w, heads):
    """The attribute bag the loop oracle reads."""
    return SimpleNamespace(heads=heads, **dict(zip(("wq", "wk", "wv", "wo"), w)))


class TestWindows:
    def test_single_window(self, rng):
        x = rng.standard_normal((1, 1, 8, 8))
        tok = att.window_partition(x, 8, 0)
        assert tok.tokens.shape == (1, 64, 1)

    def test_merge_is_inverse(self, rng):
        # batches, channels, non-square sides and several windows per side
        for shape, w in (
            ((2, 3, 16, 8), 8),
            ((3, 2, 12, 20), 4),
            ((2, 5, 8, 24), 8),
            ((1, 4, 6, 10), 2),
            ((1, 1, 3, 3), 3),
        ):
            x = rng.standard_normal(shape)
            for shift in (0, w // 2):
                tok = att.window_partition(x, w, shift)
                assert tok.tokens.shape == (x.size // (w * w * shape[1]), w * w, shape[1])
                merged = att.window_merge(tok)
                assert np.array_equal(merged, x), (shape, w, shift)

    def test_window_indexing(self, rng):
        x = rng.standard_normal((1, 1, 8, 8))
        tok = att.window_partition(x, 4, 0)
        assert tok.tokens.shape[0] == 4
        # window 3 is the bottom-right tile; its first token is pixel (4,4)
        assert tok.tokens[3, 0, 0] == x[0, 0, 4, 4]


class TestMhsa:
    def test_zero_values_zero_output(self, rng):
        x = rng.standard_normal((1, 8, 8, 8))
        tok = att.window_partition(x, 4, 0)
        wq, wk, _, wo = random_params(rng)
        out = att.mhsa(tok, tok, (wq, wk, np.zeros((8, 8)), wo), 2)
        assert np.abs(out.tokens).max() == 0.0

    def test_single_token_window(self, rng):
        x = rng.standard_normal((1, 8, 1, 1))
        tok = att.window_partition(x, 1, 0)
        p = random_params(rng)
        out = att.mhsa(tok, tok, p, 2)
        want = x[0, :, 0, 0] @ p[2] @ p[3]
        assert np.allclose(out.tokens[0, 0], want, atol=1e-12)

    def test_attention_rows_sum_to_one(self, rng):
        # recompute the attention matrix the same way mhsa builds it
        x = rng.standard_normal((1, 8, 8, 8))
        tok = att.window_partition(x, 4, 0)
        wq, wk, _, _ = random_params(rng)
        q = (tok.tokens @ wq).reshape(4, 16, 2, 4).transpose(0, 2, 1, 3)
        k = (tok.tokens @ wk).reshape(4, 16, 2, 4).transpose(0, 2, 1, 3)
        attn = softmax_rows(q @ k.transpose(0, 1, 3, 2) / 2.0)
        assert np.abs(attn.sum(axis=-1) - 1.0).max() < 1e-12

    def test_permutation_equivariance(self, rng):
        x = rng.standard_normal((1, 8, 4, 4))
        tok = att.window_partition(x, 4, 0)
        p = random_params(rng)
        base = att.mhsa(tok, tok, p, 2).tokens
        perm = rng.permutation(16)
        from dataclasses import replace

        tok_p = replace(tok, tokens=tok.tokens[:, perm, :])
        out_p = att.mhsa(tok_p, tok_p, p, 2).tokens
        assert np.allclose(out_p, base[:, perm, :], atol=1e-12)


class TestCrossModalAttention:
    def plain_self_attention(self, x, p, w, shift):
        tok = att.window_partition(x, w, shift)
        return att.window_merge(att.mhsa(tok, tok, p, 2))

    def test_identical_inputs_reduce_to_self_attention(self, rng):
        x = rng.standard_normal((1, 8, 8, 8))
        p = random_params(rng)
        o1, o2 = cross_modal(x, x.copy(), p, p, 2, 4, 0, "qv")
        want = self.plain_self_attention(x, p, 4, 0)
        assert np.abs(o1 - want).max() < 1e-12
        assert np.abs(o2 - want).max() < 1e-12

    def test_swap_symmetry(self, rng):
        x1 = rng.standard_normal((1, 8, 8, 8))
        x2 = rng.standard_normal((1, 8, 8, 8))
        p1, p2 = random_params(rng), random_params(rng)
        a1, a2 = cross_modal(x1, x2, p1, p2, 2, 4, 0, "qv")
        b1, b2 = cross_modal(x2, x1, p2, p1, 2, 4, 0, "qv")
        assert np.array_equal(a1, b2) and np.array_equal(a2, b1)

    def test_zero_v2_zeroes_first_output(self, rng):
        x1 = rng.standard_normal((1, 8, 8, 8))
        x2 = rng.standard_normal((1, 8, 8, 8))
        p1, p2 = random_params(rng), random_params(rng)
        p2 = (p2[0], p2[1], np.zeros((8, 8)), p2[3])
        o1, o2 = cross_modal(x1, x2, p1, p2, 2, 4, 0, route="qv")
        assert np.abs(o1).max() == 0.0
        assert np.abs(o2).max() > 0.0

    @pytest.mark.parametrize("route", ["qv", "k"])
    @pytest.mark.parametrize("shift", [0, 2])
    def test_matches_loop_oracle(self, rng, route, shift):
        # a non-square grid of 2x3 windows, so the cyclic shift changes which
        # pixels share a window; head dims 8, 4 and 2, so the 1/sqrt(d) folded
        # into wq is exact (d = 4) and inexact (d = 2, 8)
        x1 = rng.standard_normal((2, 8, 8, 12))
        x2 = rng.standard_normal((2, 8, 8, 12))
        for heads in (1, 2, 4):
            p1, p2 = random_params(rng), random_params(rng)
            got = cross_modal(x1, x2, p1, p2, heads, 4, shift, route)
            want = cross_modal_attention_naive(
                x1, x2, oracle_params(p1, heads), oracle_params(p2, heads), 4, shift, route
            )
            for g, w in zip(got, want):
                assert np.abs(g - w).max() <= 1e-12, heads

    def test_k_route_swaps_outputs(self, rng):
        x1 = rng.standard_normal((1, 8, 8, 8))
        x2 = rng.standard_normal((1, 8, 8, 8))
        p1, p2 = random_params(rng), random_params(rng)
        qv = cross_modal(x1, x2, p1, p2, 2, 4, 0, route="qv")
        k = cross_modal(x1, x2, p1, p2, 2, 4, 0, route="k")
        assert np.array_equal(qv[0], k[1]) and np.array_equal(qv[1], k[0])


def stream1(low, high, g):
    """Stream 1 of frequency_interaction, (CA(low), SA(high)), under gates g."""
    s1, _ = att.frequency_interaction(low, np.zeros_like(low), np.zeros_like(high), high, g, g)
    return s1


class TestCbam:
    # The gates, one at a time: zero weights make the other gate 1/2.
    def test_zero_mlp_half_gate(self, rng):
        x = rng.standard_normal((2, 8, 4, 4))
        high = rng.standard_normal((6, 8, 4, 4))
        ca, _ = stream1(x, high, (*zero_cbam()[:2], *random_cbam(rng)[2:]))
        assert np.allclose(ca, x / 2.0, atol=1e-15)

    def test_zero_input(self, rng):
        high = rng.standard_normal((3, 8, 4, 4))
        ca, sa = stream1(np.zeros((1, 8, 4, 4)), high, (*random_cbam(rng)[:2], *zero_cbam()[2:]))
        assert np.abs(ca).max() == 0.0
        assert np.array_equal(sa, high / 2)

    def test_constant_input_gate(self, rng):
        w1, w2, _, _ = random_cbam(rng)
        x = np.full((1, 8, 5, 5), 0.3)
        high = rng.standard_normal((3, 8, 5, 5))
        ca, sa = stream1(x, high, (w1, w2, *zero_cbam()[2:]))
        # avg-pool equals max-pool on constants, so the gate is sigmoid(2*MLP(c))
        v = np.full(8, 0.3)
        mlp = np.maximum(v @ w1.T, 0.0) @ w2.T
        gate = 1.0 / (1.0 + np.exp(-2.0 * mlp))
        assert np.allclose(ca[0, :, 0, 0], 0.3 * gate, atol=1e-12)
        assert np.array_equal(sa, high / 2)

    def test_spatial_zero_conv_half_gate(self, rng):
        low = rng.standard_normal((1, 8, 6, 6))
        x = rng.standard_normal((1, 8, 6, 6))
        _, sa = stream1(low, x, (*random_cbam(rng)[:2], *zero_cbam()[2:]))
        assert np.allclose(sa, x / 2.0, atol=1e-15)

    def test_spatial_constant_gate(self, rng):
        _, _, w, b = random_cbam(rng)
        low = rng.standard_normal((1, 8, 9, 9))
        x = np.full((1, 8, 9, 9), 0.4)
        ca, sa = stream1(low, x, (*zero_cbam()[:2], w, b))
        center = sa[0, 0, 4, 4]
        assert abs(sa[0, 0, 4, 3] - center) < 1e-12
        assert np.array_equal(ca, low / 2)

    def test_matches_loop_oracles(self, rng):
        low = rng.standard_normal((2, 8, 5, 6))
        high = rng.standard_normal((6, 8, 5, 6))
        g = random_cbam(rng)
        ca, sa = stream1(low, high, g)
        assert np.abs(ca - channel_gate_naive(low, *g[:2])).max() <= 1e-12
        assert np.abs(sa - spatial_gate_naive(high, *g[2:])).max() <= 1e-12


class TestFrequencyInteraction:
    def test_zero_params_half_gates(self, rng):
        low1 = rng.standard_normal((1, 8, 4, 4))
        low2 = rng.standard_normal((1, 8, 4, 4))
        high1 = rng.standard_normal((3, 8, 4, 4))
        high2 = rng.standard_normal((3, 8, 4, 4))
        s1, s2 = att.frequency_interaction(
            low1, low2, high1, high2, zero_cbam(), zero_cbam()
        )
        # each stream is a (low, packed high) pair; a zero gate is sigmoid(0) = 1/2
        assert np.array_equal(s1[0], low1 / 2) and np.array_equal(s1[1], high2 / 2)
        assert np.array_equal(s2[0], low2 / 2) and np.array_equal(s2[1], high1 / 2)

    def test_identical_modalities_identical_streams(self, rng):
        low = rng.standard_normal((1, 8, 4, 4))
        high = rng.standard_normal((3, 8, 4, 4))
        p = random_cbam(rng)
        s1, s2 = att.frequency_interaction(low, low.copy(), high, high.copy(), p, p)
        assert np.array_equal(s1[0], s2[0]) and np.array_equal(s1[1], s2[1])

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_zero_injection(self, seed):
        g = np.random.default_rng(seed)
        low1, low2 = g.standard_normal((2, 1, 8, 4, 4))
        high1, high2 = g.standard_normal((2, 3, 8, 4, 4))
        p1, p2 = random_cbam(g), random_cbam(g)
        s1, _ = att.frequency_interaction(low1, low2, high1, high2, p1, p2)
        s1_b, _ = att.frequency_interaction(
            low1, low2 + g.standard_normal(low2.shape), high1 + 1.0, high2, p1, p2
        )
        assert np.array_equal(s1[0], s1_b[0]) and np.array_equal(s1[1], s1_b[1])
