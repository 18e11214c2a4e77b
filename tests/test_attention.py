import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import cross_modal_attention_naive
from wavefuse import attention as att
from wavefuse.errors import ShapeError
from wavefuse.tensor import softmax_rows


def random_params(rng, c=8, heads=2):
    return att.AttentionParams(
        wq=rng.standard_normal((c, c)),
        wk=rng.standard_normal((c, c)),
        wv=rng.standard_normal((c, c)),
        wo=rng.standard_normal((c, c)),
        heads=heads,
    )


def random_cbam(rng, c=8, r=2):
    return att.CbamParams(
        ca_w1=rng.standard_normal((c // r, c)),
        ca_w2=rng.standard_normal((c, c // r)),
        sa_w=rng.standard_normal((1, 2, 7, 7)),
        sa_b=rng.standard_normal(1),
    )


def zero_cbam(c=8, r=2):
    return att.CbamParams(
        ca_w1=np.zeros((c // r, c)),
        ca_w2=np.zeros((c, c // r)),
        sa_w=np.zeros((1, 2, 7, 7)),
        sa_b=np.zeros(1),
    )


class TestWindows:
    def test_single_window(self, rng):
        x = rng.standard_normal((1, 1, 8, 8))
        tok = att.window_partition(x, 8, 0)
        assert tok.tokens.shape == (1, 64, 1)

    def test_merge_is_inverse(self, rng):
        x = rng.standard_normal((2, 3, 16, 8))
        for shift in (0, 4):
            merged = att.window_merge(att.window_partition(x, 8, shift))
            assert np.array_equal(merged, x)

    def test_window_indexing(self, rng):
        x = rng.standard_normal((1, 1, 8, 8))
        tok = att.window_partition(x, 4, 0)
        assert tok.tokens.shape[0] == 4
        # window 3 is the bottom-right tile; its first token is pixel (4,4)
        assert tok.tokens[3, 0, 0] == x[0, 0, 4, 4]

    def test_bad_window(self, rng):
        x = rng.standard_normal((1, 1, 8, 8))
        with pytest.raises(ShapeError):
            att.window_partition(x, 16, 0)
        with pytest.raises(ShapeError):
            att.window_partition(x, 8, 3)

    def test_non_dividing_window(self, rng):
        with pytest.raises(ShapeError):
            att.window_partition(rng.standard_normal((1, 1, 12, 8)), 8, 0)


class TestMhsa:
    def test_zero_values_zero_output(self, rng):
        x = rng.standard_normal((1, 8, 8, 8))
        tok = att.window_partition(x, 4, 0)
        p = random_params(rng)
        p = att.AttentionParams(p.wq, p.wk, np.zeros((8, 8)), p.wo, p.heads)
        out = att.mhsa(tok, tok, tok, p)
        assert np.abs(out.tokens).max() == 0.0

    def test_single_token_window(self, rng):
        x = rng.standard_normal((1, 8, 1, 1))
        tok = att.window_partition(x, 1, 0)
        p = random_params(rng)
        out = att.mhsa(tok, tok, tok, p)
        want = x[0, :, 0, 0] @ p.wv @ p.wo
        assert np.allclose(out.tokens[0, 0], want, atol=1e-12)

    def test_attention_rows_sum_to_one(self, rng):
        # recompute the attention matrix the same way mhsa builds it
        x = rng.standard_normal((1, 8, 8, 8))
        tok = att.window_partition(x, 4, 0)
        p = random_params(rng)
        q = (tok.tokens @ p.wq).reshape(4, 16, 2, 4).transpose(0, 2, 1, 3)
        k = (tok.tokens @ p.wk).reshape(4, 16, 2, 4).transpose(0, 2, 1, 3)
        attn = softmax_rows(q @ k.transpose(0, 1, 3, 2) / 2.0)
        assert np.abs(attn.sum(axis=-1) - 1.0).max() < 1e-12

    def test_permutation_equivariance(self, rng):
        x = rng.standard_normal((1, 8, 4, 4))
        tok = att.window_partition(x, 4, 0)
        p = random_params(rng)
        base = att.mhsa(tok, tok, tok, p).tokens
        perm = rng.permutation(16)
        from dataclasses import replace

        tok_p = replace(tok, tokens=tok.tokens[:, perm, :])
        out_p = att.mhsa(tok_p, tok_p, tok_p, p).tokens
        assert np.allclose(out_p, base[:, perm, :], atol=1e-12)


class TestCrossModalAttention:
    def plain_self_attention(self, x, p, w, shift):
        tok = att.window_partition(x, w, shift)
        return att.window_merge(att.mhsa(tok, tok, tok, p))

    def test_identical_inputs_reduce_to_self_attention(self, rng):
        x = rng.standard_normal((1, 8, 8, 8))
        p = random_params(rng)
        o1, o2 = att.cross_modal_attention(x, x.copy(), p, p, 4, 0)
        want = self.plain_self_attention(x, p, 4, 0)
        assert np.abs(o1 - want).max() < 1e-12
        assert np.abs(o2 - want).max() < 1e-12

    def test_swap_symmetry(self, rng):
        x1 = rng.standard_normal((1, 8, 8, 8))
        x2 = rng.standard_normal((1, 8, 8, 8))
        p1, p2 = random_params(rng), random_params(rng)
        a1, a2 = att.cross_modal_attention(x1, x2, p1, p2, 4, 0)
        b1, b2 = att.cross_modal_attention(x2, x1, p2, p1, 4, 0)
        assert np.array_equal(a1, b2) and np.array_equal(a2, b1)

    def test_zero_v2_zeroes_first_output(self, rng):
        x1 = rng.standard_normal((1, 8, 8, 8))
        x2 = rng.standard_normal((1, 8, 8, 8))
        p1, p2 = random_params(rng), random_params(rng)
        p2 = att.AttentionParams(p2.wq, p2.wk, np.zeros((8, 8)), p2.wo, p2.heads)
        o1, o2 = att.cross_modal_attention(x1, x2, p1, p2, 4, 0, route="qv")
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
            p1, p2 = random_params(rng, heads=heads), random_params(rng, heads=heads)
            got = att.cross_modal_attention(x1, x2, p1, p2, 4, shift, route)
            want = cross_modal_attention_naive(x1, x2, p1, p2, 4, shift, route)
            for g, w in zip(got, want):
                assert np.abs(g - w).max() <= 1e-12, heads

    def test_k_route_swaps_outputs(self, rng):
        x1 = rng.standard_normal((1, 8, 8, 8))
        x2 = rng.standard_normal((1, 8, 8, 8))
        p1, p2 = random_params(rng), random_params(rng)
        qv = att.cross_modal_attention(x1, x2, p1, p2, 4, 0, route="qv")
        k = att.cross_modal_attention(x1, x2, p1, p2, 4, 0, route="k")
        assert np.array_equal(qv[0], k[1]) and np.array_equal(qv[1], k[0])


class TestCbam:
    def test_zero_mlp_half_gate(self, rng):
        x = rng.standard_normal((2, 8, 4, 4))
        out = att.channel_attention(x, zero_cbam())
        assert np.allclose(out, x / 2.0, atol=1e-15)

    def test_zero_input(self, rng):
        out = att.channel_attention(np.zeros((1, 8, 4, 4)), random_cbam(rng))
        assert np.abs(out).max() == 0.0

    def test_constant_input_gate(self, rng):
        p = random_cbam(rng)
        x = np.full((1, 8, 5, 5), 0.3)
        out = att.channel_attention(x, p)
        # avg-pool equals max-pool on constants, so the gate is sigmoid(2*MLP(c))
        v = np.full(8, 0.3)
        mlp = np.maximum(v @ p.ca_w1.T, 0.0) @ p.ca_w2.T
        gate = 1.0 / (1.0 + np.exp(-2.0 * mlp))
        assert np.allclose(out[0, :, 0, 0], 0.3 * gate, atol=1e-12)

    def test_spatial_zero_conv_half_gate(self, rng):
        x = rng.standard_normal((1, 8, 6, 6))
        out = att.spatial_attention(x, zero_cbam())
        assert np.allclose(out, x / 2.0, atol=1e-15)

    def test_spatial_constant_gate(self, rng):
        p = random_cbam(rng)
        x = np.full((1, 8, 9, 9), 0.4)
        out = att.spatial_attention(x, p)
        center = out[0, 0, 4, 4]
        assert abs(out[0, 0, 4, 3] - center) < 1e-12


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
