import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import dwt2_naive
from wavefuse.errors import ShapeError
from wavefuse.wavelet import dwt2, iwt2


def test_constant_image():
    x = np.full((1, 1, 4, 4), 3.0)
    ll, *details = dwt2(x)
    assert np.allclose(ll, 6.0)
    for band in details:
        assert np.abs(band).max() == 0.0


def test_single_block_impulse():
    x = np.zeros((1, 1, 2, 2))
    x[0, 0, 0, 0] = 1.0
    assert tuple(dwt2(x)[:, 0, 0, 0, 0]) == (0.5, 0.5, 0.5, 0.5)


def test_horizontal_step():
    x = np.array([[1.0, 1.0], [0.0, 0.0]]).reshape(1, 1, 2, 2)
    ll, lh, hl, hh = dwt2(x)[:, 0, 0, 0, 0]
    assert ll == 1.0
    assert lh == 1.0
    assert hl == 0.0
    assert hh == 0.0


def test_matches_naive(rng):
    x = rng.standard_normal((2, 2, 6, 8))
    for got, want in zip(dwt2(x), dwt2_naive(x)):
        assert np.allclose(got, want, atol=1e-14)


def test_perfect_reconstruction(rng):
    x = rng.standard_normal((1, 1, 16, 16))
    assert np.abs(iwt2(dwt2(x)) - x).max() < 1e-12


def test_zero_subbands():
    z = np.zeros((1, 1, 2, 2))
    assert np.abs(iwt2((z, z, z, z))).max() == 0.0


def test_ll_only_constant():
    z = np.zeros((1, 1, 2, 2))
    out = iwt2((np.full((1, 1, 2, 2), 2.0), z, z, z))
    assert np.allclose(out, 1.0)


def test_odd_dims_rejected(rng):
    with pytest.raises(ShapeError, match="pad"):
        dwt2(rng.standard_normal((1, 1, 5, 4)))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_reconstruction_and_energy_property(seed):
    x = np.random.default_rng(seed).standard_normal((1, 2, 8, 10))
    s = dwt2(x)
    assert np.abs(iwt2(s) - x).max() < 1e-12
    e_in = (x**2).sum()
    e_out = sum((p**2).sum() for p in s)
    assert abs(e_out - e_in) <= 1e-9 * e_in


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_linearity(seed):
    g = np.random.default_rng(seed)
    x = g.standard_normal((1, 1, 6, 6))
    y = g.standard_normal((1, 1, 6, 6))
    s = dwt2(2.0 * x - 0.5 * y)
    sx, sy = dwt2(x), dwt2(y)
    for lhs, bx, by in zip(s, sx, sy):
        assert np.abs(lhs - (2.0 * bx - 0.5 * by)).max() < 1e-12


def test_band_major_layout_matches_naive(rng):
    x = rng.standard_normal((2, 3, 8, 10))
    s = dwt2(x)
    assert s.shape == (4, 2, 3, 4, 5)
    assert s.dtype == np.float64
    for k, want in enumerate(dwt2_naive(x)):  # LL, LH, HL, HH
        assert np.array_equal(s[k], want)


def test_iwt2_inverts_array_and_tuple(rng):
    x = rng.standard_normal((2, 3, 8, 10))
    s = dwt2(x)
    assert np.abs(iwt2(s) - x).max() < 1e-12
    assert np.abs(iwt2(tuple(b.copy() for b in s)) - x).max() < 1e-12


def test_detail_bands_stack_along_batch_as_a_view(rng):
    x = rng.standard_normal((2, 3, 8, 10))
    s = dwt2(x)
    high = s[1:].reshape(3 * 2, 3, 4, 5)
    assert np.shares_memory(high, s)
    for k in range(3):  # batch blocks [LH; HL; HH]
        assert np.array_equal(high[2 * k : 2 * k + 2], s[k + 1])
