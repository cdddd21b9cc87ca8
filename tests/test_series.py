from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from quivercoha import DomainError, HalfSeries, MultiSeries


@st.composite
def small_series(draw):
    lo = draw(st.integers(-4, 2))
    width = draw(st.integers(0, 8))
    hi = lo + width
    coeffs = {}
    for k in range(lo, hi + 1):
        if draw(st.booleans()):
            coeffs[k] = Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 3)))
    return HalfSeries(coeffs, lo, hi)


# -- examples -------------------------------------------------------------------

def test_window_bookkeeping_product_rule():
    a = HalfSeries({k: 1 for k in range(0, 5)}, 0, 4)
    b = HalfSeries({k: 1 for k in range(0, 3)}, 0, 2)
    prod = a * b
    # certainty stops at min(hi1 + lo2, hi2 + lo1) even though support goes on
    assert prod.window() == (0, 2)
    wide_a = HalfSeries({k: 1 for k in range(0, 9)}, 0, 8)
    wide_b = HalfSeries({k: 1 for k in range(0, 9)}, 0, 8)
    assert (wide_a * wide_b).agrees_with(prod)


def test_coeff_outside_window_raises():
    s = HalfSeries({0: 1}, 0, 4)
    assert s.coeff(4) == 0
    assert s.coeff(-3) == 0   # below the order bound: certainly zero
    with pytest.raises(DomainError):
        s.coeff(5)


# -- properties -------------------------------------------------------------------

@given(small_series(), small_series(), small_series())
def test_ring_axioms_on_common_windows(a, b, c):
    assert ((a + b) + c).agrees_with(a + (b + c))
    assert (a * b).agrees_with(b * a)
    assert ((a * b) * c).agrees_with(a * (b * c))
    assert (a * (b + c)).agrees_with(a * b + a * c)


@given(small_series())
def test_window_soundness_recompute_wider(s):
    # recomputing a product against a wider partner agrees on the narrow window
    partner_narrow = HalfSeries({0: 1, 1: -2}, 0, 3)
    partner_wide = HalfSeries({0: 1, 1: -2}, 0, 30)
    assert (s * partner_narrow).agrees_with(s * partner_wide)


# -- MultiSeries -------------------------------------------------------------------

def test_multiseries_product_convolves_pieces():
    gmax = (2,)
    a = MultiSeries(gmax, {(0,): HalfSeries.one(),
                           (1,): HalfSeries.monomial(1)})
    b = MultiSeries(gmax, {(0,): HalfSeries.one(),
                           (1,): HalfSeries.monomial(-1)})
    prod = a * b
    assert prod.piece((0,)).coeffs == {0: 1}
    assert prod.piece((1,)).coeffs == {-1: 1, 1: 1}
    assert prod.piece((2,)).coeffs == {0: 1}


def test_multiseries_inverse_round_trip():
    gmax = (2, 1)
    s = MultiSeries(gmax, {
        (0, 0): HalfSeries.one(),
        (1, 0): HalfSeries({-1: 2, 3: 1}, -1, 9),
        (0, 1): HalfSeries({1: Fraction(1, 2)}, 1, None),
        (2, 0): HalfSeries({0: -1}, 0, 10),
        (2, 1): HalfSeries({2: 3, 4: -1}, 2, 12),
    })
    inv = s.inverse()
    assert inv.piece((0, 0)) == HalfSeries.one()
    for prod in (s * inv, inv * s):
        assert prod.piece((0, 0)) == HalfSeries.one()
        for g in s.domain():
            if any(g):
                assert prod.piece(g).agrees_with(HalfSeries.zero()), g


def test_multiseries_rejects_out_of_box_pieces():
    with pytest.raises(DomainError):
        MultiSeries((1,), {(2,): HalfSeries.one()})


def test_canonical_str():
    s = HalfSeries({-1: Fraction(3, 2), 4: -1}, -1, 8)
    assert s.canonical_str() == "3/2*q^{-1/2} - 1*q^{4/2}"
