from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from quivercoha import DimensionMismatchError, DomainError, HalfSeries, MultiSeries
from quivercoha.quiver import dim_sub, enumerate_dim_vectors, zero_dim

from conftest import agree


@st.composite
def small_series(draw):
    """A series with a window of width -2..8 (below 1: empty, hi < lo) or
    exact (hi None), its terms inserted in a random exponent order."""
    lo = draw(st.integers(-4, 2))
    width = draw(st.integers(-2, 8))
    exponents = draw(st.permutations(range(lo, lo + max(width, 0) + 1)))
    coeffs = {}
    for k in exponents:
        if draw(st.booleans()):
            coeffs[k] = Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 3)))
    hi = None if draw(st.booleans()) else lo + width
    return HalfSeries(coeffs, lo, hi)


# 1-, 2- and 3-vertex boxes, zero entries such as (0, 2, 1) among them
BOXES = st.lists(st.integers(0, 2), min_size=1, max_size=3).map(tuple)


@st.composite
def small_multiseries(draw, gamma_max):
    """A series on the box gamma_max whose x^0 piece is exactly 1 and whose
    other pieces are absent or drawn by ``small_series``."""
    pieces = {zero_dim(len(gamma_max)): HalfSeries.one()}
    for g in enumerate_dim_vectors(gamma_max):
        if draw(st.booleans()):
            pieces[g] = draw(small_series())
    return MultiSeries(gamma_max, pieces)


# -- test-side references: every term pair, then the window rule ------------

def _window_min(*his):
    his = [h for h in his if h is not None]
    return min(his) if his else None


def _brute_product(a, b):
    """a * b over all term pairs, cut to hi = min(hi_a + lo_b, hi_b + lo_a)."""
    hi = _window_min(None if a.hi is None else a.hi + b.lo,
                     None if b.hi is None else b.hi + a.lo)
    out = {}
    for k1, c1 in a.coeffs.items():
        for k2, c2 in b.coeffs.items():
            out[k1 + k2] = out.get(k1 + k2, 0) + c1 * c2
    return HalfSeries({k: c for k, c in out.items() if hi is None or k <= hi},
                      a.lo + b.lo, hi)


def _brute_sum(terms):
    """The sum of series certified up to the least hi of the terms."""
    hi = _window_min(*(t.hi for t in terms))
    out = {}
    for t in terms:
        for k, c in t.coeffs.items():
            out[k] = out.get(k, 0) + c
    return HalfSeries({k: c for k, c in out.items() if hi is None or k <= hi},
                      min(t.lo for t in terms), hi)


def _convolution_piece(a_pieces, b_pieces, g):
    """sum of a_d b_(g-d) over every stored a_d with d <= g: a scan of the
    whole box, independent of the sub-box walk of ``MultiSeries``."""
    terms = [_brute_product(s, b_pieces[dim_sub(g, d)]) for d, s in a_pieces.items()
             if all(x <= y for x, y in zip(d, g)) and dim_sub(g, d) in b_pieces]
    return _brute_sum(terms) if terms else None


# -- examples -------------------------------------------------------------------

def test_window_bookkeeping_product_rule():
    a = HalfSeries({k: 1 for k in range(0, 5)}, 0, 4)
    b = HalfSeries({k: 1 for k in range(0, 3)}, 0, 2)
    prod = a * b
    # certainty stops at min(hi1 + lo2, hi2 + lo1) even though support goes on
    assert prod.window() == (0, 2)
    wide_a = HalfSeries({k: 1 for k in range(0, 9)}, 0, 8)
    wide_b = HalfSeries({k: 1 for k in range(0, 9)}, 0, 8)
    assert agree(wide_a * wide_b, prod)


def test_adding_a_scalar_is_a_type_error():
    # a scalar has no window: adding 0 once lowered lo to 0, so s + 0 != s
    s = HalfSeries({5: 1}, 5, 10)
    for add in (lambda: s + 0, lambda: 0 + s, lambda: s - 1, lambda: 1 - s,
                lambda: s + Fraction(1, 2), lambda: sum([s])):
        with pytest.raises(TypeError):
            add()
    assert s + HalfSeries.zero(5, 10) == s
    assert s - s == HalfSeries.zero(5, 10)


def test_scalar_product_takes_an_int_only():
    # the series route is integral, so a scalar is an int; any other operand
    # that is not a series is a TypeError, as for +
    s = HalfSeries({5: 1, 6: -2}, 5, 10)
    assert 3 * s == s * 3 == HalfSeries({5: 3, 6: -6}, 5, 10)
    assert s * 0 == HalfSeries.zero(5, 10)
    for mul in (lambda: s * Fraction(1, 2), lambda: Fraction(1, 2) * s, lambda: s * "2"):
        with pytest.raises(TypeError):
            mul()


def test_coeff_outside_window_raises():
    s = HalfSeries({0: 1}, 0, 4)
    assert s.coeff(4) == 0
    assert s.coeff(-3) == 0   # below the order bound: certainly zero
    with pytest.raises(DomainError):
        s.coeff(5)


# -- properties -------------------------------------------------------------------

@given(small_series(), small_series(), small_series())
def test_ring_axioms_on_common_windows(a, b, c):
    assert agree((a + b) + c, a + (b + c))
    assert agree(a * b, b * a)
    assert agree((a * b) * c, a * (b * c))
    assert agree(a * (b + c), a * b + a * c)


@given(small_series())
def test_window_soundness_recompute_wider(s):
    # recomputing a product against a wider partner agrees on the narrow window
    partner_narrow = HalfSeries({0: 1, 1: -2}, 0, 3)
    partner_wide = HalfSeries({0: 1, 1: -2}, 0, 30)
    assert agree(s * partner_narrow, s * partner_wide)


@given(small_series(), small_series())
def test_product_equals_all_pairs_reference(a, b):
    # HalfSeries == compares lo, hi and coefficients: window and terms exactly,
    # also for exact series and empty windows
    assert a * b == _brute_product(a, b)
    assert b * a == _brute_product(b, a)


# -- MultiSeries -------------------------------------------------------------------

def test_multiseries_product_convolves_pieces():
    gmax = (2,)
    a = MultiSeries(gmax, {(0,): HalfSeries.one(),
                           (1,): HalfSeries({1: 1}, 1, None)})
    b = MultiSeries(gmax, {(0,): HalfSeries.one(),
                           (1,): HalfSeries({-1: 1}, -1, None)})
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
                assert agree(prod.piece(g), HalfSeries.zero()), g


def test_multiseries_rejects_out_of_box_pieces():
    with pytest.raises(DomainError):
        MultiSeries((1,), {(2,): HalfSeries.one()})


@pytest.mark.parametrize("key, error", [
    ((1,), DimensionMismatchError),
    ((1, 0, 7), DimensionMismatchError),
    ((), DimensionMismatchError),
    ((-1, 1), DomainError),
    ((0, 3), DomainError),
])
def test_multiseries_keys_are_dimension_vectors_of_the_box(key, error):
    # a box test that zips and truncates passes (1,) and (1, 0, 7) as if
    # they were (1, 0); the length is checked first
    one = HalfSeries.one()
    with pytest.raises(error):
        MultiSeries((2, 2), {(0, 0): one, key: HalfSeries({0: 5}, 0, None)})
    with pytest.raises(error):
        MultiSeries((2, 2), {(0, 0): one}).piece(key)


# a 3-vertex series with a zero box entry and a gap at (0, 1, 1)
_ZERO_ENTRY = MultiSeries((0, 2, 1), {
    (0, 0, 0): HalfSeries.one(),
    (0, 1, 0): HalfSeries({-1: 2, 3: 1}, -1, 9),
    (0, 0, 1): HalfSeries({1: Fraction(1, 2)}, 1, None),
    (0, 2, 0): HalfSeries({0: -1}, 0, 10),
    (0, 2, 1): HalfSeries({2: 3, 4: -1}, 2, 12),
})


@given(BOXES.flatmap(lambda box: st.tuples(small_multiseries(box),
                                           small_multiseries(box))))
@example((_ZERO_ENTRY, _ZERO_ENTRY))
def test_multiseries_product_equals_piecewise_reference(pair):
    a, b = pair
    ref = {}
    for g in a.domain():
        piece = _convolution_piece(a.pieces, b.pieces, g)
        if piece is not None:
            ref[g] = piece
    # HalfSeries == compares lo, hi and coefficients
    assert (a * b).pieces == ref


@given(BOXES.flatmap(small_multiseries))
@example(_ZERO_ENTRY)
def test_multiseries_inverse_equals_piecewise_reference(a):
    g0 = zero_dim(len(a.gamma_max))
    others = {d: s for d, s in a.pieces.items() if d != g0}
    ref = {g0: HalfSeries.one()}
    for g in a.domain():
        if g == g0:
            continue
        piece = _convolution_piece(others, ref, g)
        if piece is not None:
            ref[g] = -piece
    assert a.inverse().pieces == ref
