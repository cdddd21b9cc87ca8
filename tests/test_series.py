from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from quivercoha import (DomainError, HalfSeries, MultiSeries, build_generating_series,
                        euler_form, plethystic_factor, prim_dims)
from quivercoha.dtseries import _log_derivative
from quivercoha.quiver import dim_abs, dim_sub, enumerate_dim_vectors

from conftest import agree, from_rows, in_order, random_cells, small_series


# 1-, 2- and 3-vertex boxes, zero entries such as (0, 2, 1) among them
BOXES = st.lists(st.integers(0, 2), min_size=1, max_size=3).map(tuple)


@st.composite
def small_multiseries(draw, gamma_max):
    """A series on the box gamma_max whose x^0 piece is 1 on a window [0, h],
    h <= 10, and whose other pieces are drawn by ``small_series``."""
    box = enumerate_dim_vectors(gamma_max, include_zero=True)
    pieces = {box[0]: HalfSeries.one(draw(st.integers(0, 10)))}
    for g in box[1:]:
        pieces[g] = draw(small_series())
    return MultiSeries(gamma_max, pieces)


# -- test-side references: every term pair, then the window rule ------------

def _brute_product(a, b):
    """a * b over all term pairs, cut to hi = min(hi_a + lo_b, hi_b + lo_a)."""
    hi = min(a.hi + b.lo, b.hi + a.lo)
    out = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            out[k1 + k2] = out.get(k1 + k2, 0) + c1 * c2
    return HalfSeries({k: c for k, c in out.items() if k <= hi}, a.lo + b.lo, hi)


def _brute_sum(terms):
    """The sum of series certified up to the least hi of the terms."""
    hi = min(t.hi for t in terms)
    out = {}
    for t in terms:
        for k, c in t.items():
            out[k] = out.get(k, 0) + c
    return HalfSeries({k: c for k, c in out.items() if k <= hi},
                      min(t.lo for t in terms), hi)


def _inverse_reference(a):
    """The pieces of 1/a by out_g = -(1/A_0) sum_(0 < d <= g) A_d out_(g-d),
    where 1/A_0 is 1 on the window [0, h] of A_0 and unknown above it."""
    g0, *rest = enumerate_dim_vectors(a.gamma_max, include_zero=True)
    unit = a.pieces[g0]
    minus_inverse_unit = HalfSeries({0: -1}, 0, unit.hi)
    others = {d: a.pieces[d] for d in rest}
    ref = {g0: unit}
    for g in rest:
        ref[g] = _brute_product(_convolution_piece(others, ref, g), minus_inverse_unit)
    return ref


def _convolution_piece(a_pieces, b_pieces, g):
    """sum of a_d b_(g-d) over every a_d with d <= g: a scan of the whole
    box, independent of the sub-box walk of ``MultiSeries``."""
    return _brute_sum([_brute_product(s, b_pieces[dim_sub(g, d)])
                       for d, s in a_pieces.items() if all(x <= y for x, y in zip(d, g))])


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
    # a scalar has no window (adding 0 once lowered lo to 0, so s + 0 != s),
    # and no two series are added either: HalfSeries defines no + or -
    s = HalfSeries({5: 1}, 5, 10)
    for add in (lambda: s + 0, lambda: 0 + s, lambda: s - 1, lambda: 1 - s,
                lambda: s + Fraction(1, 2), lambda: sum([s])):
        with pytest.raises(TypeError):
            add()


def test_scalar_product_takes_an_int_only():
    # the series route is integral, so a scalar is an int; any other operand
    # that is not a series is a TypeError, as for +
    s = HalfSeries({5: 1, 6: -2}, 5, 10)
    assert 3 * s == s * 3 == HalfSeries({5: 3, 6: -6}, 5, 10)
    assert s * 0 == HalfSeries({}, 5, 10)
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
    assert agree(a * b, b * a)
    assert agree((a * b) * c, a * (b * c))


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


# -- the order invariant: terms ascending, nonzero, inside the window ----------

@given(st.dictionaries(st.integers(-3, 12), st.integers(-2, 2)), st.integers(-2, 12),
       small_series(), small_series(), st.integers(-3, 3))
def test_every_series_keeps_its_terms_in_ascending_order(raw, hi, a, b, n):
    # the constructor sorts an unordered dict, drops zeros and terms above
    # hi, and names the least exponent below lo; every operation keeps order
    below = sorted(k for k in raw if k < 0)
    if below:
        with pytest.raises(DomainError, match=f"stored exponent {below[0]} below"):
            HalfSeries(raw, 0, hi)
        raw = {k: c for k, c in raw.items() if k >= 0}
    built = HalfSeries(raw, 0, hi)
    assert in_order(built)
    assert dict(built.items()) == {k: c for k, c in raw.items() if c and k <= hi}
    for s in (-a, a * b, b * a, a * n, n * a):
        assert in_order(s)


def test_below_window_error_names_the_least_exponent():
    with pytest.raises(DomainError, match=r"^stored exponent -5 below window start 0$"):
        HalfSeries({3: 1, -2: 1, -5: 4, -1: 0}, 0, 4)


@st.composite
def sparse_wide_series(draw):
    """A series with at most five terms on a window up to 1200 wide, which
    may start far below 0: wider and lower than any window of
    ``small_series``."""
    lo = draw(st.integers(-500, 0))
    hi = draw(st.integers(lo, 700))
    exponents = draw(st.lists(st.integers(lo, hi), max_size=5, unique=True))
    return HalfSeries({k: draw(st.integers(-3, 3)) for k in exponents}, lo, hi)


@given(sparse_wide_series(), sparse_wide_series(), sparse_wide_series())
@example(HalfSeries({-500: 1, 700: 2}, -500, 700), HalfSeries({-3: -1, 0: 4}, -3, 200),
         HalfSeries({-1: 2, 5: 1}, -1, 5))
def test_sparse_products_on_wide_windows(a, b, c):
    # a product adds each pair of offsets into a dense list at k1 + k2 +
    # lo1 + lo2 - lo; pairs of factors with different lo share one list in a
    # MultiSeries piece
    assert a * b == _brute_product(a, b)
    x = MultiSeries((2,), {(0,): HalfSeries.one(1000), (1,): a, (2,): b})
    y = MultiSeries((2,), {(0,): HalfSeries.one(1000), (1,): c, (2,): a})
    assert (x * y).pieces == {g: _convolution_piece(x.pieces, y.pieces, g)
                              for g in [(0,), (1,), (2,)]}


# -- MultiSeries -------------------------------------------------------------------

def test_multiseries_product_convolves_pieces():
    gmax = (2,)
    a = MultiSeries(gmax, {(0,): HalfSeries.one(20),
                           (1,): HalfSeries({1: 1}, 1, 20),
                           (2,): HalfSeries({}, 2, 20)})
    b = MultiSeries(gmax, {(0,): HalfSeries.one(20),
                           (1,): HalfSeries({-1: 1}, -1, 20),
                           (2,): HalfSeries({}, -2, 20)})
    prod = a * b
    assert dict(prod.pieces[(0,)].items()) == {0: 1}
    assert dict(prod.pieces[(1,)].items()) == {-1: 1, 1: 1}
    assert dict(prod.pieces[(2,)].items()) == {0: 1}


def test_multiseries_inverse_round_trip():
    gmax = (2, 1)
    s = MultiSeries(gmax, {
        (0, 0): HalfSeries.one(12),
        (1, 0): HalfSeries({-1: 2, 3: 1}, -1, 9),
        (0, 1): HalfSeries({1: Fraction(1, 2)}, 1, 11),
        (1, 1): HalfSeries({}, 0, 10),
        (2, 0): HalfSeries({0: -1}, 0, 10),
        (2, 1): HalfSeries({2: 3, 4: -1}, 2, 12),
    })
    inv = s.inverse()
    assert inv.pieces[(0, 0)] == HalfSeries.one(12)
    for prod in (s * inv, inv * s):
        assert prod.pieces[(0, 0)] == HalfSeries.one(12)
        for g in enumerate_dim_vectors(gmax, include_zero=True):
            if any(g):
                # zero on a window that is not empty
                piece = prod.pieces[g]
                assert piece.is_zero() and piece.hi >= piece.lo, g


def test_inverse_of_a_finite_unit_is_capped_at_its_window():
    # A_0 = 1 on [0, 3] only, so 1/A_0 is known on [0, 3] only: each piece
    # of the inverse is cut at 3 + lo, below the hi it gets from a unit
    # that holds on [0, 100], and agrees with that inverse up to the cut
    others = {(1,): HalfSeries({-2: 1, 0: 3, 5: -1}, -2, 30),
              (2,): HalfSeries({1: 2, 2: -1, 9: 4}, 1, 30),
              (3,): HalfSeries({-1: -1, 4: 2}, -1, 30)}
    narrow = MultiSeries((3,), {(0,): HalfSeries.one(3), **others}).inverse()
    wide = MultiSeries((3,), {(0,): HalfSeries.one(100), **others}).inverse()
    for g in enumerate_dim_vectors((3,), include_zero=True):
        n, w = narrow.pieces[g], wide.pieces[g]
        assert n.window() == (w.lo, 3 + w.lo) and n.hi < w.hi, g
        assert agree(n, w), g


def test_products_on_a_box_of_1100_axes():
    # an axis of size 1 adds no offset and is not walked, so 1099 of them
    # leave the product and the inverse those of the one axis of size 3,
    # and the walk stays far below the interpreter's recursion limit
    head, tail = (0,) * 600, (0,) * 499
    narrow = MultiSeries((2,), {(0,): HalfSeries.one(12),
                                (1,): HalfSeries({-1: 2, 3: 1}, -1, 9),
                                (2,): HalfSeries({0: -1, 4: 5}, 0, 10)})
    wide = MultiSeries(head + (2,) + tail,
                       {head + g + tail: s for g, s in narrow.pieces.items()})
    for op in (lambda s: s * s, MultiSeries.inverse):
        assert op(wide).pieces == {head + g + tail: s for g, s in op(narrow).pieces.items()}


def test_multiseries_rejects_out_of_box_pieces():
    with pytest.raises(DomainError):
        MultiSeries((1,), {(0,): HalfSeries.one(5), (1,): HalfSeries.one(5),
                           (2,): HalfSeries.one(5)})


def test_multiseries_requires_every_piece_of_the_box():
    with pytest.raises(DomainError):
        MultiSeries((1, 1), {(0, 0): HalfSeries.one(5), (1, 0): HalfSeries.one(5),
                             (1, 1): HalfSeries.one(5)})


@pytest.mark.parametrize("key, error", [
    ((1,), DomainError),
    ((1, 0, 7), DomainError),
    ((), DomainError),
    ((-1, 1), DomainError),
    ((0, 3), DomainError),
])
def test_multiseries_keys_are_dimension_vectors_of_the_box(key, error):
    # a box test that zips and truncates passes (1,) and (1, 0, 7) as if
    # they were (1, 0); comparing the key set with the box's tuples does not
    pieces = {g: HalfSeries.one(5) for g in enumerate_dim_vectors((2, 2), include_zero=True)}
    with pytest.raises(error):
        MultiSeries((2, 2), {**pieces, key: HalfSeries({0: 5}, 0, 5)})


# a 3-vertex series with a zero box entry
_ZERO_ENTRY = MultiSeries((0, 2, 1), {
    (0, 0, 0): HalfSeries.one(9),
    (0, 1, 0): HalfSeries({-1: 2, 3: 1}, -1, 9),
    (0, 0, 1): HalfSeries({1: Fraction(1, 2)}, 1, 11),
    (0, 2, 0): HalfSeries({0: -1}, 0, 10),
    (0, 1, 1): HalfSeries({1: -3, 2: Fraction(2, 3)}, 1, 8),
    (0, 2, 1): HalfSeries({2: 3, 4: -1}, 2, 12),
})


@given(BOXES.flatmap(lambda box: st.tuples(small_multiseries(box),
                                           small_multiseries(box))))
@example((_ZERO_ENTRY, _ZERO_ENTRY))
def test_multiseries_product_equals_piecewise_reference(pair):
    a, b = pair
    ref = {g: _convolution_piece(a.pieces, b.pieces, g)
           for g in enumerate_dim_vectors(a.gamma_max, include_zero=True)}
    # HalfSeries == compares lo, hi and coefficients
    assert (a * b).pieces == ref


@given(BOXES.flatmap(small_multiseries))
@example(_ZERO_ENTRY)
def test_multiseries_inverse_equals_piecewise_reference(a):
    assert a.inverse().pieces == _inverse_reference(a)


@given(BOXES.flatmap(small_multiseries))
@example(_ZERO_ENTRY)
def test_minus_derivative_of_the_inverse_times_a_is_the_log_derivative(a):
    # D: x^g -> |g| x^g is a derivation and A^(-1) A = 1, so -D(A^(-1)) A =
    # A^(-1) DA; each pair of the one has the windows of a pair of the other,
    # so the two agree on coeffs, lo and hi, piece by piece
    box = enumerate_dim_vectors(a.gamma_max, include_zero=True)
    graded = MultiSeries(a.gamma_max, {g: a.pieces[g] * dim_abs(g) for g in box})
    assert _log_derivative(a).pieces == (a.inverse() * graded).pieces


@given(BOXES.flatmap(lambda box: st.tuples(small_multiseries(box),
                                           small_multiseries(box))),
       st.data())
def test_narrowing_one_piece_never_widens_a_window(pair, data):
    # a piece known on less, the unit included, certifies no more anywhere:
    # every piece of the inverse and of both products keeps or narrows its
    # window and agrees with the unnarrowed result on it
    a, b = pair
    box = enumerate_dim_vectors(a.gamma_max, include_zero=True)
    g = data.draw(st.sampled_from(box))
    s = a.pieces[g]
    hi = data.draw(st.integers(0 if not any(g) else min(s.lo - 1, s.hi), s.hi))
    narrowed = MultiSeries(a.gamma_max, {**a.pieces, g: HalfSeries(dict(s.items()), s.lo, hi)})
    for wide, narrow in ((a.inverse(), narrowed.inverse()), (a * b, narrowed * b),
                         (b * a, b * narrowed)):
        for d in box:
            w, n = wide.pieces[d], narrow.pieces[d]
            assert w.lo <= n.lo and n.hi <= w.hi, d
            assert agree(n, w), d


@given(BOXES.flatmap(lambda box: st.tuples(small_multiseries(box),
                                           small_multiseries(box))))
@example((_ZERO_ENTRY, _ZERO_ENTRY))
def test_products_and_inverses_are_ordered_pieces_on_exactly_the_box(pair):
    # MultiSeries._make takes the pieces of a product or inverse without the
    # box-key check of the constructor, so the keys are checked here
    a, b = pair
    box = set(enumerate_dim_vectors(a.gamma_max, include_zero=True))
    for s in (a * b, b * a, a.inverse()):
        assert s.gamma_max == a.gamma_max and s.pieces.keys() == box
        assert all(in_order(p) for p in s.pieces.values())


# -- storage: every term keyed by its offset from the window start -------------

def _stored_by_offset(s):
    """s stores each term under its offset k - lo, an int on [0, hi - lo], in
    ascending order and nonzero; the public constructor rebuilds s from its
    absolute terms, and the repr shows those."""
    terms = dict(s.items())
    return (in_order(s) and all(type(k) is int for k in s.coeffs)
            and HalfSeries(terms, s.lo, s.hi) == s
            and repr(s) == f"HalfSeries({terms!r}, {s.lo}, {s.hi})")


@settings(max_examples=50)
@given(st.dictionaries(st.integers(-20, 20), st.integers(-2, 2)), st.integers(-20, 0),
       st.integers(-2, 30), st.one_of(small_series(), sparse_wide_series()),
       st.one_of(small_series(), sparse_wide_series()), st.integers(-3, 3),
       BOXES.flatmap(lambda box: st.tuples(small_multiseries(box),
                                           small_multiseries(box))))
@example({-9: 1, -7: -2, 0: 1}, -9, 9, HalfSeries({-12: 1, -8: 3}, -12, 4),
         HalfSeries({-6: 2, -5: -1}, -6, 10), 2, (_ZERO_ENTRY, _ZERO_ENTRY))
def test_every_series_builder_keys_terms_by_offset(raw, lo, width, a, b, n, pair):
    # the keys are offsets wherever the window starts, and each result holds
    # the absolute terms its reference, built by the public constructor, holds
    hi = lo + width
    built = HalfSeries({k: c for k, c in raw.items() if k >= lo}, lo, hi)
    assert dict(built.items()) == {k: c for k, c in raw.items() if c and lo <= k <= hi}
    assert dict((-a).items()) == {k: -c for k, c in a.items()}
    assert dict((a * n).items()) == dict((n * a).items()) == {
        k: n * c for k, c in a.items() if n}
    assert a * b == _brute_product(a, b)
    x, y = pair
    box = enumerate_dim_vectors(x.gamma_max, include_zero=True)
    product, inverse = x * y, x.inverse()
    assert product.pieces == {g: _convolution_piece(x.pieces, y.pieces, g) for g in box}
    assert inverse.pieces == _inverse_reference(x)
    for s in (built, -a, a * n, n * a, a * b, *product.pieces.values(),
              *inverse.pieces.values()):
        assert _stored_by_offset(s), s


@settings(deadline=None, max_examples=40)
@given(random_cells(), st.integers(0, 12))
@example((from_rows([[0, 2], [2, 0]]), (2, 2)), 12)
def test_both_routes_key_terms_by_offset(case, qtrunc):
    # the generating series' pieces start at chi, often far below 0, and the
    # extracted Omega and the linear route's counts at or near it
    quiver, gmax = case
    series = build_generating_series(quiver, gmax, qtrunc)
    assert all(_stored_by_offset(s) for s in series.pieces.values())
    for gamma, omega in plethystic_factor(series).items():
        assert _stored_by_offset(omega), gamma
        if sum(gamma) <= 3:
            chi = euler_form(quiver, gamma, gamma)
            assert _stored_by_offset(prim_dims(quiver, gamma, chi + min(qtrunc, 6))), gamma
