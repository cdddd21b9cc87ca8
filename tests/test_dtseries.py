from math import comb, gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from quivercoha import (DomainError, HalfSeries, MultiSeries, StructuralViolationError,
                        build_generating_series, dt_report, enumerate_dim_vectors,
                        euler_form, plethystic_factor, prim_dims)
from quivercoha.coha import Cell
from quivercoha.dtseries import _log_derivative
from quivercoha.quiver import dim_abs

from conftest import S1, S2, S3, S4, SUITE, agree, from_rows, in_order, random_cells


# -- Hilbert series ---------------------------------------------------------------

def test_hilbert_no_loops_gamma_two():
    # q^2 (1 + q + 2 q^2 + 2 q^3 + 3 q^4 + ...), half-unit exponents from 4
    s = build_generating_series(S1, (2,), 12).pieces[(2,)]
    assert s.window() == (4, 16)
    assert [s.coeff(4 + 2 * d) for d in range(7)] == [1, 1, 2, 2, 3, 3, 4]
    assert all(s.coeff(k) == 0 for k in range(5, 16, 2))


def test_hilbert_gamma_zero_is_one():
    for q in (S1, S3):
        zero = (0,) * q.vertex_count
        s = build_generating_series(q, zero, 10).pieces[zero]
        assert s == HalfSeries.one(10)


def test_hilbert_counts_match_basis(suite_quiver):
    n = suite_quiver.vertex_count
    for gamma in [(1,) * n, (2,) + (0,) * (n - 1), (2,) * n]:
        chi = euler_form(suite_quiver, gamma, gamma)
        s = build_generating_series(suite_quiver, gamma, 10).pieces[gamma]
        for k in range(chi, chi + 11):
            # H sits at k = chi + 2d only: the other parity is empty
            if (k - chi) % 2:
                assert s.coeff(k) == 0
            else:
                assert s.coeff(k) == len(Cell(gamma, (k - chi) // 2))


def _pochhammer(m, hi):
    """(q;q)_m = prod_{j=1}^{m} (1 - q^j) on the window [0, hi]."""
    out = HalfSeries.one(hi)
    for j in range(1, m + 1):
        out = out * HalfSeries({0: 1, 2 * j: -1}, 0, hi)
    return out


@pytest.mark.parametrize("width", [0, 3, 40])
def test_inverse_pochhammers_count_partitions(width):
    # on one vertex P_m = q^(chi/2) / (q;q)_m, and the coefficient of
    # q^(chi/2 + n) counts partitions of n into parts of size at most m:
    # all of them when n <= m, floor(n/2) + 1 when m = 2; chi = m^2 without
    # loops and -m^2 with two
    for quiver in (S1, S2):
        pieces = build_generating_series(quiver, (6,), width).pieces
        assert list(pieces) == [(m,) for m in range(7)]
        for (m,), s in pieces.items():
            chi = euler_form(quiver, (m,), (m,))
            assert s.window() == (chi, chi + width)
            for n in range(width // 2 + 1):
                if n <= m:
                    assert s.coeff(chi + 2 * n) == [1, 1, 2, 3, 5, 7, 11][n]
                if m == 2:
                    assert s.coeff(chi + 2 * n) == n // 2 + 1
            one = s * _pochhammer(m, width)
            assert one.window() == (chi, chi + width)
            assert dict(one.items()) == {chi: 1}


@settings(deadline=None, max_examples=60)
@given(random_cells(), st.integers(0, 20))
def test_every_piece_times_its_pochhammers_is_one_monomial(case, qtrunc):
    # P_gamma prod_i (q;q)_(gamma^i) = q^(chi/2) on [chi, chi + qtrunc],
    # chi = chi(gamma, gamma), the products taken as HalfSeries products, on
    # boxes with zero axes and odd qtrunc too
    quiver, gmax = case
    series = build_generating_series(quiver, gmax, qtrunc)
    assert list(series.pieces) == enumerate_dim_vectors(gmax, include_zero=True)
    for gamma, s in series.pieces.items():
        chi = euler_form(quiver, gamma, gamma)
        assert s.window() == (chi, chi + qtrunc)
        assert in_order(s)
        for size in gamma:
            s = s * _pochhammer(size, qtrunc)
        assert s == HalfSeries({chi: 1}, chi, chi + qtrunc), gamma


@pytest.mark.parametrize("gmax", [[2, 1], (0, 2), (1, 0)])
def test_generating_series_is_on_exactly_the_box(gmax):
    # MultiSeries._make takes these pieces without the box-key check of the
    # constructor; a list gamma_max is kept as a tuple
    series = build_generating_series(S3, gmax, 6)
    assert series.gamma_max == tuple(gmax)
    assert series.pieces.keys() == set(enumerate_dim_vectors(gmax, include_zero=True))
    assert all(in_order(s) for s in series.pieces.values())


def test_hilbert_rejects_asymmetric():
    with pytest.raises(DomainError):
        build_generating_series(from_rows([[0, 1], [0, 0]]), (1, 1), 4)


# -- independent oracle for the towers: direct expansion of the product -------------

def _box_product(a, b, box):
    """Product of two {x-exponent: {half-exponent: coeff}} dicts, cut to the box."""
    out = {}
    for ga, terms_a in a.items():
        for gb, terms_b in b.items():
            g = tuple(x + y for x, y in zip(ga, gb))
            if any(x > m for x, m in zip(g, box)):
                continue
            bucket = out.setdefault(g, {})
            for ha, ca in terms_a.items():
                for hb, cb in terms_b.items():
                    bucket[ha + hb] = bucket.get(ha + hb, 0) + ca * cb
    return out


def _expand_tower_x_coeffs(gamma, k, nmax, box):
    """Brute expansion of the tower prod_{n=0}^{nmax} f_n over the box of
    x-exponents, no package series code involved.  With e = k + 2n, f_n is
    (1 - x^gamma q^(e/2))^(-1), a geometric series cut to the box, for k
    even and 1 + x^gamma q^(e/2) for k odd.  Nothing is cut in q, because a
    negative k makes later factors lower the exponent."""
    zero = (0,) * len(box)
    state = {zero: {0: 1}}
    for n in range(nmax + 1):
        e = k + 2 * n
        jmax = min(m // x for m, x in zip(box, gamma) if x) if k % 2 == 0 else 1
        factor = {tuple(j * x for x in gamma): {j * e: 1} for j in range(jmax + 1)}
        state = _box_product(state, factor, box)
    return state


def test_euler_identity_single_odd_tower_reproduces_no_loop_series():
    # the whole generating series of the loop-free vertex is one odd tower
    # with lowest weight q^(1/2): partition counting on one side, a finite
    # product expansion on the other
    qmax = 14
    tower = _expand_tower_x_coeffs((1,), 1, qmax, (3,))
    series = build_generating_series(S1, (3,), qmax)
    for g in range(1, 4):
        s = series.pieces[(g,)]
        for k in range(s.lo, qmax + 1):
            assert s.coeff(k) == tower.get((g,), {}).get(k, 0)


# -- plethystic extraction -----------------------------------------------------------

def _entries(omegas):
    """{(gamma, k): c_{gamma,k}} over the nonzero multiplicities."""
    return {(gamma, k): c for gamma, s in omegas.items() for k, c in s.items()}


def test_extraction_no_loops():
    series = build_generating_series(S1, (3,), 20)
    omegas = plethystic_factor(series)
    assert list(omegas) == [(1,), (2,), (3,)]
    assert _entries(omegas) == {((1,), 1): 1}


def test_extraction_two_loops_gamma_one_column():
    series = build_generating_series(S2, (2,), 16)
    omegas = plethystic_factor(series)
    assert dict(omegas[(1,)].items()) == {-1: 1}
    assert dict(omegas[(2,)].items()) == {-4: 1}


def test_extraction_parity():
    for name, quiver in SUITE:
        gmax = (2,) * quiver.vertex_count
        series = build_generating_series(quiver, gmax, 14)
        for gamma, k in _entries(plethystic_factor(series)):
            assert (k - euler_form(quiver, gamma, gamma)) % 2 == 0


def test_extraction_independent_of_within_level_order():
    # relabelling the two vertices reverses the walk inside each |gamma| level
    omegas, swapped = (
        plethystic_factor(build_generating_series(from_rows(rows), (2, 2), 14))
        for rows in ([[2, 1], [1, 0]], [[0, 1], [1, 2]]))
    assert omegas == {g[::-1]: s for g, s in swapped.items()}


def _rebuild_matches(entries, series):
    """prod F_{gamma,k}^(c_{gamma,k}), expanded by brute force, equals A on
    every piece's window and vanishes below it."""
    box = series.gamma_max
    qmax = max(p.hi for p in series.pieces.values())
    # lowest exponent any monomial of the product can reach inside the box;
    # a dropped factor n > nmax of a tower sits at k + 2(nmax + 1) or higher
    floor = min([0] + [k * dim_abs(box) // dim_abs(g) for g, k in entries])
    rebuilt = {(0,) * len(box): {0: 1}}
    for (gamma, k), c in sorted(entries.items()):
        tower = _expand_tower_x_coeffs(gamma, k, (qmax - floor - k) // 2, box)
        for _ in range(c):
            rebuilt = _box_product(rebuilt, tower, box)
    for gamma in enumerate_dim_vectors(box):
        want = series.pieces[gamma]
        got = {h: c for h, c in rebuilt.get(gamma, {}).items() if c and h <= want.hi}
        if any(h < want.lo for h in got) or \
                any(got.get(h, 0) != want.coeff(h) for h in range(want.lo, want.hi + 1)):
            return False
    return True


def test_round_trip_rebuild(suite_quiver):
    gmax = (2,) * suite_quiver.vertex_count
    series = build_generating_series(suite_quiver, gmax, 14)
    entries = _entries(plethystic_factor(series))
    # the extraction is complete: a wider window finds no further generator
    wider = plethystic_factor(build_generating_series(suite_quiver, gmax, 22))
    assert _entries(wider) == entries
    assert _rebuild_matches(entries, series)
    (gamma, k), c = min(entries.items())
    assert not _rebuild_matches({**entries, (gamma, k): c + 1}, series)


def _moebius_formula(series):
    """(1 - q) / |gamma| * sum_(r | gamma) mu(r) psi_r(M_(gamma/r)) for every
    gamma of the box, built from HalfSeries: psi_r(M_(gamma/r)) on [r lo, r
    hi], the sum on the least lo and the least hi of its terms, and the
    product with 1 - q certified on [0, hi - lo]."""
    pieces = _log_derivative(series).pieces
    out = {}
    for gamma in enumerate_dim_vectors(series.gamma_max):
        divisor = gcd(*gamma)
        terms = []
        for r in range(1, divisor + 1):
            mu = _mobius(r)
            if divisor % r or not mu:
                continue
            m = pieces[tuple(x // r for x in gamma)]
            terms.append(HalfSeries({r * k: mu * (-1) ** ((r + 1) * k % 2) * c
                                     for k, c in m.items()}, r * m.lo, r * m.hi))
        total = {}
        for t in terms:
            for k, c in t.items():
                total[k] = total.get(k, 0) + c
        lo, hi = min(t.lo for t in terms), min(t.hi for t in terms)
        col = HalfSeries(total, lo, hi) * HalfSeries({0: 1, 2: -1}, 0, hi - lo)
        size = dim_abs(gamma)
        assert all(c % size == 0 for _, c in col.items()), gamma
        out[gamma] = HalfSeries({k: c // size for k, c in col.items()}, col.lo, col.hi)
    return out


@settings(deadline=None, max_examples=60)
@given(random_cells(), st.integers(0, 20))
@example((S1, (6,)), 13)
@example((S2, (6,)), 20)
def test_extraction_is_the_moebius_sum_times_one_minus_q(case, qtrunc):
    # the one pass of plethystic_factor against the formula built from
    # HalfSeries and a HalfSeries product, window and terms exactly, on
    # boxes with zero axes and odd qtrunc too; the box (6,) brings in r = 2,
    # 3 and 6, the even ones flipping odd exponents, and skips mu(4) = 0
    quiver, gmax = case
    series = build_generating_series(quiver, gmax, qtrunc)
    assert plethystic_factor(series) == _moebius_formula(series)


@given(random_cells())
def test_extraction_leaves_its_argument_unchanged(case):
    # piece 0 of the inverse is A's own piece-0 object, and the log
    # derivative scales the inverse's pieces in place: every piece of A,
    # that one included, is compared against a copy taken before the call
    quiver, gmax = case
    series = build_generating_series(quiver, gmax, 8)
    before = {g: HalfSeries(dict(s.items()), s.lo, s.hi) for g, s in series.pieces.items()}
    plethystic_factor(series)
    assert series.gamma_max == gmax and series.pieces == before


def test_extraction_needs_unit_constant_term():
    series = build_generating_series(S1, (2,), 10)
    # the x^0 piece must be 1 on its window (a unit on a finite window caps
    # the inverse, see test_series)
    for unit in (HalfSeries({}, 0, 10), HalfSeries({0: 2}, 0, 10),
                 HalfSeries({0: 1, 2: 1}, 0, 10)):
        broken = MultiSeries(series.gamma_max, {**series.pieces, (0,): unit})
        with pytest.raises(DomainError):
            plethystic_factor(broken)


def test_extraction_refuses_a_negative_multiplicity():
    # A = 1 + x/(1 - q) on the box (2,): Omega(1) = 1, and the division of
    # (1 - q)(M_2 - psi_2(M_1)) = -2/(1 - q^2) by |gamma| = 2 is exact, with
    # quotient -1 at k = 0, which no generator count can be
    series = MultiSeries((2,), {(0,): HalfSeries.one(10),
                                (1,): HalfSeries({2 * n: 1 for n in range(6)}, 0, 10),
                                (2,): HalfSeries({}, 0, 10)})
    with pytest.raises(StructuralViolationError) as exc:
        plethystic_factor(series)
    assert str(exc.value) == ("extracted multiplicity -1 at gamma=(2,), k=0 "
                              "is not a non-negative integer")


def test_extraction_refuses_a_collapsed_window():
    # every piece of a generating series is certified on a window of width
    # qtrunc, and so every Moebius sum on one at least that wide; a
    # hand-built A whose x^1 piece has an empty window gives M_1, and so
    # Omega(1), an empty window
    series = MultiSeries((1,), {(0,): HalfSeries.one(10), (1,): HalfSeries({}, 3, 2)})
    with pytest.raises(DomainError, match=r"^certified window collapsed at gamma=\(1,\); "
                                          "rerun with a larger qtrunc$"):
        plethystic_factor(series)


# -- omega -----------------------------------------------------------------------

def test_omega_examples():
    assert dict(dt_report(S1, (1,), 14)[(1,)].items()) == {1: 1}
    assert dict(dt_report(S1, (2,), 14)[(2,)].items()) == {}
    assert dict(dt_report(S2, (1,), 14)[(1,)].items()) == {-1: 1}


def test_omega_positivity_across_suite(suite_quiver):
    gmax = (2,) * suite_quiver.vertex_count
    for series in dt_report(suite_quiver, gmax, 14).values():
        for k, c in series.items():
            assert isinstance(c, int) and c > 0


@st.composite
def _report_pairs(draw):
    n = draw(st.integers(1, 2))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = draw(st.integers(0, 3))
    gmax = tuple(draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)
                      .filter(lambda g: 1 <= sum(g) <= 4)))
    q1 = draw(st.integers(0, 15))
    q2 = draw(st.integers(q1 + 1, 16))
    return from_rows(rows), gmax, q1, q2


@settings(deadline=None)
@given(_report_pairs())
def test_dt_report_windows_sound_and_lowest_term_is_one(case):
    # a wider qtrunc may only extend the certified windows, and a nonzero
    # Omega(gamma) starts with 1 * q^(chi/2) (IH^0, arXiv:1411.4062)
    quiver, gmax, q1, q2 = case
    narrow, wide = dt_report(quiver, gmax, q1), dt_report(quiver, gmax, q2)
    assert list(narrow) == list(wide)
    for gamma, s1 in narrow.items():
        s2 = wide[gamma]
        assert agree(s1, s2), gamma
        assert s2.hi >= s1.hi, gamma
        chi = euler_form(quiver, gamma, gamma)
        for s in (s1, s2):
            if not s.is_zero():
                assert min(dict(s.items())) == chi, gamma
                assert s.coeff(chi) == 1, gamma


@settings(deadline=None, max_examples=30)
@given(random_cells())
def test_dt_report_terms_are_in_ascending_order(case):
    quiver, gmax = case
    assert all(in_order(s) for s in dt_report(quiver, gmax, 8).values())


# -- the central cross-check: series extraction vs linear algebra -------------------

def test_prim_dims_agree_with_extraction_small(suite_quiver):
    gmax = (2,) * suite_quiver.vertex_count
    series = build_generating_series(suite_quiver, gmax, 12)
    omegas = plethystic_factor(series)
    for gamma in [g for g in enumerate_dim_vectors(gmax) if sum(g) <= 2]:
        chi = euler_form(suite_quiver, gamma, gamma)
        linear = prim_dims(suite_quiver, gamma, chi + 12)
        assert max(linear.lo, omegas[gamma].lo) <= min(linear.hi, omegas[gamma].hi)
        assert agree(linear, omegas[gamma]), gamma


def test_prim_dims_agree_with_extraction_on_doubled_kronecker_3_3():
    # every cell of check-freeness on the doubled 2-Kronecker quiver, box
    # (3,3), qtrunc 12: the p1 quotient with factors such as (0, 1) restricted
    # at their own first vertex, and with splits gamma1 == gamma2 whose first
    # factor is restricted to complement shapes and taken at d1 <= d2 only
    omegas = plethystic_factor(build_generating_series(S4, (3, 3), 12))
    for gamma, series in omegas.items():
        chi = euler_form(S4, gamma, gamma)
        if series.hi < chi:
            continue
        linear = prim_dims(S4, gamma, min(chi + 12, series.hi))
        assert linear.window() == (chi, min(chi + 12, series.hi)), gamma
        assert agree(linear, series), gamma


@settings(deadline=None, max_examples=40)
@given(random_cells())
def test_prim_dims_agree_with_extraction_on_random_quivers(case):
    # the two routes to Omega at breadth: every cell with |gamma| <= 4 inside
    # both windows at qtrunc 8, as check-freeness compares them
    quiver, gmax = case
    omegas = plethystic_factor(build_generating_series(quiver, gmax, 8))
    for gamma in enumerate_dim_vectors(gmax):
        chi = euler_form(quiver, gamma, gamma)
        series = omegas[gamma]
        if sum(gamma) > 4 or series.hi < chi:
            continue
        linear = prim_dims(quiver, gamma, min(chi + 8, series.hi))
        assert linear.window() == (chi, min(chi + 8, series.hi)), gamma
        assert agree(linear, series), gamma


# The boxes of ROADMAP item 7: at qtrunc = 1 - min chi over the box every
# window is complete, hi >= 1, and then holds the whole of Omega(gamma)
# (arXiv:1411.4062), so the two routes agree on every generator count.  A
# gamma whose series window ends below chi > 1 has Omega = 0 and no cell
_COMPLETE_BOXES = [
    pytest.param([[1]], (6,), id="jordan-6"),
    pytest.param([[2]], (4,), id="loop2-4"),
    pytest.param([[2]], (5,), id="loop2-5"),
    pytest.param([[3]], (3,), id="loop3-3"),
    pytest.param([[3]], (4,), id="loop3-4"),
    pytest.param([[0, 2], [2, 0]], (3, 2), id="kronecker-3-2"),
    pytest.param([[0, 2], [2, 0]], (3, 3), id="kronecker-3-3"),
    pytest.param([[0, 1], [1, 0]], (3, 3), id="a2-3-3"),
    pytest.param([[0, 1, 1], [1, 0, 1], [1, 1, 0]], (2, 2, 2), id="cycle3-2-2-2"),
]


@pytest.mark.parametrize("rows, gmax", _COMPLETE_BOXES)
def test_routes_agree_on_complete_windows(rows, gmax):
    quiver = from_rows(rows)
    qtrunc = 1 - min(euler_form(quiver, g, g) for g in enumerate_dim_vectors(gmax))
    for gamma, series in dt_report(quiver, gmax, qtrunc).items():
        chi = euler_form(quiver, gamma, gamma)
        assert series.hi >= 1, gamma
        if series.hi < chi:
            assert series.is_zero(), gamma
            continue
        linear = prim_dims(quiver, gamma, min(chi + qtrunc, series.hi))
        assert linear.hi >= 1, gamma
        assert agree(linear, series), gamma


# -- literature anchor: Reineke's closed formula for the m-loop quiver --------------

def _mobius(n):
    result, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    return -result if n > 1 else result


def _reineke_dt(m, d):
    """DT_d^(m) = d^-2 sum_{e | d} mu(d/e) (-1)^((m-1)(d-e)) C(me-1, e-1)."""
    total = sum(_mobius(d // e) * (-1) ** ((m - 1) * (d - e)) * comb(m * e - 1, e - 1)
                for e in range(1, d + 1) if d % e == 0)
    assert total % (d * d) == 0
    return total // (d * d)


def _series_route(quiver, d_max, qtrunc):
    return dt_report(quiver, (d_max,), qtrunc)


def _linear_route(quiver, d_max, qtrunc):
    return {(d,): prim_dims(quiver, (d,), euler_form(quiver, (d,), (d,)) + qtrunc)
            for d in range(1, d_max + 1)}


# ids without a prefix are the series route; qtrunc None is the complete
# window 1 - min chi over the box, computed in the test
@pytest.mark.parametrize("route,loops,d_max,qtrunc", [
    pytest.param(_series_route, 2, 5, 12, id="2-5-12"),
    pytest.param(_series_route, 3, 5, 30, id="3-5-30"),
    pytest.param(_series_route, 4, 4, 30, id="4-4-30"),
    pytest.param(_series_route, 2, 10, None, id="2-10-complete"),
    pytest.param(_series_route, 3, 12, None, id="3-12-complete"),
    pytest.param(_series_route, 4, 8, None, id="4-8-complete"),
    pytest.param(_linear_route, 2, 4, 12, id="linear-2-4-12"),
    pytest.param(_linear_route, 3, 3, 30, id="linear-3-3-30"),
    pytest.param(_linear_route, 4, 2, 30, id="linear-4-2-30"),
])
def test_omega_at_minus_one_matches_reineke(route, loops, d_max, qtrunc):
    # Omega(d) at q^(1/2) = -1 is (-1)^((m-1)d) DT_d^(m) (arXiv:1102.3978);
    # these windows cover the whole support of each Omega(d).  A complete
    # window, hi >= 1, holds all of Omega (arXiv:1411.4062); at d = 12 on
    # three loops it is 289 wide
    quiver = from_rows([[loops]])
    complete = qtrunc is None
    if complete:
        qtrunc = 1 - min(euler_form(quiver, (d,), (d,)) for d in range(1, d_max + 1))
    omegas = route(quiver, d_max, qtrunc)
    for d in range(1, d_max + 1):
        assert not complete or omegas[(d,)].hi >= 1, d
        value = sum(c * (-1) ** k for k, c in omegas[(d,)].items())
        assert value == (-1) ** ((loops - 1) * d) * _reineke_dt(loops, d), d
