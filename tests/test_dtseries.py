from math import comb

import pytest

from quivercoha import (DomainError, HalfSeries, MultiSeries, Quiver,
                        build_generating_series, dt_report, euler_form,
                        hilbert_series, omega, plethystic_factor, prim_dims)
from quivercoha.coha import basis_leading_exponents
from quivercoha.dtseries import DTReport, _tower_factor, rebuild_from_table

from conftest import S1, S2, S3, S4, SUITE


# -- Hilbert series ---------------------------------------------------------------

def test_hilbert_no_loops_gamma_two():
    # q^2 (1 + q + 2 q^2 + 2 q^3 + 3 q^4 + ...), half-unit exponents from 4
    s = hilbert_series(S1, (2,), 12)
    assert s.window() == (4, 16)
    assert [s.coeff(4 + 2 * d) for d in range(7)] == [1, 1, 2, 2, 3, 3, 4]
    assert all(s.coeff(k) == 0 for k in range(5, 16, 2))


def test_hilbert_gamma_zero_is_one():
    for q in (S1, S3):
        s = hilbert_series(q, (0,) * q.vertex_count, 10)
        assert s.coeffs == {0: 1}
        assert s.hi is None


def test_hilbert_counts_match_basis(suite_quiver):
    n = suite_quiver.vertex_count
    for gamma in [(1,) * n, (2,) + (0,) * (n - 1), (2,) * n]:
        chi = euler_form(suite_quiver, gamma, gamma)
        s = hilbert_series(suite_quiver, gamma, 10)
        for k in range(chi, chi + 11):
            assert s.coeff(k) == len(basis_leading_exponents(suite_quiver, gamma, k))


def test_hilbert_rejects_asymmetric():
    from quivercoha import Quiver
    with pytest.raises(DomainError):
        hilbert_series(Quiver.from_lists([[0, 1], [0, 0]]), (1, 1), 4)


# -- independent oracle for the towers: direct expansion of the product -------------

def _expand_tower_x_coeffs(k, inverse, nmax, xmax, qmax):
    """Brute expansion of prod_{n=0}^{nmax} f_n as {x-power: {half-exponent:
    coeff}}, no package series code involved.  With e = k + 2n, f_n is
    (1 - x q^(e/2))^(-1) for k even and 1 + x q^(e/2) for k odd, or the
    reciprocal of either when ``inverse``; inverted binomials are geometric
    series cut at x^xmax.  Exponents above qmax are dropped at the end only,
    because a negative k makes later factors lower the exponent."""
    state = {0: {0: 1}}
    sign = -1 if inverse else 1
    for n in range(nmax + 1):
        e = k + 2 * n
        if (k % 2 == 0) != inverse:       # (1 -+ x q^(e/2))^(-1)
            factor = {j: (sign ** j, j * e) for j in range(xmax + 1)}
        else:                             # 1 +- x q^(e/2)
            factor = {0: (1, 0), 1: (1 if k % 2 else -1, e)}
        new = {}
        for xp, terms in state.items():
            for j, (c, h) in factor.items():
                if xp + j > xmax:
                    continue
                bucket = new.setdefault(xp + j, {})
                for h0, c0 in terms.items():
                    bucket[h0 + h] = bucket.get(h0 + h, 0) + c * c0
        state = new
    return {xp: {h: c for h, c in terms.items() if c and h <= qmax}
            for xp, terms in state.items()}


def test_euler_identity_single_odd_tower_reproduces_no_loop_series():
    # the whole generating series of the loop-free vertex is one odd tower
    # with lowest weight q^(1/2): partition counting on one side, a finite
    # product expansion on the other
    qmax = 14
    tower = _expand_tower_x_coeffs(1, False, qmax, 3, qmax)
    for g in range(1, 4):
        s = hilbert_series(S1, (g,), qmax)
        for k in range(s.lo, qmax + 1):
            assert s.coeff(k) == tower.get(g, {}).get(k, 0)


@pytest.mark.parametrize("inverse", [False, True], ids=["tower", "reciprocal"])
@pytest.mark.parametrize("k", [-3, -2, 0, 1, 2, 5])
def test_tower_factor_matches_brute_expansion(k, inverse):
    # all four tower kinds, negative k included; the factor may certify more
    # than the brute window, so compare on the overlap
    xmax, qmax = 4, 30
    template = MultiSeries.unit((xmax,))
    factor = _tower_factor((1,), k, template, inverse, hi_width=10)
    brute = _expand_tower_x_coeffs(k, inverse, qmax + xmax * abs(k), xmax, qmax)
    lo = min(0, xmax * k)
    for m in range(xmax + 1):
        piece = factor.piece((m,))
        assert piece.hi is None or piece.hi >= qmax
        assert piece.agrees_with(HalfSeries(brute.get(m, {}), lo, qmax)), (k, inverse, m)


# -- plethystic extraction -----------------------------------------------------------

def test_extraction_no_loops():
    series = build_generating_series(S1, (3,), 20)
    table = plethystic_factor(series, (3,), 20)
    assert dict(table.entries) == {((1,), 1): 1}


def test_extraction_two_loops_gamma_one_column():
    series = build_generating_series(S2, (2,), 16)
    table = plethystic_factor(series, (2,), 16)
    assert table.column((1,)) == {-1: 1}
    assert table.column((2,)) == {-4: 1}


def test_extraction_parity():
    for name, quiver in SUITE:
        gmax = (2,) * quiver.vertex_count
        series = build_generating_series(quiver, gmax, 14)
        table = plethystic_factor(series, gmax, 14)
        for (gamma, k), c in table.entries.items():
            assert (k - euler_form(quiver, gamma, gamma)) % 2 == 0


def test_extraction_independent_of_within_level_order():
    # relabelling the two vertices reverses the walk inside each |gamma| level
    tables = []
    for rows in ([[2, 1], [1, 0]], [[0, 1], [1, 2]]):
        series = build_generating_series(Quiver.from_lists(rows), (2, 2), 14)
        tables.append(plethystic_factor(series, (2, 2), 14))
    table, swapped = tables
    assert table.entries == {(g[::-1], k): c for (g, k), c in swapped.entries.items()}
    assert table.windows == {g[::-1]: w for g, w in swapped.windows.items()}


def test_round_trip_rebuild(suite_quiver):
    gmax = (2,) * suite_quiver.vertex_count
    series = build_generating_series(suite_quiver, gmax, 14)
    table = plethystic_factor(series, gmax, 14)
    rebuilt = rebuild_from_table(table, series, 14)
    for gamma in series.domain():
        got = rebuilt.piece(gamma)
        want = series.piece(gamma)
        assert got.agrees_with(want), f"round trip differs at {gamma}"


def test_extraction_needs_unit_constant_term():
    series = build_generating_series(S1, (2,), 10)
    broken = type(series)(series.gamma_max,
                          {**series.pieces, (0,): HalfSeries.monomial(0, 2)},
                          series.abs_max)
    with pytest.raises(DomainError):
        plethystic_factor(broken, (2,), 10)


# -- omega -----------------------------------------------------------------------

def test_omega_examples():
    assert omega(S1, (1,), 14).coeffs == {1: 1}
    assert omega(S1, (2,), 14).coeffs == {}
    assert omega(S2, (1,), 14).coeffs == {-1: 1}


def test_omega_rejects_zero_gamma():
    with pytest.raises(DomainError):
        omega(S1, (0,), 8)


def test_dt_report_round_trips_through_json():
    import json
    report = dt_report(S4, (2, 2), 14)
    data = json.loads(json.dumps(report.to_dict(), sort_keys=True))
    back = DTReport.from_dict(data)
    assert back.quiver == report.quiver
    assert back.gamma_max == report.gamma_max
    for row in report.rows:
        assert back.row(row.gamma).series == row.series
    assert back.to_dict() == report.to_dict()


def test_omega_positivity_across_suite(suite_quiver):
    gmax = (2,) * suite_quiver.vertex_count
    report = dt_report(suite_quiver, gmax, 14)
    for row in report.rows:
        for k, c in row.series.items():
            assert isinstance(c, int) and c > 0


# -- the central cross-check: series extraction vs linear algebra -------------------

def test_prim_dims_agree_with_extraction_small(suite_quiver):
    gmax = (2,) * suite_quiver.vertex_count
    series = build_generating_series(suite_quiver, gmax, 12)
    table = plethystic_factor(series, gmax, 12)
    for gamma in [g for g in series.domain() if any(g) and sum(g) <= 2]:
        chi = euler_form(suite_quiver, gamma, gamma)
        linear = prim_dims(suite_quiver, gamma, chi + 12)
        lo = max(linear.windows[gamma][0], table.windows[gamma][0])
        hi = min(linear.windows[gamma][1], table.windows[gamma][1])
        assert lo <= hi
        for k in range(lo, hi + 1):
            assert linear.dim(gamma, k) == table.dim(gamma, k), (gamma, k)


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


@pytest.mark.parametrize("loops,d_max,qtrunc", [(2, 5, 12), (3, 5, 30), (4, 4, 30)])
def test_omega_at_minus_one_matches_reineke(loops, d_max, qtrunc):
    # Omega(d) at q^(1/2) = -1 is (-1)^((m-1)d) DT_d^(m) (arXiv:1102.3978);
    # these windows cover the whole support of each Omega(d)
    report = dt_report(Quiver.loop_quiver(loops), (d_max,), qtrunc)
    for d in range(1, d_max + 1):
        value = sum(c * (-1) ** k for k, c in report.row((d,)).series.items())
        assert value == (-1) ** ((loops - 1) * d) * _reineke_dt(loops, d), d
