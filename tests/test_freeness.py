from fractions import Fraction

import pytest

from hypothesis import given, settings

from quivercoha import (ColoredPoly, DomainError, StructuralViolationError, basis,
                        decomposable_dim, enumerate_dim_vectors, euler_form, prim_dims,
                        twisted_product)
from quivercoha import freeness
from quivercoha.coha import Cell
from quivercoha.freeness import exact_rank

from conftest import S1, S2, S4, agree, poly_from_terms, random_cells


# -- exact rank ----------------------------------------------------------------

def test_exact_rank_small_cases():
    assert exact_rank([[1, 0], [0, 1]]) == 2
    assert exact_rank([[1, 2], [2, 4]]) == 1
    assert exact_rank([[0, 0], [0, 0]]) == 0
    assert exact_rank([]) == 0
    assert exact_rank([[3, 2], [9, 6], [0, 6]]) == 2


def test_exact_rank_rejects_a_fraction_entry():
    # Bareiss divides with //, so a Fraction entry would give a wrong rank:
    # without the check this rank-2 matrix comes out as rank 1
    with pytest.raises(DomainError):
        exact_rank([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 1], [0, Fraction(1, 7)]])
    with pytest.raises(DomainError):
        exact_rank([[1, 0], [0, Fraction(2, 1)]])


def test_exact_rank_matches_brute_force():
    # oracle: rank over Q by testing all square minors via Laplace expansion
    import itertools
    import random

    def det(m):
        if len(m) == 1:
            return m[0][0]
        return sum((-1) ** j * m[0][j] * det([row[:j] + row[j + 1:] for row in m[1:]])
                   for j in range(len(m)))

    rng = random.Random(11)
    for _ in range(25):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        mat = [[rng.randint(-2, 2) for _ in range(cols)] for _ in range(rows)]
        best = 0
        for size in range(1, min(rows, cols) + 1):
            for ri in itertools.combinations(range(rows), size):
                for ci in itertools.combinations(range(cols), size):
                    if det([[mat[r][c] for c in ci] for r in ri]) != 0:
                        best = max(best, size)
        assert exact_rank(mat) == best


# -- decomposables ----------------------------------------------------------------

def _cell_degree(quiver, gamma, k):
    """The polynomial degree of the cell at bidegree (gamma, k)."""
    return (k - euler_form(quiver, gamma, gamma)) // 2


def _basis(quiver, gamma, k):
    """The basis of the cell at bidegree (gamma, k)."""
    return basis(gamma, _cell_degree(quiver, gamma, k))


def _decomposable_oracle(quiver, gamma, k):
    """dim D_k alone: the rank of the twisted products of all basis elements
    at proper splits gamma1 + gamma2 with k1 + k2 = k, one per unordered pair
    (a b = +-b a), on the coordinates of the cell's basis."""
    gamma = tuple(gamma)
    read = Cell(gamma, _cell_degree(quiver, gamma, k)).read
    rows, seen = [], set()
    for g1 in enumerate_dim_vectors(gamma)[:-1]:
        g2 = tuple(x - y for x, y in zip(gamma, g1))
        if (g2, g1) in seen:
            continue
        seen.add((g1, g2))
        for k1 in range(euler_form(quiver, g1, g1), k - euler_form(quiver, g2, g2) + 1, 2):
            k2 = k - k1
            if g1 == g2 and k1 > k2:
                continue
            basis1 = _basis(quiver, g1, k1)
            same = g1 == g2 and k1 == k2
            basis2 = basis1 if same else _basis(quiver, g2, k2)
            for i, f in enumerate(basis1):
                for g in basis2[i:] if same else basis2:
                    rows.append(read(twisted_product(f, g, quiver=quiver)))
    return exact_rank(rows)


def test_decomposable_examples():
    # products of bidegrees (1,1) x (1,5) span a line in H_{(2),6}, and so
    # does p1 H_{(2),4} = Q (x1 + x2): the same line
    assert decomposable_dim(S1, Cell((2,), 1)) == 1
    assert _decomposable_oracle(S1, (2,), 6) == 1
    # no proper decomposition at |gamma| = 1, but p1 H_{(1),3} = Q x^2 is
    # all of H_{(1),5}
    assert _decomposable_oracle(S2, (1,), 5) == 0
    assert decomposable_dim(S2, Cell((1,), 3)) == 1


def _full_product_rank(quiver, gamma, k, p1_multiples=False):
    """Rank of every twisted product f g, f and g basis elements at an
    ordered split gamma1 + gamma2 with k1 + k2 = k, and with p1_multiples of
    every p1 m_mu, m_mu a basis element of H_{gamma,k-2}, on coordinates at
    every monomial that occurs."""
    prods = []
    for g1 in enumerate_dim_vectors(gamma)[:-1]:
        g2 = tuple(x - y for x, y in zip(gamma, g1))
        for k1 in range(euler_form(quiver, g1, g1), k - euler_form(quiver, g2, g2) + 1, 2):
            for f in _basis(quiver, g1, k1):
                for g in _basis(quiver, g2, k - k1):
                    prods.append(twisted_product(f, g, quiver=quiver))
    if p1_multiples:
        p1 = sum((ColoredPoly.variable(gamma, i, s)
                  for i, size in enumerate(gamma) for s in range(1, size + 1)),
                 ColoredPoly.zero(gamma))
        if k - 2 >= euler_form(quiver, gamma, gamma):
            prods += [p1 * m for m in _basis(quiver, gamma, k - 2)]
    coefficients = [dict(p.terms()) for p in prods]
    monomials = sorted({exps for c in coefficients for exps in c})
    return exact_rank([[c.get(m, 0) for m in monomials] for c in coefficients])


@pytest.mark.parametrize("quiver,gamma", [(S2, (2,)), (S2, (4,)), (S4, (2, 2))])
def test_decomposable_dim_spans_every_ordered_product(quiver, gamma):
    # decomposable_dim multiplies complement shapes on the left of one order
    # of each split, and the oracle each unordered pair once; a b = +-b a and
    # (p1 f) g = -f (p1 g) modulo p1 H, so the spans must be those of all
    # ordered products, with and without every p1 multiple
    chi = euler_form(quiver, gamma, gamma)
    for k in range(chi, chi + 13, 2):
        cell = Cell(gamma, _cell_degree(quiver, gamma, k))
        assert decomposable_dim(quiver, cell) == _full_product_rank(
            quiver, gamma, k, p1_multiples=True), k
        assert _decomposable_oracle(quiver, gamma, k) == _full_product_rank(quiver, gamma, k), k


# -- generator series --------------------------------------------------------------

def _generator_dims(quiver, gamma, kmax):
    """{k: dim V_{gamma,k}} for chi <= k <= kmax of k's parity, dim V =
    dim H - dim D, D from the oracle."""
    chi = euler_form(quiver, gamma, gamma)
    return {k: len(Cell(gamma, _cell_degree(quiver, gamma, k)))
            - _decomposable_oracle(quiver, gamma, k)
            for k in range(chi, kmax + 1, 2)}


def _check_prim_is_the_first_difference(quiver, gamma, kmax):
    # c_k = dim V_k - dim V_(k-2), on the window [chi, kmax]
    dims = _generator_dims(quiver, gamma, kmax)
    prim = prim_dims(quiver, gamma, kmax)
    assert prim.window() == (euler_form(quiver, gamma, gamma), kmax)
    diffs = {k: v - dims.get(k - 2, 0) for k, v in dims.items()}
    assert prim.coeffs == {k: c for k, c in diffs.items() if c}
    return dims


def test_generator_dims_one_vertex_free_column():
    assert _check_prim_is_the_first_difference(S1, (1,), 13) == {
        k: 1 for k in range(1, 14, 2)}


def test_generator_dims_no_loops_gamma_two_all_zero():
    dims = _check_prim_is_the_first_difference(S1, (2,), 16)
    assert list(dims) == list(range(4, 17, 2))
    assert not any(dims.values())


def test_generator_dims_two_loops_gamma_one():
    assert _check_prim_is_the_first_difference(S2, (1,), 9) == {
        k: 1 for k in range(-1, 10, 2)}
    _check_prim_is_the_first_difference(S2, (3,), 3)
    _check_prim_is_the_first_difference(S4, (2, 1), 8)


@settings(deadline=None, max_examples=40)
@given(random_cells())
def test_prim_dims_is_the_first_difference_on_random_quivers(case):
    # the p1 quotient against the rank of D_k alone, cell by cell
    quiver, gmax = case
    for gamma in enumerate_dim_vectors(gmax):
        if sum(gamma) <= 3:
            _check_prim_is_the_first_difference(quiver, gamma,
                                                euler_form(quiver, gamma, gamma) + 8)


def test_prim_dims_examples():
    assert prim_dims(S1, (1,), 13).coeffs == {1: 1}
    assert prim_dims(S2, (1,), 9).coeffs == {-1: 1}
    assert prim_dims(S1, (2,), 16).coeffs == {}
    # outside the certified window the value is unknown, never zero
    with pytest.raises(DomainError):
        prim_dims(S1, (1,), 13).coeff(15)


def test_prim_dims_monotone_under_larger_window():
    small = prim_dims(S2, (2,), 2)
    large = prim_dims(S2, (2,), 8)
    assert small.window() == (-4, 2)
    assert large.window() == (-4, 8)
    assert agree(large, small)


def test_prim_dims_rejects_a_p1_multiple_off_its_pivot(monkeypatch):
    # p1 m_mu has coefficient 1 at mu + e_1; with the Pieri rows of 2 p1 in
    # its place the pivot reads 2, caught at the first cell with a row
    real = Cell._p1_rows
    monkeypatch.setattr(Cell, "_p1_rows", lambda cell: (
        (pivot, [(j, 2 * c) for j, c in row]) for pivot, row in real(cell)))
    with pytest.raises(StructuralViolationError, match=r"gamma=\(2,\), d=1"):
        prim_dims(S2, (2,), 2)


def test_generator_dims_rejects_a_product_with_a_stray_monomial(monkeypatch):
    # a block-symmetric product of degree d has exactly the orbit sizes of its
    # nonzero reps as terms, so one monomial of another degree is caught
    real = freeness.twisted_product

    def stray(a, b, *, quiver):
        prod = real(a, b, quiver=quiver)
        top = max((sum(e) for e, _ in prod.terms()), default=0)
        extra = poly_from_terms(prod.gamma, {(top + 1,) + (0,) * (sum(prod.gamma) - 1): 1})
        return prod + extra

    monkeypatch.setattr(freeness, "twisted_product", stray)
    with pytest.raises(StructuralViolationError, match="block-symmetric"):
        prim_dims(S2, (2,), 2)
