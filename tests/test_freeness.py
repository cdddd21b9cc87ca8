from fractions import Fraction

import pytest

from quivercoha import (CohaElement, DomainError, StructuralViolationError, basis,
                        decomposable_dim, enumerate_dim_vectors, euler_form, prim_dims,
                        twisted_product)
from quivercoha import freeness
from quivercoha.coha import basis_coordinates
from quivercoha.freeness import exact_rank

from conftest import S1, S2, S4, agree, poly_from_terms


# -- exact rank ----------------------------------------------------------------

def test_exact_rank_small_cases():
    assert exact_rank([[1, 0], [0, 1]]) == 2
    assert exact_rank([[1, 2], [2, 4]]) == 1
    assert exact_rank([[0, 0], [0, 0]]) == 0
    assert exact_rank([]) == 0
    assert exact_rank([
        [Fraction(1, 2), Fraction(1, 3)],
        [Fraction(3, 2), 1],
        [0, Fraction(1, 7)],
    ]) == 2


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
        mat = [[Fraction(rng.randint(-2, 2), rng.randint(1, 2))
                for _ in range(cols)] for _ in range(rows)]
        best = 0
        for size in range(1, min(rows, cols) + 1):
            for ri in itertools.combinations(range(rows), size):
                for ci in itertools.combinations(range(cols), size):
                    if det([[mat[r][c] for c in ci] for r in ri]) != 0:
                        best = max(best, size)
        assert exact_rank(mat) == best


# -- decomposables ----------------------------------------------------------------

def test_decomposable_examples():
    # products of bidegrees (1,1) x (1,5) span a line in H_{(2),6}
    assert decomposable_dim(S1, (2,), 6) == 1
    # no proper decomposition at |gamma| = 1
    assert decomposable_dim(S2, (1,), 5) == 0
    # below the bottom of the bidegree window the space is empty
    assert decomposable_dim(S1, (2,), 2) == 0


def _full_product_rank(quiver, gamma, k):
    """Rank of every twisted product f g, f and g basis elements at an
    ordered split gamma1 + gamma2 with k1 + k2 = k, on coordinates at every
    monomial that occurs."""
    prods = []
    for g1 in enumerate_dim_vectors(gamma)[:-1]:
        g2 = tuple(x - y for x, y in zip(gamma, g1))
        for k1 in range(euler_form(quiver, g1, g1), k - euler_form(quiver, g2, g2) + 1, 2):
            for f in basis(quiver, g1, k1):
                for g in basis(quiver, g2, k - k1):
                    prods.append(twisted_product(f, g).poly)
    coefficients = [dict(p.terms()) for p in prods]
    monomials = sorted({exps for c in coefficients for exps in c})
    return exact_rank([[c.get(m, 0) for m in monomials] for c in coefficients])


@pytest.mark.parametrize("quiver,gamma", [(S2, (2,)), (S2, (4,)), (S4, (2, 2))])
def test_decomposable_dim_spans_every_ordered_product(quiver, gamma):
    # decomposable_dim multiplies each unordered pair once; a b = +-b a, so
    # the span must be that of all ordered products
    chi = euler_form(quiver, gamma, gamma)
    for k in range(chi, chi + 13, 2):
        assert decomposable_dim(quiver, gamma, k) == _full_product_rank(quiver, gamma, k)


# -- generator series --------------------------------------------------------------

def _generator_dims(quiver, gamma, kmax):
    """{k: dim V_{gamma,k}} for chi <= k <= kmax of k's parity, dim V =
    dim H - decomposable_dim, from the public pieces."""
    chi = euler_form(quiver, gamma, gamma)
    return {k: basis_coordinates(quiver, gamma, k)[0] - decomposable_dim(quiver, gamma, k)
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


def test_prim_dims_rejects_negative_multiplicity(monkeypatch):
    # a V-series that drops from one degree to the next would need c < 0:
    # dim H is 1 at k = 1, 3, 5, so V reads 1, 0, 1
    monkeypatch.setattr(freeness, "decomposable_dim",
                        lambda quiver, gamma, k: int(k == 3))
    with pytest.raises(StructuralViolationError, match="k=3"):
        prim_dims(S1, (1,), 5)


def test_generator_dims_rejects_a_product_with_a_stray_monomial(monkeypatch):
    # a block-symmetric product of degree d has exactly the orbit sizes of its
    # nonzero reps as terms, so one monomial of another degree is caught
    real = freeness.twisted_product

    def stray(a, b):
        prod = real(a, b)
        top = max((sum(e) for e, _ in prod.poly.terms()), default=0)
        extra = poly_from_terms(prod.gamma, {(top + 1,) + (0,) * (sum(prod.gamma) - 1): 1})
        return CohaElement(prod.quiver, prod.gamma, prod.poly + extra)

    monkeypatch.setattr(freeness, "twisted_product", stray)
    with pytest.raises(StructuralViolationError, match="block-symmetric"):
        prim_dims(S2, (2,), 2)
