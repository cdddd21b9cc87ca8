from fractions import Fraction
from operator import ne
from pathlib import Path

import pytest

from hypothesis import given, settings

from quivercoha import (ColoredPoly, DomainError, StructuralViolationError, basis,
                        decomposable_dim, enumerate_dim_vectors, euler_form, prim_dims,
                        twisted_product)
from quivercoha import cli, coha, freeness
from quivercoha.coha import Cell, complement_basis
from quivercoha.freeness import exact_rank

from conftest import S1, S2, S4, agree, from_rows, poly_from_terms, random_cells


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
    # oracle: rank over Q by testing all square minors via Laplace expansion;
    # the incremental filter, fed the same rows one by one, keeps that many
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
        echelon = {}
        for row in mat:
            res = freeness._residual(echelon, row)
            if any(res):
                echelon[next(j for j, c in enumerate(res) if c)] = res
        assert len(echelon) == best


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


def test_decomposable_dim_certifies_the_kept_rows(monkeypatch):
    # with a filter that keeps every nonzero row, the cell (2,2), d = 4 keeps
    # a dependent row among its 6 = ncols, and Bareiss must catch it
    cell = Cell((2, 2), 4)
    below, _ = cell.p1_reducer()
    assert decomposable_dim(S4, cell) == len(cell) == below + 6   # saturates
    monkeypatch.setattr(freeness, "_residual", lambda echelon, row: row)
    with pytest.raises(StructuralViolationError, match=r"gamma=\(2, 2\), d=4"):
        decomposable_dim(S4, cell)


def test_split_list_follows_every_new_gamma_and_quiver():
    # the cells of one gamma share one split list, kept for the last
    # (quiver, gamma): cells of interleaved gammas, and of one gamma on two
    # quivers whose chi(gamma1, gamma2) differ, must each get the dimension
    # of a call that builds its list afresh
    mixed1 = from_rows([[1, 1], [1, 0]])
    mixed3 = from_rows([[3, 1], [1, 0]])
    cells = [(quiver, Cell(gamma, d)) for quiver in (mixed1, mixed3)
             for gamma, d in (((2, 1), 1), ((2, 1), 3), ((1, 2), 2), ((2, 2), 2))]
    order = [0, 2, 1, 4, 5, 0, 3, 7, 6, 1, 5, 2]
    freeness._splits.cache_clear()
    interleaved = [decomposable_dim(*cells[j]) for j in order]
    # a new list for the first cell and each change of (quiver, gamma)
    keys = [(quiver, cell.gamma) for quiver, cell in map(cells.__getitem__, order)]
    assert freeness._splits.cache_info().misses == 1 + sum(map(ne, keys, keys[1:]))
    for j, dim in zip(order, interleaved):
        freeness._splits.cache_clear()
        assert decomposable_dim(*cells[j]) == dim


def test_split_list_is_built_once_per_gamma(monkeypatch):
    # prim_dims on the doubled Kronecker quiver at (3,2) visits 6 cells; the
    # split list, 5 splits with their chi(gamma1, gamma2), is built once for
    # all of them, and prim_dims reads chi(gamma, gamma) once itself
    calls = {"enumerate_dim_vectors": 0, "euler_form": 0}
    for name in calls:
        real = getattr(freeness, name)

        def counted(*args, real=real, name=name):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(freeness, name, counted)
    freeness._splits.cache_clear()
    assert dict(prim_dims(S4, (3, 2), -1).items()) == {-11: 1, -9: 1, -7: 2, -5: 1}
    assert calls == {"enumerate_dim_vectors": 1, "euler_form": 1 + 5}
    assert freeness._splits.cache_info().misses == 1


BENCH_QUIVERS = Path(__file__).resolve().parent.parent / "bench" / "quivers"


@pytest.mark.parametrize("quiver, gamma_max, qtrunc, products, kernels, splits", [
    ("loop2.json", "4", "16", 30, 8, 4),
    ("kronecker2_doubled.json", "3,2", "10", 112, 28, 14),
], ids=["freeness_loop2", "freeness_kronecker"])
def test_products_stop_at_the_complement_count(monkeypatch, quiver, gamma_max, qtrunc,
                                               products, kernels, splits):
    # the benchmark's freeness workloads: a cell computes no product once its
    # kept rows number its complement columns (47 and 153 products without
    # the stop rule); the one-plan cache builds one kernel per (cell, split),
    # the counts of the coha docstring
    real_dim, real_residual, real_product = (
        freeness.decomposable_dim, freeness._residual, freeness.twisted_product)
    state = {"products": 0, "splits": set()}

    def dim(quiver, cell):
        below, _ = cell.p1_reducer()
        state.update(ncols=len(cell) - below, kept=0)
        return real_dim(quiver, cell)

    def residual(echelon, row):
        res = real_residual(echelon, row)
        state["kept"] += any(res)
        return res

    def product(f, g, *, quiver):
        assert state["kept"] < state["ncols"]
        state["products"] += 1
        state["splits"].add((f.gamma, g.gamma))
        return real_product(f, g, quiver=quiver)

    monkeypatch.setattr(freeness, "decomposable_dim", dim)
    monkeypatch.setattr(freeness, "_residual", residual)
    monkeypatch.setattr(freeness, "twisted_product", product)
    coha._split_plan.cache_clear()
    code, _ = cli.run(cli.load_config([
        "--quiver", str(BENCH_QUIVERS / quiver), "--mode", "check-freeness",
        "--gamma-max", gamma_max, "--qtrunc", qtrunc]))
    assert code == 0
    assert state["products"] == products
    assert len(state["splits"]) == splits
    assert coha._split_plan.cache_info().misses == kernels


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
    assert dict(prim.items()) == {k: c for k, c in diffs.items() if c}
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
    assert dict(prim_dims(S1, (1,), 13).items()) == {1: 1}
    assert dict(prim_dims(S2, (1,), 9).items()) == {-1: 1}
    assert dict(prim_dims(S1, (2,), 16).items()) == {}
    # outside the certified window the value is unknown, never zero
    with pytest.raises(DomainError):
        prim_dims(S1, (1,), 13).coeff(15)


def test_zero_gamma_on_the_linear_route_is_a_domain_error():
    # gamma = 0 has no first vertex for the p1 quotient; above d = 0 its cell
    # has no shapes at all, so the error comes from gamma, not from a shape
    with pytest.raises(DomainError, match="nonzero"):
        prim_dims(S1, (0,), 0)
    with pytest.raises(DomainError, match="nonzero"):
        decomposable_dim(S1, Cell((0,), 0))
    for d in range(3):
        with pytest.raises(DomainError, match="nonzero"):
            Cell((0,), d).p1_reducer()
        with pytest.raises(DomainError, match="nonzero"):
            complement_basis((0,), d)


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
