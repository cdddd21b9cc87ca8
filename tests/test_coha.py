import random
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from math import prod
from operator import ne

import pytest
from hypothesis import assume, given, settings, strategies as st

from quivercoha import (ColoredPoly, DomainError, LimitExceededError, Quiver,
                        StructuralViolationError, basis, enumerate_dim_vectors, euler_form,
                        parse_colored_poly, shuffle_product, sign_twist, twisted_product)
from quivercoha import coha
from quivercoha.coha import Cell, complement_basis
from quivercoha.poly import _place

from conftest import (S1, S2, S3, S4, SUITE, arrow_matrix, from_rows, poly_from_terms,
                      reindex)


def elt(gamma, text):
    return parse_colored_poly(gamma, text)


def degree(poly):
    """Total degree of a nonzero polynomial."""
    return max(sum(exps) for exps, _ in poly.terms())


def k_degree(quiver, e):
    """k of a homogeneous nonzero element: 2 * polynomial degree + chi(gamma, gamma)."""
    return 2 * degree(e) + euler_form(quiver, e.gamma, e.gamma)


# -- shuffle examples at gamma = 1 + 1, computed from the two-term sum ----------

def _two_term_shuffle_oracle(quiver, f_deg, g_deg):
    """Independent evaluation of x^f * x^g at gamma = (1)+(1) on a one-vertex
    quiver with m loops: sum the two summands over the common denominator
    (x2 - x1) by hand.  Returns (numerator, denominator); the product times
    the denominator must equal the numerator, so no division is needed."""
    m = arrow_matrix(quiver)[0][0]
    g = (2,)
    x1 = ColoredPoly.variable(g, 0, 1)
    x2 = ColoredPoly.variable(g, 0, 2)
    x2_x1 = parse_colored_poly(g, "x0_2 - x0_1")
    kernel_12 = x2_x1 ** m              # f on slot 1
    kernel_21 = (-x2_x1) ** m           # f on slot 2
    num = (x1 ** f_deg) * (x2 ** g_deg) * kernel_12 * x2_x1 \
        + -((x2 ** f_deg) * (x1 ** g_deg) * kernel_21 * x2_x1)
    # the common denominator of the two summands is (x2 - x1) up to the sign
    # already folded in
    return num, x2_x1 * x2_x1


def test_shuffle_x_times_one_no_loops():
    prod = shuffle_product(elt((1,), "x"), elt((1,), "1"), quiver=S1)
    assert prod == ColoredPoly.constant((2,), -1)
    num, den = _two_term_shuffle_oracle(S1, 1, 0)
    assert prod * den == num


def test_shuffle_one_times_x_no_loops():
    prod = shuffle_product(elt((1,), "1"), elt((1,), "x"), quiver=S1)
    assert prod == ColoredPoly.constant((2,), 1)
    num, den = _two_term_shuffle_oracle(S1, 0, 1)
    assert prod * den == num


def test_shuffle_two_loops_squared_difference():
    prod = shuffle_product(elt((1,), "x"), elt((1,), "1"), quiver=S2)
    assert prod == -(parse_colored_poly((2,), "x0_1 - x0_2") ** 2)
    num, den = _two_term_shuffle_oracle(S2, 1, 0)
    assert prod * den == num


def test_shuffle_odd_element_squares_to_zero():
    one = elt((1,), "1")
    assert not shuffle_product(one, one, quiver=S1)


def test_unit_is_neutral(suite_quiver):
    n = suite_quiver.vertex_count
    unit = ColoredPoly.constant((0,) * n, 1)
    gamma = (2,) + (0,) * (n - 1)
    a = elt(gamma, "x0_1*x0_2 + x0_1 + x0_2")
    assert shuffle_product(a, unit, quiver=suite_quiver) == a
    assert shuffle_product(unit, a, quiver=suite_quiver) == a


def test_zero_factor_gives_zero(suite_quiver):
    # a zero factor runs the whole chain of divided differences
    n = suite_quiver.vertex_count
    g1, g2 = (2,) + (0,) * (n - 1), (1,) * n
    gamma = tuple(a + b for a, b in zip(g1, g2))
    zero = ColoredPoly.zero(gamma)
    a = elt(g1, "x0_1*x0_2 + x0_1 + x0_2")
    b = ColoredPoly.zero(g2)
    for product in (shuffle_product, twisted_product):
        assert product(b, a, quiver=suite_quiver) == zero
        assert product(a, b, quiver=suite_quiver) == zero


@pytest.mark.parametrize("product", [shuffle_product, twisted_product])
def test_products_reject_a_gamma_that_does_not_fit_the_quiver(product):
    # a factor on two colors over a one-vertex quiver, on either side
    x, y = elt((1,), "x"), elt((1, 0), "x0_1")
    with pytest.raises(DomainError):
        product(x, y, quiver=S1)
    with pytest.raises(DomainError):
        product(y, x, quiver=S1)


@pytest.mark.parametrize("product", [shuffle_product, twisted_product])
def test_products_reject_a_non_symmetric_quiver(product):
    a2 = from_rows([[0, 1], [0, 0]])
    with pytest.raises(DomainError, match="symmetric"):
        product(elt((1, 0), "x0_1"), elt((0, 1), "x1_1"), quiver=a2)


def test_degree_shift_matches_euler_form(suite_quiver):
    n = suite_quiver.vertex_count
    g1 = (1,) * n
    g2 = (1,) + (0,) * (n - 1)
    a = elt(g1, "x0_1^2")
    b = elt(g2, "x0_1")
    prod = shuffle_product(a, b, quiver=suite_quiver)
    if not prod:
        return
    expected = degree(a) + degree(b) - euler_form(suite_quiver, g1, g2)
    assert {sum(exps) for exps, _ in prod.terms()} == {expected}
    # bidegrees add
    assert k_degree(suite_quiver, prod) == \
        k_degree(suite_quiver, a) + k_degree(suite_quiver, b)


# -- twisted product -------------------------------------------------------------

def test_twist_trivial_when_psi_zero():
    for q in (S1, S2, S3):
        units = [tuple(int(j == i) for j in range(q.vertex_count))
                 for i in range(q.vertex_count)]
        assert all(sign_twist(q, e, f) == 0 for e in units for f in units)
    a, b = elt((1, 0), "x0_1"), elt((0, 1), "x1_1")
    assert twisted_product(a, b, quiver=S3) == shuffle_product(a, b, quiver=S3)


def test_twist_flips_sign_when_psi_is_one():
    q = from_rows([[1, 1], [1, 0]])
    assert sign_twist(q, (1, 0), (0, 1)) == 1
    a, b = elt((1, 0), "x0_1"), elt((0, 1), "x1_1")
    assert twisted_product(a, b, quiver=q) == -shuffle_product(a, b, quiver=q)


# -- basis -----------------------------------------------------------------------

def test_basis_examples():
    # partitions of 2 with at most 2 parts: (2), (1,1)
    b = basis((2,), 2)
    assert len(b) == 2
    polys = {e.canonical_str() for e in b}
    assert polys == {"x0_1^2 + x0_2^2", "x0_1*x0_2"}
    # two vertices, degree 1: one variable on each side
    b2 = basis((1, 1), 1)
    assert len(b2) == 2
    # degree 0: the constant
    b0 = basis((2, 1), 0)
    assert b0 == [ColoredPoly.constant((2, 1), 1)]


def test_cells_reject_a_negative_dimension():
    for build in (basis, complement_basis, Cell):
        with pytest.raises(DomainError):
            build((2, -1), 1)


def test_basis_count_formula(suite_quiver):
    # oracle: number of partitions of d_i with parts <= gamma^i, summed over
    # compositions (conjugation-equivalent to the at-most-gamma^i-parts count)
    def p_maxpart(n, m):
        if n == 0:
            return 1
        if m == 0:
            return 0
        return sum(p_maxpart(n - k, min(k, n - k)) for k in range(1, min(m, n) + 1))

    nverts = suite_quiver.vertex_count
    for gamma in [(2,) * nverts, (3,) + (1,) * (nverts - 1)]:
        for d in range(5):
            def count_comps(rem, idx):
                if idx == nverts:
                    return 1 if rem == 0 else 0
                return sum(p_maxpart(di, gamma[idx]) * count_comps(rem - di, idx + 1)
                           for di in range(rem + 1))
            assert len(basis(gamma, d)) == count_comps(d, 0)


def test_basis_elements_are_block_symmetric():
    bas = basis((2, 2), 3)
    for e in bas:
        assert e.is_block_symmetric()
    # the coordinates of the basis elements are the identity matrix
    cell = Cell((2, 2), 3)
    dim, read = len(cell), cell.read
    assert dim == len(bas)
    assert [read(e) for e in bas] == [[int(i == j) for j in range(dim)] for i in range(dim)]


# cells named by SUITE's quivers; a cell depends on gamma alone, so the two
# one-vertex quivers S1 and S2 take two different one-vertex cells
CELLS = [pytest.param(gamma, id=name) for name, gamma in
         [("S1", (3,)), ("S2", (4,)), ("S3", (3, 1)), ("S4", (3, 2)), ("three-vertex", (3, 0, 2))]]


@pytest.mark.parametrize("gamma", CELLS)
def test_basis_coordinates_read_any_symmetric_polynomial(gamma):
    # a rational combination of the basis reads back as its coefficients; one
    # more monomial, off the cell's degree or in an orbit but off its leading
    # key, breaks the term count that the reader checks
    rng = random.Random(f"read-{gamma}")
    bas = basis(gamma, 2)
    cell = Cell(gamma, 2)
    dim, read = len(cell), cell.read
    assert dim == len(bas) > 1
    assert read(ColoredPoly.zero(gamma)) == [0] * dim
    for _ in range(5):
        coords = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in bas]
        poly = ColoredPoly.zero(gamma)
        for c, e in zip(coords, bas):
            poly = poly + ColoredPoly.constant(gamma, c) * e
        assert read(poly) == coords
    # bas[-1] is m_(2) on the first block, of 3 or 4 slots: its last monomial
    # is not its leading one
    last, lead = min(bas[-1].terms())[0], max(bas[-1].terms())[0]
    assert last != lead
    for stray in (poly_from_terms(gamma, {last: 1}), ColoredPoly.variable(gamma, 0, 1)):
        with pytest.raises(StructuralViolationError, match="block-symmetric"):
            read(bas[0] + stray)


def test_basis_coordinates_check_the_exponent_range():
    # a cell whose monomials need an exponent above 127 is over the packing
    # limit; one at 127 is not
    assert len(Cell((1,), 127)) == 1
    with pytest.raises(LimitExceededError):
        Cell((1,), 128)


def _shapes_reference(gamma, d):
    """Every tuple of partitions, one per vertex of the support of gamma with
    at most gamma^i parts, of total degree d, sorted in basis order: by
    degree, then lex, at each vertex in turn."""
    per_vertex = [[tuple(part for part in reversed(parts) if part)
                   for parts in combinations_with_replacement(range(d + 1), size)
                   if sum(parts) <= d]
                  for size in gamma if size]
    shapes = [shape for shape in product(*per_vertex) if sum(map(sum, shape)) == d]
    return sorted(shapes, key=lambda shape: [(sum(lam), lam) for lam in shape])


@settings(deadline=None, max_examples=80)
@given(st.lists(st.integers(0, 4), min_size=1, max_size=3), st.integers(0, 8))
def test_shapes_and_cells_match_a_brute_force_reference(gamma, d):
    # the last block takes exactly the degree left, and each distinct block
    # partition is packed once: the shapes, leading keys and orbit sizes of
    # the cell must be those of every tuple of partitions, filtered and
    # sorted, and of the whole shape packed at once
    gamma = tuple(gamma)
    shapes = coha._shapes(gamma, d)
    assert shapes == _shapes_reference(gamma, d)
    cell = Cell(gamma, d)
    assert cell.shapes == shapes
    blocks = coha._blocks(gamma)
    for shape, key, size in zip(shapes, cell._keys, cell._sizes):
        padded = [lam + (0,) * (n - len(lam)) for lam, (_, n, _) in zip(shape, blocks)]
        assert key == int.from_bytes(bytes(sum(padded, ())), "big")
        assert size == prod(len(coha._orbit_keys(lam, n, shift))
                            for lam, (_, n, shift) in zip(shape, blocks))


def _check_p1_reducer(gamma, d):
    """The Pieri rows of the cell (gamma, d) are the coordinates of p1 m_mu
    over the basis of (gamma, d - 1), the reducer kills those, and the
    complement shapes, as many as dim H_d - dim H_(d-1), read as the unit
    vectors."""
    cell = Cell(gamma, d)
    below, reduce = cell.p1_reducer()
    lower, rest = basis(gamma, d - 1), complement_basis(gamma, d)
    assert below == len(lower) and len(rest) == len(cell) - below
    p1 = sum((ColoredPoly.variable(gamma, i, s)
              for i, size in enumerate(gamma) for s in range(1, size + 1)),
             ColoredPoly.zero(gamma))
    products = [cell.read(p1 * m) for m in lower]
    pieri = []
    for _, row in cell._p1_rows():
        dense = [0] * len(cell)
        for j, c in row:
            dense[j] = c
        pieri.append(dense)
    assert sorted(pieri) == sorted(products)
    assert not any(any(reduce(p1 * m)) for m in lower)
    assert [reduce(e) for e in rest] == [[int(i == j) for j in range(len(rest))]
                                         for i in range(len(rest))]
    return len(rest)


@pytest.mark.parametrize("gamma", CELLS + [pytest.param((0, 2), id="S4-second-vertex")])
def test_p1_reducer_kills_p1_multiples_and_reads_the_complement(gamma):
    assert _check_p1_reducer(gamma, 4) > 0


@settings(deadline=None, max_examples=60)
@given(st.lists(st.integers(0, 2), min_size=1, max_size=3).filter(any))
def test_p1_reducer_on_random_cells(gmax):
    # the cells of a box on 1-3 vertices, multi-vertex cells with i0 > 0
    # among them, at polynomial degrees 1-4
    for gamma in enumerate_dim_vectors(tuple(gmax)):
        for d in range(1, 5):
            _check_p1_reducer(gamma, d)


def test_p1_reducer_rejects_a_row_entry_above_its_pivot(monkeypatch):
    # the pass clears pivots top-down, so a row that wrote above its pivot
    # could leave a cleared pivot nonzero; (3,) at d = 4 has the shapes
    # (2, 1, 1), (2, 2), (3, 1), (4), and the row of pivot 0 gains one at 3
    assert Cell((3,), 4).shapes == [((2, 1, 1),), ((2, 2),), ((3, 1),), ((4,),)]
    real = Cell._p1_rows
    monkeypatch.setattr(Cell, "_p1_rows", lambda cell: (
        (pivot, row + [(len(cell) - 1, 1)]) for pivot, row in real(cell)))
    with pytest.raises(StructuralViolationError, match=r"gamma=\(3,\), d=4"):
        Cell((3,), 4).p1_reducer()


# -- randomized algebra properties (small sizes; the acceptance suite scales up) --

def _random_homogeneous(rng, gamma, degree):
    elements = basis(gamma, degree)
    poly = ColoredPoly.zero(gamma)
    for e in elements:
        poly = poly + ColoredPoly.constant(gamma, rng.randint(-2, 2)) * e
    if not poly:
        poly = elements[0] if elements else ColoredPoly.constant(gamma, 1)
    return poly


def _gammas_abs_at_most(quiver, bound):
    from quivercoha import enumerate_dim_vectors
    n = quiver.vertex_count
    return [g for g in enumerate_dim_vectors((bound,) * n) if sum(g) <= bound]


@pytest.mark.parametrize("name,quiver", SUITE)
def test_products_are_block_symmetric_and_supercommute(name, quiver):
    rng = random.Random(f"supercomm-{name}")
    chi = lambda a, b: euler_form(quiver, a, b)
    for _ in range(12):
        g1 = rng.choice(_gammas_abs_at_most(quiver, 2))
        g2 = rng.choice(_gammas_abs_at_most(quiver, 2))
        a = _random_homogeneous(rng, g1, rng.randint(0, 2))
        b = _random_homogeneous(rng, g2, rng.randint(0, 2))
        ab = shuffle_product(a, b, quiver=quiver)
        ba = shuffle_product(b, a, quiver=quiver)
        assert ab.is_block_symmetric()
        assert ab == (-ba if chi(g1, g2) % 2 else ba)
        tw_ab = twisted_product(a, b, quiver=quiver)
        tw_ba = twisted_product(b, a, quiver=quiver)
        odd = k_degree(quiver, a) * k_degree(quiver, b) % 2
        assert tw_ab == (-tw_ba if odd else tw_ba)


@pytest.mark.parametrize("name,quiver", SUITE)
def test_associativity_small(name, quiver):
    rng = random.Random(f"assoc-{name}")
    triples = 0
    while triples < 8:
        gammas = _gammas_abs_at_most(quiver, 2)
        g1, g2, g3 = (rng.choice(gammas) for _ in range(3))
        if sum(g1) + sum(g2) + sum(g3) > 4:
            continue
        a = _random_homogeneous(rng, g1, rng.randint(0, 2))
        b = _random_homogeneous(rng, g2, rng.randint(0, 2))
        c = _random_homogeneous(rng, g3, rng.randint(0, 2))
        for product in (shuffle_product, twisted_product):
            assert product(product(a, b, quiver=quiver), c, quiver=quiver) == \
                product(a, product(b, c, quiver=quiver), quiver=quiver)
        triples += 1


def test_inhomogeneous_products_distribute():
    g = (1,)
    total = shuffle_product(elt(g, "x^2 + x"), elt(g, "x + 1"), quiver=S2)
    pieces = ColoredPoly.zero((2,))
    for pa in ("x^2", "x"):
        for pb in ("x", "1"):
            pieces = pieces + shuffle_product(elt(g, pa), elt(g, pb), quiver=S2)
    assert total == pieces


# -- the relabeled shuffle sum against the per-shuffle evaluation ------------------

def _shuffle_oracle(quiver, a, b):
    """The Hall product evaluated shuffle by shuffle: for each S, place a's
    variables on S and b's on the complement, build the kernel and the
    Vandermondes of both sides from scratch, and put the summand over the
    full Vandermonde V with the sign of S.  Returns (numerator, V): the
    product is numerator / V, checked by multiplying back, so the oracle
    uses no division."""
    g1 = a.gamma
    gamma = tuple(x + y for x, y in zip(g1, b.gamma))
    n = len(gamma)
    arrows = arrow_matrix(quiver)
    offs = [sum(gamma[:i]) for i in range(n)]

    xs = [ColoredPoly.variable(gamma, i, s)
          for i in range(n) for s in range(1, gamma[i] + 1)]

    def diff(s, r):
        return xs[s] + -xs[r]

    def vandermonde(slots):
        out = ColoredPoly.constant(gamma, 1)
        for p, r in combinations(slots, 2):
            out = out * diff(r, p)
        return out

    numerator = ColoredPoly.zero(gamma)
    for pick in product(*(combinations(range(gamma[i]), g1[i]) for i in range(n))):
        firsts = [[offs[i] + r for r in pick[i]] for i in range(n)]
        seconds = [[offs[i] + s for s in range(gamma[i]) if s not in pick[i]]
                   for i in range(n)]
        summand = reindex(a, gamma, sum(firsts, [])) * reindex(b, gamma, sum(seconds, []))
        for i in range(n):
            summand = summand * vandermonde(firsts[i]) * vandermonde(seconds[i])
            for j in range(n):
                for r in firsts[i]:
                    for s in seconds[j]:
                        summand = summand * diff(s, r) ** arrows[i][j]
        # one -1 per pair p < r of a color with p on b's side and r on a's
        inv = sum(1 for i in range(n) for r in pick[i] for p in range(r)
                  if p not in pick[i])
        numerator = numerator + (-summand if inv % 2 else summand)
    full = ColoredPoly.constant(gamma, 1)
    for i in range(n):
        full = full * vandermonde(range(offs[i], offs[i] + gamma[i]))
    return numerator, full


def _random_symmetric(rng, gamma, degree):
    """A block-symmetric element of degree <= degree: a nonzero rational
    constant plus a random rational combination of the basis in each degree
    1, ..., degree."""
    poly = ColoredPoly.constant(gamma, Fraction(rng.randint(1, 3), rng.randint(1, 3)))
    for d in range(1, degree + 1):
        for e in basis(gamma, d):
            c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            poly = poly + ColoredPoly.constant(gamma, c) * e
    return poly


ORACLE_QUIVERS = SUITE + [
    ("loop-mixed-1", from_rows([[1, 1], [1, 0]])),
    ("loop-mixed-3", from_rows([[3, 1], [1, 0]])),
    ("three-vertex", from_rows([[0, 1, 0], [1, 1, 2], [0, 2, 0]])),
]
DEEP_ORACLE = {"S2", "S4", "three-vertex"}


@pytest.mark.parametrize("name,quiver", ORACLE_QUIVERS)
def test_shuffle_matches_per_shuffle_oracle(name, quiver):
    n = quiver.vertex_count
    rng = random.Random(f"oracle-{name}")
    gammas = [g for g in enumerate_dim_vectors((4,) * n) if sum(g) <= 4]
    # |gamma1| + |gamma2| <= 5 and a kernel of degree <= 6 keep the oracle,
    # which rebuilds everything per shuffle, under 0.3 s a product
    pairs = [(g1, g2) for g1 in gammas for g2 in gammas
             if sum(g1) + sum(g2) <= 5
             and sum(arrow_matrix(quiver)[i][j] * g1[i] * g2[j]
                     for i in range(n) for j in range(n)) <= 6]
    # inputs of degree 2 and 3 on a looped color, a doubled multi-edge and
    # three colors give each divided difference many terms; at about 1 s in
    # all, the other quivers keep degree <= 1
    degrees = (2, 3) if name in DEEP_ORACLE else (1,)
    for g1, g2 in rng.sample(pairs, min(8, len(pairs))):
        a = _random_symmetric(rng, g1, rng.choice(degrees))
        b = _random_symmetric(rng, g2, rng.choice(degrees))
        numerator, vandermonde = _shuffle_oracle(quiver, a, b)
        assert shuffle_product(a, b, quiver=quiver) * vandermonde == numerator


def test_kernel_slot_follows_the_split_and_the_quiver():
    # the product keeps only the plan of the last (quiver, gamma1, gamma2):
    # splits A, B, A in a row, then A on a second quiver with the same
    # dimension vectors, must each be multiplied with their own kernel
    rng = random.Random("kernel-slot")
    mixed1 = from_rows([[1, 1], [1, 0]])
    mixed3 = from_rows([[3, 1], [1, 0]])
    split_a, split_b = ((1, 0), (1, 1)), ((1, 1), (1, 0))
    for quiver, (g1, g2) in [(mixed1, split_a), (mixed1, split_b), (mixed1, split_a),
                             (mixed3, split_a)]:
        a = _random_symmetric(rng, g1, 1)
        b = _random_symmetric(rng, g2, 1)
        numerator, vandermonde = _shuffle_oracle(quiver, a, b)
        assert shuffle_product(a, b, quiver=quiver) * vandermonde == numerator


def test_kernel_is_built_once_per_split():
    # the kernel is built with the split's plan, so plan misses count builds
    coha._split_plan.cache_clear()   # no split left by other tests
    x, one = elt((1,), "x"), elt((1,), "1")
    shuffle_product(elt((2,), "1"), one, quiver=S2)
    assert coha._split_plan.cache_info().misses == 1   # one plan, with K, for (2,) + (1,)
    shuffle_product(elt((2,), "x0_1 + x0_2"), x, quiver=S2)
    assert coha._split_plan.cache_info().misses == 1
    shuffle_product(one, elt((2,), "1"), quiver=S2)
    assert coha._split_plan.cache_info().misses == 2


@st.composite
def _kernel_splits(draw):
    """A symmetric quiver on 1-3 vertices, loops and edges of multiplicity
    <= 3, and a split gamma1 + gamma2 whose kernel has at most 8 binomials."""
    n = draw(st.integers(1, 3))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = draw(st.integers(0, 3))
    g1 = tuple(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    g2 = tuple(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    assume(sum(rows[i][j] * g1[i] * g2[j] for i in range(n) for j in range(n)) <= 8)
    return from_rows(rows), g1, g2


@settings(deadline=None, max_examples=60)
@given(_kernel_splits())
def test_kernel_is_the_product_of_its_binomials(split):
    # K = prod (x''_s - x'_r)^a_ij, f's variables x' on the first gamma1^i
    # slots of each block and g's x'' on the rest, built by the ring
    # operations; the stored placements put them there, and the stored sign
    # is psi(gamma1, gamma2)
    quiver, g1, g2 = split
    gamma, kernel, f_fields, g_fields, _, sign = coha._split_plan(quiver, g1, g2)
    xs = [ColoredPoly.variable(gamma, i, s)
          for i, size in enumerate(gamma) for s in range(1, size + 1)]
    offs = [sum(gamma[:i]) for i in range(len(gamma))]
    expected = ColoredPoly.constant(gamma, 1)
    for i, j, a_ij in quiver.arrows:
        for r in range(offs[i], offs[i] + g1[i]):
            for s in range(offs[j] + g1[j], offs[j] + gamma[j]):
                expected = expected * (xs[s] + -xs[r]) ** a_ij
    assert kernel == expected
    for i in range(len(gamma)):
        for s in range(1, g1[i] + 1):
            assert _place(ColoredPoly.variable(g1, i, s), gamma, f_fields) == xs[offs[i] + s - 1]
        for s in range(1, g2[i] + 1):
            assert (_place(ColoredPoly.variable(g2, i, s), gamma, g_fields)
                    == xs[offs[i] + g1[i] + s - 1])
    assert sign == sign_twist(quiver, g1, g2)


def test_kernel_over_the_packing_limit_is_refused_before_it_is_built():
    # with 128 loops, K at (2,) + (1,) is (x''_1 - x'_1)^128 (x''_1 - x'_2)^128:
    # x''_1 reaches 2 * 128, which the error names
    quiver = Quiver(1, [(0, 0, 128)])
    with pytest.raises(LimitExceededError,
                       match=r"^exponent 256 exceeds the packed-exponent limit 127$"):
        shuffle_product(elt((2,), "1"), elt((1,), "1"), quiver=quiver)


def test_split_plan_checks_and_follows_every_new_split():
    # the checks run only when a plan is built, so a split that differs from
    # the last valid one in the quiver alone, or in a gamma alone, must still
    # raise; and interleaved splits on two quivers with the same dimension
    # vectors must give the products of fresh calls
    mixed1 = from_rows([[1, 1], [1, 0]])
    mixed3 = from_rows([[3, 1], [1, 0]])
    one_way = from_rows([[1, 1], [0, 0]])
    x0, x1 = elt((1, 0), "x0_1"), elt((0, 1), "x1_1")
    shuffle_product(x0, x1, quiver=mixed1)
    with pytest.raises(DomainError, match="symmetric"):
        shuffle_product(x0, x1, quiver=one_way)
    shuffle_product(x0, x1, quiver=mixed1)
    with pytest.raises(DomainError):
        shuffle_product(x0, elt((0, 1, 0), "x1_1"), quiver=mixed1)
    rng = random.Random("split-plan")
    calls = [(quiver, _random_symmetric(rng, g1, 1), _random_symmetric(rng, g2, 1))
             for quiver in (mixed1, mixed3)
             for g1, g2 in (((1, 0), (1, 1)), ((1, 1), (1, 0)), ((2, 0), (0, 1)))]
    order = [0, 3, 1, 4, 0, 2, 5, 3, 3, 1]
    coha._split_plan.cache_clear()
    interleaved = [shuffle_product(a, b, quiver=q) for q, a, b in map(calls.__getitem__, order)]
    # a new plan for the first call and each change of split: 3, 3 is one plan
    keys = [(q, a.gamma, b.gamma) for q, a, b in map(calls.__getitem__, order)]
    assert coha._split_plan.cache_info().misses == 1 + sum(map(ne, keys, keys[1:])) == 9
    for j, product in zip(order, interleaved):
        coha._split_plan.cache_clear()
        quiver, a, b = calls[j]
        assert shuffle_product(a, b, quiver=quiver) == product


def test_twisted_product_takes_the_sign_of_its_own_split(monkeypatch):
    # twisted_product reads psi from the plan slot after its shuffle_product
    # has filled it; on interleaved splits of both signs, and when another
    # split's plan replaces the slot between the two reads, the sign must be
    # that of its own split
    rng = random.Random("twisted-sign")
    mixed1 = from_rows([[1, 1], [1, 0]])
    calls = [(quiver, _random_symmetric(rng, g1, 1), _random_symmetric(rng, g2, 1))
             for quiver in (S4, mixed1)
             for g1, g2 in (((1, 0), (0, 1)), ((0, 1), (1, 0)), ((1, 0), (1, 1)),
                            ((1, 1), (1, 0)))]
    signs = [sign_twist(q, a.gamma, b.gamma) for q, a, b in calls]
    assert 0 in signs and 1 in signs
    order = [0, 1, 4, 2, 5, 3, 7, 6, 0, 0, 2]
    twisted = [twisted_product(a, b, quiver=q) for q, a, b in map(calls.__getitem__, order)]
    shuffled = [shuffle_product(a, b, quiver=q) for q, a, b in calls]
    for j, product in zip(order, twisted):
        assert shuffled[j]
        assert product == (-shuffled[j] if signs[j] else shuffled[j])
    real = coha.shuffle_product
    for other in (0, 1):   # a split of each sign takes the slot mid-call

        def replacing(f, g, *, quiver):
            fg = real(f, g, quiver=quiver)
            q, a, b = calls[other]
            real(a, b, quiver=q)
            return fg

        monkeypatch.setattr(coha, "shuffle_product", replacing)
        for j, (q, a, b) in enumerate(calls):
            assert twisted_product(a, b, quiver=q) == (
                -shuffled[j] if signs[j] else shuffled[j])
