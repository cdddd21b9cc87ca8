from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from quivercoha import (ColoredPoly, DomainError, LimitExceededError, exact_divide,
                        parse_colored_poly)
from quivercoha.poly import _placement

from conftest import poly_from_terms, reindex


def v(gamma, vertex, slot):
    return ColoredPoly.variable(gamma, vertex, slot)


def parsed(text, gamma=(2,)):
    return parse_colored_poly(gamma, text)


def swap(a, p):
    """s_p a: a with variables p and p + 1 exchanged, by substitution."""
    transposition = list(range(a.nvars))
    transposition[p], transposition[p + 1] = p + 1, p
    return reindex(a, a.gamma, transposition)


FRACTIONS = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


@st.composite
def small_polys(draw, gamma=(2,), exponents=st.integers(0, 3), coeffs=FRACTIONS):
    nvars = sum(gamma)
    nterms = draw(st.integers(0, 4))
    terms = {}
    for _ in range(nterms):
        exps = tuple(draw(exponents) for _ in range(nvars))
        terms[exps] = terms.get(exps, 0) + draw(coeffs)
    return poly_from_terms(gamma, terms)


# -- arithmetic examples -------------------------------------------------------

def test_add_cancels():
    g = (2,)
    x1, x2 = v(g, 0, 1), v(g, 0, 2)
    assert (x1 + x2) + -(x1 + x2) == ColoredPoly.zero(g)


def test_a_number_is_not_a_polynomial_operand():
    # numbers enter through ColoredPoly.constant; + and == take polynomials only
    x = v((1,), 0, 1)
    with pytest.raises(TypeError):
        x + 1
    with pytest.raises(TypeError):
        1 + x
    assert x * x != 1 and ColoredPoly.constant((1,), 1) != 1


def test_product_takes_polynomials_only():
    # an operand that is not a polynomial is a TypeError, as for +; a
    # scalar is ColoredPoly.constant
    x = v((1,), 0, 1)
    for mul in (lambda: x * 3, lambda: 3 * x, lambda: x * Fraction(1, 2),
                lambda: x * 1.5, lambda: 1.5 * x, lambda: x * "2", lambda: x * None):
        with pytest.raises(TypeError):
            mul()
    assert ColoredPoly.constant((1,), 3) * x == parsed("3*x0_1", (1,))
    assert ColoredPoly.constant((1,), Fraction(1, 2)) * x == parsed("1/2*x0_1", (1,))


def test_mul_difference_of_squares():
    g = (2,)
    x1, x2 = v(g, 0, 1), v(g, 0, 2)
    assert parsed("x0_1 - x0_2") * (x1 + x2) == parsed("x0_1^2 - x0_2^2")


def test_substitution_swaps_variables():
    g = (2,)
    x1, x2 = v(g, 0, 1), v(g, 0, 2)
    p = x1 * x1 * x2
    assert reindex(p, g, (1, 0)) == x2 * x2 * x1


def test_substitution_must_be_injective():
    g = (2,)
    with pytest.raises(DomainError):
        reindex(v(g, 0, 1) + v(g, 0, 2), g, (0, 0))


def test_reindex_checks_its_map():
    # the map is checked where its fields are built, once per map
    for var_map, message in [((0,), "variable map length mismatch"),
                             ((1, 1), "variable substitution must be injective"),
                             ((0, 3), "variable map target out of range"),
                             ((-1, 0), "variable map target out of range")]:
        with pytest.raises(DomainError, match=f"^{message}$"):
            _placement(2, (3,), var_map)


def _reindex_by_bytes(p, new_gamma, var_map):
    """{key: coefficient} of p with variable v moved to var_map[v], one byte
    at a time: each target byte is read from its source variable, or is
    zero."""
    source = [p.nvars] * sum(new_gamma)   # byte nvars is a zero pad
    for v, t in enumerate(var_map):
        source[t] = v
    out = {}
    for k, c in p._terms.items():
        exps = k.to_bytes(p.nvars, "big") + b"\0"
        out[int.from_bytes(bytes(map(exps.__getitem__, source)), "big")] = c
    return out


@settings(deadline=None)
@given(st.data())
def test_reindex_moves_each_run_as_the_byte_permutation_does(data):
    # the runs of a map, moved as bit fields, must land every exponent where
    # moving it byte by byte does: order-keeping maps with gaps, whole-block
    # shifts and shuffled ones, zero blocks on either side, and no variables
    gamma = tuple(data.draw(st.lists(st.integers(0, 3), min_size=1, max_size=3)))
    new_gamma = tuple(data.draw(st.lists(st.integers(0, 4), min_size=1, max_size=4)))
    nvars, nv_new = sum(gamma), sum(new_gamma)
    assume(nvars <= nv_new)
    targets = range(nv_new)
    var_map = data.draw(st.one_of(
        st.permutations(targets).map(lambda perm: tuple(perm[:nvars])),
        st.lists(st.sampled_from(targets) if nv_new else st.nothing(), unique=True,
                 min_size=nvars, max_size=nvars).map(lambda ts: tuple(sorted(ts))),
        st.integers(0, nv_new - nvars).map(lambda a: tuple(range(a, a + nvars)))))
    p = data.draw(small_polys(gamma, exponents=st.sampled_from((0, 1, 2, 126, 127)),
                              coeffs=st.integers(-3, 3)))
    moved = reindex(p, new_gamma, var_map)
    assert moved.gamma == new_gamma
    assert moved._terms == _reindex_by_bytes(p, new_gamma, var_map)


def test_add_rejects_mismatched_variable_sets():
    with pytest.raises(DomainError):
        v((2,), 0, 1) + v((1, 1), 0, 1)


# -- exact division --------------------------------------------------------------

def difference(gamma, p):
    """x_(p+1) - x_p, the divisor of exact_divide(num, p), in flat indices."""
    xs = [v(gamma, i, s) for i, size in enumerate(gamma) for s in range(1, size + 1)]
    return xs[p + 1] + -xs[p]


def test_exact_divide_difference_of_squares():
    # d_0 x2^2 = (x2^2 - x1^2) / (x2 - x1), and d_0 x1^2 its negative
    g = (2,)
    x1, x2 = v(g, 0, 1), v(g, 0, 2)
    assert exact_divide(x2 * x2, 0) == x1 + x2
    assert exact_divide(x1 * x1, 0) == -(x1 + x2)


def test_exact_divide_zero_numerator():
    g = (2,)
    assert exact_divide(ColoredPoly.zero(g), 0) == ColoredPoly.zero(g)


def test_exact_divide_rejects_an_out_of_range_p():
    for g, p in (((2,), -1), ((2,), 1), ((1, 1), 2), ((1,), 0)):
        with pytest.raises(DomainError):
            exact_divide(ColoredPoly.constant(g, 1), p)


def test_exact_divide_int_quotient_stays_int():
    g = (2,)
    x1, x2 = v(g, 0, 1), v(g, 0, 2)
    q = exact_divide(parsed("6*x0_2^3"), 0)
    assert q == ColoredPoly.constant(g, 6) * (x1 * x1 + x1 * x2 + x2 * x2)
    assert all(type(c) is int for _, c in q.terms())


# -- ring axioms -----------------------------------------------------------------

@given(small_polys(), small_polys(), small_polys())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert not a + -a
    assert -(a + b) == -a + -b


# -- the 127 limit on every exponent -------------------------------------------------

@st.composite
def exponent_pairs(draw):
    gamma = tuple(draw(st.lists(st.integers(0, 2), min_size=1, max_size=3)))
    vec = st.lists(st.integers(0, 127), min_size=sum(gamma), max_size=sum(gamma))
    return gamma, draw(vec), draw(vec)


@given(exponent_pairs())
def test_monomial_product_adds_exponents_up_to_127(case):
    g, e1, e2 = case
    total = [a + b for a, b in zip(e1, e2)]
    m1, m2 = poly_from_terms(g, {tuple(e1): 1}), poly_from_terms(g, {tuple(e2): 1})
    if max(total, default=0) <= 127:
        assert list((m1 * m2).terms()) == [(tuple(total), 1)]
    else:
        with pytest.raises(LimitExceededError):
            m1 * m2


def test_exponent_range_is_checked():
    g = (2,)
    x1, x2 = v(g, 0, 1), v(g, 0, 2)
    assert list((x1 ** 100 * x2 ** 100).terms()) == [((100, 100), 1)]
    assert list(parsed("x0_1^127*x0_2^127").terms()) == [((127, 127), 1)]
    with pytest.raises(LimitExceededError):
        x1 ** 128
    with pytest.raises(LimitExceededError):
        parsed("x0_2^128")


EDGE_EXPONENTS = st.sampled_from((0, 1, 126, 127))

# 1 to 3 blocks of at most 2 variables, 2 or more in all
GAMMAS = (st.lists(st.integers(0, 2), min_size=1, max_size=3)
          .filter(lambda g: sum(g) > 1).map(tuple))


@given(st.data())
def test_exact_divide_is_the_divided_difference(data):
    # the closed form against its definition, at every adjacent p, block
    # boundaries included, on exponents at the edges of the packed range
    gamma = data.draw(GAMMAS)
    f = data.draw(small_polys(gamma, exponents=EDGE_EXPONENTS, coeffs=st.integers(-4, 4)))
    for p in range(f.nvars - 1):
        q = exact_divide(f, p)
        assert q * difference(gamma, p) == f + (-swap(f, p))
        # x_p and x_(p+1) lose a degree; the other variables keep f's exponents
        assert all(exps[p] <= 126 and exps[p + 1] <= 126 for exps, _ in q.terms())
        assert all(type(c) is int for _, c in q.terms())
        assert not exact_divide(f + swap(f, p), p)


@st.composite
def divisions(draw):
    """(a, p, e): gamma from GAMMAS, a and e with Fraction coefficients and
    exponents 0 to 3, and p a flat index with a variable after it."""
    gamma = draw(GAMMAS)
    p = draw(st.integers(0, sum(gamma) - 2))
    return draw(small_polys(gamma)), p, draw(small_polys(gamma))


@given(divisions())
def test_binomial_divide_undoes_multiplication(case):
    # d_p (a (x_(p+1) - x_p)) = a + s_p a, and d_p is linear
    a, p, e = case
    product = a * difference(a.gamma, p)
    assert exact_divide(product, p) == a + swap(a, p)
    assert exact_divide(product + e, p) == a + swap(a, p) + exact_divide(e, p)


@given(small_polys((2, 1), coeffs=st.integers(-4, 4)),
       small_polys((2, 1), coeffs=st.integers(-4, 4)),
       st.integers(0, 1))
def test_int_coefficients_stay_int(a, c, p):
    # the linear route's rows are integral only if products, sums and the
    # divided difference d_p keep int coefficients ints
    b = difference((2, 1), p)
    results = [a * c, a * b, ColoredPoly.constant(a.gamma, -3) * a, a + c,
               exact_divide(a, p), exact_divide(a * b, p)]
    assert results[-2] * b == a + (-swap(a, p))
    assert results[-1] == a + swap(a, p)
    assert all(type(coeff) is int for r in results for _, coeff in r.terms())


# -- structure helpers -------------------------------------------------------------

def test_block_symmetry_detection():
    g = (2, 1)
    x1, x2, y = v(g, 0, 1), v(g, 0, 2), v(g, 1, 1)
    assert (x1 + x2).is_block_symmetric()
    assert (x1 * x2 * y).is_block_symmetric()
    assert not (x1 + y).is_block_symmetric()
    assert not (x1 * x1 * x2).is_block_symmetric()
    # the second block starts at slot 2: asymmetry there alone is caught, and
    # a pair of slots across the block boundary is never compared
    g = (2, 2)
    assert not parse_colored_poly(g, "x0_1 + x0_2 + x1_1").is_block_symmetric()
    assert parse_colored_poly(g, "(x0_1 + x0_2)*(x1_1 + x1_2)").is_block_symmetric()
    assert parse_colored_poly((2, 0, 1), "x0_1 + x0_2 + x2_1").is_block_symmetric()


def _inner_pairs(gamma):
    """The slots v with v and v + 1 in one color block."""
    starts = [sum(gamma[:i]) for i in range(len(gamma))]
    return [a + s for a, size in zip(starts, gamma) for s in range(size - 1)]


@given(st.data())
def test_block_symmetry_is_invariance_under_each_inner_swap(data):
    # is_block_symmetric reads d_v f = 0 for each pair v, v + 1 inside one
    # block; half of the draws are symmetrised, so both verdicts occur, on
    # exponents at the edges of the packed range
    gamma = data.draw(GAMMAS)
    f = data.draw(small_polys(gamma, exponents=EDGE_EXPONENTS, coeffs=st.integers(-4, 4)))
    if data.draw(st.booleans()):
        for p in _inner_pairs(gamma):   # blocks of at most 2 slots: one swap each
            f = f + swap(f, p)
    assert f.is_block_symmetric() == all(f == swap(f, p) for p in _inner_pairs(gamma))


def test_degree_and_zero_poly():
    g = (1,)
    x = v(g, 0, 1)
    assert max(sum(exps) for exps, _ in (x * x * x).terms()) == 3
    assert list(ColoredPoly.zero(g).terms()) == []
    assert len({sum(exps) for exps, _ in ColoredPoly.zero(g).terms()}) <= 1


# -- rendering and parsing ----------------------------------------------------------

def test_canonical_str_golden():
    g = (2,)
    x1, x2 = v(g, 0, 1), v(g, 0, 2)
    p = (x1 * x1 + ColoredPoly.constant(g, -2) * x1 * x2
         + ColoredPoly.constant(g, Fraction(3, 2)) * x2)
    assert p.canonical_str() == "x0_1^2 - 2*x0_1*x0_2 + 3/2*x0_2"
    assert ColoredPoly.zero(g).canonical_str() == "0"
    assert ColoredPoly.constant(g, -1).canonical_str() == "-1"


@given(small_polys())
def test_parse_roundtrip(p):
    assert parse_colored_poly(p.gamma, p.canonical_str()) == p
    assert len(p) == len(list(p.terms()))


def test_parse_two_color_expression():
    g = (2, 1)
    p = parse_colored_poly(g, "x0_1*x1_1 - x0_2^2 + 1/3")
    assert list(p.terms()) == [((1, 0, 1), 1), ((0, 2, 0), -1), ((0, 0, 0), Fraction(1, 3))]


def test_parse_bare_x_single_variable_only():
    assert parse_colored_poly((1,), "x") == v((1,), 0, 1)
    with pytest.raises(DomainError):
        parse_colored_poly((2,), "x")
