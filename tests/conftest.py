from fractions import Fraction

import pytest
from hypothesis import strategies as st

from quivercoha import HalfSeries, Quiver


def from_rows(rows):
    """The quiver whose arrow-multiplicity matrix is ``rows``: rows[i][j]
    arrows i -> j."""
    return Quiver(len(rows), [(i, j, m) for i, row in enumerate(rows)
                              for j, m in enumerate(row) if m])


def arrow_matrix(q):
    """The arrow multiplicities of q as a dense list of rows."""
    rows = [[0] * q.vertex_count for _ in range(q.vertex_count)]
    for i, j, m in q.arrows:
        rows[i][j] = m
    return rows

# The four suite quivers: symmetric, used by most cross-checks.
S1 = from_rows([[0]])                       # one vertex, no arrows
S2 = from_rows([[2]])                       # one vertex, two loops (doubled loop)
S3 = from_rows([[0, 1], [1, 0]])   # double of A2
S4 = from_rows([[0, 2], [2, 0]])   # double of the 2-Kronecker

# Their half quivers (double(half) == suite quiver).
S1_HALF = from_rows([[0]])
S2_HALF = from_rows([[1]])
S3_HALF = from_rows([[0, 1], [0, 0]])
S4_HALF = from_rows([[0, 2], [0, 0]])

SUITE = [("S1", S1), ("S2", S2), ("S3", S3), ("S4", S4)]
SUITE_HALVES = [("S1", S1_HALF), ("S2", S2_HALF), ("S3", S3_HALF), ("S4", S4_HALF)]


@pytest.fixture(params=SUITE, ids=[name for name, _ in SUITE])
def suite_quiver(request):
    return request.param[1]


def gammas_up_to(quiver, total):
    """All nonzero gamma with |gamma| <= total, ordered (|gamma|, lex)."""
    from quivercoha import enumerate_dim_vectors
    n = quiver.vertex_count
    return [g for g in enumerate_dim_vectors((total,) * n) if sum(g) <= total]


def poly_from_terms(gamma, terms):
    """sum of c * x^exps over terms {exponent tuple: c}, built from
    ColoredPoly.variable, so the library's multiplication checks the range."""
    from quivercoha import ColoredPoly
    xs = [ColoredPoly.variable(gamma, i, s)
          for i, size in enumerate(gamma) for s in range(1, size + 1)]
    out = ColoredPoly.zero(gamma)
    for exps, c in terms.items():
        monomial = ColoredPoly.constant(gamma, c)
        for x, e in zip(xs, exps):
            monomial = monomial * x ** e
        out = out + monomial
    return out


def reindex(p, new_gamma, var_map):
    """p with variable v moved to variable var_map[v] of the set declared by
    new_gamma: the checked fields of ``poly._placement``, applied by
    ``poly._place``, as a split plan applies them."""
    from quivercoha.poly import _place, _placement
    return _place(p, new_gamma, _placement(p.nvars, new_gamma, var_map))


def agree(a, b):
    """Two HalfSeries agree coefficientwise on the overlap of their windows."""
    return all(a.coeff(k) == b.coeff(k)
               for k in range(min(a.lo, b.lo), min(a.hi, b.hi) + 1))


def in_order(s):
    """The terms of a HalfSeries are stored strictly ascending, nonzero and
    keyed by offsets 0 <= k - lo <= hi - lo, so inside its window [lo, hi]."""
    keys = list(s.coeffs)
    return (all(k1 < k2 for k1, k2 in zip(keys, keys[1:])) and all(s.coeffs.values())
            and all(0 <= k <= s.hi - s.lo for k in keys))


@st.composite
def small_series(draw):
    """A series with a window of width -2..8 (below 0: empty, hi < lo), its
    terms inserted in a random exponent order."""
    lo = draw(st.integers(-4, 2))
    width = draw(st.integers(-2, 8))
    exponents = draw(st.permutations(range(lo, lo + max(width, 0) + 1)))
    coeffs = {}
    for k in exponents:
        if draw(st.booleans()):
            coeffs[k] = Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 3)))
    return HalfSeries(coeffs, lo, lo + width)


@st.composite
def random_cells(draw):
    """A symmetric quiver on 1-3 vertices, loops and edges of multiplicity
    <= 2, and a box with entries <= 2."""
    n = draw(st.integers(1, 3))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = draw(st.integers(0, 2))
    gmax = tuple(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)
                      .filter(any)))
    return from_rows(rows), gmax


@st.composite
def random_half_quivers(draw):
    """A quiver on 1-3 vertices, not necessarily symmetric, loops and arrows
    of multiplicity <= 2, and a box with entries <= 3."""
    n = draw(st.integers(1, 3))
    rows = [[draw(st.integers(0, 2)) for _ in range(n)] for _ in range(n)]
    gmax = tuple(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)
                      .filter(any)))
    return from_rows(rows), gmax
