"""The cohomological Hall algebra of a symmetric quiver, as a shuffle algebra.

H_gamma is modeled by polynomials in gamma^i variables of color i, symmetric
within each color block (the equivariant cohomology of a point for the gauge
group, with variable degree 2).  An element of H_gamma is a block-symmetric
``ColoredPoly``, which carries gamma itself; the quiver enters only through
the product's kernel, so both products take it as the keyword argument
``quiver``.  It is keyword-only because the benchmark's tracer calls its
counter with the product's positional arguments and reads ``.gamma`` off
both.  The Hall product of f at gamma1 and g at gamma2 is the shuffle sum

    sum_S  f(x') g(x'') *
           prod_{i,j} prod_{r in S-side of i, s in comp side of j}
               (x''_{j,s} - x'_{i,r})^{a_ij}
         / prod_i prod_{r,s} (x''_{i,s} - x'_{i,r})

over all choices S = (S_i) of gamma1^i slots per color, the first factor's
variables occupying S in increasing slot order
(Kontsevich-Soibelman, arXiv:1006.2706, Section 2).

It is computed as a chain of divided differences.  Place x' on the first
gamma1^i slots of each block and x'' on the rest, and let

    F = f(x') g(x'') K,   K = prod_{i,j} prod_{r,s} (x''_{j,s} - x'_{i,r})^{a_ij}.

For slots p, p + 1 of one block, with s_p swapping x_p and x_{p+1},

    d_p F = (F - s_p F) / (x_{p+1} - x_p) = (1 + s_p)(F / (x_{p+1} - x_p)).

Each d_p symmetrizes over one more transposition and divides by one more
factor x'' - x'.  Moving x'_r, for r = gamma1^i - 1 down to 0, across the
whole x'' block (p = r, ..., r + gamma2^i - 1 within block i) is a reduced
word of the longest shuffle, the longest minimal coset representative of
S_gamma / (S_gamma1 x S_gamma2).  Since F is symmetric within each side, the
composite is the sum over all shuffles of sigma_S(F / prod (x''_s - x'_r)),
which is the shuffle sum above (Macdonald, *Notes on Schubert Polynomials*,
ch. II).  So every product, a zero factor's too, costs sum_i gamma1^i gamma2^i
exact divisions by x_{p+1} - x_p, each one walk per strand of the
numerator's keys (``exact_divide``).
Each division certifies that its step is a polynomial (a nonzero remainder
would be a correctness bug, not an input error).

K depends only on the split, and ``decomposable_dim`` multiplies the pairs
of one split in a row, so the product keeps the kernel of the last (quiver,
gamma1, gamma2) it saw and builds K once per split.  Each step forms the
numerator F - s_p F in one pass over F (``ColoredPoly.alternate``) and frees
F before the division allocates its quotient.

A homogeneous element of polynomial degree d has cohomological degree 2d and
bidegree (gamma, k), k = chi(gamma, gamma) + 2d; the Z-grading is additive
under the product and controls all super-signs.  A product of polynomial
degrees d1 and d2 has degree d1 + d2 - chi(gamma1, gamma2): K adds
sum a_ij gamma1^i gamma2^j and the divisions take sum gamma1^i gamma2^i.

The cell (gamma, d), H_{gamma,d}, holds the elements of polynomial degree d;
it depends on gamma and d alone.  Its monomial basis (``basis``) has one
product of monomial symmetric polynomials m_lambda per shape, a partition
lambda of d_i with at most gamma^i parts at each vertex, d = sum d_i.  The
basis order is that of the p1 pass below: by degree, then lex on the
partition, at the first vertex, then the same at the next, and so on.  Its
terms are the sums of one orbit key per color block, all with coefficient 1,
and its lex-leading key lays each lambda out in slot order.  Distinct shapes
have distinct leading keys, and every monomial of a shape's orbit has
coefficient 1 in it alone, so the coefficients of a block-symmetric
polynomial of the cell at the leading keys are its coordinates on the basis
(``Cell.read``).  Such a polynomial has exactly as many terms as the orbits
of its nonzero coordinates hold (per block, gamma^i! over the factorials of
the multiplicities in lambda); any other term count means it is not
block-symmetric of degree d, and the reader raises StructuralViolationError.

The same layout gives the quotient by p1, the sum of all the variables, that
``freeness`` counts in (its docstring has the proofs).  With i0 the first
vertex where gamma^i0 > 0, the basis of H_{gamma,d-1} is indexed by the
shapes lambda of the cell with lambda_1 > lambda_2 at i0 (zeros padding
lambda), through mu = lambda - e_1 at i0, so dim H_{gamma,d-1} is their
number.  p1 m_mu is read off the cell by Pieri's rule for monomial symmetric
functions (Macdonald, *Symmetric Functions*, ch. I): it is the sum over the
vertices i, and over the distinct values v of mu^i padded to gamma^i parts,
of c m_nu, nu being mu with its first part equal to v raised to v + 1 and c
the multiplicity of v + 1 in nu^i.  Proof: the coefficient of x^nu in
p1 m_mu counts the slots s with nu - e_s in the orbit of mu; lowering a part
w of nu^i by one gives the parts of mu^i exactly when w = v + 1.  On the
packed leading keys mu is lambda's key minus the unit of slot (i0, 1), and
nu is mu's key plus the unit of the raised slot.  The row of lambda leads at
lambda with coefficient 1 (lambda_1 is the only part of its size at i0), and
its other shapes come before lambda in basis order: a raise at a later
vertex lowers the degree at i0, one at a later slot of i0 the partition, and
i0 leads the order, as the blocks before it hold only the empty partition.
So ``Cell.p1_reducer`` clears those pivots from a polynomial's coordinates
in reverse basis order and keeps the complement shapes, lambda_1 ==
lambda_2 at i0; ``complement_basis`` lists their elements.  This module
alone knows that layout.
"""

from __future__ import annotations

from itertools import accumulate, permutations
from math import factorial, prod

from .errors import DivisibilityError, DomainError, StructuralViolationError
from .poly import ColoredPoly, _pack, exact_divide
from .quiver import DimVector, Quiver, dim_add, sign_twist


def _difference(gamma: DimVector, s: int, r: int) -> ColoredPoly:
    """x_s - x_r, variables given as flat indices."""
    top = 8 * (sum(gamma) - 1)
    return ColoredPoly._make(gamma, {1 << (top - 8 * s): 1, 1 << (top - 8 * r): -1})


# ((quiver, gamma1, gamma2), K) of the last split the product saw (see the
# module docstring).  It is read once and replaced whole, so a product never
# pairs one split's key with another's kernel, even when threads share it.
_last_kernel = (None, None)


def shuffle_product(f: ColoredPoly, g: ColoredPoly, *, quiver: Quiver) -> ColoredPoly:
    """The Hall product of f in H_gamma1 and g in H_gamma2 over ``quiver``,
    an element of H_(gamma1 + gamma2), as a chain of divided differences of
    F = f(x') g(x'') K: for each color, x'_r for r = gamma1^i - 1 down to 0
    is moved across the x'' block by one exact division by x_{p+1} - x_p per
    slot p it passes (see the module docstring).  The factors are trusted to
    be block-symmetric; a quiver that is not symmetric raises DomainError and
    a gamma that does not fit it DimensionMismatchError or DomainError."""
    global _last_kernel
    if not quiver.is_symmetric():
        raise DomainError("the Hall product is implemented for symmetric quivers")
    g1, g2 = f.gamma, g.gamma
    quiver.check_dim(g1)
    quiver.check_dim(g2)
    gamma = dim_add(g1, g2)
    n = quiver.vertex_count
    offs = [0, *accumulate(gamma)]
    # canonical placement: f's variables take the first g1^i slots of block i
    firsts = [range(offs[i], offs[i] + g1[i]) for i in range(n)]
    seconds = [range(offs[i] + g1[i], offs[i + 1]) for i in range(n)]
    fa = f.reindex(gamma, [v for slots in firsts for v in slots])
    fb = g.reindex(gamma, [v for slots in seconds for v in slots])
    split, kernel = _last_kernel
    if split != (quiver, g1, g2):
        kernel = ColoredPoly.constant(gamma, 1)
        for i in range(n):
            for j in range(n):
                a_ij = quiver.arrows[i][j]
                if not a_ij:
                    continue
                for r in firsts[i]:
                    for s in seconds[j]:
                        kernel = kernel * (_difference(gamma, s, r) ** a_ij)
        _last_kernel = ((quiver, g1, g2), kernel)
    poly = (fb * kernel) * fa
    del fa, fb
    for i in range(n):
        for r in reversed(range(g1[i])):
            for p in range(offs[i] + r, offs[i] + r + g2[i]):
                num = poly.alternate(p)
                del poly   # F is not needed once its numerator is built
                try:
                    poly = exact_divide(num, p)
                except DivisibilityError as err:  # pragma: no cover - would be a bug
                    raise StructuralViolationError(
                        f"divided difference at slots {p}, {p + 1} left a remainder for "
                        f"gamma1={g1}, gamma2={g2}; remainder={err.remainder!r}") from err
                del num
    return poly


def twisted_product(f: ColoredPoly, g: ColoredPoly, *, quiver: Quiver) -> ColoredPoly:
    """Hall product over ``quiver`` twisted by (-1)^psi(gamma1, gamma2);
    supercommutative for the Z-grading."""
    fg = shuffle_product(f, g, quiver=quiver)
    return -fg if sign_twist(quiver, f.gamma, g.gamma) else fg


# -- bases -------------------------------------------------------------------


def _partitions(d: int, max_part: int, max_len: int):
    """Partitions of d into at most max_len parts of size at most max_part,
    descending tuples, in lex order."""
    if d == 0:
        yield ()
        return
    if max_len == 0:
        return
    for part in range(1, min(d, max_part) + 1):
        for rest in _partitions(d - part, part, max_len - 1):
            yield (part,) + rest


def _padded(gamma: DimVector, vertex: int, lam) -> tuple[int, ...]:
    """lambda with zeros appended up to the gamma^vertex slots of its block."""
    return lam + (0,) * (gamma[vertex] - len(lam))


def _orbit_keys(gamma: DimVector, vertex: int, lam) -> list[int]:
    """Packed keys of the monomials of m_lambda in one color block."""
    padded = _padded(gamma, vertex, lam)
    _pack(padded)   # exponent range check, once for the whole orbit
    shift = 8 * sum(gamma[vertex + 1:])
    return [int.from_bytes(bytes(perm), "big") << shift for perm in set(permutations(padded))]


def _shapes(gamma: DimVector, d: int) -> list[tuple[tuple[int, ...], ...]]:
    """Per basis element of the cell (gamma, d), in basis order, its
    partition at each vertex."""
    if any(n < 0 for n in gamma):
        raise DomainError("dimension vector entries must be >= 0")
    shapes = [((), d)]   # (the partitions at the vertices so far, the degree left)
    for size in gamma:
        parts = [list(_partitions(e, e, size)) for e in range(d + 1)]
        shapes = [(shape + (lam,), left - e) for shape, left in shapes
                  for e in range(left + 1) for lam in parts[e]]
    return [shape for shape, left in shapes if not left]


def _elements(gamma: DimVector, shapes):
    """The basis element of each shape, in order: per vertex the monomial
    symmetric polynomial m_lambda, whose terms are the sums of one orbit key
    per block, all with coefficient 1."""
    orbits = [{} for _ in gamma]   # per vertex: partition -> its orbit keys
    for lams in shapes:
        keys = [0]
        for i, lam in enumerate(lams):
            orbit = orbits[i].get(lam)
            if orbit is None:
                orbit = orbits[i][lam] = _orbit_keys(gamma, i, lam)
            keys = [key + o for key in keys for o in orbit]
        yield ColoredPoly._make(gamma, dict.fromkeys(keys, 1))


def basis(gamma: DimVector, d: int) -> list[ColoredPoly]:
    """A basis of the cell (gamma, d), the polynomials of degree d in H_gamma:
    products over the vertices of monomial symmetric polynomials, one
    partition of d_i with at most gamma^i parts per vertex, over all
    splittings d = sum d_i."""
    gamma = tuple(gamma)
    return list(_elements(gamma, _shapes(gamma, d)))


def _first_vertex(gamma: DimVector) -> int:
    """i0, the first vertex with gamma^i0 > 0."""
    return next(i for i, n in enumerate(gamma) if n)


def _in_complement(shape, i0: int) -> bool:
    """lambda_1 == lambda_2 at i0, zeros padding lambda: no p1 multiple
    leads at this shape (see the module docstring)."""
    lam = shape[i0]
    return lam[:1] == lam[1:2]


def complement_basis(gamma: DimVector, d: int) -> list[ColoredPoly]:
    """The elements of ``basis(gamma, d)`` with lambda_1 == lambda_2 at the
    first vertex i0 of gamma: a basis of a complement of p1 H_{gamma,d-1} in
    H_{gamma,d}."""
    gamma = tuple(gamma)
    i0 = _first_vertex(gamma)
    return list(_elements(gamma, [shape for shape in _shapes(gamma, d)
                                  if _in_complement(shape, i0)]))


class Cell:
    """The cell (gamma, d) and its monomial basis: ``shapes`` holds each basis
    element's partition per vertex, in ``basis`` order, and len(cell) is
    dim H_{gamma,d}."""

    __slots__ = ("gamma", "d", "shapes", "_keys", "_sizes")

    def __init__(self, gamma: DimVector, d: int):
        gamma = tuple(gamma)
        self.gamma, self.d = gamma, d
        self.shapes = _shapes(gamma, d)
        self._keys, self._sizes = [], []
        for shape in self.shapes:
            blocks = [_padded(gamma, i, lam) for i, lam in enumerate(shape)]
            self._keys.append(_pack(sum(blocks, ())))
            # per block, gamma^i! over the factorials of the multiplicities
            self._sizes.append(prod(factorial(len(b)) // prod(map(factorial, map(b.count, set(b))))
                                    for b in blocks))

    def __len__(self):
        return len(self.shapes)

    def read(self, poly: ColoredPoly) -> list:
        """The coordinates of a block-symmetric polynomial of the cell on its
        basis: its coefficients at the lex-leading key of each element.  A
        term count other than the sum of the orbit sizes at the nonzero
        coordinates raises StructuralViolationError (see the module
        docstring)."""
        get = poly._terms.get
        row = [get(key, 0) for key in self._keys]
        if len(poly) != sum(n for n, c in zip(self._sizes, row) if c):
            raise StructuralViolationError(
                f"a polynomial at gamma={self.gamma}, d={self.d} is not block-symmetric "
                "of degree d")
        return row

    def _p1_rows(self):
        """(pivot lambda, the (index, coefficient) pairs of p1 m_mu) per shape
        with lambda_1 > lambda_2 at i0, by Pieri's rule on the packed keys."""
        gamma, nvars = self.gamma, sum(self.gamma)
        i0 = _first_vertex(gamma)
        offs = [0, *accumulate(gamma)]
        units = [1 << 8 * (nvars - 1 - s) for s in range(nvars)]
        index = {key: j for j, key in enumerate(self._keys)}
        for pivot, (shape, key) in enumerate(zip(self.shapes, self._keys)):
            if _in_complement(shape, i0):
                continue
            mu = key - units[offs[i0]]
            exps = mu.to_bytes(nvars, "big")
            row = []
            for a, b in zip(offs, offs[1:]):
                for s in range(a, b):
                    if s == a or exps[s - 1] != exps[s]:   # first slot of a run of v
                        row.append((index[mu + units[s]], exps[a:b].count(exps[s] + 1) + 1))
            yield pivot, row

    def p1_reducer(self):
        """(dim H_{gamma,d-1}, reduce): reduce(poly) gives the coordinates of
        a polynomial of the cell modulo p1 H_{gamma,d-1}, on the complement
        shapes (lambda_1 == lambda_2 at i0) in basis order.  Each p1 row
        must lead at its pivot with coefficient 1, every other shape below
        it in basis order, or StructuralViolationError is raised (see the
        module docstring)."""
        steps = []
        for pivot, row in self._p1_rows():
            rest = [(j, c) for j, c in row if j != pivot]
            if (pivot, 1) not in row or any(j > pivot for j, _ in rest):
                raise StructuralViolationError(
                    f"p1 m_mu at gamma={self.gamma}, d={self.d} does not lead at mu + e_1 = "
                    f"{self.shapes[pivot]} with coefficient 1")
            steps.append((pivot, rest))
        steps.reverse()   # top-down: a step writes only to columns below its pivot
        i0 = _first_vertex(self.gamma)
        complement = [j for j, shape in enumerate(self.shapes) if _in_complement(shape, i0)]

        def reduce(poly: ColoredPoly) -> list:
            row = self.read(poly)
            for pivot, rest in steps:
                c = row[pivot]
                if c:
                    for j, v in rest:
                        row[j] -= c * v
            return [row[j] for j in complement]
        return len(steps), reduce
