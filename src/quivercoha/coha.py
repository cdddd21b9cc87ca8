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
steps d_p, each one pass over the terms of its input by the closed form on
monomials (``exact_divide``, see the ``poly`` docstring).  No step builds
F - s_p F or divides it: d_p of a polynomial is a polynomial term by term,
so there is no remainder to certify.  The product is checked instead by the
tests' shuffle-by-shuffle oracle and goldens, by ``Cell.read``'s term count
and by the series route in every ``check-freeness`` cell.

K depends only on the split, and ``decomposable_dim`` multiplies the pairs
of one split in a row, so the products keep one plan, that of the last
(quiver, gamma1, gamma2) they saw (``_split_plan``, a one-entry
``lru_cache``): gamma, K, each factor's placement, the slots p of the chain
and the sign psi(gamma1, gamma2) mod 2 of ``sign_twist``.  A placement is
the bit fields that move a factor's keys to its slots (``poly._placement``).
The checks that the quiver is symmetric, that both gammas fit it and that
each placement is an injective map into gamma's slots run when a plan is
built, so a product of a known split is two bit-field moves
(``poly._place``), two multiplications and the steps, and
``twisted_product`` reads its sign off the same plan, which is built anew
when another split's has replaced it between the two reads.  A plan is
built once per (cell, split): the cells of a gamma visit the same
splits again, so ``check-freeness`` on the doubled 2-Kronecker quiver
(gamma-max 3,2, qtrunc 10) builds 28 kernels for 14 splits, and on the
2-loop quiver (gamma-max 4, qtrunc 16) 8 for 4.  A plan per split of the
gamma would save those rebuilds at the cost of holding every kernel of
the gamma at once.

K is built from its binomials: its terms are multiplied by x''_s - x'_r,
a_ij times for each pair of slots, by adding the unit keys of x''_s and of
x'_r to each key, with no polynomial product or power.  Each x''_s of block
j has top exponent sum_i a_ij gamma1^i in K, and each x'_r of block i
sum_j a_ij gamma2^j (pick that variable from every binomial holding it).
So the plan checks these bounds against the packing limit before it builds
a key: one above 127 raises LimitExceededError naming it, where a key's
byte would otherwise carry into the next.

A homogeneous element of polynomial degree d has cohomological degree 2d and
bidegree (gamma, k), k = chi(gamma, gamma) + 2d; the Z-grading is additive
under the product and controls all super-signs.  A product of polynomial
degrees d1 and d2 has degree d1 + d2 - chi(gamma1, gamma2): K adds
sum a_ij gamma1^i gamma2^j and the steps take sum gamma1^i gamma2^i.

The cell (gamma, d), H_{gamma,d}, holds the elements of polynomial degree d;
it depends on gamma and d alone.  Its monomial basis (``basis``) has one
product of monomial symmetric polynomials m_lambda per shape.  A shape holds
one partition per vertex of the support of gamma, the vertices i with
gamma^i > 0, in vertex order: a partition lambda of d_i with at most gamma^i
parts, d = sum d_i.  An empty block has no variables, so a vertex off the
support takes no partition, and padding gamma with zeros changes no shape.
The basis order is that of the p1 pass below: by degree, then lex on the
partition, at the first vertex of the support, then the same at the next,
and so on.  ``_blocks`` alone works out the support, as each nonempty
block's first slot, size and key shift.  Its terms are the sums of one orbit
key per color block, all with coefficient 1, and its lex-leading key lays
each lambda out in slot order.  Distinct shapes
have distinct leading keys, and every monomial of a shape's orbit has
coefficient 1 in it alone, so the coefficients of a block-symmetric
polynomial of the cell at the leading keys are its coordinates on the basis
(``Cell.read``).  Such a polynomial has exactly as many terms as the orbits
of its nonzero coordinates hold (per block, gamma^i! over the factorials of
the multiplicities in lambda); any other term count means it is not
block-symmetric of degree d, and the reader raises StructuralViolationError.

The same layout gives the quotient by p1, the sum of all the variables, that
``freeness`` counts in (its docstring has the proofs).  Let i0 be the first
vertex of the support: its partition comes first in every shape and its
block starts at slot 0.  The basis of H_{gamma,d-1} is indexed by the
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
i0 leads the order, as its partition is the first of each shape.  So
``Cell.p1_reducer`` clears those pivots from a polynomial's coordinates in
reverse basis order and keeps the complement shapes, lambda_1 == lambda_2
at i0; ``complement_basis`` lists their elements.  A zero gamma has no p1
quotient, and both raise DomainError on it.  This module alone knows that
layout.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, permutations
from math import factorial, prod

from .errors import DomainError, StructuralViolationError
from .poly import ColoredPoly, _pack, _place, _placement, exact_divide
from .quiver import DimVector, Quiver, dim_add, sign_twist


@lru_cache(maxsize=1)   # the last split's plan (see the module docstring)
def _split_plan(quiver: Quiver, g1: DimVector, g2: DimVector):
    """(gamma, K, the placement of f's variables, that of g's, the slots p
    of the steps d_p in chain order, the sign psi(gamma1, gamma2) mod 2) for
    the split gamma1 + gamma2, after checking that the quiver is symmetric,
    that both gammas fit it and that K's exponents fit the packing (see the
    module docstring).  A placement is the bit fields ``poly._placement``
    builds, and checks, for the factor's slots."""
    if not quiver.is_symmetric:
        raise DomainError("the Hall product is implemented for symmetric quivers")
    quiver.check_dim(g1)
    quiver.check_dim(g2)
    gamma = dim_add(g1, g2)
    n = quiver.vertex_count
    offs = [0, *accumulate(gamma)]
    # canonical placement: f's variables take the first g1^i slots of block i
    firsts = [range(offs[i], offs[i] + g1[i]) for i in range(n)]
    seconds = [range(offs[i] + g1[i], offs[i + 1]) for i in range(n)]
    nvars = offs[n]
    degree = [0] * nvars   # each variable's top exponent in K
    for i, j, a_ij in quiver.arrows:
        for s in seconds[j]:
            degree[s] += a_ij * g1[i]
        for r in firsts[i]:
            degree[r] += a_ij * g2[j]
    _pack(degree)   # exponent range check, before any key of K is built
    units = [1 << 8 * (nvars - 1 - v) for v in range(nvars)]
    terms = {0: 1}
    for i, j, a_ij in quiver.arrows:
        for r in firsts[i]:
            for s in seconds[j]:
                up, down = units[s], units[r]
                for _ in range(a_ij):   # terms * (x''_s - x'_r)
                    out = {k + up: c for k, c in terms.items()}
                    for k, c in terms.items():
                        k += down
                        c = out.get(k, 0) - c
                        if c:
                            out[k] = c
                        else:
                            del out[k]
                    terms = out
    kernel = ColoredPoly._make(gamma, terms)
    steps = [p for i in range(n) for r in reversed(range(g1[i]))
             for p in range(offs[i] + r, offs[i] + r + g2[i])]
    return (gamma, kernel,
            _placement(sum(g1), gamma, [v for slots in firsts for v in slots]),
            _placement(sum(g2), gamma, [v for slots in seconds for v in slots]),
            steps, sign_twist(quiver, g1, g2))


def shuffle_product(f: ColoredPoly, g: ColoredPoly, *, quiver: Quiver) -> ColoredPoly:
    """The Hall product of f in H_gamma1 and g in H_gamma2 over ``quiver``,
    an element of H_(gamma1 + gamma2), as a chain of divided differences of
    F = f(x') g(x'') K: for each color, x'_r for r = gamma1^i - 1 down to 0
    is moved across the x'' block by one step ``exact_divide`` per slot p it
    passes (see the module docstring).  The factors are trusted to be
    block-symmetric; a quiver that is not symmetric, or a gamma that does
    not fit it, raises DomainError."""
    gamma, kernel, f_fields, g_fields, steps, _ = _split_plan(quiver, f.gamma, g.gamma)
    poly = (_place(g, gamma, g_fields) * kernel) * _place(f, gamma, f_fields)
    for p in steps:
        poly = exact_divide(poly, p)
    return poly


def twisted_product(f: ColoredPoly, g: ColoredPoly, *, quiver: Quiver) -> ColoredPoly:
    """Hall product over ``quiver`` twisted by (-1)^psi(gamma1, gamma2), the
    sign the split's plan ends with; supercommutative for the Z-grading."""
    fg = shuffle_product(f, g, quiver=quiver)
    return -fg if _split_plan(quiver, f.gamma, g.gamma)[-1] else fg


# -- bases -------------------------------------------------------------------


def _partitions(d: int, max_part: int, max_len: int) -> list[tuple[int, ...]]:
    """Partitions of d into at most max_len >= 1 parts of size at most
    max_part, descending tuples, in lex order.  The first part is at least
    d / max_len, or the rest would not fit in max_len - 1 parts no larger."""
    if d == 0:
        return [()]
    return [(part,) + rest for part in range(-(-d // max_len), min(d, max_part) + 1)
            for rest in _partitions(d - part, part, max_len - 1)]


def _blocks(gamma: DimVector) -> list[tuple[int, int, int]]:
    """(first slot, size, key shift) of each nonempty color block, in vertex
    order: the support of gamma, which every shape walks.  The shift moves a
    block's bytes, packed on their own, to their place in a key."""
    nvars, first, out = sum(gamma), 0, []
    for size in gamma:
        if size:
            out.append((first, size, 8 * (nvars - first - size)))
        first += size
    return out


def _orbit_keys(lam, size: int, shift: int) -> list[int]:
    """Packed keys of the monomials of m_lambda in a color block of ``size``
    slots and key shift ``shift``."""
    padded = lam + (0,) * (size - len(lam))
    _pack(padded)   # exponent range check, once for the whole orbit
    return [int.from_bytes(bytes(perm), "big") << shift for perm in set(permutations(padded))]


def _shapes(gamma: DimVector, d: int) -> list[tuple[tuple[int, ...], ...]]:
    """Per basis element of the cell (gamma, d), in basis order, its
    partition at each vertex of the support of gamma."""
    if any(n < 0 for n in gamma):
        raise DomainError("dimension vector entries must be >= 0")
    blocks = _blocks(gamma)
    if not blocks:   # a zero gamma: the constants alone
        return [()] if d == 0 else []
    shapes = [((), d)]   # (the partitions at the blocks so far, the degree left)
    for _, size, _ in blocks[:-1]:   # an inner block takes any degree left
        parts = [_partitions(e, e, size) for e in range(d + 1)]
        shapes = [(shape + (lam,), left - e) for shape, left in shapes
                  for e in range(left + 1) for lam in parts[e]]
    size = blocks[-1][1]   # the last block takes exactly the degree left
    parts = {left: _partitions(left, left, size) for left in {left for _, left in shapes}}
    return [shape + (lam,) for shape, left in shapes for lam in parts[left]]


def _elements(gamma: DimVector, shapes):
    """The basis element of each shape, in order: per block the monomial
    symmetric polynomial m_lambda, whose terms are the sums of one orbit key
    per block, all with coefficient 1."""
    blocks = [(size, shift, {}) for _, size, shift in _blocks(gamma)]   # {}: partition -> orbit
    for shape in shapes:
        keys = [0]
        for lam, (size, shift, known) in zip(shape, blocks):
            orbit = known.get(lam)
            if orbit is None:
                orbit = known[lam] = _orbit_keys(lam, size, shift)
            keys = [key + o for key in keys for o in orbit]
        yield ColoredPoly._make(gamma, dict.fromkeys(keys, 1))


def basis(gamma: DimVector, d: int) -> list[ColoredPoly]:
    """A basis of the cell (gamma, d), the polynomials of degree d in H_gamma:
    products over the vertices of monomial symmetric polynomials, one
    partition of d_i with at most gamma^i parts per vertex, over all
    splittings d = sum d_i."""
    gamma = tuple(gamma)
    return list(_elements(gamma, _shapes(gamma, d)))


def _in_complement(shape) -> bool:
    """lambda_1 == lambda_2 at i0, the first block, zeros padding lambda: no
    p1 multiple leads at this shape (see the module docstring)."""
    lam = shape[0]
    return lam[:1] == lam[1:2]


def complement_basis(gamma: DimVector, d: int) -> list[ColoredPoly]:
    """The elements of ``basis(gamma, d)`` with lambda_1 == lambda_2 at the
    first vertex i0 of gamma: a basis of a complement of p1 H_{gamma,d-1} in
    H_{gamma,d}.  A zero gamma, which has no p1 quotient, raises DomainError."""
    gamma = tuple(gamma)
    if not any(gamma):
        raise DomainError("the p1 quotient concerns nonzero dimension vectors")
    return list(_elements(gamma, [shape for shape in _shapes(gamma, d)
                                  if _in_complement(shape)]))


class Cell:
    """The cell (gamma, d) and its monomial basis: ``shapes`` holds each basis
    element's partition per vertex of the support of gamma, in ``basis``
    order, and len(cell) is dim H_{gamma,d}.  i0, the vertex of the p1
    quotient, is the first block, so it owns each shape's first partition."""

    __slots__ = ("gamma", "d", "shapes", "_keys", "_sizes")

    def __init__(self, gamma: DimVector, d: int):
        gamma = tuple(gamma)
        self.gamma, self.d = gamma, d
        self.shapes = _shapes(gamma, d)
        blocks = _blocks(gamma)
        known = [{} for _ in blocks]   # per block: partition -> (shifted key, orbit size)
        self._keys, self._sizes = [], []
        for shape in self.shapes:
            key, size = 0, 1
            for lam, (_, n, shift), seen in zip(shape, blocks, known):
                packed = seen.get(lam)
                if packed is None:
                    b = lam + (0,) * (n - len(lam))
                    # gamma^i! over the factorials of the multiplicities
                    packed = seen[lam] = (_pack(b) << shift, factorial(n) // prod(
                        map(factorial, map(b.count, set(b)))))
                key += packed[0]
                size *= packed[1]
            self._keys.append(key)
            self._sizes.append(size)

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
        nvars = sum(self.gamma)
        spans = [(first, first + size) for first, size, _ in _blocks(self.gamma)]
        units = [1 << 8 * (nvars - 1 - s) for s in range(nvars)]
        index = {key: j for j, key in enumerate(self._keys)}
        for pivot, (shape, key) in enumerate(zip(self.shapes, self._keys)):
            if _in_complement(shape):
                continue
            mu = key - units[0]   # lambda_1 at i0, the first block, sits in slot 0
            exps = mu.to_bytes(nvars, "big")
            row = []
            for a, b in spans:
                block, last = exps[a:b], None
                for s, v in enumerate(block, a):
                    if v != last:   # first slot of a run of v
                        row.append((index[mu + units[s]], block.count(v + 1) + 1))
                        last = v
            yield pivot, row

    def p1_reducer(self):
        """(dim H_{gamma,d-1}, reduce): reduce(poly) gives the coordinates of
        a polynomial of the cell modulo p1 H_{gamma,d-1}, on the complement
        shapes (lambda_1 == lambda_2 at i0), those without a p1 row, in basis
        order.  Each p1 row must lead at its pivot with coefficient 1, every
        other shape below it in basis order, or StructuralViolationError is
        raised (see the module docstring).  A zero gamma, which has no p1
        quotient, raises DomainError."""
        if not any(self.gamma):
            raise DomainError("the p1 quotient concerns nonzero dimension vectors")
        steps = []
        for pivot, row in self._p1_rows():
            rest = [(j, c) for j, c in row if j != pivot]
            if (pivot, 1) not in row or any(j > pivot for j, _ in rest):
                raise StructuralViolationError(
                    f"p1 m_mu at gamma={self.gamma}, d={self.d} does not lead at mu + e_1 = "
                    f"{self.shapes[pivot]} with coefficient 1")
            steps.append((pivot, rest))
        pivots = {pivot for pivot, _ in steps}
        complement = [j for j in range(len(self.shapes)) if j not in pivots]
        steps.reverse()   # top-down: a step writes only to columns below its pivot

        def reduce(poly: ColoredPoly) -> list:
            row = self.read(poly)
            for pivot, rest in steps:
                c = row[pivot]
                if c:
                    for j, v in rest:
                        row[j] -= c * v
            return [row[j] for j in complement]
        return len(steps), reduce
