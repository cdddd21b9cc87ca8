"""The cohomological Hall algebra of a symmetric quiver, as a shuffle algebra.

H_gamma is modeled by polynomials in gamma^i variables of color i, symmetric
within each color block (the equivariant cohomology of a point for the gauge
group, with variable degree 2).  The Hall product of f at gamma1 and g at
gamma2 is the shuffle sum

    sum_S  f(x') g(x'') *
           prod_{i,j} prod_{r in S-side of i, s in comp side of j}
               (x''_{j,s} - x'_{i,r})^{a_ij}
         / prod_i prod_{r,s} (x''_{i,s} - x'_{i,r})

over all choices S = (S_i) of gamma1^i slots per color, the first factor's
variables occupying S in increasing slot order.

It is computed as one alternation.  Alt = sum_pi sign(pi) pi runs over the
permutations pi of the slots within each color block, and x^delta puts
0, 1, 2, ... on consecutive slots, so the Vandermonde
V = prod_i prod_{p < q in block i} (x_q - x_p) is Alt(x^delta).  Place x' on
the first gamma1^i slots of each block and x'' on the rest.  f, g and

    K = prod_{i,j} prod_{r,s} (x''_{j,s} - x'_{i,r})^{a_ij}

are symmetric within each side, and V(x') V(x'') alternates x'^delta' x''^delta''
(0, 1, ... along each side) over the permutations that keep the sides.  The
shuffles are their cosets: sigma_S sends x' onto S and x'' onto the rest,
increasing on each, so the product is

    sum_S sign(sigma_S) sigma_S(f g K V(x') V(x'')) / V
        = Alt(f g K x'^delta' x''^delta'') / Alt(x^delta).

Alt(x^beta) is 0 when beta repeats an exponent inside a block, and otherwise
sign(sort) Alt(x^sort(beta)) (Macdonald, *Symmetric Functions*, I.(3.1)).
The exact division by V certifies that the sum is a polynomial (a nonzero
remainder would be a correctness bug, not an input error).

A homogeneous element of polynomial degree d has cohomological degree 2d and
bidegree (gamma, 2d + chi(gamma, gamma)); the Z-grading is additive under the
product and controls all super-signs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, permutations, product as iproduct

from .errors import (DimensionMismatchError, DivisibilityError, DomainError,
                     StructuralViolationError)
from .poly import ColoredPoly, _norm_coeff, exact_divide
from .quiver import DimVector, Quiver, dim_add, euler_form, sign_form


@dataclass
class CohaElement:
    """An element of H_gamma: a color-symmetric polynomial at a dimension vector."""

    quiver: Quiver
    gamma: DimVector
    poly: ColoredPoly

    def __post_init__(self):
        self.gamma = tuple(self.gamma)
        self.quiver.check_dim(self.gamma)
        if self.poly.gamma != self.gamma:
            raise DimensionMismatchError("polynomial variable set disagrees with gamma")

    @classmethod
    def checked(cls, quiver, gamma, poly) -> "CohaElement":
        """Construct and verify block symmetry (construction itself trusts)."""
        elt = cls(quiver, gamma, poly)
        if not poly.is_block_symmetric():
            raise DomainError("polynomial is not symmetric within color blocks")
        return elt

    def is_zero(self) -> bool:
        return self.poly.is_zero()

    def __eq__(self, other):
        if not isinstance(other, CohaElement):
            return NotImplemented
        return (self.quiver == other.quiver and self.gamma == other.gamma
                and self.poly == other.poly)

    __hash__ = None


def _difference(gamma: DimVector, s: int, r: int) -> ColoredPoly:
    """x_s - x_r, variables given as flat indices."""
    n = sum(gamma)
    e_s = [0] * n
    e_s[s] = 1
    e_r = [0] * n
    e_r[r] = 1
    return ColoredPoly(gamma, {tuple(e_s): 1, tuple(e_r): -1})


def _odd(seq) -> int:
    """Parity of the number of inversions of seq."""
    return sum(a > b for i, a in enumerate(seq) for b in seq[i + 1:]) & 1


def _alternate(poly: ColoredPoly) -> ColoredPoly:
    """Alt(poly) = sum of sign(pi) pi(poly) over the permutations pi of the
    slots within each color block.  Terms are collected on their exponents
    sorted ascending in each block, with the sign of the sort, and dropped if
    a block repeats an exponent; each survivor alpha then expands once into
    sign(pi) x^(pi alpha).  Keys stay bytes, as in ``ColoredPoly.reindex``."""
    gamma, nvars = poly.gamma, poly.nvars
    offs = [0, *accumulate(gamma)]
    # a block of one slot neither repeats an exponent nor moves
    spans = [(lo, hi) for lo, hi in zip(offs, offs[1:]) if hi - lo > 1]
    collected: dict = {}
    for k, c in poly._terms.items():
        exps = bytearray(k.to_bytes(nvars, "big"))
        odd = 0
        for lo, hi in spans:
            block = exps[lo:hi]
            if len(set(block)) < hi - lo:
                break
            odd ^= _odd(block)
            exps[lo:hi] = sorted(block)
        else:
            key = int.from_bytes(exps, "big")
            collected[key] = collected.get(key, 0) + (-c if odd else c)
    perms = [(0, tuple(range(nvars)))]   # (parity, source slot of each slot)
    for lo, hi in spans:
        perms = [(odd ^ _odd(p), src[:lo] + p + src[hi:])
                 for odd, src in perms for p in permutations(range(lo, hi))]
    out = {}
    for key, c in collected.items():
        if not c:
            continue
        c = _norm_coeff(c)
        exps = key.to_bytes(nvars, "big")
        for odd, src in perms:
            out[int.from_bytes(bytes(map(exps.__getitem__, src)), "big")] = -c if odd else c
    return ColoredPoly._make(gamma, out)


def _shuffle_numerator(a: CohaElement, b: CohaElement, gamma: DimVector) -> ColoredPoly:
    """Alt(f g K x'^delta' x''^delta'') for nonzero a and b.  Kept apart from
    the division so that the unalternated product is freed before it: the
    division's workspace is the memory peak of a product."""
    q, g1 = a.quiver, a.gamma
    n = q.vertex_count
    offs = [0, *accumulate(gamma)]

    # canonical placement: a's variables take the first g1^i slots of block i
    firsts = [range(offs[i], offs[i] + g1[i]) for i in range(n)]
    seconds = [range(offs[i] + g1[i], offs[i] + gamma[i]) for i in range(n)]
    fa = a.poly.reindex(gamma, [v for slots in firsts for v in slots])
    fb = b.poly.reindex(gamma, [v for slots in seconds for v in slots])
    kernel = ColoredPoly.constant(gamma, 1)
    for i in range(n):
        for j in range(n):
            a_ij = q.arrows[i][j]
            if not a_ij:
                continue
            for r in firsts[i]:
                for s in seconds[j]:
                    kernel = kernel * (_difference(gamma, s, r) ** a_ij)
    delta = [e for i in range(n) for e in (*range(g1[i]), *range(gamma[i] - g1[i]))]
    return _alternate((fb * kernel) * fa * ColoredPoly.monomial(gamma, delta))


def shuffle_product(a: CohaElement, b: CohaElement) -> CohaElement:
    """The Hall product Alt(f g K x'^delta' x''^delta'') / Alt(x^delta): one
    alternation of the canonical summand and one exact division by the
    Vandermonde V = Alt(x^delta) (see the module docstring)."""
    if a.quiver != b.quiver:
        raise DomainError("elements live over different quivers")
    q = a.quiver
    if not q.is_symmetric():
        raise DomainError("the Hall product is implemented for symmetric quivers")
    g1, g2 = a.gamma, b.gamma
    gamma = dim_add(g1, g2)

    if a.poly.is_zero() or b.poly.is_zero():
        return CohaElement(q, gamma, ColoredPoly.zero(gamma))

    numerator = _shuffle_numerator(a, b, gamma)
    delta = [e for size in gamma for e in range(size)]
    try:
        result = exact_divide(numerator, _alternate(ColoredPoly.monomial(gamma, delta)))
    except DivisibilityError as err:  # pragma: no cover - would be a bug
        raise StructuralViolationError(
            "shuffle sum failed to clear the Vandermonde denominator for "
            f"gamma1={g1}, gamma2={g2}; remainder={err.remainder!r}") from err
    return CohaElement(q, gamma, result)


def twisted_product(a: CohaElement, b: CohaElement) -> CohaElement:
    """Hall product twisted by (-1)^psi(gamma1, gamma2); supercommutative
    for the Z-grading."""
    if a.quiver != b.quiver:
        raise DomainError("elements live over different quivers")
    psi = sign_form(a.quiver)
    prod = shuffle_product(a, b)
    if psi.value(a.gamma, b.gamma) % 2:
        return CohaElement(prod.quiver, prod.gamma, -prod.poly)
    return prod


# -- bases -------------------------------------------------------------------


def _partitions(d: int, max_part: int, max_len: int):
    """Partitions of d into at most max_len parts of size at most max_part,
    descending tuples."""
    if d == 0:
        yield ()
        return
    if max_len == 0:
        return
    for part in range(min(d, max_part), 0, -1):
        for rest in _partitions(d - part, part, max_len - 1):
            yield (part,) + rest


def _compositions(d: int, parts: int):
    if parts == 0:
        if d == 0:
            yield ()
        return
    for first in range(d + 1):
        for rest in _compositions(d - first, parts - 1):
            yield (first,) + rest


def _monomial_symmetric(gamma: DimVector, vertex: int, lam) -> ColoredPoly:
    """m_lambda in the variables of one color block (coefficients all 1)."""
    size = gamma[vertex]
    padded = tuple(lam) + (0,) * (size - len(lam))
    offset = sum(gamma[:vertex])
    n = sum(gamma)
    terms = {}
    for perm in set(permutations(padded)):
        exps = [0] * n
        for r, e in enumerate(perm):
            exps[offset + r] = e
        terms[tuple(exps)] = 1
    return ColoredPoly(gamma, terms)


def _basis_shapes(quiver: Quiver, gamma: DimVector, k: int):
    """Tuples of per-vertex partitions indexing the bidegree-(gamma, k) basis."""
    quiver.check_dim(gamma)
    chi = euler_form(quiver, gamma, gamma)
    if (k - chi) % 2 or k < chi:
        return []
    d = (k - chi) // 2
    n = quiver.vertex_count
    shapes = []
    for comp in _compositions(d, n):
        parts_per_vertex = [list(_partitions(c, c, size)) for c, size in zip(comp, gamma)]
        if any(not p for p in parts_per_vertex):
            continue
        shapes.extend(iproduct(*parts_per_vertex))
    return shapes


def basis(quiver: Quiver, gamma: DimVector, k: int) -> list[CohaElement]:
    """A basis of the bidegree-(gamma, k) piece: products over the vertices of
    monomial symmetric polynomials, one partition of d_i with at most gamma^i
    parts per vertex, over all splittings d = sum d_i of the polynomial degree
    d = (k - chi(gamma, gamma)) / 2.  Off-parity or negative d gives []."""
    out = []
    for lams in _basis_shapes(quiver, gamma, k):
        poly = ColoredPoly.constant(gamma, 1)
        for i, lam in enumerate(lams):
            poly = poly * _monomial_symmetric(gamma, i, lam)
        out.append(CohaElement(quiver, gamma, poly))
    return out


def basis_leading_exponents(quiver: Quiver, gamma: DimVector, k: int):
    """The orbit-representative exponent vector of each basis element: the
    per-block partitions laid out in slot order.  Coordinates of any
    block-symmetric polynomial on the monomial basis can be read off at
    these exponents."""
    reps = []
    for lams in _basis_shapes(quiver, gamma, k):
        exps = []
        for i, lam in enumerate(lams):
            exps.extend(tuple(lam) + (0,) * (gamma[i] - len(lam)))
        reps.append(tuple(exps))
    return reps
