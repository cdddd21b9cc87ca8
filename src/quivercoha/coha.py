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

It is computed by relabeling one summand.  In the canonical placement the
first factor's variables x' take the first gamma1^i slots of each color block
and x'' the rest; there

    P = f(x') g(x'') K(x', x'') V(x') V(x''),
    K = prod_{i,j} prod_{r,s} (x''_{j,s} - x'_{i,r})^{a_ij},

with V the per-color Vandermonde prod_{p < q} (x_q - x_p); V of all result
variables is then V(x') V(x'') times the denominator above.  A shuffle S is
the slot permutation sigma_S that sends x' onto S and x'' onto its
complement, increasing on each side.  So sigma_S(P) is S's numerator times
the Vandermondes of both sides, sigma_S(V) = sign(sigma_S) V, and the
product is

    sum_S sign(sigma_S) sigma_S(P) / V.

The single division at the end certifies that the sum is a polynomial (a
nonzero remainder would be a correctness bug, not an input error).

A homogeneous element of polynomial degree d has cohomological degree 2d and
bidegree (gamma, 2d + chi(gamma, gamma)); the Z-grading is additive under the
product and controls all super-signs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations, product as iproduct

from .errors import (DimensionMismatchError, DivisibilityError, DomainError,
                     StructuralViolationError)
from .poly import ColoredPoly, exact_divide
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


def _block_offsets(gamma: DimVector):
    offs = []
    acc = 0
    for size in gamma:
        offs.append(acc)
        acc += size
    return offs


def _difference(gamma: DimVector, s: int, r: int) -> ColoredPoly:
    """x_s - x_r, variables given as flat indices."""
    n = sum(gamma)
    e_s = [0] * n
    e_s[s] = 1
    e_r = [0] * n
    e_r[r] = 1
    return ColoredPoly(gamma, {tuple(e_s): 1, tuple(e_r): -1})


def _vandermonde(gamma: DimVector, slots) -> ColoredPoly:
    """prod_{p < q in slots} (x_q - x_p), slots given as flat variable indices."""
    poly = ColoredPoly.constant(gamma, 1)
    for a in range(len(slots)):
        for b in range(a + 1, len(slots)):
            poly = poly * _difference(gamma, slots[b], slots[a])
    return poly


@lru_cache(maxsize=None)
def _full_vandermonde(gamma: DimVector):
    offs = _block_offsets(gamma)
    poly = ColoredPoly.constant(gamma, 1)
    for i, size in enumerate(gamma):
        poly = poly * _vandermonde(gamma, range(offs[i], offs[i] + size))
    return poly


def _shuffle_numerator(a: CohaElement, b: CohaElement, gamma: DimVector) -> ColoredPoly:
    """sum_S sign(sigma_S) sigma_S(P) for nonzero a and b.  Kept apart from
    the division so that P and the summands are freed before it: the
    division's workspace is the memory peak of a product."""
    q, g1 = a.quiver, a.gamma
    n = q.vertex_count
    offs = _block_offsets(gamma)

    # canonical placement: a's variables take the first g1^i slots of block i
    firsts = [range(offs[i], offs[i] + g1[i]) for i in range(n)]
    seconds = [range(offs[i] + g1[i], offs[i] + gamma[i]) for i in range(n)]
    cofactor = ColoredPoly.constant(gamma, 1)
    for i in range(n):
        cofactor = cofactor * _vandermonde(gamma, firsts[i])
        cofactor = cofactor * _vandermonde(gamma, seconds[i])
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
    canonical = (fb * kernel) * fa * cofactor

    numerator = ColoredPoly.zero(gamma)
    choices = [list(combinations(range(gamma[i]), g1[i])) for i in range(n)]
    for pick in iproduct(*choices):
        sigma = []   # sigma[v]: where shuffle S sends canonical slot v
        inv = 0
        for i in range(n):
            # lists: tuple(generator) here leaves its resized tuples on
            # CPython's free lists and raised the traced memory peak by 30%
            rest = [p for p in range(gamma[i]) if p not in pick[i]]
            sigma += [offs[i] + p for p in [*pick[i], *rest]]
            # sign(sigma_S): one inversion per p < r, p on b's side, r on a's
            inv += sum(1 for p in rest for r in pick[i] if p < r)
        summand = canonical.reindex(gamma, sigma)
        numerator = numerator - summand if inv % 2 else numerator + summand
    return numerator


def shuffle_product(a: CohaElement, b: CohaElement) -> CohaElement:
    """The Hall product sum_S sign(sigma_S) sigma_S(P) / V: the canonical
    summand P is built once, each shuffle S relabels its slots by sigma_S
    (increasing on each side), and one exact division by the full
    Vandermonde V ends the sum."""
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
    denominator = _full_vandermonde(gamma)
    try:
        result = exact_divide(numerator, denominator)
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
