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
variables occupying S in increasing slot order.  Each summand is put over
the per-color Vandermonde of all result variables, the numerators are summed
and the single division at the end certifies that the sum is a polynomial
(a nonzero remainder would be a correctness bug, not an input error).

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
from .quiver import DimVector, Quiver, dim_add, euler_form, sign_form, zero_dim


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

    @classmethod
    def unit(cls, quiver) -> "CohaElement":
        g = zero_dim(quiver.vertex_count)
        return cls(quiver, g, ColoredPoly.constant(g, 1))

    def cohomological_degree(self) -> int | None:
        """2 * polynomial degree for a homogeneous element; None otherwise."""
        if not self.poly.is_homogeneous():
            return None
        d = self.poly.degree()
        return 0 if d is None else 2 * d

    def bidegree(self) -> tuple[DimVector, int]:
        """(gamma, k) with k = cohomological degree + chi(gamma, gamma)."""
        k0 = self.cohomological_degree()
        if k0 is None:
            raise DomainError("bidegree of an inhomogeneous element")
        return self.gamma, k0 + euler_form(self.quiver, self.gamma, self.gamma)

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


def _vandermonde(gamma: DimVector, slots) -> ColoredPoly:
    """prod_{p < q in slots} (x_q - x_p), slots given as flat variable indices."""
    poly = ColoredPoly.constant(gamma, 1)
    n = sum(gamma)
    for a in range(len(slots)):
        for b in range(a + 1, len(slots)):
            p, q = slots[a], slots[b]
            e_q = [0] * n
            e_q[q] = 1
            e_p = [0] * n
            e_p[p] = 1
            binom = ColoredPoly(gamma, {tuple(e_q): 1, tuple(e_p): -1})
            poly = poly * binom
    return poly


@lru_cache(maxsize=None)
def _full_vandermonde(gamma: DimVector):
    offs = _block_offsets(gamma)
    poly = ColoredPoly.constant(gamma, 1)
    for i, size in enumerate(gamma):
        poly = poly * _vandermonde(gamma, list(range(offs[i], offs[i] + size)))
    return poly


def shuffle_product(a: CohaElement, b: CohaElement) -> CohaElement:
    """The Hall product, computed as one exact division after summing."""
    if a.quiver != b.quiver:
        raise DomainError("elements live over different quivers")
    q = a.quiver
    if not q.is_symmetric():
        raise DomainError("the Hall product is implemented for symmetric quivers")
    g1, g2 = a.gamma, b.gamma
    gamma = dim_add(g1, g2)
    n = q.vertex_count
    nvars = sum(gamma)
    offs = _block_offsets(gamma)

    if a.poly.is_zero() or b.poly.is_zero():
        return CohaElement(q, gamma, ColoredPoly.zero(gamma))

    arrows = q.arrows
    numerator = ColoredPoly.zero(gamma)
    choices = [list(combinations(range(gamma[i]), g1[i])) for i in range(n)]
    for pick in iproduct(*choices):
        first_slots = []   # flat indices taken by a, per color in slot order
        second_slots = []
        sign = 1
        cofactor = ColoredPoly.constant(gamma, 1)
        for i in range(n):
            s_set = set(pick[i])
            firsts = [offs[i] + r for r in pick[i]]
            seconds = [offs[i] + r for r in range(gamma[i]) if r not in s_set]
            # sign of V_full / D_S: one -1 per pair (p < q) with p on the
            # second side and q on the first side
            inv = sum(1 for p in range(gamma[i]) for r in pick[i]
                      if p < r and p not in s_set)
            if inv % 2:
                sign = -sign
            cofactor = cofactor * _vandermonde(gamma, firsts)
            cofactor = cofactor * _vandermonde(gamma, seconds)
            first_slots.append(firsts)
            second_slots.append(seconds)

        var_map_a = [v for slots in first_slots for v in slots]
        var_map_b = [v for slots in second_slots for v in slots]
        fa = a.poly.reindex(gamma, var_map_a)
        fb = b.poly.reindex(gamma, var_map_b)

        kernel = ColoredPoly.constant(gamma, 1)
        for i in range(n):
            for j in range(n):
                a_ij = arrows[i][j]
                if not a_ij:
                    continue
                for r in first_slots[i]:
                    for s in second_slots[j]:
                        e_s = [0] * nvars
                        e_s[s] = 1
                        e_r = [0] * nvars
                        e_r[r] = 1
                        binom = ColoredPoly(gamma, {tuple(e_s): 1, tuple(e_r): -1})
                        kernel = kernel * (binom ** a_ij)

        summand = (fb * kernel) * fa * cofactor
        numerator = numerator + (summand if sign > 0 else -summand)

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
