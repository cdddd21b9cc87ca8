"""The leg construction: eigenvalue data, the extended quiver, and genericity.

Attaching a leg of length gamma^i - 1 to each vertex i of a doubled quiver
turns moment-map fibers over a semisimple orbit into fibers over a scalar
lambda on the extended quiver; the scalar is built from eigenvalue
differences, and the extended dimension vector pairs to zero with it.
Eigenvalue data is generic when the eigenvalues at each vertex are pairwise
distinct and no proper sub-selection (across all vertices) sums to zero;
that keeps every hyperplane of decompositions away.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations

from .errors import DomainError, LimitExceededError, StructuralViolationError
from .quiver import DimVector, Quiver, dim_abs

GENERICITY_SIZE_LIMIT = 8


class EigenData(namedtuple("EigenData", "values")):
    """Per-vertex ordered eigenvalue lists ``values``, coerced to tuples of
    Fractions, total trace zero; an immutable named tuple."""

    __slots__ = ()

    def __new__(cls, values):
        from fractions import Fraction   # dt-table and the check modes make no EigenData

        values = tuple(tuple(Fraction(v) for v in vs) for vs in values)
        if sum((sum(vs) for vs in values), Fraction(0)) != 0:
            raise DomainError("eigenvalue data must have total trace zero")
        return super().__new__(cls, values)

    def gamma(self) -> DimVector:
        return tuple(len(vs) for vs in self.values)


class LegData(namedtuple("LegData", "tilde_gamma vertex_labels half_quiver")):
    """The leg-extended dimension vector, the vertex map (flat index ->
    label (i, j)) and the leg-extended half quiver, an immutable named tuple;
    the leg-extended quiver is ``double(half_quiver)``."""

    __slots__ = ()


def attach_legs(q0: Quiver, gamma: DimVector) -> LegData:
    """Extend the double of q0 by a leg of length gamma^i - 1 at each vertex.

    Vertices are labeled [i, j], j = 0..gamma^i - 1 (vertex [i, 0] is i
    itself and is kept even when gamma^i = 0); the extended dimension vector
    is gamma^i - j.  The half quiver is q0's arrows plus one arrow per leg
    edge, O(n + arrows + |gamma|) to build, and the extended quiver is its
    double.
    """
    q0.check_dim(gamma)
    n = q0.vertex_count
    labels = [(i, 0) for i in range(n)]
    arrows = list(q0.arrows)
    for i in range(n):
        prev = i
        for j in range(1, gamma[i]):
            arrows.append((prev, len(labels), 1))
            prev = len(labels)
            labels.append((i, j))
    half_quiver = Quiver(len(labels), arrows)
    tilde_gamma = tuple(gamma[i] - j for (i, j) in labels)
    return LegData(tilde_gamma, tuple(labels), half_quiver)


def lambda_from_eigenvalues(t: EigenData, legs: LegData):
    """The scalar on the extended quiver: -t_{i,1} at [i,0] and
    t_{i,j} - t_{i,j+1} along the leg, eigenvalues taken in decreasing order.

    Raises StructuralViolationError unless tilde_gamma . lambda = 0.
    """
    from fractions import Fraction

    gamma = t.gamma()
    expected = tuple(g for (i, j), g in zip(legs.vertex_labels, legs.tilde_gamma)
                     if j == 0)
    if gamma != expected:
        raise DomainError(
            f"eigenvalue data sized {gamma}, leg data built for {expected}")
    ordered = [sorted(vs, reverse=True) for vs in t.values]
    lam = []
    for (i, j) in legs.vertex_labels:
        if not ordered[i]:
            lam.append(Fraction(0))
        elif j == 0:
            lam.append(-ordered[i][0])
        else:
            lam.append(ordered[i][j - 1] - ordered[i][j])
    pairing = sum(g * l for g, l in zip(legs.tilde_gamma, lam))
    if pairing != 0:
        raise StructuralViolationError(
            f"tilde_gamma . lambda = {pairing}, must vanish")
    return tuple(lam)


def is_generic(t: EigenData) -> bool:
    """Regular (distinct per vertex) and no proper sub-selection sums to zero.

    Exhaustive over the subsets of all the eigenvalues; |gamma| is capped at
    GENERICITY_SIZE_LIMIT because the search is exponential.
    """
    flat = [v for vs in t.values for v in vs]
    if len(flat) > GENERICITY_SIZE_LIMIT:
        raise LimitExceededError(
            f"genericity test is exhaustive; |gamma| <= {GENERICITY_SIZE_LIMIT}")
    if any(len(set(vs)) < len(vs) for vs in t.values):
        return False
    return not any(sum(pick) == 0 for size in range(1, len(flat))
                   for pick in combinations(flat, size))


def sample_generic(gamma: DimVector, seed) -> EigenData:
    """Deterministic-from-seed generic eigenvalue data; widens the sampling
    range until the genericity test passes (the generic locus misses only
    finitely many hyperplanes, so this terminates)."""
    import random   # only the genericity mode samples
    from fractions import Fraction

    gamma = tuple(gamma)
    if any(n < 0 for n in gamma) or not any(gamma):
        raise DomainError(f"cannot sample eigenvalues for gamma = {gamma}")
    rng = random.Random(repr((seed, gamma)))
    spread = 8 * dim_abs(gamma)
    while True:
        flat = [Fraction(rng.randint(-spread, spread),
                         rng.choice((1, 1, 1, 2, 3)))
                for _ in range(dim_abs(gamma) - 1)]
        flat.append(-sum(flat, Fraction(0)))
        values = []
        pos = 0
        for size in gamma:
            values.append(tuple(flat[pos:pos + size]))
            pos += size
        candidate = EigenData(tuple(values))
        if is_generic(candidate):
            return candidate
        spread *= 2
