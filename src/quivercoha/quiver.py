"""Quivers, dimension vectors, and the bilinear forms attached to them.

A quiver on the vertices 0..n-1 is stored sparsely, as the spec's arrows: one
(i, j, m) triple per pair with a_ij = m > 0 arrows i -> j, in (i, j) order,
plus per-vertex neighbour maps of the symmetrized multiplicities a_uv + a_vu.
Everything downstream reads it through the Euler form chi: doubling, stack
dimensions, the mod-2 sign twisting the Hall product, and the Tits form and
reflection pairing of the root test (``roots``).  chi(g1, g2) and the sign
form only see the arrows between supp(g1) and supp(g2), so they are summed
over those supports: a quiver's size costs O(n) to read and check, never
O(n^2).  All types here are frozen and hashable: dimension vectors are
tuples and ``Quiver`` is an immutable value.
"""

from __future__ import annotations

from itertools import product

from .errors import DomainError

DimVector = tuple[int, ...]


def dim_add(g1: DimVector, g2: DimVector) -> DimVector:
    return tuple(a + b for a, b in zip(g1, g2))


def dim_sub(g1: DimVector, g2: DimVector) -> DimVector:
    return tuple(a - b for a, b in zip(g1, g2))


def dim_abs(g: DimVector) -> int:
    """Total dimension |gamma| = sum of the entries."""
    return sum(g)


def enumerate_dim_vectors(gamma_max: DimVector, include_zero: bool = False):
    """All 0 <= gamma <= gamma_max (componentwise), sorted by (|gamma|, lex).

    This ordering is the canonical report / extraction order everywhere.
    """
    out = sorted(product(*(range(x + 1) for x in gamma_max)), key=lambda g: (dim_abs(g), g))
    if not include_zero:
        out = [g for g in out if any(g)]
    return out


class Quiver:
    """A quiver on the vertices 0..vertex_count-1, an immutable value that
    compares and hashes by ``(vertex_count, arrows)``.

    ``arrows`` holds one (i, j, m) triple per pair with m > 0 arrows i -> j,
    in (i, j) order: the constructor sums duplicate pairs and drops zeros.
    ``neighbours[v]`` maps each u joined to v to a_uv + a_vu, so the a_vv
    loops at v appear under u = v, counted twice.  ``is_symmetric`` (a_ij =
    a_ji for all i, j) and the hash are computed once, here.
    """

    __slots__ = ("vertex_count", "arrows", "neighbours", "is_symmetric", "_mult", "_hash")

    def __init__(self, vertex_count: int, arrows=()):
        if vertex_count < 0:
            raise DomainError("the vertex count must be >= 0")
        mult = {}
        for i, j, m in arrows:
            if not (0 <= i < vertex_count and 0 <= j < vertex_count):
                raise DomainError(f"arrow ({i}, {j}) outside the vertices 0..{vertex_count - 1}")
            if m < 0:
                raise DomainError("arrow multiplicities must be >= 0")
            mult[i, j] = mult.get((i, j), 0) + m
        mult = {ij: mult[ij] for ij in sorted(mult) if mult[ij]}
        neighbours = tuple({} for _ in range(vertex_count))
        for (i, j), m in mult.items():
            neighbours[i][j] = neighbours[i].get(j, 0) + m
            neighbours[j][i] = neighbours[j].get(i, 0) + m
        init = super().__setattr__
        init("vertex_count", vertex_count)
        init("arrows", tuple((i, j, m) for (i, j), m in mult.items()))
        init("neighbours", neighbours)
        init("is_symmetric", all(mult.get((j, i)) == m for (i, j), m in mult.items()))
        init("_mult", mult)   # (i, j) -> a_ij, for the forms' lookups
        init("_hash", hash((vertex_count, self.arrows)))   # O(1) cache-key lookups

    def __setattr__(self, name, value):
        raise AttributeError(f"Quiver is immutable: cannot set {name!r}")

    def __eq__(self, other):
        if not isinstance(other, Quiver):
            return NotImplemented
        return self is other or (self.vertex_count == other.vertex_count
                                 and self.arrows == other.arrows)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Quiver(vertex_count={self.vertex_count}, arrows={self.arrows!r})"

    def check_dim(self, g: DimVector) -> None:
        if len(g) != self.vertex_count:
            raise DomainError(
                f"dimension vector of length {len(g)} on a "
                f"{self.vertex_count}-vertex quiver")
        if any(x < 0 for x in g):
            raise DomainError("dimension vector entries must be >= 0")

    def to_spec_dict(self) -> dict:
        """The JSON wire form: ``{"vertices": n, "arrows": [[i, j, m], ...]}``."""
        return {"vertices": self.vertex_count, "arrows": [list(a) for a in self.arrows]}


def double(q0: Quiver) -> Quiver:
    """The double: every arrow plus its reversal.  Always symmetric."""
    return Quiver(q0.vertex_count, [*q0.arrows, *((j, i, m) for i, j, m in q0.arrows)])


def _support(g: DimVector) -> list[int]:
    return [i for i, x in enumerate(g) if x]


def euler_form(q: Quiver, g1: DimVector, g2: DimVector) -> int:
    """chi_Q(g1, g2) = sum_i g1^i g2^i - sum_{ij} a_ij g1^i g2^j, summed over
    supp(g1) x supp(g2)."""
    q.check_dim(g1)
    q.check_dim(g2)
    mult = q._mult
    s1, s2 = _support(g1), _support(g2)
    return sum(g1[i] * (g2[i] - sum(mult.get((i, j), 0) * g2[j] for j in s2))
               for i in s1)


def sign_twist(q: Quiver, g1: DimVector, g2: DimVector) -> int:
    """psi(g1, g2) mod 2, where the mod-2 bilinear form psi solves
    psi(x, y) + psi(y, x) = chi(x, y) + chi(x, x) chi(y, y)  (mod 2),
    which makes the Hall product twisted by (-1)^psi supercommutative.

    The solution taken is upper triangular: psi(e_i, e_j) = chi(e_i, e_j) +
    chi(e_i, e_i) chi(e_j, e_j) = a_ij + (1 + a_ii)(1 + a_jj) mod 2 for i < j,
    else 0.  Valid because the diagonal right-hand side c + c^2, with
    c = chi(e_i, e_i), is even for every integer c.  The sum runs over
    supp(g1) x supp(g2); a pair i < j without arrows still adds
    (1 + a_ii)(1 + a_jj).
    """
    if not q.is_symmetric:
        raise DomainError("sign form is defined for symmetric quivers only")
    n = q.vertex_count
    if len(g1) != n or len(g2) != n:
        raise DomainError("sign form size mismatch")
    mult = q._mult
    s2 = _support(g2)
    return sum(g1[i] * g2[j] * (mult.get((i, j), 0)
                                + (1 + mult.get((i, i), 0)) * (1 + mult.get((j, j), 0)))
               for i in _support(g1) for j in s2 if i < j) % 2


def quiver_from_spec(obj) -> Quiver:
    """Parse the JSON wire form ``{"vertices": n, "arrows": [[i, j, m], ...]}``.

    Duplicate (i, j) entries sum.  Raises DomainError whose message ends
    with the location, such as ``(at arrows[0])``.
    """
    if not isinstance(obj, dict):
        raise DomainError("quiver spec must be a JSON object (at top level)")
    if "vertices" not in obj:
        raise DomainError("missing 'vertices' (at top level)")
    n = obj["vertices"]
    if type(n) is not int or n <= 0:   # JSON true and false are bools, not ints
        raise DomainError("'vertices' must be a positive integer (at vertices)")
    entries = obj.get("arrows", [])
    if not isinstance(entries, list):
        raise DomainError("'arrows' must be a list (at arrows)")
    arrows = []
    for idx, ent in enumerate(entries):
        at = f" (at arrows[{idx}])"
        if (not isinstance(ent, list) or len(ent) != 3
                or not all(type(x) is int for x in ent)):
            raise DomainError("arrow entry must be [i, j, mult] of ints" + at)
        i, j, m = ent
        if not (0 <= i < n and 0 <= j < n):
            raise DomainError(f"vertex index out of range 0..{n - 1}" + at)
        if m < 0:
            raise DomainError("arrow multiplicity must be >= 0" + at)
        arrows.append(ent)
    return Quiver(n, arrows)
