"""Quivers, dimension vectors, and the bilinear forms attached to them.

A quiver is stored as its arrow-multiplicity matrix ``arrows[i][j]`` = number
of arrows i -> j, vertices indexed 0..n-1.  Everything downstream is a pure
function of this matrix, read through the Euler form chi: doubling, stack
dimensions, the mod-2 sign twisting the Hall product, and the Tits form and
reflection pairing of the root test (``roots``).  All types here are frozen
and hashable: dimension vectors are tuples and ``Quiver`` is an immutable
named tuple.
"""

from __future__ import annotations

from collections import namedtuple
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


class Quiver(namedtuple("Quiver", "arrows")):
    """A quiver given by its arrow-multiplicity matrix ``arrows``, a tuple of
    row tuples; an immutable named tuple."""

    __slots__ = ()

    def __new__(cls, arrows):
        n = len(arrows)
        for row in arrows:
            if len(row) != n:
                raise DomainError("arrow matrix must be square")
            if any(a < 0 for a in row):
                raise DomainError("arrow multiplicities must be >= 0")
        return super().__new__(cls, arrows)

    @property
    def vertex_count(self) -> int:
        return len(self.arrows)

    @classmethod
    def from_lists(cls, rows) -> "Quiver":
        return cls(tuple(tuple(int(a) for a in row) for row in rows))

    def is_symmetric(self) -> bool:
        a = self.arrows
        n = self.vertex_count
        return all(a[i][j] == a[j][i] for i in range(n) for j in range(i + 1, n))

    def check_dim(self, g: DimVector) -> None:
        if len(g) != self.vertex_count:
            raise DomainError(
                f"dimension vector of length {len(g)} on a "
                f"{self.vertex_count}-vertex quiver")
        if any(x < 0 for x in g):
            raise DomainError("dimension vector entries must be >= 0")

    def to_spec_dict(self) -> dict:
        """The JSON wire form: ``{"vertices": n, "arrows": [[i, j, m], ...]}``."""
        arrs = [[i, j, self.arrows[i][j]]
                for i in range(self.vertex_count)
                for j in range(self.vertex_count)
                if self.arrows[i][j]]
        return {"vertices": self.vertex_count, "arrows": arrs}


def double(q0: Quiver) -> Quiver:
    """The double: every arrow plus its reversal.  Always symmetric."""
    n = q0.vertex_count
    return Quiver(tuple(tuple(q0.arrows[i][j] + q0.arrows[j][i]
                              for j in range(n)) for i in range(n)))


def euler_form(q: Quiver, g1: DimVector, g2: DimVector) -> int:
    """chi_Q(g1, g2) = sum_i g1^i g2^i - sum_{ij} a_ij g1^i g2^j."""
    q.check_dim(g1)
    q.check_dim(g2)
    n = q.vertex_count
    diag = sum(g1[i] * g2[i] for i in range(n))
    arr = sum(q.arrows[i][j] * g1[i] * g2[j]
              for i in range(n) for j in range(n))
    return diag - arr


def sign_twist(q: Quiver, g1: DimVector, g2: DimVector) -> int:
    """psi(g1, g2) mod 2, where the mod-2 bilinear form psi solves
    psi(x, y) + psi(y, x) = chi(x, y) + chi(x, x) chi(y, y)  (mod 2),
    which makes the Hall product twisted by (-1)^psi supercommutative.

    The solution taken is upper triangular: psi(e_i, e_j) = chi(e_i, e_j) +
    chi(e_i, e_i) chi(e_j, e_j) = a_ij + (1 + a_ii)(1 + a_jj) mod 2 for i < j,
    else 0.  Valid because the diagonal right-hand side c + c^2, with
    c = chi(e_i, e_i), is even for every integer c.
    """
    if not q.is_symmetric():
        raise DomainError("sign form is defined for symmetric quivers only")
    n = q.vertex_count
    if len(g1) != n or len(g2) != n:
        raise DomainError("sign form size mismatch")
    a = q.arrows
    return sum(g1[i] * g2[j] * (a[i][j] + (1 + a[i][i]) * (1 + a[j][j]))
               for i in range(n) for j in range(i + 1, n)) % 2


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
    mat = [[0] * n for _ in range(n)]
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
        mat[i][j] += m
    return Quiver.from_lists(mat)
