"""Generator counting by exact linear algebra.

For a symmetric quiver the Hall algebra is free supercommutative, so the
bidegree-(gamma, k) generator space has a well-defined dimension

    dim V_{gamma,k} = dim H_{gamma,k} - dim (sum of products of lower pieces),

and the primitive part satisfies c_{gamma,k} = dim V_{gamma,k} -
dim V_{gamma,k-2} (one polynomial generator of degree (0, 2) is split off).
Everything is computed by fraction-free Gaussian elimination over exact
integers after clearing denominators; there are no rank thresholds.

These numbers are the independent oracle for the series-side extraction in
``dtseries``: the two must agree, which is the computational content of the
freeness theorem.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from .coha import basis, basis_leading_exponents, twisted_product
from .errors import DomainError, StructuralViolationError
from .quiver import DimVector, Quiver, dim_abs, dim_sub, enumerate_dim_vectors, euler_form


def exact_rank(rows: list[list]) -> tuple[int, list[int]]:
    """Rank of an exact rational matrix and the indices of pivot rows.

    Rows are scaled to integers, then reduced by Bareiss fraction-free
    elimination (two-step exact divisions, no rational arithmetic inside
    the loop).
    """
    mat = []
    origin = []
    for idx, row in enumerate(rows):
        denoms = [c.denominator for c in row if isinstance(c, Fraction)]
        scale = lcm(*denoms) if denoms else 1
        ints = [int(c * scale) if isinstance(c, Fraction) else c * scale for c in row]
        if any(ints):
            mat.append(ints)
            origin.append(idx)
    if not mat:
        return 0, []
    ncols = len(mat[0])
    rank = 0
    pivots = []
    prev = 1
    for col in range(ncols):
        pivot_row = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if pivot_row is None:
            continue
        mat[rank], mat[pivot_row] = mat[pivot_row], mat[rank]
        origin[rank], origin[pivot_row] = origin[pivot_row], origin[rank]
        piv = mat[rank][col]
        for r in range(rank + 1, len(mat)):
            head = mat[r][col]
            row_r = mat[r]
            row_p = mat[rank]
            for c in range(col, ncols):
                row_r[c] = (row_r[c] * piv - head * row_p[c]) // prev
        prev = piv
        pivots.append(origin[rank])
        rank += 1
        if rank == len(mat):
            break
    return rank, pivots


@dataclass
class GenTable:
    """Dimensions indexed by bidegree, with per-gamma certified k-windows.

    flavor "V" counts generators, "Vprim" their primitive parts c_{gamma,k}.
    Inside a window an absent entry means a certified zero; outside it the
    value is unknown, never assumed.
    """

    flavor: str
    entries: dict[tuple[DimVector, int], int] = field(default_factory=dict)
    windows: dict[DimVector, tuple[int, int]] = field(default_factory=dict)

    def set(self, gamma: DimVector, k: int, value: int) -> None:
        if value < 0:
            raise StructuralViolationError(
                f"negative dimension {value} at gamma={gamma}, k={k}")
        if value:
            self.entries[(tuple(gamma), k)] = value

    def dim(self, gamma: DimVector, k: int) -> int | None:
        """Value at (gamma, k); None when outside the certified window."""
        gamma = tuple(gamma)
        win = self.windows.get(gamma)
        if win is None or not (win[0] <= k <= win[1]):
            return None
        return self.entries.get((gamma, k), 0)

    def column(self, gamma: DimVector) -> dict[int, int]:
        gamma = tuple(gamma)
        return {k: v for (g, k), v in sorted(self.entries.items()) if g == gamma}

    def to_records(self) -> list[dict]:
        recs = [{"gamma": list(g), "k": k, "dim": v}
                for (g, k), v in self.entries.items()]
        recs.sort(key=lambda r: (sum(r["gamma"]), tuple(r["gamma"]), r["k"]))
        return recs


def decomposable_dim(quiver: Quiver, gamma: DimVector, k: int):
    """Dimension (and a spanning set) of the span in H_{gamma,k} of all
    twisted products of elements at proper decompositions gamma1 + gamma2."""
    quiver.check_dim(gamma)
    gamma = tuple(gamma)
    reps = basis_leading_exponents(quiver, gamma, k)
    if not reps or dim_abs(gamma) <= 1:
        return 0, []
    rep_index = {r: i for i, r in enumerate(reps)}
    rows = []
    products = []
    seen_splits = set()
    for g1 in enumerate_dim_vectors(gamma)[:-1]:
        g2 = dim_sub(gamma, g1)
        if (g2, g1) in seen_splits:
            continue
        seen_splits.add((g1, g2))
        chi12 = euler_form(quiver, g1, g2)
        chi = euler_form(quiver, gamma, gamma)
        d = (k - chi) // 2
        for d1 in range(0, d + chi12 + 1):
            d2 = d + chi12 - d1
            if d2 < 0:
                continue
            k1 = 2 * d1 + euler_form(quiver, g1, g1)
            k2 = 2 * d2 + euler_form(quiver, g2, g2)
            basis1 = basis(quiver, g1, k1)
            basis2 = basis(quiver, g2, k2)
            for f in basis1:
                for g in basis2:
                    prod = twisted_product(f, g)
                    if prod.is_zero():
                        continue
                    row = [prod.poly.coefficient(r) for r in reps]
                    rows.append(row)
                    products.append(prod)
    if not rows:
        return 0, []
    rank, pivot_rows = exact_rank(rows)
    return rank, [products[i] for i in pivot_rows]


def generator_dims(quiver: Quiver, gamma: DimVector, kmax: int) -> GenTable:
    """dim V_{gamma,k} = dim H_{gamma,k} - decomposable_dim for k in the
    window [chi(gamma, gamma), kmax]."""
    quiver.check_dim(gamma)
    gamma = tuple(gamma)
    chi = euler_form(quiver, gamma, gamma)
    if kmax < chi:
        raise DomainError(f"kmax={kmax} below the bottom degree chi={chi}")
    table = GenTable("V")
    table.windows[gamma] = (chi, kmax)
    for k in range(chi, kmax + 1):
        if (k - chi) % 2:
            continue
        dim_h = len(basis_leading_exponents(quiver, gamma, k))
        dec, _ = decomposable_dim(quiver, gamma, k)
        if dec > dim_h:
            raise StructuralViolationError(
                f"decomposables exceed the ambient space at gamma={gamma}, k={k}")
        table.set(gamma, k, dim_h - dec)
    return table


def prim_dims(quiver: Quiver, gamma: DimVector, kmax: int) -> GenTable:
    """c_{gamma,k} = dim V_{gamma,k} - dim V_{gamma,k-2}; below the bottom
    degree V vanishes.  A negative difference would contradict the tensor
    factorization V = Vprim (x) Q[x] and raises StructuralViolationError."""
    vtable = generator_dims(quiver, gamma, kmax)
    gamma = tuple(gamma)
    chi = euler_form(quiver, gamma, gamma)
    table = GenTable("Vprim")
    table.windows[gamma] = (chi, kmax)
    for k in range(chi, kmax + 1):
        if (k - chi) % 2:
            continue
        v_here = vtable.dim(gamma, k)
        v_below = vtable.dim(gamma, k - 2) if k - 2 >= chi else 0
        c = v_here - v_below
        if c < 0:
            raise StructuralViolationError(
                f"c_{{gamma={gamma}, k={k}}} = {c} < 0: freeness bookkeeping broken")
        table.set(gamma, k, c)
    return table
