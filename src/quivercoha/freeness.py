"""Generator counting by exact linear algebra.

For a symmetric quiver the Hall algebra H is free supercommutative on a
generator space V = Vprim (x) Q[x], x of bidegree (0, 2) acting as
multiplication by p1, the sum of all the variables (Efimov, arXiv:1103.2736;
Kontsevich-Soibelman, arXiv:1006.2706, Section 2), and
Omega(gamma) = sum_k c_{gamma,k} q^(k/2) with c_{gamma,k} = dim Vprim_{gamma,k}.
The cells are indexed by the polynomial degree d, as in ``coha``: H_{gamma,d}
sits at k = chi(gamma, gamma) + 2d, which ``prim_dims`` alone writes.  It
reads c off the quotient by p1, cell by cell:

    c_{gamma,k} = dim H_{gamma,d} - dim (D_d + p1 H_{gamma,d-1}),

with D_d the span of the products of lower pieces (``decomposable_dim``).

The derivation.  p1(x) = p1(x') + p1(x'') is invariant under every shuffle,
so it passes through the symmetrization of the Hall product:
p1 (f g) = (p1 f) g + f (p1 g), and multiplication by p1 is a derivation.  A
derivation maps products to sums of products, so it acts on the
indecomposables H / D = V, there as x.  Hence H / (D + p1 H) = V / x V =
Vprim, which is the formula above.

The columns.  dim H_{gamma,d}, the coordinates on the cell's monomial basis
and the p1 rows all come from ``coha.Cell``, which alone knows that layout
(its docstring has Pieri's rule for the rows).  Let i0 be the first vertex
with gamma^i0 > 0.  p1 m_mu, for m_mu a basis element of H_{gamma,d-1},
leads at the shape mu + e_1, whose partition at i0 is (mu_1 + 1, mu_2, ...),
with coefficient 1, and its other shapes come before it in the basis order,
by degree and then lex on the partition, at i0 first.  So a pass over the p1
rows in reverse basis order, with integer pivots 1 and no division, clears
every pivot column of a product's row.  mu -> mu + e_1 is a
bijection onto the shapes with lambda_1 > lambda_2 at i0 (zeros padding
lambda), so dim H_{gamma,d-1} is their number, read off the cell (gamma, d)
alone.  The columns left, the complement shapes with lambda_1 == lambda_2
at i0, are dim H_{gamma,d} - dim H_{gamma,d-1} in number, and the rank of
the reduced products on them is dim (D_d + p1 H) / p1 H.  p1 has no zero
divisors, so dim (D_d + p1 H_{gamma,d-1}) = dim H_{gamma,d-1} + that rank.

c >= 0 by construction: the rank is at most the number of complement
columns, so no bookkeeping check remains to fail.  What can fail is the
layout, and ``Cell.p1_reducer`` raises StructuralViolationError when a p1 row
does not lead at its pivot with coefficient 1.

The stop rule.  Since the rank is at most ncols, the number of complement
columns, the products stop once ncols independent rows are kept.  Each row
is reduced fraction-free against the echelon of the rows kept so far, one
row per lead column, each zero left of its lead, taken in increasing lead
column.  The residual is a nonzero multiple of the row minus a combination
of echelon rows, and it is zero at every lead column.  A nonzero combination
of echelon rows is nonzero at the smallest lead it uses, so the residual is
zero exactly when the row lies in their span.  A nonzero residual joins the
echelon at its first nonzero column, and the row itself is kept.  Bareiss
elimination (``exact_rank``) then certifies the kept rows: their rank must
be their number, or StructuralViolationError is raised.

Every row is integral: K has integer coefficients, basis elements have
coefficient 1, each divided difference divides by x_(p+1) - x_p, whose lead
is -1, and the p1 rows have pivot 1 and integer Pieri coefficients.  So
both the echelon and the ranks are computed by fraction-free elimination
over the integers, with no rational arithmetic and no rank thresholds.
These numbers are the independent oracle for the series-side extraction in
``dtseries``: the two must agree, which is the computational content of the
freeness theorem.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

from .coha import Cell, basis, complement_basis, twisted_product
from .errors import DomainError, StructuralViolationError
from .quiver import DimVector, Quiver, dim_sub, enumerate_dim_vectors, euler_form
from .series import HalfSeries


def exact_rank(rows: list[list[int]]) -> int:
    """Rank of an integer matrix (the module docstring says why every row
    the linear route builds is integral), by Bareiss fraction-free
    elimination on a copy of its rows: each step divides exactly by
    the previous pivot.  An entry that is not an int raises DomainError,
    since ``//`` would give a wrong rank for a Fraction.
    """
    if any(type(c) is not int for row in rows for c in row):
        raise DomainError("exact_rank takes integer entries only")
    mat = [list(row) for row in rows]
    ncols = len(mat[0]) if mat else 0
    rank = 0
    prev = 1
    for col in range(ncols):
        pivot_row = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if pivot_row is None:
            continue
        mat[rank], mat[pivot_row] = mat[pivot_row], mat[rank]
        piv = mat[rank][col]
        for r in range(rank + 1, len(mat)):
            head = mat[r][col]
            row_r = mat[r]
            row_p = mat[rank]
            for c in range(col, ncols):
                row_r[c] = (row_r[c] * piv - head * row_p[c]) // prev
        prev = piv
        rank += 1
        if rank == len(mat):
            break
    return rank


def _residual(echelon: dict[int, list[int]], row: list[int]) -> list[int]:
    """row reduced fraction-free against the echelon rows {lead column: row},
    each zero left of its lead, taken in increasing lead column (the columns
    of row, left to right, that lead a row), then divided by its content.
    It is zero exactly when row lies in their span (see the module
    docstring)."""
    for lead in filter(echelon.__contains__, range(len(row))):
        c = row[lead]
        if c:
            top = echelon[lead]
            p = top[lead]
            row = [p * x - c * y for x, y in zip(row, top)]
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


@lru_cache(maxsize=1)   # the last gamma's list, like ``coha``'s plan
def _splits(quiver: Quiver, gamma: DimVector) -> tuple:
    """(gamma1, gamma2, chi(gamma1, gamma2)) for one split of each
    {gamma1, gamma2} of gamma, gamma1 in increasing (|gamma1|, lex) order,
    the one of the two that comes first."""
    splits = []
    for g1 in enumerate_dim_vectors(gamma)[:-1]:
        g2 = dim_sub(gamma, g1)
        if (sum(g1), g1) <= (sum(g2), g2):   # else the split {g2, g1} came first
            splits.append((g1, g2, euler_form(quiver, g1, g2)))
    return tuple(splits)


def _product_rows(quiver: Quiver, cell: Cell, reduce):
    """The twisted products that land in the cell, one split of each
    {gamma1, gamma2} and d1 in increasing order, complement shapes on the
    left, each as ``reduce`` gives its coordinates modulo p1 H.  The splits
    and their chi(gamma1, gamma2) depend on gamma alone, so the cells of one
    gamma read them from ``_splits``."""
    for g1, g2, chi in _splits(quiver, cell.gamma):
        total = cell.d + chi
        for d1 in range(total + 1):
            d2 = total - d1
            if g1 == g2 and d1 > d2:
                continue
            # factor bases are built per (split, d1) and let go
            left = complement_basis(g1, d1)
            right = basis(g2, d2) if left else []
            for f in left:
                for g in right:
                    yield reduce(twisted_product(f, g, quiver=quiver))


def decomposable_dim(quiver: Quiver, cell: Cell) -> int:
    """dim (D_d + p1 H_{gamma,d-1}) in the cell H_{gamma,d}, D_d the span of the
    twisted products of elements at proper decompositions gamma1 + gamma2.

    This is dim H_{gamma,d-1} plus the rank of the products modulo p1 H, both
    read off the cell by ``Cell.p1_reducer`` (see the module docstring).
    Factors of degrees d1 + d2 = d + chi(gamma1, gamma2) land in the cell.
    Products are supercommutative, a b = +-b a, so one split of each
    {gamma1, gamma2} is taken.  Its first factor runs over
    ``complement_basis`` only: f = f' + p1 h with f' there gives
    f g = f' g - h (p1 g) modulo p1 H, as p1 is a derivation, and induction
    on the degree of h reaches the rest.  When gamma1 == gamma2, d1 <= d2
    still suffices: for d1 > d2, f g = +-g f, and the same step on g leaves
    products whose first factor is a complement shape of degree d2 or less
    and whose second has degree d1 or more.

    The stop rule.  The rank is at most ncols, the number of complement
    columns.  A product's row is kept when its residual against the kept
    rows' echelon is nonzero, which holds exactly when it lies outside their
    span, so the kept rows are independent and the products stop when ncols
    of them are kept.  Bareiss elimination (``exact_rank``) certifies the
    kept rows: a rank other than their number raises
    StructuralViolationError."""
    below, reduce = cell.p1_reducer()
    ncols = len(cell) - below
    if not ncols:
        return below   # no complement shapes: p1 H_{gamma,d-1} is all of H_{gamma,d}
    echelon, kept = {}, []
    for row in _product_rows(quiver, cell, reduce):
        res = _residual(echelon, row)
        lead = next((j for j, c in enumerate(res) if c), None)
        if lead is None:
            continue
        echelon[lead] = res
        kept.append(row)
        if len(kept) == ncols:
            break
    rank = exact_rank(kept)
    if rank != len(kept):
        raise StructuralViolationError(
            f"the echelon at gamma={cell.gamma}, d={cell.d} kept {len(kept)} rows "
            f"of Bareiss rank {rank}")
    return below + rank


def prim_dims(quiver: Quiver, gamma: DimVector, kmax: int) -> HalfSeries:
    """Omega(gamma) = sum_k c_{gamma,k} q^(k/2), certified on
    [chi(gamma, gamma), kmax]: one pass over the cells d = 0, ...,
    (kmax - chi) / 2 takes c_{gamma,k} = dim H_{gamma,d} - decomposable_dim,
    building each cell once.  Below the bottom degree H vanishes.  c >= 0
    holds by construction: the rank read off the complement shapes is at
    most their number, dim H_d - dim H_{d-1}."""
    quiver.check_dim(gamma)
    gamma = tuple(gamma)
    chi = euler_form(quiver, gamma, gamma)
    if kmax < chi:
        raise DomainError(f"kmax={kmax} below the bottom degree chi={chi}")
    prims = {}
    for d in range((kmax - chi) // 2 + 1):
        cell = Cell(gamma, d)
        prims[chi + 2 * d] = len(cell) - decomposable_dim(quiver, cell)
    return HalfSeries(prims, chi, kmax)
