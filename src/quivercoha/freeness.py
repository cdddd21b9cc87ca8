"""Generator counting by exact linear algebra.

For a symmetric quiver the Hall algebra is free supercommutative, so the
bidegree-(gamma, k) generator space has a well-defined dimension

    dim V_{gamma,k} = dim H_{gamma,k} - dim (sum of products of lower pieces),

and the primitive part satisfies c_{gamma,k} = dim V_{gamma,k} -
dim V_{gamma,k-2} (one polynomial generator of degree (0, 2) is split off),
which ``prim_dims`` takes directly, cell by cell, as
Omega(gamma) = sum_k c_{gamma,k} q^(k/2).  dim H_{gamma,k} and the
coordinates of each product on the basis of H_{gamma,k} come from
``coha.basis_coordinates``, which alone knows the layout of that basis.
Ranks are computed by fraction-free Gaussian elimination over exact integers
after clearing denominators; there are no rank thresholds.

These numbers are the independent oracle for the series-side extraction in
``dtseries``: the two must agree, which is the computational content of the
freeness theorem.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .coha import basis, basis_coordinates, twisted_product
from .errors import DomainError, StructuralViolationError
from .quiver import DimVector, Quiver, dim_abs, dim_sub, enumerate_dim_vectors, euler_form
from .series import HalfSeries


def exact_rank(rows: list[list]) -> int:
    """Rank of an exact rational matrix.

    Rows are scaled to integers, then reduced by Bareiss fraction-free
    elimination (two-step exact divisions, no rational arithmetic inside
    the loop).
    """
    mat = []
    for row in rows:
        denoms = [c.denominator for c in row if type(c) is Fraction]
        scale = lcm(*denoms) if denoms else 1
        ints = [int(c * scale) if type(c) is Fraction else c * scale for c in row]
        if any(ints):
            mat.append(ints)
    if not mat:
        return 0
    ncols = len(mat[0])
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


def decomposable_dim(quiver: Quiver, gamma: DimVector, k: int) -> int:
    """Dimension of the span in H_{gamma,k} of all twisted products of
    elements at proper decompositions gamma1 + gamma2.  Products are
    supercommutative, a b = +-b a, so each unordered pair of basis elements
    is multiplied once: one split of each {gamma1, gamma2}, and when
    gamma1 == gamma2 only d1 <= d2, with f no later than g when d1 == d2.

    Each product becomes a row of its coordinates on the cell's basis,
    read by ``coha.basis_coordinates``, which raises StructuralViolationError
    on a product that is not block-symmetric of the cell's degree."""
    gamma = tuple(gamma)
    dim_h, read = basis_coordinates(quiver, gamma, k)
    if not dim_h or dim_abs(gamma) <= 1:
        return 0
    rows = []
    seen_splits = set()
    d = (k - euler_form(quiver, gamma, gamma)) // 2
    for g1 in enumerate_dim_vectors(gamma)[:-1]:
        g2 = dim_sub(gamma, g1)
        if (g2, g1) in seen_splits:
            continue
        seen_splits.add((g1, g2))
        chi12 = euler_form(quiver, g1, g2)
        chi1 = euler_form(quiver, g1, g1)
        chi2 = euler_form(quiver, g2, g2)
        for d1 in range(0, d + chi12 + 1):
            d2 = d + chi12 - d1
            if d2 < 0 or (g1 == g2 and d1 > d2):
                continue
            k1 = 2 * d1 + chi1
            k2 = 2 * d2 + chi2
            basis1 = basis(quiver, g1, k1)
            same = g1 == g2 and d1 == d2
            basis2 = basis1 if same else basis(quiver, g2, k2)
            for i, f in enumerate(basis1):
                for g in basis2[i:] if same else basis2:
                    prod = twisted_product(f, g).poly
                    if prod:
                        rows.append(read(prod))
    return exact_rank(rows) if rows else 0


def prim_dims(quiver: Quiver, gamma: DimVector, kmax: int) -> HalfSeries:
    """Omega(gamma) = sum_k c_{gamma,k} q^(k/2), certified on
    [chi(gamma, gamma), kmax]: one pass over the cells k takes the
    difference c_{gamma,k} = dim V_{gamma,k} - dim V_{gamma,k-2} directly,
    with dim V_{gamma,k} = dim H_{gamma,k} (the dimension that
    ``coha.basis_coordinates`` gives) - decomposable_dim; below the bottom
    degree V vanishes.  A negative c would contradict the tensor
    factorization V = Vprim (x) Q[x] and raises StructuralViolationError."""
    quiver.check_dim(gamma)
    gamma = tuple(gamma)
    chi = euler_form(quiver, gamma, gamma)
    if kmax < chi:
        raise DomainError(f"kmax={kmax} below the bottom degree chi={chi}")
    prims, dim_below = {}, 0
    for k in range(chi, kmax + 1, 2):
        dim_v = basis_coordinates(quiver, gamma, k)[0] - decomposable_dim(quiver, gamma, k)
        if dim_v < dim_below:
            raise StructuralViolationError(
                f"c_{{gamma={gamma}, k={k}}} = {dim_v - dim_below} < 0: "
                f"freeness bookkeeping broken")
        prims[k] = dim_v - dim_below
        dim_below = dim_v
    return HalfSeries(prims, chi, kmax)
