"""Generator counting by exact linear algebra.

For a symmetric quiver the Hall algebra is free supercommutative, so the
bidegree-(gamma, k) generator space has a well-defined dimension

    dim V_{gamma,k} = dim H_{gamma,k} - dim (sum of products of lower pieces),

and the primitive part satisfies c_{gamma,k} = dim V_{gamma,k} -
dim V_{gamma,k-2} (one polynomial generator of degree (0, 2) is split off):
Omega(gamma) = sum_k c_{gamma,k} q^(k/2) is (1 - q) times the V-series
sum_k dim V_{gamma,k} q^(k/2).  Everything is computed by fraction-free
Gaussian elimination over exact integers after clearing denominators; there
are no rank thresholds.

These numbers are the independent oracle for the series-side extraction in
``dtseries``: the two must agree, which is the computational content of the
freeness theorem.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm

from .coha import basis, basis_leading_exponents, twisted_product
from .errors import DomainError, StructuralViolationError
from .poly import coefficient_reader
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


def _orbit_size(gamma: DimVector, rep) -> int:
    """Number of monomials in the block-symmetric orbit of the exponent
    vector rep: per block, gamma^i! over the factorials of the multiplicities."""
    size, off = 1, 0
    for g in gamma:
        block = rep[off:off + g]
        off += g
        size *= factorial(g)
        for e in set(block):
            size //= factorial(block.count(e))
    return size


def decomposable_dim(quiver: Quiver, gamma: DimVector, k: int) -> int:
    """Dimension of the span in H_{gamma,k} of all twisted products of
    elements at proper decompositions gamma1 + gamma2.  Products are
    supercommutative, a b = +-b a, so each unordered pair of basis elements
    is multiplied once: one split of each {gamma1, gamma2}, and when
    gamma1 == gamma2 only d1 <= d2, with f no later than g when d1 == d2.

    A product is read at the cell's ``basis_leading_exponents``; being
    block-symmetric and homogeneous, it has exactly the orbit sizes of its
    nonzero reps as terms, and any other count raises
    StructuralViolationError."""
    quiver.check_dim(gamma)
    gamma = tuple(gamma)
    reps = basis_leading_exponents(quiver, gamma, k)
    if not reps or dim_abs(gamma) <= 1:
        return 0
    sizes = [_orbit_size(gamma, rep) for rep in reps]
    read = coefficient_reader(reps)
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
                    if not prod:
                        continue
                    row = read(prod)
                    if len(prod) != sum(n for n, c in zip(sizes, row) if c):
                        raise StructuralViolationError(
                            f"a product at gamma={gamma}, k={k} from {g1} + {g2} is not "
                            f"block-symmetric of degree {d}")
                    rows.append(row)
    return exact_rank(rows) if rows else 0


def generator_dims(quiver: Quiver, gamma: DimVector, kmax: int) -> HalfSeries:
    """sum_k dim V_{gamma,k} q^(k/2), dim V = dim H_{gamma,k} -
    decomposable_dim, certified on [chi(gamma, gamma), kmax]."""
    quiver.check_dim(gamma)
    gamma = tuple(gamma)
    chi = euler_form(quiver, gamma, gamma)
    if kmax < chi:
        raise DomainError(f"kmax={kmax} below the bottom degree chi={chi}")
    dims = {}
    for k in range(chi, kmax + 1, 2):
        dim_h = len(basis_leading_exponents(quiver, gamma, k))
        dims[k] = dim_h - decomposable_dim(quiver, gamma, k)
    return HalfSeries(dims, chi, kmax)


def prim_dims(quiver: Quiver, gamma: DimVector, kmax: int) -> HalfSeries:
    """Omega(gamma) = sum_k c_{gamma,k} q^(k/2) = (1 - q) * generator_dims,
    certified on [chi(gamma, gamma), kmax]; below the bottom degree V
    vanishes.  A negative c would contradict the tensor factorization
    V = Vprim (x) Q[x] and raises StructuralViolationError."""
    prim = generator_dims(quiver, gamma, kmax) * HalfSeries({0: 1, 2: -1}, 0, None)
    for k, c in prim.items():
        if c < 0:
            raise StructuralViolationError(
                f"c_{{gamma={tuple(gamma)}, k={k}}} = {c} < 0: freeness bookkeeping broken")
    return prim
