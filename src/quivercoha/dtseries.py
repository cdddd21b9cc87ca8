"""Hilbert series of the Hall algebra and quantum DT invariants.

The graded piece H_gamma is a polynomial ring on colored variables of
cohomological degree 2, shifted so that its Poincare series in half-units is

    P_gamma = q^(chi/2) * prod_i 1 / (q;q)_{gamma^i},
    (q;q)_m = prod_{j=1}^{m} (1 - q^j),   chi = chi(gamma, gamma).

Freeness (Efimov arXiv:1103.2736, Kontsevich-Soibelman arXiv:1006.2706)
factors the full generating series A = sum_gamma P_gamma x^gamma as

    A = prod_{gamma > 0, k} F_{gamma,k} ^ c_{gamma,k},
    F_{gamma,k} = prod_{n >= 0} (1 - x^gamma q^(k/2 + n))^(-1)   (k even)
                = prod_{n >= 0} (1 + x^gamma q^(k/2 + n))         (k odd),

one tower per generator (its polynomial companion of degree (0,2) produces
the n-index; the Z-grading parity decides symmetric vs exterior), and

    Omega(gamma)(q) = sum_k c_{gamma,k} q^(k/2)

is the quantum Donaldson-Thomas invariant.  Taking logarithms,

    log F_{gamma,k} = sum_{r >= 1} x^(r gamma) psi_r(q^(k/2)) / (r (1 - q^r)),
    psi_r(q^(k/2)) = (-1)^((r+1)k) q^(rk/2),

where the sign twist turns log(1 + z) on the odd towers into the same sum as
-log(1 - z) on the even ones.  psi_r is a ring map with psi_r psi_s =
psi_(rs), so log A = sum_gamma sum_r x^(r gamma) psi_r(Omega(gamma) /
(1 - q)) / r is a plethystic exponential, and Moebius inversion over r
reads Omega off log A in closed form (see ``plethystic_factor``).

All windows are tracked exactly: a k outside the reported window is
unknown, never silently zero.  Each P_gamma is certified on [chi, chi +
qtrunc] by its closed form (partition counts, see ``build_generating_series``),
A_0 = 1 among them; the windows of M are the ones ``MultiSeries``
products certify, psi_r sends a certified window [lo, hi] to [r lo, r hi]
(the exponents in between that are not multiples of r are certified zero),
and the Moebius sum takes the least lo and the least hi of its terms (see
``plethystic_factor``), so no window needs a separate cap.

That A_0 is certified on [0, qtrunc] only moves no window.  A_d sits on
[chi_d, chi_d + qtrunc], and lo(out_g) is the least chi_d + lo(out_(g-d))
over d != 0.  In the inverse, the pair (A_d, out_(g-d)) bounds out_g by
qtrunc + chi_d + lo(out_(g-d)), so the cap qtrunc + lo(out_g) that 1/A_0
puts on out_g repeats the bound of the d that attains lo(out_g).  In M =
-D(A^(-1)) A, -|g| out_g keeps the window of out_g, and the pair (A_0,
-|g| out_g) adds the bound qtrunc + lo(out_g), which the pair (A_d, -|g-d|
out_(g-d)) of that same d already gives.  Each pair (A_(g-d), -|d| out_d)
has the windows of the pair (out_d, |g-d| A_(g-d)) of A^(-1) DA, so both
forms certify the same windows.
"""


from __future__ import annotations

from math import gcd

from .errors import DomainError, StructuralViolationError
from .quiver import DimVector, Quiver, dim_abs, enumerate_dim_vectors, euler_form
from .series import HalfSeries, MultiSeries


def build_generating_series(quiver: Quiver, gamma_max: DimVector, qtrunc: int) -> MultiSeries:
    """A = sum_{gamma <= gamma_max} P_gamma(q) x^gamma, built in one walk
    of the box in (|gamma|, lex) order.

    P_0 = 1 on [0, qtrunc].  Any other gamma has a last vertex j with
    gamma^j = m > 0, and gamma - e_j comes earlier in the walk.  Since
    (q;q)_m = (q;q)_(m-1) (1 - q^m), the counts of P_gamma are those of
    P_(gamma - e_j) divided by 1 - q^m: one in-place pass of the partition
    recurrence c(n) += c(n - m), n = m, ..., qtrunc // 2 (Andrews, *The
    Theory of Partitions*, ch. 1).  c(n) is the coefficient of q^n in
    prod_i 1/(q;q)_(gamma^i), counted at the exponent chi + 2n, chi =
    chi(gamma, gamma), in half-units, so it is stored at offset 2n and read
    back at n = k // 2 from offset k.  Each c(n) reads only c(n') with n' <=
    n, so cutting at n = qtrunc // 2 leaves every stored count exact, and
    the exponents chi + 2n + 1 in between are zero: the window is [chi, chi
    + qtrunc], the same width for every gamma.  Every count is positive, as
    each such product has the factor 1/(1 - q).  No ``HalfSeries`` product
    is made, and no table is kept beside the pieces."""
    _check_grading(quiver, gamma_max, qtrunc)
    box = enumerate_dim_vectors(gamma_max, include_zero=True)
    pieces = {box[0]: HalfSeries.one(qtrunc)}
    for gamma in box[1:]:
        j = max(i for i, size in enumerate(gamma) if size)
        m = gamma[j]
        below = pieces[gamma[:j] + (m - 1,) + gamma[j + 1:]]
        counts = [0] * (qtrunc // 2 + 1)
        for k, c in below.coeffs.items():
            counts[k // 2] = c
        for n in range(m, len(counts)):
            counts[n] += counts[n - m]
        chi = euler_form(quiver, gamma, gamma)
        pieces[gamma] = HalfSeries._make({2 * n: c for n, c in enumerate(counts)},
                                         chi, chi + qtrunc)
    return MultiSeries._make(tuple(gamma_max), pieces)


def _check_grading(quiver: Quiver, gamma: DimVector, qtrunc: int) -> None:
    quiver.check_dim(gamma)
    if qtrunc < 0:
        raise DomainError("qtrunc must be >= 0")
    if not quiver.is_symmetric:
        raise DomainError("Hilbert series uses the symmetric-quiver grading")


def plethystic_factor(series: MultiSeries) -> dict[DimVector, HalfSeries]:
    """Omega(gamma) = sum_k c_{gamma,k} q^(k/2) for every gamma in the box of
    A, in (|gamma|, lex) order, each on its certified window.

    The Euler grading D: x^g -> |g| x^g is a derivation, so D log A =
    A^(-1) DA and (log A)_g = M_g / |g| with M = A^(-1) DA, one inverse and
    one product of ``MultiSeries``.  Since A^(-1) A = 1, D(A^(-1)) A +
    A^(-1) DA = 0, and M is taken as -D(A^(-1)) A (``_log_derivative``), so
    only three box-sized series are alive at once: A, the inverse and M.
    Moebius inversion of log A = sum_{gamma, r} psi_r(Omega(gamma) /
    (1 - q)) x^(r gamma) / r over the r dividing every entry of gamma, with
    r |gamma/r| = |gamma|, gives

        Omega(gamma) = (1 - q) / |gamma| * sum_{r | gamma} mu(r) psi_r(M_(gamma/r)).

    Each Omega(gamma) is one pass over the r with mu(r) != 0.  psi_r sends
    the window [lo_r, hi_r] of M_(gamma/r) to [r lo_r, r hi_r], and the sum
    is certified on [lo, hi] = [min_r r lo_r, min_r r hi_r].  Every term
    c q^(k/2) of M_(gamma/r), k its stored offset plus lo_r, with r k <= hi
    adds mu(r) (-1)^((r+1)k) c into one dense list at r k, which has two zero
    slots below lo.  Times 1 - q, certified on [0, hi - lo], the window stays
    [lo, hi] and the coefficient at k is the list's c_k - c_(k-2), stored at
    offset k - lo; no ``HalfSeries`` is built per r.

    A has integer coefficients and A_0 = 1, so M and the sum over r are
    integral, and the division by |gamma| is an exact integer division of
    each coefficient: freeness makes every c_{gamma,k} a non-negative
    integer.  Walking gamma by (|gamma|, lex), an empty window raises
    DomainError and a nonzero remainder or a negative quotient raises
    StructuralViolationError.
    """
    log_derivative = _log_derivative(series).pieces
    omegas = {}
    for gamma in enumerate_dim_vectors(series.gamma_max):
        divisor = gcd(*gamma)
        terms = [(r, mu, log_derivative[tuple(x // r for x in gamma)])
                 for r in range(1, divisor + 1) if not divisor % r and (mu := _mobius(r))]
        lo = min(r * s.lo for r, _, s in terms)
        hi = min(r * s.hi for r, _, s in terms)
        if hi < lo:
            raise DomainError(
                f"certified window collapsed at gamma={gamma}; rerun with a "
                "larger qtrunc")
        base = lo - 2
        acc = [0] * (hi - base + 1)   # the coefficient of q^(k/2) at k - base
        for r, mu, s in terms:
            odd_sign = mu if r % 2 else -mu   # psi_r flips the odd k when r is even
            for k, c in s.coeffs.items():
                k += s.lo
                if r * k > hi:
                    break
                acc[r * k - base] += odd_sign * c if k % 2 else mu * c
        size = dim_abs(gamma)
        counts = {}
        for k in range(lo, hi + 1):
            c = acc[k - base] - acc[k - base - 2]
            if not c:
                continue
            count, rest = divmod(c, size)
            if rest or count < 0:
                shown = f"{c}/{size}" if rest else count
                raise StructuralViolationError(
                    f"extracted multiplicity {shown} at gamma={gamma}, k={k} "
                    "is not a non-negative integer")
            counts[k - lo] = count
        omegas[gamma] = HalfSeries._make(counts, lo, hi)
    return omegas


def _log_derivative(series: MultiSeries) -> MultiSeries:
    """M = A^(-1) DA as -D(A^(-1)) A: each piece of the inverse is replaced
    by itself times -|g|, piece 0 by the empty series on its window, and A
    is multiplied by the result.  Piece 0 of the inverse is A's own piece-0
    object, so it is replaced, never changed, and A is left as it is.  The
    inverse is freed on return.  A is the first factor, so the pair (A_0,
    -|g| out_g) of each piece walks out_g in one inner loop, where the other
    order would start an inner loop over A_0 per term of out_g."""
    inverse = series.inverse()
    pieces = inverse.pieces
    for g in pieces:
        pieces[g] = pieces[g] * -dim_abs(g)
    return series * inverse


def _mobius(n: int) -> int:
    """The Moebius function mu(n), by trial division."""
    result, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    return -result if n > 1 else result


def dt_report(quiver: Quiver, gamma_max: DimVector, qtrunc: int) -> dict[DimVector, HalfSeries]:
    """Omega(gamma) for every 0 < gamma <= gamma_max, in (|gamma|, lex)
    order, each on its certified window: ``plethystic_factor`` of the
    generating series, one extraction pass."""
    return plethystic_factor(build_generating_series(quiver, gamma_max, qtrunc))
