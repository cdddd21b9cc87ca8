"""Root combinatorics for quivers that may carry loops, read off the Euler form.

For a quiver with arrow matrix a, the Euler form chi(x, y) = sum_v x_v y_v -
sum_(u,v) a_uv x_u y_v (``quiver.euler_form``) gives the Tits form
q(beta) = chi(beta, beta) and the symmetric pairing
  (beta, e_v) = chi(beta, e_v) + chi(e_v, beta)
              = 2 beta_v - sum_u (a_uv + a_vu) beta_u,
so (beta, beta) = 2 q(beta).  Both depend only on the underlying graph, not
on the orientation.  Loop-free vertices (a_vv = 0) give real simple roots
with reflections s_v(beta) = beta - (beta, e_v) e_v; vertices with loops give
imaginary simple roots and are never reflected.  A positive vector is a root
iff, reflecting at loop-free vertices of positive pairing (the height drops
each time, so this stops), it reaches a simple root or lands in the
fundamental region (support connected through a_uv + a_vu, all pairings
<= 0) without any coordinate going negative.

These are the roots of Kac's theorem: the dimension vectors of the
indecomposable representations (Kac, Invent. Math. 56 (1980), and Kac,
LNM 996 (1983) for quivers with loops).  For a Dynkin quiver they are the
beta > 0 with q(beta) = 1 (Gabriel, Manuscripta Math. 6 (1972)); for a
Euclidean quiver, the beta > 0 with q(beta) <= 1.

The payoff: the quantum DT invariant Omega(gamma) of the double of q0 is
nonzero exactly when the leg-extended dimension vector is a positive root of
the leg-extended half quiver.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import DomainError
from .legs import attach_legs
from .quiver import DimVector, Quiver


def _support_connected(sym, beta) -> bool:
    support = [v for v in range(len(beta)) if beta[v]]
    if not support:
        return False
    seen = {support[0]}
    stack = [support[0]]
    while stack:
        u = stack.pop()
        for v in support:
            if v not in seen and sym[u][v]:
                seen.add(v)
                stack.append(v)
    return len(seen) == len(support)


class RootCertificate(namedtuple("RootCertificate",
                                  "result kind reflections witness")):
    """Replayable outcome of the positive-root decision procedure, an
    immutable named tuple: ``result``, ``kind`` ("real", "imaginary" or
    "not_root"), ``reflections`` (the loop-free vertices reflected, in
    order) and ``witness`` (the vector at termination)."""

    __slots__ = ()


def is_positive_root(q: Quiver, beta) -> tuple[bool, RootCertificate]:
    """Decide whether beta > 0 is a positive root of q; see the module
    docstring."""
    n = q.vertex_count
    beta = tuple(beta)
    if len(beta) != n:
        raise DomainError("vector length does not match the quiver")
    if any(b < 0 for b in beta) or not any(beta):
        raise DomainError("the decision procedure takes nonzero beta >= 0")
    a = q.arrows
    sym = [[a[u][v] + a[v][u] for v in range(n)] for u in range(n)]
    current = list(beta)
    reflections: list[int] = []

    def pairing(v):   # (current, e_v)
        return 2 * current[v] - sum(sym[u][v] * current[u] for u in range(n))

    while True:
        simple = [v for v in range(n) if current[v]]
        if len(simple) == 1 and current[simple[0]] == 1:
            v = simple[0]
            kind = "real" if a[v][v] == 0 else "imaginary"
            return True, RootCertificate(True, kind, tuple(reflections),
                                         tuple(current))
        v = next((v for v in range(n)
                  if a[v][v] == 0 and current[v] and pairing(v) > 0), None)
        if v is not None:
            current[v] -= pairing(v)
            reflections.append(v)
            if current[v] < 0:
                return False, RootCertificate(False, "not_root",
                                              tuple(reflections), tuple(current))
            continue
        if not _support_connected(sym, current):
            return False, RootCertificate(False, "not_root",
                                          tuple(reflections), tuple(current))
        return True, RootCertificate(True, "imaginary", tuple(reflections),
                                     tuple(current))


def nonvanishing_certificate(q0: Quiver, gamma: DimVector):
    """Omega(gamma) of double(q0) is nonzero iff the leg-extended dimension
    vector is a positive root of the leg-extended half quiver; returns
    (is_root, RootCertificate)."""
    q0.check_dim(gamma)
    if not any(gamma):
        raise DomainError("the criterion concerns nonzero dimension vectors")
    legs = attach_legs(q0, gamma)
    return is_positive_root(legs.half_quiver, legs.tilde_gamma)
