"""Root combinatorics for quivers that may carry loops, read off the Euler form.

For a quiver with a_uv arrows u -> v, the Euler form chi(x, y) =
sum_v x_v y_v - sum_(u,v) a_uv x_u y_v (``quiver.euler_form``) gives the
Tits form q(beta) = chi(beta, beta) and the symmetric pairing
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

The walk runs on the support.  Where beta_v = 0 the pairing is
-sum_u (a_uv + a_vu) beta_u <= 0, so only vertices of the support are ever
reflected, and a reflection at v changes beta_v alone: the support only
shrinks.  ``is_positive_root`` reflects at the first loop-free vertex of the
current support whose pairing is positive, reads each pairing off v's
neighbour map (``Quiver.neighbours``, which holds a_uv + a_vu), and tests
connectivity by walking the neighbour maps inside the support.  So it costs
what the support and its neighbours cost, not the vertex count.

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


def _support_connected(neighbours, support) -> bool:
    """Whether the vertices of ``support`` (nonempty) are connected through
    arrows between them, walking the neighbour maps."""
    inside = set(support)
    seen = {support[0]}
    stack = [support[0]]
    while stack:
        for v in neighbours[stack.pop()]:
            if v in inside and v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == len(inside)


class RootCertificate(namedtuple("RootCertificate",
                                  "result kind reflections witness")):
    """Replayable outcome of the positive-root decision procedure, an
    immutable named tuple: ``result``, ``kind`` ("real", "imaginary" or
    "not_root"), ``reflections`` (the loop-free vertices reflected, in
    order) and ``witness`` (the vector at termination)."""

    __slots__ = ()


def is_positive_root(q: Quiver, beta) -> RootCertificate:
    """Decide whether beta > 0 is a positive root of q; the certificate's
    ``result`` holds the verdict.  See the module docstring."""
    beta = tuple(beta)
    if len(beta) != q.vertex_count:
        raise DomainError("vector length does not match the quiver")
    if any(b < 0 for b in beta) or not any(beta):
        raise DomainError("the decision procedure takes nonzero beta >= 0")
    neighbours = q.neighbours
    current = list(beta)
    support = [v for v, b in enumerate(beta) if b]
    reflections: list[int] = []
    while True:
        if len(support) == 1 and current[support[0]] == 1:
            v = support[0]
            kind = "imaginary" if v in neighbours[v] else "real"
            return RootCertificate(True, kind, tuple(reflections), tuple(current))
        for v in support:
            around = neighbours[v]
            if v in around:   # a loop: an imaginary simple root, never reflected
                continue
            pairing = 2 * current[v] - sum(m * current[u] for u, m in around.items())
            if pairing > 0:
                break
        else:   # no pairing is positive: the fundamental region, if connected
            if not _support_connected(neighbours, support):
                return RootCertificate(False, "not_root", tuple(reflections), tuple(current))
            return RootCertificate(True, "imaginary", tuple(reflections), tuple(current))
        current[v] -= pairing
        reflections.append(v)
        if current[v] < 0:
            return RootCertificate(False, "not_root", tuple(reflections), tuple(current))
        if not current[v]:
            support.remove(v)


def nonvanishing_certificate(q0: Quiver, gamma: DimVector) -> RootCertificate:
    """Omega(gamma) of double(q0) is nonzero iff the leg-extended dimension
    vector is a positive root of the leg-extended half quiver; returns the
    RootCertificate of that vector, whose ``result`` is the verdict."""
    q0.check_dim(gamma)
    if not any(gamma):
        raise DomainError("the criterion concerns nonzero dimension vectors")
    legs = attach_legs(q0, gamma)
    return is_positive_root(legs.half_quiver, legs.tilde_gamma)
