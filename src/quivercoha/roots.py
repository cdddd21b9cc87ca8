"""Root combinatorics for quivers that may carry loops.

The underlying graph of a quiver induces the symmetric bilinear form
(e_u, e_v) = 2 delta_uv (1 - loops_u) - edges_uv and the Tits form
q(beta) = sum_v (1 - loops_v) beta_v^2 - sum_{u<v} edges_uv beta_u beta_v,
so (beta, beta) = 2 q(beta).  Loop-free vertices give real simple roots with
reflections s_v(beta) = beta - (beta, e_v) e_v; vertices with loops give
imaginary simple roots and are never reflected.  A positive vector is a root
iff, reflecting at loop-free vertices of positive pairing (the height drops
each time, so this stops), it reaches a simple root or lands in the
fundamental region (connected support, all pairings <= 0) without any
coordinate going negative.

The payoff: the quantum DT invariant Omega(gamma) of the double of q0 is
nonzero exactly when the leg-extended dimension vector is a positive root of
the leg-extended half quiver.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError
from .legs import attach_legs
from .quiver import DimVector, Quiver


@dataclass(frozen=True)
class CartanData:
    """Loop counts and edge multiplicities of the underlying graph."""

    loops: tuple[int, ...]
    edges: tuple[tuple[int, ...], ...]   # symmetric, zero diagonal

    @classmethod
    def from_quiver(cls, q: Quiver) -> "CartanData":
        n = q.vertex_count
        loops = tuple(q.arrows[v][v] for v in range(n))
        edges = tuple(tuple(0 if u == v else q.arrows[u][v] + q.arrows[v][u]
                            for v in range(n)) for u in range(n))
        return cls(loops, edges)

    @property
    def vertex_count(self) -> int:
        return len(self.loops)

    def pairing(self, beta, v: int) -> int:
        """(beta, e_v) = 2 (1 - loops_v) beta_v - sum_u edges_uv beta_u."""
        return 2 * (1 - self.loops[v]) * beta[v] - sum(
            self.edges[u][v] * beta[u] for u in range(self.vertex_count))


def tits_form(cartan: CartanData, beta) -> int:
    n = cartan.vertex_count
    if len(beta) != n:
        raise DomainError("vector length does not match the graph")
    quad = sum((1 - cartan.loops[v]) * beta[v] * beta[v] for v in range(n))
    cross = sum(cartan.edges[u][v] * beta[u] * beta[v]
                for u in range(n) for v in range(u + 1, n))
    return quad - cross


def _support_connected(cartan: CartanData, beta) -> bool:
    support = [v for v in range(cartan.vertex_count) if beta[v]]
    if not support:
        return False
    seen = {support[0]}
    stack = [support[0]]
    while stack:
        u = stack.pop()
        for v in support:
            if v not in seen and cartan.edges[u][v]:
                seen.add(v)
                stack.append(v)
    return len(seen) == len(support)


@dataclass(frozen=True)
class RootCertificate:
    """Replayable outcome of the positive-root decision procedure."""

    result: bool
    kind: str                       # "real" | "imaginary" | "not_root"
    reflections: tuple[int, ...]    # loop-free vertices reflected, in order
    witness: tuple[int, ...]        # the vector at termination

    def to_dict(self) -> dict:
        return {"result": self.result, "kind": self.kind,
                "reflections": list(self.reflections),
                "witness": list(self.witness)}


def is_positive_root(cartan: CartanData, beta) -> tuple[bool, RootCertificate]:
    """Decide whether beta > 0 is a positive root; see the module docstring."""
    n = cartan.vertex_count
    beta = tuple(beta)
    if len(beta) != n:
        raise DomainError("vector length does not match the graph")
    if any(b < 0 for b in beta) or not any(beta):
        raise DomainError("the decision procedure takes nonzero beta >= 0")
    current = list(beta)
    reflections: list[int] = []

    while True:
        simple = [v for v in range(n) if current[v]]
        if len(simple) == 1 and current[simple[0]] == 1:
            v = simple[0]
            kind = "real" if cartan.loops[v] == 0 else "imaginary"
            return True, RootCertificate(True, kind, tuple(reflections),
                                         tuple(current))
        v = next((v for v in range(n)
                  if cartan.loops[v] == 0 and current[v]
                  and cartan.pairing(current, v) > 0), None)
        if v is not None:
            current[v] -= cartan.pairing(current, v)
            reflections.append(v)
            if current[v] < 0:
                return False, RootCertificate(False, "not_root",
                                              tuple(reflections), tuple(current))
            continue
        if not _support_connected(cartan, current):
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
    cartan = CartanData.from_quiver(legs.half_quiver)
    return is_positive_root(cartan, legs.tilde_gamma)
