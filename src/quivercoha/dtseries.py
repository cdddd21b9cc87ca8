"""Hilbert series of the Hall algebra and quantum DT invariants.

The graded piece H_gamma is a polynomial ring on colored variables of
cohomological degree 2, shifted so that its Poincare series in half-units is

    P_gamma = q^(chi/2) * prod_i 1 / (q;q)_{gamma^i},
    (q;q)_m = prod_{j=1}^{m} (1 - q^j),   chi = chi(gamma, gamma).

Freeness factors the full generating series A = sum_gamma P_gamma x^gamma as

    A = prod_{gamma > 0, k} F_{gamma,k} ^ c_{gamma,k},
    F_{gamma,k} = prod_{n >= 0} (1 - x^gamma q^(k/2 + n))^(-1)   (k even)
                = prod_{n >= 0} (1 + x^gamma q^(k/2 + n))         (k odd),

one tower per generator (its polynomial companion of degree (0,2) produces
the n-index; the Z-grading parity decides symmetric vs exterior).  Euler's
identities expand each tower, and its reciprocal, in closed form: the
coefficient of x^(m gamma) is +-q^(mk/2 + e m(m-1)/2) / (q;q)_m with e in
{0, 1} (see ``_tower_pieces``).  So P_gamma and every tower come from the
same expansions 1/(q;q)_m, built once per call by one recurrence in
``HalfSeries`` arithmetic, with no cache.

The extraction loop walks gamma by (|gamma|, lex) and strips factors greedily
from the lowest surviving q-power of the x^gamma coefficient; every stripped
multiplicity must be a positive integer, and

    Omega(gamma)(q) = sum_k c_{gamma,k} q^(k/2)

is the quantum Donaldson-Thomas invariant.  All windows are tracked exactly:
a k outside the reported window is unknown, never silently zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, StructuralViolationError
from .freeness import GenTable
from .quiver import (DimVector, Quiver, dim_abs, enumerate_dim_vectors, euler_form,
                     zero_dim)
from .series import HalfSeries, MultiSeries


def hilbert_series(quiver: Quiver, gamma: DimVector, qtrunc: int) -> HalfSeries:
    """P_gamma expanded on the window [chi, chi + qtrunc] in half-units.

    The coefficient of q^(k/2) is dim H_{gamma,k}.
    """
    quiver.check_dim(gamma)
    if qtrunc < 0:
        raise DomainError("qtrunc must be >= 0")
    if not quiver.is_symmetric():
        raise DomainError("Hilbert series uses the symmetric-quiver grading")
    gamma = tuple(gamma)
    if not any(gamma):
        return HalfSeries.one()
    chi = euler_form(quiver, gamma, gamma)
    inv = _inverse_pochhammers(max(gamma), qtrunc)
    series = HalfSeries.one(hi=qtrunc)
    for size in gamma:
        series = series * inv[size]
    return series.shifted(chi)


def build_generating_series(quiver: Quiver, gamma_max: DimVector, qtrunc: int,
                            abs_max: int | None = None) -> MultiSeries:
    """A = sum_{gamma <= gamma_max} P_gamma(q) x^gamma."""
    pieces = {g: hilbert_series(quiver, g, qtrunc)
              for g in enumerate_dim_vectors(gamma_max, abs_max, include_zero=True)}
    return MultiSeries(gamma_max, pieces, abs_max)


def _inverse_pochhammers(mmax: int, width: int) -> list[HalfSeries]:
    """[1/(q;q)_m for m <= mmax], each certified on [0, width], built by
    1/(q;q)_m = 1/(q;q)_(m-1) * (1 - q^m)^(-1)."""
    out = [HalfSeries.one(hi=width)]
    for m in range(1, mmax + 1):
        out.append(out[-1] * HalfSeries({0: 1, 2 * m: -1}, 0, width).inverse())
    return out


def _tower_pieces(k: int, mmax: int, hi: int, inverse: bool) -> dict[int, HalfSeries]:
    """t-expansion of the generator tower with lowest q-power k/2.

    Returns {m: coefficient of t^m}, m <= mmax, certified up to exponent hi.
    With z = t q^(k/2), Euler's identities

        prod_n (1 - z q^n)^(-1) = sum_m z^m / (q;q)_m,
        prod_n (1 + z q^n)      = sum_m q^(m(m-1)/2) z^m / (q;q)_m

    cover all four kinds, since the reciprocal of each product is the other
    one at -z.  So the coefficient of t^m is (+-1)^m q^(mk/2 + e m(m-1)/2) /
    (q;q)_m, where e = 1 for the exterior tower (k odd) and for the
    reciprocal of the symmetric one (k even), and the sign (-1)^m appears on
    reciprocals only.
    """
    e = 1 if (k % 2 == 0) == inverse else 0
    shifts = [m * k + e * m * (m - 1) for m in range(mmax + 1)]
    coeffs = _inverse_pochhammers(mmax, hi - min(shifts))
    pieces = {}
    for m, shift in enumerate(shifts):
        piece = coeffs[m].shifted(shift).truncated(hi=hi)
        pieces[m] = -piece if inverse and m % 2 else piece
    return pieces


def _tower_factor(gamma_f: DimVector, k: int, template: MultiSeries,
                  inverse: bool, hi_width: int) -> MultiSeries:
    """The tower F_{gamma_f,k} (or its reciprocal) as a MultiSeries on the
    same box as ``template``, every piece certified wide enough that
    multiplying never narrows the partner's windows."""
    mmax = 0
    g = tuple(gamma_f)
    while template.in_domain(tuple(x * (mmax + 1) for x in g)):
        mmax += 1
    hi_cap = hi_width + (abs(k) + mmax + 2) * (mmax + 2)
    pieces_t = _tower_pieces(k, mmax, hi_cap + max(0, -min(0, mmax * k)), inverse)
    pieces = {}
    for m, s in pieces_t.items():
        pieces[tuple(x * m for x in g)] = s if m else HalfSeries.one()
    return MultiSeries(template.gamma_max, pieces, template.abs_max)


def _finite_width(ms: MultiSeries) -> int:
    widths = [s.hi - s.lo for s in ms.pieces.values() if s.hi is not None]
    return max(widths, default=0)


@dataclass
class OmegaRow:
    gamma: DimVector
    series: HalfSeries


@dataclass
class DTReport:
    """Per-gamma quantum DT invariants with their certified windows."""

    quiver: Quiver
    gamma_max: DimVector
    qtrunc: int
    rows: list[OmegaRow]

    def row(self, gamma: DimVector) -> OmegaRow:
        gamma = tuple(gamma)
        for r in self.rows:
            if r.gamma == gamma:
                return r
        raise KeyError(gamma)

    def to_dict(self) -> dict:
        return {
            "quiver": self.quiver.to_spec_dict(),
            "gamma_max": list(self.gamma_max),
            "qtrunc": self.qtrunc,
            "omega": [
                {
                    "gamma": list(r.gamma),
                    "coeffs": [[k, str(Fraction(c))] for k, c in r.series.items()],
                    "nonvanishing": not r.series.is_zero(),
                    "window": [r.series.lo, r.series.hi],
                }
                for r in self.rows
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DTReport":
        from .quiver import quiver_from_spec

        rows = []
        for rec in data["omega"]:
            lo, hi = rec["window"]
            coeffs = {int(k): Fraction(c) for k, c in rec["coeffs"]}
            rows.append(OmegaRow(tuple(rec["gamma"]), HalfSeries(coeffs, lo, hi)))
        return cls(quiver_from_spec(data["quiver"]), tuple(data["gamma_max"]),
                   data["qtrunc"], rows)


def plethystic_factor(series: MultiSeries, gamma_max: DimVector, qtrunc: int) -> GenTable:
    """Extract the generator multiplicities c_{gamma,k} >= 0 from A.

    Walks gamma by (|gamma|, lex) (the result cannot depend on the order
    inside a level), strips the recognized tower off the running remainder
    at each lowest surviving q-power, and records per-gamma certified
    windows.  A negative or fractional multiplicity raises
    StructuralViolationError.
    """
    gamma_max = tuple(gamma_max)
    if series.gamma_max != gamma_max:
        raise DomainError("series box disagrees with gamma_max")
    n = len(gamma_max)
    unit_piece = series.piece(zero_dim(n))
    if unit_piece.order() != 0 or unit_piece.coeff(0) != 1:
        raise DomainError("generating series must start with constant term 1")
    table = GenTable("Vprim")
    remainder = series
    eff_hi: dict[DimVector, int] = {}
    for gamma in enumerate_dim_vectors(gamma_max, series.abs_max):
        col = remainder.piece(gamma)
        # Towers living above a smaller column's certified window were never
        # stripped; their cross terms first reach this column at exponent
        # eff_hi(delta) + eff_hi(gamma - delta) + 2, so reads are attributable
        # to single towers only up to one below that.
        cap = col.hi
        for delta in enumerate_dim_vectors(gamma)[:-1]:
            rest = tuple(a - b for a, b in zip(gamma, delta))
            if eff_hi[delta] is None or eff_hi[rest] is None:
                continue
            pair_cap = eff_hi[delta] + eff_hi[rest] + 1
            cap = pair_cap if cap is None else min(cap, pair_cap)
        col = col.truncated(hi=cap)
        while True:
            k0 = col.order()
            if k0 is None:
                break
            c0 = col.coeff(k0)
            if (isinstance(c0, Fraction) and c0.denominator != 1) or c0 < 0:
                raise StructuralViolationError(
                    f"extracted multiplicity {c0} at gamma={gamma}, k={k0} "
                    "is not a non-negative integer")
            factor = _tower_factor(gamma, k0, remainder, inverse=True,
                                   hi_width=max(_finite_width(remainder), qtrunc))
            for _ in range(int(c0)):
                remainder = remainder * factor
            table.set(gamma, k0, int(c0))
            col = remainder.piece(gamma).truncated(hi=cap)
        if col.window_empty():
            raise DomainError(
                f"certified window collapsed at gamma={gamma}; rerun with a "
                "larger qtrunc")
        table.windows[gamma] = (col.lo, col.hi)
        eff_hi[gamma] = col.hi
    return table


def rebuild_from_table(table: GenTable, template: MultiSeries,
                       qtrunc: int) -> MultiSeries:
    """Re-expand prod F_{gamma,k}^(c_{gamma,k}); inverse of the extraction
    within truncation, used as the round-trip check."""
    out = MultiSeries.unit(template.gamma_max, template.abs_max)
    for (gamma, k), c in sorted(table.entries.items(),
                                key=lambda kv: (dim_abs(kv[0][0]), kv[0][0], kv[0][1])):
        factor = _tower_factor(gamma, k, template, inverse=False,
                               hi_width=max(_finite_width(template), qtrunc))
        for _ in range(c):
            out = out * factor
    return out


def omega(quiver: Quiver, gamma: DimVector, qtrunc: int) -> HalfSeries:
    """Omega(gamma)(q) = sum_k c_{gamma,k} q^(k/2) on its certified window."""
    quiver.check_dim(gamma)
    gamma = tuple(gamma)
    if not any(gamma):
        raise DomainError("Omega is defined for nonzero dimension vectors")
    series = build_generating_series(quiver, gamma, qtrunc)
    table = plethystic_factor(series, gamma, qtrunc)
    return omega_from_table(table, gamma)


def omega_from_table(table: GenTable, gamma: DimVector) -> HalfSeries:
    gamma = tuple(gamma)
    if gamma not in table.windows:
        raise DomainError(f"no extraction window recorded for {gamma}")
    lo, hi = table.windows[gamma]
    col = table.column(gamma)
    if any(k < lo or (hi is not None and k > hi) for k in col):
        raise StructuralViolationError(
            f"recorded multiplicities escape the certified window at {gamma}")
    return HalfSeries(col, lo, hi)


def dt_report(quiver: Quiver, gamma_max: DimVector, qtrunc: int,
              abs_max: int | None = None) -> DTReport:
    """Omega for every 0 < gamma <= gamma_max, one extraction pass."""
    series = build_generating_series(quiver, gamma_max, qtrunc, abs_max)
    table = plethystic_factor(series, gamma_max, qtrunc)
    rows = []
    for gamma in enumerate_dim_vectors(gamma_max, abs_max):
        rows.append(OmegaRow(gamma, omega_from_table(table, gamma)))
    return DTReport(quiver, tuple(gamma_max), qtrunc, rows)
