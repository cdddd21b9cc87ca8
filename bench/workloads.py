"""The benchmark's workloads and the checks every report must pass.

All inputs are fixed and exact: quiver specs live in ``bench/quivers`` and
the committed reference reports in ``bench/reference``; a reference is the
CLI's own report, written from the checkout root with
``PYTHONPATH=src python3 -m quivercoha <Workload.argv()> --out
bench/reference/<name>.json``.  Each workload is one ``quivercoha`` CLI
call that takes under a second on a 2-core machine, so that a 20-second run
collects 15 to 25 calls for its median.  Why each one is in the set:

* ``dt_loop3`` spends almost all of its time building generator towers
  (``HalfSeries`` products under ``plethystic_factor``) and runs no shuffle.
* ``freeness_loop2`` is dominated by ``shuffle_product`` on a looped color:
  ``ColoredPoly`` products plus the final ``exact_divide``.
* ``freeness_kronecker`` runs the same shuffle layer on loop-free colors
  only, the control for any change specific to looped colors.
* ``nonvanishing_kronecker`` splits its time between towers and
  ``MultiSeries`` products, and is the only workload that runs ``roots``
  and ``legs``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


@dataclass(frozen=True)
class Workload:
    name: str
    quiver: str          # file name under bench/quivers
    mode: str
    gamma_max: str
    qtrunc: int
    why: str
    reineke_d_max: int = 0   # check Omega(d)(-1) against Reineke for d <= this

    def argv(self) -> list[str]:
        """CLI arguments, relative to the checkout root."""
        return ["--quiver", f"bench/quivers/{self.quiver}", "--mode", self.mode,
                "--gamma-max", self.gamma_max, "--qtrunc", str(self.qtrunc)]

    def reference(self) -> dict:
        path = BENCH_DIR / "reference" / f"{self.name}.json"
        return json.loads(path.read_text(encoding="utf-8"))


WORKLOADS = {w.name: w for w in (
    Workload("dt_loop3", "loop3.json", "dt-table", "5", 30,
             "3-loop quiver dt-table: tower construction in plethystic_factor, no shuffle",
             reineke_d_max=5),
    Workload("freeness_loop2", "loop2.json", "check-freeness", "4", 16,
             "2-loop quiver check-freeness: shuffle products and exact_divide on a looped color"),
    Workload("freeness_kronecker", "kronecker2_doubled.json", "check-freeness", "3,2", 10,
             "doubled 2-Kronecker check-freeness: the shuffle layer on loop-free colors only"),
    Workload("nonvanishing_kronecker", "kronecker2_half.json", "check-nonvanishing", "4,4", 16,
             "half 2-Kronecker check-nonvanishing: towers and MultiSeries products, plus roots and legs"),
)}


# -- literature anchor ---------------------------------------------------------


def _mobius(n: int) -> int:
    result, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    return -result if n > 1 else result


def reineke_dt(m: int, d: int) -> Fraction:
    """Numerical DT invariant of the m-loop quiver at dimension d (Reineke,
    arXiv:1102.3978):

        1 / ((m - 1) d^2) * sum_{e | d} mu(d/e) (-1)^((m-1)(d-e)) binom(m e - 1, e).
    """
    total = sum(_mobius(d // e) * (-1) ** ((m - 1) * (d - e)) * comb(m * e - 1, e)
                for e in range(1, d + 1) if d % e == 0)
    return Fraction(total, (m - 1) * d * d)


# -- report checks -------------------------------------------------------------


def _window_width(window) -> int:
    lo, hi = window
    return hi - lo + 1


def certified_width(mode: str, report: dict) -> int:
    """How many certified exponents the report holds: sum of window widths
    for dt-table and check-nonvanishing, compared cells for check-freeness."""
    if mode == "check-freeness":
        return len(report["cells"])
    if mode == "dt-table":
        return sum(_window_width(r["window"]) for r in report["omega"])
    return sum(_window_width(r["omega_window"]) for r in report["rows"])


def _covers(window, ref_window) -> bool:
    return window[0] <= ref_window[0] and window[1] >= ref_window[1]


def _check_omega_rows(report: dict, ref: dict) -> list[str]:
    rows = {tuple(r["gamma"]): r for r in report["omega"]}
    problems = []
    for ref_row in ref["omega"]:
        gamma = tuple(ref_row["gamma"])
        row = rows.get(gamma)
        if row is None:
            problems.append(f"gamma {gamma} missing")
            continue
        if not _covers(row["window"], ref_row["window"]):
            problems.append(f"gamma {gamma}: window {row['window']} narrower than "
                            f"reference {ref_row['window']}")
            continue
        # Both reports certify zeros below their lo, so compare from the lower one.
        cur = {k: Fraction(c) for k, c in row["coeffs"]}
        old = {k: Fraction(c) for k, c in ref_row["coeffs"]}
        hi = ref_row["window"][1]
        for k in range(min(row["window"][0], ref_row["window"][0]), hi + 1):
            if cur.get(k, 0) != old.get(k, 0):
                problems.append(f"gamma {gamma}: coefficient of q^({k}/2) is "
                                f"{cur.get(k, 0)}, reference {old.get(k, 0)}")
    return problems


def _check_reineke(report: dict, d_max: int) -> list[str]:
    loops = {tuple(a[:2]): a[2] for a in report["quiver"]["arrows"]}.get((0, 0), 0)
    rows = {tuple(r["gamma"]): r for r in report["omega"]}
    problems = []
    for d in range(1, d_max + 1):
        row = rows.get((d,))
        if row is None:
            problems.append(f"Omega({d}) missing for the Reineke check")
            continue
        value = sum(Fraction(c) * (-1) ** k for k, c in row["coeffs"])
        if value != reineke_dt(loops, d):
            problems.append(f"Omega({d}) at q^(1/2) = -1 is {value}, Reineke's "
                            f"DT_{d}^({loops}) is {reineke_dt(loops, d)}")
    return problems


def _check_cells(report: dict, ref: dict) -> list[str]:
    cells = {(tuple(c["gamma"]), c["k"]): c for c in report["cells"]}
    problems = []
    for ref_cell in ref["cells"]:
        key = (tuple(ref_cell["gamma"]), ref_cell["k"])
        cell = cells.get(key)
        if cell is None:
            problems.append(f"cell {key} missing")
        elif (cell["c_linear"], cell["c_series"]) != (ref_cell["c_linear"], ref_cell["c_series"]):
            problems.append(f"cell {key}: ({cell['c_linear']}, {cell['c_series']}), reference "
                            f"({ref_cell['c_linear']}, {ref_cell['c_series']})")
    return problems


def _check_root_rows(report: dict, ref: dict) -> list[str]:
    rows = {tuple(r["gamma"]): r for r in report["rows"]}
    problems = []
    for ref_row in ref["rows"]:
        gamma = tuple(ref_row["gamma"])
        row = rows.get(gamma)
        if row is None:
            problems.append(f"gamma {gamma} missing")
            continue
        for key in ("root", "certificate", "omega_nonzero"):
            if row[key] != ref_row[key]:
                problems.append(f"gamma {gamma}: {key} {row[key]!r}, reference {ref_row[key]!r}")
        if not _covers(row["omega_window"], ref_row["omega_window"]):
            problems.append(f"gamma {gamma}: window {row['omega_window']} narrower than "
                            f"reference {ref_row['omega_window']}")
    return problems


def check_report(workload: Workload, text: str, ref: dict) -> tuple[list[str], int]:
    """Problems found in one report (empty when it is correct) and its
    certified width.  The report is compared with the committed reference on
    the overlap of their windows; a window may grow but never shrink."""
    report = json.loads(text)
    problems = []
    if "verdict" in report and report["verdict"] is not True:
        problems.append(f"verdict is {report['verdict']!r}")
    if workload.mode == "dt-table":
        problems += _check_omega_rows(report, ref)
        problems += _check_reineke(report, workload.reineke_d_max)
    elif workload.mode == "check-freeness":
        problems += _check_cells(report, ref)
    else:
        problems += _check_root_rows(report, ref)
    return problems, certified_width(workload.mode, report)
