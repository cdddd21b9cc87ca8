"""Batch front door: parse a quiver, run one mode, emit a deterministic report.

Modes
-----
dt-table            quantum DT invariants Omega(gamma) for 0 < gamma <= gamma-max
check-freeness      linear-algebra generator counts vs series extraction, per (gamma, k)
check-nonvanishing  positive-root criterion vs Omega != 0, quiver given as half quiver
genericity          seeded generic eigenvalue data, lambda, and the pairing check
shuffle-eval        twisted Hall product of two user-supplied elements

Reports are byte-deterministic given the flags and seed: JSON with sorted
keys (the source of truth) or flattened CSV.  This module alone defines the
report layout: the library returns series dicts and named-tuple records with
no serializer, and each mode runner below renders them as JSON values.

Exit status is 0 on success (``-h``/``--help`` included), 1 when a check
mode finds a disagreement, 2 on bad input (DomainError, the one class the
library raises for it: operands on different vertex or variable sets, a
quiver spec that cannot be read or parsed, whose message ends with its
location, a malformed polynomial literal such as ``1/0``, and a quiver
spec or a polynomial literal nested deeper than the interpreter recurses
or holding an integer longer than it converts included; also an --out path
that cannot be written), 3 when an identity that is a theorem fails at
runtime (StructuralViolationError: a bug or a corrupted input, never a
property of the quiver; the Hall product's divided differences are exact
by their closed form, so no division remainder is left to report), and 4
when the input is valid but exceeds a capacity limit (LimitExceededError:
the size cap of the exhaustive genericity search, or the packed-exponent
limit of 127 on every exponent, including those of f(x') g(x'') K in a Hall
product, which can exceed the product's own by the kernel degree) or the interpreter's (OverflowError or MemoryError: a
flag such as ``--qtrunc 99999999999999999999999``, whose series window no
list can hold, or one whose work does not fit in memory).

Usage errors (a missing, unknown or ambiguous flag, a flag without its
value, a value that is not an integer or not one of the choices) are bad
input too: exit 2, through the same ``error:`` line on stderr as every other
error, in argparse's wording.  The flags are read from one table by a small
loop rather than by argparse, whose messages go through gettext and import
locale: about 2 ms and 150 KB per call under CPython 3.11.  For the same
reason ``fractions``, which pulls in ``decimal`` and ``numbers`` (about 4 ms),
is imported only where a Fraction is made: by the genericity mode's
eigenvalues and by a p/q literal of shuffle-eval.  ``json.dumps`` with an
indent runs the pure-Python encoder, which yields the report in many small
chunks and holds all of them until the final join, about nine times the
report's size.  ``render_json`` writes the same bytes (sorted keys, an
indent of 2, non-ASCII kept, a tuple as a list) with a small recursive
emitter: each dict or list returns one string, joined from its members'
strings, with the C string escaper of ``json.encoder`` and ``int.__repr__``
for the leaves.  It is about twice as fast, and holds at most about twice
the report (a list's member strings and their join).
"""

from __future__ import annotations

import io
import json
import sys
from collections import namedtuple
from json.encoder import encode_basestring as _string   # ensure_ascii off

from .dtseries import build_generating_series, dt_report, plethystic_factor
from .errors import DomainError, LimitExceededError, StructuralViolationError
from .coha import twisted_product
from .freeness import prim_dims
from .legs import attach_legs, is_generic, lambda_from_eigenvalues, sample_generic
from .poly import parse_colored_poly
from .quiver import double, enumerate_dim_vectors, euler_form, quiver_from_spec
from .roots import nonvanishing_certificate

MODES = ("dt-table", "check-freeness", "check-nonvanishing", "genericity",
         "shuffle-eval")

# flag -> (RunConfig field, converter, default, choices, required, help)
_OPTIONS = {
    "--quiver": ("quiver", str, None, None, True,
                 "path to a JSON quiver spec {\"vertices\": n, \"arrows\": [[i,j,m],...]}"),
    "--mode": ("mode", str, None, MODES, True, "what to compute"),
    "--gamma-max": ("gamma_max", str, None, None, True,
                    "componentwise bound, comma-separated, e.g. 3 or 2,2"),
    "--qtrunc": ("qtrunc", int, 12, None, False,
                 "series window width in half powers of q (default 12)"),
    "--seed": ("seed", int, 0, None, False, "genericity: sampling seed (default 0)"),
    "--format": ("fmt", str, "json", ("json", "csv"), False, "report format (default json)"),
    "--out": ("out", str, None, None, False, "output path (default: stdout)"),
    "--left": ("left", str, None, None, False, "shuffle-eval: left polynomial"),
    "--left-gamma": ("left_gamma", str, None, None, False,
                     "shuffle-eval: dimension vector of the left polynomial"),
    "--right": ("right", str, None, None, False, "shuffle-eval: right polynomial"),
    "--right-gamma": ("right_gamma", str, None, None, False,
                      "shuffle-eval: dimension vector of the right polynomial"),
}

RunConfig = namedtuple("RunConfig", [spec[0] for spec in _OPTIONS.values()])


def _parse_csv_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as err:
        raise DomainError(f"expected comma-separated integers, got {text!r}") from err


def _match(name: str, arg: str) -> str | None:
    """The flag ``name`` spells, exactly or as a unique prefix; None if none."""
    if name in _OPTIONS or name == "--help":
        return name
    hits = [flag for flag in (*_OPTIONS, "--help") if flag.startswith(name)]
    if len(hits) > 1:
        raise DomainError(f"ambiguous option: {arg} could match {', '.join(hits)}")
    return hits[0] if hits else None


def _parse_flags(argv) -> dict | None:
    """RunConfig fields as the command line spells them, or None when it asks
    for help.  A flag is given as ``--flag value`` or ``--flag=value``, or by
    a unique prefix; the last of a repeated flag wins.  Usage errors raise
    DomainError in argparse's wording."""
    values, unknown = {}, []
    args = iter(argv)
    for arg in args:
        name, eq, text = arg.partition("=")
        flag = _match(name, arg) if name.startswith("--") and len(name) > 2 else None
        if arg == "-h" or flag == "--help":
            return None
        if flag is None:
            unknown.append(arg)
            continue
        field, convert, _, choices, _, _ = _OPTIONS[flag]
        if not eq:
            text = next(args, None)
            if text is None:
                raise DomainError(f"argument {flag}: expected one argument")
        try:
            value = convert(text)
        except ValueError:
            raise DomainError(
                f"argument {flag}: invalid {convert.__name__} value: {text!r}") from None
        if choices and value not in choices:
            raise DomainError(f"argument {flag}: invalid choice: {value!r} "
                              f"(choose from {', '.join(map(repr, choices))})")
        values[field] = value
    missing = []
    for flag, (field, _, default, _, required, _) in _OPTIONS.items():
        if field not in values:
            if required:
                missing.append(flag)
            values[field] = default
    if missing:
        raise DomainError(f"the following arguments are required: {', '.join(missing)}")
    if unknown:
        raise DomainError(f"unrecognized arguments: {' '.join(unknown)}")
    return values


def _help_text() -> str:
    usage, lines = ["usage: quivercoha"], ["  -h, --help", "      print this help and exit"]
    for flag, (_, _, _, choices, required, text) in _OPTIONS.items():
        spelled = f"{flag} {flag[2:].upper().replace('-', '_')}"
        if required:
            usage.append(spelled)
        if choices:
            text += f": one of {', '.join(choices)}"
        lines += [f"  {spelled}", f"      {text}"]
    return "\n".join([" ".join(usage) + " [options]", "",
                      "Exact Hall-algebra and DT-invariant computations on quivers.", "",
                      "options:", *lines, ""])


def load_config(argv) -> RunConfig | None:
    """The run that the command line ``argv`` asks for, or None when it asks
    for help."""
    args = _parse_flags(argv)
    if args is None:
        return None
    path = args["quiver"]
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as err:
        raise DomainError(f"cannot read quiver spec: {err} (at {path})") from err
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as err:
        raise DomainError(
            f"invalid JSON: {err.msg} (at {path}:{err.lineno}:{err.colno})") from err
    except RecursionError:
        raise DomainError(f"invalid JSON: nested too deeply (at {path})") from None
    except ValueError:   # an integer longer than the interpreter converts
        raise DomainError(f"invalid JSON: integer too long (at {path})") from None
    quiver = quiver_from_spec(raw)
    gamma_max = _parse_csv_ints(args["gamma_max"])
    if len(gamma_max) != quiver.vertex_count or any(x < 0 for x in gamma_max):
        raise DomainError(f"gamma-max {gamma_max} does not fit a "
                          f"{quiver.vertex_count}-vertex quiver")
    if args["qtrunc"] < 0:
        raise DomainError("qtrunc must be >= 0")
    return RunConfig(**{
        **args, "quiver": quiver, "gamma_max": gamma_max,
        "left_gamma": _parse_csv_ints(args["left_gamma"]) if args["left_gamma"] else None,
        "right_gamma": _parse_csv_ints(args["right_gamma"]) if args["right_gamma"] else None})


# -- modes --------------------------------------------------------------------


def _window_header(cfg: RunConfig) -> dict:
    return {"quiver": cfg.quiver.to_spec_dict(), "gamma_max": list(cfg.gamma_max),
            "qtrunc": cfg.qtrunc}


def run_dt_table(cfg: RunConfig) -> tuple[int, dict]:
    if not cfg.quiver.is_symmetric:
        raise DomainError("dt-table needs a symmetric quiver")
    omega = dt_report(cfg.quiver, cfg.gamma_max, cfg.qtrunc)
    rows = [{"gamma": list(gamma), "coeffs": [[k, str(c)] for k, c in series.items()],
             "nonvanishing": not series.is_zero(), "window": [series.lo, series.hi]}
            for gamma, series in omega.items()]
    return 0, {**_window_header(cfg), "omega": rows}


def run_check_freeness(cfg: RunConfig) -> tuple[int, dict]:
    if not cfg.quiver.is_symmetric:
        raise DomainError("check-freeness needs a symmetric quiver")
    # one nested call: the generating series is freed before the linear route
    omegas = plethystic_factor(build_generating_series(cfg.quiver, cfg.gamma_max, cfg.qtrunc))
    rows = []
    all_ok = True
    for gamma in enumerate_dim_vectors(cfg.gamma_max):
        chi = euler_form(cfg.quiver, gamma, gamma)
        ser = omegas.pop(gamma)   # freed once its cells are compared
        # only cells inside both windows are compared, so the linear side
        # stops where the series window does
        if ser.hi < chi:
            continue
        linear = prim_dims(cfg.quiver, gamma, min(chi + cfg.qtrunc, ser.hi))
        lo, hi = max(linear.lo, ser.lo), min(linear.hi, ser.hi)
        for k in range(lo, hi + 1):
            if (k - chi) % 2:
                continue
            c_lin = linear.coeff(k)
            c_ser = ser.coeff(k)
            ok = c_lin == c_ser
            all_ok = all_ok and ok
            rows.append({"gamma": list(gamma), "k": k, "c_linear": c_lin,
                         "c_series": c_ser, "ok": ok})
    return (0 if all_ok else 1), {**_window_header(cfg), "cells": rows, "verdict": all_ok}


def run_check_nonvanishing(cfg: RunConfig) -> tuple[int, dict]:
    q0 = cfg.quiver
    doubled = double(q0)
    omega = dt_report(doubled, cfg.gamma_max, cfg.qtrunc)
    rows = []
    all_ok = True
    for gamma in enumerate_dim_vectors(cfg.gamma_max):
        cert = nonvanishing_certificate(q0, gamma)
        series = omega[gamma]
        nonzero = not series.is_zero()
        ok = cert.result == nonzero
        all_ok = all_ok and ok
        rows.append({
            "gamma": list(gamma),
            "root": cert.result,
            "certificate": cert._asdict(),
            "omega_nonzero": nonzero,
            "omega_window": [series.lo, series.hi],
            "ok": ok,
        })
    payload = {
        "half_quiver": q0.to_spec_dict(),
        "doubled_quiver": doubled.to_spec_dict(),
        "gamma_max": list(cfg.gamma_max),
        "qtrunc": cfg.qtrunc,
        "rows": rows,
        "verdict": all_ok,
    }
    return (0 if all_ok else 1), payload


def run_genericity(cfg: RunConfig) -> tuple[int, dict]:
    q = cfg.quiver
    rows = []
    for idx, gamma in enumerate(enumerate_dim_vectors(cfg.gamma_max)):
        t = sample_generic(gamma, (cfg.seed, idx))
        legs = attach_legs(q, gamma)
        lam = lambda_from_eigenvalues(t, legs)
        pairing = sum(g * l for g, l in zip(legs.tilde_gamma, lam))
        rows.append({
            "gamma": list(gamma),
            "t": [[str(v) for v in vs] for vs in t.values],
            "tilde_gamma": list(legs.tilde_gamma),
            "lambda": [str(x) for x in lam],
            "gamma_dot_lambda": str(pairing),
            "generic": is_generic(t),
        })
    payload = {
        "quiver": cfg.quiver.to_spec_dict(),
        "gamma_max": list(cfg.gamma_max),
        "seed": cfg.seed,
        "rows": rows,
    }
    return 0, payload


def _element(quiver, gamma, text):
    """The element of H_gamma that a polynomial literal spells: parsed, its
    gamma checked against the quiver, then its block symmetry."""
    poly = parse_colored_poly(gamma, text)
    quiver.check_dim(gamma)
    if not poly.is_block_symmetric():
        raise DomainError("polynomial is not symmetric within color blocks")
    return poly


def run_shuffle_eval(cfg: RunConfig) -> tuple[int, dict]:
    if not cfg.quiver.is_symmetric:
        raise DomainError("shuffle-eval needs a symmetric quiver")
    if None in (cfg.left, cfg.left_gamma, cfg.right, cfg.right_gamma):
        raise DomainError(
            "shuffle-eval needs --left, --left-gamma, --right, --right-gamma")
    left = _element(cfg.quiver, cfg.left_gamma, cfg.left)
    right = _element(cfg.quiver, cfg.right_gamma, cfg.right)
    prod = twisted_product(left, right, quiver=cfg.quiver)
    payload = {
        "quiver": cfg.quiver.to_spec_dict(),
        "left": {"gamma": list(left.gamma), "poly": left.canonical_str()},
        "right": {"gamma": list(right.gamma), "poly": right.canonical_str()},
        "product": {"gamma": list(prod.gamma), "poly": prod.canonical_str()},
    }
    return 0, payload


_RUNNERS = {
    "dt-table": run_dt_table,
    "check-freeness": run_check_freeness,
    "check-nonvanishing": run_check_nonvanishing,
    "genericity": run_genericity,
    "shuffle-eval": run_shuffle_eval,
}


# -- serialization ------------------------------------------------------------


def _emit(value, indent: str) -> str:
    """The JSON text of ``value`` nested at ``indent``, as ``json.dumps``
    writes it with sorted keys, an indent of 2 and ensure_ascii off: each
    dict or list comes back as one joined string, and a tuple is a list."""
    if isinstance(value, str):
        return _string(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    sep = ",\n" + inner
    if isinstance(value, dict):
        if not value:
            return "{}"
        body = sep.join([f"{_string(key)}: {_emit(value[key], inner)}" for key in sorted(value)])
        return f"{{\n{inner}{body}\n{indent}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        body = sep.join([_emit(item, inner) for item in value])
        return f"[\n{inner}{body}\n{indent}]"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def render_json(payload: dict) -> str:
    return _emit(payload, "") + "\n"


def _flat(value) -> str:
    if isinstance(value, (dict, list)):
        return json.dumps(value, sort_keys=True, ensure_ascii=False)
    if isinstance(value, bool):
        return "true" if value else "false"
    return "" if value is None else str(value)


def render_csv(payload: dict) -> str:
    """Header rows for the scalar fields, then one table of row records."""
    import csv   # only CSV reports need it

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    rows_key = next((k for k in ("omega", "cells", "rows") if k in payload), None)
    for key in sorted(payload):
        if key == rows_key:
            continue
        writer.writerow(["#", key, _flat(payload[key])])
    if rows_key:
        records = payload[rows_key]
        if records:
            fields = sorted({f for rec in records for f in rec})
            writer.writerow(fields)
            for rec in records:
                writer.writerow([_flat(rec.get(f)) for f in fields])
    return buf.getvalue()


def run(cfg: RunConfig) -> tuple[int, str]:
    code, payload = _RUNNERS[cfg.mode](cfg)
    text = render_json(payload) if cfg.fmt == "json" else render_csv(payload)
    return code, text


def main(argv=None) -> int:
    try:
        cfg = load_config(argv if argv is not None else sys.argv[1:])
        if cfg is None:
            sys.stdout.write(_help_text())
            return 0
        code, text = run(cfg)
    except DomainError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except LimitExceededError as err:
        print(f"error: {err}", file=sys.stderr)
        return 4
    except (OverflowError, MemoryError):
        print("error: input exceeds this interpreter's capacity: a flag asks for more "
              "than a list index or the memory holds", file=sys.stderr)
        return 4
    except StructuralViolationError as err:
        print(f"internal error: {err}", file=sys.stderr)
        return 3
    if cfg.out:
        try:
            with open(cfg.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as err:
            print(f"error: cannot write report: {err}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
