"""Benchmark for the quivercoha CLI: end-to-end and per-layer metrics.

Run from the checkout root:

    python3 bench/run.py --workload dt_loop3 --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --out BENCH_example.json    # every workload, both passes
    python3 bench/run.py --compare BENCH_old.json BENCH_new.json

Load model: a closed loop with one client.  There is one process at a time
and no threads; each CLI call runs in a fresh interpreter (``child.py``) and
is timed inside it, so interpreter start-up is not counted but the package's
caches start cold, as in a real call.  The untraced pass (``--trace 0``)
reports the end-to-end metrics; the traced pass (``--trace 1``) alternates
untraced and traced calls and reports the per-layer metrics and the tracing
overhead.  Times are medians over the run's calls, each call's time scaled
by a calibration kernel timed in the same interpreter (see CAL_REF_S).
Every call's report is checked (exit code, verdict, the committed reference,
Reineke's closed formula); the last stdout line is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

The seed fixes the hash seed of every child interpreter; the CLI inputs
themselves are fixed, so no randomness reaches the program's arguments.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

from workloads import BENCH_DIR, ROOT, WORKLOADS, Workload, check_report

# name -> unit
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_alloc_mb": "MB",
    "certified_width": "count",
}

_TOWERS = ("dt_loop3", "nonvanishing_kronecker")
_SHUFFLE = ("freeness_loop2", "freeness_kronecker")
# name -> (unit, workloads whose wall_s the layer should move; the self-test
# requires it to record work on each of them)
PER_LAYER = {
    "series.HalfSeries.mul.calls": ("count", _TOWERS),
    "series.HalfSeries.mul.s": ("s", _TOWERS),
    "series.HalfSeries.mul.term_pairs": ("count", _TOWERS),
    "dtseries.tower.mul_calls": ("count", _TOWERS + ("freeness_loop2",)),
    "dtseries.tower.mul_s": ("s", _TOWERS + ("freeness_loop2",)),
    "series.MultiSeries.mul.calls": ("count", ("nonvanishing_kronecker",)),
    "series.MultiSeries.mul.self_s": ("s", ("nonvanishing_kronecker",)),
    "dtseries.plethystic_factor.s": ("s", _TOWERS),
    "dtseries.plethystic_factor.self_s": ("s", _TOWERS),
    "dtseries.build_generating_series.s": ("s", _TOWERS),
    "coha.shuffle_product.calls": ("count", _SHUFFLE),
    "coha.shuffle_product.s": ("s", _SHUFFLE),
    "coha.shuffle_product.self_s": ("s", _SHUFFLE),
    "coha.shuffle_product.shuffles": ("count", _SHUFFLE),
    "poly.ColoredPoly.mul.calls": ("count", _SHUFFLE),
    "poly.ColoredPoly.mul.s": ("s", _SHUFFLE),
    "poly.exact_divide.calls": ("count", _SHUFFLE),
    "poly.exact_divide.s": ("s", _SHUFFLE),
    "freeness.decomposable_dim.calls": ("count", _SHUFFLE),
    "freeness.decomposable_dim.self_s": ("s", _SHUFFLE),
    "freeness.exact_rank.calls": ("count", _SHUFFLE),
    "freeness.exact_rank.s": ("s", _SHUFFLE),
    "freeness.exact_rank.cells": ("count", _SHUFFLE),
    "roots.nonvanishing_certificate.calls": ("count", ("nonvanishing_kronecker",)),
    "roots.nonvanishing_certificate.s": ("s", ("nonvanishing_kronecker",)),
    "cli.render_json.s": ("s", tuple(WORKLOADS)),
    "trace.overhead_s": ("s", ()),
}

# Each child times a fixed calibration kernel before importing quivercoha and
# after the measured call (child._calibrate).  Every time is scaled by
# CAL_REF_S / that child's calibration time, so it reads as seconds on a
# machine where the kernel takes CAL_REF_S, and slowdowns caused by other
# tenants of the machine, which reach both, mostly cancel.  Raw medians are
# printed alongside.
CAL_REF_S = 0.03
MIN_CALLS = 3         # timed calls per untraced run, however short --seconds is
MIN_PAIRS = 2         # (untraced, traced) call pairs per traced run
CHILD_TIMEOUT = 150   # seconds


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _scaled(result: dict, seconds: float) -> float:
    return seconds * CAL_REF_S / result["cal_s"]


def _median(values: list[float]) -> float | None:
    return statistics.median(values) if values else None


class Run:
    """The calls of one workload run, their checks and their samples."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.reference = workload.reference()
        self.children = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reports: set[str] = set()
        self.width: int | None = None

    def child(self, kind: str) -> dict | None:
        """Run one child interpreter; None when it failed to produce a result."""
        self.children += 1
        env = dict(os.environ, PYTHONHASHSEED=str((self.seed * 1000003 + self.children) % 2**32))
        # Let the package's bytecode be cached in the checkout, as an installed
        # package's is, so setup_s does not time compilation.
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        cmd = [sys.executable, str(BENCH_DIR / "child.py"), kind, "--", *self.workload.argv()]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.problems.append(f"{kind} call timed out after {CHILD_TIMEOUT} s")
            return None
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no stderr"]
            self.problems.append(f"{kind} child exited {proc.returncode}: {tail[0]}")
            return None
        return json.loads(proc.stdout.splitlines()[-1])

    def call(self, kind: str) -> dict | None:
        """One checked CLI call; None when it failed any check."""
        self.attempted += 1
        result = self.child(kind)
        problems = []
        if result is not None:
            if result["rc"] != 0:
                problems.append(f"exit code {result['rc']}")
            try:
                found, width = check_report(self.workload, result["report"], self.reference)
            except (ValueError, KeyError, TypeError, IndexError) as err:
                found, width = [f"unreadable report: {err!r}"], None
            problems += found
            self.reports.add(result["report"])
            self.width = width
            if len(self.reports) > 1:
                problems.append("report bytes differ between calls")
        if result is None or problems:
            self.failed += 1
            self.problems += [f"{kind}: {p}" for p in problems]
            return None
        return result

    def warm_up(self) -> None:
        """Compile the package's bytecode before anything is timed; a
        failure here means the program is missing or broken."""
        if not (ROOT / "src" / "quivercoha" / "cli.py").is_file():
            raise BenchError(f"no quivercoha package under {ROOT / 'src'}")
        if self.child("setup") is None:
            raise BenchError("cannot import quivercoha: " + self.problems[-1])

    def setup(self) -> dict | None:
        """One set-up sample: a fresh interpreter imports the package and
        parses the arguments."""
        self.attempted += 1
        result = self.child("setup")
        if result is None:
            self.failed += 1
        return result


def _tail(samples: list[float]) -> dict | None:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return None
    rank = n - 10
    return {"percentile": 100 * rank // n, "value": sorted(samples)[rank - 1], "samples": n}


def run_untraced(run: Run, seconds: float) -> tuple[dict, dict]:
    peak = run.call("peak")
    calls, setups = [], []
    deadline = time.perf_counter() + seconds
    while len(calls) < MIN_CALLS or time.perf_counter() < deadline:
        # Each timed call is followed by one set-up sample, so that both
        # medians cover the same stretch of the machine's history.
        result, setup = run.call("call"), run.setup()
        if result is not None:
            calls.append(result)
        if setup is not None:
            setups.append(setup)
        if run.failed > 2 * MIN_CALLS and not calls:
            break   # every call fails; the result says so
    walls = [_scaled(r, r["wall_s"]) for r in calls]
    values = {
        "wall_s": _median(walls),
        "setup_s": _median([_scaled(r, r["setup_s"]) for r in setups]),
        "peak_alloc_mb": peak["peak_bytes"] / 1e6 if peak else None,
        "certified_width": run.width,
    }
    raw = {"wall_s": _median([r["wall_s"] for r in calls]),
           "setup_s": _median([r["setup_s"] for r in setups])}
    return values, {"raw_s": raw, "wall_s_samples": walls, "wall_s_tail": _tail(walls)}


def run_traced(run: Run, seconds: float) -> tuple[dict, dict]:
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while len(traced) < MIN_PAIRS or time.perf_counter() < deadline:
        a, b = run.call("call"), run.call("trace")
        if a is not None:
            plain.append(a)
        if b is not None:
            traced.append(b)
        elif run.failed > 2 * MIN_PAIRS and not traced:
            break
    values = {}
    for name, (unit, _) in PER_LAYER.items():
        if unit == "s":
            values[name] = _median([_scaled(t, t["layers"].get(name, 0)) for t in traced])
        elif traced:
            values[name] = statistics.median_low([t["layers"].get(name, 0) for t in traced])
    traced_wall = _median([_scaled(r, r["wall_s"]) for r in traced])
    plain_wall = _median([_scaled(r, r["wall_s"]) for r in plain])
    values["trace.overhead_s"] = None if None in (traced_wall, plain_wall) \
        else traced_wall - plain_wall
    return values, {}


def measure(name: str, seed: int, seconds: float, trace: int) -> dict:
    """One run of one workload, untraced or traced."""
    run = Run(WORKLOADS[name], seed)
    run.warm_up()
    values, extra = (run_traced if trace else run_untraced)(run, seconds)
    units = {k: unit for k, (unit, _) in PER_LAYER.items()} if trace else END_TO_END
    metrics = {}
    for k, unit in units.items():
        if values.get(k) is None:
            run.problems.append(f"{k} could not be measured")
        metrics[k] = {"value": values.get(k), "unit": unit}
    return {"metrics": metrics, "attempted": run.attempted, "failed": run.failed,
            "failed_frac": run.failed / run.attempted, "problems": run.problems, **extra}


# -- reporting ---------------------------------------------------------------


def _git_sha() -> str:
    """HEAD of the checkout's own .git, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _meta(seed: int, seconds: float) -> dict:
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"python": platform.python_version(), "git_sha": _git_sha(), "nproc": nproc,
            "seed": seed, "seconds": seconds}


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_workload(name: str, res: dict) -> None:
    print(f"{name}: {res['failed']} of {res['attempted']} calls failed "
          f"(failed_frac {_fmt(res['failed_frac'])}); times scaled to a "
          f"{CAL_REF_S} s calibration kernel")
    for metric, entry in res["metrics"].items():
        raw = res.get("raw_s", {})
        note = f"  raw median {_fmt(raw[metric])} s" if metric in raw else ""
        if metric == "wall_s":
            tail = res["wall_s_tail"]
            note += f"; median of {len(res['wall_s_samples'])} calls; " + (
                f"p{tail['percentile']} {_fmt(tail['value'])} s" if tail
                else "no percentile has ten samples beyond it")
        print(f"  {metric:38} {_fmt(entry['value']):>14} {entry['unit']}{note}")
    for problem in res["problems"]:
        print(f"  PROBLEM {problem}")


def _metrics(data: dict, workload: str) -> dict:
    """Metrics of both passes of one workload in a result file."""
    return {k: v for res in data["workloads"].get(workload, {}).values()
            for k, v in res["metrics"].items()}


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def compare(old_path: str, new_path: str) -> None:
    """Print every metric of two result files, new over old, with its base."""
    old, new = _load(old_path), _load(new_path)
    for label, data in (("old", old), ("new", new)):
        meta = data["meta"]
        print(f"{label}: git {meta['git_sha']}, Python {meta['python']}, nproc {meta['nproc']}, "
              f"seed {meta['seed']}, {meta['seconds']} s")
    order = list(END_TO_END) + list(PER_LAYER)
    for wl in sorted(set(old["workloads"]) | set(new["workloads"])):
        o, n = (_metrics(data, wl) for data in (old, new))
        names = sorted(set(o) | set(n), key=lambda k: (order.index(k) if k in order else len(order), k))
        for name in names:
            ov = o.get(name, {}).get("value")
            nv = n.get(name, {}).get("value")
            unit = (o.get(name) or n.get(name))["unit"]
            ratio = f"{nv / ov:.4f}" if ov and nv is not None else "n/a"
            print(f"{wl:24} {name:38} new/old {ratio:>8} (base {_fmt(ov)} {unit}, "
                  f"new {_fmt(nv)} {unit})")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", choices=("all", *WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0,
                   help="how long each run keeps issuing timed calls")
    p.add_argument("--trace", type=int, choices=(0, 1), default=None,
                   help="0: end-to-end metrics, 1: per-layer metrics (default: both)")
    p.add_argument("--out", help="also write the full result, with metadata, to this file")
    p.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                   help="print every metric of two --out files and stop")
    args = p.parse_args(argv)
    # Turn SIGTERM into an exception, so subprocess.run kills and reaps the
    # running child before this process exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.compare:
        compare(*args.compare)
        return 0
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    passes = [args.trace] if args.trace is not None else [0, 1]
    results: dict[str, dict] = {}
    try:
        for name in names:
            for trace in passes:
                label = "traced" if trace else "untraced"
                res = measure(name, args.seed, args.seconds, trace)
                print_workload(f"{name} ({label})", res)
                results.setdefault(name, {})[label] = res
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    meta = _meta(args.seed, args.seconds)
    print("meta " + json.dumps(meta))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"meta": meta, "workloads": results}, fh,
                      indent=2, sort_keys=True)
            fh.write("\n")
    runs = [(wl, res) for wl, by_pass in results.items() for res in by_pass.values()]
    summary = {
        "correct": all(not res["problems"] for _, res in runs),
        "attempted": sum(res["attempted"] for _, res in runs),
        "failed": sum(res["failed"] for _, res in runs),
        "metrics": {(k if len(names) == 1 else f"{wl}:{k}"): v
                    for wl, res in runs for k, v in res["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
