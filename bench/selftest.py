"""Self-tests of the benchmark itself, kept out of the package's test suite.

    python3 bench/selftest.py

They check the report checks against doctored reports, that the tracer
reaches and restores every binding, and, on a short run of every workload,
that each per-layer metric records work where it should, that tracing leaves
the report bytes unchanged, and that every metric prints with the unit
``BENCHMARK.json`` declares.  The short runs take about a minute.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import sys
import unittest

import run
from tracer import Tracer
from workloads import ROOT, WORKLOADS, check_report, reineke_dt

sys.path.insert(0, str(ROOT / "src"))


def _check(name: str, report: dict) -> list[str]:
    wl = WORKLOADS[name]
    return check_report(wl, json.dumps(report), wl.reference())[0]


class ReportChecks(unittest.TestCase):
    def test_reineke_closed_formula(self):
        self.assertEqual([reineke_dt(3, d) for d in range(1, 6)], [1, 1, 3, 10, 40])
        self.assertEqual([reineke_dt(2, d) for d in range(1, 7)], [1, 1, 1, 2, 5, 13])

    def test_references_pass(self):
        for wl in WORKLOADS.values():
            self.assertEqual(_check(wl.name, wl.reference()), [], wl.name)

    def test_wider_window_passes_narrower_fails(self):
        wider = WORKLOADS["dt_loop3"].reference()
        for row in wider["omega"]:
            row["window"][1] += 2
        self.assertEqual(_check("dt_loop3", wider), [])
        narrower = WORKLOADS["dt_loop3"].reference()
        narrower["omega"][0]["window"][1] -= 1
        self.assertTrue(_check("dt_loop3", narrower))

    def test_changed_coefficient_fails_reference_and_reineke(self):
        report = WORKLOADS["dt_loop3"].reference()
        row = next(r for r in report["omega"] if r["gamma"] == [4])
        row["coeffs"][0][1] = "2"
        problems = _check("dt_loop3", report)
        self.assertTrue(any("reference" in p for p in problems))
        self.assertTrue(any("Reineke" in p for p in problems))

    def test_freeness_cells(self):
        report = WORKLOADS["freeness_loop2"].reference()
        missing = copy.deepcopy(report)
        missing["cells"].pop()
        self.assertTrue(_check("freeness_loop2", missing))
        changed = copy.deepcopy(report)
        changed["cells"][-1]["c_series"] += 1
        changed["verdict"] = False
        self.assertEqual(len(_check("freeness_loop2", changed)), 2)

    def test_root_rows(self):
        report = WORKLOADS["nonvanishing_kronecker"].reference()
        report["rows"][1]["root"] = not report["rows"][1]["root"]
        report["rows"][2]["omega_window"][1] -= 1
        self.assertEqual(len(_check("nonvanishing_kronecker", report)), 2)


class TracerPatching(unittest.TestCase):
    BINDINGS = [("cli", "dt_report"), ("cli", "plethystic_factor"), ("cli", "prim_dims"),
                ("freeness", "twisted_product"), ("freeness", "exact_rank"),
                ("coha", "shuffle_product"), ("coha", "exact_divide"),
                ("dtseries", "plethystic_factor")]

    def test_patches_every_binding_and_restores(self):
        import importlib
        mods = {m: importlib.import_module(f"quivercoha.{m}") for m in
                ("cli", "freeness", "coha", "dtseries", "series", "poly")}
        before = {(m, a): getattr(mods[m], a) for m, a in self.BINDINGS}
        half = mods["series"].HalfSeries
        ops = {op: half.__dict__[op] for op in ("__mul__", "__rmul__")}
        tracer = Tracer()
        tracer.install()
        try:
            for (m, a), original in before.items():
                self.assertIsNot(getattr(mods[m], a), original, f"{m}.{a}")
                self.assertIs(getattr(mods[m], a).__wrapped__, original, f"{m}.{a}")
            for op, original in ops.items():
                self.assertIsNot(half.__dict__[op], original)
        finally:
            tracer.restore()
        for (m, a), original in before.items():
            self.assertIs(getattr(mods[m], a), original, f"{m}.{a}")
        for op, original in ops.items():
            self.assertIs(half.__dict__[op], original)


def _last_line(argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(argv)
    assert code == 0, out.getvalue()
    return json.loads(out.getvalue().splitlines()[-1])


class ShortRuns(unittest.TestCase):
    """One short untraced and one short traced run of every workload."""

    @classmethod
    def setUpClass(cls):
        cls.results = {(name, trace): _last_line(["--workload", name, "--seconds", "0",
                                                  "--trace", str(trace)])
                       for name in WORKLOADS for trace in (0, 1)}
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        cls.units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
        cls.spec = spec

    def test_benchmark_json_names_these_metrics_and_workloads(self):
        self.assertEqual([m["name"] for m in self.spec["end_to_end"]], list(run.END_TO_END))
        self.assertEqual([m["name"] for m in self.spec["per_layer"]], list(run.PER_LAYER))
        self.assertEqual({w["name"]: w["why"] for w in self.spec["workloads"]},
                         {w.name: w.why for w in WORKLOADS.values()})

    def test_every_metric_prints_with_its_unit(self):
        for (name, trace), res in self.results.items():
            self.assertTrue(res["correct"], name)
            self.assertEqual(res["failed"], 0, name)
            expected = run.PER_LAYER if trace else run.END_TO_END
            self.assertEqual(set(res["metrics"]), set(expected), name)
            for metric, entry in res["metrics"].items():
                self.assertEqual(entry["unit"], self.units[metric], metric)
                self.assertIsInstance(entry["value"], (int, float), metric)

    def test_each_layer_records_work_where_it_should(self):
        for metric, (_, workloads) in run.PER_LAYER.items():
            for name in workloads:
                value = self.results[(name, 1)]["metrics"][metric]["value"]
                self.assertGreater(value, 0, f"{metric} on {name}")

    def test_traced_report_bytes_equal_untraced(self):
        for wl in WORKLOADS.values():
            r = run.Run(wl, seed=0)
            plain, traced = r.call("call"), r.call("trace")
            self.assertEqual(plain["report"], traced["report"], wl.name)


if __name__ == "__main__":
    unittest.main()
