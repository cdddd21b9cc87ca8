import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from quivercoha.cli import main, render_json

BENCH = Path(__file__).resolve().parent.parent / "bench"
DATA = Path(__file__).resolve().parent / "data"
# the interpreter's int-string limit, 0 when it has none
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()

# The benchmark's workloads (bench/workloads.py): quiver file, mode,
# gamma-max and qtrunc of each, and its reference report in bench/reference.
BENCH_WORKLOADS = {
    "dt_loop3": ("loop3.json", "dt-table", "5", "30"),
    "freeness_loop2": ("loop2.json", "check-freeness", "4", "16"),
    "freeness_kronecker": ("kronecker2_doubled.json", "check-freeness", "3,2", "10"),
    "nonvanishing_kronecker": ("kronecker2_half.json", "check-nonvanishing", "4,4", "16"),
}


def write_quiver(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


@pytest.fixture
def a1_path(tmp_path):
    return write_quiver(tmp_path, "a1.json", {"vertices": 1, "arrows": []})


@pytest.fixture
def loop1_path(tmp_path):
    return write_quiver(tmp_path, "loop1.json",
                        {"vertices": 1, "arrows": [[0, 0, 1]]})


@pytest.fixture
def kron_path(tmp_path):
    return write_quiver(tmp_path, "kron.json",
                        {"vertices": 2, "arrows": [[0, 1, 2], [1, 0, 2]]})


def run_to_file(tmp_path, args, name="out.json"):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    return code, out.read_bytes()


def test_dt_table_matches_expected_values(tmp_path, a1_path):
    code, blob = run_to_file(tmp_path, [
        "--quiver", a1_path, "--mode", "dt-table",
        "--gamma-max", "3", "--qtrunc", "16"])
    assert code == 0
    data = json.loads(blob)
    by_gamma = {tuple(r["gamma"]): r for r in data["omega"]}
    assert by_gamma[(1,)]["coeffs"] == [[1, "1"]]
    assert by_gamma[(1,)]["nonvanishing"] is True
    assert by_gamma[(2,)]["coeffs"] == []
    assert by_gamma[(3,)]["nonvanishing"] is False


def test_every_mode_is_byte_deterministic(tmp_path, a1_path, loop1_path):
    runs = {
        "dt-table": ["--quiver", a1_path, "--mode", "dt-table",
                     "--gamma-max", "2", "--qtrunc", "10"],
        "check-freeness": ["--quiver", a1_path, "--mode", "check-freeness",
                           "--gamma-max", "2", "--qtrunc", "8"],
        "check-nonvanishing": ["--quiver", loop1_path, "--mode",
                               "check-nonvanishing", "--gamma-max", "2",
                               "--qtrunc", "10"],
        "genericity": ["--quiver", a1_path, "--mode", "genericity",
                       "--gamma-max", "3", "--seed", "7"],
        "shuffle-eval": ["--quiver", a1_path, "--mode", "shuffle-eval",
                         "--gamma-max", "2", "--left", "x", "--left-gamma", "1",
                         "--right", "1", "--right-gamma", "1"],
    }
    for mode, args in runs.items():
        for fmt in ("json", "csv"):
            code1, blob1 = run_to_file(tmp_path, args + ["--format", fmt], "r1")
            code2, blob2 = run_to_file(tmp_path, args + ["--format", fmt], "r2")
            assert code1 == code2 == 0, mode
            assert blob1 == blob2, (mode, fmt)


@pytest.mark.parametrize("name", BENCH_WORKLOADS)
def test_bench_workload_matches_reference(tmp_path, name):
    quiver, mode, gamma_max, qtrunc = BENCH_WORKLOADS[name]
    out = tmp_path / "report.json"
    assert main(["--quiver", str(BENCH / "quivers" / quiver), "--mode", mode,
                 "--gamma-max", gamma_max, "--qtrunc", qtrunc, "--out", str(out)]) == 0
    assert out.read_bytes() == (BENCH / "reference" / f"{name}.json").read_bytes()


# strings mix ASCII, quotes, backslashes, control and non-ASCII characters
JSON_TEXT = st.text(st.sampled_from('ab"\\\n\x00\x1f\u00e9\u03a9\U0001f600'), max_size=6)
JSON_LEAVES = st.integers(-10**30, 10**30) | st.booleans() | st.none() | JSON_TEXT


@given(st.dictionaries(JSON_TEXT, st.recursive(
    JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=6) | st.dictionaries(JSON_TEXT, inner, max_size=6),
    max_leaves=16), max_size=4))
@example({})
@example({"": [], "a": {}, "b": [{}]})
@example({"rows": [{"gamma": [i, -i], "ok": i % 2 == 0, "why": None} for i in range(60)]})
@example({"certificate": {"reflections": (0, 2), "witness": (1, (0, -1), ())}})
@example({"\u00e9\u03a9": "\u00e9 \U0001f600 \x00 \x1f \" \\ \n", "\U0001f600": []})
@example({"flags": [None, True, False], "none": None, "true": True, "false": False})
@example({"a": [[], {}, [[]], [{}]], "b": {"c": {}, "d": [[[]]]}})
def test_render_json_is_json_dumps(payload):
    # the recursive emitter changes how the text is built, never its bytes:
    # tuples render as lists, non-ASCII text stays as it is
    assert render_json(payload) == json.dumps(payload, sort_keys=True, indent=2,
                                              ensure_ascii=False) + "\n"


def test_render_json_peak_stays_near_the_report_size():
    # json.dumps with an indent holds every encoder chunk until its join,
    # about nine times the text; the emitter holds the text about twice (a
    # list's member strings and their join)
    text = (BENCH / "reference" / "freeness_kronecker.json").read_text(encoding="utf-8")
    payload = json.loads(text)
    tracemalloc.start()
    try:
        rendered = render_json(payload)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rendered == text
    assert peak < 4 * len(text)


def _run_module(args):
    src = str(BENCH.parent / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    return subprocess.run([sys.executable, "-m", "quivercoha", *args],
                          capture_output=True, env=env, cwd=BENCH.parent, timeout=60)


def test_module_entry_point(tmp_path):
    # python -m quivercoha runs __main__.py: the report goes to stdout byte
    # for byte as --out writes it, and the exit status is main's
    quiver, mode, gamma_max, qtrunc = BENCH_WORKLOADS["dt_loop3"]
    proc = _run_module(["--quiver", str(BENCH / "quivers" / quiver), "--mode", mode,
                        "--gamma-max", gamma_max, "--qtrunc", qtrunc])
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == (BENCH / "reference" / "dt_loop3.json").read_bytes()
    bad = write_quiver(tmp_path, "bad.json", {"vertices": 2, "arrows": [[0, 7, 1]]})
    proc = _run_module(["--quiver", bad, "--mode", "dt-table", "--gamma-max", "1,1"])
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert proc.stderr.startswith(b"error: ") and b"arrows[0]" in proc.stderr


def test_freeness_loop2_gamma5_matches_golden(tmp_path):
    # 2-loop check-freeness with gamma-max 5 and qtrunc 16, a larger anchor
    # than the bench workload (gamma-max 4)
    loop2 = write_quiver(tmp_path, "loop2.json", {"vertices": 1, "arrows": [[0, 0, 2]]})
    code, blob = run_to_file(tmp_path, ["--quiver", loop2, "--mode", "check-freeness",
                                        "--gamma-max", "5", "--qtrunc", "16"])
    assert code == 0
    assert blob == (DATA / "freeness_loop2_g5.json").read_bytes()


@pytest.mark.parametrize("args, golden", [
    (["--mode", "check-nonvanishing", "--gamma-max", "3,3", "--qtrunc", "8"],
     "nonvanishing_kronecker2_half_g3_3_q8.csv"),
    (["--mode", "genericity", "--gamma-max", "2,2", "--seed", "3"],
     "genericity_kronecker2_half_g2_2_s3.csv"),
], ids=["check-nonvanishing", "genericity"])
def test_csv_report_matches_golden(tmp_path, args, golden):
    # CSV flattens nested records through json.dumps, which would write a
    # named tuple as a list; the goldens pin every byte of both renderings
    code, blob = run_to_file(tmp_path, [
        "--quiver", str(BENCH / "quivers" / "kronecker2_half.json"), *args,
        "--format", "csv"], name="out.csv")
    assert code == 0
    assert blob == (DATA / golden).read_bytes()


@pytest.mark.parametrize("quiver, args, golden", [
    ("kronecker2_half.json", ["--mode", "genericity", "--gamma-max", "2,2", "--seed", "3"],
     "genericity_kronecker2_half_g2_2_s3.json"),
    ("kronecker2_half.json", ["--mode", "check-nonvanishing", "--gamma-max", "3,3",
                              "--qtrunc", "8"],
     "nonvanishing_kronecker2_half_g3_3_q8.json"),
    ("kronecker2_half.json", ["--mode", "check-nonvanishing", "--gamma-max", "8,8",
                              "--qtrunc", "60"],
     "nonvanishing_kronecker2_half_g8_8_q60.json"),
    ("loop2.json", ["--mode", "shuffle-eval", "--gamma-max", "3",
                    "--left", "1/2*x0_1*x0_2 - 3/4", "--left-gamma", "2",
                    "--right", "x0_1 + 2/3", "--right-gamma", "1"],
     "shuffle_loop2_g2_by_g1.json"),
    ("kronecker2_doubled.json", ["--mode", "check-freeness", "--gamma-max", "3,3",
                                 "--qtrunc", "12"],
     "freeness_kronecker2_doubled_g3_3_q12.json"),
    ("loop2.json", ["--mode", "check-freeness", "--gamma-max", "5", "--qtrunc", "26"],
     "freeness_loop2_g5_q26.json"),
], ids=["genericity", "check-nonvanishing", "check-nonvanishing-8-8", "shuffle-eval",
        "check-freeness", "check-freeness-full-window"])
def test_json_report_matches_golden(tmp_path, quiver, args, golden):
    # the record layouts (root and genericity certificates, eigenvalue lists,
    # rational polynomial coefficients) pinned byte for byte, a freeness
    # check whose loop-free colors take wider chains of divided differences
    # than the bench workload's, a 2-loop freeness check on a full window,
    # where the most cells stop their products at the complement count, and
    # the series route on the (8,8) box, whose 81 pieces read the most pairs
    # by flat position (2025 per MultiSeries product or inverse)
    code, blob = run_to_file(tmp_path, ["--quiver", str(BENCH / "quivers" / quiver), *args])
    assert code == 0
    assert blob == (DATA / golden).read_bytes()


@pytest.mark.parametrize("quiver, gamma_max, qtrunc, golden", [
    ("loop3.json", "12", "290", "dt_loop3_g12_q290.json"),
    ("kronecker2_doubled.json", "6,6", "80", "dt_kronecker2_g6_6_q80.json"),
], ids=["loop3", "kronecker2_doubled"])
def test_full_window_dt_table_matches_golden(tmp_path, quiver, gamma_max, qtrunc, golden):
    # windows wide enough to hold every coefficient, where the product's hi
    # cutoff skips the most term pairs
    code, blob = run_to_file(tmp_path, [
        "--quiver", str(BENCH / "quivers" / quiver), "--mode", "dt-table",
        "--gamma-max", gamma_max, "--qtrunc", qtrunc])
    assert code == 0
    assert blob == (DATA / golden).read_bytes()


def test_check_modes_exit_zero_on_agreement(tmp_path, loop1_path, kron_path):
    code, blob = run_to_file(tmp_path, [
        "--quiver", loop1_path, "--mode", "check-nonvanishing",
        "--gamma-max", "3", "--qtrunc", "12"])
    assert code == 0
    assert json.loads(blob)["verdict"] is True
    code, blob = run_to_file(tmp_path, [
        "--quiver", kron_path, "--mode", "check-freeness",
        "--gamma-max", "1,1", "--qtrunc", "12"])
    assert code == 0
    data = json.loads(blob)
    assert data["verdict"] is True
    assert all(cell["ok"] for cell in data["cells"])


def test_shuffle_eval_output(tmp_path, a1_path):
    code, blob = run_to_file(tmp_path, [
        "--quiver", a1_path, "--mode", "shuffle-eval", "--gamma-max", "2",
        "--left", "x", "--left-gamma", "1", "--right", "1", "--right-gamma", "1"])
    assert code == 0
    assert json.loads(blob)["product"] == {"gamma": [2], "poly": "-1"}


def test_genericity_rows_check_out(tmp_path, loop1_path):
    code, blob = run_to_file(tmp_path, [
        "--quiver", loop1_path, "--mode", "genericity",
        "--gamma-max", "3", "--seed", "11"])
    assert code == 0
    data = json.loads(blob)
    for row in data["rows"]:
        assert row["generic"] is True
        assert row["gamma_dot_lambda"] == "0"


def test_malformed_spec_is_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"vertices": 2, "arrows": [[0, 7, 1]]}', encoding="utf-8")
    code = main(["--quiver", str(bad), "--mode", "dt-table", "--gamma-max", "1,1"])
    assert code == 2
    assert "arrows[0]" in capsys.readouterr().err
    notjson = tmp_path / "notjson.json"
    notjson.write_text("{", encoding="utf-8")
    assert main(["--quiver", str(notjson), "--mode", "dt-table",
                 "--gamma-max", "1,1"]) == 2
    # a UTF-16 byte-order mark is not UTF-8: the error names the file
    utf16 = tmp_path / "utf16.json"
    utf16.write_bytes(b"\xff\xfe" + '{"vertices": 1}'.encode("utf-16-le"))
    assert main(["--quiver", str(utf16), "--mode", "dt-table", "--gamma-max", "1"]) == 2
    assert str(utf16) in capsys.readouterr().err
    # nested deeper than the decoder recurses, then an integer longer than
    # the interpreter converts: both name the file
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
    assert main(["--quiver", str(deep), "--mode", "dt-table", "--gamma-max", "1"]) == 2
    assert capsys.readouterr().err == f"error: invalid JSON: nested too deeply (at {deep})\n"
    if DIGIT_LIMIT:
        digits = tmp_path / "digits.json"
        digits.write_text(f'{{"vertices": {"1" * (DIGIT_LIMIT + 1)}}}', encoding="utf-8")
        assert main(["--quiver", str(digits), "--mode", "dt-table", "--gamma-max", "1"]) == 2
        assert capsys.readouterr().err == f"error: invalid JSON: integer too long (at {digits})\n"


@pytest.mark.parametrize("target", ["missing/report.json", "."],
                         ids=["missing_dir", "directory"])
def test_unwritable_out_is_exit_2(tmp_path, a1_path, capsys, target):
    # a missing parent directory, then a directory: both are input errors
    code = main(["--quiver", a1_path, "--mode", "dt-table", "--gamma-max", "1",
                 "--out", str(tmp_path / target)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write report: ")
    assert "Traceback" not in captured.err


def test_mode_quiver_mismatch_is_exit_2(tmp_path, capsys):
    asym = write_quiver(tmp_path, "asym.json",
                        {"vertices": 2, "arrows": [[0, 1, 1]]})
    code = main(["--quiver", asym, "--mode", "dt-table", "--gamma-max", "1,1"])
    assert code == 2
    assert "symmetric" in capsys.readouterr().err


def test_shuffle_eval_asymmetric_in_block_1_only_is_exit_2(kron_path, capsys):
    # block 0 (x0_1, x0_2) is symmetric; block 1 (x1_1, x1_2) is not
    code = main(["--quiver", kron_path, "--mode", "shuffle-eval", "--gamma-max", "3,2",
                 "--left", "x0_1 + x0_2 + x1_1", "--left-gamma", "2,2",
                 "--right", "1", "--right-gamma", "1,0"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: polynomial is not symmetric within color blocks\n"
    assert "Traceback" not in captured.err


def test_shuffle_eval_checks_the_left_side_before_the_right(capsys):
    # both sides are bad input: the left side's gamma has the wrong length,
    # the right side is not symmetric; the left side's error is the one seen
    code = main(["--quiver", str(BENCH / "quivers" / "loop2.json"), "--mode", "shuffle-eval",
                 "--gamma-max", "2", "--left", "1", "--left-gamma", "1,0",
                 "--right", "x0_1", "--right-gamma", "2"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: dimension vector of length 2 on a 1-vertex quiver\n"


def test_structural_violation_is_exit_3(a1_path, monkeypatch, capsys):
    from quivercoha import cli
    from quivercoha.errors import StructuralViolationError

    def broken(cfg):
        raise StructuralViolationError("theorem failed")

    monkeypatch.setitem(cli._RUNNERS, "dt-table", broken)
    assert main(["--quiver", a1_path, "--mode", "dt-table", "--gamma-max", "1"]) == 3
    assert "theorem failed" in capsys.readouterr().err


def test_capacity_limit_is_exit_4(tmp_path, a1_path, loop1_path, kron_path, capsys):
    # |gamma| = 9 exceeds the exhaustive genericity search's size cap
    assert main(["--quiver", a1_path, "--mode", "genericity", "--gamma-max", "9"]) == 4
    assert "genericity" in capsys.readouterr().err
    # the shuffle numerator x0_1^127 (x1_1 - x0_1)^2 needs exponent 129
    assert main(["--quiver", kron_path, "--mode", "shuffle-eval", "--gamma-max", "1,1",
                 "--left", "x0_1^127", "--left-gamma", "1,0",
                 "--right", "1", "--right-gamma", "0,1"]) == 4
    assert "packed-exponent limit 127" in capsys.readouterr().err
    # with one loop the kernel (x0_3 - x0_1)(x0_3 - x0_2) lifts x0_1^127 to 128
    # before the divided differences; without arrows no exponent passes 127
    for quiver, code in ((loop1_path, 4), (a1_path, 0)):
        assert main(["--quiver", quiver, "--mode", "shuffle-eval", "--gamma-max", "3",
                     "--left", "x0_1^127*x0_2^127", "--left-gamma", "2",
                     "--right", "1", "--right-gamma", "1",
                     "--out", str(tmp_path / "limit.json")]) == code
    assert "product exponent 128" in capsys.readouterr().err
    assert json.loads((tmp_path / "limit.json").read_bytes())["product"]["poly"].startswith(
        "x0_1^126*x0_2^126 + ")
    # on A1, x^100 * x^100 at gamma 1+1 is 0: no exponent above 100 arises
    code, blob = run_to_file(tmp_path, [
        "--quiver", a1_path, "--mode", "shuffle-eval", "--gamma-max", "1",
        "--left", "x^100", "--left-gamma", "1", "--right", "x^100", "--right-gamma", "1"])
    assert code == 0
    assert json.loads(blob)["product"]["poly"] == "0"


@pytest.mark.parametrize("quiver, mode, gamma_max", [
    ("loop3.json", "dt-table", "2"),
    ("loop2.json", "check-freeness", "2"),
    ("kronecker2_half.json", "check-nonvanishing", "1,1"),
], ids=["dt-table", "check-freeness", "check-nonvanishing"])
def test_a_window_no_list_can_hold_is_exit_4(quiver, mode, gamma_max, capsys):
    # --qtrunc 10^23 - 1 sizes the first list of the series window past the
    # largest index, so the OverflowError comes before anything is allocated
    assert main(["--quiver", str(BENCH / "quivers" / quiver), "--mode", mode,
                 "--gamma-max", gamma_max, "--qtrunc", "9" * 23]) == 4
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: input exceeds this interpreter's capacity")
    assert len(err.splitlines()) == 1


def test_memory_error_is_exit_4(a1_path, monkeypatch, capsys):
    from quivercoha import cli

    def exhausted(cfg):
        raise MemoryError

    monkeypatch.setitem(cli._RUNNERS, "dt-table", exhausted)
    assert main(["--quiver", a1_path, "--mode", "dt-table", "--gamma-max", "1"]) == 4
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: input exceeds this interpreter's capacity")
    assert len(err.splitlines()) == 1


def test_gamma_max_length_mismatch_is_exit_2(a1_path):
    assert main(["--quiver", a1_path, "--mode", "dt-table",
                 "--gamma-max", "1,1"]) == 2


def test_csv_has_header_and_rows(tmp_path, a1_path):
    code, blob = run_to_file(tmp_path, [
        "--quiver", a1_path, "--mode", "dt-table", "--gamma-max", "2",
        "--qtrunc", "10", "--format", "csv"], "out.csv")
    assert code == 0
    lines = blob.decode().splitlines()
    assert any(line.startswith("#,qtrunc,10") for line in lines)
    header = next(line for line in lines if not line.startswith("#"))
    assert header.split(",") == ["coeffs", "gamma", "nonvanishing", "window"]


_ROWS = {"dt-table": "omega", "check-freeness": "cells", "check-nonvanishing": "rows"}


@pytest.mark.parametrize("mode", _ROWS)
def test_arrowless_1100_vertex_quiver_reports_the_one_vertex_values(tmp_path, mode):
    # the arrowless quiver on 1100 vertices at gamma-max 0,...,0,2 is the
    # 1-vertex quiver at gamma-max 2 padded by vertices outside the support:
    # the same Omega, cells and root verdicts, the gammas padded by zeros
    reports = []
    for vertices, gamma_max in ((1100, ",".join(["0"] * 1099 + ["2"])), (1, "2")):
        spec = write_quiver(tmp_path, f"q{vertices}.json", {"vertices": vertices, "arrows": []})
        out = tmp_path / f"r{vertices}.json"
        assert main(["--quiver", spec, "--mode", mode, "--gamma-max", gamma_max,
                     "--out", str(out)]) == 0
        reports.append(json.loads(out.read_text(encoding="utf-8")))
    wide, one = (report[_ROWS[mode]] for report in reports)
    assert len(wide) == len(one) > 0
    for row, twin in zip(wide, one):
        assert row.pop("gamma") == [0] * 1099 + twin.pop("gamma")
        if mode == "check-nonvanishing":
            cert, twin_cert = row.pop("certificate"), twin.pop("certificate")
            assert (cert["result"], cert["kind"]) == (twin_cert["result"], twin_cert["kind"])
        assert row == twin


# The command-line contract, checked through python -m quivercoha: every
# usage error, and a polynomial literal with a zero denominator, too deep a
# nesting or too long an integer, exits 2 with its message on stderr and
# nothing on stdout.
_LOOP3 = str(BENCH / "quivers" / "loop3.json")


@pytest.mark.parametrize("args, message", [
    (["--mode", "dt-table", "--gamma-max", "1"],
     "the following arguments are required: --quiver"),
    (["--quiver", _LOOP3, "--mode", "nope", "--gamma-max", "1"],
     "argument --mode: invalid choice: 'nope' (choose from"),
    (["--quiver", _LOOP3, "--mode", "dt-table", "--gamma-max", "1", "--qtrunc", "abc"],
     "argument --qtrunc: invalid int value: 'abc'"),
    (["--quiver", _LOOP3, "--mode", "dt-table", "--gamma-max", "1", "--foo"],
     "unrecognized arguments: --foo"),
    (["--mode", "dt-table", "--gamma-max", "1", "--quiver"],
     "argument --quiver: expected one argument"),
    (["--quiver", _LOOP3, "--mode", "dt-table", "--gamma-max", "1", "--r", "x"],
     "ambiguous option: --r could match --right, --right-gamma"),
    (["--quiver", _LOOP3, "--mode", "shuffle-eval", "--gamma-max", "2", "--left", "1/0",
      "--left-gamma", "1", "--right", "1", "--right-gamma", "1"],
     "error: zero denominator in 1/0"),
    (["--quiver", _LOOP3, "--mode", "shuffle-eval", "--gamma-max", "2", "--left", "0/0",
      "--left-gamma", "1", "--right", "1", "--right-gamma", "1"],
     "error: zero denominator in 0/0"),
    # nested deeper than the parser recurses, and an integer longer than the
    # interpreter converts
    (["--quiver", _LOOP3, "--mode", "shuffle-eval", "--gamma-max", "2",
      "--left", "(" * 300 + "x0_1" + ")" * 300, "--left-gamma", "1", "--right", "1",
      "--right-gamma", "1"],
     "error: polynomial nested too deeply\n"),
    pytest.param(["--quiver", _LOOP3, "--mode", "shuffle-eval", "--gamma-max", "2",
                  "--left", "9" * (DIGIT_LIMIT + 1), "--left-gamma", "1", "--right", "1",
                  "--right-gamma", "1"],
                 f"error: integer of {DIGIT_LIMIT + 1} digits in polynomial is too long\n",
                 marks=pytest.mark.skipif(not DIGIT_LIMIT, reason="no int-string limit")),
], ids=["required", "choice", "int", "unrecognized", "missing_value", "ambiguous",
        "zero_denominator", "zero_over_zero", "nested_literal", "long_integer"])
def test_usage_error_is_exit_2(args, message):
    proc = _run_module(args)
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert message in proc.stderr.decode()


@pytest.mark.parametrize("spelling", [
    ["--gamma-max=5", "--qtrunc", "30"],
    ["--gamma", "5", "--qtrunc", "30"],
    ["--gamma-max", "5", "--qtrunc", "4", "--qtrunc", "30"],
], ids=["equals", "prefix", "repeated"])
def test_flag_spellings_give_the_plain_report(spelling):
    # the plain form, --gamma-max 5 --qtrunc 30, writes the dt_loop3 reference
    proc = _run_module(["--quiver", _LOOP3, "--mode", "dt-table", *spelling])
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == (BENCH / "reference" / "dt_loop3.json").read_bytes()


def test_help_is_exit_0_and_names_every_flag():
    proc = _run_module(["-h"])
    assert (proc.returncode, proc.stderr) == (0, b"")
    for flag in ("--quiver", "--mode", "--gamma-max", "--qtrunc", "--seed", "--format",
                 "--out", "--left", "--left-gamma", "--right", "--right-gamma"):
        assert flag.encode() in proc.stdout, flag


def test_check_freeness_computes_no_cell_above_the_series_window(monkeypatch):
    # on the doubled 2-Kronecker the series window of (0,2), (2,0) and (3,0)
    # stops below chi + qtrunc; the linear side must stop there too
    from quivercoha import cli
    from quivercoha.dtseries import build_generating_series, plethystic_factor
    quiver, mode, gamma_max, qtrunc = BENCH_WORKLOADS["freeness_kronecker"]
    cfg = cli.load_config(["--quiver", str(BENCH / "quivers" / quiver), "--mode", mode,
                           "--gamma-max", gamma_max, "--qtrunc", qtrunc])
    omegas = plethystic_factor(build_generating_series(cfg.quiver, cfg.gamma_max,
                                                       cfg.qtrunc))
    asked = []
    real = cli.prim_dims

    def spy(q, gamma, kmax):
        asked.append((gamma, kmax))
        return real(q, gamma, kmax)

    monkeypatch.setattr(cli, "prim_dims", spy)
    assert cli.run(cfg)[0] == 0
    assert asked
    assert [(g, k) for g, k in asked if k > omegas[g].hi] == []
