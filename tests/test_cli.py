import json
import sys
import tracemalloc

import pytest
from hypothesis import example, given, strategies as st

import replay
from quivercoha.cli import main, render_json

BENCH = replay.ROOT / "bench"
# the rows of tests/data/cases.json by id
CASES = {case["id"]: case for case in replay.CASES}
# the interpreter's int-string limit, 0 when it has none
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


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


def replay_in_process(case, monkeypatch, capsys):
    """replay.problems() of one run of ``case`` through main, from the
    repository root."""
    monkeypatch.chdir(replay.ROOT)
    code = main(case["argv"])
    out, err = capsys.readouterr()
    return replay.problems(case, code, out.encode(), err.encode())


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


@pytest.mark.parametrize("case", CASES.values(), ids=CASES)
def test_case(case, monkeypatch, capsys):
    # every golden report and exit-code case of the command line, one row of
    # tests/data/cases.json each; tests/replay.py runs the same rows
    # through a command
    assert replay_in_process(case, monkeypatch, capsys) == []


def test_every_golden_is_a_case():
    # a golden that no row names is checked by neither reader; unique ids
    # keep every row in CASES
    assert len(CASES) == len(replay.CASES)
    named = {case.get("golden") for case in replay.CASES}
    goldens = [path.relative_to(replay.ROOT).as_posix()
               for folder in (BENCH / "reference", replay.CASES_PATH.parent)
               for path in folder.iterdir() if path.is_file() and path != replay.CASES_PATH]
    assert goldens
    assert [path for path in goldens if path not in named] == []


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


def test_module_entry_point():
    # python -m quivercoha runs __main__.py: the report goes to stdout, and
    # the exit status is main's; tests/replay.py runs every row this way
    for name in ("dt_loop3", "bad_arrow_spec"):
        assert replay.run(CASES[name], *replay.module_command()) == [], name


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


@pytest.mark.skipif(not DIGIT_LIMIT, reason="no int-string limit")
def test_malformed_spec_is_exit_2(tmp_path, monkeypatch, capsys):
    # an integer longer than the interpreter converts names the file; the
    # other malformed specs are rows of tests/data/cases.json
    digits = tmp_path / "digits.json"
    digits.write_text(f'{{"vertices": {"1" * (DIGIT_LIMIT + 1)}}}', encoding="utf-8")
    case = {"argv": ["--quiver", str(digits), "--mode", "dt-table", "--gamma-max", "1"],
            "exit": 2, "stderr": [f"error: invalid JSON: integer too long (at {digits})\n"]}
    assert replay_in_process(case, monkeypatch, capsys) == []


@pytest.mark.parametrize("target", ["missing/report.json", "."],
                         ids=["missing_dir", "directory"])
def test_unwritable_out_is_exit_2(tmp_path, a1_path, monkeypatch, capsys, target):
    # a missing parent directory, then a directory: both are input errors
    case = {"argv": ["--quiver", a1_path, "--mode", "dt-table", "--gamma-max", "1",
                     "--out", str(tmp_path / target)],
            "exit": 2, "stderr": ["error: cannot write report: "]}
    assert replay_in_process(case, monkeypatch, capsys) == []


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


def test_memory_error_is_exit_4(a1_path, monkeypatch, capsys):
    from quivercoha import cli

    def exhausted(cfg):
        raise MemoryError

    monkeypatch.setitem(cli._RUNNERS, "dt-table", exhausted)
    case = {"argv": ["--quiver", a1_path, "--mode", "dt-table", "--gamma-max", "1"],
            "exit": 4, "stderr": ["error: input exceeds this interpreter's capacity"]}
    assert replay_in_process(case, monkeypatch, capsys) == []


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


@pytest.mark.skipif(not DIGIT_LIMIT, reason="no int-string limit")
@pytest.mark.parametrize("digits", [DIGIT_LIMIT + 1], ids=["long_integer"])
def test_usage_error_is_exit_2(digits, monkeypatch, capsys):
    # a literal integer longer than the interpreter converts, whose argv
    # depends on the interpreter; the other usage errors are rows of
    # tests/data/cases.json
    case = {"argv": ["--quiver", "bench/quivers/loop3.json", "--mode", "shuffle-eval",
                     "--gamma-max", "2", "--left", "9" * digits, "--left-gamma", "1",
                     "--right", "1", "--right-gamma", "1"],
            "exit": 2,
            "stderr": [f"error: integer of {digits} digits in polynomial is too long\n"]}
    assert replay_in_process(case, monkeypatch, capsys) == []


def test_check_freeness_computes_no_cell_above_the_series_window(monkeypatch):
    # on the doubled 2-Kronecker the series window of (0,2), (2,0) and (3,0)
    # stops below chi + qtrunc; the linear side must stop there too
    from quivercoha import cli
    from quivercoha.dtseries import build_generating_series, plethystic_factor
    monkeypatch.chdir(replay.ROOT)
    cfg = cli.load_config(CASES["freeness_kronecker"]["argv"])
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
