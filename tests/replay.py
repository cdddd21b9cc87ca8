"""Replay the command-line cases of tests/data/cases.json.

    python tests/replay.py [--exe CMD]

Each row runs once, from the repository root, through CMD: by default this
interpreter with ``-m quivercoha`` and the source tree's ``src`` first on
PYTHONPATH; ``--exe quivercoha`` runs an installed console script instead.
The script prints each failed row and exits 1 if any failed, else 0.  The
tier-1 suite replays the same rows in process, through ``cli.main``.

A row has an ``id``, an ``argv`` whose paths are relative to the repository
root, the expected ``exit`` code, and either a ``golden`` file that stdout
must equal byte for byte or ``stdout``/``stderr`` lists of substrings.  An
optional ``why`` says what the row pins.  Exit 0 also requires an empty
stderr.  Any other exit requires an empty stdout and a stderr of one line
that starts with ``error: ``, so no traceback.
"""
import argparse
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CASES_PATH = ROOT / "tests" / "data" / "cases.json"
CASES = json.loads(CASES_PATH.read_text(encoding="utf-8"))


def problems(case, code, out, err):
    """What a run of ``case`` that exited with ``code`` and wrote the bytes
    ``out`` and ``err`` gets wrong, one message each; empty when it passes."""
    found = []
    if code != case["exit"]:
        found.append(f"exit {code}, expected {case['exit']}")
    if case["exit"] == 0:
        if err:
            found.append("stderr is not empty")
    else:
        if out:
            found.append("stdout is not empty")
        if not err.startswith(b"error: ") or err.count(b"\n") != 1 or not err.endswith(b"\n"):
            found.append("stderr is not one line starting with 'error: '")
    if "golden" in case and out != (ROOT / case["golden"]).read_bytes():
        found.append(f"stdout differs from {case['golden']}")
    for name, blob in (("stdout", out), ("stderr", err)):
        found += [f"{name} lacks {text!r}" for text in case.get(name, ())
                  if text.encode() not in blob]
    return found


def module_command():
    """This interpreter running the package in ``src``, and its environment."""
    path = os.environ.get("PYTHONPATH")
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    return [sys.executable, "-m", "quivercoha"], env


def run(case, command, env=None):
    """problems() of one run of ``case`` through ``command``, an argv prefix."""
    proc = subprocess.run([*command, *case["argv"]], capture_output=True, cwd=ROOT,
                          env=env, timeout=300)
    return problems(case, proc.returncode, proc.stdout, proc.stderr)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--exe", help="the command that runs the CLI, split as a shell "
                                      "would (default: python -m quivercoha on src)")
    args = parser.parse_args(argv)
    command, env = (shlex.split(args.exe), None) if args.exe else module_command()
    failed = 0
    for case in CASES:
        found = run(case, command, env)
        if found:
            failed += 1
            print(f"FAIL {case['id']}: {'; '.join(found)}")
    print(f"{len(CASES) - failed} of {len(CASES)} cases passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
