"""One measured CLI call in a fresh interpreter; prints one JSON line.

    python3 bench/child.py KIND -- CLI-ARGS...

KIND is one of
  setup  time importing quivercoha and running load_config on the arguments
  call   time one cli.main() call, from argument parsing to rendered report
  peak   tracemalloc peak of one cli.main() call (the time is not reported)
  trace  one cli.main() call with the layer tracer installed

Every kind runs in its own interpreter, so the package's lru_caches start
cold as they do in a real CLI call.  The report goes into the JSON line, not
to stdout.  Run from the checkout root, with ``src`` holding the package.
"""

import gc
import sys
import time
from math import gcd

# Two sparse "polynomials" (exponent -> coefficient) for the calibration
# kernel, which runs _CAL_REPS times on each side of the measured call.
_CAL_REPS = 2
_A = {i * 131: i + 1 for i in range(64)}
_B = {i * 17: 3 * i - 7 for i in range(64)}


def _calibrate() -> float:
    """Seconds per run of a fixed pure-Python kernel shaped like quivercoha's
    hot loops: a sparse dict convolution, as in HalfSeries and ColoredPoly
    products, and dict updates with big-int arithmetic and gcds.

    It runs before quivercoha is imported and again after the measured call;
    the parent divides the call's time by the mean of the two, which cancels
    most of the slowdown other tenants of the machine cause.  The garbage
    collector is paused inside it, so nothing the package leaves on the heap
    can slow it.
    """
    enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    for _ in range(_CAL_REPS):
        table = dict.fromkeys(range(4096), 0)
        acc = 1
        for i in range(20000):
            key = (i * 7919) & 4095
            table[key] += i * i
            acc = (acc * 1103515245 + i) % (1 << 89)
            acc //= gcd(acc, i + 1)
        for _ in range(10):
            out = {}
            get = out.get
            for k1, c1 in _A.items():
                for k2, c2 in _B.items():
                    k = k1 + k2
                    s = get(k, 0) + c1 * c2
                    if s:
                        out[k] = s
                    else:
                        del out[k]
    elapsed = time.perf_counter() - start
    if enabled:
        gc.enable()
    return elapsed / _CAL_REPS


_CAL_BEFORE = _calibrate()
# setup_s starts here, so it also covers the stdlib modules imported below,
# which quivercoha imports too.
_START = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402


def _import_package(root):
    """Import the package from the checkout's ``src``, never from elsewhere."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import quivercoha
    import quivercoha.cli
    origin = os.path.realpath(quivercoha.__file__)
    if not origin.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"quivercoha imported from {origin}, not from {src}")
    return quivercoha.cli


def _main_captured(cli, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


def main(args):
    kind, sep, argv = args[0], args[1], args[2:]
    if sep != "--" or kind not in ("setup", "call", "peak", "trace"):
        raise SystemExit(__doc__)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    cli = _import_package(root)
    if kind == "setup":
        cli.load_config(argv)
        return {"setup_s": time.perf_counter() - _START}
    if kind == "call":
        start = time.perf_counter()
        rc, report = _main_captured(cli, argv)
        return {"rc": rc, "wall_s": time.perf_counter() - start, "report": report}
    if kind == "peak":
        import tracemalloc
        tracemalloc.start()
        rc, report = _main_captured(cli, argv)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        return {"rc": rc, "peak_bytes": peak, "report": report}
    from tracer import Tracer
    tracer = Tracer()
    tracer.install()
    try:
        start = time.perf_counter()
        rc, report = _main_captured(cli, argv)
        wall = time.perf_counter() - start
    finally:
        tracer.restore()
    return {"rc": rc, "wall_s": wall, "report": report, "layers": tracer.metrics()}


if __name__ == "__main__":
    result = main(sys.argv[1:])
    result["cal_s"] = (_CAL_BEFORE + _calibrate()) / 2
    sys.stdout.write(json.dumps(result) + "\n")
