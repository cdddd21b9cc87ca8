"""Per-layer timers and counters, installed around ``quivercoha`` from outside.

The tracer wraps every public function of the traced modules and the
multiplication operators of the three arithmetic classes.  A function is
patched in every ``quivercoha`` module that bound it by name (``cli`` calls
``dt_report`` through its own import, ``freeness`` calls ``twisted_product``
through its own, and so on), so no call escapes its wrapper; ``restore``
puts every original back.  Nothing under ``src/`` is edited.

For each span name it keeps the call count, the inclusive time of outermost
calls, the self time (inclusive time minus that of traced children) and any
counters computed from the arguments.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from math import comb, prod
from time import perf_counter

TRACED_MODULES = ("series", "dtseries", "poly", "coha", "freeness", "roots", "cli")
OPERATORS = (
    ("series", "HalfSeries", ("__mul__", "__rmul__")),
    ("series", "MultiSeries", ("__mul__",)),
    ("poly", "ColoredPoly", ("__mul__", "__rmul__")),
)
# HalfSeries products whose nearest traced ancestor is this span are tower
# construction: _tower_factor and _tower_pieces are private, so not wrapped.
TOWER_PARENT = "dtseries.plethystic_factor"


def _term_pairs(a, b) -> int:
    return len(a.coeffs) * (len(b.coeffs) if hasattr(b, "coeffs") else 1)


def _shuffles(a, b) -> int:
    return prod(comb(x + y, x) for x, y in zip(a.gamma, b.gamma))


def _cells(rows) -> int:
    return len(rows) * len(rows[0]) if rows else 0


COUNTERS = {
    "series.HalfSeries.mul": ("term_pairs", _term_pairs),
    "coha.shuffle_product": ("shuffles", _shuffles),
    "freeness.exact_rank": ("cells", _cells),
}


class Stat:
    __slots__ = ("calls", "s", "self_s", "count", "depth")

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.count = 0
        self.depth = 0


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self._stack: list[list] = []      # [span name, time spent in traced children]
        self._undo: list[tuple[object, str, object]] = []
        self.tower = Stat()

    def _wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, Stat())
        tower = self.tower if name == "series.HalfSeries.mul" else None
        counter = COUNTERS.get(name, (None, None))[1]
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                stat.count += counter(*args)
            parent = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            stat.depth += 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                stat.depth -= 1
                stat.calls += 1
                stat.self_s += elapsed - frame[1]
                if not stat.depth:
                    stat.s += elapsed
                if parent is not None:
                    parent[1] += elapsed
                    if tower is not None and parent[0] == TOWER_PARENT:
                        tower.calls += 1
                        tower.s += elapsed

        return traced

    def install(self) -> None:
        modules = {short: importlib.import_module(f"quivercoha.{short}")
                   for short in TRACED_MODULES}
        package = [m for n, m in sys.modules.items()
                   if m is not None and (n == "quivercoha" or n.startswith("quivercoha."))]
        for short, mod in modules.items():
            for name, fn in list(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ != mod.__name__:
                    continue
                wrapper = self._wrap(f"{short}.{name}", fn)
                for holder in package:
                    for attr, value in list(vars(holder).items()):
                        if value is fn:
                            self._patch(holder, attr, wrapper)
        for short, cls_name, ops in OPERATORS:
            cls = getattr(modules[short], cls_name)
            for op in ops:
                self._patch(cls, op, self._wrap(f"{short}.{cls_name}.mul", cls.__dict__[op]))

    def _patch(self, holder, attr: str, wrapper) -> None:
        self._undo.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, wrapper)

    def restore(self) -> None:
        while self._undo:
            holder, attr, original = self._undo.pop()
            setattr(holder, attr, original)

    def metrics(self) -> dict[str, float]:
        """Flat ``{span.calls, span.s, span.self_s, span.<counter>}`` view,
        plus the tower share of ``HalfSeries`` products."""
        out = {"dtseries.tower.mul_calls": self.tower.calls,
               "dtseries.tower.mul_s": self.tower.s}
        for name, st in self.stats.items():
            out[f"{name}.calls"] = st.calls
            out[f"{name}.s"] = st.s
            out[f"{name}.self_s"] = st.self_s
            if name in COUNTERS:
                out[f"{name}.{COUNTERS[name][0]}"] = st.count
        return out
