import ast
import os
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "quivercoha"


def test_library_has_no_bare_assert():
    # assert statements vanish under python -O; a failed theorem must raise
    # StructuralViolationError instead
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert sorted(SRC.glob("*.py"))
    assert found == []


def test_every_export_resolves():
    # a name left in __all__ after its definition is gone breaks
    # "from quivercoha import *" only when someone runs it
    import quivercoha
    assert [name for name in quivercoha.__all__ if not hasattr(quivercoha, name)] == []


def _absolute_imports():
    """(file name, line, module) of every absolute import in the package."""
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                yield path.name, node.lineno, name


def test_library_is_stdlib_only():
    # the package declares no dependencies: every import is relative or
    # names a standard-library module, whatever else is installed
    found = [f"{name}:{line} {module}" for name, line, module in _absolute_imports()
             if module.partition(".")[0] not in sys.stdlib_module_names]
    assert found == []


def test_library_has_no_unused_import():
    # a deletion that leaves its imports behind is caught here, since no
    # linter runs on the package; __init__.py imports to re-export
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                if name not in used:
                    found.append(f"{path.name}:{node.lineno} {name}")
    assert found == []


def test_every_library_function_is_used_by_the_library():
    # a function, method or class that only the tests call is code that no CLI
    # mode runs; every one must be named (as a name or an attribute) somewhere
    # in the package outside its own definition.  __all__ strings and
    # __init__.py's imports do not count, and dunders are called implicitly.
    # A method whose name another class or function of the package also
    # defines (such as zero or _make) counts as used only as Class.name, or
    # as self.name or cls.name inside its own class: a call of the other
    # definition does not keep it
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    defs = [node for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    owner = {id(item): node for node in defs if isinstance(node, ast.ClassDef)
             for item in node.body}
    shared = Counter(node.name for node in defs)
    refs = [(node.id if isinstance(node, ast.Name) else node.attr, node)
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))]
    found = []
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            own = {id(inner) for inner in ast.walk(node)}
            uses = [ref for key, ref in refs if key == node.name and id(ref) not in own]
            cls = owner.get(id(node))
            if cls is not None and shared[node.name] > 1:
                inside = {id(inner) for inner in ast.walk(cls)}
                uses = [ref for ref in uses if isinstance(ref, ast.Attribute)
                        and isinstance(ref.value, ast.Name)
                        and (ref.value.id == cls.name
                             or ref.value.id in ("self", "cls") and id(ref) in inside)]
            if not uses:
                found.append(f"{name}:{node.lineno} {node.name}")
    assert trees
    assert found == []


def test_only_the_series_layer_sees_offset_keys():
    # HalfSeries.coeffs keys each term by its offset k - lo, and
    # HalfSeries._make takes offsets: series and dtseries own that
    # convention, and every other module reads a series through items(),
    # coeff(), lo, hi and is_zero(), which speak in absolute exponents
    owners = {"series.py", "dtseries.py"}
    seen, found = set(), []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and (
                    node.attr == "coeffs" or node.attr == "_make"
                    and isinstance(node.value, ast.Name) and node.value.id == "HalfSeries"):
                seen.add(path.name)
                if path.name not in owners:
                    found.append(f"{path.name}:{node.lineno} {node.attr}")
    assert found == []
    assert seen == owners


def test_cli_import_loads_no_dataclasses_inspect_or_csv():
    # every CLI call starts a fresh interpreter, so its import cost is paid
    # each time; dataclasses pulls in inspect, ast, dis and tokenize, csv is
    # needed only by CSV reports, random only by the genericity mode, and
    # fractions (with decimal and numbers, about 4 ms) only where a Fraction
    # is made.  -S keeps site's own imports out.
    script = ("import sys, quivercoha.cli; print(sorted({'dataclasses', 'inspect', "
              "'csv', 'random', 'fractions', 'decimal', 'numbers'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=str(SRC.parent)),
                          timeout=60)
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "[]\n")


def test_integral_modes_load_no_fractions(tmp_path):
    # dt-table and the two check modes work over the integers from input to
    # report, so running them loads no fractions, decimal or numbers either
    script = ("import sys; from quivercoha.cli import main\n"
              "for mode in ('dt-table', 'check-freeness', 'check-nonvanishing'):\n"
              "    main(['--quiver', sys.argv[1], '--mode', mode, '--gamma-max', '3', "
              "'--qtrunc', '10', '--out', sys.argv[2]])\n"
              "print(sorted({'fractions', 'decimal', 'numbers'} & set(sys.modules)))")
    quiver = SRC.parents[1] / "bench" / "quivers" / "loop2.json"
    proc = subprocess.run([sys.executable, "-S", "-c", script, str(quiver),
                           str(tmp_path / "report.json")], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC.parent)), timeout=60)
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "[]\n")


def test_library_does_not_import_dataclasses():
    found = [f"{name}:{line}" for name, line, module in _absolute_imports()
             if module == "dataclasses"]
    assert found == []


def test_fractions_stay_where_the_algebra_is_not_integral():
    # both routes to Omega work over the integers; Fractions enter only
    # through polynomial literals (poly) and leg eigenvalues (legs), and the
    # series layer borrows no coefficient rule from poly
    importers = sorted({name for name, _, module in _absolute_imports()
                        if module == "fractions"})
    assert importers == ["legs.py", "poly.py"]
    tree = ast.parse((SRC / "series.py").read_text(encoding="utf-8"))
    assert [node.lineno for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            and node.level and node.module == "poly"] == []


def test_cli_load_config_loads_no_argparse_gettext_or_locale():
    # argparse builds its messages through gettext, which imports locale:
    # about 150 KB and 2 ms of every CLI call, for eleven flags
    script = ("import sys; from quivercoha.cli import load_config; "
              "load_config(['--quiver', sys.argv[1], '--mode', 'dt-table', "
              "'--gamma-max', '2']); "
              "print(sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))")
    quiver = SRC.parents[1] / "bench" / "quivers" / "loop3.json"
    proc = subprocess.run([sys.executable, "-S", "-c", script, str(quiver)],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC.parent)), timeout=60)
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "[]\n")


def test_byte_conversions_name_their_byteorder():
    # int.to_bytes and int.from_bytes default byteorder (and length) only
    # from Python 3.11 on; without one a call raises TypeError on 3.10
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("to_bytes", "from_bytes")):
                continue
            named = {kw.arg for kw in node.keywords}
            if len(node.args) + len(named & {"length", "bytes", "byteorder"}) < 2 \
                    or len(node.args) < 2 and "byteorder" not in named:
                found.append(f"{path.name}:{node.lineno} {node.func.attr}")
    assert found == []


def test_sources_compile_without_warnings():
    # an invalid escape sequence such as "\d" in a plain string is a
    # DeprecationWarning up to 3.11, shown by no test run, and a SyntaxWarning
    # from 3.12; compiling in memory, with warnings as errors, catches both
    paths = sorted(path for top in ("src", "tests", "bench")
                   for path in (ROOT / top).rglob("*.py"))
    found = []
    for path in paths:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                compile(path.read_bytes(), str(path), "exec", dont_inherit=True)
            except (SyntaxError, Warning) as exc:
                found.append(f"{path.relative_to(ROOT)}: {exc}")
    assert paths
    assert found == []
