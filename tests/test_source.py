import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "quivercoha"


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


def test_library_is_stdlib_only():
    # the package declares no dependencies: every import is relative or
    # names a standard-library module, whatever else is installed
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.partition(".")[0] not in sys.stdlib_module_names]
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
