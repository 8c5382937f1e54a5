"""The demos call the library by name but are not run here, so each one is
parsed instead: every laserclock name it imports, and every attribute it
reads from an imported laserclock module, must exist."""
import ast
import importlib
import types
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def _lookup(module, name):
    """module.name, or the submodule of that name; None if neither exists."""
    if hasattr(module, name):
        return getattr(module, name)
    try:
        return importlib.import_module(f"{module.__name__}.{name}")
    except ModuleNotFoundError:
        return None


def _unresolved(tree):
    """The laserclock names a parsed script reads that the library lacks."""
    modules, missing = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "laserclock":
                    # "import laserclock.x" binds laserclock; "... as y" binds x
                    name = alias.name if alias.asname else "laserclock"
                    modules[alias.asname or name] = importlib.import_module(name)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 \
                and node.module.split(".")[0] == "laserclock":
            module = importlib.import_module(node.module)
            for alias in node.names:
                value = _lookup(module, alias.name)
                if value is None:
                    missing.append(f"{node.module}.{alias.name}")
                elif isinstance(value, types.ModuleType):
                    modules[alias.asname or alias.name] = value
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in modules \
                and _lookup(modules[node.value.id], node.attr) is None:
            missing.append(f"{modules[node.value.id].__name__}.{node.attr}")
    return missing


@pytest.mark.parametrize("path", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_reads_only_names_the_library_defines(path):
    tree = ast.parse(path.read_text())
    assert "laserclock" in ast.dump(tree)
    assert _unresolved(tree) == []


def test_a_missing_name_is_caught():
    script = ("import laserclock.tracking as tr\nfrom laserclock import sync\n"
              "from laserclock.sync import SyncReport, NoSuchClass\n"
              "sync.run_sync\nsync.no_such_function\ntr.BeamParams\n")
    assert _unresolved(ast.parse(script)) == ["laserclock.sync.NoSuchClass",
                                              "laserclock.sync.no_such_function"]
