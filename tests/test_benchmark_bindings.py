"""The library names that benchmarks/tracing.py binds by name.

The benchmark harness lives outside the test suite, so a pruning of the
library that drops one of these names would break its traced passes without
failing any test here.
"""
import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import laserclock
from laserclock import channel, laserdyn, tracking


def test_traced_functions_are_public():
    assert "run_tracking" in tracking.__all__
    assert "decohere" in channel.__all__
    assert "extract_linewidth" in laserdyn.__all__


def test_traced_arguments_keep_their_names():
    run = inspect.signature(tracking.run_tracking).parameters
    for name in ("mode", "beam", "dt", "trials", "bandwidth", "gain"):
        assert name in run, name
    assert run["dt"].default is None and run["gain"].default is None
    fit = inspect.signature(laserdyn.extract_linewidth).parameters
    assert "method" in fit and "truncation" in fit


def test_traced_module_attributes_exist():
    # tracing resolves an auto dt through loop_time_constant and counts pool
    # starts by replacing the module's ProcessPoolExecutor
    beam = tracking.BeamParams(f=1e3, ell=1.0)
    assert tracking.loop_time_constant(beam, "heterodyne", None) > 0
    assert inspect.isclass(tracking.ProcessPoolExecutor)


def test_every_public_name_resolves():
    # tracing wraps each name of a module's __all__ through getattr, so a
    # stale entry would crash every traced pass
    for short in ("cli", "sync", "tracking", "laserdyn", "fock", "channel"):
        mod = importlib.import_module(f"laserclock.{short}")
        for name in mod.__all__:
            assert hasattr(mod, name), f"laserclock.{short}.{name}"


def test_every_public_name_has_a_production_caller():
    # a production caller is cli or another library module: each name of a
    # module's __all__ must be read, as a Name or an Attribute, somewhere in
    # src/laserclock outside the def or class that defines it
    src = Path(laserclock.__file__).resolve().parent
    trees = [ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))]

    def reads(node, name):
        return sum(isinstance(n, ast.Name) and n.id == name
                   or isinstance(n, ast.Attribute) and n.attr == name
                   for n in ast.walk(node))

    unused = []
    for short in ("cli", "sync", "tracking", "laserdyn", "fock", "channel"):
        mod = importlib.import_module(f"laserclock.{short}")
        own = {node.name: node for node in ast.parse(Path(mod.__file__).read_text()).body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        for name in mod.__all__:
            inside = reads(own[name], name) if name in own else 0
            if sum(reads(tree, name) for tree in trees) == inside:
                unused.append(f"laserclock.{short}.{name}")
    assert not unused, f"public names with no production caller: {unused}"


def test_cli_import_leaves_general_numerics_unloaded(tmp_path):
    # every subcommand runs on numpy alone, the lattice channel included:
    # scipy stays with the test oracles
    code = f"""
import sys, warnings
warnings.simplefilter("ignore")
from laserclock.cli import main
def run(argv):
    assert main(argv.split() + ["--out", {str(tmp_path)!r} + "/run.csv"]) == 0, argv
def loaded(prefixes):
    return sorted(m for m in sys.modules if m.startswith(prefixes))
for argv in ("track --flux 1e3 --linewidth 1 --trials 2",
             "sync --kappa 1 --mu 1e4 --parties 1,2 --trials 2",
             "sweep --axis n --values 1e3,1e4 --trials 3",
             "limits --mu 100 --parties 1,4"):
    run(argv)
print(loaded(("scipy",)))
for argv in ("linewidth --kappa 1 --mu 8", "phasevar --mu 25"):
    run(argv)
print(loaded(("scipy",)))
run("channel --alpha-mod 2")
print(loaded(("scipy",)))
"""
    src = str(Path(laserclock.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.returncode == 0, out.stderr
    assert out.stdout.split("\n")[:3] == ["[]", "[]", "[]"]


def test_no_module_imports_scipy():
    # the lattice channel's Faddeeva function is Weideman's series and its
    # real error functions come from math, so every module is numpy alone
    src = Path(laserclock.__file__).resolve().parent
    importers = set()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else \
                [node.module or ""] if isinstance(node, ast.ImportFrom) else []
            if any(n == "scipy" or n.startswith("scipy.") for n in names):
                importers.add(path.name)
    assert importers == set()
