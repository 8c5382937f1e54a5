"""What each subcommand loads: numpy.random only where noise is drawn or a
seed derived, the process pool only where one starts.

Each check runs the CLI in a fresh interpreter, since the test process has
long since loaded both.
"""
import ast
import concurrent.futures
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import laserclock
from laserclock import tracking

SRC = Path(laserclock.__file__).resolve().parent
POOL = ("concurrent", "multiprocessing")

PRELUDE = """
import json, sys, warnings
warnings.simplefilter("ignore")
import numpy
bare = "numpy.random" in sys.modules  # numpy < 2 loads it with numpy itself
from laserclock.cli import main
def run(argv, out):
    assert main(argv.split() + ["--out", out]) == 0, argv
def loaded(prefixes):
    return sorted(m for m in sys.modules if m.startswith(prefixes))
"""


def _fresh(code, tmp_path):
    """Run PRELUDE then ``code`` in a new interpreter; its printed JSON lines."""
    script = PRELUDE + f"OUT = {str(tmp_path)!r}\n" + code
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    assert out.returncode == 0, out.stderr
    return [json.loads(line) for line in out.stdout.splitlines()]


def test_subcommands_load_noise_and_pool_only_where_used(tmp_path):
    # the closed-form subcommands load neither numpy.random nor the pool;
    # the Monte Carlo ones at one worker load numpy.random but no pool
    code = f"""
for argv in ("linewidth --kappa 1 --mu 8", "phasevar --mu 25",
             "channel --alpha-mod 2", "limits --mu 100 --parties 1,4"):
    run(argv, OUT + "/run.csv")
print(json.dumps([bare, loaded(("numpy.random",)), loaded({POOL!r})]))
for argv in ("track --flux 1e3 --linewidth 1 --trials 2 --workers 1",
             "sweep --axis n --values 1e3,1e4 --trials 3 --workers 1",
             "sync --kappa 1 --mu 1e4 --parties 1,2 --trials 2 --workers 1"):
    run(argv, OUT + "/run.csv")
print(json.dumps([loaded(("numpy.random",)) != [], loaded({POOL!r})]))
"""
    (bare, noise, pool), (drawn, pool_after) = _fresh(code, tmp_path)
    assert noise == [] or bare
    assert pool == []
    assert drawn
    assert pool_after == []


def test_pooled_sweep_loads_the_pool_and_writes_the_same_bytes(tmp_path):
    code = f"""
argv = "sweep --axis n --values 1e3,1e4 --trials 3 --seed 4 --workers "
run(argv + "1", OUT + "/w1.csv")
print(json.dumps(loaded({POOL!r})))
run(argv + "2", OUT + "/w2.csv")
print(json.dumps("concurrent.futures.process" in sys.modules))
"""
    serial, pooled = _fresh(code, tmp_path)
    assert serial == [] and pooled
    assert (tmp_path / "w2.csv").read_bytes() == (tmp_path / "w1.csv").read_bytes()


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_pool_attribute_is_the_class_and_the_one_started(monkeypatch):
    # a replacement of tracking.ProcessPoolExecutor (the benchmark's pool
    # counter) is what a pooled batch starts
    assert tracking.ProcessPoolExecutor is concurrent.futures.ProcessPoolExecutor
    starts = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            starts.append(kwargs)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(tracking, "ProcessPoolExecutor", CountingPool)
    beam = tracking.BeamParams(f=1e3, ell=1.0)
    pooled = tracking.run_tracking("adaptive", beam, trials=4, seed=2, workers=2,
                                   duration=2.0)
    assert starts == [{"max_workers": 2}]
    assert pooled == tracking.run_tracking("adaptive", beam, trials=4, seed=2, duration=2.0)
    assert starts == [{"max_workers": 2}]


def _module_level(node):
    """The nodes run when the module is imported: all but function bodies."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield child
            yield from _module_level(child)


def test_no_module_imports_the_pool_or_numpy_random_at_import_time():
    lazy = ("concurrent", "multiprocessing", "numpy.random")
    importers = set()
    for path in sorted(SRC.glob("*.py")):
        for node in _module_level(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [f"{node.module}.{a.name}" for a in node.names]
            else:
                continue
            if any(n == p or n.startswith(p + ".") for n in names for p in lazy):
                importers.add(path.name)
    assert importers == set()

