"""The library names that benchmarks/tracing.py binds by name.

The benchmark harness lives outside the test suite, so a pruning of the
library that drops one of these names would break its traced passes without
failing any test here.
"""
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
    assert "build_liouvillian_sector" in laserdyn.__all__


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


def test_cli_import_leaves_general_numerics_unloaded(tmp_path):
    # the Monte Carlo and closed-form subcommands run on numpy alone; scipy
    # loads inside the spectral ones, which still work in the same process,
    # and the quadrature, optimization and sparse packages stay with the
    # test oracles
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
for argv in ("linewidth --kappa 1 --mu 8", "phasevar --mu 25",
             "channel --alpha-mod 2"):
    run(argv)
print(loaded(("scipy.integrate", "scipy.optimize", "scipy.sparse")))
"""
    src = str(Path(laserclock.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.returncode == 0, out.stderr
    assert out.stdout.split("\n")[:2] == ["[]", "[]"]
