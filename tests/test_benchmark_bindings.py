"""The library names that benchmarks/tracing.py binds by name.

The benchmark harness lives outside the test suite, so a pruning of the
library that drops one of these names would break its traced passes without
failing any test here.
"""
import inspect

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
