"""Pins that hold one value per numpy dispatch target.

numpy runs some elementwise float64 loops in a SIMD variant picked at import
for the host CPU, and on x86 its ``arctan2``, ``exp``, ``log`` and ``log1p``
round differently in the ``X86_V4`` (AVX-512) variant than in the ones below
it; ``sin`` and ``cos`` agree bitwise across them.  The heterodyne estimator
takes ``np.angle`` of its filter, which runs ``arctan2``, so every pinned
heterodyne value is recorded once per ``arctan2`` target, read from numpy's
own dispatch report.  ``NPY_DISABLE_CPU_FEATURES=X86_V4,AVX512_ICL,AVX512_SPR``
selects the lower target on an AVX-512 host.
"""
import pytest


def arctan2_target():
    """The target numpy dispatches float64 ``arctan2`` to in this process, as
    its dispatch report names it (``"X86_V4"``, ``"baseline(X86_V2)"``, ...)."""
    from numpy.lib.introspect import opt_func_info

    (loop,) = opt_func_info(func_name="^arctan2$", signature="float64")["arctan2"].values()
    return loop["current"]


def pinned(pin):
    """A pin as recorded: one value for every target, or a dict of one value
    per ``arctan2`` target, from which this process's is taken.  A target with
    no recorded value fails the test and names the target."""
    if not isinstance(pin, dict):
        return pin
    target = arctan2_target()
    if target not in pin:
        pytest.fail(f"no pin recorded for numpy's float64 arctan2 target {target!r} "
                    f"(recorded: {', '.join(pin)})")
    return pin[target]
