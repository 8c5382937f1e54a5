"""Exceptions signalling that a numerical check failed (as opposed to bad input)."""


class NumericalCheckError(RuntimeError):
    """A numerical convergence or consistency check did not pass."""


class LinewidthFitError(NumericalCheckError):
    """Coherence decay was not exponential to within the fit tolerance."""


class WindowError(NumericalCheckError):
    """A lattice window did not capture the requested probability mass."""
