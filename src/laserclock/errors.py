"""Exceptions signalling that a numerical check failed (as opposed to bad input)."""


class NumericalCheckError(RuntimeError):
    """A numerical convergence or consistency check did not pass."""


class LinewidthFitError(NumericalCheckError):
    """Coherence decay was not exponential to within the fit tolerance."""


class WindowError(NumericalCheckError):
    """The listed lattice boxes did not capture the probability mass they must hold."""
