"""Truncated Fock-space numerics of pure states: coherent states, the
canonical phase distribution, and wrapped phase variances.

The phase statistics of a state with number-basis amplitudes a_n are those of
the canonical phase measurement, P(theta) = |sum_n a_n e^{-i n theta}|^2 / 2pi.
For a coherent state of mean photon number mu this distribution has wrapped
variance 1/(4 mu) in the large-mu limit, which is the elementary scale against
which all the tracking and synchronization limits in this package are set.
The density is one FFT of the amplitudes; the tests hold it to a direct,
FFT-free sum that also takes mixed states (tests/oracles.py).
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "FockVector",
    "PhaseDistribution",
    "default_truncation",
    "coherent_state",
    "canonical_phase_distribution",
    "phase_variance",
    "clone_phase_variance",
    "wrap_angle",
    "log_factorials",
]

# largest phase grid: the transform's complex output alone is then 256 MiB
PHASE_GRID_BUDGET = 2 ** 24
# ln n! for n below STIRLING_FROM, each from the exact integer n!; above it the
# Stirling series, whose first omitted term 1/(1260 (n+1)^5) is then below
# 1e-15, under 0.01 ulp of ln n! > 1100
STIRLING_FROM = 256
_LOG_FACTORIAL_TABLE = np.array([math.log(f) for f in itertools.accumulate(
    range(1, STIRLING_FROM), operator.mul, initial=1)])
_LOG_FACTORIAL_TABLE.flags.writeable = False


def log_factorials(top: int) -> np.ndarray:
    """ln n! for n = 0 .. top, as one float array.

    Below ``STIRLING_FROM`` each value is the logarithm of the exact integer
    n!; above it, the Stirling series of ln Gamma(x) at x = n + 1,
    (x - 1/2) ln x - x + ln(2 pi)/2 + 1/(12 x) - 1/(360 x^3), is evaluated on
    the whole range at once.  Every value is within a few ulp of ln n!.
    """
    out = np.empty(top + 1)
    head = min(top + 1, STIRLING_FROM)
    out[:head] = _LOG_FACTORIAL_TABLE[:head]
    if top >= STIRLING_FROM:
        x = np.arange(STIRLING_FROM + 1.0, top + 2.0)
        tail = out[STIRLING_FROM:]
        np.multiply(np.log(x), x - 0.5, out=tail)
        tail -= x
        tail += 0.5 * math.log(2.0 * math.pi)
        tail += np.divide(1.0 / 12.0 - 1.0 / 360.0 / (x * x), x, out=x)
    return out


def wrap_angle(x, out=None):
    """Wrap an angle (or array of angles) into (-pi, pi], in one new array, or
    in ``out`` (which may be ``x`` itself)."""
    if out is None:
        out = np.empty(np.shape(x), np.result_type(x, np.pi))
    w = np.negative(x, out=out)
    np.remainder(np.add(w, np.pi, out=w), 2 * np.pi, out=w)
    np.negative(np.subtract(w, np.pi, out=w), out=w)  # -((-x + pi) % 2 pi - pi)
    # just above an odd multiple of pi the modulo rounds up to 2 pi: fold -pi onto pi
    np.copyto(w, np.pi, where=w == -np.pi)
    return w[()]


@dataclass(frozen=True)
class FockVector:
    """Pure state in a number basis truncated at ``truncation``.

    ``amplitudes[n]`` is the probability amplitude on the n-photon state,
    n = 0 .. truncation.  The squared norm must not exceed 1 (a deficit is
    allowed: it is the truncated tail).
    """

    truncation: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.truncation < 1:
            raise ValueError("truncation must be >= 1")
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (self.truncation + 1,):
            raise ValueError(
                f"amplitudes must have length truncation+1 = {self.truncation + 1}"
            )
        if not (np.all(np.isfinite(amps.real)) and np.all(np.isfinite(amps.imag))):
            raise ValueError("amplitudes must be finite")
        norm2 = float(np.sum(np.abs(amps) ** 2))
        if norm2 > 1 + 1e-9 or norm2 <= 0:
            raise ValueError(f"squared norm {norm2} outside (0, 1]")
        object.__setattr__(self, "amplitudes", amps)

    @property
    def norm_deficit(self) -> float:
        return 1.0 - float(np.sum(np.abs(self.amplitudes) ** 2))


@dataclass(frozen=True)
class PhaseDistribution:
    """Phase density on a uniform grid over (-pi, pi], normalized to 1."""

    grid: np.ndarray
    density: np.ndarray
    dtheta: float = field(init=False)

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        p = np.asarray(self.density, dtype=float)
        if g.ndim != 1 or g.shape != p.shape or g.size < 2:
            raise ValueError("grid and density must be equal-length 1-d arrays")
        if np.min(p) < -1e-12:
            raise ValueError("density must be nonnegative")
        dth = 2 * np.pi / g.size
        total = float(np.sum(p) * dth)
        if abs(total - 1.0) > 1e-6:
            raise ValueError(f"density integrates to {total}, not 1 within 1e-6")
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "density", np.maximum(p, 0.0))
        object.__setattr__(self, "dtheta", dth)


def default_truncation(mu: float) -> int:
    """Truncation mu + 10 sqrt(mu) + 10, placing the Poisson tail below 1e-12."""
    if not 0 <= mu < math.inf:
        raise ValueError(f"mu must be finite and nonnegative, not {mu!r}")
    return int(np.ceil(mu + 10 * np.sqrt(mu) + 10))


def coherent_state(alpha: complex, truncation: int | None = None) -> FockVector:
    """Coherent state |alpha> with amplitudes e^{-|a|^2/2} alpha^n / sqrt(n!).

    Parameters
    ----------
    alpha : complex
        Field amplitude; mean photon number is mu = |alpha|^2.
    truncation : int, optional
        Highest retained number state.  Defaults to
        ``default_truncation(|alpha|^2)``; at that value the norm deficit is
        below 1e-10.
    """
    alpha = complex(alpha)
    if not (np.isfinite(alpha.real) and np.isfinite(alpha.imag)):
        raise ValueError("alpha must be finite")
    mu = abs(alpha) ** 2
    if truncation is None:
        truncation = default_truncation(mu)
    if truncation < 1:
        raise ValueError("truncation must be >= 1")
    n = np.arange(truncation + 1)
    if mu == 0.0:
        amps = np.zeros(truncation + 1, dtype=complex)
        amps[0] = 1.0
    else:
        # log-space magnitudes to stay finite at large n
        logmag = -mu / 2 + n * np.log(np.abs(alpha)) - 0.5 * log_factorials(truncation)
        amps = np.exp(logmag) * np.exp(1j * n * np.angle(alpha))
    return FockVector(truncation=truncation, amplitudes=amps)


def canonical_phase_distribution(state: FockVector, grid_size: int = 4096) -> PhaseDistribution:
    """Canonical phase density P(theta) = |sum_n a_n e^{-i n theta}|^2 / 2pi.

    Evaluated exactly on a uniform grid over (-pi, pi] (FFT; the density is a
    trigonometric polynomial, so with grid_size > 2*truncation the grid sum
    reproduces the integral exactly).  Number states give the uniform density;
    a vacuum or any |n> carries no phase.

    Raises
    ------
    ValueError
        If the input norm deficit exceeds 1e-6, or the grid is too small or
        larger than ``PHASE_GRID_BUDGET`` points.
    """
    if grid_size < 256:
        raise ValueError("grid_size must be >= 256")
    if grid_size > PHASE_GRID_BUDGET:
        raise ValueError(f"grid_size {grid_size} is more than the {PHASE_GRID_BUDGET} "
                         "points allowed")
    if grid_size <= state.truncation:
        raise ValueError("grid_size must exceed the truncation")
    if state.norm_deficit > 1e-6:
        raise ValueError(f"state norm deficit {state.norm_deficit:.2e} exceeds 1e-6")
    G = grid_size
    n = np.arange(state.truncation + 1)
    # e^{-i n theta_j} = (-1)^n e^{-2pi i n (j+1)/G}: an FFT of length G, exact
    # on the uniform grid as G >= truncation + 1
    density = np.abs(np.fft.fft(state.amplitudes * (-1.0) ** n * np.exp(-2j * np.pi * n / G), G))
    np.divide(np.square(density, out=density), 2 * np.pi, out=density)  # |f|^2 / 2 pi in place
    # the grid is built once the transform is freed, so it is not live beside it
    theta = -np.pi + 2 * np.pi * (np.arange(G) + 1) / G
    return PhaseDistribution(grid=theta, density=density)


def phase_variance(dist: PhaseDistribution, reference: float = 0.0) -> float:
    """Wrapped second moment of the phase about ``reference``, in rad^2.

    Integrates wrap(theta - reference)^2 P(theta) over the grid, with the
    difference wrapped into (-pi, pi].  This is the mean-square phase error
    convention used throughout the tracking and synchronization modules (not
    the Holevo variance).
    """
    # one grid-sized temporary: the difference is wrapped where it is
    d = np.subtract(dist.grid, reference)
    wrap_angle(d, out=d)
    return float(np.sum(np.multiply(np.square(d, out=d), dist.density, out=d)) * dist.dtheta)


def clone_phase_variance(mu: float, m_copies: int) -> float:
    """Phase variance (3 - 2/M) / (4 mu) of each of M optimal clones.

    Analytic calculator: optimal cloning of a coherent state (linear
    amplification followed by splitting) yields M copies with this variance,
    approaching 3/(4 mu) for large M.  One copy (M = 1) is the original.
    """
    if m_copies < 1:
        raise ValueError("number of copies must be >= 1")
    variance = (3.0 - 2.0 / m_copies) / (4.0 * mu) if 0 < mu < np.inf else np.nan
    if not 0 < variance < np.inf:
        raise ValueError(f"mu {mu!r} gives a clone phase variance that is not positive "
                         "and finite")
    return variance
