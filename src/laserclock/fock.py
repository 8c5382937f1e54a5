"""Truncated Fock-space numerics of pure states: coherent states and the
exact variance of their canonical phase.

The phase statistics of a state with number-basis amplitudes a_n are those of
the canonical phase measurement, P(theta) = |sum_n a_n e^{-i n theta}|^2 / 2pi.
For a coherent state of mean photon number mu this distribution has wrapped
variance 1/(4 mu) in the large-mu limit, which is the elementary scale against
which all the tracking and synchronization limits in this package are set.
The variance is evaluated exactly from the state's own support, by two FFTs
and a closed-form aliasing correction; the tests hold it to the finite series
in exact arithmetic and to a density sampled on a fine grid (tests/oracles.py).
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FockVector",
    "default_truncation",
    "coherent_state",
    "phase_support",
    "phase_variance",
    "clone_phase_variance",
    "log_factorials",
]

# largest truncation: the complex amplitudes alone are then 256 MiB
STATE_BUDGET = 2 ** 24
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
    if top >= STIRLING_FROM:  # in place, beside x and one temporary
        x = np.arange(STIRLING_FROM + 1.0, top + 2.0)
        tail = np.log(x, out=out[STIRLING_FROM:])
        y = x - 0.5
        tail *= y
        tail -= x
        tail += 0.5 * math.log(2.0 * math.pi)
        y = np.divide(1.0 / 360.0, np.multiply(x, x, out=y), out=y)
        tail += np.divide(np.subtract(1.0 / 12.0, y, out=y), x, out=x)
    return out


@dataclass(frozen=True)
class FockVector:
    """Pure state in a number basis truncated at ``truncation``.

    ``amplitudes[n]`` is the probability amplitude on the n-photon state,
    n = 0 .. truncation, kept as a float array when it is real and as a
    complex one otherwise.  The squared norm must not exceed 1 (a deficit is
    allowed: it is the truncated tail).
    """

    truncation: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.truncation < 1:
            raise ValueError("truncation must be >= 1")
        amps = np.asarray(self.amplitudes,
                          dtype=complex if np.iscomplexobj(self.amplitudes) else float)
        if amps.shape != (self.truncation + 1,):
            raise ValueError(
                f"amplitudes must have length truncation+1 = {self.truncation + 1}"
            )
        norm2 = float(np.vdot(amps, amps).real)  # not finite for a non-finite amplitude
        if not math.isfinite(norm2) and not np.isfinite(amps).all():
            raise ValueError("amplitudes must be finite")
        if not 0 < norm2 <= 1 + 1e-9:
            raise ValueError(f"squared norm {norm2} outside (0, 1]")
        object.__setattr__(self, "amplitudes", amps)

    @property
    def norm_deficit(self) -> float:
        return 1.0 - float(np.vdot(self.amplitudes, self.amplitudes).real)


def default_truncation(mu: float) -> int:
    """Truncation mu + 10 sqrt(mu) + 10, placing the Poisson tail below 1e-12.

    Raises ValueError for a mu that is not finite and nonnegative, or whose
    truncation is above ``STATE_BUDGET``.
    """
    if not 0 <= mu < math.inf:
        raise ValueError(f"mu must be finite and nonnegative, not {mu!r}")
    truncation = int(np.ceil(mu + 10 * np.sqrt(mu) + 10))
    if truncation > STATE_BUDGET:
        raise ValueError(f"mu {mu!r} needs a truncation of {truncation}, more than the "
                         f"state budget of {STATE_BUDGET}")
    return truncation


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
    try:
        mu = abs(alpha) ** 2
    except OverflowError:  # |alpha| above about 1.3e154
        mu = math.inf
    default = default_truncation(mu)  # refuses an infinite mu, with or without a truncation
    truncation = default if truncation is None else truncation
    if truncation < 1:
        raise ValueError("truncation must be >= 1")
    if mu == 0.0:
        amps = np.zeros(truncation + 1, dtype=complex)
        amps[0] = 1.0
    else:
        # log-space magnitudes to stay finite at large n: -mu/2 + n log|alpha|
        # - ln(n!)/2, rounded step by step in that order, in the array of
        # ln(n!)/2, which is built first so that it outlives no temporary
        mag = log_factorials(truncation)
        mag *= 0.5
        np.subtract(np.arange(truncation + 1.0) * np.log(np.abs(alpha)) - mu / 2, mag, out=mag)
        amps = np.exp(mag, out=mag).astype(complex)
        if alpha.imag or alpha.real < 0:  # a real alpha >= 0 has phase factors 1 + 0j
            amps *= np.exp(1j * np.arange(truncation + 1) * np.angle(alpha))
    return FockVector(truncation=truncation, amplitudes=amps)


# amplitudes below this share of the largest are dropped from the support
PHASE_TRIM = 2.0 ** -200
# (-1)^j / (2j + 3)!: x - sin x = x^3 sum_j (-x^2)^j / (2j + 3)!, whose first
# omitted term is below 1e-17 of the sum for 0 < x < pi/2
_X_MINUS_SIN = [(-1) ** j / math.factorial(2 * j + 3) for j in range(11)]


def _inverse_square_alias(x: np.ndarray) -> np.ndarray:
    """1/sin^2 x - 1/x^2 for 0 < x < pi/2, as (x - sin x)(x + sin x)/(x sin x)^2
    with x - sin x from its series, so no step cancels."""
    x2 = x * x
    series = np.full_like(x, _X_MINUS_SIN[-1])
    for c in _X_MINUS_SIN[-2::-1]:
        series *= x2
        series += c
    s = np.sin(x)
    return x * series * (x + s) / (s * s)


def phase_support(state: FockVector) -> tuple[np.ndarray, int]:
    """The amplitudes ``phase_variance`` keeps, and the FFT length it takes.

    The kept amplitudes run from the first to the last of those at or above
    ``PHASE_TRIM`` of the largest in modulus; W of them are sampled at the
    smallest power of two G above 2W.
    """
    mag = np.abs(state.amplitudes)
    kept = np.flatnonzero(mag >= PHASE_TRIM * mag.max())
    support = state.amplitudes[kept[0]:kept[-1] + 1]
    return support, 2 ** (2 * len(support)).bit_length()


def phase_variance(state: FockVector) -> float:
    """Exact canonical phase variance V = int theta^2 P(theta) dtheta over
    (-pi, pi], in rad^2, about phase 0 (the wrapped second moment that the
    tracking and synchronization modules use, not the Holevo variance).

    With R_k = sum_n a_{n+k} conj(a_n), P(theta) = sum_k R_k e^{-ik theta}/2pi,
    and theta^2 has Fourier coefficients g_0 = pi^2/3 and g_k = 2(-1)^k/k^2,
    so V = sum_k g_k R_k, a finite sum over |k| < W.  It is evaluated as:

    - S, the rectangle rule on the G-point grid theta_j = 2pi m_j/G, m_j the
      index j wrapped into (-G/2, G/2]: A = fft(a, G) samples the amplitude
      sum, so S = (2pi/G)^2 sum_j m_j^2 |A_j|^2 / G.
    - E, the aliasing in S.  By Poisson summation S = sum_k R_k sum_m g_{k+mG},
      and sum_{m != 0} (mG - k)^-2 = (pi/G)^2/sin^2(pi k/G) - 1/k^2, so
      S - V = E = 2 [R_0 e_0 + 2 sum_{k=1}^{W-1} (-1)^k Re R_k e_k], with
      e_k = (pi/G)^2 (1/sin^2 x_k - 1/x_k^2), x_k = pi k/G, e_0 = pi^2/(3G^2).
      R_k is the inverse transform of |A|^2, exact as G > 2W.

    The trim changes V by far less than 1 ulp.  Write a = a' + d, d the
    dropped amplitudes: ||d|| <= 2^-200 sqrt(T + 1) for a truncation T.  V is
    the Toeplitz form a^H K a of the symbol theta^2, so ||K|| <= pi^2 and
    |V(a) - V(a')| <= pi^2 (2||d|| + ||d||^2).  As theta^2 >= 2 - 2 cos theta,
    V is at least the least eigenvalue of tridiag(-1, 2, -1) times ||a||^2,
    4 sin^2(pi/(2W + 2)) ||a||^2 >= 4 ||a||^2/(T + 2)^2.  For T up to 2^40
    the change is then below 2^-90 of V, and an ulp is at least 2^-53 of V.
    The trim also keeps pocketfft off subnormal tail amplitudes, on which it
    is several times slower.

    Raises
    ------
    ValueError
        If the state's norm deficit exceeds 1e-6.
    """
    a, G = phase_support(state)
    W = len(a)
    A = np.fft.fft(a, G)
    p = np.square(A.real)
    p += np.square(A.imag)
    del A  # only |A|^2 is read from here on
    m = np.arange(G, dtype=float)
    m = np.minimum(m, G - m)  # |m_j|
    S = float(np.dot(np.square(m, out=m), p)) * (2 * math.pi / G) ** 2 / G
    R = np.fft.rfft(p)[:W].real / G  # Re R_k: for real p, rfft is G conj(ifft)
    if 1.0 - R[0] > 1e-6:
        raise ValueError(f"state norm deficit {1.0 - R[0]:.2e} exceeds 1e-6")
    e = _inverse_square_alias(np.arange(1, W) * (math.pi / G))  # k = 1 .. W-1
    e[::2] *= -1.0  # (-1)^k: the odd k sit at the even indices
    E = 2 * (math.pi / G) ** 2 * (R[0] / 3 + 2 * float(np.dot(e, R[1:])))
    return S - E


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
