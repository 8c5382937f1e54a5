"""Truncated Fock-space numerics of pure states: coherent states and the
exact variance of their canonical phase.

The phase statistics of a state with number-basis amplitudes a_n are those of
the canonical phase measurement, P(theta) = |sum_n a_n e^{-i n theta}|^2 / 2pi.
For a coherent state of mean photon number mu this distribution has wrapped
variance 1/(4 mu) in the large-mu limit, which is the elementary scale against
which all the tracking and synchronization limits in this package are set.
A coherent state is built only on the window of number states around its mode
that holds every amplitude at or above ``PHASE_TRIM`` of the largest, about
34 sqrt(mu) of them at the default truncation, so it costs O(sqrt(mu)) time
and memory however large mu is.  Its moduli, and the laser's stationary
Poisson weights, come from one builder, :func:`poisson_amplitudes`, which
forms them by ratio products outward from the mode: within 4 sd of it each
is within 3.5e-15 of its 40-digit value up to mu = 1e6, and 1.4e-14 at
1.2e7.  The variance is evaluated exactly from the state's own support, by
two FFTs and a closed-form aliasing correction; the tests hold it to the
finite series in exact arithmetic, to a density sampled on a fine grid, and,
bitwise, to the same route on the full amplitude vector (tests/oracles.py).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalCheckError

__all__ = [
    "FockVector",
    "default_truncation",
    "coherent_state",
    "phase_support",
    "phase_variance",
    "clone_phase_variance",
    "poisson_amplitudes",
]

# largest truncation, reached from mu = 1.67e7; a full vector of complex
# amplitudes would then be 256 MiB, while coherent_state keeps 137604 of them
# (2.1 MiB)
STATE_BUDGET = 2 ** 24
# amplitudes below this share of the largest are dropped from the support
PHASE_TRIM = 2.0 ** -200


def poisson_amplitudes(mu: float, lo: int, hi: int) -> np.ndarray:
    """sqrt(p_n) for n = lo .. hi, p_n = e^{-mu} mu^n / n! the Poisson(mu)
    weights, mu > 0, as one float array.

    The amplitudes are ratio products outward from the mode m = floor(mu),
    clipped to lo .. hi: a_{n+1} = a_n sqrt(mu/(n+1)) above it and
    a_{n-1} = a_n sqrt(n/mu) below it, each side one ``np.cumprod``, times
    one scalar, a_m = exp(ln p_m / 2).  For m >= 16, ln p_m =
    -ln(2 pi m)/2 - s(m) - (m log1p((m - mu)/mu) + (mu - m)), from Stirling's
    series s(m); there the two terms in the parentheses cancel to about
    (mu - m)^2/(2 mu), and mu - m is exact, so ln p_m errs by a few ulp of
    ln(2 pi m)/2 (written as ... + mu - m the sum would round at ulp(mu)).
    Below 16 it is m ln mu - mu - lgamma(m + 1), whose terms are below 60.
    So a_m is within about 1e-15 of sqrt(p_m), and an amplitude d steps from
    the mode within 2.5 u d more, u = eps/2, for the rounded ratio, its
    square root and the product; as the roundings take either sign, about
    sqrt(d) u is what shows.  The products from the mode are prefix
    products, so each amplitude is bitwise the same for every lo and hi
    whose clipped mode is the same.
    """
    mode = min(max(math.floor(mu), lo), hi)
    if mode < 16:
        log_pm = mode * math.log(mu) - mu - math.lgamma(mode + 1)
    else:
        # s(m) = 1/(12m) - 1/(360m^3) + 1/(1260m^5) - 1/(1680m^7) + 1/(1188m^9),
        # whose first omitted term, 691/(360360 m^11), is below 1.1e-16
        inv, inv2 = 1.0 / mode, 1.0 / mode ** 2
        stirling = inv * (1 / 12 - inv2 * (1 / 360 - inv2 * (1 / 1260 - inv2 * (
            1 / 1680 - inv2 / 1188))))
        log_pm = -0.5 * math.log(2 * math.pi * mode) - stirling \
            - (mode * math.log1p((mode - mu) / mu) + (mu - mode))
    amps = np.empty(hi + 1 - lo)
    amps[mode - lo] = 1.0
    for side, ratios in ((amps[mode + 1 - lo:], mu / np.arange(mode + 1.0, hi + 1.0)),
                         (amps[:mode - lo][::-1], np.arange(mode, lo, -1.0) / mu)):
        np.cumprod(np.sqrt(ratios, out=ratios), out=side)
    amps *= math.exp(log_pm / 2)
    return amps


@dataclass(frozen=True)
class FockVector:
    """Pure state in a number basis truncated at ``truncation``.

    ``amplitudes[j]`` is the probability amplitude on the (offset + j)-photon
    state, kept as a float array when it is real and as a complex one
    otherwise; the state has none on the number states outside
    offset .. offset + len(amplitudes) - 1, which must lie within
    0 .. truncation.  The squared norm must not exceed 1 (a deficit is
    allowed: it is the truncated tail).
    """

    truncation: int
    amplitudes: np.ndarray
    offset: int = 0

    def __post_init__(self):
        if self.truncation < 1:
            raise ValueError("truncation must be >= 1")
        amps = np.asarray(self.amplitudes,
                          dtype=complex if np.iscomplexobj(self.amplitudes) else float)
        if amps.ndim != 1 or not 0 <= self.offset < self.offset + len(amps) \
                <= self.truncation + 1:
            raise ValueError(f"amplitudes of shape {amps.shape} from number state "
                             f"{self.offset} do not fit in 0 .. {self.truncation}")
        norm2 = float(np.sum(np.square(np.abs(amps))))  # not finite for a non-finite amplitude
        if not math.isfinite(norm2) and not np.isfinite(amps).all():
            raise ValueError("amplitudes must be finite")
        if not 0 < norm2 <= 1 + 1e-9:
            raise ValueError(f"squared norm {norm2} outside (0, 1]")
        object.__setattr__(self, "amplitudes", amps)

    @property
    def norm_deficit(self) -> float:
        return 1.0 - float(np.sum(np.square(np.abs(self.amplitudes))))


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
    """Coherent state |alpha> with amplitudes e^{-|a|^2/2} alpha^n / sqrt(n!),
    on the window of number states that :func:`_coherent_window` derives.

    Every amplitude outside the window is below ``PHASE_TRIM`` of the
    largest, so the window holds the support that :func:`phase_support`
    keeps, and each amplitude in it is bitwise the one the full vector
    n = 0 .. truncation would hold: its modulus is
    :func:`poisson_amplitudes` (mu, lo, hi), a prefix product from the same
    mode, and its phase factor e^{i n arg(alpha)} is formed per n.
    The window's ends are checked to lie below that share of the largest
    (unless the window stops at 0 or at the truncation) before it is used.

    Parameters
    ----------
    alpha : complex
        Field amplitude; mean photon number is mu = |alpha|^2.
    truncation : int, optional
        Highest retained number state.  Defaults to
        ``default_truncation(|alpha|^2)``; at that value the norm deficit is
        below 1e-10.

    Raises
    ------
    NumericalCheckError
        If an end of the window is not below ``PHASE_TRIM`` of the largest
        amplitude.
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
    if mu == 0.0:  # the vacuum: every other amplitude is 0
        return FockVector(truncation, np.ones(1, dtype=complex))
    lo, hi = _coherent_window(mu, truncation)
    mag = poisson_amplitudes(mu, lo, hi)
    trim = PHASE_TRIM * mag.max()
    if lo > 0 and mag[0] >= trim or hi < truncation and mag[-1] >= trim:
        raise NumericalCheckError(f"coherent window {lo} .. {hi} at mu {mu!r} cuts an "
                                  "amplitude at or above PHASE_TRIM of the largest")
    amps = mag.astype(complex)
    if alpha.imag or alpha.real < 0:  # a real alpha >= 0 has phase factors 1 + 0j
        amps *= np.exp(1j * np.arange(lo, hi + 1) * np.angle(alpha))
    return FockVector(truncation, amps, lo)


def _coherent_window(mu: float, truncation: int) -> tuple[int, int]:
    """First and last number state (lo, hi) of the window on which
    :func:`coherent_state` builds a coherent state of mean photon number
    mu > 0: every amplitude outside it is at least e times below
    ``PHASE_TRIM`` of the largest.

    The log-modulus f(n) = n log|alpha| - mu/2 - ln(n!)/2 steps by
    f(n+1) - f(n) = (ln mu - ln(n + 1))/2, which falls with n: f is concave
    and peaks at the mode m = floor(mu), or at the truncation if that is
    lower.  With D = ln(1/PHASE_TRIM) + 1:

    - above the mode, m + 1 > mu, so each step j = 0 .. d-1 is below
      -ln(1 + j/mu)/2 <= -j/(2(mu + d)), and f(m + d) <= f(m) -
      d(d - 1)/(4(mu + d)), which is at most f(m) - D once
      d >= ((1 + 4D) + sqrt((1 + 4D)^2 + 16 D mu))/2;
    - below it, m <= mu, so each step down j = 1 .. d is at least
      -ln(1 - (j - 1)/mu)/2 >= (j - 1)/(2 mu), and f(m - d) <= f(m) -
      d(d - 1)/(4 mu), at most f(m) - D once d >= (1 + sqrt(1 + 16 D mu))/2.

    Beyond either end f falls further, by concavity.  The window is clipped
    to 0 .. truncation, and is about 47 sqrt(mu) wide, or 34 sqrt(mu) at the
    default truncation, whose top it reaches.  The extra 1 in D covers the
    rounding of the computed moduli: the mode's about 1e-15 and 2.5 ulp per
    ratio product, under 1e-10 relative over the 2e5 steps of the widest
    window within ``STATE_BUDGET``.
    """
    drop = 1.0 - math.log(PHASE_TRIM)
    mode = min(math.floor(mu), truncation)
    above = (1 + 4 * drop + math.sqrt((1 + 4 * drop) ** 2 + 16 * drop * mu)) / 2
    below = (1 + math.sqrt(1 + 16 * drop * mu)) / 2
    return max(0, mode - math.ceil(below)), min(truncation, mode + math.ceil(above))


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
    """The amplitudes :func:`phase_variance` takes, and the FFT length at
    which it samples them.

    The kept amplitudes run from the first to the last of those at or above
    ``PHASE_TRIM`` of the largest in modulus; W of them are sampled at the
    smallest power of two G above 2W.  The canonical phase density does not
    see where the kept run starts: shifting every number by s multiplies the
    amplitude sum by e^{-i s theta}.

    The trim changes V by far less than 1 ulp.  Write a = a' + d, d the
    dropped amplitudes: ||d|| <= 2^-200 sqrt(T + 1) for a truncation T.  V is
    the Toeplitz form a^H K a of the symbol theta^2, so ||K|| <= pi^2 and
    |V(a) - V(a')| <= pi^2 (2||d|| + ||d||^2).  As theta^2 >= 2 - 2 cos theta,
    V is at least the least eigenvalue of tridiag(-1, 2, -1) times ||a||^2,
    4 sin^2(pi/(2W + 2)) ||a||^2 >= 4 ||a||^2/(T + 2)^2.  For T up to 2^40
    the change is then below 2^-90 of V, and an ulp is at least 2^-53 of V.
    The trim also keeps pocketfft off subnormal tail amplitudes, on which it
    is several times slower.
    """
    mag = np.abs(state.amplitudes)
    kept = np.flatnonzero(mag >= PHASE_TRIM * mag.max())
    support = state.amplitudes[kept[0]:kept[-1] + 1]
    return support, 2 ** (2 * len(support)).bit_length()


def phase_variance(support: np.ndarray, G: int) -> float:
    """Exact canonical phase variance V = int theta^2 P(theta) dtheta over
    (-pi, pi], in rad^2, about phase 0 (the wrapped second moment that the
    tracking and synchronization modules use, not the Holevo variance), of
    the state whose support and FFT length :func:`phase_support` gives:
    ``phase_variance(*phase_support(state))``.

    With R_k = sum_n a_{n+k} conj(a_n), P(theta) = sum_k R_k e^{-ik theta}/2pi,
    and theta^2 has Fourier coefficients g_0 = pi^2/3 and g_k = 2(-1)^k/k^2,
    so V = sum_k g_k R_k, a finite sum over |k| < W, W = len(support).  It is
    evaluated as:

    - S, the rectangle rule on the G-point grid theta_j = 2pi m_j/G, m_j the
      index j wrapped into (-G/2, G/2]: A = fft(a, G) samples the amplitude
      sum, so S = (2pi/G)^2 sum_j m_j^2 |A_j|^2 / G.
    - E, the aliasing in S.  By Poisson summation S = sum_k R_k sum_m g_{k+mG},
      and sum_{m != 0} (mG - k)^-2 = (pi/G)^2/sin^2(pi k/G) - 1/k^2, so
      S - V = E = 2 [R_0 e_0 + 2 sum_{k=1}^{W-1} (-1)^k Re R_k e_k], with
      e_k = (pi/G)^2 (1/sin^2 x_k - 1/x_k^2), x_k = pi k/G, e_0 = pi^2/(3G^2).
      R_k is the inverse transform of |A|^2, exact as G > 2W.

    Both sums are numpy's pairwise reductions of products formed in the
    scratch arrays, not BLAS dots, so V's last bits do not depend on the BLAS
    library's CPU kernel or thread count.

    Raises
    ------
    ValueError
        If the state's norm deficit exceeds 1e-6.
    """
    W = len(support)
    A = np.fft.fft(support, G)
    p = np.square(A.real)
    p += np.square(A.imag)
    del A  # only |A|^2 is read from here on
    m = np.arange(G, dtype=float)
    m = np.minimum(m, G - m)  # |m_j|
    S = float(np.multiply(np.square(m, out=m), p, out=m).sum()) * (2 * math.pi / G) ** 2 / G
    R = np.fft.rfft(p)[:W].real / G  # Re R_k: for real p, rfft is G conj(ifft)
    del p, m  # the W-point arrays below read neither
    if 1.0 - R[0] > 1e-6:
        raise ValueError(f"state norm deficit {1.0 - R[0]:.2e} exceeds 1e-6")
    e = _inverse_square_alias(np.arange(1, W) * (math.pi / G))  # k = 1 .. W-1
    e[::2] *= -1.0  # (-1)^k: the odd k sit at the even indices
    E = 2 * (math.pi / G) ** 2 * (R[0] / 3 + 2 * float(np.multiply(e, R[1:], out=e).sum()))
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
