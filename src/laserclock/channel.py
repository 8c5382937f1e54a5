"""A fully decohering "classical channel" that still transmits a phase reference.

The channel is defined by an orthonormal lattice of phase-space-localized
states |q_n, p_m>: boxcar position profiles of width Delta centered at
q_n = Delta*n, carrying plane-wave momentum p_m = 2*pi*m/Delta.  In the
position representation (q = (a + a^dag)/sqrt(2) convention)

    <q | q_n, p_m> = Delta^{-1/2} * chi_[q_n - Delta/2, q_n + Delta/2](q)
                     * exp(+i q p_m),

so each lattice state has mean amplitude <a> = (q_n + i p_m)/sqrt(2).  The
channel measures (dephases in) this basis: a coherent state |alpha> comes out
as the mixture of lattice states with probabilities |<q_n, p_m | alpha>|^2.
For |alpha| >> 1 that distribution concentrates near (q_n + i p_m)/sqrt(2)
~ alpha, so the emerging state, though fully decohered, still carries the
large coherent amplitude -- i.e. the phase reference survives a channel that
can transmit no quantum information.

Overlaps fall off only as 1/p_m^2 in probability (the boxcar edges).
``decohere`` evaluates one window, sized by a derived bound to hold every
cell with P >= min_prob, with the overlaps in closed form (stably, via the
Faddeeva function w).  w is Weideman's rational series with N = 40 terms
(J.A.C. Weideman, SIAM J. Numer. Anal. 31 (1994) 1497); where ``decohere``
evaluates it, it measures within 1.1e-15 relative of 30-digit values, and
within 2.6e-14 of ``scipy.special.wofz``, most of which is scipy's own
error.  erf and erfc come from ``math``.  The rest of the lattice enters in
closed form too: by Parseval each box's full momentum sum is its erf mass, and
``output_mean_amplitude`` sums those masses and a boundary term at the box
edges.  The tests check the overlaps, and the lattice's orthonormality,
against adaptive quadrature, and the amplitude against windowed sums.  The
same sharp edges make every p-moment of a single lattice state diverge; the
output's mean amplitude stays finite because the momenta enter weighted by
the 1/p_m^2 probabilities, a conditionally convergent sum whose value over
windows symmetric about the peak is the closed form.

The window is evaluated in column blocks of ``GRID_BLOCK_CELLS`` cells, each
written straight into the float array of probabilities.  A window over
``GRID_BUDGET_CELLS`` cells (256 MiB of probabilities), a min_prob outside
(0, 1], or lattice indices past 2^52 (float64 no longer holds every integer
there) are refused with ValueError before any box is listed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import WindowError

__all__ = [
    "LatticeSpec",
    "LatticeDistribution",
    "decohere",
    "output_mean_amplitude",
    "coherent_fidelity",
]

# cells of one column block of a window's overlap grid (1 MiB complex)
GRID_BLOCK_CELLS = 2 ** 16
# cells of the largest window evaluated (256 MiB of float64 probabilities)
GRID_BUDGET_CELLS = 2 ** 25
# Weideman's N = 40 series for w(z): its scale L = sqrt(N / sqrt 2) and the
# coefficients a_39 .. a_0 of p(Z) = sum a_k Z^k, highest degree first, from
# the FFT of exp(-t^2) (L^2 + t^2) at t = L tan(k pi / 160), |k| < 80
WEIDEMAN_L = math.sqrt(40 / math.sqrt(2))
WEIDEMAN_40 = (-1.7356980998791865e-15, 1.201674910759281e-15, 1.1519170220749485e-14,
               -5.231716366324404e-15, -7.071088022159408e-14, 1.3778224047664046e-14,
               4.5341448909434655e-13, 1.203330952919568e-13, -2.90771851041427e-12,
               -2.7277735625830245e-12, 1.771418567386718e-11, 3.4727420938907015e-11,
               -9.055138860958323e-11, -3.5632350403602684e-10, 2.1085990731251058e-10,
               3.017780425551564e-09, 3.249746582945079e-09, -1.8315616834296834e-08,
               -6.351773483015411e-08, 1.419864237295343e-08, 5.912136953029057e-07,
               1.4835661133172014e-06, -1.066013898416273e-06, -1.8007447144723407e-05,
               -5.5913092642348794e-05, -3.939363145483805e-05, 0.000439807015986967,
               0.002705405633073729, 0.010048186242783535, 0.02920291647124188,
               0.07182361779074328, 0.15504263802479504, 0.2998943799615006,
               0.5266528988277086, 0.8472174576593815, 1.2563815675765133,
               1.7253830848179779, 2.201513794878312, 2.6160541527618597, 2.899624509389705)


@dataclass(frozen=True)
class LatticeSpec:
    """Lattice spacing Delta, which fixes the whole lattice: q_n = Delta n,
    p_m = 2 pi m / Delta.  The lattice is infinite; :func:`decohere` picks
    the finite (n, m) window each input needs."""

    delta: float = 1.0

    def __post_init__(self):
        if not 0 < self.delta < math.inf:
            raise ValueError("delta must be positive and finite")

    def q(self, n):
        return self.delta * np.asarray(n)

    def p(self, m):
        return 2 * np.pi * np.asarray(m) / self.delta


@dataclass(frozen=True)
class LatticeDistribution:
    """The channel output for the input |alpha>: probabilities
    |<q_n, p_m|alpha>|^2 over the window :func:`decohere` evaluated, and the
    lattice mass of its boxes.

    ``probabilities[i, j]`` belongs to (ns[i], ms[j]).
    """

    alpha: complex
    delta: float
    ns: np.ndarray
    ms: np.ndarray
    probabilities: np.ndarray
    captured_mass: float

    def __post_init__(self):
        P = np.asarray(self.probabilities, dtype=float)
        if P.shape != (len(self.ns), len(self.ms)):
            raise ValueError("probabilities shape must be (len(ns), len(ms))")
        if P.min() < 0:
            raise ValueError("probabilities must be nonnegative")
        if self.captured_mass > 1 + 1e-9:
            raise ValueError("captured mass exceeds 1")
        object.__setattr__(self, "probabilities", P)


def _coherent_qp(alpha: complex):
    return math.sqrt(2) * alpha.real, math.sqrt(2) * alpha.imag


def _wofz(z):
    """The Faddeeva function w(z) = e^{-z^2} erfc(-iz) for Im z >= 0.

    Weideman's series: w(z) = 2 p(Z)/(L - iz)^2 + pi^{-1/2}/(L - iz) with
    Z = (L + iz)/(L - iz), p the degree-39 polynomial ``WEIDEMAN_40``,
    evaluated by Horner's rule in place.  Besides z, it holds three arrays
    of z's size.
    """
    iz = 1j * z
    lz = WEIDEMAN_L - iz
    Z = iz
    Z += WEIDEMAN_L
    Z /= lz
    p = np.full_like(Z, WEIDEMAN_40[0])
    for c in WEIDEMAN_40[1:]:
        p *= Z
        p += c
    p *= 2
    p /= lz
    p += 1 / math.sqrt(math.pi)
    p /= lz
    return p


def _erf(x):
    """erf of each entry of the 1-D array x, by ``math.erf``."""
    return np.fromiter(map(math.erf, x), float, len(x))


def _erfcinv(eps):
    """The r > 0 with erfc(r) = eps, for 0 < eps <= 1e-8.

    Newton's method on log erfc(r) = log eps, from the asymptotic root of
    r^2 + log(r sqrt(pi)) = -log eps, until a step no longer moves r.  Each
    step divides by the slope as erfc(r) / e^{-r^2}, which stays finite down
    to the subnormal eps = 5e-324 (r = 27.2).
    """
    t = -math.log(eps)
    r = math.sqrt(t - 0.5 * math.log(math.pi * t))
    for _ in range(20):
        e = math.erfc(r)
        step = math.log(e / eps) * (math.sqrt(math.pi) / 2) * e / math.exp(-r * r)
        if r + step == r:
            break
        r += step
    return r


def _scaled_erf(u, s):
    """e^{-s^2} erf(u_i - i s_j) without overflow, on the grid of sorted 1-D u
    and 1-D s.

    Returns the (len(u), len(s)) array.  Uses erfc(z) = e^{-z^2} w(iz)
    (upper half plane), and where u = 0, -i Im w(s), which is -2i/sqrt(pi)
    times the Dawson function.  As u is sorted, u < 0, u == 0 and u > 0 are
    row slices, and e^{-s^2} and the u == 0 row are computed once per column.
    """
    u = np.asarray(u, dtype=float)
    s = np.asarray(s, dtype=float)
    lo, hi = np.searchsorted(u, 0.0, "left"), np.searchsorted(u, 0.0, "right")
    es = np.exp(-s ** 2)
    out = np.empty((len(u), len(s)), dtype=complex)
    un, up = u[:lo, None], u[hi:, None]
    # w first, then the phase factor multiplied into it in place, in this
    # operand order (a swapped complex product may round differently under
    # FMA): while a slice is filled, w's argument and the three arrays _wofz
    # holds are its only slice-sized temporaries
    w = _wofz(-s - 1j * un)
    np.add(-es, np.multiply(np.exp(-un ** 2 + 2j * un * s), w, out=w), out=out[:lo])
    del w
    out[lo:hi] = -1j * _wofz(s).imag
    w = _wofz(s + 1j * up)
    np.subtract(es, np.multiply(np.exp(-up ** 2 + 2j * up * s), w, out=w), out=out[hi:])
    return out


def _overlap_closed(alpha: complex, delta: float, ns, ms):
    """<q_n, p_m | alpha> in closed form on the grid of 1-D integer arrays ns, ms.

    Returns the (len(ns), len(ms)) array.  Box n spans [ua_n, ub_n] in the
    scaled variable u = (q - q_bar)/sqrt(2), and its overlap is the
    difference of ``_scaled_erf`` at the two edges.  The right edge of box n
    is the left edge of box n+1 whenever the two floats agree (always at
    Delta = 1), so ``_scaled_erf`` is evaluated once per distinct edge value;
    every cell gets bitwise the inputs a per-box evaluation would give it.
    """
    qb, pb = _coherent_qp(alpha)
    dlt = pb - 2 * np.pi * np.asarray(ms, dtype=float) / delta
    nn = np.asarray(ns, dtype=float)
    ua = (delta * nn - delta / 2 - qb) / math.sqrt(2)
    ub = (delta * nn + delta / 2 - qb) / math.sqrt(2)
    edges, at = np.unique(np.concatenate([ua, ub]), return_inverse=True)
    F = _scaled_erf(edges, dlt / math.sqrt(2))
    E = F[at[len(nn):]]
    E -= F[at[:len(nn)]]
    pref = (np.pi ** 0.25 / math.sqrt(2 * delta)) * np.exp(1j * dlt * qb - 1j * qb * pb / 2)
    return np.multiply(pref, E, out=E)


def _window_masses(alpha, delta, ns):
    """Exact per-box full-momentum mass int_box |psi_alpha|^2 dq (Parseval)."""
    qb, _ = _coherent_qp(alpha)
    a = delta * ns - delta / 2
    b = delta * ns + delta / 2
    return 0.5 * (_erf(b - qb) - _erf(a - qb))


def _probabilities(alpha, delta, ns, ms):
    """|<q_n, p_m | alpha>|^2 on the (len(ns), len(ms)) grid, written column
    block by column block into one float array.

    A block holds ``max(1, GRID_BLOCK_CELLS // len(ns))`` columns, so the
    complex temporaries of ``_overlap_closed`` never exceed one block.  Every
    cell gets bitwise the inputs and elementwise operations of a single call
    on the whole grid.
    """
    P = np.empty((len(ns), len(ms)))
    step = max(1, GRID_BLOCK_CELLS // len(ns))
    for j in range(0, len(ms), step):
        P[:, j:j + step] = np.abs(_overlap_closed(alpha, delta, ns, ms[j:j + step])) ** 2
    return P


def decohere(alpha: complex, spec: LatticeSpec, min_prob: float = 1e-6) -> LatticeDistribution:
    """Send |alpha> through the channel: P(n, m) = |<q_n, p_m | alpha>|^2.

    One window is evaluated, and it holds every cell with P >= ``min_prob``.
    With phi(q) = pi^{-1/4} e^{-(q - q_bar)^2/2} = |psi_alpha(q)|:

    * boxes cover q_bar +- r, erfc(r) = eps = min(1e-8, min_prob), and one
      more box on each side.  A box left out lies wholly beyond r, so there
      P(n, m) <= w_n <= eps/2, w_n the box's mass (``_window_masses``).
    * columns span m_c +- M, m_c nearest p_bar.  Integrating the overlap by
      parts over a box gives P <= 4 max_box(phi)^2 / (Delta (p_m - p_bar)^2),
      so P >= min_prob needs |m - m_c| <= 1/2 + pi^{-5/4} sqrt(Delta/min_prob);
      M = max(512, ceil(1/2 + pi^{-5/4} sqrt(Delta / min_prob))).  The floor
      keeps ``coherent_fidelity`` (sum P^2) near the lattice's own value.

    ``captured_mass`` is sum_n w_n >= 1 - eps, each w_n being by Parseval its
    box's full momentum sum.  The window is evaluated by ``_probabilities``.

    Raises
    ------
    ValueError
        If ``min_prob`` is not in (0, 1], the window would hold more than
        ``GRID_BUDGET_CELLS`` cells, or a lattice index in it could pass
        2^52, where float64 stops holding every integer; all before any box
        is listed.
    WindowError
        If the listed boxes hold less than 1 - eps of the mass.
    """
    alpha = complex(alpha)
    if not (np.isfinite(alpha.real) and np.isfinite(alpha.imag)):
        raise ValueError("alpha must be finite")
    if not 0 < min_prob <= 1:
        raise ValueError(f"min_prob must be in (0, 1], got {min_prob!r}")
    delta = spec.delta
    qb, pb = _coherent_qp(alpha)

    eps = min(1e-8, min_prob)
    r = _erfcinv(eps)
    lo, hi = np.floor((qb - r) / delta), np.ceil((qb + r) / delta)
    # inf - inf is nan when both ends overflow: that many boxes are too many
    boxes = np.nan_to_num(float(hi) - float(lo) + 3, nan=math.inf, posinf=math.inf)
    m_half = max(512.0, np.ceil(0.5 + np.pi ** -1.25 * math.sqrt(delta / min_prob)))
    m_c = np.round(pb * delta / (2 * np.pi))
    beyond = (f"alpha = {alpha:g} at delta = {delta:g} needs lattice indices "
              f"beyond 2^52, where float64 no longer holds every integer")
    # a coarse lattice is refused for its momentum indices, a fine one or a
    # tiny min_prob for its cells (a window with M >= 2^25 fails the budget)
    if abs(m_c) + min(m_half, GRID_BUDGET_CELLS) > 2 ** 52:
        raise ValueError(beyond)
    if boxes * (2 * m_half + 1) > GRID_BUDGET_CELLS:
        raise ValueError(
            f"delta = {delta:g}, min_prob = {min_prob:g} needs {boxes:g} boxes x "
            f"{2 * m_half + 1:g} momentum points, more than the {GRID_BUDGET_CELLS} "
            f"cells allowed")
    if max(-lo, hi) + 1 > 2 ** 52:
        raise ValueError(beyond)
    ns = np.arange(int(lo) - 1, int(hi) + 2)
    mass = float(_window_masses(alpha, delta, ns).sum())
    if mass < 1 - eps:
        raise WindowError(f"q-window captured only {mass:.9f}")
    ms = np.arange(int(m_c) - int(m_half), int(m_c) + int(m_half) + 1)
    return LatticeDistribution(alpha=alpha, delta=delta, ns=ns, ms=ms,
                               probabilities=_probabilities(alpha, delta, ns, ms),
                               captured_mass=mass)


def output_mean_amplitude(dist: LatticeDistribution) -> complex:
    """Coherent amplitude sum P(n,m) (q_n + i p_m)/sqrt(2) of the channel
    output, summed over the whole lattice in closed form.

    Box n spans [a_n, b_n] and has mass w_n, its column sum (Parseval), so
    the real part is sum_n q_n w_n / sqrt(2).  In box n, e^{i p_m q}/sqrt(Delta)
    is a Fourier basis of the periodic extension, with coefficients
    c_m = <q_n, p_m|alpha> of psi and c'_m of psi'.  As p_m Delta = 2 pi m,
    integrating by parts gives

        p_m c_m = -i c'_m + i Delta^{-1/2} e^{-i p_m a_n} (psi(b_n) - psi(a_n)).

    Summed against c_m^* over windows symmetric about the peak, the first
    term gives -i int_box psi^* psi' (Parseval) and the second holds the
    Fourier series of psi at its jump, which converges to (psi(a_n) +
    psi(b_n))/2.  The real part of the total is

        sum_m p_m |c_m|^2 = int_box Im(psi^* psi') dq - Im(psi(b_n) psi^*(a_n)).

    For |alpha>, psi = phi e^{i p_bar q} up to a constant phase, phi(q) =
    pi^{-1/4} e^{-(q - q_bar)^2/2}, so Im(psi^* psi') = p_bar phi^2 and

        <a>_out = [sum q_n w_n + i (p_bar sum w_n
                   - sin(p_bar Delta) sum phi(a_n) phi(b_n))] / sqrt(2).

    The jump term is formed from the real phi, so no e^{i p_bar q} phase is
    rounded.  It vanishes on the real axis and is why |<a>_out| = 5.2618 at
    alpha = 3+4i.
    """
    qb, pb = _coherent_qp(dist.alpha)
    delta, qn = dist.delta, dist.delta * dist.ns
    w = _window_masses(dist.alpha, delta, dist.ns)
    phi_a = np.pi ** -0.25 * np.exp(-(qn - delta / 2 - qb) ** 2 / 2)
    phi_b = np.pi ** -0.25 * np.exp(-(qn + delta / 2 - qb) ** 2 / 2)
    jump = math.sin(pb * delta) * float(phi_a @ phi_b)
    return complex(float(qn @ w), pb * dist.captured_mass - jump) / math.sqrt(2)


def coherent_fidelity(dist: LatticeDistribution) -> float:
    """Diagnostic overlap <alpha| rho_out |alpha> = sum P(n,m) |<n,m|alpha>|^2
    of the channel output with the coherent state that went in.

    ``dist`` is the output of :func:`decohere` for that |alpha>, so
    |<n,m|alpha>|^2 is P(n,m) itself and the overlap is sum P^2.  Reported
    for judging how coherent-state-like the decohered output is; no
    particular threshold is claimed.
    """
    return float(np.sum(dist.probabilities ** 2))
