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

Overlaps fall off only as 1/p_m^2 in probability (the boxcar edges), so
capturing all but 1e-6 of the mass needs momentum windows of order 1e4
points; ``decohere`` sizes that window itself for the requested mass and
evaluates the overlap integral over it in closed form (stably, via the
Faddeeva function).  The tests check that closed form, and the lattice's
orthonormality, against adaptive quadrature of the boxcar integrals.  The same
sharp edges make every p-moment of a single lattice state diverge (its
momentum density only decays as p^-2); the channel output's mean amplitude
stays finite because the lattice-point momenta enter weighted by the 1/p_m^2
probabilities, leaving a conditionally convergent sum evaluated over windows
symmetric about the peak.

A window is evaluated in column blocks of ``GRID_BLOCK_CELLS`` cells, each
written straight into the float array of probabilities, so no complex array
of the whole window ever exists: at alpha = 3+4i the traced peak is 12.9 MiB
for the 8.9 MiB of probabilities, where the whole-window evaluation took 56.4.
No window may exceed ``GRID_BUDGET_CELLS`` cells (256 MiB of probabilities);
a lattice too fine for even the first window is refused with ValueError
before any box is listed, a later window with WindowError before it is
evaluated.
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
    """Probabilities |<q_n, p_m|alpha>|^2 over a finite window.

    ``probabilities[i, j]`` belongs to (ns[i], ms[j]).
    """

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


def _scaled_erf(u, s):
    """e^{-s^2} erf(u_i - i s_j) without overflow, on the grid of sorted 1-D u
    and 1-D s.

    Returns the (len(u), len(s)) array.  Uses erfc(z) = e^{-z^2} w(iz)
    (upper half plane) and the Dawson function on the imaginary axis.  As u
    is sorted, u < 0, u == 0 and u > 0 are row slices, and e^{-s^2} and the
    u == 0 row are computed once per column.
    """
    from scipy.special import dawsn, wofz

    u = np.asarray(u, dtype=float)
    s = np.asarray(s, dtype=float)
    lo, hi = np.searchsorted(u, 0.0, "left"), np.searchsorted(u, 0.0, "right")
    es = np.exp(-s ** 2)
    out = np.empty((len(u), len(s)), dtype=complex)
    un, up = u[:lo, None], u[hi:, None]
    out[:lo] = -es + np.exp(-un ** 2 + 2j * un * s) * wofz(-s - 1j * un)
    out[lo:hi] = -2j / math.sqrt(math.pi) * dawsn(s)
    out[hi:] = es - np.exp(-up ** 2 + 2j * up * s) * wofz(s + 1j * up)
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
    from scipy.special import erf

    qb, _ = _coherent_qp(alpha)
    a = delta * ns - delta / 2
    b = delta * ns + delta / 2
    return 0.5 * (erf(b - qb) - erf(a - qb))


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


def decohere(alpha: complex, spec: LatticeSpec, mass_deficit: float = 1e-6) -> LatticeDistribution:
    """Send |alpha> through the channel: P(n, m) = |<q_n, p_m | alpha>|^2.

    The window is sized here: boxes cover the Gaussian in q to 1% of the
    deficit budget, and the momentum half-width grows (the probability tail
    falls off as C/m) until the captured mass reaches 1 - mass_deficit.

    Each window is evaluated in column blocks of ``GRID_BLOCK_CELLS`` cells
    (at least one column), written straight into the float array of
    probabilities, so the working set is that array plus one block's complex
    temporaries.  No window may hold more than ``GRID_BUDGET_CELLS`` cells
    (256 MiB of probabilities).

    Raises
    ------
    ValueError
        If the boxes times the first window's 1025 momentum points exceed
        ``GRID_BUDGET_CELLS``; checked before any box is listed or evaluated.
    WindowError
        If the requested mass needs a momentum half-width above 2^20 (the
        message names the last window evaluated, its mass and the estimated
        window needed), or a later window more than ``GRID_BUDGET_CELLS``
        cells (the message names the cells needed), or the q-window alone
        misses it.
    """
    from scipy.special import erfcinv

    alpha = complex(alpha)
    if not (np.isfinite(alpha.real) and np.isfinite(alpha.imag)):
        raise ValueError("alpha must be finite")
    if not 0 < mass_deficit < 1:
        raise ValueError("mass_deficit must be in (0, 1)")
    delta = spec.delta
    qb, pb = _coherent_qp(alpha)

    # q-side gets 1% of the budget, momentum the rest
    eps_n = 0.01 * mass_deficit
    r = float(erfcinv(eps_n))
    lo, hi = np.floor((qb - r) / delta), np.ceil((qb + r) / delta)
    # inf - inf is nan when both ends overflow: that many boxes are too many
    boxes = np.nan_to_num(float(hi) - float(lo) + 3, nan=math.inf)
    m_half = 512
    if boxes * (2 * m_half + 1) > GRID_BUDGET_CELLS:
        raise ValueError(
            f"delta = {delta:g} needs {boxes:g} boxes x {2 * m_half + 1} momentum points, "
            f"more than the {GRID_BUDGET_CELLS} cells allowed")
    ns = np.arange(int(lo) - 1, int(hi) + 2)
    w_total = float(_window_masses(alpha, delta, ns).sum())
    budget_m = mass_deficit - (1.0 - w_total)
    if budget_m <= 0:
        raise WindowError(f"q-window captured only {w_total:.9f}")

    m_c = int(np.round(pb * delta / (2 * np.pi)))
    while m_half <= 2 ** 20:
        cells = len(ns) * (2 * m_half + 1)
        if cells > GRID_BUDGET_CELLS:  # never the first window: checked above
            raise WindowError(
                f"captured mass 1 - {mass_deficit:g} needs a window of {cells} cells "
                f"({len(ns)} boxes x {2 * m_half + 1} momentum points), more than the "
                f"{GRID_BUDGET_CELLS} allowed; the last window evaluated had {len(ms)} "
                f"points and captured mass {mass:.9f}")
        ms = np.arange(m_c - m_half, m_c + m_half + 1)
        P = _probabilities(alpha, delta, ns, ms)
        mass = float(P.sum())
        deficit_m = w_total - mass
        if deficit_m <= budget_m:
            return LatticeDistribution(delta=delta, ns=ns, ms=ms, probabilities=P,
                                       captured_mass=mass)
        del P  # free this window before the next one is evaluated
        # tail behaves as C/m_half: jump to the estimated requirement
        m_half = int(np.ceil(1.3 * deficit_m * m_half / budget_m))
    raise WindowError(
        f"captured mass 1 - {mass_deficit:g} needs about {2 * m_half + 1} momentum points, "
        f"more than the {2 ** 21 + 1} allowed; the last window evaluated had {len(ms)} "
        f"points and captured mass {mass:.9f}"
    )


def output_mean_amplitude(dist: LatticeDistribution, spec: LatticeSpec) -> complex:
    """Coherent amplitude sum P(n,m) (q_n + i p_m)/sqrt(2) after the channel.

    This is what survives complete decoherence: for |alpha| >> 1 it stays
    within a fraction of alpha in modulus and a few hundredths of a radian in
    phase (exactly how close is set by the lattice discretization).
    """
    if abs(dist.delta - spec.delta) > 1e-12 * spec.delta:
        raise ValueError("distribution and spec disagree on delta")
    if dist.captured_mass < 1 - 1e-6:
        raise ValueError(f"captured mass {dist.captured_mass:.9f} below 1 - 1e-6")
    qn = spec.q(dist.ns).astype(float)
    pm = spec.p(dist.ms).astype(float)
    wq = dist.probabilities.sum(axis=1) @ qn
    wp = dist.probabilities.sum(axis=0) @ pm
    return (wq + 1j * wp) / math.sqrt(2)


def coherent_fidelity(dist: LatticeDistribution) -> float:
    """Diagnostic overlap <alpha| rho_out |alpha> = sum P(n,m) |<n,m|alpha>|^2
    of the channel output with the coherent state that went in.

    ``dist`` is the output of :func:`decohere` for that |alpha>, so
    |<n,m|alpha>|^2 is P(n,m) itself and the overlap is sum P^2.  Reported
    for judging how coherent-state-like the decohered output is; no
    particular threshold is claimed.
    """
    return float(np.sum(dist.probabilities ** 2))
