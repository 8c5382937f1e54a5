"""M-party clock synchronization from a single shared laser.

A source laser of mean photon number mu and decay rate kappa emits a beam of
flux kappa*mu that is split losslessly among M parties, each receiving flux
f = kappa*mu/M.  Every party locks its own (noiseless) local oscillator to
its share.  At the Heisenberg-limited linewidth ell = kappa/(4 mu) with
adaptive locking the per-party mean-square error is sqrt(M)/(4 mu); a
standard laser (ell = kappa/(2 mu)) read out non-adaptively gives
sqrt(M)/(2 mu), only a factor of two worse.  Note the contrast with the
one-shot splitting of a fixed coherent state, whose per-share variance is
M/(4 mu): the running laser is better by sqrt(M) because each party locks to
the current, continuously replenished phase.  :func:`run_sync` simulates
the split for one M, or for several M values at once, fitting the exponent
of the per-party MSE in M that both limits put at 1/2.  In lab units the
limit is sqrt(hbar omega M ell / P) per party, for a :class:`PhysicalBeam`
given by its power, linewidth and wavelength.

If a modest laser must serve as the standard, the efficient arrangement is a
relay: lock one far better laser (higher power, narrower line) to it, then
distribute the second laser.  Done well this adds nothing beyond the single
source-to-relay error, which is why the reference behaves like classical,
freely copyable information; the relay chain itself is not simulated here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .laserdyn import LaserParams
from .tracking import BeamParams, derive_seed, run_tracking_batch

__all__ = [
    "HBAR",
    "SPEED_OF_LIGHT",
    "PhysicalBeam",
    "SyncReport",
    "hl_sync_limit",
    "sql_sync_limit",
    "split_variance_limit",
    "physical_units_mse",
    "beam_for_party",
    "run_sync",
]

HBAR = 1.054571817e-34  # J s
SPEED_OF_LIGHT = 2.99792458e8  # m/s

REGIMES = ("hl", "sql")


@dataclass(frozen=True)
class PhysicalBeam:
    """Lab-units beam: optical power (W), FWHM linewidth (Hz) and wavelength
    (m); the angular frequency ``omega`` (rad/s) follows from the wavelength."""

    power: float
    linewidth_hz: float
    wavelength: float

    def __post_init__(self):
        if not all(0 < x < math.inf for x in (self.power, self.linewidth_hz, self.wavelength)) \
                or self.omega == math.inf:
            raise ValueError("power, linewidth, wavelength and frequency must be positive "
                             "and finite")

    @property
    def omega(self) -> float:
        return 2 * math.pi * SPEED_OF_LIGHT / self.wavelength


@dataclass(frozen=True)
class SyncReport:
    """Monte Carlo synchronization results, one entry per M value."""

    m_values: tuple
    per_party_mse: tuple          # tuple (per M) of tuples (per party), rad^2
    mean_mse: tuple               # rad^2
    stderr: tuple                 # rad^2
    predicted: tuple              # rad^2
    scaling_exponent: float | None
    scaling_stderr: float | None
    slips_flagged: bool


def hl_sync_limit(mu: float, m: int) -> float:
    """Heisenberg-limited per-party MSE sqrt(M)/(4 mu), rad^2."""
    _check_mu_m(mu, m)
    return math.sqrt(m) / (4.0 * mu)


def sql_sync_limit(mu: float, m: int) -> float:
    """Standard-quantum-limit per-party MSE sqrt(M)/(2 mu): twice the HL."""
    _check_mu_m(mu, m)
    return math.sqrt(m) / (2.0 * mu)


def split_variance_limit(mu: float, m: int) -> float:
    """Per-share variance M/(4 mu) when a single coherent state |sqrt(mu)> is
    split M ways -- a factor sqrt(M) worse than locking to the running laser."""
    _check_mu_m(mu, m)
    return m / (4.0 * mu)


def _check_mu_m(mu, m):
    if m < 1:
        raise ValueError("m must be >= 1")
    if not (0 < mu < math.inf and 0 < math.sqrt(m) / (4 * mu)  # HL, the least limit
            and max(math.sqrt(m) / (2 * mu), m / (4 * mu)) < math.inf):  # SQL, split
        raise ValueError(f"mu {mu!r} with m {m} gives limits that are not positive and finite")


def physical_units_mse(beam: PhysicalBeam, m: int) -> float:
    """Per-party MSE sqrt(hbar omega M ell / P) in lab units, rad^2.

    ell is taken as 2 pi times the FWHM linewidth in Hz (angular-rate
    convention; the expression is an order-of-magnitude one).  A 1 mW visible
    beam of 1 MHz linewidth gives about 5e-5 rad^2 per party.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    ell = 2 * math.pi * beam.linewidth_hz
    mse = math.sqrt(HBAR * beam.omega * m * ell / beam.power)
    if not 0 < mse < math.inf:
        raise ValueError(f"{beam} with m {m} gives a per-party MSE of {mse!r} rad^2")
    return mse


def beam_for_party(laser: LaserParams, parties: int, regime: str) -> BeamParams:
    """Per-party beam: flux kappa*mu/M, linewidth set by the regime.

    regime "hl": linewidth kappa/(4 mu), adaptive locking.
    regime "sql": linewidth kappa/(2 mu), dual-quadrature locking.
    """
    if parties < 1:
        raise ValueError("parties must be >= 1")
    if regime not in REGIMES:
        raise ValueError(f"regime must be one of {REGIMES}")
    f = laser.kappa * laser.mu / parties
    ell = laser.kappa / (4.0 * laser.mu) if regime == "hl" else laser.kappa / (2.0 * laser.mu)
    return BeamParams(f=f, ell=ell)


class _PartySeeds:
    """derive_seed(seed, p) for each party p, derived as iterated, so that an
    over-budget party count is refused before any seed is derived."""

    def __init__(self, seed: int, parties: int):
        self.seed, self.parties = seed, parties

    def __len__(self):
        return self.parties

    def __iter__(self):
        return (derive_seed(self.seed, p) for p in range(self.parties))


def run_sync(laser: LaserParams, m_values, regime: str = "hl", dt: float | None = None,
             trials: int = 200, seed: int = 0, workers: int = 1,
             noise_dt: float | None = None) -> SyncReport:
    """Split the laser among M parties, for each M of ``m_values``, and track
    each share independently.

    Every party of every M runs as a lane of one
    :func:`laserclock.tracking.run_tracking_batch` call (adaptive in the HL
    regime, dual-quadrature in the SQL regime) on at most one process pool,
    so the whole run is checked before any noise is drawn.  With one M, party
    p runs at derive_seed(seed, p), so per-party results are exchangeable and
    independent of how many parties run.  Several M values must hold at least
    two distinct ones; party p of the i-th M then runs at
    derive_seed(derive_seed(seed, 1000 + i), p), and the slope of log(mean
    MSE) against log(M) is the least-squares line's, in closed form about the
    centroid with numpy's sums (both limits predict 1/2).  Its standard error
    needs a residual degree of freedom: with fewer than three M values it is
    None.
    The per-beam quality factor is N = 4 mu^2/M (HL) or 2 mu^2/M (SQL); it
    should stay above ~1e3 for the linearized filter to apply.
    """
    m_values = [int(m) for m in m_values]
    if len(m_values) != 1 and len(set(m_values)) < 2:
        raise ValueError("give one M value or at least two distinct M values")
    seeds = [seed] if len(m_values) == 1 else \
        [derive_seed(seed, 1000 + i) for i in range(len(m_values))]
    points = [(beam_for_party(laser, m, regime), _PartySeeds(s, m), None)
              for m, s in zip(m_values, seeds)]
    limit = hl_sync_limit if regime == "hl" else sql_sync_limit
    predicted = tuple(limit(laser.mu, m) for m in m_values)
    batch = run_tracking_batch("adaptive" if regime == "hl" else "heterodyne", points,
                               dt=dt, trials=trials, workers=workers, noise_dt=noise_dt)
    per_party = tuple(tuple(r.mse_wrapped for r in results) for results in batch)
    mean = tuple(sum(per) / len(per) for per in per_party)
    slope = slope_se = None
    if len(m_values) > 1:
        x, y = np.log(m_values), np.log(mean)
        # the least-squares line in closed form about the centroid
        x -= x.mean()
        y -= y.mean()
        sxx = float(np.sum(np.square(x)))
        slope = float(np.sum(x * y)) / sxx
        if len(x) > 2:  # two points leave no residual degree of freedom
            slope_se = math.sqrt(float(np.sum(np.square(y - slope * x))) / (len(x) - 2) / sxx)
    return SyncReport(
        m_values=tuple(m_values),
        per_party_mse=per_party,
        mean_mse=mean,
        stderr=tuple(math.sqrt(sum(r.stderr ** 2 for r in results)) / len(results)
                     for results in batch),
        predicted=predicted,
        scaling_exponent=slope,
        scaling_stderr=slope_se,
        slips_flagged=any(r.slips_significant for results in batch for r in results),
    )
