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
the current, continuously replenished phase.

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
    "SyncConfig",
    "PhysicalBeam",
    "SyncReport",
    "hl_sync_limit",
    "sql_sync_limit",
    "split_variance_limit",
    "physical_units_mse",
    "beam_for_party",
    "run_sync_experiment",
    "run_sync_sweep",
]

HBAR = 1.054571817e-34  # J s
SPEED_OF_LIGHT = 2.99792458e8  # m/s

REGIMES = ("hl", "sql")


@dataclass(frozen=True)
class SyncConfig:
    """Source laser, number of parties, and operating regime.

    regime "hl": linewidth kappa/(4 mu), adaptive locking.
    regime "sql": linewidth kappa/(2 mu), dual-quadrature locking.
    """

    laser: LaserParams
    parties: int
    regime: str = "hl"

    def __post_init__(self):
        if self.parties < 1:
            raise ValueError("parties must be >= 1")
        if self.regime not in REGIMES:
            raise ValueError(f"regime must be one of {REGIMES}")


@dataclass(frozen=True)
class PhysicalBeam:
    """Lab-units beam: optical power (W), wavelength (m) or angular frequency
    (rad/s), and FWHM linewidth (Hz)."""

    power: float
    linewidth_hz: float
    wavelength: float | None = None
    omega: float | None = None

    def __post_init__(self):
        if (self.wavelength is None) == (self.omega is None):
            raise ValueError("give exactly one of wavelength or omega")
        if self.omega is None:
            if not self.wavelength > 0:
                raise ValueError("wavelength must be positive")
            object.__setattr__(self, "omega", 2 * math.pi * SPEED_OF_LIGHT / self.wavelength)
        if not all(0 < x < math.inf for x in (self.power, self.linewidth_hz, self.omega)):
            raise ValueError("power, linewidth and frequency must be positive and finite")

    @property
    def flux(self) -> float:
        """Photon flux power/(hbar omega), 1/s."""
        return self.power / (HBAR * self.omega)


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
    regime: str
    trials: int
    seed: int
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
    if not 0 < mu < math.inf:
        raise ValueError("mu must be positive and finite")
    if m < 1:
        raise ValueError("m must be >= 1")


def physical_units_mse(beam: PhysicalBeam, m: int) -> float:
    """Per-party MSE sqrt(hbar omega M ell / P) in lab units, rad^2.

    ell is taken as 2 pi times the FWHM linewidth in Hz (angular-rate
    convention; the expression is an order-of-magnitude one).  A 1 mW visible
    beam of 1 MHz linewidth gives about 5e-5 rad^2 per party.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    ell = 2 * math.pi * beam.linewidth_hz
    return math.sqrt(HBAR * beam.omega * m * ell / beam.power)


def beam_for_party(config: SyncConfig) -> BeamParams:
    """Per-party beam: flux kappa*mu/M, linewidth set by the regime."""
    laser = config.laser
    f = laser.kappa * laser.mu / config.parties
    ell = laser.kappa / (4.0 * laser.mu) if config.regime == "hl" \
        else laser.kappa / (2.0 * laser.mu)
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


def _predicted(config: SyncConfig) -> float:
    mu, m = config.laser.mu, config.parties
    return hl_sync_limit(mu, m) if config.regime == "hl" else sql_sync_limit(mu, m)


def run_sync_experiment(config: SyncConfig, dt: float | None = None, trials: int = 200,
                        seed: int = 0, workers: int = 1,
                        noise_dt: float | None = None) -> SyncReport:
    """Split the laser among M parties and track each share independently.

    All M parties run as lanes of one :func:`laserclock.tracking.run_tracking_batch`
    call (adaptive in the HL regime, dual-quadrature in the SQL regime) on at
    most one process pool.  Party p has its own seed derive_seed(seed, p), so
    per-party results are exchangeable and independent of how many parties
    run.  The per-beam quality factor is N = 4 mu^2/M (HL) or 2 mu^2/M (SQL);
    it should stay above ~1e3 for the linearized filter to apply.
    """
    return _run_sync([config], [seed], seed, dt, trials, workers, noise_dt)


def run_sync_sweep(laser: LaserParams, m_values, regime: str = "hl",
                   dt: float | None = None, trials: int = 200, seed: int = 0,
                   workers: int = 1, noise_dt: float | None = None) -> SyncReport:
    """Sweep the party count and fit the scaling exponent of MSE vs M.

    Runs every M as :func:`run_sync_experiment` would at the seed
    derive_seed(seed, 1000 + i) of the i-th M, but all M values as the points
    of one batch, so the whole sweep is checked before any noise is drawn.
    Least-squares fits the slope of log(mean MSE) against log(M); both limits
    predict slope 1/2.
    """
    m_values = [int(m) for m in m_values]
    if len(set(m_values)) < 2:
        raise ValueError("sweep needs at least two distinct M values")
    configs = [SyncConfig(laser=laser, parties=m, regime=regime) for m in m_values]
    return _run_sync(configs, [derive_seed(seed, 1000 + i) for i in range(len(configs))],
                     seed, dt, trials, workers, noise_dt)


def _run_sync(configs, config_seeds, seed, dt, trials, workers, noise_dt):
    """One batch with a point per config at its seed (the report names the
    master ``seed``); with two or more configs, fits the scaling exponent of
    the mean MSE in M."""
    mode = "adaptive" if configs[0].regime == "hl" else "heterodyne"
    batch = run_tracking_batch(mode, [(beam_for_party(c), _PartySeeds(s, c.parties), None)
                                      for c, s in zip(configs, config_seeds)],
                               dt=dt, trials=trials, workers=workers, noise_dt=noise_dt)
    per_party = tuple(tuple(r.mse_wrapped for r in results) for results in batch)
    mean = tuple(sum(per) / len(per) for per in per_party)
    slope = slope_se = None
    if len(configs) >= 2:
        x = np.log(np.asarray([c.parties for c in configs], dtype=float))
        y = np.log(np.array(mean))
        fit, intercept = np.polyfit(x, y, 1)
        resid = y - (fit * x + intercept)
        dof = max(len(x) - 2, 1)
        slope = float(fit)
        slope_se = math.sqrt(float(resid @ resid) / dof / float(np.sum((x - x.mean()) ** 2)))
    return SyncReport(
        m_values=tuple(c.parties for c in configs),
        per_party_mse=per_party,
        mean_mse=mean,
        stderr=tuple(math.sqrt(sum(r.stderr ** 2 for r in results)) / len(results)
                     for results in batch),
        predicted=tuple(_predicted(c) for c in configs),
        scaling_exponent=slope,
        scaling_stderr=slope_se,
        regime=configs[0].regime,
        trials=trials,
        seed=seed,
        slips_flagged=any(r.slips_significant for results in batch for r in results),
    )
