"""Stochastic simulation of phase locking to a diffusing-phase coherent beam.

Model: the beam phase diffuses as dphi = sqrt(ell) dW, and homodyne detection
against a local oscillator of phase Phi gives the scaled photocurrent
increment I dt = 2 alpha cos(Phi - phi) dt + dW_shot with alpha = sqrt(f).
The single figure of merit is N = f/ell, the photon number per coherence
time.

Two estimators are provided:

* adaptive: keep the local oscillator at the null point Phi = est + pi/2 and
  feed the photocurrent back with gain ell/sigma^2.  With sigma^2 at its
  stationary value 1/(2 sqrt(N)) the steady-state mean-square error is
  1/(2 sqrt(N)).
* heterodyne (dual-quadrature): split the beam in two and measure both
  quadratures, dZ = sqrt(2) alpha e^{i phi} dt + complex shot noise; estimate
  the phase as arg of an exponential moving average of dZ with bandwidth
  lambda.  The lag/noise tradeoff ell/(2 lambda) + lambda/(4 f) is minimized
  at lambda = sqrt(2 f ell), where the error is 1/sqrt(2N) -- worse than
  adaptive by sqrt(2).

Monte Carlo runs advance lanes, the trials of one or more seeds, in lockstep
groups of at most LANE_GROUP lanes.  Every lane owns two Gaussian increment
streams (phase and shot noise) seeded [seed, trial, 0|1] and drawn in blocks
of NOISE_BLOCK // (group lanes) steps, so neither the other lanes, the block
length nor the worker count can change any result.  Passing ``noise_dt`` draws
the increments on a finer grid and sums them per step, which lets two runs at
different dt share identical Wiener paths for time-step convergence checks.
Runs over 2**30 lane-steps are refused before any noise is drawn.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "BeamParams",
    "TrackerState",
    "NoiseStep",
    "TrackingResult",
    "adaptive_mse_limit",
    "heterodyne_mse_limit",
    "optimal_bandwidth",
    "loop_time_constant",
    "auto_dt",
    "step_phase",
    "photocurrent_increment",
    "adaptive_step",
    "variance_ode_step",
    "derive_seed",
    "run_tracking_batch",
    "run_tracking",
    "heterodyne_bandwidth_sweep",
]

MODES = ("adaptive", "heterodyne")
# lane-steps of noise held at once: half a default 200-trial run, leaving room
# for the generators (about 2 kB a lane) that every lane holds between blocks
NOISE_BLOCK = 300_000
LANE_GROUP = 1024  # lanes in lockstep at once: bounds generators, keeps blocks long
LANE_STEP_BUDGET = 2 ** 30  # largest run accepted, in lane-steps


@dataclass(frozen=True)
class BeamParams:
    """Coherent beam of photon flux f (1/s) and linewidth ell (rad^2/s)."""

    f: float
    ell: float

    def __post_init__(self):
        if not 0 < self.f < math.inf:
            raise ValueError("flux f must be positive and finite")
        if not 0 <= self.ell < math.inf:
            raise ValueError("linewidth ell must be nonnegative and finite")

    @property
    def alpha(self) -> float:
        """Beam amplitude sqrt(f)."""
        return math.sqrt(self.f)

    @property
    def N(self) -> float:
        """Photons per coherence time, f/ell (inf for a static phase)."""
        return self.f / self.ell if self.ell > 0 else math.inf

    def stationary_sigma2(self) -> float:
        """Stationary error variance 1/(2 sqrt(N)) of the adaptive filter."""
        if self.ell == 0:
            return 0.0
        return 1.0 / (2.0 * math.sqrt(self.N))


@dataclass(frozen=True)
class TrackerState:
    """One locking loop: true phase, estimate, LO phase, error variance, time.

    Phases are unwrapped (radians); in adaptive mode lo_phase is maintained at
    phi_est + pi/2 after every step.
    """

    phi_true: float
    phi_est: float
    lo_phase: float
    sigma2: float
    t: float = 0.0

    def __post_init__(self):
        if not self.sigma2 > 0:
            raise ValueError("sigma2 must be positive")


@dataclass(frozen=True)
class NoiseStep:
    """Wiener increments for one step: dw_phase drives the beam phase,
    dw_shot the photocurrent shot noise.  Each has variance dt."""

    dw_phase: float
    dw_shot: float


@dataclass(frozen=True)
class TrackingResult:
    """Ensemble- and time-averaged steady-state tracking errors at the
    resolved dt, burn_in, duration and bandwidth."""

    mse_wrapped: float
    mse_unwrapped: float
    stderr: float
    trials: int
    burn_in: float
    duration: float
    cycle_slip_rate: float
    slips_significant: bool
    dt: float
    bandwidth: float | None


def adaptive_mse_limit(N: float) -> float:
    """Steady-state MSE 1/(2 sqrt(N)) of the adaptive loop."""
    return 1.0 / (2.0 * math.sqrt(N))


def heterodyne_mse_limit(N: float) -> float:
    """Steady-state MSE 1/sqrt(2N) of the optimal non-adaptive measurement."""
    return 1.0 / math.sqrt(2.0 * N)


def optimal_bandwidth(beam: BeamParams) -> float:
    """Filter bandwidth sqrt(2 f ell) balancing lag against shot noise."""
    return math.sqrt(2.0 * beam.f * beam.ell)


def loop_time_constant(beam: BeamParams, mode: str, bandwidth: float | None = None) -> float:
    """Error relaxation time: 1/(2 ell sqrt(N)) adaptive, 1/lambda heterodyne."""
    if mode == "adaptive":
        if beam.ell == 0:
            raise ValueError("adaptive time constant undefined for ell = 0")
        return 1.0 / (2.0 * beam.ell * math.sqrt(beam.N))
    if mode == "heterodyne":
        lam = optimal_bandwidth(beam) if bandwidth is None else bandwidth
        if not lam > 0:
            raise ValueError("bandwidth must be positive")
        return 1.0 / lam
    raise ValueError(f"mode must be one of {MODES}")


def auto_dt(beam: BeamParams, mode: str = "adaptive", bandwidth: float | None = None) -> float:
    """Default time step: one-hundredth of the loop time constant."""
    return 1e-2 * loop_time_constant(beam, mode, bandwidth)


# --- single-step reference operations --------------------------------------

def step_phase(state: TrackerState, beam: BeamParams, dt: float, noise: NoiseStep) -> TrackerState:
    """Advance the true beam phase by its diffusion increment sqrt(ell) dW.

    Exact for this driftless diffusion at any dt.
    """
    if not dt > 0:
        raise ValueError("dt must be positive")
    return replace(state,
                   phi_true=state.phi_true + math.sqrt(beam.ell) * noise.dw_phase,
                   t=state.t + dt)


def photocurrent_increment(state: TrackerState, beam: BeamParams, dt: float,
                           noise: NoiseStep) -> float:
    """Homodyne photocurrent increment I dt = 2 alpha cos(Phi - phi) dt + dW_shot."""
    if not dt > 0:
        raise ValueError("dt must be positive")
    return 2.0 * beam.alpha * math.cos(state.lo_phase - state.phi_true) * dt + noise.dw_shot


def adaptive_step(state: TrackerState, beam: BeamParams, dt: float, noise: NoiseStep,
                  gain: float | None = None, evolve_sigma2: bool = False) -> TrackerState:
    """One step of the adaptive lock: diffuse, measure at the null point, feed back.

    The local oscillator sits at Phi = est + pi/2, so the full nonlinear
    photocurrent is I dt = 2 alpha sin(phi - est) dt + dW_shot, and the
    estimate moves by gain * I dt / (2 alpha) with gain = ell/sigma^2 (or the
    explicit ``gain``, needed e.g. for ell = 0).  With ``evolve_sigma2`` the
    error variance follows :func:`variance_ode_step`; by default it is held
    fixed (stationary-gain operation).

    Warns when dt exceeds one-hundredth of the loop time constant.
    """
    if not dt > 0:
        raise ValueError("dt must be positive")
    g = beam.ell / state.sigma2 if gain is None else gain
    if g > 0 and g * dt > 1e-2 * (1 + 1e-9):
        warnings.warn("dt exceeds 1e-2 of the loop relaxation time", stacklevel=2)
    phi = state.phi_true + math.sqrt(beam.ell) * noise.dw_phase
    lo = state.phi_est + math.pi / 2.0
    idt = 2.0 * beam.alpha * math.cos(lo - phi) * dt + noise.dw_shot
    est = state.phi_est + g * idt / (2.0 * beam.alpha)
    sig2 = variance_ode_step(state.sigma2, beam, dt) if evolve_sigma2 else state.sigma2
    return TrackerState(phi_true=phi, phi_est=est, lo_phase=est + math.pi / 2.0,
                        sigma2=sig2, t=state.t + dt)


def variance_ode_step(sigma2: float, beam: BeamParams, dt: float) -> float:
    """Advance the error variance: diffusion growth, then inverse-variance
    combination with the fresh-measurement variance 1/(4 alpha^2 dt).

    The continuum limit is d(sigma^2)/dt = ell - 4 f sigma^4, stationary at
    1/(2 sqrt(N)); the combined rational form is used instead of the Euler
    step because it stays positive and stable for any dt and any starting
    variance.
    """
    if not dt > 0:
        raise ValueError("dt must be positive")
    grown = sigma2 + beam.ell * dt
    return grown / (1.0 + 4.0 * beam.f * dt * grown)


# --- Monte Carlo engine -----------------------------------------------------

def derive_seed(seed: int, index: int) -> int:
    """Seed of sub-run ``index`` (party, sweep point, M value) of the run seeded
    ``seed``: the first word numpy's seed sequence [seed, index] generates."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def _draw_increments(rng, n_steps: int, refine: int, noise_dt: float, pair: bool):
    shape = (n_steps * refine, 2) if pair else (n_steps * refine,)
    x = rng.standard_normal(shape) * math.sqrt(noise_dt)
    if pair:
        x = x[:, 0] + 1j * x[:, 1]
    if refine > 1:
        x = x.reshape(n_steps, refine).sum(axis=1)
    return x


def _noise_columns(lanes, steps: int, refine: int, noise_dt: float, pair: bool):
    """Yield each step's (phase, shot) increments across lanes, drawn in reused
    blocks of NOISE_BLOCK // len(lanes) steps that continue each lane's streams."""
    streams = [[np.random.default_rng([seed, trial, s]) for s in (0, 1)]
               for seed, trial in lanes]
    block = NOISE_BLOCK // len(lanes)
    dwp = np.empty((len(lanes), min(block, steps)))
    dws = np.empty(dwp.shape, dtype=complex if pair else float)
    for start in range(0, steps, block):
        b = min(block, steps - start)
        for i, (rp, rs) in enumerate(streams):
            dwp[i, :b] = _draw_increments(rp, b, refine, noise_dt, pair=False)
            dws[i, :b] = _draw_increments(rs, b, refine, noise_dt, pair=pair)
        yield from zip(dwp[:, :b].T, dws[:, :b].T)


def _simulate_lanes(mode, beam, dt, steps, burn_steps, lanes, phi0, bandwidth, gain,
                    evolve_sigma2, refine):
    """Simulate lanes, a list of (seed, trial) pairs, in lockstep; returns
    per-lane (mse_wrapped, mse_unwrapped, slips) arrays.  A lane's values
    depend only on its (seed, trial) and the config, never on the other lanes."""
    n = len(lanes)
    noise = _noise_columns(lanes, steps, refine, dt / refine, pair=(mode == "heterodyne"))
    sl = math.sqrt(beam.ell)
    alpha = beam.alpha
    phi = np.full(n, phi0)
    sq_w = np.zeros(n)
    sq_u = np.zeros(n)
    slips = np.zeros(n, dtype=np.int64)
    winding = np.zeros(n, dtype=np.int64)

    def observe(e):
        nonlocal sq_w, sq_u, slips
        w = (e + np.pi) % (2 * np.pi) - np.pi
        sq_w += w * w
        sq_u += e * e
        new_wind = np.round(e / (2 * np.pi)).astype(np.int64)
        slips += np.abs(new_wind - winding)
        winding[:] = new_wind

    if mode == "adaptive":
        est = np.full(n, phi0)
        sig2 = beam.stationary_sigma2() if beam.ell > 0 else 1.0
        g = (beam.ell / sig2) if gain is None else gain
        for k, (dwp, dws) in enumerate(noise):
            phi = phi + sl * dwp
            idt = 2.0 * alpha * np.sin(phi - est) * dt + dws
            est = est + g * idt / (2.0 * alpha)
            if evolve_sigma2:
                grown = sig2 + beam.ell * dt
                sig2 = grown / (1.0 + 4.0 * beam.f * dt * grown)
                g = (beam.ell / sig2) if gain is None else gain
            if k >= burn_steps:
                observe(phi - est)
    else:
        lam = bandwidth
        s2a = math.sqrt(2.0) * alpha
        A = s2a * np.exp(1j * np.full(n, phi0))
        # angle(A) is wrapped; accumulate its increments to keep the estimate
        # unwrapped alongside phi
        prev_ang = np.angle(A)
        est = np.full(n, phi0)
        for k, (dwp, dws) in enumerate(noise):
            phi = phi + sl * dwp
            dZ = s2a * np.exp(1j * phi) * dt + dws
            A = A + lam * (dZ - A * dt)
            ang = np.angle(A)
            est = est + ((ang - prev_ang + np.pi) % (2 * np.pi) - np.pi)
            prev_ang = ang
            if k >= burn_steps:
                observe(phi - est)
    return sq_w / (steps - burn_steps), sq_u / (steps - burn_steps), slips


def run_tracking_batch(mode: str, beam: BeamParams, seeds, *, dt: float | None = None,
                       duration: float | None = None, burn_in: float | None = None,
                       trials: int = 200, workers: int = 1, phi0: float = 0.0,
                       bandwidth: float | None = None, gain: float | None = None,
                       evolve_sigma2: bool = False,
                       noise_dt: float | None = None) -> tuple[TrackingResult, ...]:
    """Ensemble steady-state tracking error for one configuration at each seed.

    All seeds' trials run as lanes of one batch, in lockstep groups, on at most
    one pool of ``workers`` processes; the results, one per seed in order, are
    bitwise those of :func:`run_tracking` at each seed.

    dt, burn_in and duration default to 1e-2, 10 and 30 loop time constants.
    The wrapped MSE is averaged over time (after burn_in) and trials; the
    standard error is across trials.  Cycle slips (winding-number changes of
    the unwrapped error) are counted separately, and ``slips_significant`` is
    set when they contribute more than 1% of the wrapped MSE.  Results are
    bitwise reproducible for fixed (config, seed), whatever ``workers`` is.

    ``noise_dt`` (default dt; must divide dt) fixes the grid on which the
    Wiener increments are drawn, so runs at different dt can share paths.

    Raises ValueError before any noise is drawn for a dt or duration that is
    not positive and finite, a negative burn_in, no seeds, trials or workers
    below 1, or a run over LANE_STEP_BUDGET lane-steps.
    """
    return _run_batch(mode, beam, seeds, dt, duration, burn_in, trials, workers, phi0,
                      bandwidth, gain, evolve_sigma2, noise_dt, stacklevel=3)


def _run_batch(mode, beam, seeds, dt, duration, burn_in, trials, workers, phi0, bandwidth,
               gain, evolve_sigma2, noise_dt, stacklevel):
    if len(seeds) < 1 or trials < 1 or workers < 1:
        raise ValueError("seeds, trials and workers must each number at least 1")
    if mode == "heterodyne" and bandwidth is None:
        bandwidth = optimal_bandwidth(beam)
    if mode == "adaptive" and beam.ell == 0 and gain is None:
        raise ValueError("adaptive tracking of a static phase needs an explicit gain")
    if mode == "adaptive" and gain is not None:
        tau = 1.0 / gain
    else:  # also rejects an unknown mode and a bandwidth <= 0
        tau = loop_time_constant(beam, mode, bandwidth)
    if dt is None:
        dt = 1e-2 * tau
    if burn_in is None:
        burn_in = 10.0 * tau
    if duration is None:
        duration = burn_in + 20.0 * tau
    if not (0 < dt < math.inf and 0 < duration < math.inf and 0 <= burn_in < math.inf):
        raise ValueError("dt and duration must be positive and finite, burn_in >= 0")
    if trials < 100:
        warnings.warn("fewer than 100 trials: MSE estimate will be noisy", stacklevel=stacklevel)
    if duration < burn_in + 20.0 * tau * (1 - 1e-9):
        warnings.warn("duration below burn_in + 20 loop time constants", stacklevel=stacklevel)
    refine = 1
    if noise_dt is not None:
        refine = int(round(dt / noise_dt))
        if refine < 1 or abs(refine * noise_dt - dt) > 1e-9 * dt:
            raise ValueError("noise_dt must divide dt")
    n_lanes = len(seeds) * trials
    lane_steps = n_lanes * (duration / dt) * refine
    if not lane_steps <= LANE_STEP_BUDGET:
        raise ValueError(f"{n_lanes} lanes x {duration / dt:.3g} steps x refine {refine} = "
                         f"{lane_steps:.3g} lane-steps, over the budget of 2**30")
    steps = int(round(duration / dt))
    burn_steps = int(round(burn_in / dt))
    if steps <= burn_steps:
        raise ValueError("duration leaves no observation steps after burn_in")

    lanes = ((seed, trial) for seed in seeds for trial in range(trials))
    # groups of at most LANE_GROUP lanes, a multiple of workers, listed lazily
    n_groups = min(n_lanes, workers * -(-n_lanes // (workers * LANE_GROUP)))
    sizes = np.diff(np.linspace(0, n_lanes, n_groups + 1).astype(int))
    groups = ((mode, beam, dt, steps, burn_steps, [next(lanes) for _ in range(size)], phi0,
               bandwidth, gain, evolve_sigma2, refine) for size in sizes)
    if workers == 1 or n_groups == 1:
        parts = [_simulate_lanes(*g) for g in groups]
    else:
        with ProcessPoolExecutor(max_workers=workers) as ex:
            parts = list(ex.map(_simulate_lanes, *zip(*groups)))
    mse_w, mse_u, slips = (np.concatenate(p) for p in zip(*parts))

    obs_time = (steps - burn_steps) * dt
    results = []
    for lo in range(0, n_lanes, trials):
        w, u = mse_w[lo:lo + trials], mse_u[lo:lo + trials]
        mean_w, mean_u = float(w.mean()), float(u.mean())
        results.append(TrackingResult(
            mse_wrapped=mean_w, mse_unwrapped=mean_u,
            stderr=float(w.std(ddof=1) / math.sqrt(trials)) if trials > 1 else float("inf"),
            trials=trials, burn_in=burn_in, duration=duration,
            cycle_slip_rate=float(slips[lo:lo + trials].sum() / (trials * obs_time)),
            slips_significant=bool(mean_u - mean_w > 0.01 * mean_w), dt=dt,
            bandwidth=bandwidth))
    return tuple(results)


def run_tracking(mode: str, beam: BeamParams, dt: float | None = None,
                 duration: float | None = None, burn_in: float | None = None,
                 trials: int = 200, seed: int = 0, workers: int = 1,
                 phi0: float = 0.0, bandwidth: float | None = None,
                 gain: float | None = None, evolve_sigma2: bool = False,
                 noise_dt: float | None = None) -> TrackingResult:
    """Ensemble steady-state tracking error for one configuration: the
    one-seed case of :func:`run_tracking_batch`, which documents it."""
    return _run_batch(mode, beam, [seed], dt, duration, burn_in, trials, workers, phi0,
                      bandwidth, gain, evolve_sigma2, noise_dt, stacklevel=3)[0]


def heterodyne_bandwidth_sweep(beam: BeamParams, bandwidths, trials: int = 200,
                               seed: int = 0, workers: int = 1):
    """Run the dual-quadrature tracker at each bandwidth; returns
    [(bandwidth, TrackingResult)] in input order (per-bandwidth seeds are
    derived from the master seed and the sweep index)."""
    return [(float(lam), run_tracking("heterodyne", beam, trials=trials,
                                      seed=derive_seed(seed, i), workers=workers,
                                      bandwidth=float(lam)))
            for i, lam in enumerate(bandwidths)]
