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
groups of at most LANE_GROUP lanes.  One batch runs every point (beam, seeds,
bandwidth) of an experiment; consecutive points of one shape (steps, burn-in
steps, noise refinement) share groups, each lane carrying its own f, ell, dt
and bandwidth.  Every lane owns two Gaussian increment streams (phase and shot
noise) seeded [seed, trial, 0|1], drawn in place in blocks of
NOISE_BLOCK // (group lanes) draws a stream.  The tracking errors are observed in
chunks of OBS_CHUNK steps: the wrap, the squared sums (still added one step at
a time, in step order) and the cycle-slip count run once per chunk, with the
modulo and the winding number evaluated only where they can differ from the
identity and from 0.  So neither the other lanes, the block or chunk length
nor the worker count can change any result.  Passing ``noise_dt`` draws the
increments on a finer grid and sums them per step, which lets two runs at
different dt share identical Wiener paths for time-step convergence checks.
A batch is refused before any noise is drawn when it comes to over 2**30
lane-steps, with each lane counted as at least LANE_COST of them.
"""

from __future__ import annotations

import itertools
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
OBS_CHUNK = 16  # steps whose errors are observed at once: bounds their temporaries
LANE_STEP_BUDGET = 2 ** 30  # largest run accepted, in lane-steps
LANE_COST = 300  # a lane's least cost in lane-steps: its set-up takes about 48 us


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


def _noise_columns(lanes, steps: int, refine: int, noise_dt, pair: bool):
    """Yield the lanes' (phase, shot) increments as (lanes, steps) blocks of
    NOISE_BLOCK // (len(lanes) * refine) steps that continue each lane's
    streams, drawn in place and scaled once per block by the per-lane
    sqrt(noise_dt); a complex shot pair is drawn through its float view, and
    with ``refine`` > 1 each step sums ``refine`` draws."""
    n = len(lanes)
    streams = [[np.random.default_rng([seed, trial, s]) for s in (0, 1)] for seed, trial in lanes]
    block = max(1, min(steps, NOISE_BLOCK // (n * refine)))
    raw = np.empty((n, block * refine)), np.empty((n, block * refine), complex if pair else float)
    scale = np.sqrt(noise_dt)[:, None]
    for start in range(0, steps, block):
        dw = [x[:, :min(block, steps - start) * refine] for x in raw]
        for (rp, rs), p, s in zip(streams, *dw):
            rp.standard_normal(out=p)
            rs.standard_normal(out=s.view(float))
        for x in dw:
            np.multiply(x.view(float), scale, out=x.view(float))
        yield [x.reshape(n, -1, refine).sum(axis=2) for x in dw] if refine > 1 else dw


def _wrap(x):
    """(x + pi) % (2 pi) - pi, bitwise, with % applied only where x + pi leaves
    [0, 2 pi): on that interval fmod is exact and the identity."""
    y = x + np.pi
    if not (y.min() >= 0 and y.max() < 2 * np.pi):  # nan fails both
        np.remainder(y, 2 * np.pi, out=y, where=(y < 0) | ~(y < 2 * np.pi))
    y -= np.pi
    return y


def _accumulate(start, rows):
    """Every partial sum start + rows[:, 0] + rows[:, 1] + ..., added one
    step (column) at a time in step order, in place of rows."""
    rows[:, 0] += start
    return np.cumsum(rows, axis=1, out=rows)


def _simulate_lanes(mode, steps, burn_steps, refine, lanes, f, ell, dt, bandwidth, phi0,
                    gain, evolve_sigma2):
    """Simulate lanes, a list of (seed, trial) pairs with per-lane f, ell, dt and
    bandwidth arrays, in lockstep; returns per-lane (mse_wrapped, mse_unwrapped,
    slips) arrays.  A lane's values depend only on its (seed, trial) and its
    parameters, never on the other lanes, the noise block or the chunk of
    OBS_CHUNK steps whose errors are observed at once."""
    n = len(lanes)
    sl, alpha = np.sqrt(ell), np.sqrt(f)
    phi = np.full(n, phi0)
    sq_w, sq_u = np.zeros(n), np.zeros(n)
    slips, winding = np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
    heterodyne = mode == "heterodyne"
    states = np.empty((n, OBS_CHUNK), complex if heterodyne else float)

    def observe(e):
        nonlocal sq_w, sq_u
        w = _wrap(e)
        sq_w = _accumulate(sq_w, np.multiply(w, w, out=w))[:, -1]
        u = e * e
        # round(e / 2 pi) is 0 where e^2 < 9 (|e| < 3 < pi): only lanes with a
        # larger or nan error in the chunk, or a nonzero winding, can slip
        hot = ~(u.max(axis=1) < 9.0) | (winding != 0)
        sq_u = _accumulate(sq_u, u)[:, -1]
        if hot.any():
            wind = np.round(e[hot] / (2 * np.pi)).astype(np.int64)
            slips[hot] += np.abs(np.diff(wind, axis=1, prepend=winding[hot, None])).sum(axis=1)
            winding[hot] = wind[:, -1]

    if heterodyne:
        s2a = math.sqrt(2.0) * alpha
        A = s2a * np.exp(1j * phi)
        # angle(A) is wrapped; accumulate its increments to keep the estimate
        # unwrapped alongside phi
        prev_ang = np.angle(A)
        lam, dtc = bandwidth.astype(complex), dt.astype(complex)
    else:
        two_alpha = 2.0 * alpha
        with np.errstate(divide="ignore"):
            sig2 = np.where(ell > 0, 1.0 / (2.0 * np.sqrt(f / ell)), 1.0)
        g = ell / sig2 if gain is None else np.full(n, gain)
    est = np.full(n, phi0)
    k0 = 0
    for dwp, dws in _noise_columns(lanes, steps, refine, dt / refine, heterodyne):
        dwp *= sl[:, None]
        dwp[:, 0] += phi
        phis = np.cumsum(dwp, axis=1, out=dwp)  # phi = phi + sqrt(ell) dW, per step
        phi = phis[:, -1].copy()
        for c in range(0, phis.shape[1], OBS_CHUNK):
            p, s = phis[:, c:c + OBS_CHUNK], dws[:, c:c + OBS_CHUNK]
            r = p.shape[1]
            # each update keeps the operand order of adaptive_step and of the
            # filter A = A + lam (dZ - A dt), so every result is bitwise fixed
            if heterodyne:
                dZ = s2a[:, None] * np.exp(1j * p) * dt[:, None] + s
                for k in range(r):
                    A = np.add(A, lam * (dZ[:, k] - A * dtc), out=states[:, k])
                ang = np.angle(states[:, :r])
                est_rows = _accumulate(est, _wrap(np.diff(ang, axis=1, prepend=prev_ang[:, None])))
                prev_ang = ang[:, -1]
            else:
                for k in range(r):
                    idt = two_alpha * np.sin(p[:, k] - est) * dt + s[:, k]
                    est = np.add(est, g * idt / two_alpha, out=states[:, k])
                    if evolve_sigma2:
                        grown = sig2 + ell * dt
                        sig2 = grown / (1.0 + 4.0 * f * dt * grown)
                        g = ell / sig2 if gain is None else g
                est_rows = states[:, :r]
            est = est_rows[:, -1].copy()
            if k0 + r > burn_steps:
                first = max(0, burn_steps - k0)
                observe(p[:, first:] - est_rows[:, first:])
            k0 += r
    return sq_w / (steps - burn_steps), sq_u / (steps - burn_steps), slips


def run_tracking_batch(mode: str, points, *, dt: float | None = None,
                       duration: float | None = None, burn_in: float | None = None,
                       trials: int = 200, workers: int = 1, phi0: float = 0.0,
                       gain: float | None = None, evolve_sigma2: bool = False,
                       noise_dt: float | None = None) -> tuple[tuple[TrackingResult, ...], ...]:
    """Ensemble steady-state tracking error at each point of one experiment.

    A point is a ``(beam, seeds, bandwidth)`` triple, where a bandwidth of
    None means the optimal one.  The result holds one tuple per point of one
    :class:`TrackingResult` per seed, each bitwise that of :func:`run_tracking`
    at that point and seed.  The trials of all points run as lanes, in lockstep
    groups that consecutive points of one step count share, on at most one
    pool of ``workers`` processes.

    dt, burn_in and duration default, for each point, to 1e-2, 10 and 30 of its
    loop time constants.  The wrapped MSE is averaged over time (after
    burn_in) and trials; the standard error is across trials.  Cycle slips
    (winding-number changes of the unwrapped error) are counted separately,
    and ``slips_significant`` is set when they contribute more than 1% of the
    wrapped MSE.  Results are bitwise reproducible for fixed (config, seed),
    whatever ``workers`` is.

    ``noise_dt`` (default dt; must divide dt) fixes the grid on which the
    Wiener increments are drawn, so runs at different dt can share paths.

    Raises ValueError before any seed is iterated or any noise is drawn for no
    points or seeds, a dt or duration that is not positive and finite, a
    negative burn_in, trials or workers below 1, or a batch over
    LANE_STEP_BUDGET lane-steps, summed over all points with each lane counted
    as at least LANE_COST lane-steps.
    """
    return _run_batch(mode, points, dt, duration, burn_in, trials, workers, phi0, gain,
                      evolve_sigma2, noise_dt, stacklevel=3)


def _resolve(mode, beam, bandwidth, dt, duration, burn_in, gain, noise_dt):
    """A point's loop time constant, its resolved dt, burn_in, duration and
    bandwidth (as TrackingResult fields), and its noise refinement."""
    if mode == "heterodyne" and bandwidth is None:
        bandwidth = optimal_bandwidth(beam)
    if mode == "adaptive" and gain is not None:
        tau = 1.0 / gain
    else:  # also rejects an unknown mode, a bandwidth <= 0 and ell = 0 without a gain
        tau = loop_time_constant(beam, mode, bandwidth)
    if dt is None:
        dt = 1e-2 * tau
    if burn_in is None:
        burn_in = 10.0 * tau
    if duration is None:
        duration = burn_in + 20.0 * tau
    if not (0 < dt < math.inf and 0 < duration < math.inf and 0 <= burn_in < math.inf):
        raise ValueError("dt and duration must be positive and finite, burn_in >= 0")
    refine = 1
    if noise_dt is not None:
        refine = int(round(dt / noise_dt))
        if refine < 1 or abs(refine * noise_dt - dt) > 1e-9 * dt:
            raise ValueError("noise_dt must divide dt")
    return tau, dict(dt=dt, burn_in=burn_in, duration=duration, bandwidth=bandwidth), refine


def _run_batch(mode, points, dt, duration, burn_in, trials, workers, phi0, gain,
               evolve_sigma2, noise_dt, stacklevel):
    if not points or min(len(seeds) for _, seeds, _ in points) < 1 or trials < 1 \
            or workers < 1:
        raise ValueError("points, seeds, trials and workers must each number at least 1")
    runs = [_resolve(mode, beam, bandwidth, dt, duration, burn_in, gain, noise_dt)
            for beam, _, bandwidth in points]
    if trials < 100:
        warnings.warn("fewer than 100 trials: MSE estimate will be noisy", stacklevel=stacklevel)
    if any(c["duration"] < c["burn_in"] + 20.0 * tau * (1 - 1e-9) for tau, c, _ in runs):
        warnings.warn("duration below burn_in + 20 loop time constants", stacklevel=stacklevel)
    n_lanes = [len(seeds) * trials for _, seeds, _ in points]
    lane_steps = sum(n * max(c["duration"] / c["dt"] * refine, LANE_COST)
                     for n, (_, c, refine) in zip(n_lanes, runs))
    if not lane_steps <= LANE_STEP_BUDGET:
        raise ValueError(f"{sum(n_lanes)} lanes in {len(points)} point(s) come to "
                         f"{lane_steps:.3g} lane-steps (at least {LANE_COST} a lane), "
                         "over the budget of 2**30")
    steps = [(int(round(c["duration"] / c["dt"])), int(round(c["burn_in"] / c["dt"])))
             for _, c, _ in runs]
    if any(n <= burn for n, burn in steps):
        raise ValueError("duration leaves no observation steps after burn_in")

    # consecutive points of one shape (steps, burn_steps, refine) share groups
    # of at most LANE_GROUP lanes, a multiple of workers of them; each group
    # lists its (seed, trial) lanes and their parameters only when it is run
    shapes = [(*counts, refine) for counts, (_, _, refine) in zip(steps, runs)]
    spans = [list(span) for _, span in itertools.groupby(range(len(points)), shapes.__getitem__)]
    span_lanes = [sum(n_lanes[i] for i in span) for span in spans]
    n_groups = [min(n, workers * -(-n // (workers * LANE_GROUP))) for n in span_lanes]

    def groups():
        for span, n, k in zip(spans, span_lanes, n_groups):
            lanes = ((seed, trial, points[i][0], runs[i][1]) for i in span
                     for seed in points[i][1] for trial in range(trials))
            for size in np.diff(np.linspace(0, n, k + 1).astype(int)):
                group = [next(lanes) for _ in range(size)]
                f, ell, lane_dt, bw = np.array([(beam.f, beam.ell, c["dt"], c["bandwidth"] or 0.0)
                                                for *_, beam, c in group]).T.copy()
                yield (mode, *shapes[span[0]], [lane[:2] for lane in group], f, ell, lane_dt, bw,
                       phi0, gain, evolve_sigma2)

    if workers == 1 or sum(n_groups) == 1:
        parts = [_simulate_lanes(*g) for g in groups()]
    else:
        with ProcessPoolExecutor(max_workers=workers) as ex:
            parts = list(ex.map(_simulate_lanes, *zip(*groups())))

    mse_w, mse_u, slips = (np.concatenate(p) for p in zip(*parts))
    ends = np.cumsum(n_lanes)
    return tuple(tuple(_result(mse_w[lo:lo + trials], mse_u[lo:lo + trials],
                               slips[lo:lo + trials], (n - burn) * c["dt"], c)
                       for lo in range(end - lanes, end, trials))
                 for (_, c, _), (n, burn), end, lanes in zip(runs, steps, ends, n_lanes))


def _result(w, u, slips, obs_time, resolved):
    """One seed's TrackingResult from its per-trial errors and slip counts."""
    trials = len(w)
    mean_w, mean_u = float(w.mean()), float(u.mean())
    return TrackingResult(
        mse_wrapped=mean_w, mse_unwrapped=mean_u,
        stderr=float(w.std(ddof=1) / math.sqrt(trials)) if trials > 1 else float("inf"),
        trials=trials, cycle_slip_rate=float(slips.sum() / (trials * obs_time)),
        slips_significant=bool(mean_u - mean_w > 0.01 * mean_w), **resolved)


def run_tracking(mode: str, beam: BeamParams, dt: float | None = None,
                 duration: float | None = None, burn_in: float | None = None,
                 trials: int = 200, seed: int = 0, workers: int = 1,
                 phi0: float = 0.0, bandwidth: float | None = None,
                 gain: float | None = None, evolve_sigma2: bool = False,
                 noise_dt: float | None = None) -> TrackingResult:
    """Ensemble steady-state tracking error for one configuration: the
    one-seed case of :func:`run_tracking_batch`, which documents it."""
    return _run_batch(mode, [(beam, [seed], bandwidth)], dt, duration, burn_in, trials,
                      workers, phi0, gain, evolve_sigma2, noise_dt, stacklevel=3)[0][0]


def heterodyne_bandwidth_sweep(beam: BeamParams, bandwidths, trials: int = 200,
                               seed: int = 0, workers: int = 1):
    """Run the dual-quadrature tracker at each bandwidth, as the points of one
    batch; returns [(bandwidth, TrackingResult)] in input order (per-bandwidth
    seeds are derived from the master seed and the sweep index)."""
    bandwidths = [float(lam) for lam in bandwidths]
    batch = run_tracking_batch("heterodyne", [(beam, [derive_seed(seed, i)], lam)
                                              for i, lam in enumerate(bandwidths)],
                               trials=trials, workers=workers)
    return [(lam, res) for lam, (res,) in zip(bandwidths, batch)]
