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

The lockstep kernel below is the one stepping route; the tests hold it to
scalar one-step filters of both estimators.  Monte Carlo runs advance lanes,
the trials of one or more seeds, in lockstep groups of at most LANE_GROUP
lanes.  One batch runs every point (beam, seeds, bandwidth) of an experiment;
consecutive points of one shape (steps, burn-in steps, noise refinement) share
groups, each lane carrying its own f, ell, dt and loop rate: the adaptive gain
g or the heterodyne bandwidth lambda, resolved once per point.  Every lane owns
two Gaussian increment streams (phase and shot noise), bitwise numpy's
default_rng([seed, trial, 0|1]); a group hashes all its seed sequences at once
by numpy's SeedSequence rule and draws in place, at most NOISE_BLOCK floats at
a time (2 a lane-step adaptive, 3 heterodyne).  Steps run step major in chunks
of OBS_CHUNK steps, as (steps, lanes) arrays, and the errors are observed once
per chunk: the wrap, the squared sums (still added one step at a time, in step
order) and the cycle-slip count, with the modulo and the winding number
evaluated only where they can differ from the identity and from 0.  So neither
the other lanes, the block or chunk length nor the worker count can change any
result.  Passing ``noise_dt`` draws the increments on a finer grid and sums
them per step, which lets two runs at different dt share identical Wiener paths
for time-step convergence checks.  A batch is refused before any noise is drawn
when it comes to over 2**30 lane-steps, with each lane counted as at least
LANE_COST of them, or when a point's predicted error is too small for the wrap
to resolve (WRAP_MSE_FLOOR).  That prediction, the linearized steady-state MSE
at the point's own loop rate, is computed once per point and returned
as ``TrackingResult.predicted``.  numpy.random loads when a seed is derived or
streams are built, and the process pool only when one starts; it starts at
most as many processes as the CPUs this process may run on, whatever
``workers`` asks for.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import sys
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BeamParams",
    "TrackingResult",
    "adaptive_mse_limit",
    "heterodyne_mse_limit",
    "optimal_bandwidth",
    "loop_time_constant",
    "derive_seed",
    "run_tracking_batch",
    "run_tracking",
]

MODES = ("adaptive", "heterodyne")
# noise floats held at once, 2 a lane-step adaptive and 3 heterodyne (4.6 MiB),
# leaving room for the generators (about 2 kB a lane) held between blocks
NOISE_BLOCK = 600_000
LANE_GROUP = 1024  # lanes in lockstep at once: bounds generators, keeps blocks long
OBS_CHUNK = 16  # steps whose errors are observed at once: bounds their temporaries
LANE_STEP_BUDGET = 2 ** 30  # largest run accepted, in lane-steps
LANE_COST = 300  # a lane's least cost in lane-steps: its set-up takes about 16 us
# Smallest linearized steady-state MSE accepted.  _wrap forms fl(e + pi) - pi,
# so it rounds each error e to a multiple of ulp(pi) = 2**-51: the subtraction
# is exact, the addition errs by r, uniform on +-ulp(pi)/2 once |e| spans a
# few ulps.  The wrapped MSE then carries the bias E[r^2] = ulp(pi)^2/12, and
# holding that to 1% of the MSE needs MSE >= 100 ulp(pi)^2/12 (1.6e-30).
# Far below it every error rounds to 0 and the MSE reads 0.
WRAP_MSE_FLOOR = 100 * math.ulp(math.pi) ** 2 / 12
# numpy's SeedSequence constants: pool hashing (A), state output (B), mixing
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


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
    def N(self) -> float:
        """Photons per coherence time, f/ell (inf for a static phase)."""
        return self.f / self.ell if self.ell > 0 else math.inf


@dataclass(frozen=True)
class TrackingResult:
    """Ensemble- and time-averaged steady-state tracking errors at the
    resolved dt, burn_in, duration and bandwidth, and ``predicted``, the
    linearized steady-state MSE there."""

    mse_wrapped: float
    mse_unwrapped: float
    stderr: float
    burn_in: float
    duration: float
    cycle_slip_rate: float
    slips_significant: bool
    dt: float
    bandwidth: float | None
    predicted: float


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


# --- Monte Carlo engine -----------------------------------------------------

def __getattr__(name):
    """The process pool class, imported on first access (PEP 562) and kept
    in the module: a run at one worker never loads concurrent.futures."""
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor

        globals()[name] = ProcessPoolExecutor
        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def derive_seed(seed: int, index: int) -> int:
    """Seed of sub-run ``index`` (party, sweep point, M value) of the run seeded
    ``seed``: the first word numpy's seed sequence [seed, index] generates."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


@functools.cache
def _words_type():
    """The type of a seed sequence that hands a bit generator its precomputed
    state words, defined on first use: numpy.random loads only where noise is
    drawn or a seed derived."""
    from numpy.random.bit_generator import ISeedSequence

    @dataclass(frozen=True)
    class Words(ISeedSequence):
        words: np.ndarray

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return Words


def _streams(lanes):
    """Each lane's (phase, shot) generators, bitwise default_rng([seed, trial, 0|1])."""

    def hashmix(v, mult=_MULT_A):
        v = v ^ np.uint32(h[0])
        h[0] = h[0] * mult & 0xFFFFFFFF
        v *= np.uint32(h[0])
        return v ^ v >> 16

    def mix(x, y):
        r = x * np.uint32(_MIX_L) - y * np.uint32(_MIX_R)
        return r ^ r >> 16

    seed_words = {seed: [seed >> k & 0xFFFFFFFF for k in range(0, max(seed.bit_length(), 1), 32)]
                  for seed in dict.fromkeys(int(s) for s, _ in lanes)}
    entropy = [[*seed_words[seed], trial, s] for seed, trial in lanes for s in (0, 1)]
    words = np.empty((len(entropy), 8), np.uint32)
    for width in {len(e) for e in entropy}:
        rows = [i for i, e in enumerate(entropy) if len(e) == width]
        cols = list(np.array([entropy[i] for i in rows], np.uint32).T)
        h = [_INIT_A]  # SeedSequence: hashmix into a pool of 4, mix the pool, hash out
        pool = [hashmix(v) for v in (cols + [np.zeros(len(rows), np.uint32)] * 4)[:4]]
        for i, j in itertools.permutations(range(4), 2):
            pool[j] = mix(pool[j], hashmix(pool[i]))
        for v, j in itertools.product(cols[4:], range(4)):
            pool[j] = mix(pool[j], hashmix(v))
        h[0] = _INIT_B
        words[rows] = np.stack([hashmix(pool[k % 4], _MULT_B) for k in range(8)], axis=1)
    words_type = _words_type()
    return [[np.random.Generator(np.random.PCG64(words_type(w))) for w in pair]
            for pair in words.view("<u8").reshape(-1, 2, 4)]


def _noise_columns(lanes, steps: int, refine: int, noise_dt, pair: bool):
    """Yield the lanes' (phase, shot) increments as (lanes, steps) blocks that
    continue each lane's streams, at most NOISE_BLOCK floats (or one step) of
    draws, made in place and scaled once per block by the per-lane
    sqrt(noise_dt); a complex shot pair is drawn through its float view, and
    with ``refine`` > 1 each step sums ``refine`` draws."""
    n = len(lanes)
    streams = _streams(lanes)
    block = max(1, min(steps, NOISE_BLOCK // (n * refine * (3 if pair else 2))))
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
    """Every partial sum start + rows[0] + rows[1] + ..., in place of rows: a row
    loop adds one step at a time, in step order, faster than cumsum."""
    rows[0] += start
    for k in range(1, len(rows)):
        np.add(rows[k - 1], rows[k], out=rows[k])
    return rows


def _heterodyne_dz(p, s, s2a, dt, out):
    """(s2a * np.exp(1j * p) * dt + s).view(float) on floats, into ``out``, with
    s2a and dt per lane repeated twice: glibc's cexp(i y) is (cos y, sin y), and
    complex times real is (a c - b 0, a 0 + b c).  One word differs: at p = -0.0
    with s.imag = -0.0 it is -0.0 here, +0.0 there (1j * p has imag +0.0).  The
    engine never passes p = -0.0: its phases are ``_accumulate``'s partial sums
    from +0.0, and an IEEE sum is -0.0 only when both terms are."""
    np.cos(p, out=out[:, 0::2])
    np.sin(p, out=out[:, 1::2])
    out *= s2a
    out *= dt
    out += s.view(float)
    return out


def _simulate_lanes(mode, steps, burn_steps, refine, lanes, f, ell, dt, rate):
    """Simulate lanes, a list of (seed, trial) pairs with per-lane f, ell, dt and
    rate arrays, in lockstep; returns per-lane (mse_wrapped, mse_unwrapped,
    slips) arrays.  A lane's rate is its point's loop rate as ``_resolve``
    gives it: the adaptive gain g or the heterodyne bandwidth lambda.  Every
    lane starts locked, phi = est = 0: only the error phi - est reaches an
    output, so no absolute phase is an input.  A lane's values depend only on
    its (seed, trial) and its parameters, never on the other lanes, the noise
    block or the chunk of OBS_CHUNK steps whose errors are observed at once."""
    n = len(lanes)
    sl, alpha = np.sqrt(ell), np.sqrt(f)
    phi, est = np.zeros(n), np.zeros(n)
    sq = np.zeros((2, n))  # wrapped and unwrapped squared-error sums
    slips, winding = np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
    heterodyne = mode == "heterodyne"
    states = np.empty((OBS_CHUNK, n), complex if heterodyne else float)

    def observe(e):
        squares = np.empty((len(e), 2, n))
        np.square(_wrap(e), out=squares[:, 0])
        np.square(e, out=squares[:, 1])
        for row in squares:  # one step at a time, in step order
            np.add(sq, row, out=sq)
        # round(e / 2 pi) is 0 where e^2 < 9 (|e| < 3 < pi): only lanes with a
        # larger or nan error in the chunk, or a nonzero winding, can slip
        hot = ~(squares[:, 1].max(axis=0) < 9.0) | (winding != 0)
        if hot.any():
            wind = np.round(e[:, hot] / (2 * np.pi)).astype(np.int64)
            slips[hot] += np.abs(np.diff(wind, axis=0, prepend=winding[None, hot])).sum(axis=0)
            winding[hot] = wind[-1]

    if heterodyne:
        s2a = np.repeat(math.sqrt(2.0) * alpha, 2)  # per float of the complex view
        A, prev_ang = s2a[::2].astype(complex), np.zeros(n)  # locked: arg A = est = 0
        # lam and dt are real: A steps on its float view, bitwise the complex form
        A, lam, dt2 = A.view(float), np.repeat(rate, 2), np.repeat(dt, 2)
        out, dz = states.view(float), np.empty((OBS_CHUNK, 2 * n))
    else:
        two_alpha, g = 2.0 * alpha, rate
    t = np.empty(2 * n if heterodyne else n)  # one step's scratch row
    k0 = 0
    for dwp, dws in _noise_columns(lanes, steps, refine, dt / refine, heterodyne):
        dwp *= sl[:, None]
        for c in range(0, dwp.shape[1], OBS_CHUNK):
            p, s = dwp[:, c:c + OBS_CHUNK].T.copy(), dws[:, c:c + OBS_CHUNK].T.copy()
            phi = _accumulate(phi, p)[-1]  # phi = phi + sqrt(ell) dW, per step
            r = len(p)
            # each update keeps one operand order, est + g I dt / (2 alpha)
            # and A = A + lam (dZ - A dt), so every result is bitwise fixed
            if heterodyne:
                dZ = _heterodyne_dz(p, s, s2a, dt2, dz[:r])
                for k in range(r):
                    np.subtract(dZ[k], np.multiply(A, dt2, out=t), out=t)
                    t *= lam
                    A = np.add(A, t, out=out[k])
                ang = np.angle(states[:r])
                est_rows = _accumulate(est, _wrap(np.diff(ang, axis=0, prepend=prev_ang[None])))
                prev_ang = ang[-1]
            else:
                for k in range(r):
                    np.sin(np.subtract(p[k], est, out=t), out=t)
                    t *= two_alpha
                    t *= dt
                    t += s[k]
                    t *= g
                    t /= two_alpha
                    est = np.add(est, t, out=states[k])
                est_rows = states[:r]
            est = est_rows[-1].copy()
            if k0 + r > burn_steps:
                first = max(0, burn_steps - k0)
                observe(p[first:] - est_rows[first:])
            k0 += r
    return sq[0] / (steps - burn_steps), sq[1] / (steps - burn_steps), slips


def run_tracking_batch(mode: str, points, *, dt: float | None = None,
                       duration: float | None = None, burn_in: float | None = None,
                       trials: int = 200, workers: int = 1, gain: float | None = None,
                       noise_dt: float | None = None) -> tuple[tuple[TrackingResult, ...], ...]:
    """Ensemble steady-state tracking error at each point of one experiment.

    A point is a ``(beam, seeds, bandwidth)`` triple, where a bandwidth of
    None means the optimal one in heterodyne mode, and is the only bandwidth
    adaptive mode takes; ``gain``, adaptive mode only, replaces the loop's
    default gain ell/sigma^2.  The result holds one tuple per point of one
    :class:`TrackingResult` per seed, each bitwise that of :func:`run_tracking`
    at that point and seed.  The trials of all points run as lanes, in lockstep
    groups that consecutive points of one step count share, on at most one
    pool of ``workers`` processes, capped at the CPUs this process may run on.

    ``predicted`` is the linearized steady-state MSE at the loop's gain g or
    the filter's bandwidth lambda: lag ell/(2g) plus shot noise g/(8f)
    adaptive, ell/(2 lambda) + lambda/(4f) heterodyne.  At the default gain
    and at the optimal bandwidth (the resolved bandwidth equal to
    :func:`optimal_bandwidth`) it is the closed form
    :func:`adaptive_mse_limit` or :func:`heterodyne_mse_limit` of N.

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
    negative burn_in, trials or workers below 1, a gain or bandwidth that is
    not positive and finite, a bandwidth in adaptive mode, a gain in
    heterodyne mode, a noise_dt that is not positive and finite or does not
    divide dt, a point whose ``predicted`` is below WRAP_MSE_FLOOR, or a
    batch over LANE_STEP_BUDGET lane-steps, summed over all points with each
    lane counted as at least LANE_COST lane-steps; and before any noise is
    drawn for a seed that is not a nonnegative integer.  Each point's seeds
    are iterated once.
    """
    return _run_batch(mode, points, dt, duration, burn_in, trials, workers, gain, noise_dt)


def _resolve(mode, beam, bandwidth, dt, duration, burn_in, gain, noise_dt):
    """A point's loop rate, its resolved dt, burn_in, duration, bandwidth and
    predicted MSE (as TrackingResult fields), and its noise refinement.

    The loop rate is the adaptive gain g, by default Berry and Wiseman's
    ell/sigma^2 at the stationary sigma^2 = 1/(2 sqrt N), or the heterodyne
    bandwidth lambda, by default the optimal one; its inverse is the loop
    time constant.  Every input is checked here, before any seed is iterated."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    adaptive = mode == "adaptive"
    if adaptive and bandwidth is not None:
        raise ValueError(f"bandwidth {bandwidth!r} is for heterodyne mode only")
    if not adaptive and gain is not None:
        raise ValueError(f"gain {gain!r} is for adaptive mode only")
    rate = gain if adaptive else optimal_bandwidth(beam) if bandwidth is None else bandwidth
    if rate is None:  # the closed form; the default gain follows from it below
        tau = loop_time_constant(beam, mode)  # refuses ell = 0
        predicted = adaptive_mse_limit(beam.N)
    else:
        if not 0 < rate < math.inf:
            raise ValueError(f"{'gain' if adaptive else 'bandwidth'} must be positive "
                             f"and finite, not {rate!r}")
        tau = 1.0 / rate
        # lag ell/(2r) plus shot noise r/(8f) adaptive or r/(4f) heterodyne,
        # or the closed form at the optimal bandwidth; the choice reads only
        # resolved values, which a sidecar echoes
        predicted = beam.ell / (2 * rate) + rate / ((8 if adaptive else 4) * beam.f) \
            if adaptive or rate != optimal_bandwidth(beam) else heterodyne_mse_limit(beam.N)
    if not predicted >= WRAP_MSE_FLOOR:
        raise ValueError(f"predicted steady-state MSE {predicted:.3g} is below "
                         f"{WRAP_MSE_FLOOR:.3g}, the least that the error wrap resolves to 1%")
    if rate is None:  # ell/sigma^2, sigma^2 = predicted = 1/(2 sqrt(f/ell))
        rate = beam.ell / predicted
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
        # 0 for a noise_dt that is not positive, is nan or inf, or is so
        # small that dt / noise_dt overflows
        refine = round(dt / noise_dt) if 0 < noise_dt and dt / noise_dt < math.inf else 0
        if refine < 1 or abs(refine * noise_dt - dt) > 1e-9 * dt:
            raise ValueError(f"noise_dt must be positive and finite and divide dt, "
                             f"not {noise_dt!r}")
    return rate, dict(dt=dt, burn_in=burn_in, duration=duration,
                      bandwidth=None if adaptive else rate, predicted=predicted), refine


def _run_batch(mode, points, dt, duration, burn_in, trials, workers, gain, noise_dt):
    if not points or min(len(seeds) for _, seeds, _ in points) < 1 or trials < 1 \
            or workers < 1:
        raise ValueError("points, seeds, trials and workers must each number at least 1")
    runs = [_resolve(mode, beam, bandwidth, dt, duration, burn_in, gain, noise_dt)
            for beam, _, bandwidth in points]
    if trials < 100:
        warnings.warn("fewer than 100 trials: MSE estimate will be noisy", stacklevel=3)
    if any(c["duration"] < c["burn_in"] + 20.0 / rate * (1 - 1e-9) for rate, c, _ in runs):
        warnings.warn("duration below burn_in + 20 loop time constants", stacklevel=3)
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
    # each point's seeds, iterated once; the stream hash reads a seed's
    # uint32 words, which a negative int lacks
    seeds = [list(point_seeds) for _, point_seeds, _ in points]
    for seed in itertools.chain.from_iterable(seeds):
        if not (isinstance(seed, (int, np.integer)) and seed >= 0):
            raise ValueError(f"seed {seed!r} is not a nonnegative integer")

    workers = min(workers, _usable_cpus())  # a pool starts all its processes at once
    # consecutive points of one shape (steps, burn_steps, refine) share groups
    # of at most LANE_GROUP lanes, a multiple of workers of them; each group
    # lists its (seed, trial) lanes and their parameters only when it is run
    shapes = [(*counts, refine) for counts, (_, _, refine) in zip(steps, runs)]
    spans = [list(span) for _, span in itertools.groupby(range(len(points)), shapes.__getitem__)]
    span_lanes = [sum(n_lanes[i] for i in span) for span in spans]
    n_groups = [min(n, workers * -(-n // (workers * LANE_GROUP))) for n in span_lanes]

    def groups():
        for span, n, k in zip(spans, span_lanes, n_groups):
            lanes = ((seed, trial, points[i][0], *runs[i][:2]) for i in span
                     for seed in seeds[i] for trial in range(trials))
            for size in np.diff(np.linspace(0, n, k + 1).astype(int)):
                group = [next(lanes) for _ in range(size)]
                f, ell, lane_dt, rate = np.array([(beam.f, beam.ell, c["dt"], rate)
                                                  for *_, beam, rate, c in group]).T.copy()
                yield mode, *shapes[span[0]], [lane[:2] for lane in group], f, ell, lane_dt, rate

    if workers == 1 or sum(n_groups) == 1:
        parts = [_simulate_lanes(*g) for g in groups()]
    else:
        # the module attribute, so that a replacement of it is the pool started
        with sys.modules[__name__].ProcessPoolExecutor(max_workers=workers) as ex:
            parts = list(ex.map(_simulate_lanes, *zip(*groups())))

    mse_w, mse_u, slips = (np.concatenate(p) for p in zip(*parts))
    ends = np.cumsum(n_lanes)
    return tuple(tuple(_result(mse_w[lo:lo + trials], mse_u[lo:lo + trials],
                               slips[lo:lo + trials], (n - burn) * c["dt"], c)
                       for lo in range(end - lanes, end, trials))
                 for (_, c, _), (n, burn), end, lanes in zip(runs, steps, ends, n_lanes))


def _usable_cpus():
    """The number of CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _result(w, u, slips, obs_time, resolved):
    """One seed's TrackingResult from its per-trial errors and slip counts."""
    trials = len(w)
    mean_w, mean_u = float(w.mean()), float(u.mean())
    return TrackingResult(
        mse_wrapped=mean_w, mse_unwrapped=mean_u,
        stderr=float(w.std(ddof=1) / math.sqrt(trials)) if trials > 1 else float("inf"),
        cycle_slip_rate=float(slips.sum() / (trials * obs_time)),
        slips_significant=bool(mean_u - mean_w > 0.01 * mean_w), **resolved)


def run_tracking(mode: str, beam: BeamParams, dt: float | None = None,
                 duration: float | None = None, burn_in: float | None = None,
                 trials: int = 200, seed: int = 0, workers: int = 1,
                 bandwidth: float | None = None, gain: float | None = None,
                 noise_dt: float | None = None) -> TrackingResult:
    """Ensemble steady-state tracking error for one configuration: the
    one-seed case of :func:`run_tracking_batch`, which documents it."""
    return _run_batch(mode, [(beam, [seed], bandwidth)], dt, duration, burn_in, trials,
                      workers, gain, noise_dt)[0][0]

