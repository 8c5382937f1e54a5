import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy.integrate import solve_ivp

import oracles
from dispatch import pinned
from laserclock import tracking as tr


def test_step_phase_static_when_ell_zero():
    beam = tr.BeamParams(f=100.0, ell=0.0)
    phi, est = 0.3, 0.3
    for _ in range(10):
        phi, est = oracles.adaptive_step(phi, est, beam, 0.1, 0.5, dw_phase=1.7, dw_shot=0.0)
    assert phi == 0.3


def test_phase_diffusion_variance_and_coherence():
    # Var(phi) = ell*t exactly (driftless diffusion), and the ensemble
    # coherence |<e^{i phi}>| decays as e^{-ell t / 2}; sigma2 = 1e3 keeps
    # the loop gain ell/sigma2 small enough for the one step of length t
    ell, t, trials = 0.01, 100.0, 10 ** 4
    beam = tr.BeamParams(f=1.0, ell=ell)
    rng = np.random.default_rng(42)
    phis = np.empty(trials)
    for i in range(trials):
        phis[i], _ = oracles.adaptive_step(0.0, 0.0, beam, 1e3, t,
                                           dw_phase=rng.standard_normal() * math.sqrt(t),
                                           dw_shot=0.0)
    assert np.var(phis) == pytest.approx(ell * t, rel=0.05)
    assert abs(np.mean(np.exp(1j * phis))) == pytest.approx(math.exp(-ell * t / 2), rel=0.03)


def _photocurrent(phi, est, beam, sigma2, dt, dw_shot):
    """The photocurrent I dt that moved the adaptive step's estimate by
    (ell/sigma2) I dt / (2 alpha); no phase noise, so phi stays put."""
    _, after = oracles.adaptive_step(phi, est, beam, sigma2, dt, 0.0, dw_shot)
    return (after - est) * 2 * math.sqrt(beam.f) * sigma2 / beam.ell


def test_photocurrent_trivial_points():
    # the LO sits at est + pi/2: in phase with the beam (phi = est + pi/2)
    # the photocurrent is 2 alpha dt, at the null point (phi = est) it is 0
    beam = tr.BeamParams(f=25.0, ell=1.0)
    dt = 1e-3
    assert _photocurrent(0.4 + np.pi / 2, 0.4, beam, 100.0, dt, 0.0) == \
        pytest.approx(2 * 5.0 * dt)
    assert abs(_photocurrent(0.4, 0.4, beam, 100.0, dt, 0.0)) < 1e-15


def test_photocurrent_linearization():
    # near the null point: I dt ~ 2 alpha e dt + dW
    beam = tr.BeamParams(f=100.0, ell=1.0)
    dt, e = 1e-3, 1e-3
    assert _photocurrent(0.0, -e, beam, 100.0, dt, 0.25) == \
        pytest.approx(2 * 10.0 * e * dt + 0.25, rel=1e-5)


def test_adaptive_noise_free_decay_rate():
    # error decays at rate ell/sigma2_ss = 2 ell sqrt(N); oracle: the
    # deterministic ODE de/dt = -g sin(e)
    f, ell = 1e4, 1.0
    beam = tr.BeamParams(f=f, ell=ell)
    g = 2 * ell * math.sqrt(beam.N)
    dt = 1e-2 / g
    phi, est = 0.1, 0.0
    # suppress the diffusion: zero noise in both streams
    ts, es = dt * np.arange(1, 301), []
    for _ in ts:
        phi, est = oracles.adaptive_step(phi, est, beam, tr.adaptive_mse_limit(beam.N), dt,
                                         0.0, 0.0)
        es.append(phi - est)
    rate = -np.polyfit(ts, np.log(np.abs(es)), 1)[0]
    sol = solve_ivp(lambda t, y: -g * np.sin(y), [0, ts[-1]], [0.1], rtol=1e-10)
    oracle_rate = -np.log(sol.y[0, -1] / 0.1) / ts[-1]
    assert rate == pytest.approx(oracle_rate, rel=0.10)
    assert rate == pytest.approx(g, rel=0.10)


def test_adaptive_steady_state_mse():
    beam = tr.BeamParams(f=1e4, ell=1.0)
    res = tr.run_tracking("adaptive", beam, trials=200, seed=7)
    assert res.mse_wrapped == pytest.approx(tr.adaptive_mse_limit(1e4), rel=0.10)
    assert res.mse_wrapped <= np.pi ** 2 / 3 + 1e-9


def test_adaptive_static_phase_with_explicit_gain():
    # ell = 0, sigma2 frozen: MSE is shot-noise limited, proportional to the
    # chosen gain (G/(8f) after linearization), decreasing as G -> 0
    beam = tr.BeamParams(f=1e3, ell=0.0)
    mses = []
    for gain in [20.0, 10.0, 5.0]:
        res = tr.run_tracking("adaptive", beam, gain=gain, trials=100, seed=3)
        mses.append(res.mse_wrapped)
        assert res.mse_wrapped == pytest.approx(gain / (8 * beam.f), rel=0.15)
    assert mses[0] > mses[1] > mses[2]


def test_variance_ode_convergence_against_ivp_oracle():
    # the engine's gain ell/sigma2 uses the closed-form stationary variance
    # 1/(2 sqrt(N)); an independent route: integrate the filter's variance
    # ODE d(sigma^2)/dt = ell - 4 f sigma^4 from sigma^2 = 1 for 20 time
    # constants 1/(2 ell sqrt(N)) and compare the end point
    for f, ell in [(100.0, 1.0), (1e4, 1.0), (2e3, 0.5), (50.0, 8.0)]:
        beam = tr.BeamParams(f=f, ell=ell)
        t_end = 20 / (2 * ell * math.sqrt(beam.N))
        sol = solve_ivp(lambda t, y: ell - 4 * f * y ** 2, [0, t_end], [1.0],
                        method="LSODA", rtol=1e-12, atol=1e-14)
        assert tr.adaptive_mse_limit(beam.N) == pytest.approx(float(sol.y[0, -1]), rel=0.01)
    assert tr.adaptive_mse_limit(tr.BeamParams(f=1e4, ell=1.0).N) == pytest.approx(0.005)


def test_heterodyne_minimum_matches_limit():
    beam = tr.BeamParams(f=1e4, ell=1.0)
    res = tr.run_tracking("heterodyne", beam, trials=200, seed=11)
    assert res.mse_wrapped == pytest.approx(tr.heterodyne_mse_limit(beam.N), rel=0.15)


def test_heterodyne_optimal_bandwidth_location():
    # sweep a log grid; the minimum should sit at ~sqrt(2 f ell), and the
    # simulated curve should match the analytic lag/noise balance
    beam = tr.BeamParams(f=1e3, ell=1.0)
    lam_star = tr.optimal_bandwidth(beam)
    grid = lam_star * np.logspace(-0.6, 0.6, 7)
    batch = tr.run_tracking_batch("heterodyne", [(beam, [tr.derive_seed(2, i)], float(lam))
                                                 for i, lam in enumerate(grid)], trials=100)
    results = [(lam, res) for lam, (res,) in zip(grid, batch)]
    mses = [r.mse_wrapped for _, r in results]
    for (lam, r) in results:
        analytic = beam.ell / (2 * lam) + lam / (4 * beam.f)
        assert r.mse_wrapped == pytest.approx(analytic, rel=0.15)
    best = int(np.argmin(mses))
    assert grid[best] / lam_star == pytest.approx(1.0, rel=0.7)


def test_heterodyne_static_phase_vanishing_bandwidth():
    # ell = 0: MSE -> 0 as the filter bandwidth shrinks
    beam = tr.BeamParams(f=100.0, ell=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        mses = [tr.run_tracking("heterodyne", beam, bandwidth=lam, trials=50,
                                seed=5).mse_wrapped
                for lam in [10.0, 1.0, 0.1]]
    assert mses[0] > mses[1] > mses[2]
    assert mses[-1] < 1e-3


def test_run_tracking_deterministic():
    beam = tr.BeamParams(f=1e3, ell=1.0)
    r1 = tr.run_tracking("adaptive", beam, trials=100, seed=9)
    r2 = tr.run_tracking("adaptive", beam, trials=100, seed=9)
    assert r1 == r2


def test_worker_count_does_not_change_results():
    beam = tr.BeamParams(f=1e3, ell=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        r1 = tr.run_tracking("adaptive", beam, trials=64, seed=9, workers=1)
        r2 = tr.run_tracking("adaptive", beam, trials=64, seed=9, workers=3)
    assert r1 == r2


def _one_trial(mode, beam, steps, burn, seed):
    """run_tracking's trials=1 wrapped MSE over steps, after burn, at 1e-2
    loop time constants a step."""
    dt = 1e-2 * tr.loop_time_constant(beam, mode)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return dt, tr.run_tracking(mode, beam, dt=dt, duration=steps * dt, burn_in=burn * dt,
                                   trials=1, seed=seed).mse_wrapped


def test_vectorized_engine_matches_single_step_ops():
    # one trial driven by the scalar adaptive step must reproduce the
    # Monte Carlo engine's wrapped MSE
    beam, steps, burn = tr.BeamParams(f=400.0, ell=1.0), 400, 150
    dt, mse = _one_trial("adaptive", beam, steps, burn, seed=21)
    dwp = np.random.default_rng([21, 0, 0]).standard_normal(steps) * math.sqrt(dt)
    dws = np.random.default_rng([21, 0, 1]).standard_normal(steps) * math.sqrt(dt)
    phi, est, acc = 0.0, 0.0, 0.0
    for k in range(steps):
        phi, est = oracles.adaptive_step(phi, est, beam, tr.adaptive_mse_limit(beam.N), dt,
                                         dwp[k], dws[k])
        if k >= burn:
            acc += oracles.wrap(phi - est) ** 2
    assert mse == pytest.approx(acc / (steps - burn), rel=1e-8)


def test_heterodyne_engine_matches_single_step_filter():
    # one trial of the scalar dual-quadrature filter, its complex shot noise
    # drawn through the float view as the engine draws it, reproduces the
    # engine's wrapped MSE
    beam, steps, burn = tr.BeamParams(f=400.0, ell=1.0), 400, 150
    dt, mse = _one_trial("heterodyne", beam, steps, burn, seed=23)
    dwp = np.random.default_rng([23, 0, 0]).standard_normal(steps) * math.sqrt(dt)
    dzs = np.random.default_rng([23, 0, 1]).standard_normal(2 * steps).view(complex) \
        * math.sqrt(dt)
    phi, A, est, acc = 0.0, math.sqrt(2.0) * math.sqrt(beam.f) + 0j, 0.0, 0.0
    for k in range(steps):
        phi, A, est = oracles.heterodyne_step(phi, A, est, beam, tr.optimal_bandwidth(beam), dt,
                                              dwp[k], dzs[k])
        if k >= burn:
            acc += oracles.wrap(phi - est) ** 2
    assert mse == pytest.approx(acc / (steps - burn), rel=1e-8)


def test_scaling_collapse():
    # MSE depends on (f, ell) only through N = f/ell
    r1 = tr.run_tracking("adaptive", tr.BeamParams(f=1e3, ell=1.0), trials=200, seed=4)
    r2 = tr.run_tracking("adaptive", tr.BeamParams(f=1e4, ell=10.0), trials=200, seed=5)
    joint = math.hypot(r1.stderr, r2.stderr)
    assert abs(r1.mse_wrapped - r2.mse_wrapped) < 4 * joint


def test_adaptive_mse_scales_as_inverse_sqrt_N():
    Ns = [1e2, 1e3, 1e4]
    mses = [tr.run_tracking("adaptive", tr.BeamParams(f=N, ell=1.0),
                            trials=200, seed=6).mse_wrapped for N in Ns]
    slope = np.polyfit(np.log(Ns), np.log(mses), 1)[0]
    assert slope == pytest.approx(-0.5, abs=0.05)


def test_dt_halving_with_shared_noise():
    beam = tr.BeamParams(f=1e3, ell=1.0)
    dt = 1e-2 * tr.loop_time_constant(beam, "adaptive")
    coarse = tr.run_tracking("adaptive", beam, dt=dt, trials=100, seed=8, noise_dt=dt / 2)
    fine = tr.run_tracking("adaptive", beam, dt=dt / 2, trials=100, seed=8, noise_dt=dt / 2)
    assert coarse.mse_wrapped == pytest.approx(fine.mse_wrapped, rel=0.02)


def test_cycle_slips_flagged_at_low_N():
    # N = 4 is far outside the linear regime: the loop slips and says so
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        bad = tr.run_tracking("adaptive", tr.BeamParams(f=4.0, ell=1.0),
                              trials=100, seed=17)
        good = tr.run_tracking("adaptive", tr.BeamParams(f=1e4, ell=1.0),
                               trials=100, seed=17)
    assert bad.cycle_slip_rate > 0
    assert bad.mse_unwrapped > 1.5 * bad.mse_wrapped
    assert bad.slips_significant
    assert good.cycle_slip_rate == 0.0
    assert not good.slips_significant


def test_run_tracking_validation_and_warnings():
    beam = tr.BeamParams(f=1e3, ell=1.0)
    with pytest.raises(ValueError):
        tr.run_tracking("balanced", beam)
    with pytest.raises(ValueError):
        tr.run_tracking("adaptive", tr.BeamParams(f=10.0, ell=0.0))
    with pytest.warns(UserWarning, match="trials"):
        tr.run_tracking("adaptive", beam, trials=10, seed=0)
    with pytest.raises(ValueError):
        tr.run_tracking("adaptive", beam, dt=1.0, noise_dt=0.3)

    class Unread:  # seeds that fail the test if iterated
        def __len__(self):
            return 1

        def __iter__(self):
            raise AssertionError("seeds iterated before noise_dt was refused")

    # a noise_dt that is not positive and finite, or so small that dt /
    # noise_dt overflows, is named before any seed is iterated
    for noise_dt in (0.0, -0.0, math.nan, math.inf, -1e-3, 5e-324):
        with pytest.raises(ValueError, match="noise_dt"):
            tr.run_tracking("adaptive", beam, noise_dt=noise_dt)
        for mode in tr.MODES:
            with pytest.raises(ValueError, match="noise_dt"):
                tr.run_tracking_batch(mode, [(beam, Unread(), None)], noise_dt=noise_dt)


def test_beam_params_validation():
    with pytest.raises(ValueError):
        tr.BeamParams(f=0.0, ell=1.0)
    with pytest.raises(ValueError):
        tr.BeamParams(f=1.0, ell=-1.0)
    for f, ell in [(math.inf, 1.0), (math.nan, 1.0), (1.0, math.inf), (1.0, math.nan)]:
        with pytest.raises(ValueError):
            tr.BeamParams(f=f, ell=ell)
    assert tr.BeamParams(f=10.0, ell=0.0).N == math.inf


def test_derive_seed_is_pinned():
    # old sidecars name only the master seed: the derivation must never move
    for (s, i), want in {(0, 0): 2968811710, (7, 3): 3466196061,
                         (2, 1004): 1201848496, (123456789, 15): 2763662145}.items():
        assert tr.derive_seed(s, i) == want
        assert tr.derive_seed(s, i) == int(np.random.SeedSequence([s, i]).generate_state(1)[0])


def test_noise_block_length_changes_no_result(monkeypatch):
    # short noise blocks, aligned with neither burn-in (1000 steps), the run's
    # end (3000 steps) nor the observation chunk, reproduce the single-block
    # default exactly
    beam = tr.BeamParams(f=1e3, ell=1.0)
    dt = 1e-2 * tr.loop_time_constant(beam, "adaptive")
    configs = [dict(mode="adaptive"), dict(mode="heterodyne"),
               dict(mode="adaptive", dt=dt, noise_dt=dt / 2)]

    def runs():
        return [tr.run_tracking(beam=beam, trials=100, seed=4, **c) for c in configs]

    default = runs()
    # 100 lanes at 2, 3 and 2 x 2 floats a lane-step: 14-, 9- and 7-step blocks
    monkeypatch.setattr(tr, "NOISE_BLOCK", 2900)
    assert runs() == default


def test_batch_equals_one_seed_runs():
    beam = tr.BeamParams(f=1e3, ell=1.0)
    (batch,) = tr.run_tracking_batch("heterodyne", [(beam, [3, 8], None)], trials=100,
                                     workers=2)
    assert batch == tuple(tr.run_tracking("heterodyne", beam, trials=100, seed=s)
                          for s in (3, 8))
    assert batch[0].dt == 1e-2 * tr.loop_time_constant(beam, "heterodyne")
    assert batch[0].bandwidth == tr.optimal_bandwidth(beam)
    with pytest.raises(ValueError):
        tr.run_tracking_batch("heterodyne", [(beam, [], None)])
    with pytest.raises(ValueError):
        tr.run_tracking_batch("heterodyne", [])


def test_multi_point_batch_equals_per_point_runs():
    # points of different beams and bandwidths: the auto durations differ, so
    # at one explicit dt the points run different step counts
    wide, narrow = tr.BeamParams(f=1e3, ell=1.0), tr.BeamParams(f=2e3, ell=0.5)
    points = [(wide, [3, 8], None), (narrow, [5], 20.0), (wide, [3], 80.0)]
    dt = 5e-4
    batch = tr.run_tracking_batch("heterodyne", points, dt=dt, trials=100, workers=2)
    assert batch == tuple(tuple(tr.run_tracking("heterodyne", beam, dt=dt, trials=100,
                                                seed=s, bandwidth=bw) for s in seeds)
                          for beam, seeds, bw in points)
    assert [p[0].bandwidth for p in batch] == [tr.optimal_bandwidth(wide), 20.0, 80.0]
    assert len({round(p[0].duration / dt) for p in batch}) == 3
    assert batch[0][0] != batch[2][0]


@settings(max_examples=12, deadline=None, derandomize=True)
@given(mode=st.sampled_from(tr.MODES), trials=st.integers(1, 3),
       timing=st.sampled_from([{}, dict(duration=0.05, burn_in=0.01)]),
       points=st.lists(st.tuples(st.floats(30.0, 3e3), st.floats(0.5, 2.0),
                                 st.lists(st.integers(0, 2 ** 32 - 1), min_size=1, max_size=2),
                                 st.sampled_from([None, 0.5, 2.0])),
                       min_size=1, max_size=3))
def test_batch_property_equals_per_point_runs(mode, trials, timing, points):
    # random small batches equal their points run one seed at a time; with
    # an explicit duration each point's own auto dt sets its step count; only
    # a heterodyne point takes a bandwidth
    points = [(tr.BeamParams(f=n * ell, ell=ell), seeds,
               None if k is None or mode == "adaptive" else k * math.sqrt(2 * n) * ell)
              for n, ell, seeds, k in points]  # k x optimal
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        batch = tr.run_tracking_batch(mode, points, trials=trials, **timing)
        assert batch == tuple(tuple(tr.run_tracking(mode, beam, trials=trials, seed=s,
                                                    bandwidth=bw, **timing) for s in seeds)
                              for beam, seeds, bw in points)


def test_lane_groups_are_capped_and_change_no_result(monkeypatch):
    # 3 seeds x 100 trials in groups of at most 70 lanes (uneven, crossing
    # seeds) reproduce the one-group default at 1 and 2 workers
    beam = tr.BeamParams(f=1e3, ell=1.0)
    default = tr.run_tracking_batch("adaptive", [(beam, [1, 2, 3], None)], trials=100)
    sizes = []
    simulate = tr._simulate_lanes

    def recording(*args):
        sizes.append(len(args[4]))
        return simulate(*args)

    monkeypatch.setattr(tr, "_simulate_lanes", recording)
    monkeypatch.setattr(tr, "LANE_GROUP", 70)
    assert tr.run_tracking_batch("adaptive", [(beam, [1, 2, 3], None)],
                                 trials=100) == default
    assert sizes == [60] * 5
    monkeypatch.setattr(tr, "_simulate_lanes", simulate)  # workers pickle it
    assert tr.run_tracking_batch("adaptive", [(beam, [1, 2, 3], None)], trials=100,
                                 workers=2) == default


def test_warnings_name_the_caller():
    beam = tr.BeamParams(f=1e3, ell=1.0)
    dt = 1e-2 * tr.loop_time_constant(beam, "adaptive")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        tr.run_tracking("adaptive", beam, trials=2, burn_in=0.0, duration=10 * dt)
        tr.run_tracking_batch("adaptive", [(beam, [0], None)], trials=2, burn_in=0.0,
                              duration=10 * dt)
    assert len(caught) == 4
    assert {w.filename for w in caught} == {__file__}


def _no_noise(*args, **kw):
    raise AssertionError("noise drawn")


@pytest.mark.parametrize("kwargs", [
    dict(dt=0.0), dict(dt=-1e-4), dict(dt=math.inf), dict(dt=math.nan),
    dict(duration=0.0), dict(duration=math.inf), dict(burn_in=-0.01),
    dict(burn_in=math.nan), dict(trials=0), dict(workers=0),
    dict(dt=1e-12),                      # 200 x 1.5e10 lane-steps
    dict(gain=0.0), dict(gain=-1.0), dict(gain=math.nan), dict(gain=math.inf),
    dict(seed=-1), dict(seed=2.0),
    dict(bandwidth=10.0),                # the adaptive loop has no filter bandwidth
])
def test_run_tracking_refuses_before_drawing_noise(monkeypatch, kwargs):
    monkeypatch.setattr(tr, "_noise_columns", _no_noise)
    with pytest.raises(ValueError):
        tr.run_tracking("adaptive", tr.BeamParams(f=1e3, ell=1.0), **kwargs)


def test_bad_gain_and_seeds_are_named_before_drawing_noise(monkeypatch):
    monkeypatch.setattr(tr, "_noise_columns", _no_noise)
    beam = tr.BeamParams(f=1e3, ell=1.0)
    for gain in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="gain"):
            tr.run_tracking("adaptive", beam, gain=gain)
    with pytest.raises(ValueError, match="seed -1 "):
        tr.run_tracking("adaptive", beam, seed=-1)
    with pytest.raises(ValueError, match="seed -1 "):
        tr.run_tracking_batch("heterodyne", [(beam, [3], None), (beam, [3, -1], None)])
    # a gain steers the adaptive loop only; heterodyne would ignore it
    with pytest.raises(ValueError, match="gain 5.0 is for adaptive mode only"):
        tr.run_tracking("heterodyne", beam, gain=5.0, trials=2, seed=1)
    with pytest.raises(ValueError, match="gain 5.0 is for adaptive mode only"):
        tr.run_tracking_batch("heterodyne", [(beam, [1], None)], gain=5.0, trials=2)


def test_errors_below_the_wrap_resolution_are_refused(monkeypatch):
    # N = 1e50 predicts MSE 5e-26 (adaptive), far above WRAP_MSE_FLOOR, and
    # runs on its prediction; at N = 1e300 every error would round to 0 in
    # fl(e + pi) - pi, so the run is refused before any noise is drawn
    for mode, limit in [("adaptive", tr.adaptive_mse_limit),
                        ("heterodyne", tr.heterodyne_mse_limit)]:
        res = tr.run_tracking(mode, tr.BeamParams(f=1e50, ell=1.0), trials=100, seed=3)
        assert res.mse_wrapped == pytest.approx(limit(1e50), rel=0.15)
    monkeypatch.setattr(tr, "_noise_columns", _no_noise)
    for mode in tr.MODES:
        with pytest.raises(ValueError, match="error wrap"):
            tr.run_tracking(mode, tr.BeamParams(f=1e300, ell=1.0))
    with pytest.raises(ValueError, match="error wrap"):
        tr.run_tracking("adaptive", tr.BeamParams(f=1e3, ell=0.0), gain=1e-40)


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_default_gain_runs_bitwise_as_that_gain_given():
    # the default gain ell/sigma^2 with sigma^2 = 1/(2 sqrt(f/ell)), in the
    # operand order the kernel once derived it in per lane: given explicitly,
    # it reproduces the default run bit for bit, one point at a time and as
    # lanes of one group of mixed N (N = 1 slips)
    timing = dict(dt=2e-3, duration=8.0, burn_in=2.0, trials=20)
    beams = [tr.BeamParams(f=f, ell=1.0) for f in (1.0, 100.0, 1e3)]
    seeds = [3, 4]

    def values(res):
        return res.mse_wrapped, res.mse_unwrapped, res.stderr, res.cycle_slip_rate

    def at_gain(beam, seed):
        gain = beam.ell / (1.0 / (2.0 * math.sqrt(beam.f / beam.ell)))
        return values(tr.run_tracking("adaptive", beam, seed=seed, gain=gain, **timing))

    batch = tr.run_tracking_batch("adaptive", [(beam, seeds, None) for beam in beams], **timing)
    assert batch[0][0].cycle_slip_rate > 0
    for beam, results in zip(beams, batch):
        for seed, res in zip(seeds, results):
            assert values(res) == at_gain(beam, seed)
            assert values(tr.run_tracking("adaptive", beam, seed=seed, **timing)) == \
                at_gain(beam, seed)


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_prediction_is_the_linearized_mse_at_the_run_gain_or_bandwidth():
    # the closed forms at the default gain and at the optimal bandwidth, and
    # lag plus shot noise at any other: ell/(2g) + g/(8f) adaptive,
    # ell/(2 lambda) + lambda/(4f) heterodyne
    beam = tr.BeamParams(f=1e4, ell=1.0)

    def predicted(mode, beam=beam, **kw):
        return tr.run_tracking(mode, beam, trials=1, seed=1, **kw).predicted

    assert predicted("adaptive") == tr.adaptive_mse_limit(beam.N)
    for gain in (50.0, 400.0):
        assert predicted("adaptive", gain=gain) == beam.ell / (2 * gain) + gain / (8 * beam.f)
    static = tr.BeamParams(f=1e3, ell=0.0)
    assert predicted("adaptive", static, gain=10.0) == 10.0 / (8 * static.f)
    for bandwidth in (None, tr.optimal_bandwidth(beam)):
        assert predicted("heterodyne", bandwidth=bandwidth) == tr.heterodyne_mse_limit(beam.N)
    assert predicted("heterodyne", bandwidth=50.0) == beam.ell / 100.0 + 50.0 / (4 * beam.f)


def test_workers_are_capped_at_the_usable_cpus(monkeypatch):
    # a pool starts all its processes at once, so it is asked for at most
    # the CPUs this process may run on, whatever workers is; the fake pool
    # records its size and maps serially, so no process starts
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(tr.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(tr.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(tr, "ProcessPoolExecutor", SerialPool, raising=False)
    beam = tr.BeamParams(f=1e3, ell=1.0)
    one = tr.run_tracking("adaptive", beam, trials=200, seed=4)
    assert tr.run_tracking("adaptive", beam, trials=200, seed=4, workers=10 ** 6) == one
    monkeypatch.delattr(tr.os, "sched_getaffinity")  # the os.cpu_count route
    assert tr.run_tracking("adaptive", beam, trials=200, seed=4, workers=10 ** 6) == one
    assert sizes == [2, 2]


def test_observation_chunk_changes_no_result(monkeypatch):
    # errors observed 1 or 7 steps at a time (7 aligns with neither burn-in
    # nor the noise block) reproduce the default chunk exactly, in both modes,
    # with cycle slips, a finer noise grid and an explicit gain at ell = 0
    beam = tr.BeamParams(f=1e3, ell=1.0)
    dt = 1e-2 * tr.loop_time_constant(beam, "adaptive")
    configs = [dict(mode="adaptive"), dict(mode="heterodyne"),
               dict(mode="adaptive", beam=tr.BeamParams(f=2.0, ell=1.0)),
               dict(mode="adaptive", beam=tr.BeamParams(f=4.0, ell=1.0)),
               dict(mode="heterodyne", beam=tr.BeamParams(f=2.0, ell=1.0)),
               dict(mode="heterodyne", beam=tr.BeamParams(f=4.0, ell=1.0)),
               dict(mode="adaptive", dt=dt, noise_dt=dt / 2),
               dict(mode="heterodyne", dt=dt, noise_dt=dt / 2),
               dict(mode="adaptive", beam=tr.BeamParams(f=1e3, ell=0.0), gain=10.0)]

    def runs():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            return [tr.run_tracking(**{"beam": beam, **c}, trials=30, seed=30) for c in configs]

    default = runs()
    assert all(r.cycle_slip_rate > 0 for r in default[2:6])
    for rows in (1, 7):
        monkeypatch.setattr(tr, "OBS_CHUNK", rows)
        assert runs() == default


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("mode", tr.MODES)
def test_merged_groups_equal_per_point_runs(monkeypatch, mode):
    # three points of one shape (3000 steps, 1000 burn-in) share lockstep
    # groups that straddle them: 125 lanes as 62 + 63 at 1 and 2 workers
    bw = 20.0 if mode == "heterodyne" else None
    points = [(tr.BeamParams(f=1e3, ell=1.0), [3, 8], None),
              (tr.BeamParams(f=2e3, ell=0.5), [5], bw),
              (tr.BeamParams(f=5e3, ell=2.0), [3, 9], None)]
    per_point = tuple(tuple(tr.run_tracking(mode, beam, trials=25, seed=s, bandwidth=b)
                            for s in seeds) for beam, seeds, b in points)
    sizes = []
    simulate = tr._simulate_lanes

    def recording(*args):
        sizes.append(len(args[4]))
        return simulate(*args)

    monkeypatch.setattr(tr, "LANE_GROUP", 70)
    monkeypatch.setattr(tr, "_simulate_lanes", recording)
    assert tr.run_tracking_batch(mode, points, trials=25) == per_point
    assert sizes == [62, 63]
    monkeypatch.setattr(tr, "_simulate_lanes", simulate)  # workers pickle it
    assert tr.run_tracking_batch(mode, points, trials=25, workers=2) == per_point


_WRAP_EDGES = [np.pi, -np.pi, 2 * np.pi, -2 * np.pi, 0.0, -0.0, 1e300, -1e300,
               np.inf, -np.inf, np.nan] + [k * 2 * np.pi for k in (-7, 3, 1e6)] + \
    [np.nextafter(v, d) for v in (np.pi, -np.pi, 2 * np.pi, -2 * np.pi)
     for d in (-np.inf, np.inf)]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.floats() | st.sampled_from(_WRAP_EDGES), min_size=1, max_size=20),
       st.booleans())
def test_wrap_is_bitwise_the_modulo_wrap(xs, two_rows):
    x = np.array(xs * 2 if two_rows else xs).reshape(2 if two_rows else 1, -1)
    with np.errstate(invalid="ignore"):
        want = (x + np.pi) % (2 * np.pi) - np.pi
        got = tr._wrap(x)
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))


_BEAM = tr.BeamParams(f=1e3, ell=1.0)
_DT = 1e-2 * tr.loop_time_constant(_BEAM, "adaptive")
_SLIPPING = tr.BeamParams(f=1.0, ell=1.0)
# float.hex() of (mse_wrapped, mse_unwrapped, stderr, cycle_slip_rate) of
# 20-trial runs, pinned so that a one-ulp drift of the kernel fails; a
# heterodyne pin holds one value per numpy arctan2 target (see dispatch.py)
_V2 = "baseline(X86_V2)"
_GOLDEN = [
    (dict(mode="adaptive", beam=_BEAM, seed=5),
     ("0x1.12f40df56305ap-6", "0x1.12f40df56305ap-6", "0x1.ec345acd3b2e6p-11", "0x0.0p+0")),
    (dict(mode="heterodyne", beam=_BEAM, seed=5), {
        "X86_V4": ("0x1.5656a15dc83aep-6", "0x1.5656a15dc83aep-6", "0x1.f1e8127fc6dc5p-10",
                   "0x0.0p+0"),
        _V2: ("0x1.5656a15dc83a2p-6", "0x1.5656a15dc83a3p-6", "0x1.f1e8127fc6de3p-10",
              "0x0.0p+0")}),
    (dict(mode="adaptive", beam=_BEAM, dt=_DT, noise_dt=_DT / 2, seed=5),
     ("0x1.02c2b7a6c0300p-6", "0x1.02c2b7a6c02ffp-6", "0x1.23fa67be2c2ddp-10", "0x0.0p+0")),
    (dict(mode="heterodyne", beam=_BEAM, dt=_DT, noise_dt=_DT / 2, seed=5), {
        "X86_V4": ("0x1.77dd9d82f5de8p-6", "0x1.77dd9d82f5de8p-6", "0x1.b7092ed96c208p-10",
                   "0x0.0p+0"),
        _V2: ("0x1.77dd9d82f5defp-6", "0x1.77dd9d82f5deep-6", "0x1.b7092ed96c1d0p-10",
              "0x0.0p+0")}),
    (dict(mode="adaptive", beam=_SLIPPING, seed=5),
     ("0x1.b44b2d78cbf62p-1", "0x1.3843d88db5da0p+1", "0x1.864e4baf13511p-4",
      "0x1.7ae147ae147aep-3")),
    (dict(mode="heterodyne", beam=_SLIPPING, seed=5), {
        "X86_V4": ("0x1.21c0170d7b1cap+0", "0x1.58c6cb9426187p+5", "0x1.6f3db8a7d23cep-4",
                   "0x1.7fc2d063f3008p-1"),
        _V2: ("0x1.21c0170d7b1c8p+0", "0x1.58c6cb9426184p+5", "0x1.6f3db8a7d23bap-4",
              "0x1.7fc2d063f3008p-1")}),
    (dict(mode="adaptive", beam=_BEAM, seed=2 ** 40 + 7),  # a 2-word seed
     ("0x1.1527ffa461adap-6", "0x1.1527ffa461adap-6", "0x1.1c159b0093df9p-10", "0x0.0p+0")),
    (dict(mode="heterodyne", beam=_BEAM, seed=2 ** 64 + 3), {  # a 3-word seed
        "X86_V4": ("0x1.5607d4fd14f41p-6", "0x1.5607d4fd14f41p-6", "0x1.1cfb364aede76p-10",
                   "0x0.0p+0"),
        _V2: ("0x1.5607d4fd14f47p-6", "0x1.5607d4fd14f47p-6", "0x1.1cfb364aedeacp-10",
              "0x0.0p+0")}),
]
# 7-trial batches whose one group mixes seeds of 1, 2 and 3 words
_GOLDEN_MIXED = {
    "adaptive": [
        ("0x1.0266c2096e1eep-6", "0x1.0266c2096e1efp-6", "0x1.8e372d6aefdc3p-10", "0x0.0p+0"),
        ("0x1.121dbd6841984p-6", "0x1.121dbd6841985p-6", "0x1.404ea58c8ca54p-9", "0x0.0p+0"),
        ("0x1.ea117f83a3e1dp-7", "0x1.ea117f83a3e1bp-7", "0x1.aa2e0008977b0p-10", "0x0.0p+0")],
    "heterodyne": {
        "X86_V4": [
            ("0x1.74eaafeb34820p-6", "0x1.74eaafeb3481fp-6", "0x1.9bff531e82f96p-9", "0x0.0p+0"),
            ("0x1.4ea413e80c3e2p-6", "0x1.4ea413e80c3e2p-6", "0x1.22311d188ce2ep-9", "0x0.0p+0"),
            ("0x1.5ec117669e9c7p-6", "0x1.5ec117669e9c8p-6", "0x1.19b1526f0a622p-9",
             "0x0.0p+0")],
        _V2: [
            ("0x1.74eaafeb3481dp-6", "0x1.74eaafeb3481fp-6", "0x1.9bff531e82fa4p-9", "0x0.0p+0"),
            ("0x1.4ea413e80c3e0p-6", "0x1.4ea413e80c3e0p-6", "0x1.22311d188ce01p-9", "0x0.0p+0"),
            ("0x1.5ec117669e9c2p-6", "0x1.5ec117669e9c1p-6", "0x1.19b1526f0a661p-9",
             "0x0.0p+0")]},
}


def _bits(r):
    return tuple(v.hex() for v in (r.mse_wrapped, r.mse_unwrapped, r.stderr, r.cycle_slip_rate))


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("config, bits", _GOLDEN)
def test_results_are_bitwise_pinned(config, bits):
    assert _bits(tr.run_tracking(**config, trials=20)) == pinned(bits)


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("mode", tr.MODES)
def test_mixed_seed_widths_are_bitwise_pinned(mode):
    (batch,) = tr.run_tracking_batch(mode, [(_BEAM, [5, 2 ** 40 + 7, 2 ** 64 + 3], None)],
                                     trials=7)
    assert [_bits(r) for r in batch] == pinned(_GOLDEN_MIXED[mode])


# seeds of 1 to 5 uint32 words, mixed in every batch
_EDGE_LANES = [(0, 0), (2 ** 32 - 1, 1), (2 ** 32, 2 ** 32 - 1), (2 ** 64 + 3, 5), (2 ** 130 - 1, 0)]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.integers(0, 2 ** 32 - 1) | st.integers(0, 2 ** 130 - 1),
                          st.integers(0, 2 ** 32 - 1)), max_size=8))
def test_streams_are_bitwise_default_rng(lanes):
    # the group-hashed seeding reproduces numpy's own seeding of both streams
    lanes = _EDGE_LANES + lanes
    for (seed, trial), pair in zip(lanes, tr._streams(lanes), strict=True):
        assert [rng.bit_generator.state for rng in pair] == \
            [np.random.default_rng([seed, trial, s]).bit_generator.state for s in (0, 1)]


def _complex_form(p, s, s2a, dt):
    """The reference: the increments in complex arithmetic, as float words."""
    return (s2a * np.exp(1j * p) * dt + s).view(float).view(np.uint64)


def _float_form(p, s, s2a, dt):
    out = np.empty((len(p), 2 * p.shape[1]))
    return tr._heterodyne_dz(p, s, np.repeat(s2a, 2), np.repeat(dt, 2), out).view(np.uint64)


_SHOT_PARTS = st.floats(-1e300, 1e300).filter(bool)  # nonzero, sums stay finite


@settings(max_examples=200, deadline=None, derandomize=True)
@given(shape=hnp.array_shapes(min_dims=2, max_dims=2, max_side=6), data=st.data())
def test_heterodyne_increments_are_bitwise_the_complex_form(shape, data):
    # finite phases from subnormal to 1e6 of either sign, +-0.0 included;
    # s2a dt stays below 1e300, so no product overflows
    r, n = shape
    p = data.draw(hnp.arrays(float, shape, elements=st.floats(-1e6, 1e6)))
    s = data.draw(hnp.arrays(float, (r, 2 * n), elements=_SHOT_PARTS)).view(complex)
    s2a, dt = (data.draw(hnp.arrays(float, n, elements=st.floats(5e-324, 1e150)))
               for _ in range(2))
    assert np.array_equal(_float_form(p, s, s2a, dt), _complex_form(p, s, s2a, dt))


def test_heterodyne_increments_differ_only_at_negative_zeros():
    # p = -0.0 with s.imag = -0.0: 1j * p has imaginary part +0.0, so the
    # complex form ends in +0.0 and the float form in -0.0; with either zero
    # positive, or the shot part nonzero, the words agree
    p = np.array([[-0.0, -0.0, 0.0, -0.0]])
    s = np.array([[0.5, -0.0, 0.5, 0.25, 0.5, -0.0, -0.0, 0.0]]).view(complex)
    s2a, dt = np.array([3.0, 3.0, 3.0, 3.0]), np.array([1e-3, 1e-3, 1e-3, 1e-3])
    got, want = _float_form(p, s, s2a, dt), _complex_form(p, s, s2a, dt)
    assert np.flatnonzero(got != want).tolist() == [1]
    assert got.view(float)[0, 1] == 0.0 and np.signbit(got.view(float)[0, 1])
    assert not np.signbit(want.view(float)[0, 1])


_SIGNED_ZEROS = st.sampled_from([0.0, -0.0])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(hnp.arrays(float, hnp.array_shapes(min_dims=2, max_dims=2, max_side=6),
                  elements=_SIGNED_ZEROS | st.floats(allow_nan=False)))
def test_phases_from_zero_are_never_negative_zero(rows):
    # every lane's phase starts at +0.0 and is a partial sum of its increments,
    # so the one input on which the heterodyne increments differ from their
    # complex form (p = -0.0) never reaches them
    with np.errstate(over="ignore", invalid="ignore"):
        phases = tr._accumulate(np.zeros(rows.shape[1]), rows)
    assert not np.any((phases == 0) & np.signbit(phases))


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("config", [dict(mode="adaptive"), dict(mode="heterodyne"),
                                    dict(mode="adaptive", dt=_DT, noise_dt=_DT / 2),
                                    dict(mode="heterodyne", dt=_DT, noise_dt=_DT / 2)])
def test_noise_blocks_hold_at_most_the_budget(monkeypatch, config):
    # 200 lanes in one group: every block that _noise_columns yields was drawn
    # into at most NOISE_BLOCK floats, and the longest fills all but a step
    held = []
    columns = tr._noise_columns

    def recording(lanes, steps, refine, noise_dt, pair):
        for block in columns(lanes, steps, refine, noise_dt, pair):
            held.append((sum(x.view(float).size for x in block) * refine,
                         len(lanes) * refine * (3 if pair else 2)))
            yield block

    monkeypatch.setattr(tr, "_noise_columns", recording)
    tr.run_tracking(beam=_BEAM, trials=200, seed=1, **config)
    floats, per_step = max(held)
    assert len(held) > 1
    assert tr.NOISE_BLOCK - per_step < floats <= tr.NOISE_BLOCK
