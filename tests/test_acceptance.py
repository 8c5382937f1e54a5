"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Every tolerance is fixed
here; the Monte Carlo seeds are fixed, so the suite is deterministic.

Criterion 3 checks the approach of the noiseless-gain linewidth to its
large-mu limit kappa/(4 mu), half the SQL kappa/(2 mu), at the rate the model
promises: ell = kappa/(4 mu) (1 + 1/mu + O(1/mu^2)).  The coefficient 1 follows
from the symmetrized k = 1 sector, whose local decay rate at n is
kappa (n + 1/2 - sqrt(n (n+1))) ~ kappa/(8 n); its Poisson(mu) average is
kappa/(8 mu) (1 + 1/mu + ...), and ell is twice the slowest rate.  The
expansion fails below mu ~ 8 (+66% at mu = 4), so the 10% band on
kappa/(4 mu) is asserted from mu = 16 up, where the excess is inside it; at
mu = 4, 8, 16 the test asserts that the two extraction methods agree, that the
linewidth is below the SQL and that the deviation falls with mu; at
mu = 64, 128, 256 it asserts the 1/mu law itself.
"""

import math

import numpy as np
import pytest

import oracles
from conftest import record_acceptance

from laserclock import channel as ch
from laserclock import fock, sync
from laserclock import laserdyn as ld
from laserclock import tracking as tr
from laserclock.cli import main as cli_main
from laserclock.laserdyn import LaserParams

SEED = 20240811


def report(num, name, ok, detail):
    line = f"ACCEPTANCE {num:2d} ({name}): {'PASS' if ok else 'FAIL'} -- {detail}"
    print(line)
    # also surface the banner in the terminal summary of captured runs
    record_acceptance(line)


@pytest.fixture(scope="module")
def adaptive_results():
    out = {}
    for N in (1e3, 1e4):
        beam = tr.BeamParams(f=N, ell=1.0)
        out[N] = tr.run_tracking("adaptive", beam, trials=200, seed=SEED + 1)
    return out


@pytest.fixture(scope="module")
def heterodyne_sweep():
    beam = tr.BeamParams(f=1e4, ell=1.0)
    grid = tr.optimal_bandwidth(beam) * np.logspace(-0.45, 0.45, 7)
    points = [(beam, [tr.derive_seed(SEED + 2, i)], float(lam)) for i, lam in enumerate(grid)]
    batch = tr.run_tracking_batch("heterodyne", points, trials=200)
    return grid, [(float(lam), res) for lam, (res,) in zip(grid, batch)]


def test_criterion_1_adaptive_mse(adaptive_results):
    details, ok = [], True
    for N, res in adaptive_results.items():
        pred = tr.adaptive_mse_limit(N)
        rel = res.mse_wrapped / pred - 1
        details.append(f"N={N:g}: mse={res.mse_wrapped:.4e} pred={pred:.4e} ({rel:+.1%})")
        ok = ok and abs(rel) <= 0.10
    report(1, "adaptive tracking MSE = 1/(2 sqrt(N)) +-10%", ok, "; ".join(details))
    for N, res in adaptive_results.items():
        assert res.mse_wrapped == pytest.approx(tr.adaptive_mse_limit(N), rel=0.10)
        assert res.duration - res.burn_in >= 20 * tr.loop_time_constant(
            tr.BeamParams(f=N, ell=1.0), "adaptive") * (1 - 1e-9)


def test_criterion_2_heterodyne_baseline(adaptive_results, heterodyne_sweep):
    _, swept = heterodyne_sweep
    best = min(swept, key=lambda lr: lr[1].mse_wrapped)
    pred = tr.heterodyne_mse_limit(1e4)
    rel = best[1].mse_wrapped / pred - 1
    ratio = adaptive_results[1e4].mse_wrapped / best[1].mse_wrapped
    ok = abs(rel) <= 0.15 and 0.6 <= ratio <= 0.8
    report(2, "dual-quadrature minimum = 1/sqrt(2N) +-15%, ratio in [0.6, 0.8]", ok,
           f"min mse={best[1].mse_wrapped:.4e} at lambda={best[0]:.1f} ({rel:+.1%}); "
           f"adaptive/heterodyne={ratio:.3f}")
    assert best[1].mse_wrapped == pytest.approx(pred, rel=0.15)
    assert 0.6 <= ratio <= 0.8


def test_criterion_3_heisenberg_linewidth():
    def linewidth(mu, method="eigenvalue"):
        params = LaserParams(kappa=1.0, mu=mu)
        return ld.extract_linewidth(params, fock.default_truncation(mu), method)

    ell = {mu: linewidth(mu) for mu in (4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)}
    hl = {mu: ld.hl_linewidth(LaserParams(kappa=1.0, mu=mu)) for mu in ell}
    sql = {mu: ld.sql_linewidth(LaserParams(kappa=1.0, mu=mu)) for mu in ell}
    dev = {mu: ell[mu] / hl[mu] - 1 for mu in ell}

    # approach: both methods agree, the linewidth beats the SQL, and the
    # deviation from kappa/(4 mu) falls with mu
    approach = (4.0, 8.0, 16.0)
    agree = {mu: abs(ell[mu] / linewidth(mu, "decay_fit") - 1) for mu in approach}
    # limit: the unchanged 10% band, from where the 1/mu excess is inside it
    band = (16.0, 32.0, 64.0)
    # rate: mu * (4 mu ell/kappa - 1) -> 1, the first-order coefficient; the
    # next-order coefficient is measured at 1.83-1.90 over these mu but is
    # derived nowhere here, so the 4/mu bound leaves it a factor of 2
    tail = (64.0, 128.0, 256.0)
    coeff = {mu: mu * dev[mu] for mu in tail}

    rows = [f"mu={mu:g}: ell={ell[mu]:.5f} vs {hl[mu]:.5f} ({dev[mu]:+.1%}, "
            f"{1 - ell[mu] / sql[mu]:.0%} below SQL, methods agree {agree[mu]:.1e})"
            for mu in approach]
    rows += [f"mu={mu:g}: {dev[mu]:+.2%}" for mu in band[1:]]
    rows.append("mu*excess " + ", ".join(f"{coeff[mu]:.3f}" for mu in tail)
                + f" at mu={','.join(f'{mu:g}' for mu in tail)}")
    failures = [f"mu={mu:g}: methods disagree by {agree[mu]:.1e}"
                for mu in approach if not agree[mu] <= 0.02]
    failures += [f"mu={mu:g}: ell={ell[mu]:.5f} not below the SQL {sql[mu]:.5f}"
                 for mu in approach if not ell[mu] < sql[mu]]
    if not abs(dev[4.0]) > abs(dev[8.0]) > abs(dev[16.0]):
        failures.append("relative deviation must fall with mu")
    failures += [f"mu={mu:g}: linewidth deviates {dev[mu]:+.1%} from kappa/4mu"
                 for mu in band if not abs(dev[mu]) <= 0.10]
    failures += [f"mu={mu:g}: mu*(4 mu ell/kappa - 1) = {coeff[mu]:.4f}, not 1 within 4/mu"
                 for mu in tail if not abs(coeff[mu] - 1) <= 4 / mu]
    if not coeff[64.0] > coeff[128.0] > coeff[256.0]:
        failures.append("mu*(4 mu ell/kappa - 1) must fall towards 1")
    report(3, "linewidth below kappa/2mu at mu=4,8,16, within 10% of kappa/4mu "
           "at mu=16,32,64, excess 1/mu at mu=64-256", not failures, "; ".join(rows))
    assert not failures, "; ".join(failures)


def test_criterion_4_stationary_poisson():
    pops = ld.stationary_state(LaserParams(kappa=1.0, mu=8.0), 60)
    ref = ld.poisson_weights(8.0, 60)
    tv = 0.5 * float(np.abs(pops - ref).sum()) + 0.5 * float(1 - ref.sum())
    ok = tv <= 1e-8
    report(4, "stationary populations = Poisson(8) within 1e-8 TV", ok, f"TV={tv:.2e}")
    assert tv <= 1e-8


def test_criterion_5_coherent_phase_variance():
    rows, ok = [], True
    for mu in (25.0, 100.0):
        v = fock.phase_variance(fock.canonical_phase_distribution(
            fock.coherent_state(math.sqrt(mu))))
        rel = v * 4 * mu - 1
        rows.append(f"mu={mu:g}: V={v:.5e} ({rel:+.1%})")
        ok = ok and abs(rel) <= 0.05
    v_split = fock.phase_variance(fock.canonical_phase_distribution(
        fock.coherent_state(math.sqrt(100 / 4))))
    rel_split = v_split / sync.split_variance_limit(100, 4) - 1
    rows.append(f"split (mu=100, M=4): V={v_split:.5e} ({rel_split:+.1%})")
    ok = ok and abs(rel_split) <= 0.05
    report(5, "coherent phase variance 1/(4 mu) +-5%, split M/(4 mu) +-5%", ok,
           "; ".join(rows))
    assert ok


@pytest.fixture(scope="module")
def hl_sync_results():
    laser = LaserParams(kappa=1.0, mu=1e6)
    per_m = {m: sync.run_sync(laser, [m], regime="hl", trials=200, seed=SEED + 3)
             for m in (1, 4, 16)}
    sweep = sync.run_sync(laser, [1, 2, 4, 8, 16], regime="hl", trials=200, seed=SEED + 4)
    return per_m, sweep


def test_criterion_6_hl_synchronization(hl_sync_results):
    per_m, sweep = hl_sync_results
    rows, ok = [], True
    for m, rep in per_m.items():
        rel = rep.mean_mse[0] / rep.predicted[0] - 1
        rows.append(f"M={m}: mse={rep.mean_mse[0]:.3e} vs sqrt(M)/4mu="
                    f"{rep.predicted[0]:.3e} ({rel:+.1%})")
        ok = ok and abs(rel) <= 0.15
    rows.append(f"scaling exponent={sweep.scaling_exponent:.3f}"
                f" +- {sweep.scaling_stderr:.3f}")
    ok = ok and abs(sweep.scaling_exponent - 0.5) <= 0.05
    report(6, "HL sync: sqrt(M)/(4 mu) +-15%, exponent 0.5 +-0.05", ok, "; ".join(rows))
    for m, rep in per_m.items():
        assert rep.mean_mse[0] == pytest.approx(sync.hl_sync_limit(1e6, m), rel=0.15)
    assert sweep.scaling_exponent == pytest.approx(0.5, abs=0.05)


@pytest.fixture(scope="module")
def sql_sync_results():
    laser = LaserParams(kappa=1.0, mu=1e6)
    return {m: sync.run_sync(laser, [m], regime="sql", trials=200, seed=SEED + 5)
            for m in (1, 4)}


def test_criterion_7_sql_synchronization(sql_sync_results):
    rows, ok = [], True
    for m, rep in sql_sync_results.items():
        rel = rep.mean_mse[0] / rep.predicted[0] - 1
        rows.append(f"M={m}: mse={rep.mean_mse[0]:.3e} vs sqrt(M)/2mu="
                    f"{rep.predicted[0]:.3e} ({rel:+.1%})")
        ok = ok and abs(rel) <= 0.20
    report(7, "SQL sync: sqrt(M)/(2 mu) +-20%", ok, "; ".join(rows))
    for m, rep in sql_sync_results.items():
        assert rep.mean_mse[0] == pytest.approx(sync.sql_sync_limit(1e6, m), rel=0.20)


def test_criterion_8_classical_channel():
    spec = ch.LatticeSpec(delta=1.0)
    defect = oracles.orthonormality_defect(spec, n_span=2, m_span=2)
    dist = ch.decohere(5.0, spec)
    out = ch.output_mean_amplitude(dist)
    mod_err = abs(abs(out) - 5.0)
    phase_err = abs(math.atan2(out.imag, out.real))
    ok = (defect <= 1e-10 and dist.captured_mass >= 1 - 1e-6
          and mod_err <= 0.2 and phase_err <= 0.05)
    report(8, "lattice channel: orthonormal, mass >= 1-1e-6, amplitude survives", ok,
           f"orthonormality defect={defect:.1e}; mass={dist.captured_mass:.9f}; "
           f"|out|={abs(out):.4f} (err {mod_err:.1e}); phase err={phase_err:.1e} rad")
    assert defect <= 1e-10
    assert dist.captured_mass >= 1 - 1e-6
    assert mod_err <= 0.2
    assert phase_err <= 0.05


def test_criterion_9_physical_units_example():
    beam = sync.PhysicalBeam(power=1e-3, linewidth_hz=1e6, wavelength=600e-9)
    rows, ok = [], True
    for m in (1, 16):
        v = sync.physical_units_mse(beam, m)
        ratio = v / (1e-5 * math.sqrt(m))
        rows.append(f"M={m}: {v:.3e} rad^2 ({ratio:.2f} x 1e-5 sqrt(M))")
        ok = ok and 1 / 5 <= ratio <= 5
    report(9, "1 mW / 1 MHz / 600 nm gives ~1e-5 sqrt(M) rad^2 (factor 5)", ok,
           "; ".join(rows))
    beam_v = sync.physical_units_mse(beam, 1)
    for m in (1, 4, 16):
        ratio = sync.physical_units_mse(beam, m) / (1e-5 * math.sqrt(m))
        assert 1 / 5 <= ratio <= 5
        assert sync.physical_units_mse(beam, m) == pytest.approx(
            beam_v * math.sqrt(m), rel=1e-12)


def _crn_pair(mode, beam, trials, seed, bandwidth=None):
    dt = 1e-2 * tr.loop_time_constant(beam, mode, bandwidth)
    coarse = tr.run_tracking(mode, beam, dt=dt, trials=trials, seed=seed,
                             bandwidth=bandwidth, noise_dt=dt / 2)
    fine = tr.run_tracking(mode, beam, dt=dt / 2, trials=trials, seed=seed,
                           bandwidth=bandwidth, noise_dt=dt / 2)
    return coarse.mse_wrapped, fine.mse_wrapped


def _sync_crn_pair(m, regime, trials, seed):
    laser = LaserParams(kappa=1.0, mu=1e6)
    beam = sync.beam_for_party(laser, m, regime)
    mode = "adaptive" if regime == "hl" else "heterodyne"
    dt = 1e-2 * tr.loop_time_constant(beam, mode)
    coarse = sync.run_sync(laser, [m], regime=regime, dt=dt, trials=trials, seed=seed,
                           noise_dt=dt / 2)
    fine = sync.run_sync(laser, [m], regime=regime, dt=dt / 2, trials=trials, seed=seed,
                         noise_dt=dt / 2)
    return coarse.mean_mse[0], fine.mean_mse[0]


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_criterion_10_numerical_hygiene(tmp_path):
    rows, ok = [], True
    # dt halving on criteria 1, 2, 6, 7 headline MSEs, with shared Wiener paths
    for N in (1e3, 1e4):
        c, f = _crn_pair("adaptive", tr.BeamParams(f=N, ell=1.0), 200, SEED + 6)
        rel = abs(c / f - 1)
        rows.append(f"cr1 N={N:g}: dt-halving {rel:.2%}")
        ok = ok and rel < 0.02
    beam = tr.BeamParams(f=1e4, ell=1.0)
    grid = tr.optimal_bandwidth(beam) * np.logspace(-0.45, 0.45, 7)
    pairs = [_crn_pair("heterodyne", beam, 200, SEED + 7, bandwidth=float(lam))
             for lam in grid]
    rel = abs(min(p[0] for p in pairs) / min(p[1] for p in pairs) - 1)
    rows.append(f"cr2 min-over-bandwidth: dt-halving {rel:.2%}")
    ok = ok and rel < 0.02
    for m in (1, 4, 16):
        c, f = _sync_crn_pair(m, "hl", 200, SEED + 8)
        rel = abs(c / f - 1)
        rows.append(f"cr6 M={m}: dt-halving {rel:.2%}")
        ok = ok and rel < 0.02
    for m in (1, 4):
        c, f = _sync_crn_pair(m, "sql", 200, SEED + 9)
        rel = abs(c / f - 1)
        rows.append(f"cr7 M={m}: dt-halving {rel:.2%}")
        ok = ok and rel < 0.02

    # byte-identical reruns, independent of the worker count
    args = ["track", "--mode", "adaptive", "--flux", "1e3", "--linewidth", "1",
            "--trials", "64", "--seed", "9"]
    paths = [tmp_path / f"r{i}.csv" for i in range(3)]
    assert cli_main(args + ["--workers", "1", "--out", str(paths[0])]) == 0
    assert cli_main(args + ["--workers", "1", "--out", str(paths[1])]) == 0
    assert cli_main(args + ["--workers", "3", "--out", str(paths[2])]) == 0
    identical = (paths[0].read_bytes() == paths[1].read_bytes()
                 == paths[2].read_bytes())
    rows.append(f"byte-identical reruns across workers: {identical}")
    ok = ok and identical

    report(10, "dt-halving < 2% on criteria 1/2/6/7; byte-identical reruns", ok,
           "; ".join(rows))
    assert ok
