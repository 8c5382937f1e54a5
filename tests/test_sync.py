import math

import numpy as np
import pytest

from laserclock import fock, sync, tracking as tr
from laserclock.laserdyn import LaserParams


def test_hl_limit_values():
    assert sync.hl_sync_limit(1e6, 16) == pytest.approx(1e-6)
    assert sync.hl_sync_limit(100, 1) == pytest.approx(1 / 400)
    assert sync.hl_sync_limit(100, 4) == pytest.approx(5e-3)


def test_sql_limit_values():
    assert sync.sql_sync_limit(1e6, 16) == pytest.approx(2e-6)
    assert sync.sql_sync_limit(100, 1) == pytest.approx(5e-3)
    for mu, m in [(3.7, 2), (1e4, 9), (12.0, 1)]:
        assert sync.sql_sync_limit(mu, m) == pytest.approx(2 * sync.hl_sync_limit(mu, m))


def test_split_limit_values():
    assert sync.split_variance_limit(100, 4) == pytest.approx(0.01)
    assert sync.split_variance_limit(100, 1) == pytest.approx(1 / 400)


@pytest.mark.parametrize("mu", [1e-320, 1e308, 0.0, -1.0, math.inf, math.nan])
def test_limits_refuse_a_mu_that_leaves_them_not_positive_and_finite(mu):
    for fn in (sync.hl_sync_limit, sync.sql_sync_limit, sync.split_variance_limit):
        with pytest.raises(ValueError, match="mu "):
            fn(mu, 4)
    assert sync.split_variance_limit(1e-300, 4) == pytest.approx(1e300)


@pytest.mark.parametrize("power, linewidth_hz", [(1e-320, 1e6), (1e-3, 1e-320)])
def test_physical_units_refuse_an_mse_that_is_not_positive_and_finite(power, linewidth_hz):
    beam = sync.PhysicalBeam(power=power, linewidth_hz=linewidth_hz, wavelength=6e-7)
    with pytest.raises(ValueError, match="per-party MSE of (inf|0.0) "):
        sync.physical_units_mse(beam, 4)


def test_split_limit_against_fock():
    # variance of |sqrt(mu/M)> matches M/(4 mu) within 5% for mu/M >= 25
    mu, m = 100.0, 4
    s = fock.coherent_state(math.sqrt(mu / m))
    v = fock.phase_variance(*fock.phase_support(s))
    assert v == pytest.approx(sync.split_variance_limit(mu, m), rel=0.05)


def test_limit_ordering_chain():
    for mu in [1.0, 100.0, 1e6]:
        for m in [1, 2, 16, 1000]:
            hl = sync.hl_sync_limit(mu, m)
            sql = sync.sql_sync_limit(mu, m)
            split = sync.split_variance_limit(mu, m)
            assert hl <= sql <= 2 * split
            assert split >= hl
            if m == 1:
                assert split == pytest.approx(hl)


def test_limit_monotonicity():
    mus = [10.0, 100.0, 1000.0]
    ms = [1, 2, 4, 8]
    for fn in (sync.hl_sync_limit, sync.sql_sync_limit, sync.split_variance_limit):
        for mu in mus:
            vals = [fn(mu, m) for m in ms]
            assert all(a <= b for a, b in zip(vals, vals[1:]))
        for m in ms:
            vals = [fn(mu, m) for mu in mus]
            assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_hl_limit_equals_tracking_limit_identity():
    # sqrt(M)/(4 mu) == 1/(2 sqrt(N)) at N = kappa mu / (M ell), ell = kappa/(4 mu)
    for mu in [7.0, 100.0, 1e6]:
        for m in [1, 3, 16]:
            N = 4 * mu ** 2 / m
            assert sync.hl_sync_limit(mu, m) == pytest.approx(
                tr.adaptive_mse_limit(N), rel=1e-12)


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("regime", sync.REGIMES)
def test_each_party_prediction_is_the_sync_limit(regime):
    # the tracking engine's own prediction at each party's beam, adaptive at
    # its default gain (HL) or heterodyne at its optimal bandwidth (SQL), is
    # the paper's sqrt(M)/(4 mu) or sqrt(M)/(2 mu) to within 4 ulp
    grid = [(kappa, mu, m) for kappa in (1.0, 7.3) for mu in 10.0 ** np.arange(2, 9)
            for m in (1, 2, 3, 7, 16, 31, 64, 100)]
    points = [(sync.beam_for_party(LaserParams(kappa=kappa, mu=mu), m, regime), [0], None)
              for kappa, mu, m in grid]
    batch = tr.run_tracking_batch("adaptive" if regime == "hl" else "heterodyne", points,
                                  trials=1)
    limit = sync.hl_sync_limit if regime == "hl" else sync.sql_sync_limit
    for (kappa, mu, m), (res,) in zip(grid, batch, strict=True):
        want = limit(mu, m)
        assert abs(res.predicted - want) <= 4 * math.ulp(want), (kappa, mu, m)


def test_physical_units_worked_example():
    # 1 mW, 1 MHz linewidth, 600 nm: ~4.56e-5 rad^2, order 1e-5
    beam = sync.PhysicalBeam(power=1e-3, linewidth_hz=1e6, wavelength=600e-9)
    v = sync.physical_units_mse(beam, 1)
    assert v == pytest.approx(4.5611e-5, rel=1e-3)
    assert 1e-5 / 5 < v < 1e-5 * 5


def test_physical_units_scalings():
    beam = sync.PhysicalBeam(power=1e-3, linewidth_hz=1e6, wavelength=600e-9)
    v1 = sync.physical_units_mse(beam, 1)
    for m in [4, 16, 100]:
        assert sync.physical_units_mse(beam, m) == pytest.approx(v1 * math.sqrt(m))
    brighter = sync.PhysicalBeam(power=0.1, linewidth_hz=1e6, wavelength=600e-9)
    assert sync.physical_units_mse(brighter, 1) == pytest.approx(v1 / 10)


def test_physical_beam_validation():
    # at 1e-320 m the angular frequency 2 pi c / wavelength overflows to inf
    for wavelength in (0.0, -1.0, math.inf, math.nan, 1e-320):
        with pytest.raises(ValueError):
            sync.PhysicalBeam(power=1e-3, linewidth_hz=1e6, wavelength=wavelength)


def test_beam_for_party_flux_split():
    laser = LaserParams(kappa=2.0, mu=300.0)
    for m in [1, 3, 10]:
        beam = sync.beam_for_party(laser, m, "hl")
        assert beam.f * m == pytest.approx(laser.kappa * laser.mu)
        assert beam.ell == pytest.approx(laser.kappa / (4 * laser.mu))
    sql = sync.beam_for_party(laser, 2, "sql")
    assert sql.ell == pytest.approx(laser.kappa / (2 * laser.mu))


def test_single_party_reduces_to_tracking():
    laser = LaserParams(kappa=1.0, mu=100.0)
    report = sync.run_sync(laser, [1], regime="hl", trials=100, seed=13)
    beam = tr.BeamParams(f=100.0, ell=1 / 400)
    assert beam.N == pytest.approx(4 * 100.0 ** 2)
    direct = tr.run_tracking("adaptive", beam, trials=100, seed=tr.derive_seed(13, 0))
    assert report.per_party_mse[0][0] == direct.mse_wrapped


def test_party_results_are_seed_isolated():
    laser = LaserParams(kappa=1.0, mu=100.0)
    report = sync.run_sync(laser, [3], regime="hl", trials=100, seed=5)
    beam = sync.beam_for_party(laser, 3, "hl")
    for party in range(3):
        direct = tr.run_tracking("adaptive", beam, trials=100,
                                 seed=tr.derive_seed(5, party))
        assert report.per_party_mse[0][party] == direct.mse_wrapped


def test_per_party_mse_mutually_consistent():
    laser = LaserParams(kappa=1.0, mu=100.0)
    report = sync.run_sync(laser, [4], regime="hl", trials=200, seed=1)
    per = report.per_party_mse[0]
    assert max(per) / min(per) <= 1.5
    assert report.mean_mse[0] == pytest.approx(sync.hl_sync_limit(100.0, 4), rel=0.15)


def test_sync_sweep_scaling_exponent():
    laser = LaserParams(kappa=1.0, mu=100.0)
    report = sync.run_sync(laser, [1, 2, 4, 8, 16], regime="hl", trials=100, seed=2)
    assert report.scaling_exponent == pytest.approx(0.5, abs=0.05)
    assert all(a <= b for a, b in zip(report.mean_mse, report.mean_mse[1:]))


@pytest.mark.parametrize("ms", [[1, 4], [1, 2, 4]])
def test_scaling_fit_reports_no_stderr_below_three_m_values(ms):
    # the closed-form fit is np.polyfit's line; two M values leave no
    # residual degree of freedom, so no standard error is reported
    report = sync.run_sync(LaserParams(kappa=1.0, mu=100.0), ms, trials=20, seed=5)
    x, y = np.log(ms), np.log(report.mean_mse)
    (slope, _), ssr, *_ = np.polyfit(x, y, 1, full=True)
    assert report.scaling_exponent == pytest.approx(slope, rel=1e-12)
    if len(ms) == 2:
        assert report.scaling_stderr is None
    else:
        sxx = np.sum((x - x.mean()) ** 2)
        assert report.scaling_stderr == pytest.approx(math.sqrt(ssr[0] / sxx), rel=1e-9)


def test_several_m_values_run_at_their_derived_seeds():
    # row i of a several-M run is the one-M run of ms[i] at derive_seed(seed, 1000 + i)
    laser, ms, seed = LaserParams(kappa=1.0, mu=100.0), [3, 1, 2], 11
    report = sync.run_sync(laser, ms, trials=100, seed=seed)
    for i, m in enumerate(ms):
        alone = sync.run_sync(laser, [m], trials=100, seed=tr.derive_seed(seed, 1000 + i))
        assert report.per_party_mse[i] == alone.per_party_mse[0]
        assert alone.scaling_exponent is None


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("ms", [[4], [1, 2, 4]])
def test_each_party_seed_is_derived_once(monkeypatch, ms):
    # one seed per party, plus one per M value when there are several
    derive, calls = sync.derive_seed, []
    monkeypatch.setattr(sync, "derive_seed", lambda *a: calls.append(a) or derive(*a))
    sync.run_sync(LaserParams(kappa=1.0, mu=100.0), ms, trials=2, seed=7)
    assert len(calls) == (ms[0] if len(ms) == 1 else len(ms) + sum(ms))


def test_sync_determinism():
    laser = LaserParams(kappa=1.0, mu=100.0)
    r1 = sync.run_sync(laser, [2], regime="hl", trials=100, seed=3)
    r2 = sync.run_sync(laser, [2], regime="hl", trials=100, seed=3)
    assert r1 == r2


def test_sync_config_validation():
    laser = LaserParams(kappa=1.0, mu=10.0)
    with pytest.raises(ValueError):
        sync.beam_for_party(laser, 0, "hl")
    with pytest.raises(ValueError):
        sync.beam_for_party(laser, 2, "squeezed")
    for ms in ([4, 4], []):
        with pytest.raises(ValueError, match="distinct M values"):
            sync.run_sync(laser, ms)
    for noise_dt in (0.0, -0.0, math.nan):
        for regime in ("hl", "sql"):
            with pytest.raises(ValueError, match="noise_dt"):
                sync.run_sync(laser, [4], regime=regime, noise_dt=noise_dt)


def test_sync_worker_count_does_not_change_report():
    laser = LaserParams(kappa=1.0, mu=100.0)
    r1 = sync.run_sync(laser, [3], regime="hl", trials=100, seed=6, workers=1)
    r2 = sync.run_sync(laser, [3], regime="hl", trials=100, seed=6, workers=2)
    assert r1 == r2


def test_nonfinite_mu_is_refused():
    for mu in (math.inf, math.nan):
        for limit in (sync.hl_sync_limit, sync.sql_sync_limit, sync.split_variance_limit):
            with pytest.raises(ValueError):
                limit(mu, 4)
        with pytest.raises(ValueError):
            LaserParams(kappa=1.0, mu=mu)
        with pytest.raises(ValueError):
            LaserParams(kappa=mu, mu=10.0)
