import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import eig, expm
from scipy.linalg.blas import dgemm

import oracles
from laserclock import fock, laserdyn as ld
from laserclock.errors import LinewidthFitError

EPS = np.finfo(float).eps


def detailed_balance_poisson(mu, trunc):
    # oracle: birth kappa*mu / death kappa*n chain via the recursion
    p = np.zeros(trunc + 1)
    p[0] = 1.0
    for n in range(trunc):
        p[n + 1] = p[n] * mu / (n + 1)
    return p / p.sum()


def lstsq_stationary_populations(params, trunc):
    # oracle: the k=0 null vector by least squares, the trace constraint
    # appended as an extra row
    L0 = ld.build_liouvillian_sector(params, 0, trunc).matrix
    A = np.vstack([L0, np.ones(trunc + 1)])
    b = np.zeros(trunc + 2)
    b[-1] = 1.0
    p, *_ = np.linalg.lstsq(A, b, rcond=None)
    return p


def smallest_accepted_truncation(mu):
    trunc = 2
    while 1.0 - ld.poisson_weights(mu, trunc).sum() > 1e-9:
        trunc += 1
    return trunc


def test_pure_loss_sector0_trace_preserving():
    L = oracles.loss_sector(1.3, 0, 40)
    assert np.max(np.abs(L.sum(axis=0))) < 1e-12


def test_noiseless_gain_sector0_trace_preserving():
    params = ld.LaserParams(kappa=1.0, mu=8.0)
    L = ld.build_liouvillian_sector(params, 0, 60).matrix
    assert np.max(np.abs(L.sum(axis=0))) < 1e-12


def test_stationary_state_is_poisson():
    params = ld.LaserParams(kappa=1.0, mu=8.0)
    pops = ld.stationary_state(params, 60)
    tv = 0.5 * np.abs(pops - ld.poisson_weights(8.0, 60)).sum() \
        + 0.5 * (1 - ld.poisson_weights(8.0, 60).sum())
    assert tv < 1e-8


def test_stationary_state_small_mu_against_detailed_balance():
    params = ld.LaserParams(kappa=2.0, mu=0.5)
    pops = ld.stationary_state(params, 30)
    oracle = detailed_balance_poisson(0.5, 30)
    assert 0.5 * np.abs(pops - oracle).sum() < 1e-10


@pytest.mark.parametrize("mu", [0.5, 8.0, 20.0])
def test_stationary_mean_photon_number(mu):
    params = ld.LaserParams(kappa=1.0, mu=mu)
    p = ld.stationary_state(params, fock.default_truncation(mu) + 20)
    assert np.sum(np.arange(len(p)) * p) == pytest.approx(mu, rel=1e-6)


def test_stationary_detailed_balance_invariant():
    params = ld.LaserParams(kappa=1.0, mu=8.0)
    p = ld.stationary_state(params, 60)
    n = np.arange(60)
    assert np.max(np.abs(params.kappa * params.mu * p[:-1]
                         - params.kappa * (n + 1) * p[1:])) < 1e-10


@pytest.mark.parametrize("mu", [0.5, 3.0, 8.0, 30.0, 100.0, 250.0])
def test_stationary_closed_form_matches_lstsq_oracle(mu):
    # at the smallest truncation the tail check accepts, the Poisson tail is
    # 1.7e-10 to 9.9e-10, so the normalization over 0..T moves the weights by
    # 2.5e-11 or more: far above the 1e-12 asserted here
    params = ld.LaserParams(kappa=1.7, mu=mu)
    trunc = smallest_accepted_truncation(mu)
    p = ld.stationary_state(params, trunc)
    assert np.max(np.abs(p - lstsq_stationary_populations(params, trunc))) <= 1e-12
    assert abs(p.sum() - 1.0) <= 4 * EPS
    # detailed balance kappa mu P(n) = kappa (n+1) P(n+1) on every link, to
    # the rounding of the log-space exponent -mu + n log mu - lgamma(n+1),
    # whose absolute error is a few eps times the size of its terms
    n = np.arange(trunc)
    gain = params.kappa * params.mu * p[:-1]
    loss = params.kappa * (n + 1) * p[1:]
    scale = mu + trunc * abs(math.log(mu)) + math.lgamma(trunc + 1)
    assert np.max(np.abs(gain - loss)) <= 4 * EPS * scale * gain.max()


def test_stationary_state_is_the_normalized_poisson_weights():
    # bitwise the diagonal of the dense state this function once returned
    params = ld.LaserParams(kappa=1.0, mu=8.0)
    p = ld.poisson_weights(8.0, 60)
    assert np.array_equal(ld.stationary_state(params, 60), p / p.sum())


def test_decay_fit_starts_from_the_stationary_state(monkeypatch):
    calls = []
    stationary = ld.stationary_state
    monkeypatch.setattr(ld, "stationary_state",
                        lambda params, trunc: calls.append(trunc) or stationary(params, trunc))
    ld.extract_linewidth(ld.LaserParams(kappa=1.0, mu=8.0), 60, "decay_fit")
    assert calls == [60]


def test_truncation_too_small_rejected():
    params = ld.LaserParams(kappa=1.0, mu=8.0)
    with pytest.raises(ValueError, match="truncation"):
        ld.build_liouvillian_sector(params, 0, 12)


def test_sector_blocks_match_full_superoperator():
    # the full generator must map rho_{n, n+k} strictly within offset k, and
    # its blocks must reproduce the sector matrices exactly: the production
    # sectors with noiseless gain (mu = 2), the loss-only oracle sectors at
    # mu = 0
    T = 16
    d = T + 1
    params = ld.LaserParams(kappa=1.0, mu=2.0)
    for mu, sector in [(2.0, lambda k: ld.build_liouvillian_sector(params, k, T).matrix),
                       (0.0, lambda k: oracles.loss_sector(1.0, k, T))]:
        Lfull = oracles.full_liouvillian(1.0, mu, T)
        for k in [0, 1, 5]:
            L = sector(k)
            for n in range(d - k):
                E = np.zeros((d, d), dtype=complex)
                E[n, n + k] = 1.0
                out = (Lfull @ E.reshape(-1)).reshape(d, d)
                mask = np.zeros((d, d), dtype=bool)
                idx = np.arange(d - k)
                mask[idx, idx + k] = True
                assert np.all(out[~mask] == 0.0), "cross-sector coupling"
                assert np.allclose(out[idx, idx + k], L[:, n], atol=1e-13)


def test_linewidth_mu8ts_frozen_value():
    # oracle (dense eigendecomposition of the k=1 sector, cross-checked against
    # the full superoperator): ell = 0.03712959 at kappa=1, mu=8.  This sits
    # 18.8% above the large-mu asymptote kappa/4mu = 0.03125.
    params = ld.LaserParams(kappa=1.0, mu=8.0)
    assert ld.extract_linewidth(params, 60) == pytest.approx(0.03712959, rel=1e-5)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(mu=st.floats(0.5, 64.0), kappa=st.floats(0.1, 10.0))
def test_tridiagonal_eigenvalue_matches_dense_eig(mu, kappa):
    # Both routes are backward stable: each returns an exact eigenvalue of a
    # matrix within a small multiple of eps*||L1|| of the sector.  The
    # symmetric tridiagonal solve has eigenvalue condition number 1; the
    # dense nonsymmetric eig multiplies its backward error by cond(lambda_1)
    # (2 to 6 over this range), computed here from its left and right
    # eigenvectors.  So |delta lambda|/|lambda_1| <= c (1 + cond) eps
    # ||L1|| / |lambda_1|, with the stated safety factor c = 10 for the
    # backward-error constants of the two solvers.
    params = ld.LaserParams(kappa=kappa, mu=mu)
    trunc = fock.default_truncation(mu)
    L1 = ld.build_liouvillian_sector(params, 1, trunc).matrix
    w, vl, vr = eig(L1, left=True, right=True)
    i = int(np.argmax(w.real))
    x, y = vr[:, i], vl[:, i]
    cond = np.linalg.norm(x) * np.linalg.norm(y) / abs(np.vdot(y, x))
    lam_dense = w[i].real
    lam = -ld.extract_linewidth(params, trunc, "eigenvalue") / 2
    assert lam < 0
    rel_bound = 10 * (1 + cond) * EPS * np.linalg.norm(L1, 2) / abs(lam_dense)
    assert abs(lam / lam_dense - 1) <= rel_bound
    assert abs(w[i].imag) <= rel_bound * abs(lam_dense)


def test_linewidth_methods_agree():
    for mu in [4.0, 8.0, 16.0]:
        params = ld.LaserParams(kappa=1.0, mu=mu)
        trunc = fock.default_truncation(mu)
        v_eig = ld.extract_linewidth(params, trunc, "eigenvalue")
        v_fit = ld.extract_linewidth(params, trunc, "decay_fit")
        assert abs(v_eig / v_fit - 1) < 0.02


@pytest.mark.parametrize("mu", [4.0, 16.0, 64.0])
def test_decay_fit_is_one_propagator_past_the_transients(monkeypatch, mu):
    # the fit calls expm once, on L1 dt / 2^s with the least s that brings
    # the 1-norm to THETA_13 or below, and samples from the first multiple
    # of dt at or after the 8/kappa the fast transients need; it agrees with
    # the eigenvalue to the 1e-7 the README states
    import scipy.linalg

    kappa = 0.5
    expm, polyfit = scipy.linalg.expm, np.polyfit
    built, sampled = [], []
    monkeypatch.setattr(scipy.linalg, "expm", lambda a: built.append(a) or expm(a))
    monkeypatch.setattr(np, "polyfit", lambda x, y, deg: sampled.append(x) or polyfit(x, y, deg))
    params = ld.LaserParams(kappa=kappa, mu=mu)
    trunc = fock.default_truncation(mu)
    fit = ld.extract_linewidth(params, trunc, "decay_fit")
    (scaled,) = built
    (ts,) = sampled
    dt = 16.0 * mu / kappa / 60
    assert ts[0] >= 8 / kappa > ts[0] - (ts[1] - ts[0])
    A = ld.build_liouvillian_sector(params, 1, trunc).matrix * dt
    s = round(math.log2(np.linalg.norm(A, 1) / np.linalg.norm(scaled, 1)))
    assert np.array_equal(scaled * 2.0 ** s, A)
    assert ld.THETA_13 / 2 < np.linalg.norm(scaled, 1) <= ld.THETA_13
    eig = ld.extract_linewidth(params, trunc, "eigenvalue")
    assert abs(fit / eig - 1) <= 1e-7


def scaled_step(mu):
    """L1 dt of the decay fit at kappa = 1, its size n and its scaling s."""
    params = ld.LaserParams(kappa=1.0, mu=mu)
    trunc = fock.default_truncation(mu)
    A = ld.build_liouvillian_sector(params, 1, trunc).matrix * (16.0 * mu / 60)
    return A, trunc, max(0, math.ceil(math.log2(np.linalg.norm(A, 1) / ld.THETA_13)))


def gamma(n):
    # Higham's gamma_n = n u / (1 - n u), u = eps / 2: the relative bound on
    # the rounding of an n-term inner product
    return n * EPS / 2 / (1 - n * EPS / 2)


@pytest.mark.parametrize("mu", [64.0, 128.0, 256.0])
def test_flushed_squaring_is_bitwise_unflushed(mu):
    # zeroing the entries below FLUSH_BELOW before each squaring changes no
    # bit of the propagator, although it zeroes thousands of them
    A, _, s = scaled_step(mu)
    U = np.asfortranarray(expm(A / 2.0 ** s))
    flushed = 0
    for _ in range(s):
        flushed += int(np.count_nonzero((U != 0) & (np.abs(U) < ld.FLUSH_BELOW)))
        U = dgemm(1.0, U, U)
    assert flushed > 1000
    assert np.array_equal(ld._propagator(A), U)


@pytest.mark.parametrize("mu", [64.0, 128.0, 256.0])
def test_propagator_within_squaring_error_of_expm(mu):
    # At these mu scipy's expm(A) picks the same scaling s (scipy 1.17), so
    # both routes square the same Pade result s times and differ by the
    # squarings' rounding.  exp(L1 t) is entrywise nonnegative with 1-norm at most 1,
    # so a squaring X -> fl(X X) errs by at most gamma_n ||X||_1^2 <= gamma_n,
    # and an error E in X becomes E X + X E, at most doubled: after s
    # squarings each route is within (2^s - 1) gamma_n of the exact power
    # (Higham 2005).  The flush adds at most n 2^-500 per squaring, also
    # doubled by each later one.
    A, n, s = scaled_step(mu)
    U = ld._propagator(A)
    assert U.min() >= 0 and np.linalg.norm(U, 1) <= 1
    bound = 2 * (2 ** s - 1) * gamma(n) + 2 ** s * s * n * ld.FLUSH_BELOW
    assert np.linalg.norm(U - expm(A), 1) <= bound


@pytest.mark.parametrize("mu", [64.0, 128.0, 256.0])
def test_decay_fit_agrees_with_dense_expm_route(mu):
    # The replaced route (oracles.decay_fit_dense_expm) applies
    # U' = expm(L1 dt) with numpy's @.  With delta = ||U - U'||_1,
    # ||U||_1 <= 1 and each matrix-vector product rounding by at most
    # gamma_n ||x||_1, the two state vectors differ after i steps by at most
    # i (delta + 2 gamma_n) ||x_0||_1 in the 1-norm; a sample g = |w . x|
    # then moves by ||w||_inf times that, plus the rounding of both dot
    # products, and log g by that over g.  The least-squares slope moves by
    # at most sum |t - t_mean| |d log g| / sum (t - t_mean)^2, and the
    # linewidth is -2 slope.  The roundings of log and polyfit are a few eps,
    # far below these terms.
    params = ld.LaserParams(kappa=1.0, mu=mu)
    A, n, _ = scaled_step(mu)
    ell_old, ts, g = oracles.decay_fit_dense_expm(params, n)
    ell = ld.extract_linewidth(params, n, "decay_fit")
    delta = np.linalg.norm(ld._propagator(A) - expm(A), 1)
    w = np.sqrt(np.arange(1.0, n + 1))
    p = ld.poisson_weights(mu, n)
    x0_norm = np.sum(w * (p / p.sum())[1:])
    steps = math.ceil(30.0 / mu) + np.arange(len(ts))
    d_log_g = w.max() * x0_norm * (steps * (delta + 2 * gamma(n)) + 2 * gamma(n)) / g
    tc = ts - ts.mean()
    bound = np.sum(np.abs(tc) * d_log_g) / np.sum(tc ** 2) / (ell_old / 2)
    assert abs(ell / ell_old - 1) <= bound


def test_linewidth_linearity_in_kappa():
    ref = ld.extract_linewidth(ld.LaserParams(kappa=1.0, mu=8.0), 60)
    for c in [0.5, 2.0]:
        v = ld.extract_linewidth(ld.LaserParams(kappa=c, mu=8.0), 60)
        assert v / ref == pytest.approx(c, rel=0.01)


def test_linewidth_deviation_decreases_with_mu():
    devs = []
    for mu in [4.0, 8.0, 16.0]:
        params = ld.LaserParams(kappa=1.0, mu=mu)
        v = ld.extract_linewidth(params, fock.default_truncation(mu))
        devs.append(abs(v / ld.hl_linewidth(params) - 1))
    assert devs[0] > devs[1] > devs[2]
    # the correction is ~1/mu: at mu=16 it is within 10% of kappa/4mu
    assert devs[2] < 0.10


def test_sql_linewidth_values():
    assert ld.sql_linewidth(ld.LaserParams(kappa=1.0, mu=10.0)) == pytest.approx(0.05)
    p = ld.LaserParams(kappa=1.0, mu=10.0)
    assert ld.sql_linewidth(p) == pytest.approx(2 * ld.hl_linewidth(p))
    assert ld.sql_linewidth(ld.LaserParams(kappa=6.28e8, mu=1e8)) == pytest.approx(3.14)


def test_nonpositive_linewidth_is_a_failed_check(monkeypatch):
    # a growing coherence fits an exponential as well as a decaying one; its
    # negative rate is a failed numerical check, not a bad input
    import scipy.linalg

    params = ld.LaserParams(kappa=1.0, mu=8.0)
    monkeypatch.setattr(ld, "_propagator", lambda A: 1.01 * np.eye(len(A)))
    with pytest.raises(LinewidthFitError, match="decay_fit linewidth .* is not positive"):
        ld.extract_linewidth(params, 60, "decay_fit")
    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", lambda *a, **kw: np.array([0.01]))
    with pytest.raises(LinewidthFitError, match="eigenvalue linewidth .* is not positive"):
        ld.extract_linewidth(params, 60, "eigenvalue")


def test_linewidth_rejects_unknown_method():
    with pytest.raises(ValueError, match="method"):
        ld.extract_linewidth(ld.LaserParams(kappa=1.0, mu=8.0), 60, "spectral")


def test_loss_only_variance_growth_against_fock_evolution():
    # evolve |sqrt(mu)> under the loss-only sector generators and measure the
    # canonical phase variance growth: kappa t / (4 mu) in the short-time,
    # large-mu regime (kappa t <= 0.1, mu >= 25), as damping shrinks the
    # amplitude while the quadrature noise stays at the vacuum level
    mu, kappa, t = 25.0, 1.0, 0.04
    T = fock.default_truncation(mu)
    psi = fock.coherent_state(np.sqrt(mu), T)
    a = psi.amplitudes
    rho_t = np.zeros((T + 1, T + 1), dtype=complex)
    for k in range(T + 1):
        x0 = a[:T + 1 - k] * np.conj(a[k:])
        L = oracles.loss_sector(kappa, k, T)
        xt = expm(L * t) @ x0
        idx = np.arange(T + 1 - k)
        rho_t[idx, idx + k] = xt
        if k > 0:
            rho_t[idx + k, idx] = np.conj(xt)
    grid, density = oracles.canonical_phase_density(rho_t, 8192)
    v_t = fock.phase_variance(fock.PhaseDistribution(grid, density))
    v_0 = fock.phase_variance(fock.canonical_phase_distribution(psi, 8192))
    growth = v_t - v_0
    assert growth == pytest.approx(kappa * t / (4 * mu), rel=0.10)


def test_laser_params_validation():
    with pytest.raises(ValueError):
        ld.LaserParams(kappa=0.0, mu=1.0)
    with pytest.raises(ValueError):
        ld.LaserParams(kappa=1.0, mu=-1.0)
