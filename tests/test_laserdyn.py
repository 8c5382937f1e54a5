import math
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import eig, expm, solve_banded

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
    L0 = oracles.build_liouvillian_sector(params, 0, trunc).matrix
    A = np.vstack([L0, np.ones(trunc + 1)])
    b = np.zeros(trunc + 2)
    b[-1] = 1.0
    p, *_ = np.linalg.lstsq(A, b, rcond=None)
    return p


def poisson_pmf(mu, trunc):
    # oracle: e^{-mu} mu^n / n! for n = 0 .. trunc, each from lgamma
    return np.array([math.exp(n * math.log(mu) - mu - math.lgamma(n + 1))
                     for n in range(trunc + 1)])


def smallest_accepted_truncation(params):
    trunc = 2
    while True:
        try:
            ld.checked_weights(params, trunc)
            return trunc
        except ValueError:
            trunc += 1


def test_pure_loss_sector0_trace_preserving():
    L = oracles.loss_sector(1.3, 0, 40)
    assert np.max(np.abs(L.sum(axis=0))) < 1e-12


def test_noiseless_gain_sector0_trace_preserving():
    params = ld.LaserParams(kappa=1.0, mu=8.0)
    L = oracles.build_liouvillian_sector(params, 0, 60).matrix
    assert np.max(np.abs(L.sum(axis=0))) < 1e-12


def test_stationary_state_is_poisson():
    params = ld.LaserParams(kappa=1.0, mu=8.0)
    pops = ld.stationary_state(params, 60)
    ref = poisson_pmf(8.0, 60)
    tv = 0.5 * np.abs(pops - ref).sum() + 0.5 * (1 - ref.sum())
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
    trunc = smallest_accepted_truncation(params)
    p = ld.stationary_state(params, trunc)
    assert np.max(np.abs(p - lstsq_stationary_populations(params, trunc))) <= 1e-12
    assert abs(p.sum() - 1.0) <= 4 * EPS
    # detailed balance kappa mu P(n) = kappa (n+1) P(n+1) on every link, to
    # the rounding of one link: the amplitudes' ratio is sqrt(mu/(n+1)) to
    # 4.5 u (the quotient, its root, the product and the two scalings), and
    # the squares, the normalization and the two rates' products add 8 u,
    # so 17 u of the gain (3.5 eps at most measured)
    n = np.arange(trunc)
    gain = params.kappa * params.mu * p[:-1]
    loss = params.kappa * (n + 1) * p[1:]
    assert np.all(np.abs(gain - loss) <= 17 * EPS / 2 * gain)


def test_stationary_state_is_the_normalized_poisson_weights():
    # the squared amplitudes over 0 .. T, normalized over the retained states
    params = ld.LaserParams(kappa=1.0, mu=8.0)
    p = np.square(fock.poisson_amplitudes(8.0, 0, 60 + math.ceil(10 * math.sqrt(8.0) + 10)))
    p, tail = p[:61], p[61:].sum()
    assert np.array_equal(ld.stationary_state(params, 60), p / p.sum())
    assert ld.checked_weights(params, 60)[1] == tail


def test_stationary_state_forms_the_poisson_weights_once(monkeypatch):
    # the tail check and the normalization read one array, built past the
    # truncation by 10 sqrt(mu) + 10
    calls, amplitudes = [], ld.poisson_amplitudes
    monkeypatch.setattr(ld, "poisson_amplitudes", lambda mu, lo, hi: calls.append(
        (lo, hi)) or amplitudes(mu, lo, hi))
    ld.stationary_state(ld.LaserParams(kappa=1.0, mu=8.0), 60)
    assert calls == [(0, 99)]


@pytest.mark.parametrize("mu", [4.0, 25.0, 255.9, 4096.0, 65536.0, 1e5, 127491.0])
def test_tail_mass_is_the_50_digit_tail(mu):
    # the tail past the default truncation T against the 50-digit sum of the
    # Poisson terms past T: 2.4e-21 at mu = 4 and 9.0e-24 at 1e5.  Each built
    # amplitude d steps from the mode m errs by at most the mode's 1e-14 plus
    # 2.5 u per step (a rounded ratio mu/(n+1), its square root and the
    # product), so each weight, and their positive sum, by twice that at
    # d = T + 10 sqrt(mu) + 10 - m, plus the squaring and the pairwise sum:
    # 2e-12 relative at mu = 127491; at most 1.1e-14 was measured (at 1e5)
    pytest.importorskip("mpmath")
    params = ld.LaserParams(kappa=1.0, mu=mu)
    trunc = fock.default_truncation(mu)
    p, tail = ld.checked_weights(params, trunc)
    assert len(p) == trunc + 1 and 0 < tail < 1e-20
    steps = trunc + math.ceil(10 * math.sqrt(mu) + 10) - math.floor(mu)
    assert abs(tail / oracles.poisson_tail(mu, trunc) - 1) <= \
        2 * (1e-14 + 2.5 * steps * EPS / 2) + 64 * EPS


def test_truncation_below_mu_is_refused_before_any_weight(monkeypatch):
    # its tail, P(n > T) >= P(n >= ceil(mu)), exceeds 0.32 at every mu > 2,
    # so no weight is formed to read it; 1e6 photons at T = 1000 would need
    # a million of them
    def no_weights(*args):
        raise AssertionError("Poisson weights formed")

    monkeypatch.setattr(ld, "poisson_amplitudes", no_weights)
    for mu, trunc in ((1e6, 1000), (10.5, 10), (2.0 + 1e-12, 2)):
        with pytest.raises(ValueError, match=f"truncation {trunc} too small: below mu"):
            ld.checked_weights(ld.LaserParams(kappa=1.0, mu=mu), trunc)


@pytest.mark.parametrize("mu", [4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0])
def test_decay_fit_slope_is_the_40_digit_least_squares_slope(monkeypatch, mu):
    # the closed-form line through the log-samples, about their centroid, is
    # within 1e-15 relative of the least-squares slope of the same float
    # samples taken in 40-digit arithmetic (4.4e-16 at most measured; the
    # np.polyfit route it replaced erred by up to 2.8e-15)
    mpmath = pytest.importorskip("mpmath")
    coherence, sampled = ld._coherence, []
    monkeypatch.setattr(ld, "_coherence", lambda params, trunc, ts: sampled.append(
        (ts, coherence(params, trunc, ts))) or sampled[-1][1])
    ell = ld.extract_linewidth(ld.LaserParams(kappa=1.0, mu=mu), fock.default_truncation(mu),
                               "decay_fit")
    ((ts, g),) = sampled
    with mpmath.workdps(40):
        t = [mpmath.mpf(float(v)) for v in ts]
        y = [mpmath.mpf(float(v)) for v in np.log(g)]
        t_mean, y_mean = mpmath.fsum(t) / len(t), mpmath.fsum(y) / len(y)
        slope = mpmath.fsum((a - t_mean) * (b - y_mean) for a, b in zip(t, y)) \
            / mpmath.fsum((a - t_mean) ** 2 for a in t)
        assert abs(-ell / 2 / slope - 1) <= 1e-15


def test_decay_fit_starts_from_the_stationary_state(monkeypatch):
    calls = []
    stationary = ld.stationary_state
    monkeypatch.setattr(ld, "stationary_state",
                        lambda params, trunc: calls.append(trunc) or stationary(params, trunc))
    ld.extract_linewidth(ld.LaserParams(kappa=1.0, mu=8.0), 60, "decay_fit")
    assert calls == [60]


def test_truncation_too_small_rejected():
    # every route refuses it through the one check, checked_weights
    params = ld.LaserParams(kappa=1.0, mu=8.0)
    for route in (ld.checked_weights, ld.stationary_state, ld.linewidth_bracket,
                  lambda params, trunc: ld.extract_linewidth(params, trunc, "eigenvalue"),
                  lambda params, trunc: ld.extract_linewidth(params, trunc, "decay_fit")):
        with pytest.raises(ValueError, match="truncation 12 too small"):
            route(params, 12)


def test_row_budget_top_passes_the_tail_check():
    # mu = 127491 is the least mu whose default truncation is the whole row
    # budget; the tail past it is 9e-24
    params = ld.LaserParams(kappa=1.0, mu=127491.0)
    trunc = fock.default_truncation(params.mu)
    assert trunc == ld.ROW_BUDGET > fock.default_truncation(127490.0)
    p, tail = ld.checked_weights(params, trunc)
    assert len(p) == trunc + 1 and 0 < tail <= 1e-12
    with pytest.raises(ValueError, match="the row budget"):
        ld.checked_weights(params, trunc + 1)


def test_sector_blocks_match_full_superoperator():
    # the full generator must map rho_{n, n+k} strictly within offset k, and
    # its blocks must reproduce the sector matrices exactly: the general
    # sector oracle with noiseless gain (mu = 2), the loss-only oracle
    # sectors at mu = 0
    T = 16
    d = T + 1
    params = ld.LaserParams(kappa=1.0, mu=2.0)
    for mu, sector in [(2.0, lambda k: oracles.build_liouvillian_sector(params, k, T).matrix),
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


def test_oracle_sector_keeps_its_dense_view():
    # the dense view and the three diagonals that the oracles read agree in
    # shape and entries
    params = ld.LaserParams(kappa=1.0, mu=8.0)
    sector = oracles.build_liouvillian_sector(params, 1, 60)
    L = sector.matrix
    assert L.shape == (60, 60)
    assert len(sector.diag) == 60 and len(sector.sub) == len(sector.sup) == 59
    assert np.array_equal(np.diag(L), sector.diag)
    assert np.array_equal(np.diag(L, -1), sector.sub) and np.array_equal(np.diag(L, 1), sector.sup)


@pytest.mark.parametrize("mu", [0.5, 8.0, 256.0])
def test_eliminate_rows_are_a_gth_pass_over_the_oracle_sector(mu):
    # the rows _eliminate forms from closed forms, bitwise those of a
    # plain-Python GTH pass over B = -L1^T read from the general sector
    # oracle: its sup (left of B's diagonal), its sub (right of it) and its
    # column defects.  A defect formed by subtraction from the oracle's
    # column sums cancels, so the pass takes the closed form
    # kappa / (4 (i + 1/2 + sqrt(i (i+1)))) (+ kappa mu / 2 at the top), held
    # here to those sums within the rounding of the subtraction
    params = ld.LaserParams(kappa=0.37, mu=mu)
    trunc = fock.default_truncation(mu)
    L1 = oracles.build_liouvillian_sector(params, 1, trunc)
    sup, sub = L1.sup.tolist(), L1.sub.tolist()
    leak = [params.kappa / (4.0 * (i + 0.5 + math.sqrt(i * (i + 1.0)))) for i in range(trunc)]
    leak[-1] += params.kappa * params.mu / 2.0
    column_sums = L1.matrix.sum(axis=0)
    assert np.all(np.abs(np.array(leak) + column_sums) <= 4 * EPS * np.abs(L1.diag))
    rows, carried, pivot = [], 0.0, 1.0
    for left_i, leak_i, right_i in zip([0.0] + sup, leak, sub + [0.0]):
        mult = left_i / pivot
        carried = 0.0 + leak_i + mult * carried
        pivot = carried + right_i
        rows.append((mult, pivot, right_i))
    assert list(ld._eliminate(params, trunc, 0.0)) == rows


def test_linewidth_mu8ts_frozen_value():
    # oracle (dense eigendecomposition of the k=1 sector, cross-checked against
    # the full superoperator): ell = 0.03712959 at kappa=1, mu=8.  This sits
    # 18.8% above the large-mu asymptote kappa/4mu = 0.03125.
    params = ld.LaserParams(kappa=1.0, mu=8.0)
    assert ld.extract_linewidth(params, 60) == pytest.approx(0.03712959, rel=1e-5)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(mu=st.floats(0.5, 64.0), kappa=st.floats(0.1, 10.0))
def test_tridiagonal_eigenvalue_matches_dense_eig(mu, kappa):
    # The dense nonsymmetric eig is backward stable: it returns an exact
    # eigenvalue of a matrix within a small multiple of eps*||L1|| of the
    # sector, and multiplies that backward error by cond(lambda_1) (2 to 6
    # over this range), computed here from its left and right eigenvectors.
    # The bracketed route is within T eps of lambda_1, relative, which is
    # below eps ||L1|| / |lambda_1| (||L1|| >= kappa T, |lambda_1| <= kappa/2).
    # So |delta lambda|/|lambda_1| <= c (1 + cond) eps ||L1|| / |lambda_1|,
    # with the stated safety factor c = 10 for the backward-error constants.
    params = ld.LaserParams(kappa=kappa, mu=mu)
    trunc = fock.default_truncation(mu)
    L1 = oracles.build_liouvillian_sector(params, 1, trunc).matrix
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


@pytest.mark.parametrize("kappa", [0.37, 1.0, 3e6])
@pytest.mark.parametrize("mu", [0.5, 4.0, 8.0, 16.0, 64.0, 256.0])
def test_bracket_within_eigh_tridiagonal_error_model(mu, kappa):
    # eigh_tridiagonal's bisection is backward stable on the symmetrized
    # sector S: |delta lambda| <= eps ||S||_2 <= eps ||S||_1.  Relative to
    # lambda_1 ~ -kappa/(8 mu), with ||S||_1 ~ 3 kappa mu, that is the
    # eps mu^2 growth its error shows (1.6e-10 at mu = 256); the bracket is
    # far tighter, so the two differ by at most eps ||S||_1 / |lambda_1|.
    params = ld.LaserParams(kappa=kappa, mu=mu)
    trunc = fock.default_truncation(mu)
    lo, hi = ld.linewidth_bracket(params, trunc)
    # T eps on each side, around a bracket converged to within T eps
    assert 0 < lo < hi and (hi - lo) / lo <= 3 * trunc * EPS
    diag, off = oracles.symmetric_sector_1(params, trunc)
    s_norm = max(np.abs(diag) + np.append(off, 0) + np.append(0, off))
    ell = ld.extract_linewidth(params, trunc, "eigenvalue")
    assert ell == (lo + hi) / 2
    rel_bound = EPS * s_norm / (ell / 2)
    assert abs(oracles.linewidth_eigh_tridiagonal(params, trunc) / ell - 1) <= rel_bound


@pytest.mark.parametrize("mu", [16.0, 256.0])
@pytest.mark.parametrize("smallest", [False, True])
def test_bracket_holds_the_decimal_sturm_oracle(mu, smallest):
    # the 30-digit Sturm-bisection linewidth of the exact sector lies inside
    # the bracket, T eps wide on each side; leaks formed by subtraction,
    # kappa (i + 1/2 - sqrt(i (i+1))), move the linewidth by 3e-14 (mu = 16)
    # and 2.5e-12 (mu = 256) relative, outside it.  At the smallest accepted
    # truncation the top state holds enough weight that dropping its
    # truncated gain kappa mu / 2 from the leaks moves it outside too.
    params = ld.LaserParams(kappa=1.0, mu=mu)
    trunc = smallest_accepted_truncation(params) if smallest else fock.default_truncation(mu)
    lo, hi = ld.linewidth_bracket(params, trunc)
    exact = oracles.linewidth_sturm_decimal(params, trunc)
    assert Decimal(lo) <= exact <= Decimal(hi)


# linewidth_bracket's (lo, hi) at kappa = 1, as hex words, recorded while the
# bracket still kept its own copy of the elimination and the solves: the
# shared factorization keeps their operation order, and so every bit
BRACKET_PINS = [
    (0.5, None, "0x1.5e76dce643678p-1", "0x1.5e76dce6436acp-1"),
    (4.0, None, "0x1.a96e9ec75b529p-4", "0x1.a96e9ec75b5a2p-4"),
    (256.0, None, "0x1.0101d53491eb5p-10", "0x1.0101d5349220dp-10"),
    (256.0, 512, "0x1.0101d53491e5bp-10", "0x1.0101d5349225fp-10"),
]


@pytest.mark.parametrize("mu, trunc, lo, hi", BRACKET_PINS)
def test_bracket_is_pinned(mu, trunc, lo, hi):
    params = ld.LaserParams(kappa=1.0, mu=mu)
    bracket = ld.linewidth_bracket(params, trunc or fock.default_truncation(mu))
    assert bracket == (float.fromhex(lo), float.fromhex(hi))


def test_linewidth_methods_agree():
    for mu in [4.0, 8.0, 16.0]:
        params = ld.LaserParams(kappa=1.0, mu=mu)
        trunc = fock.default_truncation(mu)
        v_eig = ld.extract_linewidth(params, trunc, "eigenvalue")
        v_fit = ld.extract_linewidth(params, trunc, "decay_fit")
        assert abs(v_eig / v_fit - 1) < 0.02


@pytest.mark.parametrize("mu", [4.0, 16.0, 64.0])
def test_decay_fit_is_one_propagator_past_the_transients(monkeypatch, mu):
    # the dense Pade route takes one Pade step, on L1 dt / 2^s with the least
    # s that brings the 1-norm to THETA_13 or below, and samples from the
    # first multiple of dt at or after the 8/kappa the fast transients need;
    # it agrees with the eigenvalue to the 1e-7 the README states
    kappa = 0.5
    pade, polyfit = oracles.pade13, np.polyfit
    built, sampled = [], []
    monkeypatch.setattr(oracles, "pade13", lambda a: built.append(a) or pade(a))
    monkeypatch.setattr(np, "polyfit", lambda x, y, deg: sampled.append(x) or polyfit(x, y, deg))
    params = ld.LaserParams(kappa=kappa, mu=mu)
    trunc = fock.default_truncation(mu)
    fit, _, _ = oracles.decay_fit_pade(params, trunc)
    (scaled,) = built
    (ts,) = sampled
    dt = 16.0 * mu / kappa / 60
    assert ts[0] >= 8 / kappa > ts[0] - (ts[1] - ts[0])
    A = oracles.build_liouvillian_sector(params, 1, trunc).matrix * dt
    s = round(math.log2(np.linalg.norm(A, 1) / np.linalg.norm(scaled, 1)))
    assert np.array_equal(scaled * 2.0 ** s, A)
    assert oracles.THETA_13 / 2 < np.linalg.norm(scaled, 1) <= oracles.THETA_13
    eig = ld.extract_linewidth(params, trunc, "eigenvalue")
    assert abs(fit / eig - 1) <= 1e-7


def scaled_step(mu):
    """L1 dt of the decay fit at kappa = 1, its size n and its scaling s."""
    params = ld.LaserParams(kappa=1.0, mu=mu)
    trunc = fock.default_truncation(mu)
    A = oracles.build_liouvillian_sector(params, 1, trunc).matrix * (16.0 * mu / 60)
    return A, trunc, max(0, math.ceil(math.log2(np.linalg.norm(A, 1) / oracles.THETA_13)))


def gamma(n):
    # Higham's gamma_n = n u / (1 - n u), u = eps / 2: the relative bound on
    # the rounding of an n-term inner product
    return n * EPS / 2 / (1 - n * EPS / 2)


@pytest.mark.parametrize("mu", [64.0, 128.0, 256.0])
def test_flushed_squaring_is_bitwise_unflushed(mu):
    # zeroing the entries below FLUSH_BELOW before each squaring changes no
    # bit of the propagator, although it zeroes thousands of them
    A, _, s = scaled_step(mu)
    U = oracles.pade13(A / 2.0 ** s)
    flushed = 0
    for _ in range(s):
        flushed += int(np.count_nonzero((U != 0) & (np.abs(U) < oracles.FLUSH_BELOW)))
        U = U @ U
    assert flushed > 1000
    assert np.array_equal(oracles.propagator(A), U)


@pytest.mark.parametrize("mu", [64.0, 128.0, 256.0])
def test_propagator_within_squaring_error_of_expm(mu):
    # At these mu scipy's expm(A) picks the same scaling s (scipy 1.17), so
    # both routes take a degree-13 Pade step on A / 2^s, which differ only
    # by the rounding of their evaluation (asserted below gamma_n), and
    # square it s times.  exp(L1 t) is entrywise nonnegative with 1-norm at
    # most 1, so a squaring X -> fl(X X) errs by at most
    # gamma_n ||X||_1^2 <= gamma_n, and an error E in X becomes E X + X E,
    # at most doubled: after s squarings each route is within
    # (2^s - 1) gamma_n of the exact power of its own step (Higham 2005).
    # The flush adds at most n 2^-500 per squaring, also doubled by each
    # later one.  The steps' difference d would add up to 2^s d, which the
    # bound below leaves out; the measured difference sits over 400 times
    # below it.
    A, n, s = scaled_step(mu)
    U = oracles.propagator(A)
    assert U.min() >= 0 and np.linalg.norm(U, 1) <= 1
    step = A / 2.0 ** s
    assert np.linalg.norm(oracles.pade13(step) - expm(step), 1) <= gamma(n)
    bound = 2 * (2 ** s - 1) * gamma(n) + 2 ** s * s * n * oracles.FLUSH_BELOW
    assert np.linalg.norm(U - expm(A), 1) <= bound


# --- the decay fit's contour and its tridiagonal solves ----------------------
# The bounds below are the ones derived in laserdyn._coherence, in units of
# t0 = 1: nodes z_k and weights W_k from ld._contour(), tau = t / t0.

U_ROUND = EPS / 2


def truncation_error(tau):
    """The contour's truncation error bound at tau: the dropped terms
    (h / pi) coth(u) sec(alpha) e^{mu tau (1 - sin(alpha) cosh u)}, u > N h."""
    u = ld.CONTOUR_H * np.arange(ld.CONTOUR_N + 1, ld.CONTOUR_N + 41)
    a, mu = ld.CONTOUR_ALPHA, ld.CONTOUR_MU
    terms = ld.CONTOUR_H / np.pi / np.tanh(u) / math.cos(a) \
        * np.exp(mu * np.multiply.outer(tau, 1 - math.sin(a) * np.cosh(u)))
    return terms.sum(axis=-1)


def node_distances(z):
    """dist(z, (-inf, 0]), and c_theta = sec(theta/2) (42 + 66 sec(theta/2))
    with theta = |arg z|: the solve's entrywise backward-error constant."""
    dist = np.where(z.real >= 0, np.abs(z), np.abs(z.imag))
    sec = 1 / np.cos(np.abs(np.angle(z)) / 2)
    return dist, sec * (42 + 66 * sec)


def symmetrizer(params, trunc):
    """D with L1 = D S D^{-1}, S symmetric: D_{n+1}^2 / D_n^2 is the ratio
    kappa mu / (kappa sqrt((n+1)(n+2))) of gain to loss, so D_n^2 = p_{n+1}
    sqrt(n+1) with p the Poisson weights."""
    p = np.square(fock.poisson_amplitudes(params.mu, 0, trunc))
    return np.sqrt(p[1:] * np.sqrt(np.arange(1.0, trunc + 1)))


def fit_times(params):
    nsteps, dt = 60, 16.0 * params.mu / params.kappa / 60
    return dt * np.arange(math.ceil(30.0 / params.mu), math.ceil(30.0 / params.mu) + nsteps + 1)


def solve_bounds(params, trunc, t0):
    """Per node: the bound rho_k on the solve's relative error in D^{-1} y,
    dist_k, and N_x = ||D w|| ||D^{-1} x|| (t0 = 1 units)."""
    z, _ = ld._contour()
    dist, c_theta = node_distances(z)
    diag, off = oracles.symmetric_sector_1(params, trunc)
    s_norm = max(np.abs(diag) + np.append(off, 0) + np.append(0, off)) * t0
    D = symmetrizer(params, trunc)
    w = np.sqrt(np.arange(1.0, trunc + 1))
    x = w * ld.stationary_state(params, trunc)[1:]
    n_x = np.linalg.norm(D * w) * np.linalg.norm(x / D)
    return c_theta * U_ROUND * (np.abs(z) + s_norm) / dist, dist, n_x


def sample_bounds(params, trunc, ts):
    """|g_computed - g| at each sample time: the quadrature's truncation
    error, each solve's error weighted by |W_k e^{z_k tau}|, and the
    rounding of the nodes' terms and of their sum, times N_x."""
    z, weight = ld._contour()
    rho, dist, n_x = solve_bounds(params, trunc, ts[0])
    tau = ts / ts[0]
    size = np.abs(weight) * np.exp(np.multiply.outer(tau, z.real)) / dist
    rounding = (ld.CONTOUR_N + 4 + np.multiply.outer(tau, np.abs(z)) + np.abs(z) / dist) * U_ROUND
    return n_x * (truncation_error(tau) + (size * (rho + rounding)).sum(axis=1))


def slope_bound(ts, d_log_g):
    # the least-squares slope moves by at most sum |t - t_mean| |d log g| /
    # sum (t - t_mean)^2
    tc = ts - ts.mean()
    return np.sum(np.abs(tc) * d_log_g) / np.sum(tc ** 2)


def test_contour_quadrature_within_its_bound():
    # e^{lambda tau} against the contour rule, for lambda t0 over the whole
    # spectrum of a large sector (mu = 256 at T = 512, past its default
    # truncation of 426) and tau over [1, 61], in floating point: within the
    # truncation error plus the rounding of the terms and of their sum
    params = ld.LaserParams(kappa=1.0, mu=256.0)
    t0 = fit_times(params)[0]
    L1 = oracles.build_liouvillian_sector(params, 1, 512)
    l1_norm = max(np.abs(L1.diag) + np.append(L1.sub, 0) + np.append(0, L1.sup))
    z, weight = ld._contour()
    lam = -np.concatenate([[0.0], np.geomspace(1e-6, l1_norm * t0, 200)])
    tau = np.linspace(1.0, 61.0, 61)
    terms = weight[:, None, None] * np.exp(np.multiply.outer(z, tau))[:, None, :] \
        / np.subtract.outer(z, lam)[:, :, None]
    err = np.abs(np.exp(np.multiply.outer(lam, tau)) - terms.sum(axis=0).real)
    growth = np.abs(z)[:, None, None] * (tau + 1 / np.abs(z[:, None, None] - lam[:, None]))
    rounding = U_ROUND * ((ld.CONTOUR_N + 4 + growth) * np.abs(terms)).sum(axis=0)
    assert truncation_error(1.0) <= 2.6e-15
    assert np.all(err <= truncation_error(tau) + rounding)


@pytest.mark.parametrize("mu, trunc", [(4.0, None), (16.0, None), (64.0, None),
                                       (256.0, None), (256.0, 512)])
def test_resolvent_solves_hold_dense_solve(mu, trunc):
    # Each node's elimination against LAPACK's partially pivoted solve of
    # z - L1 (scipy's solve_banded, gtsv on a tridiagonal), and kappa_1 from
    # the same solve with identity right-hand sides.  The elimination's
    # error in s_k = w . y_k is at most rho_k N_x / dist_k
    # (laserdyn._coherence).  Partially pivoted LU has
    # ||E||_1 <= 24 gamma_{3T} ||A||_1 on a tridiagonal A (bidiagonal L with
    # |l| <= 1, U of three diagonals with growth at most 2 (Higham 2002,
    # sec. 9.6), doubled for complex arithmetic), so its y errs by at most
    # kappa_1(A) times that, relative, and s_k by ||w||_inf times the 1-norm.
    params = ld.LaserParams(kappa=1.0, mu=mu)
    trunc = trunc or fock.default_truncation(mu)
    t0 = fit_times(params)[0]
    z = ld._contour()[0] / t0
    s = ld._resolvent_products(params, trunc, z)
    rho, dist, n_x = solve_bounds(params, trunc, t0)
    L1 = oracles.build_liouvillian_sector(params, 1, trunc)
    w = np.sqrt(np.arange(1.0, trunc + 1))
    x = w * ld.stationary_state(params, trunc)[1:]
    for k, zk in enumerate(z):
        # A = zk - L1 in band storage, ab[1 + i - j, j] = A[i, j]; column
        # j of A is column j of ab
        ab = -np.array([np.append(0.0, L1.sup), L1.diag - zk, np.append(L1.sub, 0.0)])
        y = solve_banded((1, 1), ab, x)
        inv_norm = np.abs(solve_banded((1, 1), ab, np.eye(trunc))).sum(axis=0).max()
        kappa_1 = np.abs(ab).sum(axis=0).max() * inv_norm
        dense = w.max() * kappa_1 * 24 * gamma(3 * trunc) * np.linalg.norm(y, 1)
        assert abs(s[k] - w @ y) <= rho[k] * n_x * t0 / dist[k] + dense, k


@pytest.mark.parametrize("mu, worst", [(4.0, 1.3e-15), (64.0, 2.7e-13)])
def test_resolvent_products_hold_a_40_digit_solve(monkeypatch, mu, worst):
    # each node's s_k against the same float64 system (z_k - L1) y = x
    # solved by Thomas elimination in 40-digit arithmetic; the two-copy
    # eliminations that the shared factorization replaced erred by up to
    # 1.18e-15 (mu = 4) and 2.46e-13 (mu = 64), and ``worst`` allows 1.1
    # times that.  Those errors were measured with x from the log-space
    # weights, so the solve is held on the same system: the stationary state
    # is patched to them
    mpmath = pytest.importorskip("mpmath")
    params = ld.LaserParams(kappa=1.0, mu=mu)
    trunc = fock.default_truncation(mu)
    p = oracles.log_space_poisson_weights(mu, trunc)
    monkeypatch.setattr(ld, "stationary_state", lambda params, truncation: p / p.sum())
    z = ld._contour()[0] / fit_times(params)[0]
    s = ld._resolvent_products(params, trunc, z)
    L1 = oracles.build_liouvillian_sector(params, 1, trunc)
    w = np.sqrt(np.arange(1.0, trunc + 1))
    x = w * (p / p.sum())[1:]
    with mpmath.workdps(40):
        sub, sup, diag, w, x = ([mpmath.mpf(float(v)) for v in a]
                                for a in (L1.sub, L1.sup, L1.diag, w, x))
        for k, zk in enumerate(z):
            a = [mpmath.mpc(complex(zk)) - d for d in diag]
            b = list(x)
            for i in range(1, trunc):
                f = sub[i - 1] / a[i - 1]
                a[i] -= f * sup[i - 1]
                b[i] += f * b[i - 1]
            y = b[-1] / a[-1]
            ref = w[-1] * y
            for i in range(trunc - 2, -1, -1):
                y = (b[i] + sup[i] * y) / a[i]
                ref += w[i] * y
            assert abs(mpmath.mpc(complex(s[k])) - ref) <= worst * abs(ref), k


def assert_fit_agrees_with_dense_expm(mu, kappa):
    # |g| from the contour errs by at most sample_bounds.  The dense route
    # applies U' = expm(L1 dt): Pade's backward error (below u ||A||_1 by
    # its choice of degree and scaling s <= ceil(log2(||A||_1 / THETA_13)))
    # moves exp(A) by at most that in the 1-norm, its evaluation rounds by
    # about gamma_T, amplified 2^s times by the squarings, and the squarings
    # add 2 (2^s - 1) gamma_T (see the propagator tests).  Each step and the
    # sample's dot product round by gamma_T on nonnegative data, so the i-th
    # sample errs by at most ||w||_inf ||x_0||_1 (n_i (delta + gamma_T) +
    # gamma_T) after n_i steps.  Both move log g by their sum over g, and
    # the slope as in slope_bound.
    params = ld.LaserParams(kappa=kappa, mu=mu)
    trunc = fock.default_truncation(mu)
    ell_dense, ts, g = oracles.decay_fit_dense_expm(params, trunc)
    ell = ld.extract_linewidth(params, trunc, "decay_fit")
    assert np.array_equal(ts, fit_times(params))
    A = oracles.build_liouvillian_sector(params, 1, trunc).matrix * (ts[1] - ts[0])
    s = max(0, math.ceil(math.log2(np.linalg.norm(A, 1) / oracles.THETA_13)))
    delta = U_ROUND * np.linalg.norm(A, 1) + (3 * 2 ** s - 2) * gamma(trunc)
    w = np.sqrt(np.arange(1.0, trunc + 1))
    x0_norm = np.sum(w * ld.stationary_state(params, trunc)[1:])
    steps = math.ceil(30.0 / mu) + np.arange(len(ts))
    d_dense = w.max() * x0_norm * (steps * (delta + gamma(trunc)) + gamma(trunc))
    d_log_g = (sample_bounds(params, trunc, ts) + d_dense) / g
    assert abs(ell / ell_dense - 1) <= slope_bound(ts, d_log_g) / (ell_dense / 2)


@pytest.mark.parametrize("mu", [64.0, 128.0, 256.0])
def test_decay_fit_agrees_with_dense_expm_route(monkeypatch, mu):
    # the largest sectors, always run; the property below draws the rest.
    # The contour is sampled at the dense route's times.
    coherence, sampled = ld._coherence, []
    monkeypatch.setattr(ld, "_coherence",
                        lambda params, trunc, ts: sampled.append(ts) or coherence(params, trunc, ts))
    assert_fit_agrees_with_dense_expm(mu, 1.0)
    (ts,) = sampled
    assert np.array_equal(ts, fit_times(ld.LaserParams(kappa=1.0, mu=mu)))


@settings(max_examples=12, deadline=None, derandomize=True)
@given(mu=st.floats(4.0, 256.0), kappa=st.sampled_from([0.37, 1.0, 3e6]))
def test_contour_fit_within_derived_bound_of_dense_expm(mu, kappa):
    assert_fit_agrees_with_dense_expm(mu, kappa)


def test_decay_fit_memory_stays_below_one_dense_sector():
    # the streamed fit keeps no factor or solution row.  It holds the
    # sector's diagonals, the weights and their temporaries (at most twelve
    # float arrays, 8 B a row), five lists of Python floats (32 B an entry)
    # and one row's 61-long complex arrays, freed as the elimination moves
    # on; then the 61 x 61 complex matrix of the samples and its
    # temporaries.  So its traced peak stays below 256 B a row plus four
    # 61 x 61 complex arrays: 347 kB at mu = 256 (T = 426) and 1.45 MB at
    # mu = 4096 (T = 4746), far below one T x T float array
    for mu in (256.0, 4096.0):
        params = ld.LaserParams(kappa=1.0, mu=mu)
        trunc = fock.default_truncation(mu)
        ld.extract_linewidth(params, trunc, "decay_fit")  # warm caches
        tracemalloc.start()
        try:
            ld.extract_linewidth(params, trunc, "decay_fit")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        bound = 256 * trunc + 4 * 61 * 61 * 16
        assert peak < bound < trunc * trunc * 8, mu


@pytest.mark.parametrize("mu, law", [(1024.0, 1.81752), (4096.0, 1.81375)])
def test_second_order_law_from_the_bracket(mu, law):
    # mu (mu x - 1), x = ell / (kappa / (4 mu)) - 1, from the production
    # bracket against its 50-digit mpmath value, quoted to six digits:
    # ell = kappa/(4 mu) (1 + 1/mu + 29/(16 mu^2) + O(mu^-3)).  The midpoint
    # is within half the bracket of ell, which moves mu (mu x - 1) by at
    # most mu^2 (1 + x) / 2 < mu^2 times the bracket's relative width
    params = ld.LaserParams(kappa=1.0, mu=mu)
    lo, hi = ld.linewidth_bracket(params, fock.default_truncation(mu))
    x = (lo + hi) / 2 / ld.hl_linewidth(params) - 1
    tol = 0.5e-5 + mu ** 2 * (hi - lo) / lo
    assert abs(mu * (mu * x - 1) - law) <= tol


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
    params = ld.LaserParams(kappa=1.0, mu=8.0)
    monkeypatch.setattr(ld, "_coherence", lambda params, truncation, ts: np.exp(0.01 * ts))
    with pytest.raises(LinewidthFitError, match="decay_fit linewidth .* is not positive"):
        ld.extract_linewidth(params, 60, "decay_fit")
    # an eigenvalue of 0.01: the linewidth -2 * 0.01
    monkeypatch.setattr(ld, "linewidth_bracket", lambda params, truncation: (-0.02, -0.02))
    with pytest.raises(LinewidthFitError, match="eigenvalue linewidth .* is not positive"):
        ld.extract_linewidth(params, 60, "eigenvalue")


def test_unconverged_bracket_is_a_failed_check(monkeypatch):
    # one inverse iteration from x = 1 leaves the bracket far wider than T eps
    monkeypatch.setattr(ld, "MAX_INVERSE_ITERATIONS", 1)
    with pytest.raises(LinewidthFitError, match="left the linewidth bracket .* above T eps"):
        ld.extract_linewidth(ld.LaserParams(kappa=1.0, mu=8.0), 60)


def test_bracket_cache_holds_one_result_and_no_failure(monkeypatch):
    # one entry, keyed on the arguments and their types: a float truncation
    # is refused as before, after the same int truncation was cached
    assert ld.linewidth_bracket.cache_parameters() == {"maxsize": 1, "typed": True}
    params = ld.LaserParams(kappa=1.0, mu=8.0)
    first = ld.linewidth_bracket(params, 60)
    assert ld.linewidth_bracket(ld.LaserParams(kappa=1.0, mu=8.0), 60) is first
    with pytest.raises(TypeError):
        ld.linewidth_bracket(params, 60.0)
    # an exception is not cached: the same failing call fails again
    ld.linewidth_bracket.cache_clear()
    monkeypatch.setattr(ld, "MAX_INVERSE_ITERATIONS", 1)
    for _ in range(2):
        with pytest.raises(LinewidthFitError, match="left the linewidth bracket"):
            ld.linewidth_bracket(params, 60)
    assert ld.linewidth_bracket.cache_info().currsize == 0


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
    v_t = oracles.grid_phase_variance(oracles.PhaseDistribution(grid, density))
    v_0 = fock.phase_variance(*fock.phase_support(psi))
    growth = v_t - v_0
    assert growth == pytest.approx(kappa * t / (4 * mu), rel=0.10)


def test_laser_params_validation():
    with pytest.raises(ValueError):
        ld.LaserParams(kappa=0.0, mu=1.0)
    with pytest.raises(ValueError):
        ld.LaserParams(kappa=1.0, mu=-1.0)
