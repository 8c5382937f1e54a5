import math
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import dawsn, erf, erfcinv, wofz

import oracles
from laserclock import channel as ch
from laserclock.errors import WindowError


SPEC = ch.LatticeSpec(delta=1.0)


def overlap_erf_oracle(alpha, delta, n, m):
    """Independent closed form via scipy's complex erf (safe for small |m|)."""
    qb = math.sqrt(2) * alpha.real
    pb = math.sqrt(2) * alpha.imag
    p = 2 * np.pi * m / delta
    dlt = pb - p
    a, b = delta * n - delta / 2, delta * n + delta / 2
    ua, ub = (a - qb) / math.sqrt(2), (b - qb) / math.sqrt(2)
    s = dlt / math.sqrt(2)
    E = np.exp(-s ** 2) * (erf(ub - 1j * s) - erf(ua - 1j * s))
    return (np.pi ** 0.25 / math.sqrt(2 * delta)) * np.exp(1j * dlt * qb - 1j * qb * pb / 2) * E


def test_vacuum_central_overlap_value():
    # oracle: quadrature, erf closed form and mpmath all give 0.7209681828,
    # i.e. |overlap|^2 = 0.5197951206
    c = oracles.lattice_overlap(0.0, SPEC, 0, 0)
    assert c.real == pytest.approx(0.720968182787, abs=1e-10)
    assert abs(c.imag) < 1e-12
    assert abs(c) ** 2 == pytest.approx(0.519795120592, abs=1e-9)
    # cross-check against a direct real integral of the vacuum wavefunction
    direct = quad(lambda q: np.pi ** -0.25 * np.exp(-q * q / 2), -0.5, 0.5)[0]
    assert abs(c - direct) < 1e-10


@pytest.mark.parametrize("alpha", [0.0, 2.0, 5.0 * np.exp(1j * np.pi / 4), 1.5 - 2.2j])
@pytest.mark.parametrize("nm", [(0, 0), (3, 1), (7, -2), (2, 5)])
def test_quadrature_matches_closed_form(alpha, nm):
    alpha = complex(alpha)
    n, m = nm
    c_quad = oracles.lattice_overlap(alpha, SPEC, n, m)
    c_closed = complex(ch._overlap_closed(alpha, 1.0, np.array([n]), np.array([m]))[0, 0])
    c_erf = overlap_erf_oracle(alpha, 1.0, n, m)
    assert abs(c_quad - c_closed) < 1e-10
    assert abs(c_quad - c_erf) < 1e-10


# |w - scipy's wofz| / |wofz| measured at most 2.6e-14 on the decohere domain
# below (dense grids, the worst near Re z = 8, Im z = 0.09); most of it is
# scipy's own error, since against 30-digit mpmath w is within 1.1e-15
W_SCIPY_REL = 3e-14


def _decohere_domain():
    """The w arguments decohere reaches: Im z from 0 to the box edges of the
    min_prob = 1e-10 windows (radius erfcinv(1e-10), then a box, one more
    box and half a box, at Delta up to 1.7) in the scaled variable
    u = (q - q_bar)/sqrt 2; |Re z| from 0 to the columns of the 1e-10 window
    at Delta = 1 and 0.05 (m within M of m_c, p_bar at most pi/Delta from
    its lattice momentum)."""
    im_max = (ch._erfcinv(1e-10) + 2.5 * 1.7) / math.sqrt(2)
    re_max = max((math.pi + 2 * math.pi * math.ceil(0.5 + math.pi ** -1.25 * math.sqrt(d / 1e-10)))
                 / d / math.sqrt(2) for d in (1.0, 0.05))
    far = np.geomspace(12.0, re_max, 2000)
    re = np.concatenate([-far[::-1], np.linspace(-12, 12, 4801), far])
    return re, np.linspace(0.0, im_max, 64)


def test_wofz_matches_scipy_on_the_decohere_domain():
    re, im = _decohere_domain()
    assert re[-1] > 4.7e5 and im[-1] > 6.2
    z = re[None, :] + 1j * im[:, None]
    ref = wofz(z)
    assert np.max(np.abs(ch._wofz(z) - ref) / np.abs(ref)) <= W_SCIPY_REL


def test_wofz_matches_mpmath():
    # 30-digit values; measured within 1.1e-15 on 6000 random points of the
    # domain, where scipy's wofz is off by up to 2.6e-14
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(5)
    z = np.concatenate([rng.uniform(-12, 12, 150) + 1j * rng.uniform(0, 1, 150),
                        rng.uniform(-100, 100, 100) + 1j * rng.uniform(0, 6.3, 100),
                        [0, 5j, 8 + 0.09j, -2e5 + 1j, 4.7e5]])
    with mpmath.workdps(30):
        ref = np.array([complex(mpmath.exp(-mpmath.mpc(v) ** 2) * mpmath.erfc(-1j * mpmath.mpc(v)))
                        for v in z])
    assert np.max(np.abs(ch._wofz(z) - ref) / np.abs(ref)) <= 2e-15


def test_dawson_from_w_matches_scipy():
    # the u = 0 row of _scaled_erf is -i Im w(s) = -2i/sqrt(pi) D(s); measured
    # within 1.4e-14 relative of scipy's dawsn, and exactly 0 at s = 0
    re, _ = _decohere_domain()
    dawson = math.sqrt(math.pi) / 2 * ch._wofz(re).imag
    ref = dawsn(re)
    nonzero = re != 0
    assert np.max(np.abs(dawson - ref)[nonzero] / np.abs(ref[nonzero])) <= W_SCIPY_REL
    assert np.all(dawson[~nonzero] == 0)


@pytest.mark.parametrize("eps", [1e-8, 1e-10, 1e-14, 1e-100, 1e-300])
def test_erfcinv_matches_scipy(eps):
    r = ch._erfcinv(eps)
    assert abs(r - erfcinv(eps)) <= 4 * np.spacing(erfcinv(eps))


def _erf_decimal(x):
    """erf(x) by its Taylor series in 60-digit decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec = 60
        x = Decimal(x)
        term, total, n = x, x, 0
        while abs(term) > Decimal(10) ** -50 * abs(total):
            n += 1
            term *= -x * x / n
            total += term / (2 * n + 1)
        pi = Decimal("3.14159265358979323846264338327950288419716939937510582097494")
        return float(2 * total / pi.sqrt())


def test_erf_matches_scipy_and_a_decimal_series():
    # math.erf is within 1 ulp of the series; scipy's erf differs from it
    # by up to 2 ulp, its own error near |x| = 0.5 .. 1 (measured 1.95 ulp
    # against mpmath at x = -0.983)
    x = np.linspace(-30, 30, 60001)
    got = ch._erf(x)
    assert np.all(np.abs(got - erf(x)) <= 2 * np.spacing(np.abs(erf(x))))
    some = np.concatenate([np.linspace(-6, 6, 241), [-0.9996, -0.9828, 1e-300, 0.0]])
    ref = np.array([_erf_decimal(v) for v in some])
    assert np.all(np.abs(ch._erf(some) - ref) <= np.spacing(np.abs(ref)))


def test_weideman_coefficients_are_the_fft_formula():
    # Weideman (1994): a_k from the FFT of f(t) = exp(-t^2) (L^2 + t^2) at
    # t = L tan(theta/2), theta = k pi / M, |k| < M = 2N, with f = 0 at
    # theta = pi; the FFT rounds each by about log2(4N) ~ 8 ulps of sum |f|
    n = 40
    big_m = 2 * n
    k = np.arange(-big_m + 1, big_m)
    ell = math.sqrt(n / math.sqrt(2))
    t = ell * np.tan(k * np.pi / big_m / 2)
    f = np.concatenate([[0.0], np.exp(-t ** 2) * (ell ** 2 + t ** 2)])
    a = np.real(np.fft.fft(np.fft.fftshift(f))) / (2 * big_m)
    assert ch.WEIDEMAN_L == ell
    assert len(ch.WEIDEMAN_40) == n
    tol = 8 * 2.0 ** -53 * np.abs(f).sum() / (2 * big_m)
    assert np.max(np.abs(np.array(ch.WEIDEMAN_40) - a[n:0:-1])) <= tol


@pytest.mark.parametrize("alpha, delta", [(5.0, 1.0), (10.0, 1.0), (3 + 4j, 1.0), (5j, 1.0),
                                          (2 + 1j, 1.0), (3 + 4j, 1.7),
                                          (10 * np.exp(0.3j), 0.8), (1e15, 1.0)])
def test_probabilities_match_the_scipy_route(monkeypatch, alpha, delta):
    # The scipy route differs only in w.  Each edge's value is
    # e^{-s^2} - e^{-u^2 + 2ius} w(s + iu) (signs as in _scaled_erf), so w's
    # relative error W_SCIPY_REL moves it by at most W_SCIPY_REL T, with
    # T = e^{-u^2} |w(s + i|u|)| the w term's size, and each route rounds
    # the product and the subtraction within 4 ulps of e^{-s^2} + T.  The
    # box difference E = F_b - F_a then moves by dE, and P = |pref E|^2 by
    # at most 2 dE / |E| relative, plus 12 ulps of the rounding after E
    # (both routes).
    alpha = complex(alpha)
    spec = ch.LatticeSpec(delta=delta)
    new = ch.decohere(alpha, spec)
    monkeypatch.setattr(ch, "_scaled_erf", oracles.scaled_erf_scipy)
    old = ch.decohere(alpha, spec)
    assert np.array_equal(new.ns, old.ns) and np.array_equal(new.ms, old.ms)
    qb, pb = ch._coherent_qp(alpha)
    s = (pb - 2 * np.pi * old.ms / delta) / math.sqrt(2)
    es = np.exp(-s ** 2)
    ulp = 2.0 ** -53
    dE = 0.0
    E = 0.0
    for sign in (-1, 1):
        u = ((delta * old.ns + sign * delta / 2 - qb) / math.sqrt(2))[:, None]
        T = np.exp(-u ** 2) * np.abs(wofz(s + 1j * np.abs(u)))
        dE = dE + W_SCIPY_REL * T + 4 * ulp * (es + T)
        E = oracles.scaled_erf_masked(u, s) * sign + E
    bound = 2 * dE / np.abs(E) + 12 * ulp
    rel = np.abs(new.probabilities - old.probabilities) / old.probabilities
    assert np.all(rel <= bound)


def per_box_overlap(alpha, delta, ns, ms):
    """Oracle: the masked scaled erf evaluated at both edges of every box
    separately, on the channel's own w."""
    qb, pb = math.sqrt(2) * alpha.real, math.sqrt(2) * alpha.imag
    dlt = pb - 2 * np.pi * ms.astype(float) / delta
    nn = ns.astype(float)[:, None]
    ua = (delta * nn - delta / 2 - qb) / math.sqrt(2)
    ub = (delta * nn + delta / 2 - qb) / math.sqrt(2)
    s = (dlt / math.sqrt(2))[None, :]
    E = oracles.scaled_erf_masked(ub, s) - oracles.scaled_erf_masked(ua, s)
    return (np.pi ** 0.25 / math.sqrt(2 * delta)) * np.exp(1j * dlt * qb - 1j * qb * pb / 2) * E


@pytest.mark.parametrize("alpha, delta, shared", [
    (5.0, 1.0, "all"),
    (0.5 / math.sqrt(2), 1.0, "all"),   # box 0's right edge sits at u = 0
    (5.0 * np.exp(0.9272952180016122j), 1.7, "some"),
    (10.0 * np.exp(0.3j), 0.8, "some"),
])
def test_overlap_grid_shares_edges_bitwise(alpha, delta, shared):
    alpha = complex(alpha)
    ns = np.arange(-3, 25)
    ms = np.arange(-700, 701)
    # box n's right edge is box n+1's left edge as a float at delta = 1
    # always, at 1.7 and 0.8 only for some n
    right = delta * ns[:-1] + delta / 2
    left = delta * ns[1:] - delta / 2
    n_shared = int(np.sum(right == left))
    assert n_shared == len(ns) - 1 if shared == "all" else 0 < n_shared < len(ns) - 1
    got = ch._overlap_closed(alpha, delta, ns, ms)
    assert got.shape == (len(ns), len(ms))
    # the row slices of the sorted edges give bitwise the masked gathers
    assert got.tobytes() == per_box_overlap(alpha, delta, ns, ms).tobytes()


def test_overlap_global_phase_convention_invariance():
    # |<n,m|alpha>| must not depend on the wavefunction's global phase; the
    # oracle here drops the -i qb pb / 2 convention factor entirely
    alpha = 3.0 + 1.0j
    qb, pb = math.sqrt(2) * alpha.real, math.sqrt(2) * alpha.imag

    def psi_other_phase(q):
        return np.pi ** -0.25 * np.exp(-(q - qb) ** 2 / 2 + 1j * pb * q)

    for (n, m) in [(2, 0), (4, 1), (2, -1)]:
        p = 2 * np.pi * m
        re = quad(lambda q: (np.exp(-1j * q * p) * psi_other_phase(q)).real,
                  n - 0.5, n + 0.5, epsabs=1e-13)[0]
        im = quad(lambda q: (np.exp(-1j * q * p) * psi_other_phase(q)).imag,
                  n - 0.5, n + 0.5, epsabs=1e-13)[0]
        assert abs(complex(re, im)) == pytest.approx(
            abs(oracles.lattice_overlap(alpha, SPEC, n, m)), abs=1e-10)


def test_orthonormality():
    assert oracles.orthonormality_defect(SPEC, n_span=2, m_span=2) <= 1e-10
    assert oracles.orthonormality_defect(ch.LatticeSpec(delta=2.0), n_span=1, m_span=2) <= 1e-10


def test_lattice_state_overlap_disjoint_boxes():
    assert oracles.lattice_state_overlap(SPEC, (0, 3), (1, 3)) == 0.0


def test_overlap_translation_covariance():
    # |<n, m|alpha>| is invariant under alpha -> alpha + Delta/sqrt(2), n -> n+1
    alpha = 1.2 + 0.7j
    for (n, m) in [(1, 0), (2, 1), (0, -2)]:
        a1 = abs(oracles.lattice_overlap(alpha, SPEC, n, m))
        a2 = abs(oracles.lattice_overlap(alpha + 1 / math.sqrt(2), SPEC, n + 1, m))
        assert a1 == pytest.approx(a2, abs=1e-10)


def _lattice_state_amplitude(spec, n, m):
    """The windowed amplitude of the one-point distribution on (n, m)."""
    return oracles.windowed_amplitude(spec.delta, [n], [m], np.ones((1, 1)))


def test_mean_amplitude_values():
    v = _lattice_state_amplitude(SPEC, 2, -1)
    assert v == pytest.approx((2 - 2j * np.pi) / math.sqrt(2))
    assert v.real == pytest.approx(1.41421, abs=1e-5)
    assert v.imag == pytest.approx(-4.44288, abs=1e-5)
    assert _lattice_state_amplitude(SPEC, 0, 0) == 0
    spec2 = ch.LatticeSpec(delta=2.0)
    assert _lattice_state_amplitude(spec2, 1, 1) == pytest.approx((2 + 1j * np.pi) / math.sqrt(2))


AMPLITUDE_CASES = [(5.0, 1.0), (10.0, 1.0), (3 + 4j, 1.0), (5j, 1.0), (2 + 1j, 1.0),
                   (3 + 4j, 1.7), (10 * np.exp(0.3j), 0.8), (1e15, 1.0)]


@pytest.mark.parametrize("alpha, delta", AMPLITUDE_CASES)
def test_amplitude_closed_form_is_the_windowed_limit(alpha, delta):
    # windowed sums over m_c +- M, M = 2^11 and 2^13.  The cells beyond a
    # window carry its mass deficit D = captured_mass - window mass.  Their
    # q_n are at most max|q_n|; their momenta, paired +-j about m_c, average
    # to p_bar within one lattice spacing 2 pi / Delta, since the tails fall
    # as 1/(p_m - p_bar)^2 (measured: within 0.48 of a spacing here).  So the
    # closed form and the window differ by at most
    # D (max|q_n| + |p_bar| + 2 pi / Delta) / sqrt(2).  D and the difference
    # both fall as 1/M, so their ratio stays fixed; a closed form off the
    # limit by a constant E would move it by E/D.
    alpha = complex(alpha)
    spec = ch.LatticeSpec(delta=delta)
    dist = ch.decohere(alpha, spec)
    closed = ch.output_mean_amplitude(dist)
    _, pb = ch._coherent_qp(alpha)
    m_c = dist.ms[len(dist.ms) // 2]
    ratios = []
    for m_half in (2 ** 11, 2 ** 13):
        ms = np.arange(m_c - m_half, m_c + m_half + 1)
        P = ch._probabilities(alpha, delta, dist.ns, ms)
        deficit = dist.captured_mass - float(P.sum())
        assert deficit > 0
        reach = np.abs(spec.q(dist.ns)).max() + abs(pb) + 2 * np.pi / delta
        # 1e-12: the rounding of the two mass sums
        bound = (deficit + 1e-12) * reach / math.sqrt(2)
        diff = closed - oracles.windowed_amplitude(delta, dist.ns, ms, P)
        assert abs(diff) <= bound
        ratios.append(diff / deficit)
    assert abs(ratios[1] - ratios[0]) <= 1e-3 * abs(ratios[0])


CELL_CASES = [(5.0, 1.0), (3 + 4j, 1.0), (5j, 1.0), (2 + 1j, 1.0), (3 + 4j, 1.7),
              (10 * np.exp(0.3j), 0.8)]


@pytest.mark.parametrize("min_prob", [1e-8, 1e-10])
@pytest.mark.parametrize("alpha, delta", CELL_CASES)
def test_window_holds_every_cell_above_min_prob(alpha, delta, min_prob):
    # the derived half-width M (2139 to 31175 here) is above its 512 floor;
    # the cells >= min_prob are those of a window 4x wider, in the same
    # order and bitwise, and the boxes left out hold less than min_prob in all
    alpha = complex(alpha)
    dist = ch.decohere(alpha, ch.LatticeSpec(delta=delta), min_prob=min_prob)
    m_half = len(dist.ms) // 2
    assert m_half > 512
    m_c = dist.ms[m_half]
    wide = np.arange(m_c - 4 * m_half, m_c + 4 * m_half + 1)
    P = ch._probabilities(alpha, delta, dist.ns, wide)
    i, j = np.nonzero(P >= min_prob)
    k, l = np.nonzero(dist.probabilities >= min_prob)
    assert np.array_equal(dist.ns[i], dist.ns[k]) and np.array_equal(wide[j], dist.ms[l])
    assert P[i, j].tobytes() == dist.probabilities[k, l].tobytes()
    outside = np.r_[dist.ns[0] - 3:dist.ns[0], dist.ns[-1] + 1:dist.ns[-1] + 4]
    assert ch._window_masses(alpha, delta, outside).max() < min_prob


@pytest.mark.parametrize("min_prob", [0.0, -1e-6, 1.5, math.inf, math.nan])
def test_min_prob_outside_0_1_is_refused_before_any_box(monkeypatch, min_prob):
    monkeypatch.setattr(ch, "_window_masses", lambda *a: pytest.fail("boxes listed"))
    with pytest.raises(ValueError, match=r"min_prob must be in \(0, 1\]"):
        ch.decohere(5.0, SPEC, min_prob=min_prob)


def test_decohere_captured_mass_and_argmax():
    dist = ch.decohere(5.0, SPEC)
    assert dist.captured_mass >= 1 - 1e-6
    assert dist.captured_mass <= 1 + 1e-9
    # q_bar = sqrt(2)*5 = 7.07: the box at n=7, m=0 dominates
    i, j = np.unravel_index(dist.probabilities.argmax(), dist.probabilities.shape)
    assert (dist.ns[i], dist.ms[j]) == (7, 0)


def test_decohere_probabilities_match_quadrature():
    dist = ch.decohere(5.0, SPEC)
    i = list(dist.ns).index(7)
    for m in [0, 1, -3]:
        j = list(dist.ms).index(m)
        assert dist.probabilities[i, j] == pytest.approx(
            abs(oracles.lattice_overlap(5.0, SPEC, 7, m)) ** 2, abs=1e-12)


def test_decohere_concentration():
    # mass within |q_n - q_bar| <= 3 and |p_m - p_bar| <= 3*(2 pi / Delta)
    # exceeds 0.99 (oracle value 0.9935)
    dist = ch.decohere(5.0, SPEC)
    qb = math.sqrt(2) * 5.0
    qn = SPEC.q(dist.ns).astype(float)
    pm = SPEC.p(dist.ms).astype(float)
    sel_n = np.abs(qn - qb) <= 3.0
    sel_m = np.abs(pm) <= 3 * 2 * np.pi
    mass = dist.probabilities[np.ix_(sel_n, sel_m)].sum()
    assert mass == pytest.approx(0.99350, abs=2e-4)
    assert mass > 0.99


def test_captured_mass_monotone_in_window():
    # a smaller min_prob widens the window once its bound passes the 512
    # floor, and adds boxes once it is below the 1e-8 box radius; the mass is
    # that of the boxes, at least 1 - min(1e-8, min_prob)
    min_probs = (1e-4, 1e-6, 1e-8, 1e-9)
    dists = [ch.decohere(5.0, SPEC, min_prob=p) for p in min_probs]
    assert [len(dist.ms) for dist in dists] == [1025, 1025, 4785, 15125]
    assert [len(dist.ns) for dist in dists] == [12, 12, 12, 13]
    masses = [dist.captured_mass for dist in dists]
    assert masses[0] == masses[1] == masses[2] < masses[3] <= 1 + 1e-9
    assert all(m >= 1 - min(1e-8, p) for m, p in zip(masses, min_probs))
    for dist in dists:
        assert dist.captured_mass == float(ch._window_masses(5.0, 1.0, dist.ns).sum())


def test_output_amplitude_survives_channel():
    dist = ch.decohere(5.0, SPEC)
    out = ch.output_mean_amplitude(dist)
    assert abs(abs(out) - 5.0) < 0.2
    assert abs(math.atan2(out.imag, out.real)) < 0.05
    # oracle-level check: the survival is far tighter than the contract
    assert abs(out - 5.0) < 1e-3


def test_output_amplitude_vacuum_smears_symmetrically():
    dist = ch.decohere(0.0, SPEC)
    assert abs(ch.output_mean_amplitude(dist)) <= 0.05


@pytest.mark.parametrize("mod", [2.0, 5.0, 10.0])
def test_amplitude_survival_all_scales(mod):
    # |<a>_out - alpha| is the lattice's own q-discretization (~5e-6) for all
    # real alpha in {2, 5, 10}; it does not grow as alpha shrinks to 2
    dist = ch.decohere(mod, SPEC)
    out = ch.output_mean_amplitude(dist)
    assert abs(out - mod) < 1e-3


def test_rotation_covariance():
    base = ch.output_mean_amplitude(ch.decohere(5.0, SPEC))
    base_phase = math.atan2(base.imag, base.real)
    # chi = pi/2: p_bar lands symmetrically between lattice momenta in effect;
    # covariance holds to better than 0.02 rad
    out2 = ch.output_mean_amplitude(ch.decohere(5j, SPEC))
    dev2 = math.atan2(out2.imag, out2.real) - base_phase - np.pi / 2
    assert abs(dev2) < 0.02
    # chi = pi/4: the momentum lattice (spacing 2 pi / Delta) quantizes the
    # p-moment; the oracle-computed covariance error is +0.0694 rad
    a4 = 5.0 * np.exp(1j * np.pi / 4)
    out4 = ch.output_mean_amplitude(ch.decohere(a4, SPEC))
    dev4 = math.atan2(out4.imag, out4.real) - base_phase - np.pi / 4
    assert dev4 == pytest.approx(0.069387, abs=2e-3)
    assert abs(dev4) < 0.08
    # modulus stays within ~0.6 of |alpha| in the worst quantization case
    assert abs(abs(out4) - 5.0) < 0.6


def test_rotated_output_phase_frozen_value():
    # alpha = 5 e^{i pi/4}: output phase 0.854785 (pi/4 + quantization bias)
    a4 = 5.0 * np.exp(1j * np.pi / 4)
    out = ch.output_mean_amplitude(ch.decohere(a4, SPEC))
    assert math.atan2(out.imag, out.real) == pytest.approx(0.854785, abs=2e-3)


@pytest.mark.parametrize("delta", [0.25, 0.5, 1.0])
@pytest.mark.parametrize("alpha", [3 + 4j, 5j, 2 + 1j, 1 + 2.5j, -2 - 3j, 5.0])
def test_imaginary_bias_is_the_poisson_sum_estimate(delta, alpha):
    # the closed form's Im<a>_out - Im alpha against the leading Poisson
    # term, within output_mean_amplitude's three derived terms: the omitted
    # Poisson terms, the mass deficit, the jump terms of the boxes left out
    # (eps = min(1e-8, min_prob) at the default min_prob), and a rounding
    # allowance of 4 u per box on each of p_bar, the jump sum and their sine
    spec = ch.LatticeSpec(delta)
    dist = ch.decohere(alpha, spec)
    pb = math.sqrt(2) * alpha.imag
    sin, u, eps = abs(math.sin(pb * delta)), np.finfo(float).eps, 1e-8
    poisson = sin * math.exp(-delta ** 2 / 4) / (math.sqrt(2) * delta) * \
        2 * math.exp(-(math.pi / delta) ** 2) / (1 - math.exp(-3 * (math.pi / delta) ** 2))
    bound = poisson + abs(alpha.imag) * (1 - dist.captured_mass) + \
        sin * eps / (math.sqrt(2) * delta) + 4 * len(dist.ns) * u * (abs(pb) + 1 / delta + 1)
    bias = ch.output_mean_amplitude(dist).imag - alpha.imag
    assert abs(bias - ch.predicted_imag_bias(alpha, spec)) <= bound


def test_coherent_fidelity_diagnostic():
    dist = ch.decohere(5.0, SPEC)
    fid = ch.coherent_fidelity(dist)
    assert 0.0 < fid <= 1.0
    # "fair overlap" with the nearest coherent state: 0.356 at alpha=5, Delta=1
    assert fid == pytest.approx(0.35613, abs=5e-4)
    # rotating the probe away drops the overlap
    rotated = np.abs(ch._overlap_closed(5.0 * np.exp(1j * 0.5), 1.0, dist.ns, dist.ms)) ** 2
    assert np.sum(dist.probabilities * rotated) < fid / 3


@pytest.mark.parametrize("alpha, delta", [(5.0, 1.0), (3 + 4j, 1.0), (3 + 4j, 1.7),
                                          (10 * np.exp(0.3j), 0.8)])
def test_coherent_fidelity_is_overlap_with_the_input(alpha, delta):
    # sum P |<n,m|alpha>|^2 with the overlap recomputed at the input alpha
    dist = ch.decohere(alpha, ch.LatticeSpec(delta=delta))
    overlap = np.abs(ch._overlap_closed(complex(alpha), delta, dist.ns, dist.ms)) ** 2
    assert ch.coherent_fidelity(dist) == float(np.sum(dist.probabilities * overlap))


def test_window_checks_and_validation(monkeypatch):
    with pytest.raises(ValueError):
        ch.LatticeSpec(delta=0.0)
    with pytest.raises(ValueError):
        ch.decohere(complex(np.nan, 0.0), SPEC)
    # boxes that miss more than 1e-8 of the mass are a failed numerical
    # check, named with the mass they hold, before any column is evaluated
    masses = ch._window_masses
    monkeypatch.setattr(ch, "_window_masses", lambda *a: masses(*a) * (1 - 2e-8))
    monkeypatch.setattr(ch, "_probabilities", lambda *a: pytest.fail("window evaluated"))
    with pytest.raises(WindowError, match="q-window captured only 0.99999998"):
        ch.decohere(5.0, SPEC)


@pytest.mark.parametrize("alpha, delta", [
    (1e30, 1.0),                            # box index 1.4e30: np.arange cannot list it
    (1e17, 1.0),                            # box index 1.4e17: boxes 16 apart merge
    (3.2e15, 1.0),                          # box index 4.53e15, just past 2^52
    (1e30j, 1.0),                           # momentum index 2.3e29
    (5j, 1e20),                             # momentum index 1.1e20
    (1e10j, 1e300),                         # p_bar delta overflows to inf
])
def test_lattice_indices_beyond_2_52_are_refused(monkeypatch, alpha, delta):
    # above 2^52 float64 no longer holds every integer, so q_n = Delta n and
    # p_m = 2 pi m / Delta no longer belong to distinct boxes; refused before
    # any box is listed
    monkeypatch.setattr(ch, "_window_masses", lambda *a: pytest.fail("boxes listed"))
    with pytest.raises(ValueError, match=r"lattice indices beyond 2\^52"):
        ch.decohere(alpha, ch.LatticeSpec(delta=delta))


def test_lattice_indices_below_2_52_still_run():
    # box index sqrt(2) 1e15 = 1.41e15, a third of 2^52
    dist = ch.decohere(1e15, SPEC)
    assert 1 - 1e-8 <= dist.captured_mass <= 1 + 1e-9
    assert ch.output_mean_amplitude(dist).real == pytest.approx(1e15, rel=1e-6)


GRID_CASES = [(5.0, 1.0), (3 + 4j, 1.0), (2 + 1j, 1.0), (3 + 4j, 1.7), (10 * np.exp(0.3j), 0.8),
              (5j, 1.0), (0.0, 1.0), (1.5, 0.05), (5.0, 0.01)]


def _single_call_grid(alpha, delta, dist):
    return np.abs(ch._overlap_closed(complex(alpha), delta, dist.ns, dist.ms)) ** 2


@pytest.mark.parametrize("alpha, delta", GRID_CASES)
def test_blocked_grid_is_bitwise_the_single_call(alpha, delta):
    # the windows span 1 to 13 column blocks
    dist = ch.decohere(alpha, ch.LatticeSpec(delta=delta))
    assert dist.probabilities.tobytes() == _single_call_grid(alpha, delta, dist).tobytes()


@pytest.mark.parametrize("alpha, delta", [(3 + 4j, 1.0), (3 + 4j, 1.7), (1.5, 0.05)])
def test_block_width_changes_no_probability(monkeypatch, alpha, delta):
    # blocks of 1 column, of 7 and 8 columns (neither divides the 1025 of the
    # window) and wider than the grid; at Delta = 0.05 the 166 rows exceed a
    # 100-cell block, which then still holds one column
    spec = ch.LatticeSpec(delta=delta)
    ref = ch.decohere(alpha, spec)
    rows, cols = ref.probabilities.shape
    assert cols == 1025
    widths = []
    overlap = ch._overlap_closed

    def recording(alpha, delta, ns, ms):
        widths.append(len(ms))
        return overlap(alpha, delta, ns, ms)

    monkeypatch.setattr(ch, "_overlap_closed", recording)
    for cells in (1, 100, 7 * rows, 2 ** 40):
        step = min(cols, max(1, cells // rows))
        monkeypatch.setattr(ch, "GRID_BLOCK_CELLS", cells)
        widths.clear()
        dist = ch.decohere(alpha, spec)
        assert widths == [step] * (cols // step) + [cols % step] * (cols % step > 0)
        assert dist.probabilities.tobytes() == ref.probabilities.tobytes()
    monkeypatch.setattr(ch, "_overlap_closed", overlap)
    assert ref.probabilities.tobytes() == _single_call_grid(alpha, delta, ref).tobytes()


def test_grid_working_set_is_one_block():
    # beyond P itself (float64) and ms (int64), a block holds the edge grid F
    # of _scaled_erf, with at most rows + 1 rows at Delta = 1 (shared edges),
    # and while one of its row slices is filled, four temporaries of the
    # slice's size: w's argument and the three arrays _wofz holds, the phase
    # factor being made only after them.  Here the u < 0 and u > 0 slices
    # are 7 of F's 14 rows each, so F and four slices are 42/13 = 3.23
    # complex blocks (measured 3.35 with the small per-column arrays), and a
    # fifth slice-sized temporary would make 3.77.  After F is freed,
    # _overlap_closed's E and its gather are two blocks.
    ch.decohere(3 + 4j, SPEC)  # caches warm
    tracemalloc.start()
    try:
        dist = ch.decohere(3 + 4j, SPEC, min_prob=1e-10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows = len(dist.ns)
    block_bytes = 16 * (ch.GRID_BLOCK_CELLS // rows) * rows
    # 13 rows of 47821 columns: 10 column blocks
    assert dist.probabilities.shape == (13, 47821)
    assert peak <= dist.probabilities.nbytes + dist.ms.nbytes + 3.5 * block_bytes


def test_grid_over_budget_is_refused_before_it_is_evaluated(monkeypatch):
    # Delta = 1e-4 needs 81049 boxes x 1025 momentum points: refused before
    # the boxes are even listed
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"more than the {ch.GRID_BUDGET_CELLS} cells"):
            ch.decohere(5.0, ch.LatticeSpec(delta=1e-4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 16
    with pytest.raises(ValueError, match="needs inf boxes"):
        ch.decohere(5.0, ch.LatticeSpec(delta=5e-324))
    # min_prob = 1e-14 needs 15 boxes x 4.8e6 momentum points; at 1e-300 the
    # 4.8e149 points would also pass index 2^52, but the budget is named
    monkeypatch.setattr(ch, "_window_masses", lambda *a: pytest.fail("boxes listed"))
    for min_prob in (1e-14, 1e-300):
        with pytest.raises(ValueError, match=f"more than the {ch.GRID_BUDGET_CELLS} cells"):
            ch.decohere(5.0, SPEC, min_prob=min_prob)
