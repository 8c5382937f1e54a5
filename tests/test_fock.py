import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy.linalg import toeplitz
from scipy.special import gammaln

import oracles
from laserclock import fock
from laserclock.errors import NumericalCheckError


def poisson_pmf(mu, n):
    return np.exp(-mu + n * np.log(mu) - gammaln(n + 1))


def test_vacuum_state():
    s = fock.coherent_state(0.0, truncation=10)
    assert s.amplitudes[0] == 1.0
    assert np.all(s.amplitudes[1:] == 0.0)


def test_coherent_mean_photon_number():
    s = fock.coherent_state(5.0, truncation=100)
    assert abs(np.sum(np.arange(101) * np.abs(s.amplitudes) ** 2) - 25.0) < 1e-8


def test_coherent_poisson_law_pointwise():
    # |<n|alpha>|^2 = e^{-mu} mu^n / n! for all retained n
    s = fock.coherent_state(5.0, truncation=100)
    n = np.arange(101)
    assert np.max(np.abs(np.abs(s.amplitudes) ** 2 - poisson_pmf(25.0, n))) < 1e-12


def test_coherent_norm_deficit_at_recommended_truncation():
    for mu in [1.0, 25.0, 100.0]:
        s = fock.coherent_state(np.sqrt(mu))
        assert s.norm_deficit < 1e-10


def test_coherent_state_rejects_bad_input():
    with pytest.raises(ValueError):
        fock.coherent_state(np.nan)
    with pytest.raises(ValueError):
        fock.coherent_state(complex(1.0, np.inf))
    with pytest.raises(ValueError):
        fock.coherent_state(1.0, truncation=0)
    # |alpha|^2 overflows to mu = inf, which is refused, not an OverflowError
    for alpha in (1e200, 1e200j):
        with pytest.raises(ValueError, match="mu must be finite and nonnegative"):
            fock.coherent_state(alpha)
        with pytest.raises(ValueError, match="mu must be finite and nonnegative"):
            fock.coherent_state(alpha, truncation=10)


@pytest.mark.parametrize("alpha", [1e-3, 0.5, 5.0, 100.0, np.sqrt(1e5), complex(5.0, -0.0)])
def test_real_coherent_state_is_bitwise_the_general_expression(alpha):
    # a real alpha >= 0 skips the phase factors e^{i n arg(alpha)} = 1 + 0j,
    # which leave every word of the amplitudes as they are
    # (on the state's window of number states, whose ends are the slice's)
    s = fock.coherent_state(alpha)
    n = np.arange(s.truncation + 1)
    want = fock.poisson_amplitudes(abs(alpha) ** 2, 0, s.truncation) \
        * np.exp(1j * n * np.angle(alpha))
    window = want[s.offset:s.offset + len(s.amplitudes)]
    assert np.array_equal(s.amplitudes.view("u8"), window.view("u8"))


@pytest.mark.parametrize("mu, arg", [(mu, 0.0) for mu in (
    0.5, 3.7, 25, 255.9, 256, 300, 1e3, 1e4, 12345.6, 1e5, 1e6, 4e6)] + [
    (mu, 2.5) for mu in (3.7, 300, 1e4, 1e5)])
def test_window_route_is_bitwise_the_full_vector(mu, arg):
    # the support, G and the variance from the state's window are those of
    # the same trim and transform on every amplitude n = 0 .. T, bit for bit
    alpha = np.sqrt(mu) * np.exp(1j * arg)
    state = fock.coherent_state(alpha)
    full = oracles.coherent_amplitudes(alpha)
    assert state.truncation == len(full) - 1 == fock.default_truncation(abs(alpha) ** 2)
    support, G = fock.phase_support(state)
    want, want_G = fock.phase_support(fock.FockVector(state.truncation, full))
    assert G == want_G and np.array_equal(support.view("u8"), want.view("u8"))
    assert np.float64(fock.phase_variance(support, G)).view("u8") == \
        np.float64(fock.phase_variance(want, want_G)).view("u8")
    # the window is the derived one, at most a fifth longer than the support
    lo, hi = fock._coherent_window(abs(alpha) ** 2, state.truncation)
    assert (state.offset, state.offset + len(state.amplitudes) - 1) == (lo, hi)
    assert len(state.amplitudes) <= 1.2 * len(support)


@pytest.mark.parametrize("mu", [0.3, 3.7, 15.5, 16, 25, 255.9, 1e3, 12345.6, 1e5, 1e6,
                                np.sqrt(1.2e7) ** 2])
def test_poisson_amplitudes_hold_40_digit_values(mu):
    # every sqrt(p_n) within 4 sd of the mode against 40-digit values (the
    # first from lgamma, the rest by the ratio sqrt(mu/(n+1)), whose 40-digit
    # rounding stays below 1e-35).  The mode's scalar errs by about 1e-15 and
    # each ratio product adds a rounding of either sign, so the error is a
    # random walk that grows like mu^(1/4): 3.5e-15 at most measured up to
    # mu = 1e6, held to 1e-14 there, and 1.4e-14 at mu = 1.2e7, held to 2e-14
    mpmath = pytest.importorskip("mpmath")
    lo, hi = max(0, int(np.ceil(mu - 4 * np.sqrt(mu)))), int(mu + 4 * np.sqrt(mu))
    got = fock.poisson_amplitudes(mu, lo, hi)
    assert got.shape == (hi + 1 - lo,)
    with mpmath.workdps(40):
        m = mpmath.mpf(mu)
        want = mpmath.sqrt(mpmath.exp(lo * mpmath.log(m) - m - mpmath.loggamma(lo + 1)))
        worst = 0
        for n, a in enumerate(got.tolist(), lo):
            worst = max(worst, abs(a / want - 1))
            want *= mpmath.sqrt(m / (n + 1))
    assert worst <= (1e-14 if mu <= 1e6 else 2e-14)


@pytest.mark.parametrize("mu", [0.3, 25.0, 255.9, 1e4])
def test_poisson_amplitudes_on_a_range_are_the_full_vectors_slice(mu):
    # prefix products from the same mode: any range that holds floor(mu)
    # gives each amplitude bitwise as the full vector 0 .. T does
    top = fock.default_truncation(mu)
    full = fock.poisson_amplitudes(mu, 0, top)
    mode = int(mu)
    for lo, hi in ((0, mode), (mode, mode), (mode, top), (mode // 2, mode + 7),
                   (max(0, mode - 3), top - 1)):
        got = fock.poisson_amplitudes(mu, lo, hi)
        assert np.array_equal(got.view("u8"), full[lo:hi + 1].view("u8")), (lo, hi)


def test_coherent_window_end_is_checked(monkeypatch):
    # an end that cuts an amplitude at or above PHASE_TRIM of the largest is
    # refused; an end at 0 or at the truncation is not checked
    # (at mu = 1e4 the window is 7636 .. 11010 and the support 7740 .. 11010;
    # at mu = 25 both are 0 .. 85, and the amplitude at 0 is e^-12.5)
    monkeypatch.setattr(fock, "_coherent_window",
                        lambda mu, truncation: (7790 if mu > 100 else 0, truncation))
    with pytest.raises(NumericalCheckError, match="coherent window 7790 .. 11010 at mu "):
        fock.coherent_state(100.0)
    assert len(fock.coherent_state(5.0).amplitudes) == 86
    monkeypatch.setattr(fock, "_coherent_window", lambda mu, truncation: (0, truncation - 1))
    with pytest.raises(NumericalCheckError, match="cuts an amplitude"):
        fock.coherent_state(5.0)
    assert fock.coherent_state(5.0, truncation=1000).truncation == 1000


def test_fock_vector_holds_a_window_of_number_states():
    s = fock.FockVector(10, [0.6, 0.8], offset=9)
    assert (s.offset, s.truncation) == (9, 10) and s.norm_deficit == pytest.approx(0.0)
    for amps, offset in (([0.6, 0.8], 10), ([1.0], -1), ([1.0], 11), ([], 0),
                         ([[1.0]], 0), (np.ones(12) / 4, 0)):
        with pytest.raises(ValueError, match="do not fit in 0 .. 10"):
            fock.FockVector(10, amps, offset)


@pytest.mark.parametrize("mu", [np.inf, -np.inf, np.nan, -1.0])
def test_default_truncation_rejects_nonfinite_or_negative_mu(mu):
    with pytest.raises(ValueError, match="mu must be finite and nonnegative"):
        fock.default_truncation(mu)


def test_fock_vector_keeps_its_dtype_and_refuses_bad_amplitudes():
    # a real array stays real and a complex one is kept without a copy; a
    # non-finite amplitude is named as such, an overflowing or empty norm by
    # its value
    assert fock.FockVector(2, np.array([0.6, 0.8, 0.0])).amplitudes.dtype == float
    assert fock.FockVector(2, [1, 0, 0]).amplitudes.dtype == float
    amps = np.array([0.6, 0.8j, 0.0])
    assert fock.FockVector(2, amps).amplitudes is amps
    assert fock.FockVector(2, amps).norm_deficit == pytest.approx(0.0, abs=1e-15)
    for bad in ([np.nan, 0.0, 0.0], [0.5, np.inf, 0.0], [0.5, complex(0.0, -np.inf), 0.0],
                [complex(np.nan, 0.0), 0.0, 0.0]):
        with pytest.raises(ValueError, match="amplitudes must be finite"):
            fock.FockVector(2, bad)
    for bad, norm2 in (([1e200, 0.0, 0.0], "inf"), ([0.0, 0.0, 0.0], "0.0"),
                       ([1.0, 0.0, 0.5j], "1.25")):
        with pytest.raises(ValueError, match=rf"squared norm {norm2} outside \(0, 1\]"):
            fock.FockVector(2, bad)


def test_number_state_has_uniform_phase():
    amps = np.zeros(11, dtype=complex)
    amps[7] = 1.0
    s = fock.FockVector(truncation=10, amplitudes=amps)
    d = oracles.canonical_phase_distribution(s, grid_size=512)
    assert np.max(np.abs(d.density - 1 / (2 * np.pi))) < 1e-12
    # the uniform density's variance, from a support of one amplitude (G = 4)
    assert fock.phase_support(s)[1] == 4
    assert fock.phase_variance(*fock.phase_support(s)) == \
        pytest.approx(np.pi ** 2 / 3, rel=1e-15)


def test_coherent_phase_distribution_peaked_and_symmetric():
    s = fock.coherent_state(5.0)
    d = oracles.canonical_phase_distribution(s)
    assert abs(d.grid[np.argmax(d.density)]) < 2 * np.pi / len(d.grid) * 2
    # real amplitudes: P(theta) = P(-theta); compare against the flipped grid
    interp = np.interp(-d.grid, d.grid, d.density, period=2 * np.pi)
    assert np.max(np.abs(d.density - interp)) < 1e-9 * d.density.max()


def test_coherent_phase_variance_mu25():
    # oracle (2^16-point grid integration): 0.0102117757; 1/4mu = 0.01
    v = fock.phase_variance(*fock.phase_support(fock.coherent_state(5.0)))
    assert v == pytest.approx(0.0102117757, rel=1e-6)
    assert v == pytest.approx(1 / 100, rel=0.05)


def test_uniform_distribution_variance():
    g = -np.pi + 2 * np.pi * (np.arange(4096) + 1) / 4096
    d = oracles.PhaseDistribution(grid=g, density=np.full(4096, 1 / (2 * np.pi)))
    assert oracles.grid_phase_variance(d, 0.0) == pytest.approx(np.pi ** 2 / 3, rel=0.01)


def test_split_state_phase_variance():
    # |sqrt(mu/M)> with mu=100, M=4: variance ~ M/4mu = 0.01
    v = fock.phase_variance(*fock.phase_support(fock.coherent_state(np.sqrt(100 / 4))))
    assert v == pytest.approx(0.01, rel=0.05)


def test_phase_variance_against_fine_grid_oracle():
    # alpha=10: ~1/400; the 2^16-point grid (T = 210) is exact but for rounding
    s = fock.coherent_state(10.0)
    v_fine = oracles.grid_phase_variance(oracles.canonical_phase_distribution(s, 2 ** 16))
    v = fock.phase_variance(*fock.phase_support(s))
    assert v == pytest.approx(v_fine, rel=1e-14)
    assert v == pytest.approx(0.0025, rel=0.05)


def test_phase_variance_reference_shift():
    s = fock.coherent_state(5.0)
    d = oracles.canonical_phase_distribution(s)
    assert oracles.grid_phase_variance(d, 0.3) > oracles.grid_phase_variance(d, 0.0)


def test_phase_variance_convergence_to_quarter_mu():
    # relative error < 5% at mu=25, < 1% at mu=400
    for mu, tol in [(25.0, 0.05), (400.0, 0.01)]:
        v = fock.phase_variance(*fock.phase_support(fock.coherent_state(np.sqrt(mu))))
        assert abs(v * 4 * mu - 1) < tol


@pytest.mark.parametrize("mu,m", [(100, 4), (400, 4), (400, 16)])
def test_splitting_law(mu, m):
    # variance(sqrt(mu/M)) / variance(sqrt(mu)) -> M within 5% for mu/M >= 25
    vs = fock.phase_variance(*fock.phase_support(fock.coherent_state(np.sqrt(mu / m))))
    v = fock.phase_variance(*fock.phase_support(fock.coherent_state(np.sqrt(mu))))
    assert vs / v == pytest.approx(m, rel=0.05)


@pytest.mark.parametrize("chi", [0.3, 0.7, np.pi / 2, -1.1])
def test_phase_rotation_translates_distribution(chi):
    # a_n -> a_n e^{i n chi} shifts the distribution by chi: locate the shift
    # by the circular cross-correlation peak
    s = fock.coherent_state(5.0)
    G = 4096
    rot = fock.FockVector(s.truncation,
                          s.amplitudes * np.exp(1j * np.arange(s.truncation + 1) * chi))
    p0 = oracles.canonical_phase_distribution(s, G).density
    p1 = oracles.canonical_phase_distribution(rot, G).density
    corr = np.fft.ifft(np.fft.fft(p1) * np.conj(np.fft.fft(p0))).real
    shift = np.argmax(corr) * 2 * np.pi / G
    shift = float(oracles.wrap_angle(shift))
    assert abs(float(oracles.wrap_angle(shift - chi))) < 2 * np.pi / G * 1.5


def test_canonical_distribution_rejects_unnormalized():
    amps = np.zeros(11, dtype=complex)
    amps[0] = 0.9
    s = fock.FockVector(truncation=10, amplitudes=amps)
    with pytest.raises(ValueError, match="norm deficit"):
        oracles.canonical_phase_distribution(s)
    with pytest.raises(ValueError, match="norm deficit 1.90e-01 exceeds 1e-6"):
        fock.phase_variance(*fock.phase_support(s))


def test_canonical_distribution_grid_validation():
    s = fock.coherent_state(2.0)
    with pytest.raises(ValueError):
        oracles.canonical_phase_distribution(s, grid_size=128)
    with pytest.raises(ValueError, match=f"more than the {oracles.PHASE_GRID_BUDGET} points"):
        oracles.canonical_phase_distribution(s, grid_size=oracles.PHASE_GRID_BUDGET + 1)


def test_density_route_matches_pure_state_route():
    # the FFT route against the FFT-free direct sum over |alpha><alpha|; the
    # grids are compared too, as relabelling the grid alone moves no density
    s = fock.coherent_state(3.0)
    rho = np.outer(s.amplitudes, s.amplitudes.conj())
    d = oracles.canonical_phase_distribution(s, 1024)
    grid, density = oracles.canonical_phase_density(rho, 1024)
    assert np.max(np.abs(d.grid - grid)) < 1e-12
    assert np.max(np.abs(d.density - density)) < 1e-12


def _number_state(n, truncation=10):
    amps = np.zeros(truncation + 1, dtype=complex)
    amps[n] = 1.0
    return fock.FockVector(truncation, amps)


_SERIES_STATES = [("number-0", _number_state(0)), ("number-5", _number_state(5)),
                  ("number-10", _number_state(10))] + [
    (f"mu={mu:g},arg={arg:g}", fock.coherent_state(np.sqrt(mu) * np.exp(1j * arg)))
    for mu in (0.01, 0.5, 1.0, 4.0) for arg in (0.0, 2.5, -2.9)]


@pytest.mark.parametrize("state", [s for _, s in _SERIES_STATES],
                         ids=[name for name, _ in _SERIES_STATES])
def test_phase_variance_is_the_exact_series(state):
    # where V is O(1): the finite series pi^2 R_0/3 + 4 sum (-1)^k Re R_k/k^2,
    # summed by math.fsum, holds the FFT route and its aliasing correction
    assert fock.phase_variance(*fock.phase_support(state)) == pytest.approx(
        oracles.phase_variance_series(state.amplitudes), rel=1e-14, abs=0)


@pytest.mark.parametrize("mu", [25.0, 100.0, 1e4, 1e5])
def test_phase_variance_matches_the_2_18_grid(mu):
    # the 2^18-point grid exceeds every truncation here, so its wrapped sum
    # is the exact integral but for rounding; the support's G is far smaller
    s = fock.coherent_state(np.sqrt(mu))
    want = oracles.grid_phase_variance(oracles.canonical_phase_distribution(s, 2 ** 18))
    assert fock.phase_variance(*fock.phase_support(s)) == pytest.approx(want, rel=1e-14, abs=0)
    assert fock.phase_support(s)[1] <= 2 ** 15


def test_inverse_square_alias_against_direct_and_taylor():
    # 1/sin^2 x - 1/x^2: directly where it does not cancel (x >= 1, within a
    # few ulp of the 1/sin^2 x it is taken from), and by its Taylor series
    # 1/3 + x^2/15 + 2x^4/189 + x^6/675 at small x (next term 2x^8/10395)
    x = np.linspace(1.0, np.pi / 2 * (1 - 1e-12), 2001)
    direct = 1 / np.sin(x) ** 2 - 1 / x ** 2
    got = fock._inverse_square_alias(x)
    assert np.all(np.abs(got - direct) <= 8 * np.spacing(1 / np.sin(x) ** 2))
    x = np.geomspace(1e-9, 1e-2, 2001)
    taylor = 1 / 3 + x ** 2 / 15 + 2 * x ** 4 / 189 + x ** 6 / 675
    got = fock._inverse_square_alias(x)
    assert np.max(np.abs(got / taylor - 1)) <= 4 * np.finfo(float).eps


def test_trim_bound():
    # the dropped amplitudes d move V by at most pi^2 (2||d|| + ||d||^2):
    # checked on the series oracle with d far above the trim, so it shows
    rng = np.random.default_rng(7)
    a = fock.coherent_state(2.0, truncation=40).amplitudes
    for scale in (1e-3, 1e-6, 1e-9):
        d = np.zeros_like(a)
        d[25:] = scale * (rng.standard_normal(16) + 1j * rng.standard_normal(16))
        moved = abs(oracles.phase_variance_series(a + d) - oracles.phase_variance_series(a))
        norm_d = np.linalg.norm(d)
        assert moved <= np.pi ** 2 * (2 * norm_d + norm_d ** 2)
    # V >= 4 ||a||^2/(T + 2)^2: the least eigenvalue of the Toeplitz form
    for T in (1, 10, 100):
        k = np.arange(1, T + 1)
        g = np.concatenate([[np.pi ** 2 / 3], 2 * (-1.0) ** k / k ** 2])
        assert np.linalg.eigvalsh(toeplitz(g))[0] >= 4 / (T + 2) ** 2
    # amplitudes below 2^-200 of the largest leave the support, and the
    # variance is bitwise that of the state without them; at mu = 1e4 they
    # are the low tail of the full vector, subnormal amplitudes included
    s = fock.FockVector(fock.default_truncation(1e4), oracles.coherent_amplitudes(100.0))
    mag = np.abs(s.amplitudes)
    below = mag < fock.PHASE_TRIM * mag.max()
    assert below[0] and not below[-1] and np.any((0 < mag) & (mag < np.finfo(float).tiny))
    support, G = fock.phase_support(s)
    assert len(support) == np.count_nonzero(~below) and not np.any(below[~below])
    assert G == 2 ** (2 * len(support)).bit_length() and 2 * len(support) < G
    cut = fock.FockVector(s.truncation, np.where(below, 0, s.amplitudes))
    assert np.float64(fock.phase_variance(*fock.phase_support(cut))).view("u8") == \
        np.float64(fock.phase_variance(*fock.phase_support(s))).view("u8")


def test_clone_phase_variance_values():
    assert fock.clone_phase_variance(100, 1) == pytest.approx(0.0025)
    assert fock.clone_phase_variance(100, 2) == pytest.approx(0.005)
    # large-M limit ~ 3/(4 mu)
    assert fock.clone_phase_variance(100, 10 ** 6) == pytest.approx(0.0075, rel=1e-5)


def test_clone_phase_variance_validation():
    with pytest.raises(ValueError):
        fock.clone_phase_variance(100, 0)
    # the variance of mu 1e-320 overflows to inf, that of mu inf or 1e308 is 0.0
    for mu in (-1.0, 0.0, 1e-320, 1e308, np.inf, np.nan):
        with pytest.raises(ValueError, match="not positive and finite"):
            fock.clone_phase_variance(mu, 2)


def test_wrap_angle_range():
    x = np.array([0.0, np.pi, -np.pi, 3 * np.pi / 2, -3 * np.pi / 2, 6 * np.pi + 0.1])
    w = oracles.wrap_angle(x)
    assert np.all(w > -np.pi) and np.all(w <= np.pi)
    assert np.allclose(np.exp(1j * w), np.exp(1j * x))


_ODD_PI = [k * np.pi for k in (-3, -1, 1, 3, 101)]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(x=st.floats(-1e300, 1e300) | st.sampled_from(
    _ODD_PI + [np.nextafter(v, d) for v in _ODD_PI for d in (-np.inf, np.inf)]))
def test_wrap_angle_range_property(x):
    # nextafter(pi, inf) once wrapped to -pi: the modulo rounded up to 2 pi
    w = oracles.wrap_angle(x)
    assert -np.pi < w <= np.pi
    if abs(x) < 1e3:
        assert abs(np.exp(1j * w) - np.exp(1j * x)) < 1e-12
    assert oracles.wrap_angle(np.array([x, x]))[1] == w


def _expression_wrap(x):
    """wrap_angle as one expression, each step a new array."""
    w = -((-np.asarray(x) + np.pi) % (2 * np.pi) - np.pi)
    return np.where(w == -np.pi, np.pi, w)[()]


_SHAPES = hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=5)
_EDGE_ANGLES = st.sampled_from(
    _ODD_PI + [np.nextafter(v, d) for v in _ODD_PI for d in (-np.inf, np.inf)])
_ANGLES = st.one_of(
    hnp.arrays(np.float64, _SHAPES, elements=st.floats() | _EDGE_ANGLES),
    hnp.arrays(np.float32, _SHAPES, elements=st.floats(width=32)),
    hnp.arrays(np.int64, _SHAPES),
    st.floats() | _EDGE_ANGLES,
    st.integers(-2 ** 63, 2 ** 63 - 1))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(x=_ANGLES)
def test_wrap_angle_is_bitwise_the_expression(x):
    # float64, float32 and int arrays of 0 to 2 dimensions and Python scalars:
    # the same type, dtype, shape and words as the expression, input untouched
    before = np.array(x, copy=True)
    with np.errstate(invalid="ignore"):
        got, want = oracles.wrap_angle(x), _expression_wrap(x)
    assert type(got) is type(want) and got.dtype == want.dtype and got.shape == want.shape
    for a, b in ((got, want), (x, before)):
        words = f"u{np.asarray(b).dtype.itemsize}"
        assert np.array_equal(np.asarray(a).view(words), np.asarray(b).view(words))
    if isinstance(x, np.ndarray) and x.dtype == np.float64:
        # wrapped in place, the same words
        with np.errstate(invalid="ignore"):
            oracles.wrap_angle(before, out=before)
        assert np.array_equal(before.view("u8"), np.asarray(want).view("u8"))


def _phase_variance_two_temporaries(dist, reference):
    """grid_phase_variance as it was written with wrap_angle's own new array."""
    d = oracles.wrap_angle(dist.grid - reference)
    return float(np.sum(np.multiply(np.square(d, out=d), dist.density, out=d)) * dist.dtheta)


@pytest.mark.parametrize("grid", [256, 1000, 4096, 65536])
def test_phase_variance_is_bitwise_the_two_temporary_expression(grid):
    # one grid-sized temporary, wrapped in place: the same operations in the
    # same order, so the same bits, about references on and off the grid
    for alpha in (0.7, 3.0 * np.exp(2.5j), 10.0):
        dist = oracles.canonical_phase_distribution(fock.coherent_state(alpha), grid_size=grid)
        for reference in (0.0, 0.3, -2.9, np.pi, -np.pi, dist.grid[7], 7.0, -1e3):
            want = _phase_variance_two_temporaries(dist, reference)
            got = oracles.grid_phase_variance(dist, reference)
            assert np.array_equal(np.float64(got).view("u8"), np.float64(want).view("u8"))
