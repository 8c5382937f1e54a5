import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import gammaln

import oracles
from laserclock import fock


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


@pytest.mark.parametrize("mu", [np.inf, -np.inf, np.nan, -1.0])
def test_default_truncation_rejects_nonfinite_or_negative_mu(mu):
    with pytest.raises(ValueError, match="mu must be finite and nonnegative"):
        fock.default_truncation(mu)


def test_number_state_has_uniform_phase():
    amps = np.zeros(11, dtype=complex)
    amps[7] = 1.0
    s = fock.FockVector(truncation=10, amplitudes=amps)
    d = fock.canonical_phase_distribution(s, grid_size=512)
    assert np.max(np.abs(d.density - 1 / (2 * np.pi))) < 1e-12


def test_coherent_phase_distribution_peaked_and_symmetric():
    s = fock.coherent_state(5.0)
    d = fock.canonical_phase_distribution(s)
    assert abs(d.grid[np.argmax(d.density)]) < 2 * np.pi / len(d.grid) * 2
    # real amplitudes: P(theta) = P(-theta); compare against the flipped grid
    interp = np.interp(-d.grid, d.grid, d.density, period=2 * np.pi)
    assert np.max(np.abs(d.density - interp)) < 1e-9 * d.density.max()


def test_coherent_phase_variance_mu25():
    # oracle (2^16-point grid integration): 0.0102117757; 1/4mu = 0.01
    s = fock.coherent_state(5.0)
    v = fock.phase_variance(fock.canonical_phase_distribution(s))
    assert v == pytest.approx(0.0102117757, rel=1e-6)
    assert v == pytest.approx(1 / 100, rel=0.05)


def test_uniform_distribution_variance():
    g = -np.pi + 2 * np.pi * (np.arange(4096) + 1) / 4096
    d = fock.PhaseDistribution(grid=g, density=np.full(4096, 1 / (2 * np.pi)))
    assert fock.phase_variance(d, 0.0) == pytest.approx(np.pi ** 2 / 3, rel=0.01)


def test_split_state_phase_variance():
    # |sqrt(mu/M)> with mu=100, M=4: variance ~ M/4mu = 0.01
    s = fock.coherent_state(np.sqrt(100 / 4))
    v = fock.phase_variance(fock.canonical_phase_distribution(s))
    assert v == pytest.approx(0.01, rel=0.05)


def test_phase_variance_against_fine_grid_oracle():
    # alpha=10: ~1/400; brute-force 2^16-point grid as the reference
    s = fock.coherent_state(10.0)
    v_fine = fock.phase_variance(fock.canonical_phase_distribution(s, grid_size=2 ** 16))
    v = fock.phase_variance(fock.canonical_phase_distribution(s))
    assert v == pytest.approx(v_fine, rel=1e-9)
    assert v == pytest.approx(0.0025, rel=0.05)


def test_phase_variance_reference_shift():
    s = fock.coherent_state(5.0)
    d = fock.canonical_phase_distribution(s)
    assert fock.phase_variance(d, 0.3) > fock.phase_variance(d, 0.0)


def test_phase_variance_convergence_to_quarter_mu():
    # relative error < 5% at mu=25, < 1% at mu=400
    for mu, tol in [(25.0, 0.05), (400.0, 0.01)]:
        s = fock.coherent_state(np.sqrt(mu))
        v = fock.phase_variance(fock.canonical_phase_distribution(s))
        assert abs(v * 4 * mu - 1) < tol


@pytest.mark.parametrize("mu,m", [(100, 4), (400, 4), (400, 16)])
def test_splitting_law(mu, m):
    # variance(sqrt(mu/M)) / variance(sqrt(mu)) -> M within 5% for mu/M >= 25
    vs = fock.phase_variance(fock.canonical_phase_distribution(
        fock.coherent_state(np.sqrt(mu / m)), grid_size=8192))
    v = fock.phase_variance(fock.canonical_phase_distribution(
        fock.coherent_state(np.sqrt(mu)), grid_size=8192))
    assert vs / v == pytest.approx(m, rel=0.05)


@pytest.mark.parametrize("chi", [0.3, 0.7, np.pi / 2, -1.1])
def test_phase_rotation_translates_distribution(chi):
    # a_n -> a_n e^{i n chi} shifts the distribution by chi: locate the shift
    # by the circular cross-correlation peak
    s = fock.coherent_state(5.0)
    G = 4096
    rot = fock.FockVector(s.truncation,
                          s.amplitudes * np.exp(1j * np.arange(s.truncation + 1) * chi))
    p0 = fock.canonical_phase_distribution(s, G).density
    p1 = fock.canonical_phase_distribution(rot, G).density
    corr = np.fft.ifft(np.fft.fft(p1) * np.conj(np.fft.fft(p0))).real
    shift = np.argmax(corr) * 2 * np.pi / G
    shift = float(fock.wrap_angle(shift))
    assert abs(float(fock.wrap_angle(shift - chi))) < 2 * np.pi / G * 1.5


def test_canonical_distribution_rejects_unnormalized():
    amps = np.zeros(11, dtype=complex)
    amps[0] = 0.9
    s = fock.FockVector(truncation=10, amplitudes=amps)
    with pytest.raises(ValueError, match="norm deficit"):
        fock.canonical_phase_distribution(s)


def test_canonical_distribution_grid_validation():
    s = fock.coherent_state(2.0)
    with pytest.raises(ValueError):
        fock.canonical_phase_distribution(s, grid_size=128)
    with pytest.raises(ValueError, match=f"more than the {fock.PHASE_GRID_BUDGET} points"):
        fock.canonical_phase_distribution(s, grid_size=fock.PHASE_GRID_BUDGET + 1)


def test_density_route_matches_pure_state_route():
    # the FFT route against the FFT-free direct sum over |alpha><alpha|; the
    # grids are compared too, as relabelling the grid alone moves no density
    s = fock.coherent_state(3.0)
    rho = np.outer(s.amplitudes, s.amplitudes.conj())
    d = fock.canonical_phase_distribution(s, 1024)
    grid, density = oracles.canonical_phase_density(rho, 1024)
    assert np.max(np.abs(d.grid - grid)) < 1e-12
    assert np.max(np.abs(d.density - density)) < 1e-12


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
    w = fock.wrap_angle(x)
    assert np.all(w > -np.pi) and np.all(w <= np.pi)
    assert np.allclose(np.exp(1j * w), np.exp(1j * x))


_ODD_PI = [k * np.pi for k in (-3, -1, 1, 3, 101)]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(x=st.floats(-1e300, 1e300) | st.sampled_from(
    _ODD_PI + [np.nextafter(v, d) for v in _ODD_PI for d in (-np.inf, np.inf)]))
def test_wrap_angle_range_property(x):
    # nextafter(pi, inf) once wrapped to -pi: the modulo rounded up to 2 pi
    w = fock.wrap_angle(x)
    assert -np.pi < w <= np.pi
    if abs(x) < 1e3:
        assert abs(np.exp(1j * w) - np.exp(1j * x)) < 1e-12
    assert fock.wrap_angle(np.array([x, x]))[1] == w


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
        got, want = fock.wrap_angle(x), _expression_wrap(x)
    assert type(got) is type(want) and got.dtype == want.dtype and got.shape == want.shape
    for a, b in ((got, want), (x, before)):
        words = f"u{np.asarray(b).dtype.itemsize}"
        assert np.array_equal(np.asarray(a).view(words), np.asarray(b).view(words))
    if isinstance(x, np.ndarray) and x.dtype == np.float64:
        # wrapped in place, the same words
        with np.errstate(invalid="ignore"):
            fock.wrap_angle(before, out=before)
        assert np.array_equal(before.view("u8"), np.asarray(want).view("u8"))


def _phase_variance_two_temporaries(dist, reference):
    """phase_variance as it was written with wrap_angle's own new array."""
    d = fock.wrap_angle(dist.grid - reference)
    return float(np.sum(np.multiply(np.square(d, out=d), dist.density, out=d)) * dist.dtheta)


@pytest.mark.parametrize("grid", [256, 1000, 4096, 65536])
def test_phase_variance_is_bitwise_the_two_temporary_expression(grid):
    # one grid-sized temporary, wrapped in place: the same operations in the
    # same order, so the same bits, about references on and off the grid
    for alpha in (0.7, 3.0 * np.exp(2.5j), 10.0):
        dist = fock.canonical_phase_distribution(fock.coherent_state(alpha), grid_size=grid)
        for reference in (0.0, 0.3, -2.9, np.pi, -np.pi, dist.grid[7], 7.0, -1e3):
            want = _phase_variance_two_temporaries(dist, reference)
            assert np.array_equal(np.float64(fock.phase_variance(dist, reference)).view("u8"),
                                  np.float64(want).view("u8"))


def test_log_factorials_within_4_ulp_of_gammaln():
    # each route is within 2 ulp of ln n! at every n <= 2e5 (measured against
    # 40-digit values): the exact-integer table below STIRLING_FROM, the
    # Stirling series above it, whose first omitted term is under 0.01 ulp
    top = 200_000
    got = fock.log_factorials(top)
    want = gammaln(np.arange(top + 1) + 1.0)
    assert got.shape == (top + 1,) and got[0] == got[1] == 0.0
    assert np.all(np.abs(got - want)[2:] <= 4 * np.spacing(want[2:]))
    assert np.array_equal(fock.log_factorials(10), got[:11])
    assert np.array_equal(fock.log_factorials(fock.STIRLING_FROM), got[:fock.STIRLING_FROM + 1])
