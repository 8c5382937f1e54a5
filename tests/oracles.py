"""Independent reference routes that the production code is tested against.

Each oracle takes the general-numerics or one-step route to a quantity that
``laserclock`` computes by a structured one: scalar steps of the two tracking
filters, a coherent state's full amplitude vector n = 0 .. truncation, the
canonical phase density by a direct sum over a density matrix
and by one FFT on a uniform grid, the phase variance as that grid's wrapped
sum and as its finite Fourier series summed by ``math.fsum``, the dense
master-equation superoperator and loss-only sectors, the linewidth
eigenvalue by ``scipy.linalg.eigh_tridiagonal`` and by Sturm bisection in
``decimal``, the decay fit on a dense propagator ``U = exp(L1 dt)`` applied
by numpy (from ``scipy.linalg.expm``, or from a degree-13 Pade step and
squarings in numpy), the lattice-channel overlaps by adaptive quadrature,
the scaled erf by boolean masks and on ``scipy.special``'s ``wofz`` and
``dawsn``, and the channel's output amplitude by a sum over one window of
lattice states.  The master-equation sector for any offset k
(``build_liouvillian_sector``, with its dense view) is the general route
whose k = 1 rows ``laserdyn`` forms from their closed forms.
"""
import math
from dataclasses import dataclass, field
from decimal import Decimal, localcontext

import numpy as np
from scipy.integrate import quad
from scipy.linalg import eigh_tridiagonal, expm
from scipy.special import dawsn, wofz

from laserclock import channel as ch
from laserclock import fock
from laserclock import laserdyn as ld
from laserclock.errors import NumericalCheckError


# --- tracking: one step of one trial ----------------------------------------

def adaptive_step(phi, est, beam, sigma2, dt, dw_phase, dw_shot):
    """One step of the adaptive lock; returns the new (phi, est).

    The phase diffuses by sqrt(ell) dw_phase, the local oscillator sits at
    lo = est + pi/2, the photocurrent is I dt = 2 alpha cos(lo - phi) dt +
    dw_shot, and the estimate moves by (ell/sigma2) I dt / (2 alpha).
    """
    phi = phi + math.sqrt(beam.ell) * dw_phase
    lo, alpha = est + math.pi / 2.0, math.sqrt(beam.f)
    idt = 2.0 * alpha * math.cos(lo - phi) * dt + dw_shot
    return phi, est + beam.ell / sigma2 * idt / (2.0 * alpha)


def heterodyne_step(phi, A, est, beam, lam, dt, dw_phase, dz_shot):
    """One step of the dual-quadrature filter; returns the new (phi, A, est).

    dZ = sqrt(2) alpha e^{i phi} dt + dz_shot feeds A += lam (dZ - A dt), and
    the estimate follows angle(A) unwrapped: it moves by the wrapped change
    of the angle.
    """
    phi = phi + math.sqrt(beam.ell) * dw_phase
    dZ = math.sqrt(2.0) * math.sqrt(beam.f) * np.exp(1j * phi) * dt + dz_shot
    new = A + lam * (dZ - A * dt)
    return phi, new, est + wrap(np.angle(new) - np.angle(A))


def wrap(x):
    """x mapped into [-pi, pi)."""
    return (x + math.pi) % (2 * math.pi) - math.pi


# --- fock: the full amplitude vector of a coherent state ---------------------

def coherent_amplitudes(alpha, truncation=None):
    """The amplitudes e^{-|a|^2/2} alpha^n / sqrt(n!) of |alpha> for every
    n = 0 .. truncation (default ``fock.default_truncation(|alpha|^2)``): the
    magnitudes from ``fock.poisson_amplitudes`` on the whole vector, and the
    phase factors of ``fock.coherent_state``."""
    alpha = complex(alpha)
    mu = abs(alpha) ** 2
    truncation = fock.default_truncation(mu) if truncation is None else truncation
    if mu == 0.0:
        amps = np.zeros(truncation + 1, dtype=complex)
        amps[0] = 1.0
        return amps
    amps = fock.poisson_amplitudes(mu, 0, truncation).astype(complex)
    if alpha.imag or alpha.real < 0:
        amps *= np.exp(1j * np.arange(truncation + 1) * np.angle(alpha))
    return amps


def log_space_poisson_weights(mu, truncation):
    """Poisson(mu) weights e^{-mu + n log mu - ln n!} for n = 0 .. truncation,
    truncation < 256, in that operation order, with ln n! the logarithm of
    the exact integer n!: the log-space formula the package used before it
    built the weights by ratio products from the mode.  Kept as the input on
    which the resolvent solve's 40-digit allowance was measured."""
    assert truncation < 256
    n = np.arange(truncation + 1)
    log_factorials = np.array([math.log(math.factorial(k)) for k in range(truncation + 1)])
    return np.exp(-mu + n * np.log(mu) - log_factorials)


def poisson_tail(mu, truncation):
    """The Poisson(mu) mass past ``truncation`` as a float, summed in 50-digit
    arithmetic from lgamma at truncation + 1, then by the ratio mu/(n+1), to
    40 sd past the truncation: for a truncation at or above mu the terms
    there are below 1e-100 of the first (at mu = 4; 1e-500 at mu = 1e5)."""
    import mpmath

    with mpmath.workdps(50):
        m = mpmath.mpf(mu)
        term = mpmath.exp((truncation + 1) * mpmath.log(m) - m - mpmath.loggamma(truncation + 2))
        total = 0
        for n in range(truncation + 1, truncation + 1 + 40 * math.ceil(math.sqrt(mu))):
            total += term
            term *= m / (n + 1)
        return float(total)


# --- fock: phase density by a direct sum ------------------------------------

def canonical_phase_density(rho, grid_size):
    """Canonical phase density <theta|rho|theta> / 2pi of the density matrix
    rho, |theta> = sum_n e^{i n theta} |n>, on the grid
    theta_j = -pi + 2 pi (j + 1) / G (j = 0 .. G-1) that spans (-pi, pi].

    Returns (grid, density): Re sum_n conj(E[n, j]) (rho E)[n, j] / 2pi with
    E[n, j] = e^{i n theta_j}, a direct sum with no FFT.
    """
    theta = -np.pi + 2 * np.pi * (np.arange(grid_size) + 1) / grid_size
    E = np.exp(1j * np.outer(np.arange(len(rho)), theta))
    return theta, np.real(np.sum(np.conj(E) * (rho @ E), axis=0)) / (2 * np.pi)


# --- fock: the phase density on a uniform grid -------------------------------

# largest phase grid: the transform's complex output alone is then 256 MiB
PHASE_GRID_BUDGET = 2 ** 24


def wrap_angle(x, out=None):
    """Wrap an angle (or array of angles) into (-pi, pi], in one new array, or
    in ``out`` (which may be ``x`` itself)."""
    if out is None:
        out = np.empty(np.shape(x), np.result_type(x, np.pi))
    w = np.negative(x, out=out)
    np.remainder(np.add(w, np.pi, out=w), 2 * np.pi, out=w)
    np.negative(np.subtract(w, np.pi, out=w), out=w)  # -((-x + pi) % 2 pi - pi)
    # just above an odd multiple of pi the modulo rounds up to 2 pi: fold -pi onto pi
    np.copyto(w, np.pi, where=w == -np.pi)
    return w[()]


@dataclass(frozen=True)
class PhaseDistribution:
    """Phase density on a uniform grid over (-pi, pi], normalized to 1."""

    grid: np.ndarray
    density: np.ndarray
    dtheta: float = field(init=False)

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        p = np.asarray(self.density, dtype=float)
        if g.ndim != 1 or g.shape != p.shape or g.size < 2:
            raise ValueError("grid and density must be equal-length 1-d arrays")
        if np.min(p) < -1e-12:
            raise ValueError("density must be nonnegative")
        dth = 2 * np.pi / g.size
        total = float(np.sum(p) * dth)
        if abs(total - 1.0) > 1e-6:
            raise ValueError(f"density integrates to {total}, not 1 within 1e-6")
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "density", np.maximum(p, 0.0))
        object.__setattr__(self, "dtheta", dth)


def canonical_phase_distribution(state: fock.FockVector,
                                 grid_size: int = 4096) -> PhaseDistribution:
    """Canonical phase density P(theta) = |sum_n a_n e^{-i n theta}|^2 / 2pi.

    Evaluated exactly on a uniform grid over (-pi, pi] (FFT; the density is a
    trigonometric polynomial, so with grid_size > 2*truncation the grid sum
    reproduces the integral exactly).  Number states give the uniform density;
    a vacuum or any |n> carries no phase.

    Raises
    ------
    ValueError
        If the input norm deficit exceeds 1e-6, or the grid is too small or
        larger than ``PHASE_GRID_BUDGET`` points.
    """
    if grid_size < 256:
        raise ValueError("grid_size must be >= 256")
    if grid_size > PHASE_GRID_BUDGET:
        raise ValueError(f"grid_size {grid_size} is more than the {PHASE_GRID_BUDGET} "
                         "points allowed")
    if grid_size <= state.truncation:
        raise ValueError("grid_size must exceed the truncation")
    if state.norm_deficit > 1e-6:
        raise ValueError(f"state norm deficit {state.norm_deficit:.2e} exceeds 1e-6")
    G = grid_size
    n = state.offset + np.arange(len(state.amplitudes))
    # e^{-i n theta_j} = (-1)^n e^{-2pi i n (j+1)/G}: an FFT of length G, exact
    # on the uniform grid as G >= truncation + 1, up to the factor
    # e^{-2pi i offset j/G} of modulus 1
    density = np.abs(np.fft.fft(state.amplitudes * (-1.0) ** n * np.exp(-2j * np.pi * n / G), G))
    np.divide(np.square(density, out=density), 2 * np.pi, out=density)  # |f|^2 / 2 pi in place
    # the grid is built once the transform is freed, so it is not live beside it
    theta = -np.pi + 2 * np.pi * (np.arange(G) + 1) / G
    return PhaseDistribution(grid=theta, density=density)


def grid_phase_variance(dist: PhaseDistribution, reference: float = 0.0) -> float:
    """Wrapped second moment of the phase about ``reference``, in rad^2.

    Integrates wrap(theta - reference)^2 P(theta) over the grid, with the
    difference wrapped into (-pi, pi].  This is the mean-square phase error
    convention used throughout the tracking and synchronization modules (not
    the Holevo variance).
    """
    # one grid-sized temporary: the difference is wrapped where it is
    d = np.subtract(dist.grid, reference)
    wrap_angle(d, out=d)
    return float(np.sum(np.multiply(np.square(d, out=d), dist.density, out=d)) * dist.dtheta)


def phase_variance_series(amplitudes):
    """int theta^2 P(theta) dtheta over (-pi, pi] as its finite Fourier series
    pi^2 R_0/3 + 4 sum_k (-1)^k Re R_k / k^2, R_k = sum_n a_{n+k} conj(a_n),
    each sum taken by ``math.fsum``."""
    a = np.asarray(amplitudes, dtype=complex)
    terms = [math.pi ** 2 / 3 * math.fsum(np.abs(a) ** 2)]
    for k in range(1, len(a)):
        terms.append(4 * (-1) ** k * math.fsum((a[k:] * np.conj(a[:-k])).real) / k ** 2)
    return math.fsum(terms)


# --- laserdyn: the sectors, dense superoperator, loss-only sectors -----------

@dataclass(frozen=True)
class LiouvillianSector:
    """Generator restricted to the elements x_n = rho_{n, n+k} for fixed k,
    held as its three diagonals: ``diag[n]`` is the rate (1/s) at which x_n
    feeds dx_n/dt, ``sub[n]`` the rate at which x_n feeds dx_{n+1}/dt and
    ``sup[n]`` the rate at which x_{n+1} feeds dx_n/dt."""

    sector_offset: int
    sub: np.ndarray
    diag: np.ndarray
    sup: np.ndarray

    @property
    def matrix(self):
        """Dense view: ``matrix[i, j]`` is the rate (1/s) at which x_j feeds
        dx_i/dt."""
        L = np.diag(self.diag)
        np.fill_diagonal(L[:, 1:], self.sup)
        np.fill_diagonal(L[1:], self.sub)
        return L


def build_liouvillian_sector(params, sector_offset, truncation):
    """The sector-k generator for x_n = rho_{n, n+k}, n = 0 .. truncation - k,
    in the rotating frame.

    Loss contributes kappa * [sqrt((n+1)(n+k+1)) x_{n+1} - (n + k/2) x_n].
    The noiseless gain, written as a dissipator of the raising isometry
    truncated at the top state (which keeps every sector exactly
    trace-consistent), contributes kappa*mu * [x_{n-1} - x_n] away from the
    boundary.  No term carries a phase in the rotating frame, so the sector
    is real and tridiagonal.  The truncation is not checked against the
    stationary tail; ``test_sector_blocks_match_full_superoperator`` holds
    the sectors to ``full_liouvillian``.
    """
    k = int(sector_offset)
    if not 0 <= k <= truncation:
        raise ValueError("sector_offset must be in [0, truncation]")
    kappa, mu = params.kappa, params.mu
    n = np.arange(truncation - k + 1)
    sup = kappa * np.sqrt((n[:-1] + 1.0) * (n[:-1] + k + 1.0))
    diag = -kappa * (n + k / 2.0) - kappa * mu * ((n <= truncation - 1).astype(float)
                                                   + (n + k <= truncation - 1).astype(float)) / 2.0
    return LiouvillianSector(k, np.full(len(n) - 1, kappa * mu), diag, sup)


def full_liouvillian(kappa, mu, truncation):
    """Dense superoperator on row-major vectorized rho: loss at rate kappa and
    the raising isometry sum_n |n+1><n| at rate kappa*mu (mu = 0: loss only)."""
    d = truncation + 1
    I = np.eye(d)

    def dissipator(c, rate):
        cdc = c.T @ c
        # row-major vec: vec(L X R) = (L kron R^T) vec(X), c real
        return rate * (np.kron(c, c) - 0.5 * np.kron(cdc, I) - 0.5 * np.kron(I, cdc))

    return dissipator(np.diag(np.sqrt(np.arange(1.0, d)), k=1), kappa) \
        + dissipator(np.diag(np.ones(d - 1), k=-1), kappa * mu)


def loss_sector(kappa, k, truncation):
    """Pure-loss generator of x_n = rho_{n, n+k}, n = 0 .. truncation - k:
    kappa [sqrt((n+1)(n+k+1)) x_{n+1} - (n + k/2) x_n]."""
    n = np.arange(truncation - k + 1.0)
    return kappa * (np.diag(np.sqrt((n[:-1] + 1) * (n[:-1] + k + 1)), 1) - np.diag(n + k / 2))


def symmetric_sector_1(params, truncation):
    """(diagonal, off-diagonal) of the symmetric tridiagonal matrix similar to
    the k=1 sector: its diagonal, and sqrt(b_n c) from its loss super-diagonal
    b_n and gain sub-diagonal c, by the diagonal similarity
    D_{n+1}/D_n = sqrt(c/b_n)."""
    L1 = build_liouvillian_sector(params, 1, truncation).matrix
    return np.diag(L1).copy(), np.sqrt(np.diag(L1, 1) * np.diag(L1, -1))


def linewidth_eigh_tridiagonal(params, truncation):
    """-2 lambda_1, lambda_1 the largest eigenvalue of the symmetrized k=1
    sector, taken alone by ``scipy.linalg.eigh_tridiagonal`` (bisection)."""
    diag, off = symmetric_sector_1(params, truncation)
    top = len(diag) - 1
    return float(-2.0 * eigh_tridiagonal(diag, off, eigvals_only=True, select="i",
                                         select_range=(top, top))[0])


def linewidth_sturm_decimal(params, truncation, digits=30):
    """-2 lambda_1 of the k=1 sector as a ``Decimal`` to ``digits`` digits, by
    bisection on the Sturm count of the symmetrized sector.

    Every entry is formed in ``decimal`` from kappa and mu: the diagonal
    -kappa (n + 1/2) - kappa mu, with kappa mu / 2 at the top state, and the
    squared off-diagonal kappa^2 mu sqrt((n+1)(n+2)).  The number of
    eigenvalues of -L1 below x is the number of negative pivots q_n of
    -L1 - x I, and lambda_1 is the largest eigenvalue of L1.
    """
    with localcontext() as ctx:
        ctx.prec = digits + 10
        kappa, mu, T = Decimal(params.kappa), Decimal(params.mu), truncation
        diag = [kappa * (n + Decimal("0.5")) + kappa * mu for n in range(T)]
        diag[-1] -= kappa * mu / 2
        off2 = [kappa * kappa * mu * Decimal((n + 1) * (n + 2)).sqrt() for n in range(T - 1)]

        def below(x):
            q = diag[0] - x
            count = q < 0
            for d, e2 in zip(diag[1:], off2):
                q = d - x - e2 / q
                count += q < 0
            return count

        # the smallest eigenvalue of -L1 lies in (0, min diagonal]
        lo, hi = Decimal(0), min(diag)
        while hi - lo > hi * Decimal(10) ** -digits:
            mid = (lo + hi) / 2
            lo, hi = (lo, mid) if below(mid) else (mid, hi)
        return lo + hi


def _dense_decay_fit(params, truncation, exp):
    """The decay fit on U = exp(L1 dt), applied with numpy's @.

    Returns the linewidth, the sample times and the samples |Tr(a^dag X(t))|.
    Same initial vector, step, skip and fit as ``extract_linewidth``.
    """
    L1 = build_liouvillian_sector(params, 1, truncation).matrix
    w = np.sqrt(np.arange(1.0, truncation + 1))
    x = w * ld.stationary_state(params, truncation)[1:]
    nsteps = 60
    dt = 16.0 * params.mu / params.kappa / nsteps
    skip = math.ceil(30.0 / params.mu)
    U = exp(L1 * dt)
    for _ in range(skip):
        x = U @ x
    ts = dt * np.arange(skip, skip + nsteps + 1)
    g = np.empty(nsteps + 1)
    for i in range(nsteps + 1):
        g[i] = np.abs(w @ x)
        x = U @ x
    slope, _ = np.polyfit(ts, np.log(g), 1)
    return -2.0 * slope, ts, g


def decay_fit_dense_expm(params, truncation):
    """The decay fit on U = ``scipy.linalg.expm(L1 dt)``; see ``_dense_decay_fit``."""
    return _dense_decay_fit(params, truncation, expm)


def decay_fit_pade(params, truncation):
    """The decay fit on U = ``propagator(L1 dt)``; see ``_dense_decay_fit``."""
    return _dense_decay_fit(params, truncation, propagator)


# --- laserdyn: the dense Pade propagator -------------------------------------

# the 1-norm up to which the degree-13 Pade step needs no squaring (Al-Mohy and
# Higham 2009), and the flush threshold of the squarings
THETA_13 = 5.371920351148152
FLUSH_BELOW = 2.0 ** -500
# numerator coefficients b_0 .. b_13 of the degree-13 Pade approximant to
# exp (Higham 2005); the denominator's are the same with odd ones negated
PADE_13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
           33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)


def pade13(A):
    """The degree-13 Pade approximant r13(A) = (V - U)^{-1} (V + U) to exp(A).

    U and V are the odd and even parts, from A^2, A^4 and A^6 in six matrix
    products and one solve (Higham 2005, coefficients ``PADE_13``).  For
    ||A||_1 <= THETA_13 its backward error is below unit roundoff.
    """
    b = PADE_13
    diag = np.s_[::len(A) + 1]
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A4 @ A2

    def even(c6, c4, c2):
        return c6 * A6 + c4 * A4 + c2 * A2

    U = A6 @ even(b[13], b[11], b[9]) + even(b[7], b[5], b[3])
    U.flat[diag] += b[1]
    U = A @ U
    V = A6 @ even(b[12], b[10], b[8]) + even(b[6], b[4], b[2])
    V.flat[diag] += b[0]
    return np.linalg.solve(V - U, V + U)


def propagator(A):
    """exp(A) for the real k=1 generator times dt.

    ``pade13`` on A / 2^s, with s = ceil(log2(||A||_1 / THETA_13)), then s
    squarings with numpy's ``@``.  Before each squaring, entries below
    FLUSH_BELOW in magnitude are set to zero.  exp(L1 t) is entrywise
    nonnegative with column sums at most 1 (L1 has nonnegative
    off-diagonals and nonpositive column sums), so a dropped product is
    below 2^-500 against entries of order 1.
    """
    s = max(0, math.ceil(math.log2(np.linalg.norm(A, 1) / THETA_13)))
    U = pade13(A / 2.0 ** s)
    for _ in range(s):
        U[np.abs(U) < FLUSH_BELOW] = 0.0
        U = U @ U
    return U


# --- channel: overlaps by adaptive quadrature --------------------------------

class QuadratureError(NumericalCheckError):
    """An overlap integral did not converge to the requested accuracy."""


def quad_complex(fun, a, b):
    """int_a^b fun, certified to 1e-10 absolute, else QuadratureError."""
    parts = [quad(lambda q: part(fun(q)), a, b, epsabs=1e-12, epsrel=0.0, limit=400)
             for part in (np.real, np.imag)]
    err = max(e for _, e in parts)
    if err > 1e-10:
        raise QuadratureError(f"overlap quadrature error estimate {err:.2e} above 1e-10")
    return complex(parts[0][0], parts[1][0])


def coherent_wavefunction(q, alpha):
    """<q|alpha> with q = (a + a^dag)/sqrt(2) and the phase e^{-i q_bar p_bar/2}."""
    qb, pb = math.sqrt(2) * alpha.real, math.sqrt(2) * alpha.imag
    return np.pi ** -0.25 * np.exp(-(q - qb) ** 2 / 2 + 1j * pb * q - 1j * qb * pb / 2)


def lattice_overlap(alpha, spec, n, m):
    """<q_n, p_m | alpha> = Delta^{-1/2} int_box e^{-i q p_m} psi_alpha(q) dq."""
    alpha, p = complex(alpha), 2 * np.pi * m / spec.delta
    a, b = spec.delta * (n - 0.5), spec.delta * (n + 0.5)
    return quad_complex(lambda q: np.exp(-1j * q * p) * coherent_wavefunction(q, alpha),
                        a, b) / math.sqrt(spec.delta)


def lattice_state_overlap(spec, nm1, nm2):
    """<q_n1, p_m1 | q_n2, p_m2>: zero for distinct (disjoint) boxes, else the
    boxcar Fourier integral."""
    (n1, m1), (n2, m2) = nm1, nm2
    if n1 != n2:
        return 0j
    dp = 2 * np.pi * (m2 - m1) / spec.delta
    a, b = spec.delta * (n1 - 0.5), spec.delta * (n1 + 0.5)
    return quad_complex(lambda q: np.exp(1j * q * dp), a, b) / spec.delta


def orthonormality_defect(spec, n_span, m_span):
    """Largest deviation of the lattice Gram matrix from the identity over
    |n| <= n_span, |m| <= m_span."""
    states = [(n, m) for n in range(-n_span, n_span + 1) for m in range(-m_span, m_span + 1)]
    return max(abs(lattice_state_overlap(spec, s1, s2) - (s1 == s2))
               for i, s1 in enumerate(states) for s2 in states[i:])


def scaled_erf_masked(u, s):
    """e^{-s^2} erf(u - i s) on the broadcast grid of u and s, each sign of u
    gathered by a boolean mask, with the channel's own Faddeeva function
    ``_wofz``; on u = 0, -i Im w(s) is -2i/sqrt(pi) times the Dawson function.
    """
    u, s = np.broadcast_arrays(np.asarray(u, dtype=float), np.asarray(s, dtype=float))
    out = np.empty(u.shape, dtype=complex)
    pos = u > 0
    neg = u < 0
    zer = ~(pos | neg)
    up, sp = u[pos], s[pos]
    out[pos] = np.exp(-sp ** 2) - np.exp(-up ** 2 + 2j * up * sp) * ch._wofz(sp + 1j * up)
    un, sn = u[neg], s[neg]
    out[neg] = -np.exp(-sn ** 2) + np.exp(-un ** 2 + 2j * un * sn) * ch._wofz(-sn - 1j * un)
    out[zer] = -1j * ch._wofz(s[zer]).imag
    return out


def scaled_erf_scipy(u, s):
    """e^{-s^2} erf(u_i - i s_j) on the grid of sorted 1-D u and 1-D s, on
    ``scipy.special``'s ``wofz`` and ``dawsn`` in the channel's row slices."""
    u = np.asarray(u, dtype=float)
    s = np.asarray(s, dtype=float)
    lo, hi = np.searchsorted(u, 0.0, "left"), np.searchsorted(u, 0.0, "right")
    es = np.exp(-s ** 2)
    out = np.empty((len(u), len(s)), dtype=complex)
    un, up = u[:lo, None], u[hi:, None]
    out[:lo] = -es + np.exp(-un ** 2 + 2j * un * s) * wofz(-s - 1j * un)
    out[lo:hi] = -2j / math.sqrt(math.pi) * dawsn(s)
    out[hi:] = es - np.exp(-up ** 2 + 2j * up * s) * wofz(s + 1j * up)
    return out


def windowed_amplitude(delta, ns, ms, probabilities):
    """sum P(n, m) (q_n + i p_m)/sqrt(2) over the window ns x ms of the lattice
    of spacing delta, the lattice states' mean amplitudes weighted by P."""
    qn = delta * np.asarray(ns)
    pm = 2 * np.pi * np.asarray(ms) / delta
    wq = probabilities.sum(axis=1) @ qn
    wp = probabilities.sum(axis=0) @ pm
    return (wq + 1j * wp) / math.sqrt(2)
