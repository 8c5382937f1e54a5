"""Master-equation dynamics of a single laser mode with phase-insensitive gain.

The mode decays at rate kappa and is repumped by a gain process that adds no
phase noise: the gain jump operator is the bare raising isometry
a^dag (a a^dag)^{-1/2} = sum_n |n+1><n|, acting at rate kappa*mu.  The
stationary state is then the Poisson mixture of number states with mean mu,
and the field coherence <a^dag(t) a(0)> decays at half the linewidth.

Both the gain and the loss couple a matrix element rho_{n,m} only to elements
with the same offset k = m - n, so the Liouvillian splits into independent
sector matrices: k = 0 carries the populations (birth-death chain, birth
kappa*mu, death kappa*n), k = 1 carries the first-order coherence whose
slowest eigenvalue gives the linewidth.  In the large-mu limit the linewidth
approaches kappa/(4 mu), half the standard quantum limit kappa/(2 mu) of a
conventional (noisy-gain) laser.  At finite mu it exceeds that asymptote:
ell = kappa/(4 mu) (1 + 1/mu + O(1/mu^2)).  The expansion fails below
mu ~ 8 (+66% at mu = 4); from mu = 4 up the linewidth is still below the SQL.

Each quantity takes its structured route.  The stationary state is the
Poisson closed form (detailed balance of the k = 0 chain); it is diagonal,
so :func:`stationary_state` returns its populations.  The k = 1 sector
is real and tridiagonal, and a diagonal similarity makes it symmetric, so
its slowest eigenvalue comes from a symmetric tridiagonal eigensolve on its
three diagonals.  The dense matrix-exponential decay fit is kept as the
independent cross-check: expm's Pade step on the scaled generator, then
squarings in scipy's BLAS with entries below 2^-500 flushed to zero, so the
fit neither crosses between numpy's and scipy's OpenBLAS thread pools nor
runs on subnormal numbers.
The general routes (the dense (T+1)^2 x (T+1)^2 superoperator, a
least-squares null vector, the pure-loss sectors) live in the tests, which
hold the sectors and the stationary state to them.

Everything is computed in the frame rotating at the optical frequency, so
the optical frequency never enters: the lab-frame term -i omega [a^dag a, rho]
would only shift sector-k eigenvalues by -i omega k, leaving every decay rate
unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import LinewidthFitError

__all__ = [
    "LaserParams",
    "LiouvillianSector",
    "poisson_weights",
    "build_liouvillian_sector",
    "stationary_state",
    "extract_linewidth",
    "sql_linewidth",
    "hl_linewidth",
]

# linewidth method -> the scipy.linalg routine that does its numerical work
LINEWIDTH_METHODS = {"eigenvalue": "eigh_tridiagonal", "decay_fit": "expm"}
# decay-fit propagator: the 1-norm up to which expm's degree-13 Pade step
# needs no squaring (Al-Mohy and Higham 2009), and the flush threshold
THETA_13 = 5.371920351148152
FLUSH_BELOW = 2.0 ** -500


@dataclass(frozen=True)
class LaserParams:
    """Source laser with noiseless gain: cavity decay rate kappa (1/s) and
    mean photon number mu."""

    kappa: float
    mu: float

    def __post_init__(self):
        if not 0 < self.kappa < np.inf:
            raise ValueError("kappa must be positive and finite")
        if not 0 < self.mu < np.inf:
            raise ValueError("mu must be positive and finite")


@dataclass(frozen=True)
class LiouvillianSector:
    """Generator restricted to the elements x_n = rho_{n, n+k} for fixed k.

    ``matrix[i, j]`` is the rate (1/s) at which x_j feeds dx_i/dt.  Only
    ``matrix`` is read; the wrapper stays while the benchmark's tracer
    counts sector rows through it.
    """

    sector_offset: int
    matrix: np.ndarray


def poisson_weights(mu: float, truncation: int) -> np.ndarray:
    """Poisson(mu) probabilities for n = 0 .. truncation (log-space, unnormalized tail)."""
    from scipy.special import gammaln

    n = np.arange(truncation + 1)
    return np.exp(-mu + n * np.log(mu) - gammaln(n + 1))


def _check_truncation(params: LaserParams, truncation: int) -> None:
    if truncation < 2:
        raise ValueError("truncation must be >= 2")
    if truncation > 512:
        raise ValueError("dense sector solvers are capped at truncation 512")
    tail = 1.0 - float(poisson_weights(params.mu, truncation).sum())
    if tail > 1e-9:
        raise ValueError(
            f"truncation {truncation} too small: stationary tail mass {tail:.2e} > 1e-9"
        )


def _sector_diagonals(params: LaserParams, k: int, truncation: int):
    """(sub, diag, super) diagonals of the sector-k generator; see
    :func:`build_liouvillian_sector`."""
    _check_truncation(params, truncation)
    kappa, mu = params.kappa, params.mu
    n = np.arange(truncation - k + 1)
    # loss kappa (a rho a^dag - {a^dag a, rho}/2); gain kappa*mu, truncated
    # at the top state
    sup = kappa * np.sqrt((n[:-1] + 1.0) * (n[:-1] + k + 1.0))
    diag = -kappa * (n + k / 2.0) - kappa * mu * ((n <= truncation - 1).astype(float)
                                                   + (n + k <= truncation - 1).astype(float)) / 2.0
    return np.full(len(n) - 1, kappa * mu), diag, sup


def build_liouvillian_sector(params: LaserParams, sector_offset: int,
                             truncation: int) -> LiouvillianSector:
    """Build the sector-k generator for x_n = rho_{n, n+k}, in the rotating frame.

    Loss contributes kappa * [sqrt((n+1)(n+k+1)) x_{n+1} - (n + k/2) x_n].
    The noiseless gain, written as a dissipator of the raising isometry
    truncated at the top state (which keeps every sector exactly
    trace-consistent), contributes kappa*mu * [x_{n-1} - x_n] away from the
    boundary.  No term carries a phase in the rotating frame, so the matrix
    is real (``float``) and tridiagonal.

    Raises
    ------
    ValueError
        If the truncation leaves stationary tail mass above 1e-9.
    """
    k = int(sector_offset)
    if k < 0 or k > truncation:
        raise ValueError("sector_offset must be in [0, truncation]")
    sub, diag, sup = _sector_diagonals(params, k, truncation)
    L = np.diag(diag)
    np.fill_diagonal(L[:, 1:], sup)
    np.fill_diagonal(L[1:], sub)
    return LiouvillianSector(sector_offset=k, matrix=L)


def stationary_state(params: LaserParams, truncation: int) -> np.ndarray:
    """Stationary populations of the noiseless-gain laser: Poisson(mu) over
    0..truncation, as an array of length truncation + 1.

    The k=0 sector is a birth-death chain on 0..truncation (birth kappa*mu
    below the top state, death kappa*n), so detailed balance
    kappa*mu*P(n) = kappa*(n+1)*P(n+1) fixes its null vector exactly: the
    Poisson weights, normalized over the retained states.  The state is
    diagonal, so these populations are all of it.

    Raises
    ------
    ValueError
        If the truncation leaves stationary tail mass above 1e-9.
    """
    _check_truncation(params, truncation)
    p = poisson_weights(params.mu, truncation)
    return p / p.sum()


def extract_linewidth(
    params: LaserParams,
    truncation: int,
    method: str = "eigenvalue",
) -> float:
    """FWHM linewidth (rad/s) of the noiseless-gain laser from the k=1 sector.

    method="eigenvalue"
        ell = -2 lambda_1, lambda_1 the k=1 eigenvalue closest to zero; the
        first-order coherence decays asymptotically as e^{lambda_1 t} and the
        spectrum is Lorentzian with FWHM ell.  The real tridiagonal sector
        has diagonal d_n, gain sub-diagonal c = kappa*mu and loss
        super-diagonal b_n = kappa*sqrt((n+1)(n+2)).  Every product
        b_n c is positive, so the diagonal similarity D with
        D_{n+1}/D_n = sqrt(c/b_n) turns it into the symmetric tridiagonal
        matrix with diagonal d_n and off-diagonal sqrt(b_n c).  Its
        eigenvalues are those of the sector, hence real (and negative, as
        every coherence decays), and lambda_1 is the largest of them, taken
        alone by ``scipy.linalg.eigh_tridiagonal`` (bisection); the three
        diagonals are built directly, never the dense sector.
    method="decay_fit"
        Evolve X(0) = a rho_ss under the k=1 generator by repeated
        application of one dense short-time propagator U = exp(L1 dt), and
        fit the exponential decay rate r of |Tr(a^dag X(t))| over two slow
        e-folds; ell = 2 r.  The fit starts at the first multiple of dt at
        or after 8/kappa, once the fast transients have died.  An
        independent cross-check of the eigenvalue route.  U is
        ``scipy.linalg.expm``'s Pade step on L1 dt / 2^s followed by s
        squarings in ``scipy.linalg.blas.dgemm``, entries below 2^-500
        zeroed before each, and it is applied by ``dgemv`` (real
        arithmetic throughout).  So every matrix product of the fit runs in
        scipy's bundled OpenBLAS; ``expm``'s own squarings and numpy's
        ``@`` would run in numpy's separate OpenBLAS, whose thread pool
        contends with scipy's on a small host.  Unflushed, the early
        squarings run on thousands of subnormal entries at T ~ 400, each
        several times slower than a normal one.  X(0) is built from the
        populations of :func:`stationary_state`.

    Raises
    ------
    LinewidthFitError
        If the decay-fit residual shows the decay is not exponential, or
        either route gives a linewidth that is not positive.
    """
    if method not in LINEWIDTH_METHODS:
        raise ValueError(f"method must be one of {tuple(LINEWIDTH_METHODS)}")
    from scipy.linalg import eigh_tridiagonal
    from scipy.linalg.blas import dgemv

    if method == "eigenvalue":
        sub, diag, sup = _sector_diagonals(params, 1, truncation)
        top = len(diag) - 1
        lam1 = eigh_tridiagonal(diag, np.sqrt(sup * sub), eigvals_only=True,
                                select="i", select_range=(top, top))[0]
        ell = float(-2.0 * lam1)
    else:
        L1 = build_liouvillian_sector(params, 1, truncation).matrix
        # X(0) = a rho_ss in the k=1 sector; w are the weights of Tr(a^dag X)
        w = np.sqrt(np.arange(1.0, truncation + 1))
        x = w * stationary_state(params, truncation)[1:]
        # fast transients decay at O(kappa), by t = 8/kappa; the slow mode at
        # ~kappa/(8 mu), sampled over t_span = 16 mu/kappa in nsteps steps
        nsteps = 60
        dt = 16.0 * params.mu / params.kappa / nsteps
        # first multiple of dt at or after 8/kappa: (8/kappa)/dt = 30/mu exactly
        skip = math.ceil(30.0 / params.mu)
        U = _propagator(L1 * dt)
        for _ in range(skip):
            x = dgemv(1.0, U, x)
        ts = dt * np.arange(skip, skip + nsteps + 1)
        g = np.empty(nsteps + 1)
        for i in range(nsteps + 1):
            g[i] = np.abs(w @ x)
            x = dgemv(1.0, U, x)
        slope, intercept = np.polyfit(ts, np.log(g), 1)
        resid = np.max(np.abs(np.log(g) - (slope * ts + intercept)))
        if resid > 1e-3:
            raise LinewidthFitError(
                f"coherence decay not exponential: max log-residual {resid:.2e} > 1e-3"
            )
        ell = float(-2.0 * slope)
    if not ell > 0:
        raise LinewidthFitError(f"{method} linewidth {ell:.3e} rad/s is not positive")
    return ell


def _propagator(A: np.ndarray) -> np.ndarray:
    """exp(A) for the real k=1 generator times dt, in Fortran order.

    ``scipy.linalg.expm`` takes its Pade step on A / 2^s, with
    s = ceil(log2(||A||_1 / THETA_13)); the s squarings then run through
    ``scipy.linalg.blas.dgemm``, the BLAS that step used.  Before each
    squaring, entries below FLUSH_BELOW are set to zero.  exp(L1 t) is
    entrywise nonnegative with column sums at most 1 (L1 has nonnegative
    off-diagonals and nonpositive column sums), so a dropped product is
    below 2^-500 against entries of order 1; the tests find the squared
    propagator bitwise unchanged.
    """
    from scipy.linalg import expm
    from scipy.linalg.blas import dgemm

    s = max(0, math.ceil(math.log2(np.linalg.norm(A, 1) / THETA_13)))
    U = np.asfortranarray(expm(A / 2.0 ** s))
    for _ in range(s):
        U[np.abs(U) < FLUSH_BELOW] = 0.0
        U = dgemm(1.0, U, U)
    return U


def sql_linewidth(params: LaserParams) -> float:
    """Standard-quantum-limit linewidth kappa/(2 mu) of a conventional laser.

    Analytic: the standard (noisy-gain) master equation is not simulated
    here; the same limit is exercised end-to-end by the tracking module's
    stochastic phase model.
    """
    return params.kappa / (2.0 * params.mu)


def hl_linewidth(params: LaserParams) -> float:
    """Heisenberg-limit linewidth kappa/(4 mu), the large-mu asymptote of the
    noiseless-gain laser (half the SQL).

    The model's linewidth approaches it as
    ell = kappa/(4 mu) (1 + 1/mu + O(1/mu^2)); the expansion fails below
    mu ~ 8 (+66% at mu = 4).
    """
    return params.kappa / (4.0 * params.mu)

