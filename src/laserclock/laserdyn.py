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

Each quantity takes its structured route, on numpy alone.  The stationary
state is the Poisson closed form (detailed balance of the k = 0 chain); it
is diagonal, so :func:`stationary_state` returns its populations.  The
negated, transposed k = 1 sector B = -L1^T is a tridiagonal M-matrix whose
row sums (the column defects of L1) have closed forms free of cancellation,
so its smallest eigenvalue comes to relative accuracy from GTH elimination
(Grassmann, Taksar and Heyman 1985) and inverse iteration, in which every
operation adds, multiplies or divides nonnegative numbers, with a
Collatz-Wielandt bracket around it.  The dense matrix-exponential decay fit
is kept as the independent cross-check: a degree-13 Pade step (Higham 2005)
on the scaled generator, then squarings with numpy's ``@`` with entries
below 2^-500 flushed to zero, so the fit does not run on subnormal numbers.
None of these routes needs scipy, and no module loads it.  The general
routes (the dense
(T+1)^2 x (T+1)^2 superoperator, a least-squares null vector, the pure-loss
sectors, scipy's ``eigh_tridiagonal`` and ``expm``) live in the tests, which
hold the sectors, the stationary state, the eigenvalue and the propagator to
them.

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
from .fock import log_factorials

__all__ = [
    "LaserParams",
    "LiouvillianSector",
    "poisson_weights",
    "build_liouvillian_sector",
    "stationary_state",
    "extract_linewidth",
    "linewidth_bracket",
    "sql_linewidth",
    "hl_linewidth",
]

# linewidth method -> the route that does its numerical work
LINEWIDTH_METHODS = {"eigenvalue": "gth_inverse_iteration", "decay_fit": "pade13_squaring"}
# decay-fit propagator: the 1-norm up to which the degree-13 Pade step needs
# no squaring (Al-Mohy and Higham 2009), and the flush threshold
THETA_13 = 5.371920351148152
FLUSH_BELOW = 2.0 ** -500
# numerator coefficients b_0 .. b_13 of the degree-13 Pade approximant to
# exp (Higham 2005); the denominator's are the same with odd ones negated
PADE_13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
           33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)
# inverse iterations allowed before the linewidth bracket must have converged
MAX_INVERSE_ITERATIONS = 200


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
    n = np.arange(truncation + 1)
    return np.exp(-mu + n * np.log(mu) - log_factorials(truncation))


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
        spectrum is Lorentzian with FWHM ell.  The midpoint of
        :func:`linewidth_bracket`, which reaches relative accuracy at every
        mu from the sector's three diagonals alone, in O(T) memory.
    method="decay_fit"
        Evolve X(0) = a rho_ss under the k=1 generator by repeated
        application of one dense short-time propagator U = exp(L1 dt), and
        fit the exponential decay rate r of |Tr(a^dag X(t))| over two slow
        e-folds; ell = 2 r.  The fit starts at the first multiple of dt at
        or after 8/kappa, once the fast transients have died.  An
        independent cross-check of the eigenvalue route.  U comes from
        :func:`_propagator` (a degree-13 Pade step and squarings with
        numpy's ``@``, entries below 2^-500 flushed before each, so the
        early squarings do not run on thousands of subnormal numbers at
        T ~ 400), and it is applied with ``@`` (real arithmetic
        throughout).  X(0) is built from the populations of
        :func:`stationary_state`.

    Raises
    ------
    LinewidthFitError
        If the decay-fit residual shows the decay is not exponential, the
        eigenvalue bracket does not converge, or either route gives a
        linewidth that is not positive.
    """
    if method not in LINEWIDTH_METHODS:
        raise ValueError(f"method must be one of {tuple(LINEWIDTH_METHODS)}")
    if method == "eigenvalue":
        lo, hi = linewidth_bracket(params, truncation)
        ell = (lo + hi) / 2.0
    else:
        A = build_liouvillian_sector(params, 1, truncation).matrix
        # X(0) = a rho_ss in the k=1 sector; w are the weights of Tr(a^dag X)
        w = np.sqrt(np.arange(1.0, truncation + 1))
        x = w * stationary_state(params, truncation)[1:]
        # fast transients decay at O(kappa), by t = 8/kappa; the slow mode at
        # ~kappa/(8 mu), sampled over t_span = 16 mu/kappa in nsteps steps
        nsteps = 60
        dt = 16.0 * params.mu / params.kappa / nsteps
        # first multiple of dt at or after 8/kappa: (8/kappa)/dt = 30/mu exactly
        skip = math.ceil(30.0 / params.mu)
        A *= dt  # L1 dt in place, so L1 is not kept beside it
        U = _propagator(A)
        del A
        for _ in range(skip):
            x = U @ x
        ts = dt * np.arange(skip, skip + nsteps + 1)
        g = np.empty(nsteps + 1)
        for i in range(nsteps + 1):
            g[i] = np.abs(w @ x)
            x = U @ x
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


def linewidth_bracket(params: LaserParams, truncation: int) -> tuple[float, float]:
    """Bracket (lo, hi), in rad/s, around the linewidth ell = -2 lambda_1 of
    the k=1 sector, lambda_1 its eigenvalue closest to zero.

    B = -L1^T is a tridiagonal M-matrix of order T = truncation: row i has
    -kappa sqrt(i (i+1)) left of the diagonal, -kappa mu right of it (none in
    the top row) and row sum leak_i, the defect of column i of L1,

        leak_i = kappa (i + 1/2 - sqrt(i (i+1))) = kappa / (4 (i + 1/2 + sqrt(i (i+1)))),

    plus kappa mu / 2 in the top row, whose gain is truncated.  The second
    form has no cancellation.  GTH elimination (Grassmann, Taksar and Heyman,
    Oper. Res. 33 (1985) 1107) carries each Schur complement's row sum in
    place of its diagonal, so the LU factors of B come from sums, products
    and quotients of nonnegative numbers, and so do the solves with them, as
    B^{-1} >= 0: nothing cancels.  Inverse iteration from x = 1 converges to
    the Perron vector of B^{-1}, and for every positive x the smallest
    eigenvalue sigma = -lambda_1 of B lies between the least and the largest
    x_i / (B^{-1} x)_i (Collatz-Wielandt).  The iteration stops once that
    bracket stops narrowing; each side of 2 sigma is then widened by T eps,
    one eps per row of the recurrences, for their rounding.  The bracket
    needs O(T) memory; the dense sector is never built.

    Raises
    ------
    LinewidthFitError
        If the bracket is still wider than that allowance when it stops
        narrowing, or after ``MAX_INVERSE_ITERATIONS`` inverse iterations.
    ValueError
        If the truncation leaves stationary tail mass above 1e-9.
    """
    sub, _, sup = _sector_diagonals(params, 1, truncation)
    i = np.arange(truncation, dtype=float)
    leak = params.kappa / (4.0 * (i + 0.5 + np.sqrt(i * (i + 1.0))))
    leak[-1] += params.kappa * params.mu / 2.0
    leak, right = leak.tolist(), sub.tolist() + [0.0]
    # B = L U, L unit lower bidiagonal with L[i, i-1] = -mult[i], U upper
    # bidiagonal with U[i, i] = pivot[i] and U[i, i+1] = -right[i]
    carried = leak[0]
    mult, pivot = [0.0], [carried + right[0]]
    for left, row, r in zip(sup.tolist(), leak[1:], right[1:]):
        m = left / pivot[-1]
        carried = row + m * carried
        mult.append(m)
        pivot.append(carried + r)
    back = list(zip(reversed(right), reversed(pivot)))
    x, best = [1.0] * truncation, None
    for _ in range(MAX_INVERSE_ITERATIONS):
        acc, z = 0.0, []
        for xi, m in zip(x, mult):
            acc = xi + m * acc
            z.append(acc)
        acc, y = 0.0, []
        for zi, (r, p) in zip(reversed(z), back):
            acc = (zi + r * acc) / p
            y.append(acc)
        y.reverse()
        ratios = [xi / yi for xi, yi in zip(x, y)]
        lo, hi = min(ratios), max(ratios)
        if best is not None and hi - lo >= best[1] - best[0]:
            break
        best = lo, hi
        x = [yi * lo for yi in y]
    lo, hi = best
    allowance = truncation * math.ulp(1.0)
    if hi - lo > allowance * lo:
        raise LinewidthFitError(
            f"inverse iteration left the linewidth bracket {(hi - lo) / lo:.2e} wide, "
            f"relative, above T eps = {allowance:.2e}"
        )
    return 2.0 * lo * (1.0 - allowance), 2.0 * hi * (1.0 + allowance)


def _pade13(A: np.ndarray) -> np.ndarray:
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
    del A2, A4, A6
    Q = V - U
    V += U
    del U
    return np.linalg.solve(Q, V)


def _propagator(A: np.ndarray) -> np.ndarray:
    """exp(A) for the real k=1 generator times dt.

    :func:`_pade13` on A / 2^s, with s = ceil(log2(||A||_1 / THETA_13)); the
    s squarings then run through numpy's ``@``, each into one spare buffer,
    so the squarings hold two T x T arrays.  Before each squaring, entries
    below FLUSH_BELOW in magnitude are set to zero, found without a T x T
    copy of the magnitudes.  exp(L1 t) is entrywise nonnegative with column
    sums at most 1 (L1 has nonnegative off-diagonals and nonpositive column
    sums), so a dropped product is below 2^-500 against entries of order 1;
    the tests find the squared propagator bitwise unchanged.
    """
    s = max(0, math.ceil(math.log2(np.linalg.norm(A, 1) / THETA_13)))
    U = _pade13(A / 2.0 ** s)
    V = np.empty_like(U)
    for _ in range(s):
        U[(U < FLUSH_BELOW) & (U > -FLUSH_BELOW)] = 0.0
        # square into the spare buffer, which then holds U; the old U is the
        # next spare
        U, V = np.matmul(U, U, out=V), U
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

