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

Each quantity takes its structured route, on numpy alone, from the sector's
three diagonals in O(T) memory.  The stationary state is the Poisson closed
form (detailed balance of the k = 0 chain); it is diagonal, so
:func:`stationary_state` returns its populations.  The negated, transposed
k = 1 sector B = -L1^T is a tridiagonal M-matrix whose row sums (the column
defects of L1) have closed forms free of cancellation.  One GTH elimination
(Grassmann, Taksar and Heyman 1985) factors z + B, the shift z added to
every row sum, and one solve applies the factors; both routes use them.
The smallest eigenvalue of B comes to relative accuracy from inverse
iteration at z = 0, in which every operation adds, multiplies or divides
nonnegative numbers, with a Collatz-Wielandt bracket around it.  The
independent decay fit samples the coherence w . exp(t L1) x as a Bromwich
integral on one hyperbolic contour (Weideman and Trefethen 2007): 61
shifted systems (z_k + B) y_k = w, factored together and solved once,
give s_k = x . y_k = w . (z_k - L1)^{-1} x and serve all 61 sample times.
Its truncation error is at most 2.6e-15 of the coherence's start value,
and every pivot stays in the cone spanned by 1 and z_k, so the
elimination needs no pivoting.  None of these routes needs scipy, and no
module loads it.  The general routes (the dense (T+1)^2 x (T+1)^2
superoperator, a least-squares null vector, the pure-loss sectors, scipy's
``eigh_tridiagonal`` and ``expm``, and a dense Pade propagator) live in the
tests, which hold the sectors, the stationary state, the eigenvalue, the
resolvent solves and the decay fit to them.

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
LINEWIDTH_METHODS = {"eigenvalue": "gth_inverse_iteration",
                     "decay_fit": "hyperbolic_contour_gth"}
# decay-fit contour z(u) = MU (1 + sin(i u - ALPHA)) / t0, sampled at u = k H
# for k = 0 .. N (Weideman and Trefethen 2007); serves t / t0 in [1, 61]
CONTOUR_N, CONTOUR_ALPHA, CONTOUR_H, CONTOUR_MU = 60, 1.05, 4.9 / 60, 0.494
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
    """Generator restricted to the elements x_n = rho_{n, n+k} for fixed k,
    held as its three diagonals: ``diag[n]`` is the rate (1/s) at which x_n
    feeds dx_n/dt, ``sub[n]`` the rate at which x_n feeds dx_{n+1}/dt and
    ``sup[n]`` the rate at which x_{n+1} feeds dx_n/dt."""

    sector_offset: int
    sub: np.ndarray
    diag: np.ndarray
    sup: np.ndarray

    @property
    def matrix(self) -> np.ndarray:
        """Dense view built on demand: ``matrix[i, j]`` is the rate (1/s) at
        which x_j feeds dx_i/dt."""
        L = np.diag(self.diag)
        np.fill_diagonal(L[:, 1:], self.sup)
        np.fill_diagonal(L[1:], self.sub)
        return L


def poisson_weights(mu: float, truncation: int) -> np.ndarray:
    """Poisson(mu) probabilities for n = 0 .. truncation (log-space, unnormalized tail)."""
    n = np.arange(truncation + 1)
    return np.exp(-mu + n * np.log(mu) - log_factorials(truncation))


def _check_truncation(params: LaserParams, truncation: int) -> None:
    if truncation < 2:
        raise ValueError("truncation must be >= 2")
    # the cap stays until a size budget, refused before compute, replaces it
    # (ROADMAP item 5); no linewidth route needs dense storage
    if truncation > 512:
        raise ValueError("truncation is capped at 512")
    tail = 1.0 - float(poisson_weights(params.mu, truncation).sum())
    if tail > 1e-9:
        raise ValueError(
            f"truncation {truncation} too small: stationary tail mass {tail:.2e} > 1e-9"
        )


def build_liouvillian_sector(params: LaserParams, sector_offset: int,
                             truncation: int) -> LiouvillianSector:
    """Build the sector-k generator for x_n = rho_{n, n+k}, in the rotating frame.

    Loss contributes kappa * [sqrt((n+1)(n+k+1)) x_{n+1} - (n + k/2) x_n].
    The noiseless gain, written as a dissipator of the raising isometry
    truncated at the top state (which keeps every sector exactly
    trace-consistent), contributes kappa*mu * [x_{n-1} - x_n] away from the
    boundary.  No term carries a phase in the rotating frame, so the sector
    is real (``float``) and tridiagonal; it is returned as its diagonals.

    Raises
    ------
    ValueError
        If the truncation leaves stationary tail mass above 1e-9.
    """
    k = int(sector_offset)
    if k < 0 or k > truncation:
        raise ValueError("sector_offset must be in [0, truncation]")
    _check_truncation(params, truncation)
    kappa, mu = params.kappa, params.mu
    n = np.arange(truncation - k + 1)
    # loss kappa (a rho a^dag - {a^dag a, rho}/2); gain kappa*mu, truncated
    # at the top state
    sup = kappa * np.sqrt((n[:-1] + 1.0) * (n[:-1] + k + 1.0))
    diag = -kappa * (n + k / 2.0) - kappa * mu * ((n <= truncation - 1).astype(float)
                                                   + (n + k <= truncation - 1).astype(float)) / 2.0
    return LiouvillianSector(k, np.full(len(n) - 1, kappa * mu), diag, sup)


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
        Fit the exponential decay rate r of the coherence g(t) =
        |Tr(a^dag X(t))|, X(0) = a rho_ss evolved under the k=1 generator,
        over two slow e-folds; ell = 2 r.  An independent cross-check of the
        eigenvalue route.  The 61 samples t_i = (skip + i) dt, i = 0 .. 60,
        dt = 16 mu / (60 kappa), start at t0 = skip dt, the first multiple
        of dt at or after 8/kappa, once the fast transients have died.  They
        come from :func:`_coherence`, one hyperbolic contour serving every
        t_i / t0 in [1, 61] with 61 shifted tridiagonal systems, factored
        and solved together in O(T) memory per node, whose docstring
        derives the error bounds: a truncation error of at most
        2.6e-15 of g(0), and solves that never break down without pivoting,
        each pivot lying in the cone spanned by 1 and the node.  X(0) is
        built from the populations of :func:`stationary_state`.

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
        # fast transients decay at O(kappa), by t = 8/kappa; the slow mode at
        # ~kappa/(8 mu), sampled over t_span = 16 mu/kappa in nsteps steps
        nsteps = 60
        dt = 16.0 * params.mu / params.kappa / nsteps
        # first multiple of dt at or after 8/kappa: (8/kappa)/dt = 30/mu exactly
        skip = math.ceil(30.0 / params.mu)
        ts = dt * np.arange(skip, skip + nsteps + 1)
        log_g = np.log(_coherence(params, truncation, ts))
        slope, intercept = np.polyfit(ts, log_g, 1)
        resid = np.max(np.abs(log_g - (slope * ts + intercept)))
        if resid > 1e-3:
            raise LinewidthFitError(
                f"coherence decay not exponential: max log-residual {resid:.2e} > 1e-3"
            )
        ell = float(-2.0 * slope)
    if not ell > 0:
        raise LinewidthFitError(f"{method} linewidth {ell:.3e} rad/s is not positive")
    return ell


def _contour() -> tuple[np.ndarray, np.ndarray]:
    """Nodes z_k and weights W_k, k = 0 .. N, of the decay fit's contour at
    t0 = 1: e^{lambda tau} ~ Re sum_k W_k e^{z_k tau} / (z_k - lambda)."""
    u = CONTOUR_H * np.arange(CONTOUR_N + 1)
    z = CONTOUR_MU * (1.0 + np.sin(1j * u - CONTOUR_ALPHA))
    weight = CONTOUR_H * CONTOUR_MU / np.pi * np.cos(1j * u - CONTOUR_ALPHA)
    weight[0] /= 2.0
    return z, weight


def _coherence(params: LaserParams, truncation: int, ts: np.ndarray) -> np.ndarray:
    """The coherence g(t) = |w . exp(t L1) x| at the times ts, which must lie
    in [t0, 61 t0] with t0 = ts[0]; w_n = sqrt(n+1) and x = w p[1:], so that
    w . x = Tr(a^dag a rho_ss).

    **Quadrature.**  For every eigenvalue lambda <= 0 of L1 (real: L1 is
    diagonally similar to a symmetric S, L1 = D S D^{-1}),
    e^{lambda t} = (1/2 pi i) int e^{z t} / (z - lambda) dz along the
    hyperbola z(u) = mu (1 + sin(i u - alpha)) / t0, u real, which crosses
    the real axis at mu (1 - sin alpha) / t0 > 0 and opens to the left with
    asymptotes at pi/2 - alpha from the negative real axis.  Its conjugate
    halves pair up, so the trapezoid rule with step h truncated at |k| <= N
    reads Q(lambda, tau) = Re sum_{k=0}^N W_k e^{z_k tau} / (z_k - lambda t0),
    tau = t / t0, with z_k, W_k from :func:`_contour`.  With
    |cos(iu - alpha)| <= cosh u and |z - lambda| >= |Im z| = mu sinh u
    cos alpha, every dropped term is at most
    (h / pi) coth(u) sec(alpha) e^{mu tau (1 - sin(alpha) cosh u)}, largest at
    tau = 1: the truncation error is at most 2.6e-15 for alpha = 1.05,
    h = 4.9/60, mu = 0.494, N = 60.  The discretization errors fall like
    e^{-2 pi (pi/2 - alpha) / h} ~ 4e-18 and e^{mu Lambda - 2 pi alpha / h} ~
    1e-22 at Lambda = 61 (Weideman and Trefethen, Math. Comp. 76 (2007)
    1341), far below it.  Forming the terms and their sum in floating point
    adds at most (N + 4 + |z_k| (tau + 1 / |z_k - lambda t0|)) u times each
    term's modulus, u = eps / 2.  With the eigenvector expansion of S, g
    errs by at most that scalar error times ||D w||_2 ||D^{-1} x||_2, which
    is about g(0) = w . x.

    **Solves.**  z - L1 = (z + B)^T with B = -L1^T, so
    s_k = w . (z_k - L1)^{-1} x = x . y_k with (z_k + B) y_k = w: one GTH
    factorization of z_k + B for all nodes at once (:func:`_eliminate`)
    and one forward and one backward sweep over the T rows
    (:func:`_solve`), in O(T) memory per node.  Every carried row sum and
    pivot lies in the cone spanned by 1 and z_k, of opening
    theta = |arg z_k| <= pi/2 + alpha on this hyperbola, so the elimination
    needs no pivoting, no sum cancels by more than sec(theta/2) <= 3.9, and
    at the real node z_0 > 0 every term is positive.  With each complex
    operation rounding by at most 6 u and |m_i c_{i-1}| <= sec(theta/2)
    left_i, the computed y solves (z + B + E) y = w with, to first order,
    |E| <= c_theta u |z + B| entrywise, c_theta = sec(theta/2)
    (42 + 66 sec(theta/2)): 18 u (1 + sec) sec from the factors' diagonal,
    24 u (1 + 2 sec) sec from the two bidiagonal solves.  An entrywise
    bound is kept by the similarity B = -D^{-1} S D, and
    ||(z - S)^{-1}||_2 = 1 / dist(z, (-inf, 0]), so s_k errs by at most
    c_theta u (|z_k| + ||S||_1) / dist(z_k, (-inf, 0])^2 times
    ||D w||_2 ||D^{-1} x||_2: the same bound as for the transposed solve
    (z_k - L1) y = x, with D w and D^{-1} x trading places.  The tests hold
    both bounds.  They are loose:
    against the same recurrences in x86 ``clongdouble`` the samples agree to
    3.4e-14 relative from mu = 4 to 256.
    """
    z, weight = _contour()
    tau = ts / ts[0]
    s = _resolvent_products(params, truncation, z / ts[0])
    return np.abs((np.exp(np.outer(tau, z)) @ (weight * s)).real) / ts[0]


def _resolvent_products(params: LaserParams, truncation: int, z: np.ndarray) -> np.ndarray:
    """x . (z_k + B)^{-1} w, the w . (z_k - L1)^{-1} x of :func:`_coherence`,
    for each shift z_k: one factorization of z + B for every shift at once
    and one solve."""
    w = np.sqrt(np.arange(1.0, truncation + 1))
    x = w * stationary_state(params, truncation)[1:]
    y = _solve(_eliminate(params, truncation, z), w.tolist())
    # not x @ y: numpy's complex matrix-vector product took 8 ms here, at
    # every T from 99 up (2-vCPU VM, numpy 2.4.6 on OpenBLAS 0.3.31)
    return np.einsum("i,ik->k", x, y)


def _eliminate(params: LaserParams, truncation: int, z):
    """GTH factors of z + B, B = -L1^T, for a shift z that is a float or an
    array of shifts: the multipliers m_i and the pivots p_i (arrays with one
    row per sector row) and the right neighbours right_i (a list), so that
    z + B = L U with L unit lower bidiagonal, L[i, i-1] = -m_i, and U upper
    bidiagonal, U[i, i] = p_i, U[i, i+1] = -right_i.  It is the only reader
    of the k = 1 sector's rows.

    B is a tridiagonal M-matrix of order T = truncation: row i has
    -left_i = -kappa sqrt(i (i+1)) left of the diagonal, -right_i =
    -kappa mu right of it (none in the top row) and row sum leak_i, the
    defect of column i of L1,

        leak_i = kappa (i + 1/2 - sqrt(i (i+1))) = kappa / (4 (i + 1/2 + sqrt(i (i+1)))),

    plus kappa mu / 2 in the top row, whose gain is truncated.  The second
    form has no cancellation.  GTH elimination (Grassmann, Taksar and Heyman,
    Oper. Res. 33 (1985) 1107) carries each Schur complement's row sum c_i
    in place of its diagonal: c_i = z + leak_i + m_i c_{i-1},
    p_i = c_i + right_i, m_i = left_i / p_{i-1}, so the shift is added to
    row sums of order kappa, never to diagonals of order kappa (T + mu).

    **No pivoting.**  For real z >= 0 every operation adds, multiplies or
    divides nonnegative numbers, and so do the solves of :func:`_solve`, as
    (z + B)^{-1} >= 0: nothing cancels.  For complex z, let C be the convex
    cone spanned by 1 and z, of opening theta = |arg z| < pi.  If c_{i-1} is
    in C, so is p_{i-1}, with arg between 0 and arg c_{i-1}, hence so is
    m_i c_{i-1}, and so c_i: every c_i and p_i lies in C.  Numbers in C add
    with |sum a| >= cos(theta/2) sum |a|, so |p_i| >= cos(theta/2)
    (|z| + leak_i + right_i) > 0: the elimination never breaks down, no sum
    cancels by more than sec(theta/2), and |m_i c_{i-1}| <= sec(theta/2)
    left_i.

    Raises
    ------
    ValueError
        If the truncation leaves stationary tail mass above 1e-9.
    """
    sector = build_liouvillian_sector(params, 1, truncation)
    n = np.arange(truncation, dtype=float)
    leak = (params.kappa / (4.0 * (n + 0.5 + np.sqrt(n * (n + 1.0))))).tolist()
    leak[-1] += params.kappa * params.mu / 2.0
    left, right = sector.sup.tolist(), sector.sub.tolist() + [0.0]
    mult, pivot = np.zeros((2, truncation) + np.shape(z), np.result_type(z, 1.0))
    carried = z + leak[0]
    pivot[0] = carried + right[0]
    for i in range(1, truncation):
        mult[i] = left[i - 1] / pivot[i - 1]
        carried = z + leak[i] + mult[i] * carried
        pivot[i] = carried + right[i]
    return mult, pivot, right


def _solve(factors, b) -> list:
    """(z + B)^{-1} b as a list of rows, from the factors of
    :func:`_eliminate`: the forward sweep solves L v = b, the backward sweep
    overwrites v with U^{-1} v.  A row of b or of the factors is a float or
    an array over the shifts."""
    mult, pivot, right = factors
    acc, y = 0.0, []
    for bi, m in zip(b, mult):
        acc = bi + m * acc
        y.append(acc)
    acc = 0.0
    for i in range(len(y) - 1, -1, -1):
        acc = y[i] = (y[i] + right[i] * acc) / pivot[i]
    return y


def linewidth_bracket(params: LaserParams, truncation: int) -> tuple[float, float]:
    """Bracket (lo, hi), in rad/s, around the linewidth ell = -2 lambda_1 of
    the k=1 sector, lambda_1 its eigenvalue closest to zero.

    B = -L1^T is a tridiagonal M-matrix of order T = truncation, factored
    once by GTH elimination (:func:`_eliminate` at z = 0), whose factors and
    solves add, multiply and divide nonnegative numbers only.  Inverse
    iteration from x = 1 converges to the Perron vector of B^{-1}, and for
    every positive x the smallest eigenvalue sigma = -lambda_1 of B lies
    between the least and the largest x_i / (B^{-1} x)_i
    (Collatz-Wielandt).  The iteration stops once that bracket stops
    narrowing; each side of 2 sigma is then widened by T eps, one eps per
    row of the recurrences, for their rounding.  The bracket needs O(T)
    memory; the dense sector is never built.

    Raises
    ------
    LinewidthFitError
        If the bracket is still wider than that allowance when it stops
        narrowing, or after ``MAX_INVERSE_ITERATIONS`` inverse iterations.
    ValueError
        If the truncation leaves stationary tail mass above 1e-9.
    """
    mult, pivot, right = _eliminate(params, truncation, 0.0)
    # Python floats: the solves run about twice as fast as on numpy scalars
    factors = mult.tolist(), pivot.tolist(), right
    x, best = np.ones(truncation), None
    for _ in range(MAX_INVERSE_ITERATIONS):
        y = np.array(_solve(factors, x.tolist()))
        ratios = x / y
        lo, hi = float(ratios.min()), float(ratios.max())
        if best is not None and hi - lo >= best[1] - best[0]:
            break
        best = lo, hi
        x = y * lo
    lo, hi = best
    allowance = truncation * math.ulp(1.0)
    if hi - lo > allowance * lo:
        raise LinewidthFitError(
            f"inverse iteration left the linewidth bracket {(hi - lo) / lo:.2e} wide, "
            f"relative, above T eps = {allowance:.2e}"
        )
    return 2.0 * lo * (1.0 - allowance), 2.0 * hi * (1.0 + allowance)


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

