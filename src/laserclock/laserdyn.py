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

Each quantity takes its structured route, on numpy alone, in O(T) memory:
no sector is built, and the k = 1 rows come from their closed forms.  The
stationary state is the Poisson closed form (detailed balance of the k = 0
chain); it is diagonal, so :func:`stationary_state` returns its
populations.  The negated, transposed k = 1 sector B = -L1^T is a
tridiagonal M-matrix whose row sums (the column defects of L1) have closed
forms free of cancellation.  One GTH elimination
(Grassmann, Taksar and Heyman 1985) of z + B, the shift z added to every
row sum, yields its rows one at a time, and both routes consume it.  The
smallest eigenvalue of B comes to relative accuracy from inverse iteration
at z = 0, which keeps the rows and in which every operation adds,
multiplies or divides nonnegative numbers, with a Collatz-Wielandt bracket
around it.  The independent decay fit samples the coherence
w . exp(t L1) x as a Bromwich integral on one hyperbolic contour (Weideman
and Trefethen 2007): the 61 shifted systems (z_k + B) y_k = w are
eliminated together in one pass that also solves them and sums
s_k = x . y_k = w . (z_k - L1)^{-1} x, keeping no row, and the s_k serve
all 61 sample times.  Its truncation error is at most 2.6e-15 of the
coherence's start value, and every pivot stays in the cone spanned by 1
and z_k, so the elimination needs no pivoting.  Both routes take O(T)
memory and time; :func:`checked_weights`, the one check of every route,
refuses a truncation above ``ROW_BUDGET`` rows before any of it is spent.
None of these routes needs scipy, and no module loads it.  The general
routes (the sector builder for any offset k with its dense view, the dense
(T+1)^2 x (T+1)^2 superoperator, a least-squares null vector, the pure-loss
sectors, scipy's ``eigh_tridiagonal`` and ``expm``, and a dense Pade
propagator) live in the tests, which hold the k = 1 rows, the stationary
state, the eigenvalue, the resolvent solves and the decay fit to them.

Everything is computed in the frame rotating at the optical frequency, so
the optical frequency never enters: the lab-frame term -i omega [a^dag a, rho]
would only shift sector-k eigenvalues by -i omega k, leaving every decay rate
unchanged.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import LinewidthFitError
from .fock import log_factorials

__all__ = [
    "LaserParams",
    "poisson_weights",
    "checked_weights",
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
# largest truncation, in rows of the k = 1 sector, that the linewidth routes
# accept, reached from mu = 127491.  Each row costs about 2 us in a bracket,
# 8 us in a decay fit and 300 B; a `linewidth` run at the top (two brackets,
# one fit) took 1.6 s and 69 MiB max RSS, with a tail mass of 5.3e-11
ROW_BUDGET = 2 ** 17
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


def poisson_weights(mu: float, truncation: int) -> np.ndarray:
    """Poisson(mu) probabilities for n = 0 .. truncation (log-space, unnormalized tail)."""
    n = np.arange(truncation + 1)
    return np.exp(-mu + n * np.log(mu) - log_factorials(truncation))


def checked_weights(params: LaserParams, truncation: int) -> np.ndarray:
    """The Poisson weights over 0 .. truncation, once the truncation is
    checked against the row budget and their tail mass 1 - sum p against
    1e-9: the one check of every linewidth route and of the CLI.

    Up to the top of the budget (mu = 127491) the true tail is below 1e-12,
    so the tail read there is the weights' own rounding, which grows like
    mu log mu and may be negative: -5.8e-11 at mu = 1e5, +5.3e-11 at
    mu = 127491.  Loader's saddle-point form of the weights would remove
    that rounding.

    Raises
    ------
    ValueError
        If the truncation is outside 2 .. ``ROW_BUDGET`` or leaves
        stationary tail mass above 1e-9.
    """
    # the row budget, before any weight is formed: the linewidth routes take
    # O(T) time and memory, so a row count bounds both (see ROW_BUDGET)
    if not 2 <= truncation <= ROW_BUDGET:
        raise ValueError(f"truncation {truncation} is outside 2 .. {ROW_BUDGET}, the row budget")
    p = poisson_weights(params.mu, truncation)
    tail = 1.0 - float(p.sum())
    if tail > 1e-9:
        raise ValueError(
            f"truncation {truncation} too small: stationary tail mass {tail:.2e} > 1e-9"
        )
    return p


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
        If the truncation is outside 2 .. ``ROW_BUDGET`` or leaves
        stationary tail mass above 1e-9.
    """
    p = checked_weights(params, truncation)
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
        over two slow e-folds; ell = 2 r, -r the least-squares slope of
        log g against t, in closed form about the samples' centroid (its two
        sums are numpy's pairwise reductions, not BLAS dots).  An independent
        cross-check of the eigenvalue route.  The 61 samples
        t_i = (skip + i) dt, i = 0 .. 60, dt = 16 mu / (60 kappa), start at
        t0 = skip dt, the first multiple of dt at or after 8/kappa, once the
        fast transients have died.  They come from :func:`_coherence`, one
        hyperbolic contour serving every t_i / t0 in [1, 61] with 61 shifted
        tridiagonal systems, eliminated and solved together in one pass over
        the rows in O(T) memory, whose docstring derives the error bounds: a
        truncation error of at most 2.6e-15 of g(0), and solves that never
        break down without pivoting, each pivot lying in the cone spanned by
        1 and the node.  X(0) is built from the populations of
        :func:`stationary_state`.

    Raises
    ------
    LinewidthFitError
        If the decay-fit residual shows the decay is not exponential, the
        eigenvalue bracket does not converge, or either route gives a
        linewidth that is not positive.
    ValueError
        If the method is unknown, or the truncation is outside
        2 .. ``ROW_BUDGET`` or leaves stationary tail mass above 1e-9.
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
        # the least-squares line in closed form about the centroid
        log_g = np.log(_coherence(params, truncation, ts))
        tc = ts - ts.mean()
        log_g -= log_g.mean()
        slope = float(np.sum(tc * log_g)) / float(np.sum(np.square(tc)))
        resid = np.max(np.abs(log_g - slope * tc))
        if resid > 1e-3:
            raise LinewidthFitError(
                f"coherence decay not exponential: max log-residual {resid:.2e} > 1e-3"
            )
        ell = -2.0 * slope
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
    is about g(0) = w . x.  The sum over k is numpy's pairwise reduction
    along each row of the terms, not a BLAS matrix-vector product, so its
    order does not depend on the BLAS library; the bound above, written for
    a sum in any order, holds for it.

    **Solves.**  z - L1 = (z + B)^T with B = -L1^T, so
    s_k = w . (z_k - L1)^{-1} x = x . (z_k + B)^{-1} w.  With z_k + B = L U
    from the GTH elimination (:func:`_eliminate`), s_k = u . v with
    v = L^{-1} w and u = U^{-T} x.  U^T is lower bidiagonal, the pivots p_i
    on its diagonal and -right_{i-1} below it, so both triangular solves run
    forward, row by row beside the elimination, and the sum over the rows
    is taken as they go (:func:`_resolvent_products`): one pass for all
    nodes at once, keeping no row, in O(T) memory.  Every carried row sum
    and pivot lies in the cone spanned by 1 and z_k, of opening
    theta = |arg z_k| <= pi/2 + alpha on this hyperbola, so the elimination
    needs no pivoting, no sum cancels by more than sec(theta/2) <= 3.9, and
    at the real node z_0 > 0 every term is positive.  With each complex
    operation rounding by at most 6 u and |m_i c_{i-1}| <= sec(theta/2)
    left_i, the computed factors, v and u give u . v = x . (z + B + E)^{-1} w
    with, to first order, |E| <= c_theta u |z + B| entrywise,
    c_theta = sec(theta/2) (42 + 66 sec(theta/2)): 18 u (1 + sec) sec from
    the factors' diagonal, 24 u (1 + 2 sec) sec from the two bidiagonal
    solves, (L + F) v = w and (U + G)^T u = x.  A row of the solve with U^T,
    u_i = (x_i + right_{i-1} u_{i-1}) / p_i, takes the operations of a row
    of a backward sweep with U, so G is bounded as it would be there.  The
    sum over the rows adds at most (T + 2) u sum_i |u_i v_i| (Higham 2002,
    sec. 3.1 and 3.6); at z_0 every term is positive, and sum_i |u_i v_i|
    was at most 5.1 |s_k| at every node from mu = 4 to 4096.  An entrywise
    bound is kept by the similarity B = -D^{-1} S D, and
    ||(z - S)^{-1}||_2 = 1 / dist(z, (-inf, 0]), so s_k errs by at most
    c_theta u (|z_k| + ||S||_1) / dist(z_k, (-inf, 0])^2 times
    ||D w||_2 ||D^{-1} x||_2, plus the sum's term: the same bound as for
    the transposed solve (z_k - L1) y = x, with D w and D^{-1} x trading
    places.  The tests hold the samples and each s_k to these bounds with
    the sum's term left out.  They are loose: against the same recurrences
    in x86 ``clongdouble`` the samples agree to 2.2e-14 relative from
    mu = 4 to 256.
    """
    z, weight = _contour()
    tau = ts / ts[0]
    s = _resolvent_products(params, truncation, z / ts[0])
    return np.abs((np.exp(np.outer(tau, z)) * (weight * s)).sum(axis=1).real) / ts[0]


def _resolvent_products(params: LaserParams, truncation: int, z: np.ndarray) -> np.ndarray:
    """x . (z_k + B)^{-1} w, the w . (z_k - L1)^{-1} x of :func:`_coherence`,
    for each shift z_k, in one pass over the rows of the elimination of
    z + B = L U for every shift at once (:func:`_eliminate`): beside it run
    v = L^{-1} w and u = U^{-T} x, both forward, and s = sum_i u_i v_i =
    x . U^{-1} L^{-1} w.  No factor or solution row is kept."""
    rho = stationary_state(params, truncation)  # checks the truncation first
    w = np.sqrt(np.arange(1.0, truncation + 1))
    x = (w * rho[1:]).tolist()
    v = u = s = above = 0.0
    for wi, xi, (m, p, right) in zip(w.tolist(), x, _eliminate(params, truncation, z)):
        v = wi + m * v
        u = (xi + above * u) / p
        s += u * v
        above = right
    return s


def _eliminate(params: LaserParams, truncation: int, z):
    """GTH elimination of z + B, B = -L1^T, for a shift z that is a float or
    an array of shifts, yielding one row (m_i, p_i, right_i) at a time: the
    multiplier, the pivot and the right neighbour, so that z + B = L U with
    L unit lower bidiagonal, L[i, i-1] = -m_i (m_0 = 0), and U upper
    bidiagonal, U[i, i] = p_i, U[i, i+1] = -right_i.  Rows are yielded as
    they are formed, so a caller keeps only what it needs of them.  It is
    the only reader of the k = 1 sector's rows, and it forms them from their
    closed forms; the general sector builder is a test route
    (tests/oracles.py), and the tests hold these rows bitwise to a GTH pass
    over it.  The
    truncation is not checked here: each caller checks it first
    (:func:`checked_weights`).

    B is a tridiagonal M-matrix of order T = truncation: with
    root_i = sqrt(i (i+1)), row i has -left_i = -kappa root_i left of the
    diagonal (left_0 = 0), -right_i = -kappa mu right of it (0 in the top
    row) and row sum leak_i, the defect of column i of L1,

        leak_i = kappa (i + 1/2 - root_i) = kappa / (4 (i + 1/2 + root_i)),

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
    """
    n = np.arange(truncation, dtype=float)
    root = np.sqrt(n * (n + 1.0))
    leak = (params.kappa / (4.0 * (n + 0.5 + root))).tolist()
    leak[-1] += params.kappa * params.mu / 2.0
    right = [params.kappa * params.mu] * (truncation - 1) + [0.0]
    carried, pivot = 0.0, 1.0
    for leak_i, left_i, right_i in zip(leak, (params.kappa * root).tolist(), right):
        mult = left_i / pivot
        carried = z + leak_i + mult * carried
        pivot = carried + right_i
        yield mult, pivot, right_i


def _solve(mult, pivot, right, b) -> list:
    """(z + B)^{-1} b as a list of floats, from the real factors of
    :func:`_eliminate` held as three sequences: the forward sweep solves
    L v = b, the backward sweep overwrites v with U^{-1} v."""
    acc, y = 0.0, []
    for bi, m in zip(b, mult):
        acc = bi + m * acc
        y.append(acc)
    acc = 0.0
    for i in range(len(y) - 1, -1, -1):
        acc = y[i] = (y[i] + right[i] * acc) / pivot[i]
    return y


@functools.lru_cache(maxsize=1, typed=True)
def linewidth_bracket(params: LaserParams, truncation: int) -> tuple[float, float]:
    """Bracket (lo, hi), in rad/s, around the linewidth ell = -2 lambda_1 of
    the k=1 sector, lambda_1 its eigenvalue closest to zero.

    B = -L1^T is a tridiagonal M-matrix of order T = truncation, factored
    once by GTH elimination (:func:`_eliminate` at z = 0, its rows kept for
    the solves), whose factors and solves add, multiply and divide
    nonnegative numbers only.  Inverse
    iteration from x = 1 converges to the Perron vector of B^{-1}, and for
    every positive x the smallest eigenvalue sigma = -lambda_1 of B lies
    between the least and the largest x_i / (B^{-1} x)_i
    (Collatz-Wielandt).  The iteration stops once that bracket stops
    narrowing; each side of 2 sigma is then widened by T eps, one eps per
    row of the recurrences, for their rounding.  The bracket needs O(T)
    memory; the dense sector is never built.  The truncation is checked on
    entry (:func:`checked_weights`).

    The last result is cached (one entry, keyed on the arguments and their
    types): the bracket is pure in (params, truncation) while this module's
    constants stay fixed, and ``linewidth`` reads it twice per mu, through
    ``extract_linewidth`` and again for the sidecar's bracket width, so the
    second read costs no elimination.  An exception is not cached.

    Raises
    ------
    LinewidthFitError
        If the bracket is still wider than that allowance when it stops
        narrowing, or after ``MAX_INVERSE_ITERATIONS`` inverse iterations.
    ValueError
        If the truncation is outside 2 .. ``ROW_BUDGET`` or leaves
        stationary tail mass above 1e-9.
    """
    checked_weights(params, truncation)
    # the rows as Python floats: the solves run about twice as fast as on
    # numpy scalars
    factors = tuple(zip(*_eliminate(params, truncation, 0.0)))
    x, best = np.ones(truncation), None
    for _ in range(MAX_INVERSE_ITERATIONS):
        y = np.array(_solve(*factors, x.tolist()))
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

