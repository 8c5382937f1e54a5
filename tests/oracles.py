"""Independent reference routes that the production code is tested against.

Each oracle takes the general-numerics or one-step route to a quantity that
``laserclock`` computes by a structured one: scalar steps of the two tracking
filters, the canonical phase density by a direct sum over a density matrix,
the dense master-equation superoperator and loss-only sectors, the decay fit
on ``scipy.linalg.expm(L1 dt)`` applied by numpy, the lattice-channel overlaps
by adaptive quadrature, the scaled erf by boolean masks and the channel's
output amplitude by a sum over one window of lattice states.
"""
import math

import numpy as np
from scipy.integrate import quad
from scipy.linalg import expm
from scipy.special import dawsn, wofz

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


# --- laserdyn: dense superoperator, loss-only sectors -----------------------

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


def decay_fit_dense_expm(params, truncation):
    """The decay fit on U = scipy.linalg.expm(L1 dt), applied with numpy's @.

    Returns the linewidth, the sample times and the samples |Tr(a^dag X(t))|.
    Same initial vector, step, skip and fit as ``extract_linewidth``.
    """
    L1 = ld.build_liouvillian_sector(params, 1, truncation).matrix
    w = np.sqrt(np.arange(1.0, truncation + 1))
    p = ld.poisson_weights(params.mu, truncation)
    x = w * (p / p.sum())[1:]
    nsteps = 60
    dt = 16.0 * params.mu / params.kappa / nsteps
    skip = math.ceil(30.0 / params.mu)
    U = expm(L1 * dt)
    for _ in range(skip):
        x = U @ x
    ts = dt * np.arange(skip, skip + nsteps + 1)
    g = np.empty(nsteps + 1)
    for i in range(nsteps + 1):
        g[i] = np.abs(w @ x)
        x = U @ x
    slope, _ = np.polyfit(ts, np.log(g), 1)
    return -2.0 * slope, ts, g


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
    gathered by a boolean mask."""
    u, s = np.broadcast_arrays(np.asarray(u, dtype=float), np.asarray(s, dtype=float))
    out = np.empty(u.shape, dtype=complex)
    pos = u > 0
    neg = u < 0
    zer = ~(pos | neg)
    up, sp = u[pos], s[pos]
    out[pos] = np.exp(-sp ** 2) - np.exp(-up ** 2 + 2j * up * sp) * wofz(sp + 1j * up)
    un, sn = u[neg], s[neg]
    out[neg] = -np.exp(-sn ** 2) + np.exp(-un ** 2 + 2j * un * sn) * wofz(-sn - 1j * un)
    out[zer] = -2j / math.sqrt(math.pi) * dawsn(s[zer])
    return out


def windowed_amplitude(delta, ns, ms, probabilities):
    """sum P(n, m) (q_n + i p_m)/sqrt(2) over the window ns x ms of the lattice
    of spacing delta, the lattice states' mean amplitudes weighted by P."""
    qn = delta * np.asarray(ns)
    pm = 2 * np.pi * np.asarray(ms) / delta
    wq = probabilities.sum(axis=1) @ qn
    wp = probabilities.sum(axis=0) @ pm
    return (wq + 1j * wp) / math.sqrt(2)
