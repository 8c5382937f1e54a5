"""Locking a local oscillator to a beam whose phase diffuses.

Simulates the scaled homodyne photocurrent I dt = 2 alpha cos(Phi - phi) dt
+ dW and two estimators: the adaptive null-point loop (feedback gain
ell/sigma^2) and the non-adaptive dual-quadrature measurement.  The steady
errors land on 1/(2 sqrt(N)) and 1/sqrt(2N), N = flux/linewidth -- the
adaptive loop wins by exactly sqrt(2).

Saves a sample locked trajectory to tracking_trace.png when matplotlib is
available.
"""
import math

import numpy as np

from laserclock import tracking as tr

# one visible trajectory: the beam phase diffuses, the photocurrent is read
# at the null point Phi = est + pi/2 and fed back with gain ell/sigma^2
beam = tr.BeamParams(f=1e3, ell=1.0)
dt = 1e-2 * tr.loop_time_constant(beam, "adaptive")
sigma2 = tr.adaptive_mse_limit(beam.N)  # stationary error variance
sqdt = math.sqrt(dt)
alpha = math.sqrt(beam.f)  # beam amplitude
rng_phase = np.random.default_rng(1)
rng_shot = np.random.default_rng(2)
phi = phi_est = 0.0
ts, truth, est = dt * np.arange(1, 4001), [], []
for _ in ts:
    phi += math.sqrt(beam.ell) * rng_phase.standard_normal() * sqdt
    idt = 2 * alpha * math.sin(phi - phi_est) * dt + rng_shot.standard_normal() * sqdt
    phi_est += beam.ell / sigma2 * idt / (2 * alpha)
    truth.append(phi)
    est.append(phi_est)
err = np.array(truth) - np.array(est)
print(f"single trajectory over {ts[-1]:.2f} s: rms error {np.sqrt(np.mean(err**2)):.4f} rad "
      f"(stationary prediction {math.sqrt(sigma2):.4f})")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
    fig, ax = plt.subplots(figsize=(7, 3))
    ax.plot(ts, truth, lw=0.8, label="beam phase")
    ax.plot(ts, est, lw=0.8, label="estimate")
    ax.set_xlabel("time (s)")
    ax.set_ylabel("phase (rad)")
    ax.legend(frameon=False)
    fig.tight_layout()
    fig.savefig("tracking_trace.png", dpi=120)
    print("wrote tracking_trace.png")
except ImportError:
    pass

# ensemble steady-state error vs the closed forms
print("\n      N     adaptive MSE   1/(2 sqrt N)    heterodyne MSE   1/sqrt(2N)")
for N in [1e2, 1e3, 1e4]:
    b = tr.BeamParams(f=N, ell=1.0)
    ra = tr.run_tracking("adaptive", b, trials=200, seed=11)
    rh = tr.run_tracking("heterodyne", b, trials=200, seed=12)
    print(f"{N:8.0f}   {ra.mse_wrapped:.5e}   {tr.adaptive_mse_limit(N):.5e}"
          f"    {rh.mse_wrapped:.5e}    {tr.heterodyne_mse_limit(N):.5e}")
print(f"adaptive/heterodyne at N=1e4: {ra.mse_wrapped / rh.mse_wrapped:.3f}"
      f"  (1/sqrt(2) = {1/math.sqrt(2):.3f})")

# the dual-quadrature filter bandwidth trades lag against shot noise
beam = tr.BeamParams(f=1e3, ell=1.0)
lam_star = tr.optimal_bandwidth(beam)
print(f"\nbandwidth sweep at N={beam.N:.0f} (optimum sqrt(2 f ell) = {lam_star:.1f}):")
grid = [float(lam) for lam in lam_star * np.logspace(-0.5, 0.5, 5)]
batch = tr.run_tracking_batch("heterodyne", [(beam, [tr.derive_seed(3, i)], lam)
                                             for i, lam in enumerate(grid)], trials=100)
for lam, (res,) in zip(grid, batch):
    marker = " <- optimum" if abs(lam - lam_star) < 1e-9 else ""
    print(f"  lambda={lam:7.1f}: mse={res.mse_wrapped:.5e} "
          f"(lag+noise model {beam.ell/(2*lam)+lam/(4*beam.f):.5e}){marker}")
