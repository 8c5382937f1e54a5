"""How many clocks can one laser synchronize, and how well?

Splits a laser of mean photon number mu among M parties and lets each one
phase-lock to its share.  At the Heisenberg-limited linewidth with adaptive
locking the per-party error is sqrt(M)/(4 mu); a standard laser read out
non-adaptively doubles that.  Ends with the lab-units expression
sqrt(hbar omega M ell / P).
"""
import numpy as np

from laserclock import sync
from laserclock.laserdyn import LaserParams

laser = LaserParams(kappa=1.0, mu=1e6)

print("HL regime (ell = kappa/4mu, adaptive locking), mu = 1e6:")
print("   M    mean per-party MSE    sqrt(M)/(4 mu)    ratio")
for m in [1, 4, 16]:
    rep = sync.run_sync(laser, [m], regime="hl", trials=200, seed=8)
    print(f"{m:4d}    {rep.mean_mse[0]:.4e}        {rep.predicted[0]:.4e}     "
          f"{rep.mean_mse[0]/rep.predicted[0]:.3f}")

sweep = sync.run_sync(laser, [1, 2, 4, 8, 16], regime="hl", trials=200, seed=9)
print(f"fitted MSE ~ M^x scaling exponent: x = {sweep.scaling_exponent:.3f} "
      f"+- {sweep.scaling_stderr:.3f}  (sqrt-law: 0.5)")

print("\nSQL regime (ell = kappa/2mu, dual-quadrature locking):")
for m in [1, 4]:
    rep = sync.run_sync(laser, [m], regime="sql", trials=200, seed=10)
    print(f"  M={m}: {rep.mean_mse[0]:.4e} vs sqrt(M)/(2 mu) = {rep.predicted[0]:.4e}")

# ordinary lab numbers: a 1 mW, 1 MHz-linewidth visible laser
beam = sync.PhysicalBeam(power=1e-3, linewidth_hz=1e6, wavelength=600e-9)
print("\n1 mW, 1 MHz linewidth, 600 nm:")
for m in [1, 100, 8e9]:
    v = sync.physical_units_mse(beam, int(m))
    print(f"  M = {m:.0e} parties: (delta phi)^2 ~ {v:.2e} rad^2 "
          f"(rms {np.sqrt(v):.2e} rad)")
print("even split eight billion ways, the error is only of order one radian")
