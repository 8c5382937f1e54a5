"""The quantum-limited linewidth of a laser with phase-noiseless gain.

Solves the master equation of a damped cavity mode (rate kappa) repumped by
the noise-free raising isometry at rate kappa*mu.  The stationary state is
Poissonian with mean mu, and the first-order coherence decays at half the
linewidth.  The linewidth approaches kappa/(4 mu) -- half the standard
quantum limit kappa/(2 mu) -- with a finite-mu excess of roughly 1/mu.
"""
import numpy as np

from laserclock import fock
from laserclock import laserdyn as ld

kappa = 1.0

# stationary state: Poisson(mu) number distribution
params = ld.LaserParams(kappa=kappa, mu=8.0)
pops = ld.stationary_state(params, 60)
tv = 0.5 * np.abs(pops - ld.poisson_weights(8.0, 60)).sum()
print(f"stationary state at mu=8: total-variation distance to Poisson(8) = {tv:.2e}")

# linewidth from the coherence sector, two independent routes
print("\n   mu   ell (eigenvalue)  ell (decay fit)   kappa/4mu   excess")
for mu in [4, 8, 16, 32, 64]:
    p = ld.LaserParams(kappa=kappa, mu=float(mu))
    trunc = fock.default_truncation(mu)
    v1 = ld.extract_linewidth(p, trunc, "eigenvalue")
    v2 = ld.extract_linewidth(p, trunc, "decay_fit")
    hl = ld.hl_linewidth(p)
    print(f"{mu:5d}   {v1:.6e}     {v2:.6e}    {hl:.6e}  {v1/hl-1:+.1%}")
print("(the excess falls off as ~1/mu: kappa/4mu is the large-mu limit)")

# a conventional laser is twice as broad
p = ld.LaserParams(kappa=kappa, mu=10.0)
print(f"\nSQL linewidth kappa/2mu at mu=10: {ld.sql_linewidth(p):.4f} rad/s "
      f"= 2 x {ld.hl_linewidth(p):.4f} (HL)")

# the elementary origin of the limit: damping alone grows the phase variance
# of a coherent state at rate kappa/(4 mu)
mu, t = 25.0, 0.04
print(f"\nloss-only phase-variance growth at mu={mu}, kappa*t={t}: "
      f"{kappa * t / (4 * mu):.2e} rad^2 "
      f"(= kappa t / 4 mu); a noiseless gain restores the amplitude without "
      f"removing this, hence ell >= kappa/4mu")
