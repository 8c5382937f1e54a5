"""How sharp is the phase of a coherent state?

Builds coherent states in a truncated number basis, evaluates the canonical
phase distribution, and checks the workhorse number behind every limit in
this package: wrapped phase variance -> 1/(4 mu).  Also contrasts splitting
a state M ways (variance M/4mu) with optimal cloning ((3 - 2/M)/4mu).
"""
import numpy as np

from laserclock import fock

# a coherent state |alpha> has Poissonian number statistics
alpha = 5.0
state = fock.coherent_state(alpha)
mu = abs(alpha) ** 2
print(f"coherent state alpha={alpha}: mean photon number = "
      f"{np.sum(np.arange(state.truncation + 1) * np.abs(state.amplitudes) ** 2):.6f} "
      f"(mu = {mu})")
print(f"truncation {state.truncation}, norm deficit {state.norm_deficit:.2e}")

# its canonical phase distribution is sharply peaked at arg(alpha) = 0
dist = fock.canonical_phase_distribution(state)
print(f"\nphase density peak at theta = {dist.grid[np.argmax(dist.density)]:+.4f} rad, "
      f"height {dist.density.max():.3f} (uniform would be {1/(2*np.pi):.3f})")

# wrapped phase variance approaches 1/(4 mu) as mu grows
print("\n   mu    variance      1/(4 mu)    rel. dev")
for m in [4, 25, 100, 400]:
    v = fock.phase_variance(fock.canonical_phase_distribution(
        fock.coherent_state(np.sqrt(m))))
    print(f"{m:5d}   {v:.6e}  {1/(4*m):.6e}  {v*4*m-1:+.2%}")

# splitting |sqrt(mu)> into M beams of amplitude sqrt(mu/M) multiplies the
# per-beam variance by M; optimal cloning saturates at ~3/(4 mu) instead
mu, M = 100, 4
v_split = fock.phase_variance(fock.canonical_phase_distribution(
    fock.coherent_state(np.sqrt(mu / M))))
print(f"\nsplit mu={mu} into M={M}: per-beam variance {v_split:.5f} "
      f"(M/4mu = {M/(4*mu):.5f})")
for M in [1, 2, 4, 1000]:
    print(f"  optimal {M}-cloning variance: {fock.clone_phase_variance(mu, M):.6f}")
print(f"  (large-M cloning limit 3/(4 mu) = {3/(4*mu):.6f})")
