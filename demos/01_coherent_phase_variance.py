"""How sharp is the phase of a coherent state?

Builds coherent states in a truncated number basis, evaluates the exact
variance of their canonical phase from each state's own support, and checks
the workhorse number behind every limit in this package: wrapped phase
variance -> 1/(4 mu).  Also contrasts splitting a state M ways (variance
M/4mu) with optimal cloning ((3 - 2/M)/4mu).
"""
import numpy as np

from laserclock import fock

# a coherent state |alpha> has Poissonian number statistics; it is kept on the
# window of number states that holds every amplitude at or above 2^-200 of the
# largest, from state.offset up
alpha = 5.0
state = fock.coherent_state(alpha)
mu = abs(alpha) ** 2
n = state.offset + np.arange(len(state.amplitudes))
print(f"coherent state alpha={alpha}: mean photon number = "
      f"{np.sum(n * np.abs(state.amplitudes) ** 2):.6f} (mu = {mu})")
print(f"truncation {state.truncation}, norm deficit {state.norm_deficit:.2e}")

# its canonical phase is sharply peaked at arg(alpha) = 0, against the uniform
# phase (variance pi^2/3) of a number state; the variance is exact, from the W
# amplitudes at or above 2^-200 of the largest, sampled at G > 2W points
support, G = fock.phase_support(state)
v = fock.phase_variance(support, G)
print(f"\nphase variance {v:.6e} rad^2, 1/{np.pi ** 2 / 3 / v:.0f} of the uniform "
      f"phase's; W = {len(support)} amplitudes at G = {G} points")


def phase_variance(mu):
    """The exact canonical phase variance of |sqrt(mu)>."""
    return fock.phase_variance(*fock.phase_support(fock.coherent_state(np.sqrt(mu))))


# wrapped phase variance approaches 1/(4 mu) as mu grows; the state's window
# is about 34 sqrt(mu) wide, so a large mu costs little
print("\n   mu        variance      1/(4 mu)    rel. dev")
for m in [4, 25, 100, 400, 10 ** 6]:
    v = phase_variance(m)
    print(f"{m:7d}   {v:.6e}  {1/(4*m):.6e}  {v*4*m-1:+.2%}")

# splitting |sqrt(mu)> into M beams of amplitude sqrt(mu/M) multiplies the
# per-beam variance by M; optimal cloning saturates at ~3/(4 mu) instead
mu, M = 100, 4
v_split = phase_variance(mu / M)
print(f"\nsplit mu={mu} into M={M}: per-beam variance {v_split:.5f} "
      f"(M/4mu = {M/(4*mu):.5f})")
for M in [1, 2, 4, 1000]:
    print(f"  optimal {M}-cloning variance: {fock.clone_phase_variance(mu, M):.6f}")
print(f"  (large-M cloning limit 3/(4 mu) = {3/(4*mu):.6f})")
