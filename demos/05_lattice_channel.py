"""A channel that destroys all quantum coherence but still shares a phase.

The channel dephases everything in an orthonormal lattice of boxcar
phase-space states |q_n, p_m> (spacing Delta in q, 2 pi/Delta in p).  A large
coherent state comes out as a classical mixture over the lattice -- yet the
mixture's mean amplitude reproduces alpha, so the "classical" channel still
distributes a usable phase reference.
"""
import math

import numpy as np

from laserclock import channel as ch

spec = ch.LatticeSpec(delta=1.0)

# push |alpha = 5> through the channel
alpha = 5.0
dist = ch.decohere(alpha, spec)
print(f"decohere alpha={alpha}: window {len(dist.ns)} x {len(dist.ms)} lattice states, "
      f"captured mass {dist.captured_mass:.9f}")
i, j = np.unravel_index(dist.probabilities.argmax(), dist.probabilities.shape)
print(f"most likely lattice state: (n, m) = {(int(dist.ns[i]), int(dist.ms[j]))}  "
      f"[q_bar = sqrt(2)*5 = {math.sqrt(2)*5:.2f}]")

print("\nprobabilities near the peak (rows n, columns m):")
ni = list(dist.ns)
mi = list(dist.ms)
print("   n\\m " + "".join(f"{m:>9d}" for m in range(-2, 3)))
for n in range(5, 10):
    row = [dist.probabilities[ni.index(n), mi.index(m)] for m in range(-2, 3)]
    print(f"  {n:4d} " + "".join(f"{p:9.4f}" for p in row))

out = ch.output_mean_amplitude(dist)
print(f"\nmean amplitude after total decoherence: {out:.6f}")
print(f"  modulus {abs(out):.6f} (input 5), phase {math.atan2(out.imag, out.real):+.6f} rad")
print(f"  fidelity with the original coherent state: "
      f"{ch.coherent_fidelity(dist):.3f} (a 'fair overlap')")

# the channel is covariant under phase rotations up to lattice discretization
print("\nrotation covariance (momentum lattice spacing 2 pi/Delta quantizes <p>):")
for chi in [np.pi / 2, np.pi / 4]:
    a = alpha * np.exp(1j * chi)
    o = ch.output_mean_amplitude(ch.decohere(a, spec))
    print(f"  chi={chi:.4f}: output phase {math.atan2(o.imag, o.real):+.4f} "
          f"(bias {math.atan2(o.imag, o.real)-chi:+.4f} rad)")

# the window holds every cell with P >= min_prob; the lattice beyond it
# enters the captured mass and the amplitude in closed form
print("\nwindow by min_prob:")
for min_prob in (1e-6, 1e-8, 1e-10):
    d = ch.decohere(alpha, spec, min_prob=min_prob)
    print(f"  min_prob {min_prob:g}: window {len(d.ns)} x {len(d.ms)}, "
          f"{int((d.probabilities >= min_prob).sum())} cells >= min_prob, "
          f"1 - captured mass {1 - d.captured_mass:.1e}")
