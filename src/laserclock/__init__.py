"""laserclock: quantum limits of a laser used as a shared clock.

Each module holds only the production route to its quantities; the general
numerics that cross-check them are test oracles (tests/oracles.py).
Every module runs on numpy alone.  The channel's lattice overlaps need the
Faddeeva function, which numpy lacks: ``channel`` evaluates it by Weideman's
rational series (SIAM J. Numer. Anal. 31 (1994) 1497), within 1.1e-15
relative of 30-digit values, and takes erf and erfc from ``math``.

fock
    Truncated Fock-space states, the exact canonical phase variance from a
    state's own support, optimal-cloning variance.
laserdyn
    Noiseless-gain laser master equation, stationary state, linewidth
    extraction, SQL/HL linewidth limits.
tracking
    Stochastic phase diffusion, homodyne photocurrents, the adaptive
    phase-locking loop and the dual-quadrature baseline, Monte Carlo MSE.
sync
    M-party synchronization experiments and the closed-form limits
    sqrt(M)/(4 mu), sqrt(M)/(2 mu), M/(4 mu), and physical-units MSE.
channel
    Orthonormal phase-space lattice basis and the fully decohering
    classical channel that still transmits a coherent amplitude.
cli
    Deterministic experiment runner (``laserclock`` command).
"""

__version__ = "0.1.0"

from . import channel, cli, errors, fock, laserdyn, sync, tracking  # noqa: F401,E402

__all__ = ["channel", "cli", "errors", "fock", "laserdyn", "sync", "tracking",
           "__version__"]
