import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import erf

import oracles
from laserclock import channel as ch
from laserclock.errors import WindowError


SPEC = ch.LatticeSpec(delta=1.0)


def overlap_erf_oracle(alpha, delta, n, m):
    """Independent closed form via scipy's complex erf (safe for small |m|)."""
    qb = math.sqrt(2) * alpha.real
    pb = math.sqrt(2) * alpha.imag
    p = 2 * np.pi * m / delta
    dlt = pb - p
    a, b = delta * n - delta / 2, delta * n + delta / 2
    ua, ub = (a - qb) / math.sqrt(2), (b - qb) / math.sqrt(2)
    s = dlt / math.sqrt(2)
    E = np.exp(-s ** 2) * (erf(ub - 1j * s) - erf(ua - 1j * s))
    return (np.pi ** 0.25 / math.sqrt(2 * delta)) * np.exp(1j * dlt * qb - 1j * qb * pb / 2) * E


def test_vacuum_central_overlap_value():
    # oracle: quadrature, erf closed form and mpmath all give 0.7209681828,
    # i.e. |overlap|^2 = 0.5197951206
    c = oracles.lattice_overlap(0.0, SPEC, 0, 0)
    assert c.real == pytest.approx(0.720968182787, abs=1e-10)
    assert abs(c.imag) < 1e-12
    assert abs(c) ** 2 == pytest.approx(0.519795120592, abs=1e-9)
    # cross-check against a direct real integral of the vacuum wavefunction
    direct = quad(lambda q: np.pi ** -0.25 * np.exp(-q * q / 2), -0.5, 0.5)[0]
    assert abs(c - direct) < 1e-10


@pytest.mark.parametrize("alpha", [0.0, 2.0, 5.0 * np.exp(1j * np.pi / 4), 1.5 - 2.2j])
@pytest.mark.parametrize("nm", [(0, 0), (3, 1), (7, -2), (2, 5)])
def test_quadrature_matches_closed_form(alpha, nm):
    alpha = complex(alpha)
    n, m = nm
    c_quad = oracles.lattice_overlap(alpha, SPEC, n, m)
    c_closed = complex(ch._overlap_closed(alpha, 1.0, np.array([n]), np.array([m]))[0, 0])
    c_erf = overlap_erf_oracle(alpha, 1.0, n, m)
    assert abs(c_quad - c_closed) < 1e-10
    assert abs(c_quad - c_erf) < 1e-10


def per_box_overlap(alpha, delta, ns, ms):
    """Oracle: the masked scaled erf evaluated at both edges of every box
    separately."""
    qb, pb = math.sqrt(2) * alpha.real, math.sqrt(2) * alpha.imag
    dlt = pb - 2 * np.pi * ms.astype(float) / delta
    nn = ns.astype(float)[:, None]
    ua = (delta * nn - delta / 2 - qb) / math.sqrt(2)
    ub = (delta * nn + delta / 2 - qb) / math.sqrt(2)
    s = (dlt / math.sqrt(2))[None, :]
    E = oracles.scaled_erf_masked(ub, s) - oracles.scaled_erf_masked(ua, s)
    return (np.pi ** 0.25 / math.sqrt(2 * delta)) * np.exp(1j * dlt * qb - 1j * qb * pb / 2) * E


@pytest.mark.parametrize("alpha, delta, shared", [
    (5.0, 1.0, "all"),
    (0.5 / math.sqrt(2), 1.0, "all"),   # box 0's right edge sits at u = 0
    (5.0 * np.exp(0.9272952180016122j), 1.7, "some"),
    (10.0 * np.exp(0.3j), 0.8, "some"),
])
def test_overlap_grid_shares_edges_bitwise(alpha, delta, shared):
    alpha = complex(alpha)
    ns = np.arange(-3, 25)
    ms = np.arange(-700, 701)
    # box n's right edge is box n+1's left edge as a float at delta = 1
    # always, at 1.7 and 0.8 only for some n
    right = delta * ns[:-1] + delta / 2
    left = delta * ns[1:] - delta / 2
    n_shared = int(np.sum(right == left))
    assert n_shared == len(ns) - 1 if shared == "all" else 0 < n_shared < len(ns) - 1
    got = ch._overlap_closed(alpha, delta, ns, ms)
    assert got.shape == (len(ns), len(ms))
    # the row slices of the sorted edges give bitwise the masked gathers
    assert got.tobytes() == per_box_overlap(alpha, delta, ns, ms).tobytes()


def test_overlap_global_phase_convention_invariance():
    # |<n,m|alpha>| must not depend on the wavefunction's global phase; the
    # oracle here drops the -i qb pb / 2 convention factor entirely
    alpha = 3.0 + 1.0j
    qb, pb = math.sqrt(2) * alpha.real, math.sqrt(2) * alpha.imag

    def psi_other_phase(q):
        return np.pi ** -0.25 * np.exp(-(q - qb) ** 2 / 2 + 1j * pb * q)

    for (n, m) in [(2, 0), (4, 1), (2, -1)]:
        p = 2 * np.pi * m
        re = quad(lambda q: (np.exp(-1j * q * p) * psi_other_phase(q)).real,
                  n - 0.5, n + 0.5, epsabs=1e-13)[0]
        im = quad(lambda q: (np.exp(-1j * q * p) * psi_other_phase(q)).imag,
                  n - 0.5, n + 0.5, epsabs=1e-13)[0]
        assert abs(complex(re, im)) == pytest.approx(
            abs(oracles.lattice_overlap(alpha, SPEC, n, m)), abs=1e-10)


def test_orthonormality():
    assert oracles.orthonormality_defect(SPEC, n_span=2, m_span=2) <= 1e-10
    assert oracles.orthonormality_defect(ch.LatticeSpec(delta=2.0), n_span=1, m_span=2) <= 1e-10


def test_lattice_state_overlap_disjoint_boxes():
    assert oracles.lattice_state_overlap(SPEC, (0, 3), (1, 3)) == 0.0


def test_overlap_translation_covariance():
    # |<n, m|alpha>| is invariant under alpha -> alpha + Delta/sqrt(2), n -> n+1
    alpha = 1.2 + 0.7j
    for (n, m) in [(1, 0), (2, 1), (0, -2)]:
        a1 = abs(oracles.lattice_overlap(alpha, SPEC, n, m))
        a2 = abs(oracles.lattice_overlap(alpha + 1 / math.sqrt(2), SPEC, n + 1, m))
        assert a1 == pytest.approx(a2, abs=1e-10)


def _lattice_state_amplitude(spec, n, m):
    """output_mean_amplitude of the one-point distribution on (n, m)."""
    dist = ch.LatticeDistribution(delta=spec.delta, ns=np.array([n]), ms=np.array([m]),
                                  probabilities=np.ones((1, 1)), captured_mass=1.0)
    return ch.output_mean_amplitude(dist, spec)


def test_mean_amplitude_values():
    v = _lattice_state_amplitude(SPEC, 2, -1)
    assert v == pytest.approx((2 - 2j * np.pi) / math.sqrt(2))
    assert v.real == pytest.approx(1.41421, abs=1e-5)
    assert v.imag == pytest.approx(-4.44288, abs=1e-5)
    assert _lattice_state_amplitude(SPEC, 0, 0) == 0
    spec2 = ch.LatticeSpec(delta=2.0)
    assert _lattice_state_amplitude(spec2, 1, 1) == pytest.approx((2 + 1j * np.pi) / math.sqrt(2))


def test_decohere_captured_mass_and_argmax():
    dist = ch.decohere(5.0, SPEC)
    assert dist.captured_mass >= 1 - 1e-6
    assert dist.captured_mass <= 1 + 1e-9
    # q_bar = sqrt(2)*5 = 7.07: the box at n=7, m=0 dominates
    i, j = np.unravel_index(dist.probabilities.argmax(), dist.probabilities.shape)
    assert (dist.ns[i], dist.ms[j]) == (7, 0)


def test_decohere_probabilities_match_quadrature():
    dist = ch.decohere(5.0, SPEC, mass_deficit=1e-4)
    i = list(dist.ns).index(7)
    for m in [0, 1, -3]:
        j = list(dist.ms).index(m)
        assert dist.probabilities[i, j] == pytest.approx(
            abs(oracles.lattice_overlap(5.0, SPEC, 7, m)) ** 2, abs=1e-12)


def test_decohere_concentration():
    # mass within |q_n - q_bar| <= 3 and |p_m - p_bar| <= 3*(2 pi / Delta)
    # exceeds 0.99 (oracle value 0.9935)
    dist = ch.decohere(5.0, SPEC)
    qb = math.sqrt(2) * 5.0
    qn = SPEC.q(dist.ns).astype(float)
    pm = SPEC.p(dist.ms).astype(float)
    sel_n = np.abs(qn - qb) <= 3.0
    sel_m = np.abs(pm) <= 3 * 2 * np.pi
    mass = dist.probabilities[np.ix_(sel_n, sel_m)].sum()
    assert mass == pytest.approx(0.99350, abs=2e-4)
    assert mass > 0.99


def test_captured_mass_monotone_in_window():
    # a smaller mass deficit grows the momentum window, and the mass with it
    deficits = (1e-4, 1e-5, 1e-6)
    dists = [ch.decohere(5.0, SPEC, mass_deficit=d) for d in deficits]
    sizes = [len(dist.ms) for dist in dists]
    masses = [dist.captured_mass for dist in dists]
    assert sizes[0] < sizes[1] < sizes[2]
    assert masses[0] < masses[1] < masses[2] <= 1 + 1e-9
    assert all(m >= 1 - d for m, d in zip(masses, deficits))


def test_output_amplitude_survives_channel():
    dist = ch.decohere(5.0, SPEC)
    out = ch.output_mean_amplitude(dist, SPEC)
    assert abs(abs(out) - 5.0) < 0.2
    assert abs(math.atan2(out.imag, out.real)) < 0.05
    # oracle-level check: the survival is far tighter than the contract
    assert abs(out - 5.0) < 1e-3


def test_output_amplitude_vacuum_smears_symmetrically():
    dist = ch.decohere(0.0, SPEC)
    assert abs(ch.output_mean_amplitude(dist, SPEC)) <= 0.05


@pytest.mark.parametrize("mod", [2.0, 5.0, 10.0])
def test_amplitude_survival_all_scales(mod):
    # |<a>_out - alpha| sits at the window-truncation floor (~1e-5) for all
    # real alpha in {2, 5, 10}; it does not grow as alpha shrinks to 2
    dist = ch.decohere(mod, SPEC)
    out = ch.output_mean_amplitude(dist, SPEC)
    assert abs(out - mod) < 1e-3


def test_rotation_covariance():
    base = ch.output_mean_amplitude(ch.decohere(5.0, SPEC), SPEC)
    base_phase = math.atan2(base.imag, base.real)
    # chi = pi/2: p_bar lands symmetrically between lattice momenta in effect;
    # covariance holds to better than 0.02 rad
    out2 = ch.output_mean_amplitude(ch.decohere(5j, SPEC), SPEC)
    dev2 = math.atan2(out2.imag, out2.real) - base_phase - np.pi / 2
    assert abs(dev2) < 0.02
    # chi = pi/4: the momentum lattice (spacing 2 pi / Delta) quantizes the
    # p-moment; the oracle-computed covariance error is +0.0694 rad
    a4 = 5.0 * np.exp(1j * np.pi / 4)
    out4 = ch.output_mean_amplitude(ch.decohere(a4, SPEC), SPEC)
    dev4 = math.atan2(out4.imag, out4.real) - base_phase - np.pi / 4
    assert dev4 == pytest.approx(0.069387, abs=2e-3)
    assert abs(dev4) < 0.08
    # modulus stays within ~0.6 of |alpha| in the worst quantization case
    assert abs(abs(out4) - 5.0) < 0.6


def test_rotated_output_phase_frozen_value():
    # alpha = 5 e^{i pi/4}: output phase 0.854785 (pi/4 + quantization bias)
    a4 = 5.0 * np.exp(1j * np.pi / 4)
    out = ch.output_mean_amplitude(ch.decohere(a4, SPEC), SPEC)
    assert math.atan2(out.imag, out.real) == pytest.approx(0.854785, abs=2e-3)


def test_coherent_fidelity_diagnostic():
    dist = ch.decohere(5.0, SPEC)
    fid = ch.coherent_fidelity(dist)
    assert 0.0 < fid <= 1.0
    # "fair overlap" with the nearest coherent state: 0.356 at alpha=5, Delta=1
    assert fid == pytest.approx(0.35613, abs=5e-4)
    # rotating the probe away drops the overlap
    rotated = np.abs(ch._overlap_closed(5.0 * np.exp(1j * 0.5), 1.0, dist.ns, dist.ms)) ** 2
    assert np.sum(dist.probabilities * rotated) < fid / 3


@pytest.mark.parametrize("alpha, delta", [(5.0, 1.0), (3 + 4j, 1.0), (3 + 4j, 1.7),
                                          (10 * np.exp(0.3j), 0.8)])
def test_coherent_fidelity_is_overlap_with_the_input(alpha, delta):
    # sum P |<n,m|alpha>|^2 with the overlap recomputed at the input alpha
    dist = ch.decohere(alpha, ch.LatticeSpec(delta=delta), mass_deficit=1e-4)
    overlap = np.abs(ch._overlap_closed(complex(alpha), delta, dist.ns, dist.ms)) ** 2
    assert ch.coherent_fidelity(dist) == float(np.sum(dist.probabilities * overlap))


def test_window_checks_and_validation():
    with pytest.raises(ValueError):
        ch.LatticeSpec(delta=0.0)
    with pytest.raises(ValueError):
        ch.decohere(complex(np.nan, 0.0), SPEC)
    # the first size estimate already jumps past the cap, so the message
    # names the one window evaluated (1025 points) and the estimate
    with pytest.raises(WindowError) as info:
        ch.decohere(5.0, SPEC, mass_deficit=1e-12)
    msg = str(info.value)
    assert "last window evaluated had 1025 points and captured mass 0.999956302" in msg
    needed = int(msg.split(" needs about ")[1].split()[0])
    assert needed > 2 ** 21 + 1
    assert f"more than the {2 ** 21 + 1} allowed" in msg


GRID_CASES = [(5.0, 1.0), (3 + 4j, 1.0), (2 + 1j, 1.0), (3 + 4j, 1.7), (10 * np.exp(0.3j), 0.8),
              (5j, 1.0), (0.0, 1.0), (1.5, 0.05), (5.0, 0.01)]


def _single_call_grid(alpha, delta, dist):
    return np.abs(ch._overlap_closed(complex(alpha), delta, dist.ns, dist.ms)) ** 2


@pytest.mark.parametrize("alpha, delta", GRID_CASES)
def test_blocked_grid_is_bitwise_the_single_call(alpha, delta):
    # at mass deficit 1e-5 the single call's complex temporaries stay under
    # about 100 MB; the windows span 1 to 12 column blocks
    dist = ch.decohere(alpha, ch.LatticeSpec(delta=delta), mass_deficit=1e-5)
    assert dist.probabilities.tobytes() == _single_call_grid(alpha, delta, dist).tobytes()
    assert dist.captured_mass == float(dist.probabilities.sum())


@pytest.mark.parametrize("alpha, delta", [(3 + 4j, 1.0), (3 + 4j, 1.7), (1.5, 0.05)])
def test_block_width_changes_no_probability(monkeypatch, alpha, delta):
    # blocks of 1 column, of 7 and 8 columns (neither divides the 1025 of the
    # window) and wider than the grid; at Delta = 0.05 the 166 rows exceed a
    # 100-cell block, which then still holds one column
    spec = ch.LatticeSpec(delta=delta)
    ref = ch.decohere(alpha, spec, mass_deficit=0.05)
    rows, cols = ref.probabilities.shape
    assert cols == 1025
    widths = []
    overlap = ch._overlap_closed

    def recording(alpha, delta, ns, ms):
        widths.append(len(ms))
        return overlap(alpha, delta, ns, ms)

    monkeypatch.setattr(ch, "_overlap_closed", recording)
    for cells in (1, 100, 7 * rows, 2 ** 40):
        step = min(cols, max(1, cells // rows))
        monkeypatch.setattr(ch, "GRID_BLOCK_CELLS", cells)
        widths.clear()
        dist = ch.decohere(alpha, spec, mass_deficit=0.05)
        assert widths == [step] * (cols // step) + [cols % step] * (cols % step > 0)
        assert dist.probabilities.tobytes() == ref.probabilities.tobytes()
    monkeypatch.setattr(ch, "_overlap_closed", overlap)
    assert ref.probabilities.tobytes() == _single_call_grid(alpha, delta, ref).tobytes()


def test_grid_working_set_is_one_block():
    # beyond P itself (float64) and ms (int64), a block holds the edge grid F
    # of _scaled_erf, with at most rows + 1 rows at Delta = 1 (shared edges),
    # and at most three temporaries as large as F while one of its row slices
    # is filled; after F is freed, _overlap_closed's E and its gather are two
    # blocks.  So four F-sized complex arrays, under 5 complex blocks.
    ch.decohere(3 + 4j, SPEC, mass_deficit=1e-3)  # scipy loaded, caches warm
    tracemalloc.start()
    try:
        dist = ch.decohere(3 + 4j, SPEC)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows = len(dist.ns)
    block_bytes = 16 * (ch.GRID_BLOCK_CELLS // rows) * rows
    assert dist.probabilities.shape == (12, 97121)
    # the whole-grid evaluation peaked at 56.4 MiB for this 8.9 MiB P
    assert peak <= dist.probabilities.nbytes + dist.ms.nbytes + 5 * block_bytes


def test_grid_over_budget_is_refused_before_it_is_evaluated(monkeypatch):
    # Delta = 1e-4 needs 81049 boxes x 1025 momentum points: refused before
    # the boxes are even listed
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"more than the {ch.GRID_BUDGET_CELLS} cells"):
            ch.decohere(5.0, ch.LatticeSpec(delta=1e-4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 16
    with pytest.raises(ValueError, match="needs inf boxes"):
        ch.decohere(5.0, ch.LatticeSpec(delta=5e-324))
    # a later window over the budget: the first 12 x 1025 window fits, the
    # 58173 points that alpha = 5 needs do not
    evaluated = []
    probabilities = ch._probabilities

    def recording(alpha, delta, ns, ms):
        evaluated.append(len(ns) * len(ms))
        return probabilities(alpha, delta, ns, ms)

    monkeypatch.setattr(ch, "_probabilities", recording)
    monkeypatch.setattr(ch, "GRID_BUDGET_CELLS", 4 * 12 * 1025)
    with pytest.raises(WindowError) as info:
        ch.decohere(5.0, SPEC)
    assert evaluated == [12 * 1025]
    msg = str(info.value)
    cells = int(msg.split(" needs a window of ")[1].split()[0])
    assert cells > 4 * 12 * 1025 and f"more than the {4 * 12 * 1025} allowed" in msg
    assert "last window evaluated had 1025 points" in msg
