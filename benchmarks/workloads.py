"""The benchmark's workloads: canonical ``laserclock`` CLI experiments, each
with a closed-form check at the acceptance gate's tolerances.

An experiment is the argv of one ``laserclock.cli.main`` call, without
``--seed`` and ``--out``, which the pass adds.  Its check reads the CSV rows
and the sidecar the CLI wrote and returns one :class:`Check` per asserted
quantity.  Checks named in ``KNOWN_RED`` are evaluated at the stated
tolerance and reported every run, but a miss there is a documented property
of the model, not a failed experiment (see NOTES.md).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

# run_tracking's documented defaults: duration 30 loop time constants at
# dt = 1e-2 of one, so every auto-dt tracking run takes this many steps.
DEFAULT_STEPS = 3000

KNOWN_RED = {
    "linewidth mu=4 vs kappa/(4 mu)":
        "acceptance criterion 3: the model's finite-mu excess of about 1/mu",
    "linewidth mu=8 vs kappa/(4 mu)":
        "acceptance criterion 3: the model's finite-mu excess of about 1/mu",
    "channel |alpha|=5 arg=0.9273 output modulus (absolute error)":
        "the delta=1 lattice's 2*pi momentum spacing biases Im(out) to 4.32; "
        "criterion 8's 0.2 band holds on the real axis only",
}


@dataclass(frozen=True)
class Check:
    label: str
    measured: float
    expected: float
    error: float          # relative unless the label says otherwise
    tolerance: float

    @property
    def known_red(self) -> bool:
        return self.label in KNOWN_RED

    @property
    def passed(self) -> bool:
        return self.error <= self.tolerance

    def line(self) -> str:
        verdict = "PASS" if self.passed else ("KNOWN-RED" if self.known_red else "FAIL")
        return (f"{verdict:9s} {self.label}: measured {self.measured:.6g} "
                f"expected {self.expected:.6g} error {self.error:.3g} "
                f"(tolerance {self.tolerance:g})")


@dataclass(frozen=True)
class Experiment:
    name: str
    argv: tuple
    check: Callable      # (rows, sidecar) -> list[Check]
    lanes: Callable      # (rows, sidecar) -> tracking lane-steps run


def _rel(measured, expected):
    return abs(measured / expected - 1.0)


def _wrap(x):
    return (x + math.pi) % (2 * math.pi) - math.pi


# --- closed-form checks ------------------------------------------------------

def check_track(rows, sidecar):
    row = rows[0]
    mse, pred = float(row["mse_rad2"]), float(row["predicted_rad2"])
    return [Check(f"track {row['mode']} N={float(row['n_quality']):g} mse vs 1/(2 sqrt N)",
                  mse, pred, _rel(mse, pred), 0.10)]


def check_bandwidth_sweep(rows, sidecar):
    row = next(r for r in rows if r["is_minimum"] == "1")
    n_quality = float(row["flux_per_s"]) / float(row["linewidth_rad_per_s"])
    mse, pred = float(row["mse_rad2"]), 1.0 / math.sqrt(2.0 * n_quality)
    return [Check(f"bandwidth sweep minimum (lambda={float(row['value']):g}) vs 1/sqrt(2N)",
                  mse, pred, _rel(mse, pred), 0.15)]


def check_n_sweep(rows, sidecar):
    # At 100 trials one point's error has a 3% standard deviation, so a 10%
    # band per point would fail on some seeds by chance alone; the sweep
    # mean and the N^-1/2 slope each hold the closed form at over 5 sigma.
    ratios = [float(r["mse_rad2"]) / float(r["predicted_rad2"]) for r in rows]
    mean = sum(ratios) / len(ratios)
    x = [math.log(float(r["value"])) for r in rows]
    y = [math.log(float(r["mse_rad2"])) for r in rows]
    xm, ym = sum(x) / len(x), sum(y) / len(y)
    slope = (sum((a - xm) * (b - ym) for a, b in zip(x, y))
             / sum((a - xm) ** 2 for a in x))
    return [Check("adaptive sweep mean mse/(1/(2 sqrt N))", mean, 1.0, abs(mean - 1.0), 0.10),
            Check("adaptive sweep exponent of mse in N (absolute error)", slope, -0.5,
                  abs(slope + 0.5), 0.05)]


def _check_sync(rows, tolerance):
    regime = rows[0]["regime"]
    limit = "sqrt(M)/(4 mu)" if regime == "hl" else "sqrt(M)/(2 mu)"
    checks = [Check(f"sync {regime} M={r['parties']} mse vs {limit}",
                    float(r["mean_mse_rad2"]), float(r["predicted_rad2"]),
                    _rel(float(r["mean_mse_rad2"]), float(r["predicted_rad2"])), tolerance)
              for r in rows]
    if regime == "hl" and len(rows) >= 2:
        slope = float(rows[0]["scaling_exponent"])
        checks.append(Check("sync hl scaling exponent (absolute error)",
                            slope, 0.5, abs(slope - 0.5), 0.05))
    return checks


def check_sync_hl(rows, sidecar):
    return _check_sync(rows, 0.15)


def check_sync_sql(rows, sidecar):
    return _check_sync(rows, 0.20)


def check_linewidth(rows, sidecar):
    checks = []
    for r in rows:
        mu = float(r["mu_photons"])
        eig, fit = float(r["linewidth_eig_rad_per_s"]), float(r["linewidth_fit_rad_per_s"])
        hl = float(r["hl_limit_rad_per_s"])
        checks.append(Check(f"linewidth mu={mu:g} eigenvalue vs decay fit",
                            eig, fit, _rel(eig, fit), 1e-6))
        checks.append(Check(f"linewidth mu={mu:g} vs kappa/(4 mu)", eig, hl, _rel(eig, hl),
                            0.10))
    return checks


def check_phasevar(rows, sidecar):
    return [Check(f"phasevar mu={float(r['mu_photons']):g} vs 1/(4 mu)",
                  float(r["phase_variance_rad2"]), float(r["coherent_limit_rad2"]),
                  abs(float(r["rel_deviation"])), 0.05)
            for r in rows]


def check_channel(rows, sidecar):
    res, cfg = sidecar["results"], sidecar["config"]
    modulus, phase = res["output_modulus"], res["output_phase_rad"]
    label = f"channel |alpha|={cfg['alpha_mod']:g} arg={cfg['alpha_arg']:.4g}"
    mass = res["captured_mass"]
    return [
        Check(f"{label} captured mass deficit (absolute)", mass, 1.0, 1.0 - mass, 1e-6),
        Check(f"{label} output modulus (absolute error)", modulus, cfg["alpha_mod"],
              abs(modulus - cfg["alpha_mod"]), 0.2),
        Check(f"{label} output phase (absolute error, rad)", phase, cfg["alpha_arg"],
              abs(_wrap(phase - cfg["alpha_arg"])), 0.05),
    ]


def check_limits(rows, sidecar):
    from laserclock import sync

    checks = []
    for r in rows:
        mu, m = float(r["mu_photons"]), int(r["parties"])
        for column, limit in (("hl_mse_rad2", sync.hl_sync_limit),
                              ("sql_mse_rad2", sync.sql_sync_limit),
                              ("split_mse_rad2", sync.split_variance_limit)):
            got, want = float(r[column]), limit(mu, m)
            checks.append(Check(f"limits M={m} {column} vs sync.{limit.__name__}",
                                got, want, _rel(got, want), 1e-12))
    return checks


# --- tracking lane-steps (parties x trials x steps), read from the outputs --

def lanes_track(rows, sidecar):
    cfg = sidecar["config"]
    return cfg["trials"] * round(cfg["duration"] / cfg["dt"])


def lanes_sweep(rows, sidecar):
    return sum(int(r["trials"]) for r in rows) * DEFAULT_STEPS


def lanes_sync(rows, sidecar):
    cfg = sidecar["config"]
    if cfg["dt"] is not None:
        raise ValueError("sync lane-steps assume the auto dt")
    return sum(int(r["parties"]) for r in rows) * cfg["trials"] * DEFAULT_STEPS


def lanes_none(rows, sidecar):
    return 0


def _exp(name, argv, check, lanes=lanes_none):
    return Experiment(name, tuple(argv.split()), check, lanes)


WORKLOADS = {
    # Criteria 1/2/6/7 traffic at one worker: the Tier-1 hot path.
    "ensemble": [
        _exp("track-adaptive-N1e3",
             "track --mode adaptive --flux 1e3 --linewidth 1 --trials 200 --workers 1",
             check_track, lanes_track),
        _exp("track-adaptive-N1e4",
             "track --mode adaptive --flux 1e4 --linewidth 1 --trials 200 --workers 1",
             check_track, lanes_track),
        _exp("sweep-heterodyne-bandwidth",
             "sweep --mode heterodyne --axis bandwidth --values 50,70,100,141,200,280,400 "
             "--flux 1e4 --linewidth 1 --trials 200 --workers 1",
             check_bandwidth_sweep, lanes_sweep),
        _exp("sync-hl-M1-16",
             "sync --kappa 1 --mu 1e6 --parties 1,2,4,8,16 --regime hl --trials 200 --workers 1",
             check_sync_hl, lanes_sync),
        _exp("sync-sql-M1-4",
             "sync --kappa 1 --mu 1e6 --parties 1,4 --regime sql --trials 200 --workers 1",
             check_sync_sql, lanes_sync),
    ],
    # Many short tracking runs on a process pool: per-call fixed cost and
    # pool start-up, which ensemble hides.
    "pooled": [
        _exp("sync-hl-M16-pool",
             "sync --kappa 1 --mu 1e6 --parties 16 --regime hl --trials 100 --workers 2",
             check_sync_hl, lanes_sync),
        _exp("sync-sql-M8-pool",
             "sync --kappa 1 --mu 1e6 --parties 8 --regime sql --trials 100 --workers 2",
             check_sync_sql, lanes_sync),
        _exp("sweep-adaptive-n-pool",
             "sweep --mode adaptive --axis n --values 1e3,2e3,5e3,1e4,2e4,5e4 "
             "--trials 100 --workers 2",
             check_n_sweep, lanes_sweep),
    ],
    # No Monte Carlo: master-equation eigensolves, overlap grids, FFT phase
    # densities and CLI row formatting.
    "spectral": [
        _exp("linewidth-mu4-256", "linewidth --kappa 1 --mu 4,8,16,32,64,128,256",
             check_linewidth),
        _exp("phasevar-grid262144", "phasevar --mu 25,100,1e4,1e5 --grid-size 262144",
             check_phasevar),
        _exp("channel-alpha5", "channel --delta 1 --alpha-mod 5", check_channel),
        _exp("channel-alpha10", "channel --delta 1 --alpha-mod 10", check_channel),
        _exp("channel-alpha3+4i",
             "channel --delta 1 --alpha-mod 5 --alpha-arg 0.9272952180016122", check_channel),
        _exp("limits-physical",
             "limits --mu 1e6 --parties 1,4,16 --power 1e-3 --wavelength 600e-9 "
             "--linewidth-hz 1e6", check_limits),
    ],
}

# run_tracking / extract_linewidth calls each workload makes at the library's
# present call structure (one run_tracking call per party and sweep point).
EXPECTED_CALLS = {
    "ensemble": {"tracking.run_tracking": 45, "laserdyn.extract_linewidth": 0},
    "pooled": {"tracking.run_tracking": 30, "laserdyn.extract_linewidth": 0},
    "spectral": {"tracking.run_tracking": 0, "laserdyn.extract_linewidth": 14},
}
