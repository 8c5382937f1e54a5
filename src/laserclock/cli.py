"""Experiment runner: every capability behind one deterministic command line.

Each subcommand runs one experiment and emits a CSV table (header row, '.'
decimals) plus a JSON sidecar echoing the fully resolved configuration and the
library version, so any output can be reproduced byte-for-byte from its
sidecar alone: ``laserclock <subcommand> --config sidecar.json``.  Flags
override config-file values; a config key that is not a flag of the
subcommand is a usage error.  Exit status: 0 success, 2 usage/validation
error, 3 a numerical check failed (the message names it).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .errors import NumericalCheckError
from . import channel as ch
from . import fock
from . import laserdyn as ld
from . import sync as sy
from . import tracking as tr

__all__ = ["main"]


class UsageError(ValueError):
    pass


def _floats(text):
    vals = [t for t in str(text).split(",") if t.strip()]
    if not vals:
        raise UsageError("empty value list")
    return [float(v) for v in vals]


def _ints(text):
    return [int(round(v)) for v in _floats(text)]


def _auto(value):
    """None or 'auto' -> None; otherwise a float."""
    if value is None or (isinstance(value, str) and value.lower() == "auto"):
        return None
    return float(value)


def _fmt(v):
    if v is None:
        return ""
    if isinstance(v, (bool, np.bool_)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, np.integer):
        return str(int(v))
    return str(v)


def _require(cond, msg):
    if not cond:
        raise UsageError(msg)


# --- subcommand handlers ----------------------------------------------------
# each returns (header, rows, resolved_config, summary)

def _run_track(a):
    mode, trials, seed, workers = a.mode, int(a.trials), int(a.seed), int(a.workers)
    _require(a.flux is not None and a.linewidth is not None,
             "--flux and --linewidth are required")
    beam = tr.BeamParams(f=a.flux, ell=a.linewidth)
    res = tr.run_tracking(mode, beam, dt=_auto(a.dt), duration=_auto(a.duration),
                          burn_in=_auto(a.burn_in), trials=trials, seed=seed,
                          workers=workers, bandwidth=_auto(a.bandwidth))
    predicted = tr.adaptive_mse_limit(beam.N) if mode == "adaptive" \
        else tr.heterodyne_mse_limit(beam.N)
    header = ["seed", "dt", "trials", "mode", "flux_per_s", "linewidth_rad_per_s",
              "n_quality", "bandwidth_rad_per_s", "duration_s", "burn_in_s",
              "mse_rad2", "mse_unwrapped_rad2", "stderr_rad2", "predicted_rad2",
              "cycle_slips_per_s", "slips_significant"]
    rows = [[seed, res.dt, trials, mode, beam.f, beam.ell, beam.N, res.bandwidth,
             res.duration, res.burn_in, res.mse_wrapped, res.mse_unwrapped, res.stderr,
             predicted, res.cycle_slip_rate, res.slips_significant]]
    config = dict(mode=mode, flux=beam.f, linewidth=beam.ell, bandwidth=res.bandwidth,
                  dt=res.dt, duration=res.duration, burn_in=res.burn_in, trials=trials,
                  seed=seed, workers=workers)
    return header, rows, config, {"mse_rad2": res.mse_wrapped}


def _run_sync(a):
    _require(a.kappa is not None and a.mu is not None, "--kappa and --mu are required")
    parties, regime = _ints(a.parties), a.regime.lower()
    trials, seed, workers, dt = int(a.trials), int(a.seed), int(a.workers), _auto(a.dt)
    laser = ld.LaserParams(kappa=a.kappa, mu=a.mu)
    if len(parties) >= 2:
        report = sy.run_sync_sweep(laser, parties, regime=regime, dt=dt,
                                   trials=trials, seed=seed, workers=workers)
    else:
        cfg = sy.SyncConfig(laser=laser, parties=parties[0], regime=regime)
        report = sy.run_sync_experiment(cfg, dt=dt, trials=trials, seed=seed,
                                        workers=workers)
    header = ["seed", "dt", "trials", "kappa_per_s", "mu_photons", "regime", "parties",
              "mean_mse_rad2", "stderr_rad2", "predicted_rad2", "mse_over_predicted",
              "party_mse_min_rad2", "party_mse_max_rad2",
              "scaling_exponent", "scaling_exponent_stderr", "slips_flagged"]
    rows = []
    for i, m in enumerate(report.m_values):
        per = report.per_party_mse[i]
        rows.append([seed, dt, trials, a.kappa, a.mu, regime, m,
                     report.mean_mse[i], report.stderr[i], report.predicted[i],
                     report.mean_mse[i] / report.predicted[i], min(per), max(per),
                     report.scaling_exponent, report.scaling_stderr,
                     report.slips_flagged])
    config = dict(kappa=a.kappa, mu=a.mu, parties=",".join(str(m) for m in parties),
                  regime=regime, dt=dt, trials=trials, seed=seed, workers=workers)
    summary = {"scaling_exponent": report.scaling_exponent,
               "mean_mse_rad2": list(report.mean_mse)}
    return header, rows, config, summary


def _run_linewidth(a):
    _require(a.kappa is not None, "--kappa is required")
    mus = _floats(a.mu or "")
    lasers = [ld.LaserParams(kappa=a.kappa, mu=mu) for mu in mus]
    header = ["seed", "dt", "trials", "kappa_per_s", "mu_photons", "truncation",
              "linewidth_eig_rad_per_s", "linewidth_fit_rad_per_s", "methods_rel_diff",
              "hl_limit_rad_per_s", "sql_limit_rad_per_s"]
    rows = []
    for params in lasers:
        trunc = fock.default_truncation(params.mu) if _auto(a.truncation) is None \
            else int(a.truncation)
        le = ld.extract_linewidth(params, trunc, method="eigenvalue")
        lf = ld.extract_linewidth(params, trunc, method="decay_fit")
        rows.append([int(a.seed), 0, 0, a.kappa, params.mu, trunc, le.value, lf.value,
                     abs(le.value / lf.value - 1.0), ld.hl_linewidth(params),
                     ld.sql_linewidth(params)])
    config = dict(kappa=a.kappa, mu=",".join(repr(m) for m in mus),
                  truncation=a.truncation, seed=int(a.seed))
    return header, rows, config, {}


def _run_phasevar(a):
    mus = _floats(a.mu or "")
    _require(all(m > 0 for m in mus), "--mu entries must be positive")
    grid = int(a.grid_size)
    _require(grid >= 256, "--grid-size must be >= 256")
    header = ["seed", "dt", "trials", "mu_photons", "grid_size", "truncation",
              "phase_variance_rad2", "coherent_limit_rad2", "rel_deviation"]
    rows = []
    for mu in mus:
        state = fock.coherent_state(math.sqrt(mu))
        dist = fock.canonical_phase_distribution(state, grid_size=grid)
        v = fock.phase_variance(dist)
        rows.append([int(a.seed), 0, 0, mu, grid, state.truncation, v,
                     1.0 / (4.0 * mu), v * 4.0 * mu - 1.0])
    config = dict(mu=",".join(repr(m) for m in mus), grid_size=grid, seed=int(a.seed))
    return header, rows, config, {}


def _run_channel(a):
    mod, arg, delta, min_prob = (float(x) for x in (a.alpha_mod, a.alpha_arg, a.delta,
                                                     a.min_prob))
    # the output-amplitude contract needs captured mass >= 1 - 1e-6
    deficit = min(float(a.mass_deficit), 1e-6)
    _require(mod >= 0, "--alpha-mod must be >= 0")
    alpha = mod * complex(math.cos(arg), math.sin(arg))
    spec = ch.LatticeSpec(delta=delta)
    dist = ch.decohere(alpha, spec, mass_deficit=deficit)
    amp = ch.output_mean_amplitude(dist, spec)
    fid = ch.coherent_fidelity(dist, alpha)
    seed = int(a.seed)
    header = ["seed", "dt", "trials", "delta", "alpha_mod", "alpha_arg", "n", "m",
              "q", "p", "probability", "output_amp_re", "output_amp_im",
              "captured_mass"]
    rows = []
    P = dist.probabilities
    for i, n in enumerate(dist.ns):
        for j, m in enumerate(dist.ms):
            if P[i, j] >= min_prob:
                rows.append([seed, 0, 0, delta, mod, arg, int(n), int(m),
                             float(spec.q(int(n))), float(spec.p(int(m))),
                             float(P[i, j]), amp.real, amp.imag,
                             dist.captured_mass])
    config = dict(alpha_mod=mod, alpha_arg=arg, delta=delta, mass_deficit=deficit,
                  min_prob=min_prob, seed=seed)
    summary = {"output_amplitude": [amp.real, amp.imag],
               "output_modulus": abs(amp), "output_phase_rad": math.atan2(amp.imag, amp.real),
               "captured_mass": dist.captured_mass,
               "coherent_fidelity": fid}
    return header, rows, config, summary


def _run_limits(a):
    _require(a.mu is not None, "--mu is required")
    parties = _ints(a.parties)
    phys = None
    if a.power is not None:
        _require(a.wavelength is not None and a.linewidth_hz is not None,
                 "--power needs --wavelength and --linewidth-hz")
        phys = sy.PhysicalBeam(power=a.power, wavelength=a.wavelength,
                               linewidth_hz=a.linewidth_hz)
    header = ["seed", "dt", "trials", "mu_photons", "parties", "hl_mse_rad2",
              "sql_mse_rad2", "split_mse_rad2", "clone_mse_rad2",
              "physical_mse_rad2"]
    rows = []
    for m in parties:
        rows.append([int(a.seed), 0, 0, a.mu, m,
                     sy.hl_sync_limit(a.mu, m), sy.sql_sync_limit(a.mu, m),
                     sy.split_variance_limit(a.mu, m), fock.clone_phase_variance(a.mu, m),
                     sy.physical_units_mse(phys, m) if phys else None])
    config = dict(mu=a.mu, parties=",".join(str(m) for m in parties),
                  power=a.power, wavelength=a.wavelength, linewidth_hz=a.linewidth_hz,
                  seed=int(a.seed))
    return header, rows, config, {}


def _run_sweep(a):
    mode, trials, seed, workers = a.mode, int(a.trials), int(a.seed), int(a.workers)
    axis = (a.axis or "").lower()
    _require(axis in ("n", "flux", "linewidth", "bandwidth"),
             "--axis must be n, flux, linewidth or bandwidth")
    values = _floats(a.values or "")
    _require(all(v > 0 for v in values), "--values entries must be positive")
    flux, ell = a.flux, a.linewidth
    _require(axis in ("n", "flux") or flux is not None, f"--flux needed for {axis} axis")
    _require(axis != "bandwidth" or mode == "heterodyne",
             "bandwidth axis needs --mode heterodyne")
    beam_at = {"n": lambda v: tr.BeamParams(f=v * ell, ell=ell),
               "flux": lambda v: tr.BeamParams(f=v, ell=ell),
               "linewidth": lambda v: tr.BeamParams(f=flux, ell=v),
               "bandwidth": lambda v: tr.BeamParams(f=flux, ell=ell)}[axis]
    points = [(beam_at(v), [tr.derive_seed(seed, i)], v if axis == "bandwidth" else None)
              for i, v in enumerate(values)]
    batch = tr.run_tracking_batch(mode, points, trials=trials, workers=workers)
    header = ["seed", "dt", "trials", "mode", "axis", "value", "value_seed",
              "flux_per_s", "linewidth_rad_per_s", "bandwidth_rad_per_s",
              "mse_rad2", "stderr_rad2", "predicted_rad2", "is_minimum"]
    rows = []
    for v, (beam, (vseed,), _), (res,) in zip(values, points, batch):
        if axis == "bandwidth":
            predicted = beam.ell / (2 * v) + v / (4 * beam.f)
        else:
            predicted = tr.adaptive_mse_limit(beam.N) if mode == "adaptive" \
                else tr.heterodyne_mse_limit(beam.N)
        rows.append([seed, res.dt, trials, mode, axis, v, vseed, beam.f, beam.ell,
                     res.bandwidth, res.mse_wrapped, res.stderr, predicted, False])
    i_min = min(range(len(rows)), key=lambda i: rows[i][10])
    rows[i_min][13] = True
    config = dict(mode=mode, axis=axis, values=",".join(repr(v) for v in values),
                  flux=flux, linewidth=ell, trials=trials, seed=seed, workers=workers)
    return header, rows, config, {"minimum_value": values[i_min],
                                  "minimum_mse_rad2": rows[i_min][10]}


HANDLERS = {
    "track": _run_track,
    "sync": _run_sync,
    "linewidth": _run_linewidth,
    "phasevar": _run_phasevar,
    "channel": _run_channel,
    "limits": _run_limits,
    "sweep": _run_sweep,
}


def _build_parser():
    p = argparse.ArgumentParser(prog="laserclock",
                                description="Laser-as-a-clock experiment runner")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="cmd", required=True)

    def add(name, help_, flags):
        # each flag's default is applied only after the --config merge
        sp = sub.add_parser(name, help=help_)
        defaults = {"seed": 0}
        for flag, kw in flags:
            defaults[sp.add_argument(flag, **{**kw, "default": None}).dest] = kw.get("default")
        sp.add_argument("--config", default=None, help="JSON config file (flags win)")
        sp.add_argument("--out", default=None, help="CSV output path (sidecar: same stem .json)")
        sp.add_argument("--seed", type=int, default=None)
        sp.set_defaults(flag_defaults=defaults)
        return sp

    f = float
    add("track", "track one beam", [
        ("--mode", dict(default="adaptive", choices=list(tr.MODES))),
        ("--flux", dict(type=f, default=None)),
        ("--linewidth", dict(type=f, default=None)),
        ("--bandwidth", dict(default=None)),
        ("--dt", dict(default=None)),
        ("--duration", dict(default=None)),
        ("--burn-in", dict(default=None, dest="burn_in")),
        ("--trials", dict(type=int, default=200)),
        ("--workers", dict(type=int, default=1)),
    ])
    add("sync", "M-party synchronization", [
        ("--kappa", dict(type=f, default=None)),
        ("--mu", dict(type=f, default=None)),
        ("--parties", dict(default="1")),
        ("--regime", dict(default="hl", choices=list(sy.REGIMES))),
        ("--dt", dict(default=None)),
        ("--trials", dict(type=int, default=200)),
        ("--workers", dict(type=int, default=1)),
    ])
    add("linewidth", "master-equation linewidth", [
        ("--kappa", dict(type=f, default=None)),
        ("--mu", dict(default=None)),
        ("--truncation", dict(default="auto")),
    ])
    add("phasevar", "coherent-state phase variance", [
        ("--mu", dict(default=None)),
        ("--grid-size", dict(type=int, default=4096, dest="grid_size")),
    ])
    add("channel", "lattice decoherence channel", [
        ("--alpha-mod", dict(type=f, default=5.0, dest="alpha_mod")),
        ("--alpha-arg", dict(type=f, default=0.0, dest="alpha_arg")),
        ("--delta", dict(type=f, default=1.0)),
        ("--mass-deficit", dict(type=f, default=1e-6, dest="mass_deficit")),
        ("--min-prob", dict(type=f, default=1e-6, dest="min_prob")),
    ])
    add("limits", "analytic synchronization limits", [
        ("--mu", dict(type=f, default=None)),
        ("--parties", dict(default="1")),
        ("--power", dict(type=f, default=None)),
        ("--wavelength", dict(type=f, default=None)),
        ("--linewidth-hz", dict(type=f, default=None, dest="linewidth_hz")),
    ])
    add("sweep", "sweep one numeric axis", [
        ("--mode", dict(default="adaptive", choices=list(tr.MODES))),
        ("--axis", dict(default=None)),
        ("--values", dict(default=None)),
        ("--flux", dict(type=f, default=None)),
        ("--linewidth", dict(type=f, default=1.0)),
        ("--trials", dict(type=int, default=200)),
        ("--workers", dict(type=int, default=1)),
    ])
    return p


def _merge_config_file(args):
    if not args.config:
        return
    with open(args.config, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if isinstance(data, dict) and "config" in data and isinstance(data["config"], dict):
        data = data["config"]
    _require(isinstance(data, dict), "--config must hold a JSON object")
    unknown = [key for key in data if key.replace("-", "_") not in args.flag_defaults]
    _require(not unknown, f"--config keys not flags of {args.cmd}: {', '.join(unknown)}")
    for key, value in data.items():
        attr = key.replace("-", "_")
        if getattr(args, attr) is None:
            setattr(args, attr, value)


def _apply_defaults(args):
    for attr, value in args.flag_defaults.items():
        if getattr(args, attr) is None:
            setattr(args, attr, value)


def _csv_text(header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _merge_config_file(args)
        _apply_defaults(args)
        header, rows, config, summary = HANDLERS[args.cmd](args)
    except (UsageError, ValueError) as exc:
        print(f"laserclock {args.cmd}: invalid configuration: {exc}", file=sys.stderr)
        return 2
    except NumericalCheckError as exc:
        print(f"laserclock {args.cmd}: numerical check failed "
              f"({type(exc).__name__}): {exc}", file=sys.stderr)
        return 3

    text = _csv_text(header, rows)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        sidecar = {"subcommand": args.cmd, "version": __version__,
                   "config": config, "results": summary}
        side_path = str(args.out)
        side_path = side_path[:-4] + ".json" if side_path.endswith(".csv") \
            else side_path + ".json"
        with open(side_path, "w", encoding="utf-8") as fh:
            json.dump(sidecar, fh, indent=2, sort_keys=True)
            fh.write("\n")
    else:
        sys.stdout.write(text)
        if summary:
            print(json.dumps(summary, sort_keys=True), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
