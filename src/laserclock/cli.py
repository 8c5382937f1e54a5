"""Experiment runner: every capability behind one deterministic command line.

Each subcommand runs one experiment and emits a CSV table (header row, '.'
decimals) plus a JSON sidecar echoing the fully resolved configuration and the
library version, so any output can be reproduced byte-for-byte from its
sidecar alone: ``laserclock <subcommand> --config sidecar.json``.  Flags
override config-file values, which are converted and checked as their flags
would be; a config key that is not a flag of the subcommand is a usage error.
Exit status: 0 success, 2 usage/validation error, 3 a numerical check failed
(the message names it).
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
    vals = _floats(text)
    _require(all(map(math.isfinite, vals)), f"entries of {text!r} must be finite")
    return [int(round(v)) for v in vals]


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
    mode, trials, seed, workers = a.mode, a.trials, a.seed, a.workers
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
    parties, regime = _ints(a.parties), a.regime
    trials, seed, workers, dt = a.trials, a.seed, a.workers, _auto(a.dt)
    report = sy.run_sync(ld.LaserParams(kappa=a.kappa, mu=a.mu), parties, regime=regime,
                         dt=dt, trials=trials, seed=seed, workers=workers)
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
    rows, diffs, tails, brackets = [], [], [], []
    for params in lasers:
        trunc = fock.default_truncation(params.mu) if _auto(a.truncation) is None \
            else int(a.truncation)
        le = ld.extract_linewidth(params, trunc, method="eigenvalue")
        lf = ld.extract_linewidth(params, trunc, method="decay_fit")
        lo, hi = ld.linewidth_bracket(params, trunc)
        brackets.append((hi - lo) / lo)
        diffs.append(abs(le / lf - 1.0))
        tails.append(1.0 - float(ld.poisson_weights(params.mu, trunc).sum()))
        rows.append([a.seed, 0, 0, a.kappa, params.mu, trunc, le, lf,
                     diffs[-1], ld.hl_linewidth(params), ld.sql_linewidth(params)])
    config = dict(kappa=a.kappa, mu=",".join(repr(m) for m in mus),
                  truncation=a.truncation, seed=a.seed)
    summary = {"max_methods_rel_diff": max(diffs),
               "max_stationary_tail_mass": max(tails),
               "max_eigenvalue_bracket_rel": max(brackets),
               "solvers": dict(ld.LINEWIDTH_METHODS)}
    return header, rows, config, summary


def _phasevar_row(seed, mu, grid):
    # one row per call, so one mu's state and distribution are freed before
    # the next mu's transform runs
    state = fock.coherent_state(math.sqrt(mu))
    v = fock.phase_variance(fock.canonical_phase_distribution(state, grid_size=grid))
    return [seed, 0, 0, mu, grid, state.truncation, v, 1.0 / (4.0 * mu), v * 4.0 * mu - 1.0]


def _run_phasevar(a):
    mus = _floats(a.mu or "")
    _require(all(0 < m < math.inf for m in mus), "--mu entries must be positive and finite")
    grid = a.grid_size
    _require(grid >= 256, "--grid-size must be >= 256")
    _require(grid <= fock.PHASE_GRID_BUDGET,
             f"--grid-size {grid} is more than the {fock.PHASE_GRID_BUDGET} points allowed")
    for mu, trunc in zip(mus, map(fock.default_truncation, mus)):
        _require(grid > trunc, f"--grid-size {grid} must exceed the truncation {trunc} "
                               f"of --mu {mu!r}")
    header = ["seed", "dt", "trials", "mu_photons", "grid_size", "truncation",
              "phase_variance_rad2", "coherent_limit_rad2", "rel_deviation"]
    rows = [_phasevar_row(a.seed, mu, grid) for mu in mus]
    config = dict(mu=",".join(repr(m) for m in mus), grid_size=grid, seed=a.seed)
    summary = {"max_abs_rel_deviation": max(abs(r[8]) for r in rows),
               "truncations": [r[5] for r in rows]}
    return header, rows, config, summary


def _run_channel(a):
    mod, arg, delta, min_prob = a.alpha_mod, a.alpha_arg, a.delta, a.min_prob
    _require(0 <= mod < math.inf, "--alpha-mod must be finite and >= 0")
    _require(math.isfinite(arg), "--alpha-arg must be finite")
    alpha = mod * complex(math.cos(arg), math.sin(arg))
    spec = ch.LatticeSpec(delta=delta)
    dist = ch.decohere(alpha, spec, min_prob=min_prob)
    amp = ch.output_mean_amplitude(dist)
    fid = ch.coherent_fidelity(dist)
    seed = a.seed
    header = ["seed", "dt", "trials", "delta", "alpha_mod", "alpha_arg", "n", "m",
              "q", "p", "probability", "output_amp_re", "output_amp_im",
              "captured_mass"]
    P = dist.probabilities
    i, j = np.nonzero(P >= min_prob)
    n, m = dist.ns[i], dist.ms[j]
    rows = [[seed, 0, 0, delta, mod, arg, *cell, amp.real, amp.imag, dist.captured_mass]
            for cell in zip(n.tolist(), m.tolist(), spec.q(n).tolist(), spec.p(m).tolist(),
                            P[i, j].tolist())]
    config = dict(alpha_mod=mod, alpha_arg=arg, delta=delta, min_prob=min_prob, seed=seed)
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
        rows.append([a.seed, 0, 0, a.mu, m,
                     sy.hl_sync_limit(a.mu, m), sy.sql_sync_limit(a.mu, m),
                     sy.split_variance_limit(a.mu, m), fock.clone_phase_variance(a.mu, m),
                     sy.physical_units_mse(phys, m) if phys else None])
    config = dict(mu=a.mu, parties=",".join(str(m) for m in parties),
                  power=a.power, wavelength=a.wavelength, linewidth_hz=a.linewidth_hz,
                  seed=a.seed)
    # the sqrt(M) advantage of one shared Heisenberg-limited laser over splitting it
    return header, rows, config, {"min_split_over_hl_mse": min(r[7] / r[5] for r in rows)}


def _run_sweep(a):
    mode, trials, seed, workers = a.mode, a.trials, a.seed, a.workers
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
        sp.add_argument("--config", default=None, help="JSON config file (flags win)")
        sp.add_argument("--out", default=None, help="CSV output path (sidecar: same stem .json)")
        flag_actions = {}
        for flag, kw in flags + [("--seed", dict(type=int, default=0))]:
            action = sp.add_argument(flag, **{**kw, "default": None})
            flag_actions[action.dest] = action, kw.get("default")
        sp.set_defaults(flag_actions=flag_actions)
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


def _resolve_flags(args):
    """Set each flag not given on the command line from --config (a JSON
    object or a sidecar), converted and checked as the flag's text would be,
    or else, as for a null config value, from the flag's default."""
    data = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise UsageError(f"--config {args.config}: {exc.strerror}") from None
        if isinstance(data, dict) and isinstance(data.get("config"), dict):
            data = data["config"]
        _require(isinstance(data, dict), "--config must hold a JSON object")
        data = {key.replace("-", "_"): value for key, value in data.items()}
        unknown = [key for key in data if key not in args.flag_actions]
        _require(not unknown, f"--config keys not flags of {args.cmd}: {', '.join(unknown)}")
    for attr, (action, default) in args.flag_actions.items():
        if getattr(args, attr) is not None:
            continue
        value = data.get(attr)
        if value is not None:
            try:
                value = (action.type or str)(str(value))
            except ValueError:
                raise UsageError(f"--config key {attr}: invalid value {value!r}") from None
            _require(action.choices is None or value in action.choices,
                     f"--config key {attr}: {value!r} is not one of {action.choices}")
        setattr(args, attr, default if value is None else value)


def _csv_text(header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _resolve_flags(args)
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
