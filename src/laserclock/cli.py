"""Experiment runner: every capability behind one deterministic command line.

Each subcommand runs one experiment and emits a CSV table (header row, '.'
decimals; each cell the ``str`` of its value, a flag 0 or 1, a missing value
empty; a cell that is the same object as the one above it is formatted once,
so handlers pass a repeated value as one object) plus a JSON sidecar echoing
the fully resolved configuration and the library version, so any output can
be reproduced byte-for-byte from its sidecar alone:
``laserclock <subcommand> --config sidecar.json``.
``track`` and ``sweep`` write the tracking engine's own prediction as
``predicted_rad2`` and leave the checks of a bandwidth to the engine.

Every subcommand is declared once, as one entry of ``COMMANDS``: its help, its
handler, its CSV columns and its flags, each flag a ``(dest, converter or
choices, default)`` triple.  The parser is built from that table once per
process and only splits argv.  ``_resolve_flags`` takes each flag from the
command line, else from ``--config``, else from its default, and converts a
command-line value and a config value by the same converter or choices.  A
flag whose default is ``REQUIRED`` must be set by one of the two.  A value
that does not convert, a missing required flag, or a config key that is not a
flag of the subcommand is a usage error that names the flag or the key.  The
sidecar ``config`` is the resolved flags, with a list joined by commas;
``track`` records the ``dt``, ``duration``, ``burn_in`` and ``bandwidth`` the
engine resolved in place of its ``auto`` values.
Exit status: 0 success, 2 usage/validation error, 3 a numerical check failed
(the message names it).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from typing import Callable, NamedTuple

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
    vals = [t for t in text.split(",") if t.strip()]
    if not vals:
        raise UsageError("empty value list")
    return [float(v) for v in vals]


def _ints(text):
    vals = _floats(text)
    _require(all(map(math.isfinite, vals)), f"entries of {text!r} must be finite")
    return [int(round(v)) for v in vals]


def _auto(text):
    """'auto' -> None; otherwise a float."""
    return None if text.lower() == "auto" else float(text)


def _truncation(text):
    """'auto' (the sidecar echoes it) or an integer."""
    return "auto" if text.lower() == "auto" else int(text)


def _require(cond, msg):
    if not cond:
        raise UsageError(msg)


# --- subcommand handlers ----------------------------------------------------
# each takes the resolved flags and returns (rows, summary)

def _run_track(a):
    beam = tr.BeamParams(f=a.flux, ell=a.linewidth)
    res = tr.run_tracking(a.mode, beam, dt=a.dt, duration=a.duration, burn_in=a.burn_in,
                          trials=a.trials, seed=a.seed, workers=a.workers,
                          bandwidth=a.bandwidth)
    a.dt, a.duration, a.burn_in, a.bandwidth = res.dt, res.duration, res.burn_in, res.bandwidth
    rows = [[a.seed, res.dt, a.trials, a.mode, beam.f, beam.ell, beam.N, res.bandwidth,
             res.duration, res.burn_in, res.mse_wrapped, res.mse_unwrapped, res.stderr,
             res.predicted, res.cycle_slip_rate, int(res.slips_significant)]]
    return rows, {"mse_rad2": res.mse_wrapped}


def _run_sync(a):
    report = sy.run_sync(ld.LaserParams(kappa=a.kappa, mu=a.mu), a.parties, regime=a.regime,
                         dt=a.dt, trials=a.trials, seed=a.seed, workers=a.workers)
    rows = []
    for i, m in enumerate(report.m_values):
        per = report.per_party_mse[i]
        rows.append([a.seed, a.dt, a.trials, a.kappa, a.mu, a.regime, m,
                     report.mean_mse[i], report.stderr[i], report.predicted[i],
                     report.mean_mse[i] / report.predicted[i], min(per), max(per),
                     report.scaling_exponent, report.scaling_stderr,
                     int(report.slips_flagged)])
    summary = {"scaling_exponent": report.scaling_exponent,
               "mean_mse_rad2": list(report.mean_mse)}
    return rows, summary


def _run_linewidth(a):
    lasers = [ld.LaserParams(kappa=a.kappa, mu=mu) for mu in a.mu]
    truncs = [fock.default_truncation(mu) if a.truncation == "auto" else a.truncation
              for mu in a.mu]
    # every --mu's truncation, checked before the first route runs
    tails = [1.0 - float(ld.checked_weights(params, trunc).sum())
             for params, trunc in zip(lasers, truncs)]
    rows, diffs, brackets = [], [], []
    for params, trunc in zip(lasers, truncs):
        le = ld.extract_linewidth(params, trunc, method="eigenvalue")
        lf = ld.extract_linewidth(params, trunc, method="decay_fit")
        lo, hi = ld.linewidth_bracket(params, trunc)
        brackets.append((hi - lo) / lo)
        diffs.append(abs(le / lf - 1.0))
        rows.append([a.seed, 0, 0, a.kappa, params.mu, trunc, le, lf,
                     diffs[-1], ld.hl_linewidth(params), ld.sql_linewidth(params)])
    summary = {"max_methods_rel_diff": max(diffs),
               "max_stationary_tail_mass": max(tails),
               "max_eigenvalue_bracket_rel": max(brackets),
               "solvers": dict(ld.LINEWIDTH_METHODS)}
    return rows, summary


def _phasevar_row(seed, mu):
    # one row per call, so one mu's state is freed before the next is built;
    # returns the row and W, the length of the support the variance kept
    state = fock.coherent_state(math.sqrt(mu))
    support, G = fock.phase_support(state)
    v = fock.phase_variance(support, G)
    return [seed, 0, 0, mu, G, state.truncation, v, 1.0 / (4.0 * mu), v * 4.0 * mu - 1.0], \
        len(support)


def _run_phasevar(a):
    # --grid-size is parsed and echoed in the sidecar but read by nothing: the
    # variance is exact, and the grid_size cell is the FFT length it sampled
    _require(all(0 < m < math.inf for m in a.mu), "--mu entries must be positive and finite")
    for mu in a.mu:  # the state budget, for every --mu before the first state
        fock.default_truncation(mu)
    rows, kept = zip(*[_phasevar_row(a.seed, mu) for mu in a.mu])
    summary = {"max_abs_rel_deviation": max(abs(r[8]) for r in rows),
               "truncations": [r[5] for r in rows],
               "kept_lengths": list(kept)}
    return rows, summary


def _run_channel(a):
    mod, arg, delta, min_prob = a.alpha_mod, a.alpha_arg, a.delta, a.min_prob
    _require(0 <= mod < math.inf, "--alpha-mod must be finite and >= 0")
    _require(math.isfinite(arg), "--alpha-arg must be finite")
    alpha = mod * complex(math.cos(arg), math.sin(arg))
    spec = ch.LatticeSpec(delta=delta)
    dist = ch.decohere(alpha, spec, min_prob=min_prob)
    amp = ch.output_mean_amplitude(dist)
    fid = ch.coherent_fidelity(dist)
    P = dist.probabilities
    i, j = np.nonzero(P >= min_prob)
    m = dist.ms[j]
    # each repeated cell is one object, so _csv_lines formats it once: the
    # run's constants once per run, a box's n and q once per box
    head, tail = [a.seed, 0, 0, delta, mod, arg], [amp.real, amp.imag, dist.captured_mass]
    ns, qs = dist.ns.tolist(), spec.q(dist.ns).tolist()
    rows = [[*head, ns[r], mr, qs[r], pr, prob, *tail]
            for r, mr, pr, prob in zip(i.tolist(), m.tolist(), spec.p(m).tolist(),
                                       P[i, j].tolist())]
    summary = {"output_amplitude": [amp.real, amp.imag],
               "output_modulus": abs(amp), "output_phase_rad": math.atan2(amp.imag, amp.real),
               "captured_mass": dist.captured_mass,
               "coherent_fidelity": fid}
    return rows, summary


def _run_limits(a):
    phys = None
    if any(v is not None for v in (a.power, a.wavelength, a.linewidth_hz)):
        _require(None not in (a.power, a.wavelength, a.linewidth_hz),
                 "--power, --wavelength and --linewidth-hz are given together or not at all")
        phys = sy.PhysicalBeam(power=a.power, wavelength=a.wavelength,
                               linewidth_hz=a.linewidth_hz)
    rows = []
    for m in a.parties:
        rows.append([a.seed, 0, 0, a.mu, m,
                     sy.hl_sync_limit(a.mu, m), sy.sql_sync_limit(a.mu, m),
                     sy.split_variance_limit(a.mu, m), fock.clone_phase_variance(a.mu, m),
                     sy.physical_units_mse(phys, m) if phys else None])
    # the sqrt(M) advantage of one shared Heisenberg-limited laser over splitting it
    return rows, {"min_split_over_hl_mse": min(r[7] / r[5] for r in rows)}


def _run_sweep(a):
    mode, axis, values, flux, ell = a.mode, a.axis, a.values, a.flux, a.linewidth
    _require(axis in ("n", "flux") or flux is not None, f"--flux needed for {axis} axis")
    _require(axis not in ("n", "flux") or flux is None, f"--flux is not used on the {axis} axis")
    beam_at = {"n": lambda v: tr.BeamParams(f=v * ell, ell=ell),
               "flux": lambda v: tr.BeamParams(f=v, ell=ell),
               "linewidth": lambda v: tr.BeamParams(f=flux, ell=v),
               "bandwidth": lambda v: tr.BeamParams(f=flux, ell=ell)}[axis]
    points = [(beam_at(v), [tr.derive_seed(a.seed, i)], v if axis == "bandwidth" else None)
              for i, v in enumerate(values)]
    batch = tr.run_tracking_batch(mode, points, trials=a.trials, workers=a.workers)
    rows = [[a.seed, res.dt, a.trials, mode, axis, v, vseed, beam.f, beam.ell, res.bandwidth,
             res.mse_wrapped, res.stderr, res.predicted, 0]
            for v, (beam, (vseed,), _), (res,) in zip(values, points, batch)]
    i_min = min(range(len(rows)), key=lambda i: rows[i][10])
    rows[i_min][13] = 1
    return rows, {"minimum_value": values[i_min], "minimum_mse_rad2": rows[i_min][10]}


# --- the subcommand table ---------------------------------------------------

REQUIRED = object()  # a flag default: set on the command line or by --config


class Command(NamedTuple):
    help: str
    run: Callable
    columns: list
    flags: list  # (dest, converter or choices, default); --dest-with-dashes


_MODE = ("mode", tr.MODES, "adaptive")
_RUNS = [("trials", int, 200), ("workers", int, 1)]
_COMMON = [("seed", int, 0)]

COMMANDS = {
    "track": Command("track one beam", _run_track, [
        "seed", "dt", "trials", "mode", "flux_per_s", "linewidth_rad_per_s", "n_quality",
        "bandwidth_rad_per_s", "duration_s", "burn_in_s", "mse_rad2", "mse_unwrapped_rad2",
        "stderr_rad2", "predicted_rad2", "cycle_slips_per_s", "slips_significant",
    ], [_MODE, ("flux", float, REQUIRED), ("linewidth", float, REQUIRED),
        ("bandwidth", _auto, None), ("dt", _auto, None), ("duration", _auto, None),
        ("burn_in", _auto, None), *_RUNS]),
    "sync": Command("M-party synchronization", _run_sync, [
        "seed", "dt", "trials", "kappa_per_s", "mu_photons", "regime", "parties",
        "mean_mse_rad2", "stderr_rad2", "predicted_rad2", "mse_over_predicted",
        "party_mse_min_rad2", "party_mse_max_rad2", "scaling_exponent",
        "scaling_exponent_stderr", "slips_flagged",
    ], [("kappa", float, REQUIRED), ("mu", float, REQUIRED), ("parties", _ints, [1]),
        ("regime", sy.REGIMES, "hl"), ("dt", _auto, None), *_RUNS]),
    "linewidth": Command("master-equation linewidth", _run_linewidth, [
        "seed", "dt", "trials", "kappa_per_s", "mu_photons", "truncation",
        "linewidth_eig_rad_per_s", "linewidth_fit_rad_per_s", "methods_rel_diff",
        "hl_limit_rad_per_s", "sql_limit_rad_per_s",
    ], [("kappa", float, REQUIRED), ("mu", _floats, REQUIRED),
        ("truncation", _truncation, "auto")]),
    "phasevar": Command("coherent-state phase variance", _run_phasevar, [
        "seed", "dt", "trials", "mu_photons", "grid_size", "truncation",
        "phase_variance_rad2", "coherent_limit_rad2", "rel_deviation",
    ], [("mu", _floats, REQUIRED), ("grid_size", int, 4096)]),
    "channel": Command("lattice decoherence channel", _run_channel, [
        "seed", "dt", "trials", "delta", "alpha_mod", "alpha_arg", "n", "m", "q", "p",
        "probability", "output_amp_re", "output_amp_im", "captured_mass",
    ], [("alpha_mod", float, 5.0), ("alpha_arg", float, 0.0), ("delta", float, 1.0),
        ("min_prob", float, 1e-6)]),
    "limits": Command("analytic synchronization limits", _run_limits, [
        "seed", "dt", "trials", "mu_photons", "parties", "hl_mse_rad2", "sql_mse_rad2",
        "split_mse_rad2", "clone_mse_rad2", "physical_mse_rad2",
    ], [("mu", float, REQUIRED), ("parties", _ints, [1]), ("power", float, None),
        ("wavelength", float, None), ("linewidth_hz", float, None)]),
    "sweep": Command("sweep one numeric axis", _run_sweep, [
        "seed", "dt", "trials", "mode", "axis", "value", "value_seed", "flux_per_s",
        "linewidth_rad_per_s", "bandwidth_rad_per_s", "mse_rad2", "stderr_rad2",
        "predicted_rad2", "is_minimum",
    ], [_MODE, ("axis", ("n", "flux", "linewidth", "bandwidth"), REQUIRED),
        ("values", _floats, REQUIRED), ("flux", float, None), ("linewidth", float, 1.0),
        *_RUNS]),
}


def _flag(dest):
    return "--" + dest.replace("_", "-")


@functools.cache
def _parser():
    # every flag stays text (None when absent) until _resolve_flags
    p = argparse.ArgumentParser(prog="laserclock",
                                description="Laser-as-a-clock experiment runner")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="cmd", required=True)
    for name, cmd in COMMANDS.items():
        sp = sub.add_parser(name, help=cmd.help)
        sp.add_argument("--config", help="JSON config file (flags win)")
        sp.add_argument("--out", help="CSV output path (sidecar: same stem .json)")
        for dest, _, _ in cmd.flags + _COMMON:
            sp.add_argument(_flag(dest))
    return p


def _resolve_flags(args):
    """The subcommand's flags: each from the command line, else from --config
    (a JSON object or a sidecar), else, as for a null config value, from its
    default; a given value is converted from its text by the flag's converter
    or checked against its choices."""
    flags = COMMANDS[args.cmd].flags + _COMMON
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
        unknown = [key for key in data if key not in {dest for dest, _, _ in flags}]
        _require(not unknown, f"--config keys not flags of {args.cmd}: {', '.join(unknown)}")
    resolved = argparse.Namespace()
    for dest, convert, default in flags:
        value, source = getattr(args, dest), _flag(dest)
        if value is None:
            value, source = data.get(dest), f"--config key {dest}"
        if value is None:
            _require(default is not REQUIRED,
                     f"{_flag(dest)} is required (as a flag or a --config key)")
            value = default
        elif callable(convert):
            try:
                value = convert(str(value))
            except ValueError:
                raise UsageError(f"{source}: invalid value {value!r}") from None
        else:
            _require(str(value) in convert, f"{source}: {str(value)!r} is not one of "
                                            f"{list(convert)}")
            value = str(value)
        setattr(resolved, dest, value)
    return resolved


def _csv_lines(rows):
    """Each row as one CSV line: a cell is the ``str`` of its value, empty for
    None.  A cell that is the same object (``is``, never ``==``: 0.0 and
    -0.0, or 1, 1.0 and True, are equal but print differently) as the cell
    above it takes that cell's text instead of being formatted again."""
    above = texts = ()
    for row in rows:
        if len(row) != len(above):  # a fresh sentinel is above no cell
            above = texts = (object(),) * len(row)
        texts = [t if v is u else "" if v is None else str(v)
                 for v, u, t in zip(row, above, texts)]
        above = row
        yield ",".join(texts) + "\n"


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has written the usage error (2) or the help or version (0)
        return exc.code
    cmd = COMMANDS[args.cmd]
    try:
        flags = _resolve_flags(args)
        rows, summary = cmd.run(flags)
    except ValueError as exc:
        print(f"laserclock {args.cmd}: invalid configuration: {exc}", file=sys.stderr)
        return 2
    except NumericalCheckError as exc:
        print(f"laserclock {args.cmd}: numerical check failed "
              f"({type(exc).__name__}): {exc}", file=sys.stderr)
        return 3

    text = "".join(_csv_lines([cmd.columns, *rows]))
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        config = {dest: ",".join(map(repr, v)) if isinstance(v, list) else v
                  for dest, v in vars(flags).items()}
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
        print(json.dumps(summary, sort_keys=True), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
