"""Spans around the public functions of laserclock's modules, installed from
outside the library.

Every name in a module's ``__all__`` that is a function defined there gets a
wrapper, and the wrapper replaces the function in every laserclock namespace
that binds it: ``sync`` imports ``run_tracking`` by name, so patching only
``tracking.run_tracking`` would lose every call made from ``sync``.
:func:`install` then asks the garbage collector whether anything besides the
wrapper still refers to an original and refuses to trace if so.
"""

from __future__ import annotations

import functools
import gc
import inspect
import statistics
import sys
import time
import tracemalloc
from collections import defaultdict

MODULES = ("cli", "sync", "tracking", "laserdyn", "fock", "channel")

# Functions whose peak traced allocation the memory pass records.
MEMORY_SPANS = ("tracking.run_tracking", "channel.decohere")

MIB = 1024.0 * 1024.0


class Tracer:
    """In-memory spans: [name, start, end, parent index]; plus counters."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.notes = defaultdict(list)   # per-name (args, result) summaries
        self._stack = []

    def wrap(self, name, fn, note=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
            self._stack.append(idx)
            self.spans[idx][1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[idx][2] = time.perf_counter()
                self._stack.pop()
            if note is not None:
                self.notes[name].append(note(fn, args, kwargs, result))
            return result
        return traced

    def summary(self):
        """Per name: calls, total (inclusive) seconds, self seconds, durations."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                   "durations": []})
        for i, (name, start, end, _) in enumerate(self.spans):
            s = out[name]
            s["calls"] += 1
            s["total_s"] += end - start
            s["self_s"] += end - start - child[i]
            s["durations"].append(end - start)
        return out


class MemoryProbe:
    """Peak tracemalloc allocation of MEMORY_SPANS functions, per name.

    Only the first call after each :meth:`arm` is measured: within one CLI
    experiment every call of these functions has the same shape (trials,
    steps, mode or grid), so that call's peak is the experiment's, and the
    tracemalloc slowdown is paid once per experiment instead of per call.
    """

    def __init__(self):
        self.peaks = {}
        self._armed = set()

    def arm(self):
        self._armed.update(MEMORY_SPANS)

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def measured(*args, **kwargs):
            if name not in self._armed:
                return fn(*args, **kwargs)
            self._armed.discard(name)
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self.peaks[name] = max(self.peaks.get(name, 0), peak)
        return measured


def public_functions(laserclock):
    """{qualified name: function} for every public function of MODULES."""
    found = {}
    for short in MODULES:
        mod = getattr(laserclock, short)
        for attr in mod.__all__:
            fn = getattr(mod, attr)
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                found[f"{short}.{attr}"] = fn
    return found


def install(targets, factory):
    """Replace each target function by ``factory(name, fn)`` in every
    laserclock namespace, then verify no other reference remains.

    ``targets`` maps qualified names to functions.  Returns the number of
    bindings replaced.  Raises RuntimeError if an original is still
    reachable from anything but its wrapper.
    """
    wrappers = {fn: factory(name, fn) for name, fn in targets.items()}
    replaced = 0
    for modname, mod in list(sys.modules.items()):
        if modname != "laserclock" and not modname.startswith("laserclock."):
            continue
        for key, value in list(vars(mod).items()):
            if inspect.isfunction(value) and value in wrappers:
                setattr(mod, key, wrappers[value])
                replaced += 1
    gc.collect()
    # iterate by name: a dict-items iterator's cached tuple would count as a
    # reference to the last function checked
    for name in list(targets):
        fn = targets[name]
        allowed = {id(wrappers), id(targets), id(wrappers[fn].__dict__)}
        stray = [r for r in gc.get_referrers(fn)
                 if isinstance(r, (dict, list, tuple)) and id(r) not in allowed]
        if stray:
            where = [r.get("__name__", sorted(k for k, v in r.items() if v is fn))
                     if isinstance(r, dict) else type(r).__name__ for r in stray]
            raise RuntimeError(f"{fn.__module__}.{fn.__name__} is still bound outside "
                               f"its wrapper, in {where}; spans would be lost")
    return replaced


def count_pool_starts(tracking, tracer):
    """Count process pools the tracking module starts."""
    base = tracking.ProcessPoolExecutor

    class CountingPool(base):
        def __init__(self, *args, **kwargs):
            tracer.counts["tracking.pool_starts"] += 1
            super().__init__(*args, **kwargs)

    tracking.ProcessPoolExecutor = CountingPool


def _lane_steps(fn, args, kwargs, result):
    """trials x steps of one run_tracking call, from its arguments and result.

    A ``dt`` of None resolves as run_tracking documents: 1e-2 of the loop
    time constant (1/gain for an adaptive loop with an explicit gain).
    """
    from laserclock import tracking

    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    a = bound.arguments
    dt = a["dt"]
    if dt is None:
        if a["mode"] == "adaptive" and a["gain"] is not None:
            tau = 1.0 / a["gain"]
        else:
            tau = tracking.loop_time_constant(a["beam"], a["mode"], a["bandwidth"])
        dt = 1e-2 * tau
    return a["trials"] * round(result.duration / dt)


def _linewidth_note(fn, args, kwargs, result):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return {"method": bound.arguments["method"], "truncation": bound.arguments["truncation"]}


def _sector_rows(fn, args, kwargs, result):
    return int(result.matrix.shape[0])


def _grid_points(fn, args, kwargs, result):
    return int(result.probabilities.size)


CALL_NOTES = {
    "tracking.run_tracking": _lane_steps,
    "laserdyn.extract_linewidth": _linewidth_note,
    "laserdyn.build_liouvillian_sector": _sector_rows,
    "channel.decohere": _grid_points,
}


def install_spans(laserclock, tracer):
    targets = public_functions(laserclock)
    count_pool_starts(laserclock.tracking, tracer)
    return install(targets, lambda name, fn: tracer.wrap(name, fn, CALL_NOTES.get(name)))


def install_memory(laserclock, probe):
    targets = {k: v for k, v in public_functions(laserclock).items() if k in MEMORY_SPANS}
    return install(targets, probe.wrap)


def layer_metrics(tracer):
    """The per-layer metrics of one traced pass (see NOTES.md for the map)."""
    s = tracer.summary()

    def get(name, field):
        return s[name][field] if name in s else 0

    def calls_where(name, pred):
        return [d for d, note in zip(s[name]["durations"], tracer.notes[name]) if pred(note)] \
            if name in s else []

    run = "tracking.run_tracking"
    lane_steps = sum(tracer.notes[run])
    busy = get(run, "total_s")
    eig = calls_where("laserdyn.extract_linewidth", lambda n: n["method"] == "eigenvalue")
    fit = calls_where("laserdyn.extract_linewidth", lambda n: n["method"] == "decay_fit")
    grid = sum(tracer.notes["channel.decohere"])
    decohere_s = get("channel.decohere", "total_s")
    return {
        "cli.main.calls": get("cli.main", "calls"),
        "cli.main.self_s": get("cli.main", "self_s"),
        "sync.run_sync_sweep.self_s": get("sync.run_sync_sweep", "self_s"),
        "sync.run_sync_experiment.calls": get("sync.run_sync_experiment", "calls"),
        "sync.run_sync_experiment.self_s": get("sync.run_sync_experiment", "self_s"),
        "tracking.run_tracking.calls": get(run, "calls"),
        "tracking.run_tracking.total_s": busy,
        "tracking.run_tracking.per_call_p50_s": statistics.median(s[run]["durations"])
        if run in s else 0.0,
        "tracking.lane_steps": lane_steps,
        "tracking.lane_steps_per_busy_s": lane_steps / busy if busy > 0 else 0.0,
        "tracking.pool_starts": tracer.counts["tracking.pool_starts"],
        "laserdyn.extract_linewidth.calls": get("laserdyn.extract_linewidth", "calls"),
        "laserdyn.extract_linewidth.eigenvalue_s": sum(eig),
        "laserdyn.extract_linewidth.decay_fit_s": sum(fit),
        "laserdyn.build_liouvillian_sector.calls": get("laserdyn.build_liouvillian_sector",
                                                       "calls"),
        "laserdyn.build_liouvillian_sector.s": get("laserdyn.build_liouvillian_sector",
                                                   "total_s"),
        "laserdyn.sector_rows": sum(tracer.notes["laserdyn.build_liouvillian_sector"]),
        "laserdyn.stationary_state.s": get("laserdyn.stationary_state", "total_s"),
        "laserdyn.max_truncation": max((n["truncation"] for n in
                                        tracer.notes["laserdyn.extract_linewidth"]), default=0),
        "channel.decohere.calls": get("channel.decohere", "calls"),
        "channel.decohere.s": decohere_s,
        "channel.grid_points": grid,
        "channel.grid_points_per_s": grid / decohere_s if decohere_s > 0 else 0.0,
        "channel.coherent_fidelity.s": get("channel.coherent_fidelity", "total_s"),
        "channel.output_mean_amplitude.s": get("channel.output_mean_amplitude", "total_s"),
        "fock.coherent_state.s": get("fock.coherent_state", "total_s"),
        "fock.canonical_phase_distribution.s": get("fock.canonical_phase_distribution",
                                                   "total_s"),
        "fock.phase_variance.s": get("fock.phase_variance", "total_s"),
    }
