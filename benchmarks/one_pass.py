"""One pass of a workload in a fresh process.

Imports laserclock from ``<root>/src``, runs the workload's experiments
through ``laserclock.cli.main(argv)`` with ``--out`` into ``--workdir``,
checks each output against its closed form, and prints one JSON object.
The pass kinds:

plain   untraced; the end-to-end timings come from these passes
trace   spans around every public function of the six modules
memory  tracemalloc peaks of run_tracking and decohere (its timings unused)
import  import only, then exit: checks the checkout and warms caches

Run by ``run.py``; not a user entry point.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import resource
import sys
import time
import traceback
from dataclasses import asdict
from pathlib import Path

BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _import_laserclock(root: Path):
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import laserclock
    import laserclock.cli  # noqa: F401

    where = Path(laserclock.__file__).resolve()
    if src not in where.parents:
        raise ImportError(f"laserclock imported from {where}, not from {src}")
    return laserclock


def _cpu_seconds():
    """User plus system time of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _read_outputs(csv_path: Path):
    with open(csv_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    with open(csv_path.with_suffix(".json"), encoding="utf-8") as fh:
        sidecar = json.load(fh)
    return rows, sidecar


def environment(laserclock):
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "laserclock": laserclock.__version__,
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
    }


def run_pass(laserclock, workload, seed, workdir: Path, kind, spawned_at):
    from workloads import WORKLOADS

    tracer = probe = None
    bindings = 0
    if kind in ("trace", "memory"):
        import tracing
    if kind == "trace":
        tracer = tracing.Tracer()
        bindings = tracing.install_spans(laserclock, tracer)
    elif kind == "memory":
        probe = tracing.MemoryProbe()
        bindings = tracing.install_memory(laserclock, probe)

    experiments = WORKLOADS[workload]
    setup_s = time.monotonic() - spawned_at
    seconds, codes = [], []
    cpu_start = _cpu_seconds()
    start = time.perf_counter()
    for i, exp in enumerate(experiments):
        argv = list(exp.argv) + ["--seed", str(seed), "--out", str(workdir / f"{i:02d}.csv")]
        if probe is not None:
            probe.arm()
        t0 = time.perf_counter()
        try:
            code = laserclock.cli.main(argv)
        except Exception:  # an uncaught library error is a failed experiment
            traceback.print_exc()
            code = 1
        seconds.append(time.perf_counter() - t0)
        codes.append(code)
    wall_s = time.perf_counter() - start
    cpu_s = _cpu_seconds() - cpu_start
    # before the checks, whose limit lookups would add spans of their own
    layers = tracing.layer_metrics(tracer) if tracer is not None else None

    results, lane_steps = [], 0
    for i, (exp, code) in enumerate(zip(experiments, codes)):
        entry = {"name": exp.name, "exit": code, "checks": [], "csv_sha256": None}
        if code == 0:
            path = workdir / f"{i:02d}.csv"
            rows, sidecar = _read_outputs(path)
            entry["csv_sha256"] = hashlib.sha256(path.read_bytes()).hexdigest()
            entry["checks"] = [dict(asdict(c), known_red=c.known_red, passed=c.passed,
                                    line=c.line())
                               for c in exp.check(rows, sidecar)]
            lane_steps += exp.lanes(rows, sidecar)
        entry["failed"] = code != 0 or any(not c["passed"] and not c["known_red"]
                                           for c in entry["checks"])
        results.append(entry)

    self_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    out = {"kind": kind, "setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu_s,
           "experiment_s": seconds,
           "experiments": results, "lane_steps": lane_steps,
           "peak_rss_mib": max(self_kib, child_kib) / 1024.0, "bindings_replaced": bindings,
           "environment": environment(laserclock)}
    if tracer is not None:
        out["layers"] = layers
        out["spans"] = tracer.spans
        out["span_summary"] = {k: {f: v for f, v in s.items() if f != "durations"}
                               for k, s in tracer.summary().items()}
    if probe is not None:
        out["peak_alloc_mib"] = {k: v / tracing.MIB for k, v in probe.peaks.items()}
    return out


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--root", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--kind", choices=("plain", "trace", "memory", "import"), required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--spawned-at", type=float, required=True,
                   help="time.monotonic() when the parent started this process")
    args = p.parse_args()
    laserclock = _import_laserclock(Path(args.root))
    if args.kind == "import":
        out = {"kind": "import", "setup_s": time.monotonic() - args.spawned_at}
    else:
        out = run_pass(laserclock, args.workload, args.seed, Path(args.workdir), args.kind,
                       args.spawned_at)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
