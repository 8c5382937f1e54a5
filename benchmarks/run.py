"""laserclock benchmark: run one workload, check its outputs, print its metrics.

    python3 benchmarks/run.py --workload ensemble --seed 1 --seconds 40 --trace 0

Every pass runs the workload's experiment list (workloads.py) in a fresh
Python process through ``laserclock.cli.main(argv)``, with ``--seed`` and
``--out`` into a scratch directory under ``.bench_work/``.  Passes repeat
until ``--seconds`` is spent and the metrics are medians over passes.

--trace 0  end-to-end metrics from untraced passes
--trace 1  per-layer metrics: untraced and traced passes alternate, then one
           tracemalloc pass (see NOTES.md for the layer -> metric map)

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
name every metric with its unit, every closed-form check and the
environment.  A full record of the run, spans included, goes to
``.bench_work/records/``.  Exits 2 without a result when the checkout holds
no laserclock source or a pass fails to run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
PASS_TIMEOUT_S = 150
# a tracemalloc pass takes at most this many untraced passes' time
MEMORY_PASS_FACTOR = 1.5

sys.path.insert(0, str(HERE))
from workloads import EXPECTED_CALLS, KNOWN_RED, WORKLOADS  # noqa: E402


class PassError(RuntimeError):
    pass


def declared_units(section):
    """{metric name: unit} of one section of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[section]}


def run_pass(kind, workload, seed):
    """Run one pass in a fresh process; returns its JSON record."""
    workdir = tempfile.mkdtemp(prefix=f"{kind}-", dir=WORK)
    cmd = [sys.executable, str(HERE / "one_pass.py"), "--root", str(ROOT),
           "--workload", workload, "--seed", str(seed), "--kind", kind, "--workdir", workdir]
    try:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd + ["--spawned-at", repr(spawned)], cwd=ROOT,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                                start_new_session=True)
        try:
            stdout, stderr = proc.communicate(timeout=PASS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise PassError(f"{kind} pass exceeded {PASS_TIMEOUT_S} s")
        elapsed = time.monotonic() - spawned
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        raise PassError(f"{kind} pass exited {proc.returncode}:\n{stderr[-4000:]}")
    out = json.loads(stdout.splitlines()[-1])
    out["elapsed_s"] = elapsed
    out["stderr"] = stderr
    return out


def run_passes(kinds, workload, seed, deadline, reserve=0.0):
    """Repeat the cycle of pass kinds until another cycle, plus ``reserve``
    times the first kind's pass, would overrun the deadline; always at least
    one cycle."""
    cycles = []
    while True:
        cycle = {kind: run_pass(kind, workload, seed) for kind in kinds}
        cycles.append(cycle)
        took = sum(p["elapsed_s"] for p in cycle.values())
        if time.monotonic() + took + reserve * cycle[kinds[0]]["elapsed_s"] > deadline:
            return cycles


def source_identity():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "laserclock").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
        commit = git.stdout.strip() or None
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def judge(passes):
    """Correctness over passes: (correct, attempted, failed, fraction of
    checks passed, messages)."""
    attempted = failed = passed = total = 0
    messages = []
    digests = {}
    for p in passes:
        for e in p["experiments"]:
            attempted += 1
            failed += e["failed"]
            passed += sum(c["passed"] for c in e["checks"])
            total += len(e["checks"])
            if e["exit"] != 0:
                messages.append(f"FAIL {e['name']} exited {e['exit']} ({p['kind']} pass)")
            if e["csv_sha256"] is not None:
                digests.setdefault(e["name"], set()).add(e["csv_sha256"])
    nondeterministic = sorted(name for name, d in digests.items() if len(d) > 1)
    for name in nondeterministic:
        messages.append(f"FAIL {name}: CSV differs between passes of one seed")
    correct = failed == 0 and not nondeterministic
    return correct, attempted, failed, passed / total if total else 1.0, messages


def span_check(workload, traced, plain):
    """Compare traced call and lane-step counts with what the workload implies."""
    lines = []
    for p in traced:
        calls = p["span_summary"]
        for name, want in EXPECTED_CALLS[workload].items():
            got = calls.get(name, {}).get("calls", 0)
            lines.append((got == want, f"{name} calls {got}, expected {want}"))
        got, want = p["layers"]["tracking.lane_steps"], plain[0]["lane_steps"]
        lines.append((got == want,
                      f"tracking.lane_steps {got} from run_tracking arguments, {want} from outputs"))
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "laserclock" / "cli.py").is_file():
        print(f"benchmark: no laserclock source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    deadline = time.monotonic() + args.seconds
    try:
        run_pass("import", args.workload, args.seed)   # checks the checkout, warms caches
        if args.trace:
            cycles = run_passes(("plain", "trace"), args.workload, args.seed, deadline,
                                reserve=MEMORY_PASS_FACTOR)
            memory = run_pass("memory", args.workload, args.seed)
        else:
            cycles = run_passes(("plain",), args.workload, args.seed, deadline)
    except PassError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2

    plain = [c["plain"] for c in cycles]
    traced = [c["trace"] for c in cycles] if args.trace else []
    every = plain + traced + ([memory] if args.trace else [])
    correct, attempted, failed, passed_frac, messages = judge(every)

    wall_s = statistics.median(p["wall_s"] for p in plain)
    lane_steps = plain[0]["lane_steps"]
    env = dict(plain[0]["environment"], seed=args.seed, workload=args.workload,
               **source_identity())
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(plain)} untraced and {len(traced)} traced passes")
    print("environment " + json.dumps(env, sort_keys=True))
    for e in plain[0]["experiments"]:
        for c in e["checks"]:
            print(f"check {e['name']}: {c['line']}")
            if c["known_red"]:
                print(f"      known red: {KNOWN_RED[c['label']]}")
    for m in messages:
        print(m)

    if args.trace:
        checks = span_check(args.workload, traced, plain)
        for ok, line in checks:
            print(f"span check {'PASS' if ok else 'FAIL'}: {line}")
        metrics = {name: statistics.median(p["layers"][name] for p in traced)
                   for name in traced[0]["layers"]}
        metrics["trace_overhead_s"] = statistics.median(p["wall_s"] for p in traced) - wall_s
        metrics["lane_steps_per_s"] = lane_steps / wall_s
        for name in ("tracking.run_tracking", "channel.decohere"):
            metrics[f"{name}.peak_alloc_mib"] = memory["peak_alloc_mib"].get(name, 0.0)
        metrics["trace.span_check_failures"] = sum(not ok for ok, _ in checks)
    else:
        metrics = {
            "wall_s": wall_s,
            "setup_s": statistics.median(p["setup_s"] for p in plain),
            "peak_rss_mib": statistics.median(p["peak_rss_mib"] for p in plain),
            "checks_passed_frac": passed_frac,
        }
        lanes = (f"{lane_steps / wall_s:.6g} 1/s ({lane_steps} lane-steps per pass)"
                 if lane_steps else "n/a (no tracking runs in this workload)")
        print(f"lane_steps_per_s {lanes}")

    print(f"failed_frac {failed / attempted:.4g} ({failed} of {attempted} experiments)")
    print("untraced pass wall_s: " + " ".join(f"{p['wall_s']:.4f}" for p in plain))
    units = declared_units("per_layer" if args.trace else "end_to_end")
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} are computed "
                           "or declared in BENCHMARK.json, not both")
    for name in sorted(metrics):
        print(f"{name} {metrics[name]:.6g} {units[name]}")

    (WORK / "records").mkdir(exist_ok=True)
    record = {"args": vars(args), "environment": env, "metrics": metrics,
              "correct": correct, "attempted": attempted, "failed": failed,
              "passes": every}
    path = WORK / "records" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
