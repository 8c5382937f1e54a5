"""Tests of the benchmark itself: ``python3 -m pytest -q benchmarks``."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import EXPECTED_CALLS, WORKLOADS  # noqa: E402

from laserclock.cli import main as cli_main  # noqa: E402


def _with_workers(argv, workers):
    argv = list(argv)
    argv[argv.index("--workers") + 1] = str(workers)
    return argv


def test_pooled_csv_identical_across_worker_counts(tmp_path):
    exp = next(e for e in WORKLOADS["pooled"] if e.name == "sync-sql-M8-pool")
    outs = {}
    for workers in (2, 1):
        out = tmp_path / f"w{workers}.csv"
        assert cli_main(_with_workers(exp.argv, workers) + ["--seed", "5", "--out", str(out)]) == 0
        outs[workers] = out
    assert outs[1].read_bytes() == outs[2].read_bytes()
    side = {w: json.loads(p.with_suffix(".json").read_text()) for w, p in outs.items()}
    for s in side.values():
        s["config"].pop("workers")
    assert side[1] == side[2]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_pass_sees_every_call(workload):
    run.WORK.mkdir(exist_ok=True)
    traced = run.run_pass("trace", workload, 3)
    plain = run.run_pass("plain", workload, 3)
    for name, want in EXPECTED_CALLS[workload].items():
        assert traced["span_summary"].get(name, {}).get("calls", 0) == want, name
    assert all(ok for ok, _ in run.span_check(workload, [traced], [plain]))
    assert traced["layers"]["tracking.pool_starts"] == (30 if workload == "pooled" else 0)
    assert not any(e["failed"] for e in traced["experiments"] + plain["experiments"])


def _result(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_metrics_match_benchmark_json(trace, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "spectral",
                           "--seed", "2", "--seconds", "1", "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = _result(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in spec[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def test_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "ensemble",
                           "--seed", "1", "--seconds", "5", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
