"""Record the sha256 of every CSV and sidecar a set of benchmark workloads
writes, and check a later run against that record.

    python tools/manifest.py --workloads spectral,ensemble --seeds 1,2,3 --out A
    python tools/manifest.py --workloads spectral,ensemble --seeds 1,2,3 --out B --check A

Each experiment of a workload (its argv in ``benchmarks/workloads.py``, which
is read, not edited) runs at each seed through ``laserclock.cli.main``, in
this process, with ``--seed`` and ``--out`` added.  Its CSV and sidecar go
into the ``--out`` directory as ``<experiment>.seed<s>.csv`` and ``.json``,
beside ``manifest.json``: the sha256 of each file, with the numpy version and
scipy's if it imports.  ``laserclock`` is imported from ``--src`` (default:
this checkout's ``src``), so one copy of this tool can record any tree.

``--check A`` then compares the new run with the record in A and prints one
line per file that differs: for a CSV, its first differing row and column,
and each differing column with the largest relative move of a cell in it;
for a sidecar, each key that was added, removed or changed.  The exit status
is 1 if any file differs, else 0.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import importlib.util
import io
import json
import sys
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def workload_experiments(names: list[str]) -> list[tuple[str, tuple]]:
    """(name, argv) of each experiment of the named workloads, in order."""
    spec = importlib.util.spec_from_file_location("workloads",
                                                  ROOT / "benchmarks" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return [(exp.name, exp.argv) for name in names for exp in module.WORKLOADS[name]]


def record(experiments, seeds, out_dir: Path, main) -> dict:
    """Run each (name, argv) at each seed through ``main`` into ``out_dir``
    and write and return its manifest."""
    import numpy

    out_dir.mkdir(parents=True, exist_ok=True)
    files = {}
    for name, argv in experiments:
        for seed in seeds:
            csv_path = out_dir / f"{name}.seed{seed}.csv"
            with warnings.catch_warnings(), contextlib.redirect_stderr(io.StringIO()):
                warnings.simplefilter("ignore")
                status = main([*argv, "--seed", str(seed), "--out", str(csv_path)])
            if status != 0:
                raise RuntimeError(f"{' '.join(argv)} --seed {seed} exited {status}")
            for path in (csv_path, csv_path.with_suffix(".json")):
                files[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    versions = {"numpy": numpy.__version__}
    try:
        import scipy
        versions["scipy"] = scipy.__version__
    except ImportError:
        pass
    manifest = {"versions": versions, "files": files}
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    return manifest


def _relative_move(old: str, new: str) -> float:
    """|new/old - 1| of two numeric cells (|new - old| if old is 0); nan if
    either is not a number."""
    try:
        a, b = float(old), float(new)
    except ValueError:
        return float("nan")
    return abs(b / a - 1.0) if a else abs(b - a)


def _csv_difference(old: Path, new: Path) -> str:
    with old.open(newline="") as fh:
        a = list(csv.reader(fh))
    with new.open(newline="") as fh:
        b = list(csv.reader(fh))
    if len(a) != len(b) or any(len(x) != len(y) for x, y in zip(a, b)):
        return f"{len(a)} -> {len(b)} rows, or rows of other lengths"
    cells = [(i, column, x, y) for i, (row_a, row_b) in enumerate(zip(a, b))
             for column, x, y in zip(a[0], row_a, row_b) if x != y]
    i, column, x, y = cells[0]
    moves = {}
    for _, name, x_, y_ in cells:
        moves[name] = max(moves.get(name, 0.0), _relative_move(x_, y_))
    summary = ", ".join(f"{name} (largest relative move {move:.3g})"
                        for name, move in moves.items())
    return f"first at row {i}, column {column}: {x} -> {y}; columns {summary}"


def _flatten(value, prefix=""):
    if isinstance(value, dict):
        out = {}
        for key, item in value.items():
            out.update(_flatten(item, f"{prefix}{key}."))
        return out
    return {prefix[:-1]: value}


def _json_difference(old: Path, new: Path) -> str:
    a, b = (_flatten(json.loads(p.read_text())) for p in (old, new))
    parts = [f"{key} added" for key in sorted(b.keys() - a.keys())]
    parts += [f"{key} removed" for key in sorted(a.keys() - b.keys())]
    parts += [f"{key} changed" for key in sorted(a.keys() & b.keys()) if a[key] != b[key]]
    return "; ".join(parts) or "same keys and values, other bytes"


def compare(old_dir: Path, new_dir: Path) -> list[str]:
    """One line per file whose sha256 differs between the two records."""
    old = json.loads((old_dir / "manifest.json").read_text())["files"]
    new = json.loads((new_dir / "manifest.json").read_text())["files"]
    lines = []
    for name in sorted(old.keys() | new.keys()):
        if name not in new or name not in old:
            lines.append(f"{name}: only in {old_dir if name in old else new_dir}")
        elif old[name] != new[name]:
            diff = _csv_difference if name.endswith(".csv") else _json_difference
            lines.append(f"{name}: {diff(old_dir / name, new_dir / name)}")
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", required=True, help="comma-separated workload names")
    p.add_argument("--seeds", required=True, help="comma-separated seeds")
    p.add_argument("--out", required=True, type=Path, help="directory of the new record")
    p.add_argument("--check", type=Path, help="directory of an earlier record")
    p.add_argument("--src", type=Path, default=ROOT / "src",
                   help="directory that laserclock is imported from")
    args = p.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    from laserclock.cli import main as cli_main

    experiments = workload_experiments(args.workloads.split(","))
    seeds = [int(s) for s in args.seeds.split(",")]
    manifest = record(experiments, seeds, args.out, cli_main)
    print(f"{len(manifest['files'])} files recorded in {args.out}")
    if args.check is None:
        return 0
    lines = compare(args.check, args.out)
    print("\n".join(lines) if lines else f"every file matches {args.check}")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
