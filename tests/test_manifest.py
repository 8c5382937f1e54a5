import importlib.util
import json
import sys
from pathlib import Path

from dispatch import arctan2_target
from laserclock.cli import main

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def load_manifest():
    spec = importlib.util.spec_from_file_location("manifest", TOOLS / "manifest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


EXPERIMENTS = [("limits", ("limits", "--mu", "100", "--parties", "1,4")),
               ("phasevar", ("phasevar", "--mu", "25,100"))]


def test_manifest_names_each_moved_file_row_column_and_key(tmp_path):
    tool = load_manifest()
    old = tool.record(EXPERIMENTS, [1, 2], tmp_path / "old", main)
    assert sorted(old["files"]) == ["limits.seed1.csv", "limits.seed1.json",
                                    "limits.seed2.csv", "limits.seed2.json",
                                    "phasevar.seed1.csv", "phasevar.seed1.json",
                                    "phasevar.seed2.csv", "phasevar.seed2.json"]
    assert "numpy" in old["versions"]
    tool.record(EXPERIMENTS, [1, 2], tmp_path / "new", main)
    assert tool.compare(tmp_path / "old", tmp_path / "new") == []

    # move one variance by 1e-15 relative and add a sidecar key, then record
    # the manifest of the edited files as a new run would
    new = tmp_path / "new"
    csv_path = new / "phasevar.seed2.csv"
    lines = csv_path.read_text().splitlines()
    cells = lines[2].split(",")
    cells[6] = repr(float(cells[6]) * (1 + 1e-15))
    lines[2] = ",".join(cells)
    csv_path.write_text("\n".join(lines) + "\n")
    side_path = new / "limits.seed1.json"
    sidecar = json.loads(side_path.read_text())
    sidecar["results"]["extra"] = 1
    side_path.write_text(json.dumps(sidecar))
    manifest = json.loads((new / "manifest.json").read_text())
    manifest["files"].update({p.name: tool.hashlib.sha256(p.read_bytes()).hexdigest()
                              for p in (csv_path, side_path)})
    (new / "manifest.json").write_text(json.dumps(manifest))
    lines = tool.compare(tmp_path / "old", new)
    assert len(lines) == 2
    assert lines[0] == "limits.seed1.json: results.extra added"
    assert lines[1].startswith("phasevar.seed2.csv: first at row 2, column "
                               "phase_variance_rad2: ")
    assert lines[1].endswith("columns phase_variance_rad2 (largest relative move 1.11e-15)")


def test_manifest_reads_the_benchmark_workloads():
    tool = load_manifest()
    names = [name for name, _ in tool.workload_experiments(["spectral"])]
    assert names[:2] == ["linewidth-mu4-256", "phasevar-grid262144"]
    assert all(argv[0] in ("linewidth", "phasevar", "channel", "limits")
               for _, argv in tool.workload_experiments(["spectral"]))


def test_manifest_records_the_arctan2_target_and_names_moved_versions(tmp_path, monkeypatch):
    tool = load_manifest()
    old = tool.record(EXPERIMENTS[:1], [1], tmp_path / "old", main)
    assert old["versions"]["numpy_arctan2_float64"] == arctan2_target()
    tool.record(EXPERIMENTS[:1], [1], tmp_path / "new", main)
    assert tool.version_difference(tmp_path / "old", tmp_path / "new") == ""

    # a record from a host at another dispatch level, and one that predates the key
    path = tmp_path / "new" / "manifest.json"
    manifest = json.loads(path.read_text())
    other = "baseline(X86_V2)" if arctan2_target() == "X86_V4" else "X86_V4"
    manifest["versions"]["numpy_arctan2_float64"] = other
    path.write_text(json.dumps(manifest))
    assert tool.version_difference(tmp_path / "old", tmp_path / "new") == (
        "versions differ, so files may differ with no code change: numpy_arctan2_float64 "
        f"{arctan2_target()} -> {other}")
    del manifest["versions"]["numpy_arctan2_float64"]
    path.write_text(json.dumps(manifest))
    assert tool.version_difference(tmp_path / "new", tmp_path / "old").endswith(
        f"numpy_arctan2_float64 unrecorded -> {arctan2_target()}")
    assert tool.compare(tmp_path / "old", tmp_path / "new") == []

    # a numpy without a dispatch report records the target as unknown
    monkeypatch.setitem(sys.modules, "numpy.lib.introspect", None)
    assert tool.arctan2_target() == "unknown"
