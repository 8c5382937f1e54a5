import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import laserclock
from laserclock import fock
from laserclock.cli import COMMANDS, main


def read(path):
    return path.read_bytes()


def rows_of(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def test_limits_values(tmp_path, capsys):
    out = tmp_path / "limits.csv"
    assert main(["limits", "--mu", "1e6", "--parties", "16", "--out", str(out)]) == 0
    row = rows_of(out)[0]
    assert float(row["hl_mse_rad2"]) == pytest.approx(1e-6)
    assert float(row["sql_mse_rad2"]) == pytest.approx(2e-6)
    for col in ("seed", "dt", "trials"):
        assert col in row
    # splitting one coherent state 16 ways is sqrt(16) worse than the HL laser
    results = json.loads(out.with_suffix(".json").read_text())["results"]
    assert results["min_split_over_hl_mse"] == pytest.approx(4.0)


_LIMITS_PHYSICAL_CSV = """\
seed,dt,trials,mu_photons,parties,hl_mse_rad2,sql_mse_rad2,split_mse_rad2,clone_mse_rad2,\
physical_mse_rad2
1,0,0,1000000.0,1,2.5e-07,5e-07,2.5e-07,2.5e-07,4.560922314528504e-05
1,0,0,1000000.0,4,5e-07,1e-06,1e-06,6.25e-07,9.121844629057009e-05
1,0,0,1000000.0,16,1e-06,2e-06,4e-06,7.1875e-07,0.00018243689258114017
"""


def test_limits_physical_csv_is_pinned(tmp_path):
    out = tmp_path / "limits.csv"
    assert main(["limits", "--mu", "1e6", "--parties", "1,4,16", "--power", "1e-3",
                 "--wavelength", "600e-9", "--linewidth-hz", "1e6", "--seed", "1",
                 "--out", str(out)]) == 0
    assert out.read_text() == _LIMITS_PHYSICAL_CSV


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("argv, csv_sha256, sidecar_sha256", [
    # one M: party p at derive_seed(3, p)
    ("sync --kappa 1 --mu 1e6 --parties 4 --trials 20 --seed 3",
     "b209bda86b8efc8cb236fdf1e689655d9a57e781682bda379605df812a3d63e7",
     "6a8083aad7f9049a0690e1baaa1e1bee1945d3749b9a4ec1398540b48d706cd2"),
    # several M: party p of the i-th M at derive_seed(derive_seed(2, 1000 + i), p)
    ("sync --kappa 1 --mu 1e6 --parties 1,4 --regime sql --trials 20 --seed 2",
     "f5b6a754a757fbae5c17da56453db2ebdadc30f962e267fadbd7f6a939a65d72",
     "ee6ea20cd52d8e3fc2e29f89412db3945674797be21eed07573e1ad929b1e119"),
], ids=["one-m-hl", "several-m-sql"])
def test_sync_outputs_are_pinned(tmp_path, argv, csv_sha256, sidecar_sha256):
    out = tmp_path / "sync.csv"
    assert main(argv.split() + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == csv_sha256
    assert hashlib.sha256(out.with_suffix(".json").read_bytes()).hexdigest() == sidecar_sha256


_PINNED = [
    ("track --flux 1e3 --linewidth 1 --trials 20 --seed 3",
     "22c106d97b4437bc6801da64d4f660451b368e60b912d6428c23dc61e9ff6e89",
     "0565ff65e239c4d5f24a3128550e7d9b5d1928aeaf08068193805c5987dec742"),
    # at the optimal bandwidth the engine's prediction is 1/sqrt(2N)
    ("track --mode heterodyne --flux 1e3 --linewidth 1 --trials 20 --seed 3",
     "94fadafd67b4a3abb96e92b5d9af68de070fcca1119de0caadc41d8e7e63224e",
     "0cb22e84020b7d970b52b0ceb90883463e5cb6a8b6ea420b5e9c3ea6885a4fe0"),
    ("sweep --axis n --values 1e2,1e3 --trials 20 --seed 5",
     "45a9e303d3b03349289a73dbc5a5f2e3e35eea48cdfbbdb786cf5ef66af372fe",
     "22e874690ec32736b888340ebf5993c56d64d5b8e44646bc6042512ce9e648b2"),
    ("linewidth --kappa 1 --mu 4,16",
     "cc20ca3d67168a8961d80c6b325fe71182ba26d1355666217e5c2e39d28651ac",
     "8b8f071e410f7c22c152fe0c9a6d53b6031bc5cdedbf3fcc7d5974a108ed117b"),
    ("phasevar --mu 25,100 --grid-size 1024",
     "78c0519426376845748096eb76edad222db5536daebbe8a3c45ad963309925da",
     "1d9b595c0f1057314a86dfaf2b59641d4128c04863e005e1c2028072cbc5873b"),
    # the benchmark's scale
    ("phasevar --mu 1e4,1e5",
     "3a67c15c7fb604c84213abaf70b3fbfc23771fe8588ad922db4dc1a270586406",
     "cdcb1c25b620c3aaae65556245e5b2870cdd6762e624690fd4507916da28fe0e"),
]


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_small_runs_are_pinned(tmp_path):
    # the CSV and sidecar of one small run per subcommand, and the lattice
    # cells (seed ... probability, the first 11 columns) of a channel run;
    # a pin is re-recorded only with a CHANGES.md entry naming the move
    out = tmp_path / "run.csv"
    for argv, csv_sha256, sidecar_sha256 in _PINNED:
        assert main(argv.split() + ["--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == csv_sha256, argv
        sidecar = out.with_suffix(".json").read_bytes()
        assert hashlib.sha256(sidecar).hexdigest() == sidecar_sha256, argv
    assert main(["channel", "--alpha-mod", "5", "--alpha-arg", "0.9272952180016122",
                 "--out", str(out)]) == 0
    cells = b"".join(b",".join(line.split(b",")[:11]) + b"\n"
                     for line in out.read_bytes().splitlines())
    assert hashlib.sha256(cells).hexdigest() == \
        "c8383bcf320f391bb8056569dc33267b8fae4d3a04c00c4a46927429f49e69f0"


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("argv", [argv for argv, _, _ in _PINNED] + [
    "sync --kappa 1 --mu 1e6 --parties 1,4 --regime sql --trials 20 --seed 2",
    "channel --alpha-mod 5 --alpha-arg 0.9272952180016122",
    "limits --mu 1e6 --parties 1,4,16 --power 1e-3 --wavelength 600e-9 --linewidth-hz 1e6",
])
def test_stdout_is_the_out_file(tmp_path, capsys, argv):
    # one small run per subcommand prints, byte for byte, the CSV that --out
    # writes, and writes a flag as 0 or 1, never as True or False
    out = tmp_path / "run.csv"
    assert main(argv.split() + ["--out", str(out)]) == 0
    capsys.readouterr()
    assert main(argv.split()) == 0
    printed = capsys.readouterr().out
    assert printed.encode() == out.read_bytes()
    assert not {cell for line in printed.splitlines() for cell in line.split(",")} & \
        {"True", "False"}


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_track_predicts_at_its_own_bandwidth(tmp_path):
    # a heterodyne track at a set bandwidth writes the prediction the sweep
    # writes there, ell/(2 lambda) + lambda/(4 f), not the optimum's 1/sqrt(2N)
    beam = ["--mode", "heterodyne", "--flux", "1e4", "--linewidth", "1", "--trials", "2"]
    track, sweep = tmp_path / "track.csv", tmp_path / "sweep.csv"
    assert main(["track", *beam, "--bandwidth", "50", "--out", str(track)]) == 0
    assert main(["sweep", *beam, "--axis", "bandwidth", "--values", "50",
                 "--out", str(sweep)]) == 0
    (t,), (s,) = rows_of(track), rows_of(sweep)
    assert t["predicted_rad2"] == s["predicted_rad2"] == repr(1.0 / 100 + 50 / 4e4)


@pytest.mark.parametrize("argv, named", [
    # every limit overflows (the sidecar ratio was a NaN, which is not JSON)
    ("limits --mu 1e-320 --parties 1,4", "mu 1e-320 "),
    # 4 mu overflows: every limit underflows to 0
    ("limits --mu 1e308", "mu 1e+308 "),
    ("limits --mu 100 --parties 1,4 --power 1e-320 --wavelength 6e-7 --linewidth-hz 1e6",
     "power=1e-320,"),
])
def test_limits_that_are_not_finite_are_refused(tmp_path, capsys, argv, named):
    out = tmp_path / "limits.csv"
    assert main(argv.split() + ["--out", str(out)]) == 2
    assert named in capsys.readouterr().err
    assert not out.exists() and not out.with_suffix(".json").exists()


def test_limits_prints_table_without_out(capsys):
    assert main(["limits", "--mu", "1e6", "--parties", "16"]) == 0
    text = capsys.readouterr().out
    assert "hl_mse_rad2" in text
    assert "1e-06" in text


def test_track_determinism(tmp_path):
    args = ["track", "--mode", "adaptive", "--flux", "1e4", "--linewidth", "1",
            "--dt", "auto", "--trials", "200", "--seed", "7"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert read(out1) == read(out2)


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_track_worker_count_invariance(tmp_path):
    base = ["track", "--mode", "adaptive", "--flux", "1e3", "--linewidth", "1",
            "--trials", "64", "--seed", "3"]
    out1, out2 = tmp_path / "w1.csv", tmp_path / "w2.csv"
    assert main(base + ["--workers", "1", "--out", str(out1)]) == 0
    assert main(base + ["--workers", "2", "--out", str(out2)]) == 0
    assert read(out1) == read(out2)


def test_sidecar_rerun_reproduces_output(tmp_path):
    out1 = tmp_path / "run.csv"
    assert main(["track", "--mode", "heterodyne", "--flux", "1e3", "--linewidth", "1",
                 "--trials", "100", "--seed", "11", "--out", str(out1)]) == 0
    sidecar = tmp_path / "run.json"
    meta = json.loads(sidecar.read_text())
    assert meta["subcommand"] == "track"
    assert meta["version"]
    out2 = tmp_path / "rerun.csv"
    assert main(["track", "--config", str(sidecar), "--out", str(out2)]) == 0
    assert read(out1) == read(out2)


def _flag(name, values):
    return values.map(lambda v: [name, v if isinstance(v, str) else repr(v)])


def _optional(name, values):
    return st.one_of(st.just([]), _flag(name, values))


def _joined(*parts):
    return st.tuples(*parts).map(lambda ps: sum(ps, []))


def _csv(values, **size):
    return st.lists(values, min_size=1, **size).map(lambda vs: ",".join(map(repr, vs)))


_SEED = _optional("--seed", st.integers(0, 2 ** 32 - 1))
_CLI_RUNS = dict(
    limits=_joined(st.just(["limits"]), _flag("--mu", st.floats(1.0, 1e12)),
                   _optional("--parties", _csv(st.integers(1, 64), max_size=3)),
                   st.one_of(st.just([]),
                             _joined(_flag("--power", st.floats(1e-6, 1.0)),
                                     _flag("--wavelength", st.floats(4e-7, 2e-6)),
                                     _flag("--linewidth-hz", st.floats(1.0, 1e7)))),
                   _SEED),
    phasevar=_joined(st.just(["phasevar"]), _flag("--mu", _csv(st.floats(1.0, 100.0), max_size=3)),
                     _optional("--grid-size", st.integers(256, 2048)), _SEED),
    linewidth=_joined(st.just(["linewidth"]), _flag("--kappa", st.floats(0.1, 10.0)),
                      _flag("--mu", _csv(st.floats(4.0, 10.0), max_size=2)),
                      _optional("--truncation", st.integers(40, 56)), _SEED),
    track=_joined(st.just(["track"]), _flag("--mode", st.sampled_from(["adaptive", "heterodyne"])),
                  _flag("--flux", st.floats(1e2, 1e4)), _flag("--linewidth", st.floats(0.5, 2.0)),
                  _flag("--trials", st.integers(1, 3)), _SEED),
    sync=_joined(st.just(["sync"]), _flag("--kappa", st.floats(0.5, 2.0)),
                 _flag("--mu", st.floats(1e2, 1e5)),
                 _optional("--parties", st.lists(st.integers(1, 3), min_size=1, max_size=3,
                                                 unique=True).map(lambda ms: ",".join(map(str, ms)))),
                 _optional("--regime", st.sampled_from(["hl", "sql"])),
                 _flag("--trials", st.integers(1, 3)), _SEED),
    sweep=st.one_of(
        _joined(st.just(["sweep", "--axis"]), st.sampled_from([["n"], ["flux"]]),
                _flag("--values", _csv(st.floats(1e2, 1e4), max_size=3))),
        _joined(st.just(["sweep", "--axis", "linewidth"]), _flag("--flux", st.floats(1e2, 1e4)),
                _flag("--values", _csv(st.floats(0.5, 2.0), max_size=3))),
    ).flatmap(lambda head: _joined(
        st.just(head), _optional("--mode", st.sampled_from(["adaptive", "heterodyne"])),
        _flag("--trials", st.integers(1, 3)), _SEED)),
)


@pytest.mark.parametrize("cmd", sorted(_CLI_RUNS))
@settings(max_examples=10, deadline=None, derandomize=True)
@given(data=st.data())
def test_sidecar_rerun_is_byte_identical(cmd, data):
    # any valid run reproduces its CSV and its sidecar from the sidecar alone
    argv = data.draw(_CLI_RUNS[cmd])
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        first, again = Path(tmp) / "first.csv", Path(tmp) / "again.csv"
        assert main(argv + ["--out", str(first)]) == 0
        sidecar = first.with_suffix(".json")
        assert main([argv[0], "--config", str(sidecar), "--out", str(again)]) == 0
        assert read(again) == read(first)
        assert read(again.with_suffix(".json")) == read(sidecar)


def test_flags_override_config_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mu": 100.0, "parties": "4"}))
    out = tmp_path / "o.csv"
    assert main(["limits", "--config", str(cfg), "--mu", "400", "--out", str(out)]) == 0
    row = rows_of(out)[0]
    assert float(row["mu_photons"]) == 400.0
    assert row["parties"] == "4"


def test_parser_is_built_once_per_process(monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    assert main(["limits", "--mu", "100"]) == 0
    first = len(built)
    assert main(["limits", "--mu", "400"]) == 0
    assert len(built) == first and built.count("laserclock") <= 1


def test_module_entry_point():
    # python -m laserclock: the version, every flag of the table in each
    # subcommand's help, and a usage error's exit status and message
    src = str(Path(laserclock.__file__).resolve().parents[1])

    def run(*args):
        return subprocess.run([sys.executable, "-m", "laserclock", *args], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": src})

    out = run("--version")
    assert out.returncode == 0 and out.stdout.strip() == laserclock.__version__
    for name, cmd in COMMANDS.items():
        out = run(name, "--help")
        assert out.returncode == 0
        for dest in [dest for dest, _, _ in cmd.flags] + ["seed", "config", "out"]:
            assert "--" + dest.replace("_", "-") in out.stdout, (name, dest)
    out = run("limits")
    assert out.returncode == 2 and "--mu is required" in out.stderr


@pytest.mark.parametrize("argv, message", [
    ("limits --mu", "argument --mu: expected one argument"),
    ("limits --mu 1 --bogus 2", "unrecognized arguments: --bogus 2"),
    ("nosuch", "invalid choice: 'nosuch'"),
])
def test_malformed_argv_returns_2(capsys, argv, message):
    # argparse's usage error is returned, not raised as SystemExit, so an
    # in-process caller keeps running; the usage goes to stderr
    assert main(argv.split()) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: laserclock") and message in err


def test_help_and_version_return_0(capsys):
    assert main(["--version"]) == 0
    assert capsys.readouterr().out.strip() == laserclock.__version__
    assert main(["limits", "--help"]) == 0
    assert "--parties" in capsys.readouterr().out


def test_config_values_take_their_flag_type(tmp_path):
    # a config number or string is converted as the flag's text would be
    flag = tmp_path / "flag.csv"
    assert main(["limits", "--mu", "100", "--out", str(flag)]) == 0
    for i, value in enumerate((100, "100")):
        cfg, out = tmp_path / f"c{i}.json", tmp_path / f"c{i}.csv"
        cfg.write_text(json.dumps({"mu": value}))
        assert main(["limits", "--config", str(cfg), "--out", str(out)]) == 0
        assert read(out) == read(flag)


def test_sync_sweep_exponent_column(tmp_path):
    out = tmp_path / "sync.csv"
    assert main(["sync", "--kappa", "1", "--mu", "100", "--parties", "1,4,16",
                 "--regime", "hl", "--trials", "100", "--seed", "7",
                 "--out", str(out)]) == 0
    rows = rows_of(out)
    assert [r["parties"] for r in rows] == ["1", "4", "16"]
    exps = {r["scaling_exponent"] for r in rows}
    assert len(exps) == 1
    assert 0.45 <= float(exps.pop()) <= 0.55
    for r in rows:
        assert float(r["mean_mse_rad2"]) == pytest.approx(float(r["predicted_rad2"]),
                                                          rel=0.15)


def test_sweep_adaptive_over_n(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--mode", "adaptive", "--axis", "n",
                 "--values", "1e2,1e3,1e4", "--trials", "200", "--seed", "5",
                 "--out", str(out)]) == 0
    rows = rows_of(out)
    assert len(rows) == 3
    for r in rows:
        n = float(r["value"])
        assert float(r["mse_rad2"]) == pytest.approx(1 / (2 * math.sqrt(n)), rel=0.10)


def test_sweep_bandwidth_minimum_flagged(tmp_path):
    lam_star = math.sqrt(2 * 1e3 * 1.0)
    values = ",".join(repr(float(v)) for v in lam_star * np.logspace(-0.5, 0.5, 5))
    out = tmp_path / "bw.csv"
    assert main(["sweep", "--mode", "heterodyne", "--axis", "bandwidth",
                 "--values", values, "--flux", "1e3", "--linewidth", "1",
                 "--trials", "100", "--seed", "2", "--out", str(out)]) == 0
    rows = rows_of(out)
    flagged = [r for r in rows if r["is_minimum"] == "1"]
    assert len(flagged) == 1
    assert min(rows, key=lambda r: float(r["mse_rad2"])) is \
        max(rows, key=lambda r: int(r["is_minimum"]))
    # the flagged minimum approximates 1/sqrt(2N)
    assert float(flagged[0]["mse_rad2"]) == pytest.approx(1 / math.sqrt(2e3), rel=0.15)


def test_sweep_empty_values_is_usage_error(tmp_path):
    out = tmp_path / "nope.csv"
    assert main(["sweep", "--mode", "adaptive", "--axis", "n", "--values", "",
                 "--out", str(out)]) == 2
    assert not out.exists()


def test_invalid_config_is_usage_error(tmp_path):
    assert main(["track", "--mode", "adaptive", "--flux", "-3",
                 "--linewidth", "1"]) == 2
    assert main(["sync", "--kappa", "1", "--mu", "0", "--parties", "2"]) == 2
    # explicit values are used as given, never replaced by the auto defaults
    track = ["track", "--mode", "adaptive", "--flux", "1e3", "--linewidth", "1"]
    for extra in (["--dt", "0"], ["--duration", "0"], ["--burn-in", "-1"],
                  ["--trials", "0"], ["--workers", "0"]):
        out = tmp_path / "bad.csv"
        assert main(track + extra + ["--out", str(out)]) == 2, extra
        assert not out.exists()
    assert main(["sync", "--kappa", "1", "--mu", "100", "--dt", "0"]) == 2


def _no_noise(*args, **kwargs):
    raise AssertionError("noise drawn")


def _no_boxes(*args, **kwargs):
    raise AssertionError("channel boxes listed")


def _no_state(*args, **kwargs):
    raise AssertionError("coherent state built")


@pytest.mark.parametrize("argv", [
    "track --flux inf --linewidth 1",
    "track --flux nan --linewidth 1",
    "track --flux 1e3 --linewidth inf",
    "track --flux 1e3 --linewidth nan",
    "track --flux 1e3 --linewidth 1 --dt inf",
    "track --flux 1e3 --linewidth 1 --dt nan",
    "track --flux 1e3 --linewidth 1 --seed -1",
    "sync --kappa inf --mu 100",
    "sync --kappa 1 --mu inf",
    "sync --kappa 1 --mu nan --parties 1,4",
    "sync --kappa 1 --mu 100 --parties 1,0",
    # a non-finite M is refused, not rounded (int(round(inf)) overflows)
    "sync --kappa 1 --mu 1e6 --parties 1e400 --trials 2",
    "sync --kappa 1 --mu 100 --parties 1,nan",
    # a sweep needs two distinct M values to fit its exponent
    "sync --kappa 1 --mu 100 --parties 2,2",
    "linewidth --kappa inf --mu 8",
    "linewidth --kappa 1 --mu 8,inf",
    "linewidth --kappa 1 --mu 8,-1",
    "limits --mu inf",
    "limits --mu nan",
    "limits --mu 100 --parties 1,0",
    "limits --mu 1e6 --parties inf",
    "limits --mu 1e6 --parties nan",
    "limits --mu 100 --power inf --wavelength 6e-7 --linewidth-hz 1e6",
    "limits --mu 100 --power 1e-3 --wavelength 0 --linewidth-hz 1e6",
    "limits --mu 100 --power 1e-3 --wavelength -1 --linewidth-hz 1e6",
    "limits --mu 100 --power 1e-3 --wavelength inf --linewidth-hz 1e6",
    "limits --mu 100 --power 1e-3 --wavelength nan --linewidth-hz 1e6",
    # the angular frequency 2 pi c / wavelength overflows
    "limits --mu 100 --power 1e-3 --wavelength 1e-320 --linewidth-hz 1e6",
    "channel --delta -1",
    # an explicit 0 is used as given, never replaced by the default
    "channel --delta 0",
    "channel --min-prob 0",
    "channel --delta inf",
    "channel --delta nan",
    "channel --alpha-arg inf",
    "channel --alpha-arg nan",
    "channel --alpha-mod inf",
    "channel --min-prob nan",
    "channel --min-prob -1",
    "channel --min-prob 2",
    # an old sidecar that still holds the removed mass_deficit key
    'channel --config {"mass_deficit": 1e-6}',
    "phasevar --mu 100 --grid-size x",  # still parsed as an int
    # refused before default_truncation(inf) or any state is built
    "phasevar --mu inf",
    "phasevar --mu 25,nan",
    "linewidth --kappa 1 --mu 16 --truncation 0",
    # a --config key that is not a flag of the subcommand is named and refused
    'track --flux 1e3 --linewidth 1 --config {"trails": 5}',
    'sync --kappa 1 --mu 100 --config {"parties": "1,4", "flux": 1e3}',
    "limits --mu 100 --config [1, 2]",
    # a config value is converted and checked as its flag's text would be
    'limits --config {"mu": "abc"}',
    'limits --config {"mu": [100]}',
    'track --flux 1e3 --linewidth 1 --config {"trials": 2.5}',
    'track --flux 1e3 --linewidth 1 --config {"mode": "balanced"}',
    'sync --kappa 1 --mu 100 --config {"seed": true}',
    "limits --mu 100 --config missing",  # no such file
    # errors far below what the tracking error wrap resolves; the whole
    # sweep is refused before its N = 1e50 point runs
    "sweep --axis n --values 1e300",
    "sweep --axis n --values 1e50,1e300 --mode heterodyne",
    # a sweep value outside its axis's domain is refused by the library
    "sweep --axis n --values 0",
    "sweep --axis flux --values -1",
    "sweep --axis linewidth --flux 1e3 --values 1e3,0",
    "sweep --mode heterodyne --axis bandwidth --flux 1e3 --values nan",
    # a bandwidth is checked by the library alone: refused in adaptive mode,
    # and refused when not positive before any prediction divides by it
    "track --flux 1e3 --linewidth 1 --bandwidth 100 => bandwidth 100.0 is for heterodyne mode only",
    "sweep --mode adaptive --axis bandwidth --flux 1e3 --values 100 => bandwidth 100.0 is for "
    "heterodyne mode only",
    "track --mode heterodyne --flux 1e3 --linewidth 1 --bandwidth 0 => bandwidth must be positive",
    "sweep --mode heterodyne --axis bandwidth --flux 1e3 --values 0 => bandwidth must be positive",
    # an infinite bandwidth predicts an infinite error and resolves dt to 0
    "track --mode heterodyne --flux 1e3 --linewidth 1 --bandwidth inf => dt and duration must be",
    # a flag the run would ignore is refused, not echoed into the outputs
    "limits --mu 100 --wavelength 6e-7 => --power, --wavelength and --linewidth-hz",
    "limits --mu 100 --power 1e-3 --wavelength 6e-7 => --power, --wavelength and --linewidth-hz",
    "sweep --axis n --values 1e3 --flux 5 => --flux is not used on the n axis",
    "sweep --axis flux --values 1e3 --flux 5 => --flux is not used on the flux axis",
    # a command-line value goes through the same conversion as a config value
    "track --flux abc --linewidth 1 => --flux: invalid value 'abc'",
    "track --flux 1e3 --linewidth 1 --mode balanced => --mode: 'balanced' is not one of",
    "limits --mu x => --mu: invalid value 'x'",
    "sync --kappa 1 --mu 100 --parties 1,nan => --parties: invalid value '1,nan'",
    # a required flag set neither on the command line nor by --config
    "track --linewidth 1 => --flux is required",
    "track --flux 1e3 => --linewidth is required",
    "sync --mu 100 => --kappa is required",
    "sync --kappa 1 => --mu is required",
    "linewidth --mu 8 => --kappa is required",
    "linewidth --kappa 1 => --mu is required",
    "phasevar --grid-size 1024 => --mu is required",
    "limits --parties 4 => --mu is required",
    "sweep --values 1e3 => --axis is required",
    "sweep --axis n => --values is required",
    'track --flux 1e3 --config {"linewidth": null} => --linewidth is required',
    'sync --mu 100 --config {"kappa": null} => --kappa is required',
    'linewidth --kappa 1 --config {"mu": null} => --mu is required',
    'phasevar --config {"mu": null} => --mu is required',
    'limits --config {"mu": null, "parties": "4"} => --mu is required',
    'sweep --axis n --config {"values": null} => --values is required',
])
def test_out_of_domain_input_is_usage_error(monkeypatch, capsys, tmp_path, argv):
    monkeypatch.setattr("laserclock.tracking._noise_columns", _no_noise)
    monkeypatch.setattr("laserclock.channel._window_masses", _no_boxes)
    monkeypatch.setattr("laserclock.fock.coherent_state", _no_state)
    argv, _, message = argv.partition(" => ")
    argv, _, config = argv.partition(" --config ")
    if config:
        if config != "missing":
            (tmp_path / "c.json").write_text(config)
        argv += f" --config {tmp_path / 'c.json'}"
    assert main(argv.split()) == 2
    err = capsys.readouterr().err
    assert message in err
    if config:  # the message names --config and the offending key or file
        named = [k for k in ("trails", "flux", "mu", "trials", "mode", "seed", "mass_deficit")
                 if k in config]
        assert "--config" in err and all(k in err for k in named)
        assert "c.json" in err or config != "missing"


@pytest.mark.parametrize("argv", [
    "sync --kappa 1 --mu 1 --parties 100000",      # 6e10 lane-steps
    "track --flux 1e4 --linewidth 1 --dt 1e-12",   # 3e13 lane-steps
    # 4e8 lanes x 2 steps: within 2**30 lane-steps, not at 300 a lane
    "sync --kappa 1 --mu 1e6 --parties 2000000 --dt 2e4",
    # the whole sweep is refused before M = 1 runs
    "sync --kappa 1 --mu 1 --parties 1,100000",
])
def test_over_budget_run_is_refused_at_once(monkeypatch, capsys, argv):
    monkeypatch.setattr("laserclock.tracking._noise_columns", _no_noise)
    start = time.perf_counter()
    assert main(argv.split()) == 2
    assert time.perf_counter() - start < 2.0
    assert "lane-steps" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_each_experiment_is_one_batch(monkeypatch):
    from laserclock import sync, tracking
    from laserclock.laserdyn import LaserParams

    calls = []
    batch = tracking.run_tracking_batch

    def counting(mode, points, **kw):
        calls.append(len(points))
        return batch(mode, points, **kw)

    monkeypatch.setattr(tracking, "run_tracking_batch", counting)
    monkeypatch.setattr(sync, "run_tracking_batch", counting)
    laser = LaserParams(kappa=1.0, mu=100.0)
    assert main(["sweep", "--axis", "n", "--values", "1e2,1e3,1e4", "--trials", "2"]) == 0
    sync.run_sync(laser, [3], trials=2)
    sync.run_sync(laser, [1, 2, 4], trials=2)
    assert calls == [3, 1, 3]


def test_channel_grid_over_budget_is_refused_at_once(capsys):
    # 8.1e300 boxes: refused by the cell budget before np.arange lists them
    assert main(["channel", "--delta", "1e-300"]) == 2
    assert "more than the 33554432 cells allowed" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    "channel --alpha-mod 1e30",
    "channel --alpha-mod 1e17",
    "channel --alpha-mod 1e30 --alpha-arg 1.5707963267948966",
    "channel --alpha-arg 1.5707963267948966 --delta 1e20",
])
def test_channel_lattice_index_beyond_2_52_is_usage_error(capsys, argv):
    # float64 no longer holds every lattice index there: refused as input,
    # not a traceback, a missed q-window or an unrelated mass message
    assert main(argv.split()) == 2
    assert "lattice indices beyond 2^52" in capsys.readouterr().err


def test_phasevar_state_budget_is_checked_before_any_state(monkeypatch, capsys):
    # a --mu whose truncation is over the state budget is refused by name,
    # with exit 2, before the first --mu's state is built
    def no_state(*args, **kwargs):
        raise AssertionError("coherent state built")

    monkeypatch.setattr("laserclock.fock.coherent_state", no_state)
    assert main(["phasevar", "--mu", "25,1e12"]) == 2
    err = capsys.readouterr().err
    assert f"mu 1000000000000.0 needs a truncation of 1000010000010, more than the " \
           f"state budget of {fock.STATE_BUDGET}" in err
    assert fock.default_truncation(16_736_000) <= fock.STATE_BUDGET


def test_phasevar_grid_size_changes_no_csv_byte(tmp_path):
    # --grid-size is still parsed as an int and echoed in the sidecar, but the
    # variance is exact and grid_size is the FFT length of each --mu's support
    out = tmp_path / "pv.csv"
    assert main(["phasevar", "--mu", "25,100,1e4", "--out", str(out)]) == 0
    want = out.read_bytes()
    assert [int(r["grid_size"]) for r in rows_of(out)] == [256, 512, 8192]
    for grid in ("0", "256", "1024", "262144", "100000000000"):
        assert main(["phasevar", "--mu", "25,100,1e4", "--grid-size", grid,
                     "--out", str(out)]) == 0
        assert out.read_bytes() == want, grid
        assert json.loads(out.with_suffix(".json").read_text())["config"]["grid_size"] == \
            int(grid)


def test_phasevar_working_set_is_one_state(capsys):
    # In blocks of 8 (T + 1) bytes, T = 103173 the truncation at mu = 1e5,
    # the largest --mu; each earlier row's state is freed before the next is
    # built.  coherent_state holds 3 blocks at most: log_factorials' output
    # beside its two tail temporaries, then the magnitudes beside the complex
    # amplitudes (2), which FockVector keeps without a copy and norms by one
    # vdot.  phase_support holds the state (2), |a| (1), and its mask and
    # indices.  phase_variance holds the state and arrays of its G = 32768
    # points, 8 G bytes = 0.32 blocks each: |A|^2, the weights and the half
    # spectrum (the transform, 16 G bytes, is freed once |A|^2 is formed),
    # and the W = 10528-point arrays of the aliasing correction, 1.46 blocks
    # together.  So the peak is 3.46 blocks measured, held to 3.5 with the
    # CSV rows and text; the transform of a 2^18-point grid would be 5.1
    # blocks by itself.
    T = fock.default_truncation(1e5)
    argv = ["phasevar", "--mu", "25,100,1e4,1e5"]
    assert main(argv) == 0  # caches warm
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert peak <= 3.5 * 8 * (T + 1)


def test_nonpositive_linewidth_exits_3(monkeypatch, capsys):
    # a coherence that grows fits a negative rate: a failed numerical check,
    # not an invalid configuration
    monkeypatch.setattr("laserclock.laserdyn._coherence",
                        lambda params, truncation, ts: np.exp(0.01 * ts))
    assert main(["linewidth", "--kappa", "1", "--mu", "8"]) == 3
    assert "LinewidthFitError" in capsys.readouterr().err


def test_numerical_failure_exit_code(monkeypatch, tmp_path, capsys):
    # boxes that miss more than 1e-8 of the mass: a distinct exit code naming
    # the check, and no output written
    from laserclock import channel

    masses = channel._window_masses
    monkeypatch.setattr(channel, "_window_masses", lambda *a: masses(*a) * (1 - 2e-8))
    out = tmp_path / "ch.csv"
    assert main(["channel", "--alpha-mod", "5", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "WindowError" in err and "q-window captured only" in err
    assert not out.exists()


def test_channel_min_prob_names_its_range(capsys):
    assert main(["channel", "--alpha-mod", "2", "--min-prob", "0"]) == 2
    assert "min_prob must be in (0, 1]" in capsys.readouterr().err


def test_channel_infinite_box_count_is_named_inf(capsys):
    # both box ends overflow at Delta = 1e-310, so the box count is +inf: the
    # refusal names inf boxes, not the largest float
    assert main(["channel", "--delta", "1e-310"]) == 2
    assert "needs inf boxes x 1025 momentum points" in capsys.readouterr().err


def test_channel_smallest_subnormal_min_prob_is_refused(capsys):
    # erfc(r) = 5e-324 at r = 27.2, so 59 boxes; sqrt(Delta / min_prob)
    # overflows, and the momentum points are named inf
    assert main(["channel", "--min-prob", "5e-324"]) == 2
    assert "needs 59 boxes x inf momentum points" in capsys.readouterr().err


def test_channel_output(tmp_path):
    out = tmp_path / "chan.csv"
    assert main(["channel", "--alpha-mod", "5", "--alpha-arg", "0",
                 "--delta", "1", "--min-prob", "1e-4", "--out", str(out)]) == 0
    rows = rows_of(out)
    best = max(rows, key=lambda r: float(r["probability"]))
    assert (int(best["n"]), int(best["m"])) == (7, 0)
    assert float(best["output_amp_re"]) == pytest.approx(5.0, abs=0.2)
    meta = json.loads((tmp_path / "chan.json").read_text())
    assert meta["results"]["captured_mass"] >= 1 - 1e-4
    assert abs(meta["results"]["output_phase_rad"]) < 0.05


def test_phasevar_matches_library(tmp_path):
    out = tmp_path / "pv.csv"
    assert main(["phasevar", "--mu", "25,100", "--out", str(out)]) == 0
    rows = rows_of(out)
    assert float(rows[0]["phase_variance_rad2"]) == pytest.approx(0.0102117757, rel=1e-6)
    assert float(rows[0]["coherent_limit_rad2"]) == pytest.approx(0.01)
    results = json.loads(out.with_suffix(".json").read_text())["results"]
    assert results["max_abs_rel_deviation"] == max(abs(float(r["rel_deviation"])) for r in rows)
    assert results["truncations"] == [int(r["truncation"]) for r in rows]


def test_linewidth_subcommand(tmp_path):
    out = tmp_path / "lw.csv"
    assert main(["linewidth", "--kappa", "1", "--mu", "8,16", "--out", str(out)]) == 0
    rows = rows_of(out)
    assert len(rows) == 2
    for r in rows:
        assert float(r["methods_rel_diff"]) < 0.02
    assert float(rows[0]["linewidth_eig_rad_per_s"]) == pytest.approx(0.03712959, rel=1e-4)
    assert float(rows[0]["sql_limit_rad_per_s"]) == pytest.approx(1 / 16)
    results = json.loads((tmp_path / "lw.json").read_text())["results"]
    assert results["max_methods_rel_diff"] == max(float(r["methods_rel_diff"]) for r in rows)
    assert abs(results["max_stationary_tail_mass"]) <= 1e-12
    assert results["solvers"] == {"eigenvalue": "gth_inverse_iteration",
                                  "decay_fit": "hyperbolic_contour_gth"}
    # each row's bracket is T eps wide on each side (T = 66 at mu = 16)
    assert 2 * 66 * 2.2e-16 < results["max_eigenvalue_bracket_rel"] <= 3 * 66 * 2.3e-16
