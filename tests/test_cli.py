"""Command line interface: config loading, overrides, outputs, exit codes."""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from stabledrift import cli, simulate
from stabledrift.cli import RunConfig, main


def write_config(tmp_path, payload, name="config.json"):
    target = tmp_path / name
    target.write_text(json.dumps(payload))
    return str(target)


def package_env():
    """The environment of a subprocess that imports this package's source."""
    source = str(Path(cli.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))}


BASE = {
    "model": "ou_linear",
    "model_params": {"gamma": 0.0, "lam": 1.0, "sigma": 1.0},
    "alpha": 1.5,
    "n": 2000,
    "delta": 0.01,
    "h": 0.4,
    "burn_in": 500,
    "seed": 321,
}


class TestSimulate:
    def test_writes_path_and_diagnostics(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE)
        out_dir = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out-dir", str(out_dir)]) == 0
        printed = capsys.readouterr().out
        assert "jump diagnostics" in printed
        target = out_dir / "path.csv"
        lines = target.read_text().strip().split("\n")
        assert lines[0] == "i,t,x"
        assert len(lines) == BASE["n"] + 2

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE)
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert main(["simulate", "--config", cfg, "--out-dir", str(a)]) == 0
        assert main(["simulate", "--config", cfg, "--out-dir", str(b)]) == 0
        capsys.readouterr()
        assert (a / "path.csv").read_bytes() == (b / "path.csv").read_bytes()

    def test_seed_flag_changes_output(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE)
        a = tmp_path / "a"
        b = tmp_path / "b"
        main(["simulate", "--config", cfg, "--out-dir", str(a)])
        main(["simulate", "--config", cfg, "--out-dir", str(b), "--seed", "999"])
        capsys.readouterr()
        assert (a / "path.csv").read_bytes() != (b / "path.csv").read_bytes()


class TestEstimate:
    def test_both_methods_over_grid(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {**BASE, "x_points": [-0.5, 0.0, 0.5]})
        out_dir = tmp_path / "out"
        code = main(["estimate", "--config", cfg, "--out-dir", str(out_dir)])
        capsys.readouterr()
        assert code == 0
        lines = (out_dir / "estimates.csv").read_text().strip().split("\n")
        assert lines[0] == "x,estimate,method,h,degenerate,denominator"
        assert len(lines) == 1 + 2 * 3
        methods = {line.split(",")[2] for line in lines[1:]}
        assert methods == {"local_linear", "nadaraya_watson"}

    def test_single_method_and_h_override(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {**BASE, "x_points": [0.0]})
        out_dir = tmp_path / "out"
        code = main(["estimate", "--config", cfg, "--out-dir", str(out_dir),
                     "--method", "local_linear", "--h", "0.55"])
        capsys.readouterr()
        assert code == 0
        rows = (out_dir / "estimates.csv").read_text().strip().split("\n")[1:]
        assert len(rows) == 1
        assert float(rows[0].split(",")[3]) == 0.55

    def test_estimate_from_csv_matches_inline(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {**BASE, "x_points": [0.0, 0.3]})
        sim_dir = tmp_path / "sim"
        inline_dir = tmp_path / "inline"
        file_dir = tmp_path / "fromfile"
        main(["simulate", "--config", cfg, "--out-dir", str(sim_dir)])
        main(["estimate", "--config", cfg, "--out-dir", str(inline_dir)])
        main(["estimate", "--config", cfg, "--out-dir", str(file_dir),
              "--path-csv", str(sim_dir / "path.csv")])
        capsys.readouterr()
        assert (inline_dir / "estimates.csv").read_bytes() == (
            file_dir / "estimates.csv").read_bytes()

    def test_estimates_track_linear_drift(self, tmp_path, capsys):
        # light-tail endpoint keeps the five pointwise errors small enough
        # for a straight-line read of the drift
        cfg = write_config(tmp_path, {
            **BASE, "alpha": 2.0, "n": 50_000, "burn_in": 10_000, "seed": 2_024_111,
            "x_points": [-1.0, -0.5, 0.0, 0.5, 1.0],
        })
        out_dir = tmp_path / "out"
        assert main(["estimate", "--config", cfg, "--out-dir", str(out_dir),
                     "--method", "local_linear"]) == 0
        capsys.readouterr()
        rows = (out_dir / "estimates.csv").read_text().strip().split("\n")[1:]
        xs = np.array([float(r.split(",")[0]) for r in rows])
        values = np.array([float(r.split(",")[1]) for r in rows])
        slope = np.polyfit(xs, values, 1)[0]
        assert slope == pytest.approx(-1.0, abs=0.25)

    def test_bad_path_csv_cell_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("i,t,x\n0,0.0,1.0\n1,0.01,abc\n2,0.02,1.2\n")
        code = main(["estimate", "--model", "ou_linear", "--path-csv", str(bad),
                     "--out-dir", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and "row 2" in err
        assert "Traceback" not in err

    def test_undecodable_path_csv_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "latin1.csv"
        bad.write_bytes(b"i,t,x\n0,0.0,1.0\n1,0.01,caf\xe9\n")
        code = main(["estimate", "--model", "ou_linear", "--path-csv", str(bad),
                     "--out-dir", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.splitlines() == [f"error: {bad}: byte 0xe9 at offset 26 is not valid ascii text"]
        assert "Traceback" not in err

    def test_a_path_near_the_float_range_warns_nothing(self, tmp_path, capsys):
        # every increment and sum overflows, so every row is degenerate;
        # the flag reports that, and numpy must not warn about it as well
        target = tmp_path / "huge.csv"
        target.write_text("i,t,x\n0,0,1e308\n1,0.01,-1e308\n2,0.02,1e308\n")
        cfg = write_config(tmp_path, {**BASE, "x_points": [0.0, 1e308]})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["estimate", "--config", cfg, "--path-csv", str(target), "--out-dir", str(tmp_path / "o")])
        assert code == 0
        assert capsys.readouterr().err == ""
        rows = (tmp_path / "o" / "estimates.csv").read_text().strip().split("\n")[1:]
        assert len(rows) == 4
        assert all(row.split(",")[4] == "true" for row in rows)

    def test_times_near_the_float_range_exit_two_without_a_warning(self, tmp_path, capsys):
        target = tmp_path / "times.csv"
        target.write_text("i,t,x\n0,0,1\n1,1e308,2\n2,-1e308,3\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["estimate", "--model", "ou_linear", "--path-csv", str(target),
                         "--out-dir", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {target}: observation times are not equally spaced"]

    def test_unknown_method_rejected(self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "simulate_path", lambda *args, **kwargs: calls.append(args))
        cfg = write_config(tmp_path, BASE)
        code = main(["estimate", "--config", cfg, "--out-dir", str(tmp_path / "o"),
                     "--method", "spline"])
        err = capsys.readouterr().err
        assert code == 2
        assert "method" in err
        # rejected before the path is simulated
        assert calls == []


class TestConfigErrors:
    def test_missing_model(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"n": 100})
        code = main(["simulate", "--config", cfg])
        err = capsys.readouterr().err
        assert code == 2
        assert "missing required field: model" in err

    # density_method names no setting: a config that holds it is refused,
    # before any model is built, not run on some density route
    @pytest.mark.parametrize("name, value", [("bandwidth", 0.3), ("density_method", "auto")],
                             ids=["bandwidth", "density_method"])
    def test_unknown_field(self, tmp_path, capsys, monkeypatch, name, value):
        built = []
        monkeypatch.setattr(cli, "builtin_model", lambda *args: built.append(args))
        cfg = write_config(tmp_path, {**BASE, name: value})
        for command in ("simulate", "estimate", "experiment"):
            code = main([command, "--config", cfg])
            err = capsys.readouterr().err
            assert code == 2
            assert err.startswith(f"error: unknown configuration fields ['{name}']")
        assert built == []

    def test_density_method_flag_is_an_argument_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["experiment", "--kind", "bias", "--model", "ou_linear", "--alpha", "1.8",
                  "--density-method", "auto"])
        err = capsys.readouterr().err
        assert excinfo.value.code == 2
        assert "error: unrecognized arguments: --density-method auto" in err
        assert "Traceback" not in err

    def test_malformed_json_reports_position(self, tmp_path, capsys):
        target = tmp_path / "broken.json"
        target.write_text('{"model": "ou_linear",}')
        code = main(["simulate", "--config", str(target)])
        err = capsys.readouterr().err
        assert code == 2
        assert "broken.json" in err
        assert "line" in err

    def test_wrong_type_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {**BASE, "n": "many"})
        code = main(["simulate", "--config", cfg])
        assert code == 2
        capsys.readouterr()

    @pytest.mark.parametrize("name", ["model", "kernel", "method", "path_csv", "kind", "out_dir"])
    def test_non_string_field_exits_two(self, tmp_path, capsys, name):
        cfg = write_config(tmp_path, {**BASE, name: []})
        for command in ("simulate", "estimate", "experiment"):
            code = main([command, "--config", cfg])
            err = capsys.readouterr().err
            assert code == 2
            assert err.splitlines() == [f"error: {name} must be a string, got []"]
            assert "Traceback" not in err

    def test_undecodable_config_exits_two(self, tmp_path, capsys):
        target = tmp_path / "utf16.json"
        target.write_bytes(b"\xff\xfe{}")
        code = main(["simulate", "--config", str(target)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.splitlines() == [f"error: {target}: byte 0xff at offset 0 is not valid utf-8 text"]

    def test_missing_file(self, tmp_path, capsys):
        code = main(["simulate", "--config", str(tmp_path / "absent.json")])
        assert code == 2
        capsys.readouterr()

    def test_negative_seed_exits_two(self, tmp_path, capsys):
        code = main(["simulate", "--model", "ou_linear", "--n", "100", "--burn-in", "10",
                     "--seed", "-1", "--out-dir", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.splitlines() == ["error: seed must be a non-negative integer, got -1"]

    def test_model_flag_without_config(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code = main(["simulate", "--model", "ou_linear", "--n", "500",
                     "--burn-in", "100", "--out-dir", str(out_dir)])
        capsys.readouterr()
        assert code == 0
        assert (out_dir / "path.csv").exists()


class TestExperiment:
    def test_schedule_kind_prints_diagnostics(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {**BASE, "n": 100_000, "h": 0.3, "kind": "schedule"})
        code = main(["experiment", "--config", cfg])
        out = capsys.readouterr().out
        assert code == 0
        assert "classification" in out
        assert "both" in out

    def test_lln_passing_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            **BASE, "n": 30_000, "burn_in": 6_000, "kind": "lln",
            "replicates": 6, "k_values": [1], "seed": 515,
        })
        out_dir = tmp_path / "out"
        code = main(["experiment", "--config", cfg, "--out-dir", str(out_dir)])
        out = capsys.readouterr().out
        assert code == 0
        assert "CHECK lln-moment-k1: PASS" in out
        assert (out_dir / "lln_records.csv").exists()
        assert (out_dir / "lln_summary.csv").exists()
        assert (out_dir / "lln_manifest.json").exists()

    def test_lln_failing_config_exits_one(self, tmp_path, capsys):
        # h far beyond the support of the stationary mass oversmooths
        # k=0 deterministically: the moment sum lands near the window
        # average of f, a ~70% relative error
        cfg = write_config(tmp_path, {
            **BASE, "n": 5_000, "burn_in": 1_000, "h": 5.0, "kind": "lln",
            "replicates": 4, "k_values": [0], "seed": 516,
        })
        code = main(["experiment", "--config", cfg, "--out-dir", str(tmp_path / "out")])
        out = capsys.readouterr().out
        assert code == 1
        assert "CHECK lln-moment-k0: FAIL" in out

    def test_lln_schedule_flag_overrides_top_level(self, tmp_path, capsys):
        # the --schedule entry, not the top-level n/delta/h, must drive
        # single-schedule kinds; h=5.0 oversmooths k=0 so the check fails
        cfg = write_config(tmp_path, {
            **BASE, "n": 30_000, "burn_in": 1_000, "kind": "lln",
            "replicates": 4, "k_values": [0], "seed": 516,
        })
        out_dir = tmp_path / "out"
        code = main(["experiment", "--config", cfg, "--out-dir", str(out_dir),
                     "--schedule", "5000,0.01,5.0"])
        out = capsys.readouterr().out
        assert code == 1
        assert "CHECK lln-moment-k0: FAIL" in out
        manifest = json.loads((out_dir / "lln_manifest.json").read_text())
        assert manifest["config"]["schedule"]["n"] == 5000
        assert manifest["config"]["schedule"]["h"] == 5.0

    def test_lln_rejects_multiple_schedules(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            **BASE, "kind": "lln", "replicates": 4,
            "schedules": [
                {"n": 2000, "delta": 0.01, "h": 0.4},
                {"n": 4000, "delta": 0.01, "h": 0.4},
            ],
        })
        code = main(["experiment", "--config", cfg, "--out-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert "exactly one schedule" in err

    @pytest.mark.parametrize("kind", ["clt", "lln"])
    def test_single_point_kinds_reject_extra_query_points(self, tmp_path, capsys, kind):
        out_dir = tmp_path / "out"
        code = main(["experiment", "--kind", kind, "--model", "ou_linear", "--n", "2000",
                     "--burn-in", "500", "--replicates", "4", "--x", "0", "--x", "0.5",
                     "--out-dir", str(out_dir)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.splitlines() == [f"error: {kind} uses exactly one query point, got 2"]
        assert not out_dir.exists()

    def test_consistency_requires_schedules(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {**BASE, "kind": "consistency", "replicates": 4})
        code = main(["experiment", "--config", cfg, "--out-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert "schedule" in err

    def test_consistency_schedule_flags(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            **BASE, "kind": "consistency", "replicates": 4, "burn_in": 1_000, "seed": 99,
        })
        out_dir = tmp_path / "out"
        code = main(["experiment", "--config", cfg, "--out-dir", str(out_dir),
                     "--schedule", "1500,0.02,0.5", "--schedule", "6000,0.015,0.4"])
        capsys.readouterr()
        assert code in (0, 1)
        assert (out_dir / "consistency_records.csv").exists()

    def test_worker_flag_reproducibility(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            **BASE, "n": 8_000, "burn_in": 2_000, "kind": "lln",
            "replicates": 5, "k_values": [0, 2], "seed": 517,
        })
        a = tmp_path / "a"
        b = tmp_path / "b"
        main(["experiment", "--config", cfg, "--out-dir", str(a), "--workers", "1"])
        main(["experiment", "--config", cfg, "--out-dir", str(b), "--workers", "4"])
        capsys.readouterr()
        for name in ("lln_records.csv", "lln_summary.csv", "lln_manifest.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_unknown_kind(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {**BASE, "kind": "bootstrap"})
        code = main(["experiment", "--config", cfg])
        err = capsys.readouterr().err
        assert code == 2
        assert "bootstrap" in err

    def test_clt_small_run_writes_report(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            **BASE, "n": 15_000, "burn_in": 3_000, "kind": "clt",
            "replicates": 40, "reference_size": 10_000, "seed": 518,
            "tail_fraction": 0.2,
        })
        out_dir = tmp_path / "out"
        code = main(["experiment", "--config", cfg, "--out-dir", str(out_dir)])
        out = capsys.readouterr().out
        assert code in (0, 1)
        assert "clt-ks-vs-stable" in out
        assert (out_dir / "clt_manifest.json").exists()


FIELDS = {f.name for f in dataclasses.fields(RunConfig)}


def _subcommands():
    parser = cli._build_parser()
    (choices,) = [a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return choices


@pytest.mark.parametrize("command", sorted(_subcommands()))
def test_every_field_flag_overrides_the_config_file(tmp_path, command):
    # a value of the flag's type for the file and another for the flag
    values = {int: (3, 7), float: (0.25, 0.125), None: ("from-file", "from-flag")}
    file_data, argv, expected = {}, [command], {}
    actions = [a for a in _subcommands()[command]._actions if a.dest in FIELDS]
    assert actions
    for action in actions:
        in_file, on_flag = values[action.type]
        file_data[action.dest] = in_file
        argv += [action.option_strings[0], str(on_flag)]
        expected[action.dest] = on_flag
    args = cli._build_parser().parse_args([*argv, "--config", write_config(tmp_path, file_data)])
    config = cli._load_config(args)
    assert {name: getattr(config, name) for name in expected} == expected


def test_bad_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["transmogrify"])
    capsys.readouterr()
    assert excinfo.value.code == 2


@pytest.mark.parametrize("model, param, label", [
    ("ou_linear", "lam=1e308", "mu"),
    ("bounded_nonlinear", "c=1e308", "mu"),
    ("tanh_drift", "a=1e308", "mu_double_prime"),
    # finite on the grid, but the finite differences overflow: numpy warned
    # and then a tolerance that is not finite let the model through
    ("ou_linear", "lam=3e306", "the finite-difference check of mu_double_prime"),
    ("tanh_drift", "a=1e307", "the finite-difference check of mu_double_prime"),
])
def test_a_model_that_overflows_on_the_check_grid_exits_two_with_one_error_line(model, param, label, tmp_path):
    # numpy's overflow warning, and the source line under it, once came
    # before the error that names the fault
    result = subprocess.run(
        [sys.executable, "-m", "stabledrift", "estimate", "--model", model, "--param", param,
         "--alpha", "1.5", "--x", "0"],
        cwd=tmp_path, env=package_env(), capture_output=True, text=True,
    )
    assert result.returncode == 2
    assert result.stderr.splitlines() == [f"error: model {model}: {label} is not finite on the check grid"]


@pytest.mark.parametrize("alpha", ["1", "0.5"])
@pytest.mark.parametrize("command", [
    ["simulate"], ["estimate", "--x", "0"], ["experiment", "--kind", "bias"], ["experiment", "--kind", "schedule"],
])
def test_an_alpha_outside_the_stability_domain_exits_two_with_one_error_line(command, alpha, tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "stabledrift", *command, "--model", "ou_linear", "--alpha", alpha],
        cwd=tmp_path, env=package_env(), capture_output=True, text=True,
    )
    assert result.returncode == 2
    assert result.stderr.splitlines() == [f"error: alpha must lie in (1, 2], got {float(alpha)}"]


# sizes no 64-bit address space can map: 1e20 doubles are more than any
# array's byte count can hold, and 2^58 doubles (2 EiB) an allocation the
# machine must refuse
NO_ARRAY, UNMAPPABLE = "100000000000000000000", str(2**58)
SMALL_CLT = ["experiment", "--kind", "clt", "--model", "ou_linear", "--n", "2000", "--burn-in", "10",
             "--replicates", "40", "--workers", "1"]


@pytest.mark.parametrize("command, label", [
    (["simulate", "--model", "ou_linear", "--n", NO_ARRAY], "n"),
    (["estimate", "--model", "tanh_drift", "--n", NO_ARRAY, "--x", "0"], "n"),
    (["experiment", "--kind", "bias", "--model", "ou_linear", "--n", NO_ARRAY], "schedule n"),
    ([*SMALL_CLT, "--reference-size", NO_ARRAY], "reference_size"),
])
def test_a_size_no_array_can_hold_exits_two_before_simulating(command, label, tmp_path, monkeypatch, capsys):
    def no_euler(*args, **kwargs):
        raise AssertionError("a path was simulated")

    monkeypatch.setattr(simulate, "_euler", no_euler)
    assert main([*command, "--out-dir", str(tmp_path)]) == 2
    # the most doubles whose byte count fits an intp, less the initial
    # state a path of n steps records beside them
    most = np.iinfo(np.intp).max // 8
    bound = most if label == "reference_size" else most - 1
    assert capsys.readouterr().err.splitlines() == [f"error: {label} must be at most {bound}, got {NO_ARRAY}"]


@pytest.mark.parametrize("command, shape", [
    (["simulate", "--model", "ou_linear", "--n", UNMAPPABLE, "--burn-in", "0"], f"(1, {2**58 + 1})"),
    ([*SMALL_CLT, "--reference-size", UNMAPPABLE], f"({UNMAPPABLE},)"),
])
def test_a_refused_allocation_exits_one_with_one_error_line(command, shape, tmp_path, capsys):
    assert main([*command, "--out-dir", str(tmp_path)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"run failed: Unable to allocate 2.00 EiB for an array with shape {shape} and data type float64"
    ]


def test_a_memory_error_without_a_message_still_names_its_cause(monkeypatch, capsys):
    def refused(config):
        raise MemoryError

    monkeypatch.setattr(cli, "cmd_simulate", refused)
    assert main(["simulate", "--model", "ou_linear"]) == 1
    assert capsys.readouterr().err.splitlines() == ["run failed: out of memory"]


SCIPY_PROBE = """
import json, sys

class BlockScipy:
    # every import of scipy fails and is recorded, so code that caught the
    # ImportError would still fail the test
    attempts = []

    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            self.attempts.append(name)
            raise ImportError(f"scipy is blocked in this probe: {name}")
        return None

sys.meta_path.insert(0, BlockScipy())

def scipy_modules():
    return sorted(set(BlockScipy.attempts) | {name for name in sys.modules if name.split(".")[0] == "scipy"})

import stabledrift
import stabledrift.cli

out = sys.argv[1]
loaded = {"import": scipy_modules()}
shapes = {
    # at alpha 1.5 the points 1 and 2 lie at |y| = 1.3 and 2.6 of the
    # stationary law, where neither series certifies the density, so the
    # constants take the inversion integrals
    "serial ou_linear bias, inversion integrals": [[
        "experiment", "--kind", "bias", "--model", "ou_linear", "--alpha", "1.5",
        "--n", "4000", "--delta", "0.01", "--h", "0.4", "--x", "1", "--x", "2",
        "--replicates", "4", "--burn-in", "500", "--seed", "19", "--workers", "1", "--out-dir", out + "/band",
    ]],
    "serial ou_linear bias, Fourier oracle": [[
        "experiment", "--kind", "bias", "--model", "ou_linear", "--alpha", "1.8", "--kernel", "uniform_right",
        "--n", "4000", "--delta", "0.01", "--h", "0.4", "--x", "-0.5", "--x", "0", "--x", "0.5",
        "--replicates", "4", "--burn-in", "500", "--seed", "19", "--workers", "1", "--out-dir", out + "/bias",
    ]],
    "tanh_drift estimate from a path CSV": [
        ["simulate", "--model", "tanh_drift", "--alpha", "1.7", "--n", "20000", "--delta", "0.01",
         "--burn-in", "2000", "--seed", "5", "--out-dir", out + "/path"],
    ] + [
        ["estimate", "--path-csv", out + "/path/path.csv", "--model", "tanh_drift", "--alpha", "1.7",
         "--h", "0.3", "--x", "-1", "--x", "0", "--x", "1", "--method", "both", "--kernel", kernel,
         "--out-dir", out + "/" + kernel]
        for kernel in ("epanechnikov", "uniform_right")
    ],
    "pooled bounded_nonlinear clt, plug-in oracle": [[
        "experiment", "--kind", "clt", "--model", "bounded_nonlinear", "--alpha", "1.5", "--n", "3000",
        "--delta", "0.01", "--h", "0.3", "--replicates", "40", "--burn-in", "500", "--seed", "17",
        "--reference-size", "2000", "--workers", "2", "--out-dir", out + "/clt",
    ]],
}
for shape, calls in shapes.items():
    for argv in calls:
        assert stabledrift.cli.main(argv) in (0, 1), argv
    loaded[shape] = scipy_modules()
print(json.dumps(loaded))
"""


def test_the_package_and_the_benchmark_shapes_leave_scipy_unimported(tmp_path):
    # importing scipy.integrate and scipy.interpolate took 0.70-0.81 s and
    # lifted RSS from 27 to 85 MiB on a 2-vCPU x86-64 host; the package needs
    # numpy alone, the density oracle's inversion integrals included, so
    # each shape runs with scipy unimportable
    result = subprocess.run([sys.executable, "-c", SCIPY_PROBE, str(tmp_path)], env=package_env(),
                            capture_output=True, text=True, check=True)
    loaded = json.loads(result.stdout.splitlines()[-1])
    assert loaded == dict.fromkeys(loaded, [])
    assert len(loaded) == 5
