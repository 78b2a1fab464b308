"""Checks of the benchmark itself: determinism of every workload, worker-count
independence of the pooled workload's report, the exact per-layer counts,
and agreement of ``BENCHMARK.json`` with the code.

Run from the root of a checkout with ``python3 -m pytest perfbench``; it
takes about a minute.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import END_TO_END  # noqa: E402
from tracing import PER_LAYER  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


def _workload(name: str, tmp_path: Path, label: str, trace: bool = False) -> dict:
    work = tmp_path / label
    result = tmp_path / f"{label}.json"
    command = [sys.executable, str(HERE / "workload.py"), "--workload", name, "--seed", str(DEFAULT_SEED),
               "--work", str(work), "--result", str(result)] + (["--trace"] if trace else [])
    subprocess.run(command, cwd=ROOT, check=True, timeout=300)
    return json.loads(result.read_text(encoding="utf-8"))


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {n: w.why for n, w in WORKLOADS.items()}
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == PER_LAYER


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_output_bytes_traced_or_not(name, tmp_path):
    plain = _workload(name, tmp_path, "plain")
    traced = _workload(name, tmp_path, "traced", trace=True)
    for result in (plain, traced):
        assert result["problems"] == []
        assert result["failed"] == 0
    assert plain["outputs_sha256"] == traced["outputs_sha256"]
    assert set(traced["per_layer"]) | {"setup.import_s", "run.wall_s", "run.ref_s", "trace.overhead_frac"} == set(PER_LAYER)


def test_exact_counts_of_the_bias_workload(tmp_path):
    layers = _workload("mc_bias_ou", tmp_path, "traced", trace=True)["per_layer"]
    base = WORKLOADS["mc_bias_ou"].base
    replicates = base["replicates"]
    assert layers["simulate.paths"] == replicates
    assert layers["simulate.steps"] == layers["stable.draws"] == replicates * (base["n"] + base["burn_in"])
    assert layers["estimate.fits"] == replicates * len(base["x_points"]) * 2
    assert layers["experiments.replicates"] == replicates
    # The Fourier oracle is built once for the run and once for the summary.
    assert layers["models.oracle_builds"] == 2


def test_exact_counts_of_the_curve_workload(tmp_path):
    layers = _workload("curve_tanh", tmp_path, "traced", trace=True)["per_layer"]
    workload = WORKLOADS["curve_tanh"]
    observations = workload.path_steps + 1
    fits = len(workload.base["x_points"]) * 2 * len(workload.kernels)
    assert layers["simulate.steps"] == workload.path_steps + workload.path_burn_in
    # written once in set-up, read once per kernel
    assert layers["simulate.csv_rows"] == observations * (1 + len(workload.kernels))
    assert layers["estimate.fits"] == fits
    # every fit weighs all observations but the last
    assert layers["kernels.eval_points"] == fits * (observations - 1)
    assert layers["experiments.replicates"] == 0


def test_verification_rejects_an_exit_code_the_checks_do_not_explain(tmp_path):
    sys.path.insert(0, str(ROOT / "src"))
    workload = WORKLOADS["mc_bias_ou"]
    result = _workload("mc_bias_ou", tmp_path, "plain")
    assert result["codes"] == [0]
    work = tmp_path / "plain"
    config = json.loads((work / "config.json").read_text(encoding="ascii"))
    assert workload.verify(work, config, [0]) == (0, [])
    for codes in ([1], [2]):
        _, problems = workload.verify(work, config, codes)
        assert problems and "exit codes" in problems[0]


def test_pool_report_bytes_do_not_depend_on_worker_count(tmp_path):
    sys.path.insert(0, str(ROOT / "src"))
    workload = WORKLOADS["mc_clt_pool"]
    workload.prepare(DEFAULT_SEED, tmp_path)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    reports = []
    for workers in (1, 2):
        out = tmp_path / f"workers{workers}"
        done = subprocess.run(
            [sys.executable, "-m", "stabledrift", "experiment", "--config", str(tmp_path / "config.json"),
             "--replicates", "16", "--workers", str(workers), "--out-dir", str(out)],
            cwd=ROOT, env=env, timeout=300, capture_output=True, text=True,
        )
        assert done.returncode in (0, 1), done.stderr
        reports.append([(out / f"clt_{part}").read_bytes() for part in ("records.csv", "summary.csv", "manifest.json")])
    assert reports[0] == reports[1]
