"""Golden report bytes: small pinned runs of every experiment kind.

The sha256 digests of the records, summary and manifest files are pinned, so
any change to the random streams, the seed layout, the float evaluation order
or the report format shows up here.  Each run is checked at one and at two
workers.  The wide runs have enough replicates for the runner to simulate
them in lockstep batches, whose boundaries follow the worker count; they are
checked at one, two and three workers.  The ``estimates.csv`` of the
``estimate`` command is pinned for both methods and two kernels, on a grid
with one point far outside the path's range, where every fit is degenerate;
so is the ``path.csv`` that ``simulate`` writes for the same configuration,
and ``estimate --path-csv`` on that file must write the same estimates.
bounded_nonlinear with a constant sigma and a nonlinear drift (``lam=1``,
``sigma1=0``) takes the generic Euler step; its ``simulate`` path and a
30-seed lockstep batch are pinned to the bytes its former fused step wrote.
With a sigma(x), as in the clt runs, it takes its declared step, regrouped
as ``(1 - c delta) x + s0 term + (s1 term - lam delta x) / (1 + x^2)``, whose
rounding differs from the generic ``x + mu(x) delta + sigma(x) term``; the
clt digests pin that step's bytes.  tanh_drift's declared step keeps the
generic step's float order, so the lln and estimate digests are those of
the generic step.
The digests were produced with numpy 2.4 on CPython 3.11 (x86-64) with
AVX-512, and no scipy routine feeds them; other numpy versions may round
differently, and so does numpy's libm route for float64 tan and ** on a CPU
without AVX-512.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from stabledrift import (
    ConfigurationError,
    ExperimentReport,
    Schedule,
    StableParams,
    builtin_kernel,
    builtin_model,
    run_bias_comparison,
    run_clt,
    run_consistency,
    run_lln_check,
    read_records_csv,
    simulate_paths,
    write_report,
)
from stabledrift.cli import main


def _consistency(workers):
    return run_consistency(
        builtin_model("ou_linear", {"gamma": 0.0, "lam": 1.0, "sigma": 1.0}),
        StableParams(1.5, 0.0), builtin_kernel("epanechnikov"),
        [Schedule(n=1500, delta=0.02, h=0.5, alpha=1.5),
         Schedule(n=6000, delta=0.015, h=0.4, alpha=1.5)],
        [0.0, 0.5], replicates=4, master_seed=77, burn_in=1_000, workers=workers,
    )


def _bias(workers):
    return run_bias_comparison(
        builtin_model("ou_linear", {"gamma": 0.0, "lam": 1.0, "sigma": 1.0}),
        StableParams(1.8, 0.0), builtin_kernel("uniform_right"),
        Schedule(n=4000, delta=0.01, h=0.4, alpha=1.8),
        [-0.5, 0.0, 0.5], replicates=4, master_seed=900, burn_in=1_000, workers=workers,
    )


def _clt(workers):
    return run_clt(
        builtin_model("bounded_nonlinear", {"sigma1": 0.5}),
        StableParams(1.5, 0.0), builtin_kernel("epanechnikov"),
        Schedule(n=3000, delta=0.01, h=0.3, alpha=1.5),
        0.0, replicates=12, master_seed=606, burn_in=1_000,
        reference_size=2_000, workers=workers,
    )


def _lln(workers):
    return run_lln_check(
        builtin_model("tanh_drift", {"a": 1.0, "sigma": 1.0}),
        StableParams(1.7, 0.0), builtin_kernel("triangular"),
        Schedule(n=4000, delta=0.01, h=0.4, alpha=1.7),
        0.0, k_values=[0, 1, 2, 3], replicates=4, master_seed=501, burn_in=1_000,
        workers=workers,
    )


def _clt_wide(workers):
    return run_clt(
        builtin_model("bounded_nonlinear", {"sigma1": 0.5}),
        StableParams(1.5, 0.0), builtin_kernel("epanechnikov"),
        Schedule(n=2000, delta=0.01, h=0.3, alpha=1.5),
        0.0, replicates=48, master_seed=4242, burn_in=1_000,
        reference_size=2_000, workers=workers,
    )


def _bias_wide(workers):
    return run_bias_comparison(
        builtin_model("ou_linear", {"gamma": 0.0, "lam": 1.0, "sigma": 1.0}),
        StableParams(1.8, 0.0), builtin_kernel("uniform_right"),
        Schedule(n=3000, delta=0.01, h=0.4, alpha=1.8),
        [-0.5, 0.0, 0.5], replicates=48, master_seed=3131, burn_in=1_000, workers=workers,
    )


def _lln_wide(workers):
    return run_lln_check(
        builtin_model("tanh_drift", {"a": 1.0, "sigma": 1.0}),
        StableParams(1.7, 0.0), builtin_kernel("triangular"),
        Schedule(n=2000, delta=0.01, h=0.4, alpha=1.7),
        0.0, k_values=[0, 1, 2], replicates=32, master_seed=5150, burn_in=1_000,
        workers=workers,
    )


RUNS = {"consistency": _consistency, "bias": _bias, "clt": _clt, "lln": _lln}
WIDE_RUNS = {"bias_wide": _bias_wide, "clt_wide": _clt_wide, "lln_wide": _lln_wide}

GOLDEN = {
    "bias": {
        "records": "dab6047ac0bf232e92dad4996d909ced2321f0f57a5940bb4e88bfec9b1c8fff",
        "summary": "774b916956ca27041948cd38deeff67d9b4f7de40388993108b92a2c74204c76",
        "manifest": "b61d555251e3e493a09c2696171f5c684a12a26c610ce046a22d9978a3203ced",
    },
    "clt": {
        "records": "51981c1a5c54271db1d46c33e5b881071033e139c68078e53a8ef574bd2829ff",
        "summary": "be45342cce70ad5fcc4b11ac5a855c6a3faf4e45319e01713731843080402c03",
        "manifest": "db27b8ddeb62341e63d2ddbb4a3bb9dfe9fe81acdba334ce4e0835cda4d80920",
    },
    "consistency": {
        "records": "178a746038f011b537ff21d66e73d3d34e2ca10c99c7ae3ed283e2e1a6dfb934",
        "summary": "a8b8b9ce866f7042e094bc78516b04082c4c69cc35a95efaba380fcf2922d323",
        "manifest": "7942e67cbd45a62121d6f2124b11a3ad21c1d1f5b0425f4c446483f72a027eaa",
    },
    "bias_wide": {
        "records": "b5e5ed94017027d4470cd059d110d5b5863e037e7b68a253b24c45502cfd00d0",
        "summary": "d8cf40da6b4c509d8210fa5522fcbf83f14535b797a1637acdd9a3ba4e8a9413",
        "manifest": "a8dcec8c634b0b7a322f8efa247ad0caaebd2f543d46ec384e6e505036563843",
    },
    "clt_wide": {
        "records": "99847184554edc40886547cff04f7dea439390031e3a25f221d08e67b0fe2f39",
        "summary": "5e5e4efdcdea3f8b33fd5aab9a534d0969bb29b9eff3e354a968721c28ab1e29",
        "manifest": "0a5099c5861857dffc51588f788bc9b1d25d9fa553f1ba45035d5ef72ab8d99b",
    },
    "lln_wide": {
        "records": "0bd864fab948efba441f6999050c4f60c4f2b26c0bf3bad88724c3516ec5acdf",
        "summary": "b146e47de624e880dcb1abf087f123107938994017df4aed27bfc21a4f729f2c",
        "manifest": "47577c42ea0c82af43176048381bd71887d6cb0b8f1850826cfe6eb2eab0cba9",
    },
    "estimate_epanechnikov": "bde5dc986bd36ff2cd2958b375ed1ef094be163e969ae12c6eb9e033e1a21ca7",
    "estimate_uniform_right": "a747937ae0a98149769f3f2289b4da6aed7c534b84dc6b87ca6909f53faad562",
    "simulate_path_csv": "a97cde2d02d35b0e7e6c6ed2cea63adff17e9ec414455e6d55740f5eacbb334d",
    "constant_sigma_path_csv": "1fcc8dbeb897b713003fb5d116c1b2bd7d01e12d5e184a03b2a0a65742435967",
    "constant_sigma_batch": "3270e257c0d64c7d0b5baec2741ef88d99cae39edbb780029a797eae75d40b90",
    "lln": {
        "records": "9ade9dd8fe5225b138a132b5a29b1c9b6237dbd612df962a716d584175389743",
        "summary": "d0b93b4997875d01eb05f8316ae224dca931dcac94e9a8ad8b310f6b5e4fcf9b",
        "manifest": "20adf0a167769aa8efa7313683e504f1ed3b37378a32dc66ad2dc8d182b6d4d6",
    },
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("kind", sorted(RUNS))
def test_report_bytes_match_golden(kind, workers, tmp_path):
    paths = write_report(RUNS[kind](workers), tmp_path)
    digests = {name: hashlib.sha256(path.read_bytes()).hexdigest() for name, path in paths.items()}
    assert digests == GOLDEN[kind]


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("kind", sorted(WIDE_RUNS))
def test_wide_report_bytes_match_golden(kind, workers, tmp_path):
    paths = write_report(WIDE_RUNS[kind](workers), tmp_path)
    digests = {name: hashlib.sha256(path.read_bytes()).hexdigest() for name, path in paths.items()}
    assert digests == GOLDEN[kind]


@pytest.mark.parametrize("kind", ["bias", "clt", "lln"])
def test_report_read_back_from_disk_rewrites_the_same_bytes(kind, tmp_path):
    written = write_report(RUNS[kind](1), tmp_path / "run")
    manifest = json.loads(written["manifest"].read_text(encoding="ascii"))
    report = ExperimentReport(kind, manifest["config"], read_records_csv(written["records"]), [], [],
                              manifest["provenance"])
    report.summaries, report.checks = report.recompute_summaries()
    rewritten = write_report(report, tmp_path / "again")
    for name, path in written.items():
        assert rewritten[name].read_bytes() == path.read_bytes()
    # the density entry is a record of the oracle's one route, not a setting;
    # a report of the single-path plug-in oracle recorded no path count
    stored = report.config["density"]
    single_path = {key: value for key, value in stored.items() if key != "paths"}
    for density in ({**stored, "seed": stored["seed"] + 1}, {**stored, "method": "simulation"},
                    {**stored, "paths": 1}, single_path):
        config = dict(report.config, density=density)
        with pytest.raises(ConfigurationError, match="density entry"):
            dataclasses.replace(report, config=config).recompute_summaries()


ESTIMATE_CONFIG = {
    "model": "tanh_drift",
    "model_params": {"a": 1.0, "sigma": 1.0},
    "alpha": 1.6,
    "n": 5000,
    "delta": 0.01,
    "h": 0.35,
    "burn_in": 1_000,
    "seed": 8080,
    "x_points": [-1.0, -0.25, 0.0, 0.4, 1.2, 40.0],
}


@pytest.mark.parametrize("kernel", ["epanechnikov", "uniform_right"])
def test_estimate_csv_bytes_match_golden(kernel, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(ESTIMATE_CONFIG))
    code = main(["estimate", "--config", str(config), "--kernel", kernel, "--method", "both",
                 "--out-dir", str(tmp_path / "out")])
    capsys.readouterr()
    assert code == 0
    digest = hashlib.sha256((tmp_path / "out" / "estimates.csv").read_bytes()).hexdigest()
    assert digest == GOLDEN[f"estimate_{kernel}"]


def test_simulated_path_csv_bytes_match_golden_and_estimate_alike(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(ESTIMATE_CONFIG))
    code = main(["simulate", "--config", str(config), "--out-dir", str(tmp_path / "sim")])
    assert code == 0
    path_csv = tmp_path / "sim" / "path.csv"
    assert hashlib.sha256(path_csv.read_bytes()).hexdigest() == GOLDEN["simulate_path_csv"]
    for kernel in ["epanechnikov", "uniform_right"]:
        out = tmp_path / kernel
        code = main(["estimate", "--config", str(config), "--kernel", kernel, "--method", "both",
                     "--path-csv", str(path_csv), "--out-dir", str(out)])
        assert code == 0
        digest = hashlib.sha256((out / "estimates.csv").read_bytes()).hexdigest()
        assert digest == GOLDEN[f"estimate_{kernel}"]
    capsys.readouterr()


def test_constant_sigma_bounded_nonlinear_path_csv_matches_golden(tmp_path, capsys):
    code = main(["simulate", "--model", "bounded_nonlinear", "--param", "lam=1", "--param", "sigma1=0",
                 "--out-dir", str(tmp_path)])
    capsys.readouterr()
    assert code == 0
    digest = hashlib.sha256((tmp_path / "path.csv").read_bytes()).hexdigest()
    assert digest == GOLDEN["constant_sigma_path_csv"]


def test_constant_sigma_bounded_nonlinear_batch_matches_golden():
    model = builtin_model("bounded_nonlinear", {"lam": 1.0, "sigma1": 0.0})
    paths = simulate_paths(model, StableParams(1.5, 0.0), 0.0, 5000, 0.01, range(30), burn_in=500)
    digest = hashlib.sha256(b"".join(path.x.tobytes() for path in paths)).hexdigest()
    assert digest == GOLDEN["constant_sigma_batch"]
