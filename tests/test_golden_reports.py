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
The digests were produced with numpy 2.4 on CPython 3.11 (x86-64), and no
scipy routine feeds them; other numpy versions may round differently.
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
        "records": "09da3a7857de9ff25d0b25c12fbd7c7206cb0e57e66b5b3e6d514eef9b7374c3",
        "summary": "33e818e967e398626dc367c4981549210d1140ef3a7de7b99179081ac6df0ad1",
        "manifest": "b61d555251e3e493a09c2696171f5c684a12a26c610ce046a22d9978a3203ced",
    },
    "clt": {
        "records": "04ed9e14525529ef7ec8cfe2c41b2f7768f8b66980034f45931b95881e94b7c1",
        "summary": "a71300b1ad04bfca78ce367ab18b445a459e5992788ca77390b07b9697406d67",
        "manifest": "bcc3f477f2344246c61c08b24f82c76122884ea6dc317480ea3b6c83e6ade7a7",
    },
    "consistency": {
        "records": "653a7fda9b2fbe9e30fad984bd6abfb75daffac0180285df6d2a028d8b4bd7a7",
        "summary": "c0806b76fb0f65c3097fc18e194801216208178e7edc0a7137c8c455544a3ef3",
        "manifest": "7942e67cbd45a62121d6f2124b11a3ad21c1d1f5b0425f4c446483f72a027eaa",
    },
    "bias_wide": {
        "records": "2d44f599cccfceaebc10454782d8c76280a476d9ca6062d509237c84d71ce036",
        "summary": "a828b9be93ebe4ca902a25c51d4d17e3c57c6495ab9082f8e111f34d6ba2d6d2",
        "manifest": "a8dcec8c634b0b7a322f8efa247ad0caaebd2f543d46ec384e6e505036563843",
    },
    "clt_wide": {
        "records": "53b5fb4a7d25cfc2e18c12638bcbcbfb0b0e8628f005ea742a440154a7267aa1",
        "summary": "a0a3d2c497ebb557baa0f03092028469103a578ce0af7fbc893dbd4d42b63880",
        "manifest": "3252cd1f7a86d1186c15aee675dd01a624d1a47cd456844577ee78692a0f9f44",
    },
    "lln_wide": {
        "records": "8dcd3cd1f87587778b57fd0e8f4f96250534853f20125bb9788ce0d1719944d9",
        "summary": "87fa8c1f958b0f2257fba3f027c3b040625bbd879a1757f590d0efe6f9e62fab",
        "manifest": "47577c42ea0c82af43176048381bd71887d6cb0b8f1850826cfe6eb2eab0cba9",
    },
    "estimate_epanechnikov": "49ea05510a0a2bd288af3fbcb600386f1a7f20ae07f9897bc2e90ca7a733824a",
    "estimate_uniform_right": "26df22539c632e95dfb0bedbfe044f3a5612e35a15c718be9b38b1dbd02a6c7e",
    "simulate_path_csv": "0c351a517b9a441d236505d2bb81966236d63ba858aaca8125f49bafd785fe4d",
    "constant_sigma_path_csv": "669e9dc3113b45e290df157a2bd8a247c9330935a8d1c9947da026c7e899f2a3",
    "constant_sigma_batch": "f860c4d4e07fc7a9c72c46e8e3209599f126e5ca017894d5ae9fe6830f9c90fe",
    "lln": {
        "records": "50d3d56a28d3b963cbb888e91fc381f18db4bb85e8ee182f0cb044ea1c15adaa",
        "summary": "33cfcb8a8ad053f2cb33113524b887a4b82f3758d333adf9e6c633a887e91c9e",
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
