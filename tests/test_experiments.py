"""Experiment harness: schedule diagnostics, report structure, integrity
verification, CSV round trips, and worker-count independence."""
from __future__ import annotations

import dataclasses
import functools
import json
import math
import os
import re
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from stabledrift import experiments, simulate
from stabledrift import (
    ConfigurationError,
    NumericError,
    ParameterError,
    Schedule,
    SimulationError,
    StableParams,
    StationaryDensity,
    builtin_kernel,
    builtin_model,
    config_hash,
    derive_replicate_seed,
    read_records_csv,
    run_bias_comparison,
    run_clt,
    run_consistency,
    run_lln_check,
    simulate_path,
    validate_schedule,
    write_report,
)
from stabledrift.cli import main


@pytest.fixture(scope="module")
def ou():
    return builtin_model("ou_linear", {"gamma": 0.0, "lam": 1.0, "sigma": 1.0})


@pytest.fixture(scope="module")
def noise():
    return StableParams(1.5, 0.0)


@pytest.fixture(scope="module")
def epan():
    return builtin_kernel("epanechnikov")


@pytest.fixture(scope="module")
def lln_report(ou, noise, epan):
    sched = Schedule(n=20_000, delta=0.01, h=0.4, alpha=1.5, kappa=2.0)
    return run_lln_check(ou, noise, epan, sched, 0.0, k_values=[0, 1, 2],
                         replicates=6, master_seed=501, burn_in=5_000, workers=1)


class TestSchedule:
    def test_validation(self):
        with pytest.raises(ParameterError):
            Schedule(n=0, delta=0.01, h=0.3, alpha=1.5)
        with pytest.raises(ParameterError):
            Schedule(n=100, delta=-0.01, h=0.3, alpha=1.5)
        with pytest.raises(ParameterError):
            Schedule(n=100, delta=0.01, h=0.0, alpha=1.5)
        with pytest.raises(ParameterError):
            Schedule(n=100, delta=0.01, h=0.3, alpha=2.5)
        with pytest.raises(ParameterError):
            Schedule(n=100, delta=0.01, h=0.3, alpha=1.5, kappa=1.5)

    def test_diagnostic_values(self):
        sched = Schedule(n=100_000, delta=0.01, h=0.3, alpha=1.5, kappa=2.0)
        diag = validate_schedule(sched)
        assert diag.n_delta_h == pytest.approx(300.0, rel=1e-12)
        assert diag.rate == pytest.approx(300.0 ** (1.0 / 3.0), rel=1e-12)
        assert diag.proxy_centering == pytest.approx(diag.rate * 0.3, rel=1e-12)
        assert diag.proxy_bias == pytest.approx(diag.rate * 0.09, rel=1e-12)
        assert diag.proxy_bias == pytest.approx(0.602489655, rel=1e-8)
        assert diag.proxy_discretization == pytest.approx(diag.rate * 0.1, rel=1e-12)
        assert diag.scheme_i and diag.scheme_ii
        assert diag.classification == "both"
        assert diag.lines()

    def test_classification_thresholds(self):
        # n, h, label at alpha 1.5, delta 0.01, kappa 2; each label is reached
        for n, h, label in (
            (5_000, 2.0, "i"),  # proxies 9.28, 18.6, 0.46
            (4_000_000, 0.5, "ii"),  # proxies 13.6, 6.79, 2.71
            (100_000, 0.3, "both"),
            (10 ** 9, 0.9, "neither"),
        ):
            diag = validate_schedule(Schedule(n=n, delta=0.01, h=h, alpha=1.5, kappa=2.0))
            assert diag.classification == label
            assert (diag.scheme_i, diag.scheme_ii) == (label in ("i", "both"), label in ("ii", "both"))
        small = validate_schedule(Schedule(n=50, delta=0.01, h=0.1, alpha=1.5))
        assert any("nDh" in note or "n*delta*h" in note or "small" in note.lower()
                   for note in small.notes)


class TestLlnReport:
    def test_structure(self, lln_report):
        rep = lln_report
        assert rep.kind == "lln"
        assert len(rep.records) == 6 * 3
        methods = {r.method for r in rep.records}
        assert methods == {"moment_k0", "moment_k1", "moment_k2"}
        assert {s["k"] for s in rep.summaries} == {0, 1, 2}
        assert {c.name for c in rep.checks} >= {"lln-moment-k0", "lln-moment-k1", "lln-moment-k2"}
        for record in rep.records:
            assert math.isfinite(record.estimate)

    def test_seed_layout(self, lln_report):
        seeds = [r.seed for r in lln_report.records if r.method == "moment_k0"]
        assert len(set(seeds)) == 6

    def test_integrity_and_recompute(self, lln_report):
        assert lln_report.verify_integrity()
        summaries, checks = lln_report.recompute_summaries()
        assert summaries == lln_report.summaries
        assert [c.name for c in checks] == [c.name for c in lln_report.checks]

    def test_integrity_detects_tampering(self, lln_report):
        assert lln_report.verify_integrity()
        summaries = [dict(row) for row in lln_report.summaries]
        summaries[0]["mean_value"] = math.nextafter(summaries[0]["mean_value"], math.inf)
        assert not dataclasses.replace(lln_report, summaries=summaries).verify_integrity()
        checks = list(lln_report.checks)
        checks[0] = dataclasses.replace(checks[0], passed=not checks[0].passed)
        assert not dataclasses.replace(lln_report, checks=checks).verify_integrity()

    def test_write_read_round_trip(self, lln_report, tmp_path):
        paths = write_report(lln_report, tmp_path)
        assert {p.name for p in paths.values()} == {
            "lln_records.csv", "lln_summary.csv", "lln_manifest.json"}
        records = read_records_csv(paths["records"])
        assert len(records) == len(lln_report.records)
        for got, want in zip(records, lln_report.records):
            assert (got.replicate, got.seed, got.x, got.method) == (
                want.replicate, want.seed, want.x, want.method)
            assert got.estimate == want.estimate
            assert math.isnan(got.error) == math.isnan(want.error)
            assert got.degenerate == want.degenerate
        manifest = json.loads(paths["manifest"].read_text())
        assert manifest["config_hash"] == config_hash(lln_report.config)
        assert manifest["checks"]

    def test_worker_count_does_not_change_bytes(self, ou, noise, epan, lln_report, tmp_path):
        sched = Schedule(n=20_000, delta=0.01, h=0.4, alpha=1.5, kappa=2.0)
        other = run_lln_check(ou, noise, epan, sched, 0.0, k_values=[0, 1, 2],
                              replicates=6, master_seed=501, burn_in=5_000, workers=3)
        assert other.records == lln_report.records
        a_dir = tmp_path / "a"
        b_dir = tmp_path / "b"
        write_report(lln_report, a_dir)
        write_report(other, b_dir)
        for name in ("lln_records.csv", "lln_summary.csv", "lln_manifest.json"):
            assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()


class TestConsistency:
    def test_ladder_structure(self, ou, noise, epan):
        schedules = [
            Schedule(n=1500, delta=0.02, h=0.5, alpha=1.5, kappa=2.0),
            Schedule(n=6000, delta=0.015, h=0.4, alpha=1.5, kappa=2.0),
        ]
        rep = run_consistency(ou, noise, epan, schedules, [0.0], replicates=4,
                              master_seed=77, burn_in=2_000, workers=1)
        assert rep.kind == "consistency"
        assert len(rep.records) == 2 * 4
        assert len(rep.summaries) == 2
        assert all(math.isfinite(s["rmse"]) for s in rep.summaries)
        names = {c.name for c in rep.checks}
        assert "rmse-strictly-decreasing-x0" in names
        assert "final-rmse-below-half-x0" in names
        assert rep.verify_integrity()

    def test_ladder_violation_rejected(self, ou, noise, epan):
        schedules = [
            Schedule(n=6000, delta=0.01, h=0.3, alpha=1.5),
            Schedule(n=1500, delta=0.02, h=0.5, alpha=1.5),
        ]
        with pytest.raises(ParameterError):
            run_consistency(ou, noise, epan, schedules, [0.0], replicates=4,
                            master_seed=77, burn_in=1_000, workers=1)

    def test_alpha_mismatch_rejected(self, ou, epan):
        schedules = [Schedule(n=1500, delta=0.02, h=0.5, alpha=1.8, kappa=2.0)]
        with pytest.raises(ConfigurationError):
            run_consistency(ou, StableParams(1.5, 0.0), epan, schedules, [0.0],
                            replicates=4, master_seed=77, burn_in=1_000, workers=1)


class TestBiasComparison:
    def test_structure_and_theory_columns(self, ou, epan):
        noise = StableParams(1.8, 0.0)
        sched = Schedule(n=8_000, delta=0.01, h=0.4, alpha=1.8, kappa=2.0)
        rep = run_bias_comparison(ou, noise, builtin_kernel("uniform_right"), sched,
                                  [0.0, 0.5], replicates=6, master_seed=900,
                                  burn_in=2_000, workers=1)
        assert len(rep.records) == 2 * 2 * 6
        assert {r.method for r in rep.records} == {"local_linear", "nadaraya_watson"}
        for s in rep.summaries:
            if s["method"] == "local_linear":
                assert s["theory_first_order"] == 0.0
                # linear drift has no curvature bias
                assert s["theory_bias_h2"] == 0.0
            else:
                # h K1 mu'(x) at lam 1
                assert s["theory_first_order"] == pytest.approx(-0.4 * 0.5)
            assert s["replicates"] == 6
            assert math.isfinite(s["mean_error"])
            assert math.isfinite(s["mc_se"])
        assert rep.verify_integrity()

    def test_nw_mean_error_tracks_its_first_order_term(self, ou):
        # at x = 0 both f'(0) and mu'' vanish, so the kernel-ratio bias is
        # h K1 mu'(0) = -0.2 alone; measured -0.177 +/- 0.020 at this seed
        sched = Schedule(n=100_000, delta=0.01, h=0.4, alpha=1.8, kappa=2.0)
        rep = run_bias_comparison(ou, StableParams(1.8, 0.0), builtin_kernel("uniform_right"), sched,
                                  [0.0], replicates=48, master_seed=11, workers=1)
        row = next(s for s in rep.summaries if s["method"] == "nadaraya_watson")
        assert row["theory_first_order"] == pytest.approx(-0.2)
        assert abs(row["mean_error"] - row["theory_first_order"]) <= 3.0 * row["mc_se"]

    def test_symmetric_kernel_zero_first_order(self, ou, noise, epan):
        sched = Schedule(n=8_000, delta=0.01, h=0.4, alpha=1.5, kappa=2.0)
        rep = run_bias_comparison(ou, noise, epan, sched, [0.0], replicates=4,
                                  master_seed=901, burn_in=2_000, workers=1)
        for s in rep.summaries:
            assert s["theory_first_order"] == 0.0


@pytest.fixture(scope="module")
def clt_report(ou, noise, epan):
    sched = Schedule(n=20_000, delta=0.01, h=0.4, alpha=1.5, kappa=2.0)
    return run_clt(ou, noise, epan, sched, 0.0, replicates=60, master_seed=606,
                   burn_in=5_000, reference_size=20_000, workers=1)


class TestClt:
    def test_structure(self, clt_report):
        rep = clt_report
        assert rep.kind == "clt"
        ll = [r for r in rep.records if r.method == "local_linear"]
        fhat = [r for r in rep.records if r.method == "local_linear_fhat"]
        assert len(ll) == 60 and len(fhat) == 60
        for r in ll + fhat:
            if not r.degenerate:
                assert math.isfinite(r.std_error)
        summary = [s for s in rep.summaries if s["method"] == "local_linear"][0]
        for key in ("ks_vs_stable", "ks_critical", "ks_symmetry", "tail_index", "scale_ratio"):
            assert math.isfinite(summary[key])
        names = {c.name for c in rep.checks}
        assert {"clt-ks-vs-stable", "clt-symmetry", "clt-tail-index"} <= names

    def test_plugin_rows_share_seeds(self, clt_report):
        ll = {r.replicate: r.seed for r in clt_report.records if r.method == "local_linear"}
        fhat = {r.replicate: r.seed for r in clt_report.records if r.method == "local_linear_fhat"}
        assert ll == fhat

    def test_integrity_regenerates_reference(self, clt_report):
        assert clt_report.verify_integrity()

    def test_gaussian_control_skips_tail_window(self, ou, epan):
        sched = Schedule(n=15_000, delta=0.01, h=0.4, alpha=2.0, kappa=3.0)
        rep = run_clt(ou, StableParams(2.0, 0.0), epan, sched, 0.0, replicates=40,
                      master_seed=607, burn_in=4_000, reference_size=15_000, workers=1)
        names = {c.name for c in rep.checks}
        assert "clt-tail-index" not in names
        assert "clt-ks-vs-stable" in names

    def test_replicate_floor(self, ou, noise, epan):
        sched = Schedule(n=2_000, delta=0.01, h=0.4, alpha=1.5, kappa=2.0)
        with pytest.raises(ParameterError):
            run_clt(ou, noise, epan, sched, 0.0, replicates=1, master_seed=1,
                    burn_in=500, reference_size=1_000, workers=1)

    def test_standardize_rows_in_table_order(self):
        constants = {"rate": 7.25, "lambda_x": 0.625, "gamma_x": 0.0375, "bias_term": 0.006}
        provenance = {"constants": constants, "density_at_x": 0.3}
        config = {"noise": {"alpha": 1.5}}
        usable = {"x": 0.0, "estimate": 0.14, "error": 0.04, "fhat": 0.27, "degenerate": False}
        degenerate = {"x": 0.0, "estimate": 0.0, "error": math.nan, "fhat": 0.31, "degenerate": True}
        no_fhat = {"x": 0.0, "estimate": -0.11, "error": -0.11, "fhat": 0.0, "degenerate": False}
        standardized = {
            name: experiments._standardize_clt([row], config, provenance)
            for name, row in (("usable", usable), ("degenerate", degenerate), ("no_fhat", no_fhat))
        }
        for records in standardized.values():
            assert [r["method"] for r in records] == ["local_linear", "local_linear_fhat"]
        flags = {name: [r["degenerate"] for r in records] for name, records in standardized.items()}
        assert flags == {"usable": [False, False], "degenerate": [True, True], "no_fhat": [False, True]}

        def oracle(row):
            return constants["rate"] * constants["lambda_x"] * (row["error"] - constants["bias_term"])

        oracle_usable, plug_usable = (r["std_error"] for r in standardized["usable"])
        assert oracle_usable == oracle(usable)
        assert plug_usable == oracle(usable) * (usable["fhat"] / 0.3) ** (1.0 - 1.0 / 1.5)
        assert all(math.isnan(r["std_error"]) for r in standardized["degenerate"])
        oracle_no_fhat, plug_no_fhat = (r["std_error"] for r in standardized["no_fhat"])
        assert oracle_no_fhat == oracle(no_fhat)
        assert math.isnan(plug_no_fhat)

    def test_no_usable_replicates_fail_every_statistic_check(self, clt_report):
        records = [dataclasses.replace(r, std_error=math.nan, degenerate=True) for r in clt_report.records]
        summaries, checks = experiments._summarize_clt(records, clt_report.config)
        for row in summaries:
            for key in ("ks_vs_stable", "ks_critical", "ks_symmetry", "ks_symmetry_critical", "tail_index",
                        "scale_ratio"):
                assert math.isnan(row[key])
        statistic_checks = [c for c in checks if c.name.startswith("clt-")]
        assert len(statistic_checks) == 3
        for check in statistic_checks:
            assert not check.passed
            assert "0 usable replicates" in check.detail

    def test_too_few_usable_replicates_for_the_tail_write_a_failing_report(self, tmp_path, capsys):
        # at x = 6 only 8 of the 40 fits are usable, too few for the Hill
        # tail estimate: its cell is empty and its check fails
        out = tmp_path / "out"
        code = main(["experiment", "--kind", "clt", "--model", "ou_linear", "--alpha", "1.5", "--n", "3000",
                     "--delta", "0.01", "--h", "0.05", "--x", "6", "--replicates", "40", "--burn-in", "500",
                     "--seed", "17", "--reference-size", "2000", "--workers", "1", "--out-dir", str(out)])
        capsys.readouterr()
        assert code == 1
        manifest = json.loads((out / "clt_manifest.json").read_text(encoding="ascii"))
        report = experiments.ExperimentReport(
            "clt", manifest["config"], read_records_csv(out / "clt_records.csv"),
            [], [], manifest["provenance"],
        )
        report.summaries, report.checks = report.recompute_summaries()
        assert report.verify_integrity()
        assert [c.__dict__ for c in report.checks] == manifest["checks"]
        (tail,) = [c for c in report.checks if c.name == "clt-tail-index"]
        assert not tail.passed
        assert tail.detail.startswith("no hill index from 8 usable replicates")
        header, *rows = (out / "clt_summary.csv").read_text(encoding="ascii").splitlines()
        column = header.split(",").index("tail_index")
        assert [row.split(",")[column] for row in rows] == ["", ""]


_BOOL_INTEGERS = {
    "simulate_path n": lambda ou, noise, epan: simulate_path(ou, noise, 0.0, True, 0.01, 1, burn_in=10),
    "simulate_path burn_in": lambda ou, noise, epan: simulate_path(ou, noise, 0.0, 10, 0.01, 1, burn_in=True),
    "Schedule n": lambda ou, noise, epan: Schedule(n=True, delta=0.01, h=0.4, alpha=1.5),
    "replicates": lambda ou, noise, epan: run_lln_check(
        ou, noise, epan, Schedule(n=100, delta=0.01, h=0.4, alpha=1.5), 0.0, [0], replicates=True, master_seed=1),
    "master_seed": lambda ou, noise, epan: run_lln_check(
        ou, noise, epan, Schedule(n=100, delta=0.01, h=0.4, alpha=1.5), 0.0, [0], replicates=2, master_seed=True),
    "burn_in": lambda ou, noise, epan: run_lln_check(
        ou, noise, epan, Schedule(n=100, delta=0.01, h=0.4, alpha=1.5), 0.0, [0], replicates=2, master_seed=1,
        burn_in=True),
    "workers": lambda ou, noise, epan: run_lln_check(
        ou, noise, epan, Schedule(n=100, delta=0.01, h=0.4, alpha=1.5), 0.0, [0], replicates=2, master_seed=1,
        workers=True),
    "derive_replicate_seed master_seed": lambda ou, noise, epan: derive_replicate_seed(True, 0),
    "derive_replicate_seed replicate_index": lambda ou, noise, epan: derive_replicate_seed(1, True),
}


@pytest.mark.parametrize("entry", sorted(_BOOL_INTEGERS))
def test_a_bool_is_refused_as_an_integer(entry, ou, noise, epan):
    with pytest.raises(ParameterError, match=r"must be an integer.*, got True$"):
        _BOOL_INTEGERS[entry](ou, noise, epan)


def test_a_refused_integer_shows_its_type(ou, noise):
    with pytest.raises(ParameterError, match=re.escape(f"n must be an integer >= 1, got {np.int64(5)!r}")):
        simulate_path(ou, noise, 0.0, np.int64(5), 0.01, 1, burn_in=10)


class TestConfigHash:
    def test_key_order_invariance(self):
        a = {"b": 1, "a": [1, 2, {"z": True}]}
        b = {"a": [1, 2, {"z": True}], "b": 1}
        assert config_hash(a) == config_hash(b)
        assert config_hash(a) != config_hash({"b": 2, "a": [1, 2, {"z": True}]})

    def test_read_records_rejects_wrong_header(self, tmp_path):
        bad = tmp_path / "records.csv"
        bad.write_text("foo,bar\n1,2\n")
        with pytest.raises(ParameterError):
            read_records_csv(bad)

    def test_read_records_rejects_undecodable_byte(self, tmp_path):
        bad = tmp_path / "records.csv"
        header = b"replicate,seed,x,method,estimate,error,std_error,degenerate"
        bad.write_bytes(header + b"\n0,7,0,moment_\xe90,0.25,,,false\n")
        with pytest.raises(ParameterError, match=r"records\.csv: byte 0xe9 at offset 73 is not valid ascii"):
            read_records_csv(bad)

    @pytest.mark.parametrize("row", [
        "1,7,0,moment_k0,zz,,,false",
        "x,7,0,moment_k0,0.5,,,false",
        "1,7,0,moment_k0,0.5,,,maybe",
    ])
    def test_read_records_rejects_bad_cell_with_row(self, tmp_path, row):
        bad = tmp_path / "records.csv"
        header = "replicate,seed,x,method,estimate,error,std_error,degenerate"
        bad.write_text(f"{header}\n0,7,0,moment_k0,0.25,,,false\n{row}\n")
        with pytest.raises(ParameterError, match="row 2"):
            read_records_csv(bad)


def _small_run(kind, ou, noise, epan, workers, replicates=12):
    sched = Schedule(n=3_000, delta=0.01, h=0.4, alpha=1.5)
    common = dict(replicates=replicates, master_seed=11, burn_in=1_000, workers=workers)
    if kind == "bias":
        return run_bias_comparison(ou, noise, epan, sched, [0.0, 0.5], **common)
    if kind == "clt":
        return run_clt(ou, noise, epan, sched, 0.0, reference_size=1_000, **common)
    return run_lln_check(ou, noise, epan, sched, 0.0, k_values=[0, 2], **common)


def _logging(log, original=None):
    """A stand-in that appends the calling process id to ``log``, a file,
    so calls made in forked pool workers are seen too; it then calls
    ``original`` or, without one, raises ``NumericError``."""
    def wrapper(*args, **kwargs):
        with open(log, "a") as handle:
            handle.write(f"{os.getpid()}\n")
        if original is None:
            raise NumericError("oracle quadrature did not converge")
        return original(*args, **kwargs)
    return wrapper


def _logged(log):
    return log.read_text().split() if log.exists() else []


class TestDensityOracleBuiltOncePerRun:
    # a pooled run builds its oracle while the workers simulate; it must
    # still be built once, in the parent, and never by a worker
    @pytest.mark.parametrize("kind, workers", [
        pytest.param(kind, workers, id=kind if workers == 1 else f"{kind}-pooled")
        for kind in ("bias", "clt", "lln") for workers in (1, 2)
    ])
    def test_one_build_per_run(self, ou, noise, epan, monkeypatch, tmp_path, kind, workers):
        log = tmp_path / "oracle.log"
        monkeypatch.setattr(
            experiments, "stationary_density_oracle", _logging(log, experiments.stationary_density_oracle)
        )
        rep = _small_run(kind, ou, noise, epan, workers)
        assert _logged(log) == [str(os.getpid())]
        assert rep.verify_integrity()

    @pytest.mark.parametrize("kind", ["bias", "clt", "lln"])
    def test_fits_receive_no_oracle(self, ou, noise, epan, monkeypatch, kind):
        jobs = []
        original = experiments._replicates

        def recording(job):
            jobs.append(job)
            return original(job)

        monkeypatch.setattr(experiments, "_replicates", recording)
        _small_run(kind, ou, noise, epan, workers=1)
        assert jobs
        for fit, config, *rest in jobs:
            json.dumps(config)
            if isinstance(fit, functools.partial):
                assert fit.args == ()
                assert all(
                    isinstance(value, tuple) and all(isinstance(v, str) for v in value)
                    for value in fit.keywords.values()
                )
            assert not any(isinstance(element, StationaryDensity) for element in (fit, config, *rest))


class TestDefaultWorkers:
    # without --workers a run takes one worker per CPU it may run on, which
    # under a CPU affinity mask (taskset) is fewer than the machine has
    def _forbid_pool(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a serial run started a process pool")

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", no_pool)

    def test_one_allowed_cpu_runs_serially(self, ou, noise, epan, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        self._forbid_pool(monkeypatch)
        assert _small_run("bias", ou, noise, epan, workers=None).verify_integrity()

    def test_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert experiments._usable_cpus() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert experiments._usable_cpus() == 1

    def test_help_names_the_default(self, capsys):
        with pytest.raises(SystemExit):
            main(["experiment", "--help"])
        assert "default: one per CPU the process may run on" in " ".join(capsys.readouterr().out.split())


class TestThreadedRun:
    # a serial run steps an affine batch and fits its paths on one thread per
    # CPU it may run on; the report must be the same bytes at any count
    def _bias_report(self, ou, monkeypatch, cpus, out_dir):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        stepped, fitted, guarded = set(), set(), []

        def recording(seen, original):
            def wrapper(*args, **kwargs):
                seen.add(threading.get_ident())
                return original(*args, **kwargs)
            return wrapper

        def catch_warnings(*args, **kwargs):
            # its filters are process-wide, so it is unsafe off the main thread
            guarded.append(threading.current_thread() is threading.main_thread())
            return original_catch(*args, **kwargs)

        original_catch = warnings.catch_warnings
        monkeypatch.setattr(simulate, "_euler", recording(stepped, simulate._euler))
        monkeypatch.setattr(experiments, "kernel_sums", recording(fitted, experiments.kernel_sums))
        monkeypatch.setattr(warnings, "catch_warnings", catch_warnings)
        sched = Schedule(n=5_000, delta=0.01, h=0.4, alpha=1.8)
        before = threading.active_count()
        report = run_bias_comparison(ou, StableParams(1.8, 0.0), builtin_kernel("uniform_right"), sched,
                                     [-0.5, 0.0, 0.5], replicates=30, master_seed=7, burn_in=1_000, workers=1)
        assert threading.active_count() == before
        assert all(guarded)
        monkeypatch.undo()
        return write_report(report, out_dir), len(stepped), len(fitted)

    def test_report_bytes_do_not_depend_on_the_thread_count(self, ou, monkeypatch, tmp_path):
        one, stepped, fitted = self._bias_report(ou, monkeypatch, 1, tmp_path / "one")
        assert (stepped, fitted) == (1, 1)
        two, stepped, fitted = self._bias_report(ou, monkeypatch, 2, tmp_path / "two")
        assert (stepped, fitted) == (2, 2)
        for key in ("records", "summary", "manifest"):
            assert one[key].read_bytes() == two[key].read_bytes()

    @pytest.mark.parametrize("workers, threads", [(1, 4), (2, 2), (3, 1)])
    def test_each_process_takes_its_share_of_the_cpus(self, ou, noise, epan, monkeypatch, workers, threads):
        jobs = []
        original = experiments._replicates

        def recording(job):
            jobs.append(job)
            return original(job)

        monkeypatch.setattr(experiments, "_replicates", recording)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        # a thread pool stands in for the process pool, so that the jobs
        # are recorded in this process
        monkeypatch.setattr(experiments, "ProcessPoolExecutor", ThreadPoolExecutor)
        _small_run("lln", ou, noise, epan, workers=workers)
        assert {job[-1] for job in jobs} == {threads}


class TestOracleFailure:
    def test_pooled_run_raises_the_oracle_error_and_cancels(self, ou, noise, epan, monkeypatch, tmp_path):
        oracle_log, sim_log = tmp_path / "oracle.log", tmp_path / "simulate.log"
        monkeypatch.setattr(experiments, "stationary_density_oracle", _logging(oracle_log))
        monkeypatch.setattr(experiments, "_simulate_paths", _logging(sim_log, experiments._simulate_paths))
        # 40 replicates are 40 one-path batches
        with pytest.raises(NumericError, match="did not converge"):
            _small_run("clt", ou, noise, epan, workers=2, replicates=40)
        assert _logged(oracle_log) == [str(os.getpid())]
        # the batches still pending when the oracle failed never ran
        assert len(_logged(sim_log)) < 40

    def test_pooled_cli_run_exits_one(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(experiments, "stationary_density_oracle", _logging(tmp_path / "oracle.log"))
        code = main(["experiment", "--kind", "clt", "--model", "ou_linear", "--alpha", "1.5",
                     "--n", "3000", "--delta", "0.01", "--h", "0.4", "--burn-in", "1000",
                     "--replicates", "12", "--reference-size", "1000", "--seed", "3",
                     "--workers", "2", "--out-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.splitlines() == ["run failed: oracle quadrature did not converge"]
        assert not (tmp_path / "out").exists()


class TestFailBeforeExpensiveWork:
    @pytest.fixture
    def expensive_calls(self, monkeypatch):
        calls = []

        def counting(name, original):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)
            return wrapper

        for module, name in ((experiments, "stationary_density_oracle"), (experiments, "_simulate_paths"),
                             (simulate, "simulate_path")):
            monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        return calls

    @pytest.mark.parametrize("kind", ["consistency", "bias", "clt", "lln"])
    def test_bad_worker_count(self, ou, noise, epan, expensive_calls, kind):
        sched = Schedule(n=3_000, delta=0.01, h=0.4, alpha=1.5)
        common = dict(replicates=12, master_seed=11, burn_in=1_000, workers=0)
        with pytest.raises(ParameterError, match="workers"):
            if kind == "consistency":
                finer = Schedule(n=6_000, delta=0.01, h=0.3, alpha=1.5)
                run_consistency(ou, noise, epan, [sched, finer], [0.0], **common)
            elif kind == "bias":
                run_bias_comparison(ou, noise, epan, sched, [0.0], **common)
            elif kind == "clt":
                run_clt(ou, noise, epan, sched, 0.0, reference_size=1_000, **common)
            else:
                run_lln_check(ou, noise, epan, sched, 0.0, k_values=[0], **common)
        assert expensive_calls == []

    def test_consistency_with_one_schedule(self, ou, noise, epan, expensive_calls):
        # one rung has no ladder to fall along; it used to simulate every
        # replicate and then fail final-rmse-below-half
        sched = Schedule(n=3_000, delta=0.01, h=0.4, alpha=1.5)
        with pytest.raises(ParameterError, match="at least two schedules, got 1"):
            run_consistency(ou, noise, epan, [sched], [0.0], replicates=4, master_seed=1,
                            burn_in=1_000, workers=1)
        assert expensive_calls == []

    def test_too_few_clt_replicates_for_the_tail_estimate(self, ou, noise, epan, expensive_calls):
        sched = Schedule(n=3_000, delta=0.01, h=0.4, alpha=1.5)
        with pytest.raises(ParameterError, match="Hill"):
            run_clt(ou, noise, epan, sched, 0.0, replicates=4, master_seed=1, burn_in=1_000,
                    reference_size=1_000, workers=1, tail_fraction=0.1)
        assert expensive_calls == []

    @pytest.mark.parametrize("kind", ["bias", "clt", "lln"])
    def test_serial_run_with_a_failing_oracle(self, ou, noise, epan, expensive_calls, monkeypatch, kind):
        def failing(*args, **kwargs):
            expensive_calls.append("stationary_density_oracle")
            raise NumericError("oracle quadrature did not converge")

        monkeypatch.setattr(experiments, "stationary_density_oracle", failing)
        with pytest.raises(NumericError, match="did not converge"):
            _small_run(kind, ou, noise, epan, workers=1)
        assert expensive_calls == ["stationary_density_oracle"]

    @pytest.mark.parametrize("fraction", [0.0, 1.0, -0.1, math.nan, "0.1", True])
    def test_tail_fraction_outside_unit_interval(self, ou, noise, epan, expensive_calls, fraction):
        sched = Schedule(n=3_000, delta=0.01, h=0.4, alpha=1.5)
        with pytest.raises(ParameterError, match="tail_fraction"):
            run_clt(ou, noise, epan, sched, 0.0, replicates=40, master_seed=1, burn_in=1_000,
                    reference_size=1_000, workers=1, tail_fraction=fraction)
        assert expensive_calls == []

    @pytest.mark.parametrize("size", [99, 150.7, "abc", True, np.int64(1_000)],
                             ids=["99", "150.7", "abc", "True", "numpy-int"])
    def test_reference_size_not_an_integer_of_at_least_100(self, ou, noise, epan, expensive_calls, size):
        sched = Schedule(n=3_000, delta=0.01, h=0.4, alpha=1.5)
        with pytest.raises(ParameterError, match=re.escape(f"reference_size must be an integer >= 100, got {size!r}")):
            run_clt(ou, noise, epan, sched, 0.0, replicates=40, master_seed=1, burn_in=1_000,
                    reference_size=size, workers=1)
        assert expensive_calls == []

    @pytest.mark.parametrize("k_values", [[], [4], [-1, 0], [1.7], [True, 2], ["2"]],
                             ids=["empty", "4", "-1", "1.7", "True", "string"])
    def test_k_values_not_moment_orders(self, ou, noise, epan, expensive_calls, k_values):
        sched = Schedule(n=3_000, delta=0.01, h=0.4, alpha=1.5)
        with pytest.raises(ParameterError, match="k_values"):
            run_lln_check(ou, noise, epan, sched, 0.0, k_values=k_values, replicates=4, master_seed=1,
                          burn_in=1_000, workers=1)
        assert expensive_calls == []


class TestFailingReplicateNamesItself:
    # Euler with delta = 3 on x' = -x flips and doubles the state each step.
    UNSTABLE = Schedule(n=200, delta=3.0, h=0.4, alpha=1.5)

    def _check_named(self, ou, noise, caught, replicates):
        found = re.fullmatch(
            r"replicate (\d+), seed (\d+): state left the stable range at burn-in step (\d+)", str(caught.value)
        )
        assert found, str(caught.value)
        index, seed, step = (int(v) for v in found.groups())
        assert 0 <= index < replicates
        assert seed == derive_replicate_seed(5, index)
        # the named replicate fails alone at the named step
        with pytest.raises(SimulationError, match=f"at burn-in step {step}$"):
            simulate_path(ou, noise, 0.0, 200, 3.0, seed, burn_in=100)

    @pytest.mark.parametrize("replicates, workers", [(2, 1), (2, 2), (32, 1), (48, 2)])
    def test_unstable_schedule(self, ou, noise, epan, replicates, workers):
        with pytest.raises(SimulationError) as caught:
            run_lln_check(ou, noise, epan, self.UNSTABLE, 0.0, k_values=[0], replicates=replicates,
                          master_seed=5, burn_in=100, workers=workers)
        self._check_named(ou, noise, caught, replicates)

    @pytest.mark.parametrize("replicates", [12, 48])
    def test_unstable_pooled_clt(self, ou, noise, epan, replicates):
        # the parent builds the oracle while the failing batch runs
        with pytest.raises(SimulationError) as caught:
            run_clt(ou, noise, epan, self.UNSTABLE, 0.0, replicates=replicates, master_seed=5,
                    burn_in=100, reference_size=1_000, workers=2)
        self._check_named(ou, noise, caught, replicates)
