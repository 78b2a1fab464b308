"""The benchmark's workloads: inputs made from a seed, the CLI calls that form
the timed part, operation accounting and output verification.

Nothing here imports ``stabledrift`` at module level, so a workload process
can time the package import itself.  Everything a workload needs from the
package is imported inside the functions that run after that import.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

DEFAULT_SEED = 1
# Reserved for confirming a later performance claim on a seed that was not
# used while the change was written.  Do not tune against it.
HELD_OUT_SEED = 20_261_017

# Criterion 2 of the acceptance gate: the stabilized local linear solve and
# the literal ratio form agree to 1e-10, relative to max(1, |value|).
RATIO_TOLERANCE = 1e-10


def derived_seed(workload: str, seed: int, purpose: str) -> int:
    """A 48-bit seed for one purpose of one workload, fixed by the bench seed."""
    digest = hashlib.sha256(f"{workload}:{purpose}:{seed}".encode("ascii")).digest()
    return int.from_bytes(digest[:6], "big")


def outputs_sha256(files: list[Path]) -> str:
    """SHA-256 over the names and bytes of the given files, in order."""
    digest = hashlib.sha256()
    for path in files:
        digest.update(path.name.encode("ascii") + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _build_components(config: dict, kernel_names) -> tuple:
    from stabledrift import StableParams, builtin_kernel, builtin_model

    model = builtin_model(config["model"], config["model_params"])
    noise = StableParams(alpha=config["alpha"], beta=config.get("beta", 0.0))
    return model, noise, [builtin_kernel(name) for name in kernel_names]


class MonteCarloWorkload:
    """One ``stabledrift experiment`` call on a generated configuration.

    An operation is one replicate.  It fails when any of its records is
    degenerate or carries a non-finite estimate.
    """

    def __init__(self, name: str, why: str, base: dict, methods: tuple[str, ...], workers: int):
        self.name = name
        self.why = why
        self.base = base
        self.kind = base["kind"]
        self.methods = methods
        self.workers = workers

    def prepare(self, seed: int, work: Path) -> dict:
        config = dict(self.base, seed=derived_seed(self.name, seed, "master"), out_dir=str(work / "out"))
        # Set-up builds the model and kernel the configuration names, which
        # also rejects a configuration the CLI would refuse.
        _build_components(config, [config["kernel"]])
        (work / "config.json").write_text(json.dumps(config, indent=2, sort_keys=True) + "\n", encoding="ascii")
        return config

    def calls(self, work: Path) -> list[list[str]]:
        return [["experiment", "--config", str(work / "config.json"), "--workers", str(self.workers)]]

    def operations(self, config: dict) -> int:
        return config["replicates"]

    def outputs(self, work: Path) -> list[Path]:
        out = work / "out"
        return [out / f"{self.kind}_{part}" for part in ("records.csv", "summary.csv", "manifest.json")]

    def verify(self, work: Path, config: dict, codes: list[int]) -> tuple[int, list[str]]:
        """Return the failed operation count and the verification problems.

        The records are re-read, the summaries and checks are recomputed from
        them, and the recomputed report must rewrite the same bytes.  Exit
        code 1 is accepted only when a recomputed check failed.
        """
        from stabledrift import ExperimentReport, read_records_csv, write_report

        records_path, summary_path, manifest_path = self.outputs(work)
        manifest = json.loads(manifest_path.read_text(encoding="ascii"))
        records = read_records_csv(records_path)
        problems = []
        expected = config["replicates"] * len(config["x_points"]) * len(self.methods)
        if len(records) != expected:
            problems.append(f"{len(records)} records, expected {expected}")
        report = ExperimentReport(self.kind, manifest["config"], records, [], [], manifest["provenance"])
        report.summaries, report.checks = report.recompute_summaries()
        rewritten = write_report(report, work / "recomputed")
        for key, original in (("records", records_path), ("summary", summary_path), ("manifest", manifest_path)):
            if rewritten[key].read_bytes() != original.read_bytes():
                problems.append(f"{original.name} differs from its recomputation")
        expected_code = 0 if report.passed() else 1
        if codes != [expected_code]:
            problems.append(f"exit codes {codes}, expected [{expected_code}] from the recomputed checks")
        if {r.method for r in records} != set(self.methods) or {r.replicate for r in records} != set(
            range(config["replicates"])
        ):
            problems.append("records do not cover every replicate and method")
        failed = {r.replicate for r in records if r.degenerate or not math.isfinite(r.estimate)}
        return len(failed), problems


class CurveWorkload:
    """``stabledrift estimate`` over a grid from a path CSV made in set-up,
    once per kernel.  An operation is one grid estimate; it fails when it
    is degenerate or not finite."""

    methods = ("local_linear", "nadaraya_watson")

    def __init__(self, name: str, why: str, base: dict, path_steps: int, path_burn_in: int,
                 kernels: tuple[str, ...], check_stride: int):
        self.name = name
        self.why = why
        self.base = base
        self.path_steps = path_steps
        self.path_burn_in = path_burn_in
        self.kernels = kernels
        self.check_stride = check_stride

    def prepare(self, seed: int, work: Path) -> dict:
        from stabledrift import simulate_path, write_path_csv

        config = dict(self.base, path_csv=str(work / "path.csv"))
        model, noise, _ = _build_components(config, self.kernels)
        path = simulate_path(
            model, noise, x0=0.0, n=self.path_steps, delta=config["delta"],
            seed=derived_seed(self.name, seed, "path"), burn_in=self.path_burn_in,
        )
        write_path_csv(path, work / "path.csv")
        (work / "config.json").write_text(json.dumps(config, indent=2, sort_keys=True) + "\n", encoding="ascii")
        return config

    def calls(self, work: Path) -> list[list[str]]:
        return [
            ["estimate", "--config", str(work / "config.json"), "--kernel", kernel,
             "--out-dir", str(work / f"out_{kernel}")]
            for kernel in self.kernels
        ]

    def operations(self, config: dict) -> int:
        return len(config["x_points"]) * len(self.methods) * len(self.kernels)

    def outputs(self, work: Path) -> list[Path]:
        return [work / f"out_{kernel}" / "estimates.csv" for kernel in self.kernels]

    def verify(self, work: Path, config: dict, codes: list[int]) -> tuple[int, list[str]]:
        """Return the failed operation count and the verification problems.

        Every grid point has one row per method, in grid order.  At every
        ``check_stride``-th grid point the local linear value must match the
        literal ratio form, as criterion 2 of the acceptance gate demands.
        """
        from stabledrift import builtin_kernel, local_linear_drift_ratio, read_path_csv

        problems = []
        if codes != [0] * len(self.kernels):
            problems.append(f"exit codes {codes}, expected all 0")
        path = read_path_csv(config["path_csv"])
        grid = config["x_points"]
        h = config["h"]
        failed = 0
        for kernel_name, estimates in zip(self.kernels, self.outputs(work)):
            kernel = builtin_kernel(kernel_name)
            lines = estimates.read_text(encoding="ascii").splitlines()
            rows = [line.split(",") for line in lines[1:]]
            expected = [(method, x) for method in self.methods for x in grid]
            if lines[0] != "x,estimate,method,h,degenerate,denominator" or len(rows) != len(expected):
                problems.append(f"{estimates}: {len(rows)} rows, expected {len(expected)}")
                continue
            for (method, x), row in zip(expected, rows):
                if float(row[0]) != x or row[2] != method or float(row[3]) != h:
                    problems.append(f"{estimates}: row {row} out of order, expected {method} at {x}")
                    break
            for row in rows:
                if row[4] == "true" or not row[1] or not math.isfinite(float(row[1])):
                    failed += 1
            for index in range(0, len(grid), self.check_stride):
                row = rows[index]
                if row[4] == "true" or not row[1]:
                    continue
                value = float(row[1])
                ratio = local_linear_drift_ratio(path, grid[index], h, kernel)
                if not abs(value - ratio) <= RATIO_TOLERANCE * max(1.0, abs(value)):
                    problems.append(
                        f"{kernel_name} local linear at x={grid[index]!r}: {value!r} against ratio form {ratio!r}"
                    )
        return failed, problems


_GRID_POINTS = 201

WORKLOADS = {
    workload.name: workload
    for workload in (
        MonteCarloWorkload(
            name="mc_bias_ou",
            why="Serial Euler-bound bias experiment on the constant-sigma branch: "
            "ou_linear, alpha 1.8, one-sided kernel, Fourier oracle, one process.",
            base={
                "kind": "bias", "model": "ou_linear", "model_params": {}, "alpha": 1.8,
                "kernel": "uniform_right", "n": 100_000, "burn_in": 20_000, "delta": 0.01,
                "h": 0.4, "x_points": [-0.5, 0.0, 0.5], "replicates": 24,
            },
            methods=("local_linear", "nadaraya_watson"),
            workers=1,
        ),
        CurveWorkload(
            name="curve_tanh",
            why="Estimator-bound drift curve from a path CSV, no timed Euler work: "
            "201-point grid, symmetric and one-sided kernels, CSV read each call.",
            base={
                "model": "tanh_drift", "model_params": {}, "alpha": 1.7, "delta": 0.01,
                "h": 0.3, "method": "both",
                "x_points": [-2.0 + 4.0 * i / (_GRID_POINTS - 1) for i in range(_GRID_POINTS)],
            },
            path_steps=200_000,
            path_burn_in=20_000,
            kernels=("epanechnikov", "uniform_right"),
            check_stride=20,
        ),
        MonteCarloWorkload(
            name="mc_clt_pool",
            why="Pooled limit-law experiment on the sigma(x) Euler branch: "
            "bounded_nonlinear, plug-in oracle in the parent, 2 workers, KS/Hill summary.",
            base={
                "kind": "clt", "model": "bounded_nonlinear", "model_params": {}, "alpha": 1.5,
                "kernel": "epanechnikov", "n": 20_000, "burn_in": 5_000, "delta": 0.01,
                "h": 0.3, "x_points": [0.0], "replicates": 192, "reference_size": 100_000,
            },
            methods=("local_linear", "local_linear_fhat"),
            workers=2,
        ),
    )
}
