"""Command line front end.

Three subcommands cover the workflow: ``simulate`` writes one trajectory as
CSV, ``estimate`` evaluates the drift estimators over a grid, and
``experiment`` runs one of the Monte Carlo designs and persists its report.

Every run is described by a flat JSON configuration; any configuration field
can also be set by the command line flag of the same name, with flags taking
precedence over the file.  The worker count is deliberately not part of the
configuration: it must never influence produced bytes.

Exit codes: 0 on success, 1 when a run fails or any experiment check fails,
2 on configuration or argument errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigurationError, NumericError, ParameterError, SimulationError, check_number, read_text
from .estimate import kernel_sums, write_drift_curve_csv
from .experiments import (
    Schedule,
    run_bias_comparison,
    run_clt,
    run_consistency,
    run_lln_check,
    validate_schedule,
    write_report,
)
from .kernels import builtin_kernel
from .models import builtin_model
from .simulate import increment_diagnostics, read_path_csv, simulate_path, write_path_csv
from .stable import StableParams

__all__ = ["RunConfig", "cmd_simulate", "cmd_estimate", "cmd_experiment", "main"]


@dataclass
class RunConfig:
    """Flat, JSON-round-trippable description of one run.

    ``model`` is the only required field; everything else has a usable
    default.  Fields irrelevant to a given subcommand are ignored by it.
    """

    model: str
    model_params: dict = field(default_factory=dict)
    alpha: float = 1.5
    beta: float = 0.0
    kernel: str = "epanechnikov"
    n: int = 100_000
    delta: float = 0.01
    h: float = 0.3
    kappa: float = 2.0
    x0: float = 0.0
    burn_in: int = 100_000
    seed: int = 20_260_822
    x_points: list = field(default_factory=lambda: [0.0])
    method: str = "both"
    path_csv: str | None = None
    kind: str = "lln"
    replicates: int = 20
    schedules: list | None = None
    k_values: list = field(default_factory=lambda: [0, 1, 2])
    reference_size: int = 100_000
    tail_fraction: float = 0.1
    out_dir: str = "runs"

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        if not isinstance(data, dict):
            raise ConfigurationError(f"configuration must be a JSON object, got {type(data).__name__}")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigurationError(f"unknown configuration fields {unknown}; known fields: {sorted(known)}")
        if "model" not in data:
            raise ConfigurationError("missing required field: model")
        config = cls(**data)
        config._coerce()
        return config

    def _coerce(self) -> None:
        for f in dataclasses.fields(self):
            if f.type in _SCALAR_PARSERS:
                setattr(self, f.name, _SCALAR_PARSERS[f.type](f.name, getattr(self, f.name)))
        if not isinstance(self.model_params, dict):
            raise ConfigurationError("model_params must be an object of numbers")
        self.model_params = {k: check_number(f"model_params.{k}", v, ConfigurationError) for k, v in self.model_params.items()}
        if not isinstance(self.x_points, list) or not self.x_points:
            raise ConfigurationError("x_points must be a nonempty list of numbers")
        self.x_points = [check_number("x_points", v, ConfigurationError) for v in self.x_points]
        if not isinstance(self.k_values, list) or not self.k_values:
            raise ConfigurationError("k_values must be a nonempty list of integers")
        self.k_values = [_as_int("k_values", v) for v in self.k_values]
        if self.schedules is not None:
            if not isinstance(self.schedules, list) or not self.schedules:
                raise ConfigurationError("schedules must be a nonempty list of objects")
            cleaned = []
            for entry in self.schedules:
                if not isinstance(entry, dict):
                    raise ConfigurationError(f"each schedule must be an object, got {entry!r}")
                allowed = {"n", "delta", "h", "kappa"}
                unknown = sorted(set(entry) - allowed)
                if unknown:
                    raise ConfigurationError(f"unknown schedule fields {unknown}; allowed: {sorted(allowed)}")
                cleaned.append(
                    {
                        "n": _as_int("schedules.n", entry.get("n", self.n)),
                        "delta": check_number("schedules.delta", entry.get("delta", self.delta), ConfigurationError),
                        "h": check_number("schedules.h", entry.get("h", self.h), ConfigurationError),
                        "kappa": check_number("schedules.kappa", entry.get("kappa", self.kappa), ConfigurationError),
                    }
                )
            self.schedules = cleaned


def _as_int(name: str, value) -> int:
    if isinstance(value, bool):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    if isinstance(value, int):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ConfigurationError(f"{name} must be an integer, got {value!r}")


def _as_str(name: str, value) -> str:
    if not isinstance(value, str):
        raise ConfigurationError(f"{name} must be a string, got {value!r}")
    return value


# The parser of each scalar config field, picked by its annotation.
_SCALAR_PARSERS = {
    "int": _as_int,
    "float": lambda name, value: check_number(name, value, ConfigurationError),
    "str": _as_str,
    "str | None": lambda name, value: None if value is None else _as_str(name, value),
}


def _load_config(args: argparse.Namespace) -> RunConfig:
    data: dict = {}
    if args.config is not None:
        path = Path(args.config)
        if not path.exists():
            raise ConfigurationError(f"config file not found: {path}")
        try:
            data = json.loads(read_text(path, "utf-8", ConfigurationError))
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"config file {path}: {exc}") from None
    overrides = _flag_overrides(args)
    data.update(overrides)
    return RunConfig.from_dict(data)


def _flag_overrides(args: argparse.Namespace) -> dict:
    # a flag whose dest is a field name sets that field; the list fields
    # have flags of their own names, parsed below
    overrides = {
        f.name: getattr(args, f.name)
        for f in dataclasses.fields(RunConfig)
        if getattr(args, f.name, None) is not None
    }
    if getattr(args, "x", None):
        overrides["x_points"] = list(args.x)
    if getattr(args, "k", None):
        overrides["k_values"] = list(args.k)
    if getattr(args, "param", None):
        params = {}
        for item in args.param:
            if "=" not in item:
                raise ConfigurationError(f"--param expects NAME=VALUE, got {item!r}")
            key, _, raw = item.partition("=")
            try:
                params[key.strip()] = float(raw)
            except ValueError:
                raise ConfigurationError(f"--param {key.strip()}: {raw!r} is not a number") from None
        overrides["model_params"] = params
    if getattr(args, "schedule", None):
        schedules = []
        for item in args.schedule:
            fields = item.split(",")
            if len(fields) not in (3, 4):
                raise ConfigurationError(
                    f"--schedule expects N,DELTA,H[,KAPPA], got {item!r}"
                )
            entry = {"n": _parse_number(fields[0]), "delta": _parse_number(fields[1]), "h": _parse_number(fields[2])}
            if len(fields) == 4:
                entry["kappa"] = _parse_number(fields[3])
            schedules.append(entry)
        overrides["schedules"] = schedules
    return overrides


def _parse_number(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigurationError(f"{text!r} is not a number") from None


def _build_components(config: RunConfig):
    model = builtin_model(config.model, config.model_params)
    noise = StableParams(alpha=config.alpha, beta=config.beta)
    kernel = builtin_kernel(config.kernel)
    return model, noise, kernel


def _schedules(config: RunConfig) -> list[Schedule]:
    """Every schedule of the run: the ``schedules`` list, or else the one
    given by the top-level ``n``, ``delta``, ``h`` and ``kappa``."""
    entries = config.schedules or [{"n": config.n, "delta": config.delta, "h": config.h, "kappa": config.kappa}]
    return [Schedule(alpha=config.alpha, **entry) for entry in entries]


def _only(config: RunConfig, what: str, items: list):
    # bias, clt and lln take one schedule, and clt and lln one query point;
    # extra entries would otherwise be silently dropped
    if len(items) > 1:
        raise ConfigurationError(f"{config.kind} uses exactly one {what}, got {len(items)}")
    return items[0]


def cmd_simulate(config: RunConfig) -> int:
    """Simulate one trajectory and write it as ``<out_dir>/path.csv``."""
    model, noise, _ = _build_components(config)
    path = simulate_path(
        model, noise, x0=config.x0, n=config.n, delta=config.delta,
        seed=config.seed, burn_in=config.burn_in,
    )
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    destination = out_dir / "path.csv"
    write_path_csv(path, destination)
    sigma_mid = 0.5 * (model.sigma_bounds[0] + model.sigma_bounds[1])
    diag = increment_diagnostics(path, sigma_mid)
    print(f"simulated {config.model} path: n={config.n} delta={config.delta:g} seed={config.seed}")
    print(f"state range [{path.x.min():.6g}, {path.x.max():.6g}]")
    print(
        "jump diagnostics: max |increment| {max_abs_increment:.6g}, "
        "0.999 quantile {q999_abs_increment:.6g}, "
        "{jump_count} increments above {jump_threshold:.6g} "
        "(fraction {jump_fraction:.3g})".format(**diag)
    )
    print(f"wrote {destination}")
    return 0


def cmd_estimate(config: RunConfig) -> int:
    """Estimate the drift over the configured grid and write
    ``<out_dir>/estimates.csv``."""
    if config.method == "both":
        methods = ["local_linear", "nadaraya_watson"]
    elif config.method in ("local_linear", "nadaraya_watson"):
        methods = [config.method]
    else:
        raise ConfigurationError(
            f"unknown method {config.method!r}; expected local_linear, nadaraya_watson, or both"
        )
    model, noise, kernel = _build_components(config)
    if config.path_csv is not None:
        path = read_path_csv(config.path_csv, noise=noise)
    else:
        path = simulate_path(
            model, noise, x0=config.x0, n=config.n, delta=config.delta,
            seed=config.seed, burn_in=config.burn_in,
        )
    sums = kernel_sums(path, config.x_points, config.h, kernel)
    estimates = [est for method in methods for est in sums.estimates(method)]
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    destination = out_dir / "estimates.csv"
    write_drift_curve_csv(estimates, destination)
    for est in estimates:
        shown = "degenerate" if est.degenerate else f"{est.value:.6g}"
        print(f"{est.method} at x={est.x:g}: {shown}")
    print(f"wrote {destination}")
    return 0


def cmd_experiment(config: RunConfig, workers: int | None = None) -> int:
    """Run one experiment kind, write its report, and print the checks."""
    model, noise, kernel = _build_components(config)
    schedules = _schedules(config)
    if config.kind == "schedule":
        for schedule in schedules:
            print(f"schedule n={schedule.n} delta={schedule.delta:g} h={schedule.h:g} alpha={schedule.alpha:g}")
            for line in validate_schedule(schedule).lines():
                print("  " + line)
        return 0
    if config.kind == "consistency":
        report = run_consistency(
            model, noise, kernel, schedules, config.x_points, config.replicates,
            config.seed, x0=config.x0, burn_in=config.burn_in, workers=workers,
        )
    elif config.kind == "bias":
        report = run_bias_comparison(
            model, noise, kernel, _only(config, "schedule", schedules), config.x_points,
            config.replicates, config.seed, x0=config.x0, burn_in=config.burn_in, workers=workers,
        )
    elif config.kind == "clt":
        report = run_clt(
            model, noise, kernel, _only(config, "schedule", schedules),
            _only(config, "query point", config.x_points),
            config.replicates, config.seed, x0=config.x0, burn_in=config.burn_in,
            workers=workers, reference_size=config.reference_size, tail_fraction=config.tail_fraction,
        )
    elif config.kind == "lln":
        report = run_lln_check(
            model, noise, kernel, _only(config, "schedule", schedules),
            _only(config, "query point", config.x_points),
            config.k_values, config.replicates, config.seed, x0=config.x0,
            burn_in=config.burn_in, workers=workers,
        )
    else:
        raise ConfigurationError(
            f"unknown experiment kind {config.kind!r}; "
            "expected schedule, consistency, bias, clt, or lln"
        )
    paths = write_report(report, config.out_dir)
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"CHECK {check.name}: {status} ({check.detail})")
    print(f"report written to {paths['manifest'].parent}")
    return 0 if report.passed() else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stabledrift",
        description="Drift estimation for stable-noise SDEs: simulation, "
        "pointwise estimators, and Monte Carlo validation experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON configuration file")
        p.add_argument("--model", help="model name (ou_linear, tanh_drift, bounded_nonlinear)")
        p.add_argument("--param", action="append", metavar="NAME=VALUE", help="model parameter, repeatable")
        p.add_argument("--alpha", type=float, help="noise stability index in (1, 2]")
        p.add_argument("--beta", type=float, help="noise skewness in [-1, 1]")
        p.add_argument("--kernel", help="kernel name")
        p.add_argument("--n", type=int, help="number of observed increments")
        p.add_argument("--delta", type=float, help="observation spacing")
        p.add_argument("--h", type=float, help="bandwidth")
        p.add_argument("--kappa", type=float, help="drift smoothness order for schedule proxies")
        p.add_argument("--x0", type=float, help="initial state")
        p.add_argument("--burn-in", dest="burn_in", type=int, help="discarded prefix steps")
        p.add_argument("--seed", type=int, help="seed (master seed for experiments)")
        p.add_argument("--out-dir", dest="out_dir", help="output directory")

    p_sim = sub.add_parser("simulate", help="simulate one trajectory to CSV")
    add_common(p_sim)

    p_est = sub.add_parser("estimate", help="estimate the drift over a grid")
    add_common(p_est)
    p_est.add_argument("--x", action="append", type=float, help="query point, repeatable")
    p_est.add_argument("--method", help="local_linear, nadaraya_watson, or both")
    p_est.add_argument("--path-csv", dest="path_csv", help="read the trajectory from this CSV instead of simulating")

    p_exp = sub.add_parser("experiment", help="run a Monte Carlo experiment")
    add_common(p_exp)
    p_exp.add_argument("--kind", help="schedule, consistency, bias, clt, or lln")
    p_exp.add_argument("--x", action="append", type=float, help="query point, repeatable")
    p_exp.add_argument("--replicates", type=int, help="Monte Carlo replicates")
    p_exp.add_argument("--schedule", action="append", metavar="N,DELTA,H[,KAPPA]", help="schedule entry, repeatable")
    p_exp.add_argument("--k", action="append", type=int, help="moment order for lln, repeatable")
    p_exp.add_argument("--reference-size", dest="reference_size", type=int, help="stable reference sample size for clt")
    p_exp.add_argument("--tail-fraction", dest="tail_fraction", type=float, help="tail fraction for the Hill diagnostic")
    p_exp.add_argument(
        "--workers",
        type=int,
        help="worker processes (default: one per CPU the process may run on); each one steps affine batches "
        "and fits on its share of the usable CPUs; results are unchanged",
    )

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(args)
        if args.command == "simulate":
            return cmd_simulate(config)
        if args.command == "estimate":
            return cmd_estimate(config)
        return cmd_experiment(config, workers=getattr(args, "workers", None))
    except (ConfigurationError, ParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, SimulationError) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
