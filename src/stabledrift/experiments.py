"""Monte Carlo experiments that exercise the estimators' sampling theory.

Every experiment kind goes through one runner.  A kind supplies only its
own validation, its extra configuration fields, its provenance, a ``fit``
that turns one simulated path into the record fields it estimates, and a
summarizer.  The runner does the rest: replicate ``r`` of schedule ``s`` is
simulated from the derived seed of index ``s * replicates + r`` (the
single-schedule kinds are the case ``s = 0``), its fitted rows become
``ReplicateRecord`` rows, and the summarizer reduces them to summary rows
and checks.  Where a kind needs the stationary density oracle, it is built
once per run, in the parent process, while the replicates simulate; the
provenance, the summarizer and any standardization of the fitted rows (the
clt limit constants) read it there, and no fit ever receives it.

Replicate records are the unit of persistence; every summary statistic is a
deterministic function of the records plus the stored configuration, and
``ExperimentReport.verify_integrity`` recomputes the summaries from scratch,
oracle included, to prove it.  Replicates are independent, so they can be
distributed over worker processes, and within a process a batch's paths
are stepped (on the affine scan) and fitted on threads; results are folded
in replicate order, which makes the reports byte-identical for any worker
or thread count.

Four experiment kinds are provided, with :func:`validate_schedule` to
classify a sampling schedule before any is run:

- ``consistency``: local linear RMSE across a ladder of sampling schedules.
- ``bias``: local linear against the kernel-ratio estimator at fixed
  schedule, with second-order theory values alongside.
- ``clt``: standardized local linear errors against direct stable draws.
- ``lln``: kernel moment sums against their stationary limits.
"""

from __future__ import annotations

import hashlib
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from functools import lru_cache, partial
from pathlib import Path

import numpy as np

from .errors import MAX_DOUBLES, ConfigurationError, ParameterError, SimulationError, check_int, check_number, read_text
from .estimate import (
    asymptotic_constants,
    kernel_sums,
    nw_asymptotic_constants,
    s_nk,
)
from .kernels import Kernel, builtin_kernel, lambda_weight_changes_sign
from .models import _PLUGIN_PATHS, _PLUGIN_SEED, SdeModel, builtin_model, stationary_density_oracle
from .simulate import _simulate_paths, _thread_map, _usable_cpus, derive_replicate_seed
from .stable import (
    StableParams,
    _hill_tail_size,
    hill_tail_index,
    ks_critical_value,
    sample_standard_stable,
    two_sample_ks,
)

__all__ = [
    "Schedule",
    "ScheduleDiagnostics",
    "validate_schedule",
    "ReplicateRecord",
    "Check",
    "ExperimentReport",
    "run_consistency",
    "run_bias_comparison",
    "run_clt",
    "run_lln_check",
    "write_report",
    "read_records_csv",
    "config_hash",
]

_PROXY_THRESHOLD = 10.0
_MAX_DEGENERATE_FRACTION = 0.01
# Below this many paths a lockstep batch steps more slowly than the same
# paths stepped one at a time on Python floats (measured crossover).
_MIN_BATCH_WIDTH = 24
# Recorded states of one batch: 2**22 doubles, 32 MiB.
_MAX_BATCH_STATES = 2 ** 22
# The density entry the bias, clt and lln configs record.  The oracle has one
# route per model and alpha, and the plug-in route one design, a fixed count
# of paths from seeds derived from one seed, so the entry is a record, not a
# setting: a stored config with any other entry is refused.
_DENSITY = {"method": "auto", "seed": _PLUGIN_SEED, "paths": _PLUGIN_PATHS}


@dataclass(frozen=True)
class Schedule:
    """One sampling design: ``n`` steps of size ``delta``, bandwidth ``h``,
    noise index ``alpha`` in ``(1, 2]`` (the range ``StableParams`` admits),
    and drift smoothness order ``kappa`` used by the discretization-error
    proxy."""

    n: int
    delta: float
    h: float
    alpha: float
    kappa: float = 2.0

    def __post_init__(self) -> None:
        check_int("schedule n", self.n, 1, MAX_DOUBLES - 1)
        check_number("schedule delta", self.delta, positive=True)
        check_number("schedule h", self.h, positive=True)
        if not (1.0 < check_number("schedule alpha", self.alpha) <= 2.0):
            raise ParameterError(f"schedule alpha must lie in (1, 2], got {self.alpha}")
        if not (check_number("schedule kappa", self.kappa) > self.alpha):
            raise ParameterError(
                f"schedule kappa must exceed alpha, got kappa={self.kappa}, alpha={self.alpha}"
            )

    def as_dict(self) -> dict:
        return {"n": self.n, "delta": self.delta, "h": self.h, "alpha": self.alpha, "kappa": self.kappa}


@dataclass
class ScheduleDiagnostics:
    """Rate and remainder proxies of a schedule.

    ``rate`` is the convergence rate ``(n delta h)^(1 - 1/alpha)``.  The
    three proxies multiply the rate by the first-order kernel centering
    (``h``), the second-order bias (``h^2``), and the discretization
    remainder (``delta^(1 - 1/kappa)``); a centered limit under scheme (i)
    needs the first and third to stay bounded, scheme (ii) the second and
    third.  "Bounded" is proxied by the fixed threshold 10.
    """

    n_delta_h: float
    rate: float
    proxy_centering: float
    proxy_bias: float
    proxy_discretization: float
    scheme_i: bool
    scheme_ii: bool
    classification: str
    notes: list[str] = field(default_factory=list)

    def lines(self) -> list[str]:
        rows = [
            ("effective local sample size n*delta*h", self.n_delta_h),
            ("rate (n*delta*h)^(1-1/alpha)", self.rate),
            ("proxy rate*h (scheme i centering)", self.proxy_centering),
            ("proxy rate*h^2 (scheme ii bias)", self.proxy_bias),
            ("proxy rate*delta^(1-1/kappa) (discretization)", self.proxy_discretization),
        ]
        width = max(len(label) for label, _ in rows)
        out = [f"{label:<{width}}  {value:.6g}" for label, value in rows]
        out.append(f"{'classification':<{width}}  {self.classification}")
        for note in self.notes:
            out.append(f"note: {note}")
        return out


def validate_schedule(schedule: Schedule) -> ScheduleDiagnostics:
    """Classify a schedule by which centering scheme its proxies admit."""
    if not isinstance(schedule, Schedule):
        raise ParameterError("schedule must be a Schedule instance")
    ndh = schedule.n * schedule.delta * schedule.h
    exponent = 1.0 - 1.0 / schedule.alpha
    rate = ndh ** exponent
    proxy_centering = rate * schedule.h
    proxy_bias = rate * schedule.h * schedule.h
    proxy_disc = rate * schedule.delta ** (1.0 - 1.0 / schedule.kappa)
    scheme_i = proxy_centering <= _PROXY_THRESHOLD and proxy_disc <= _PROXY_THRESHOLD
    scheme_ii = proxy_bias <= _PROXY_THRESHOLD and proxy_disc <= _PROXY_THRESHOLD
    if scheme_i and scheme_ii:
        classification = "both"
    elif scheme_i:
        classification = "i"
    elif scheme_ii:
        classification = "ii"
    else:
        classification = "neither"
    notes: list[str] = []
    if ndh < _PROXY_THRESHOLD:
        notes.append(
            f"effective local sample size n*delta*h = {ndh:.4g} is small; "
            "asymptotic approximations are unreliable"
        )
    return ScheduleDiagnostics(
        n_delta_h=ndh,
        rate=rate,
        proxy_centering=proxy_centering,
        proxy_bias=proxy_bias,
        proxy_discretization=proxy_disc,
        scheme_i=scheme_i,
        scheme_ii=scheme_ii,
        classification=classification,
        notes=notes,
    )


@dataclass(frozen=True)
class ReplicateRecord:
    """One persisted observation of one replicate.

    A kind fills only the fields it estimates; the rest keep their
    defaults.  ``std_error`` is populated only by the clt experiment
    (standardized error); elsewhere it is NaN.  NaN fields serialize as
    empty CSV cells.
    """

    replicate: int
    seed: int
    x: float
    method: str
    estimate: float
    error: float = math.nan
    std_error: float = math.nan
    degenerate: bool = False


@dataclass(frozen=True)
class Check:
    """A named pass/fail condition evaluated by an experiment."""

    name: str
    passed: bool
    detail: str


@dataclass
class ExperimentReport:
    """Everything one experiment produced.

    ``config`` is a JSON-serializable snapshot sufficient to rerun the
    experiment; it deliberately excludes the worker count, which must not
    influence any output.  ``summaries`` is a list of flat dict rows with a
    kind-specific column set, each a deterministic function of
    ``(records, config)``.
    """

    kind: str
    config: dict
    records: list[ReplicateRecord]
    summaries: list[dict]
    checks: list[Check]
    provenance: dict

    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def recompute_summaries(self) -> tuple[list[dict], list[Check]]:
        """Re-derive summaries and checks from the stored records; a
        density oracle is rebuilt from the stored configuration.

        Raises
        ------
        ConfigurationError
            When the config's ``density`` entry is not the one every run
            records: the oracle has one route per model and alpha, so such
            a report was not made by this program's oracle.
        """
        density = self.config.get("density", _DENSITY)
        if density != _DENSITY:
            raise ConfigurationError(f"stored density entry {density!r} differs from the recorded {_DENSITY!r}")
        return _SUMMARIZERS[self.kind](self.records, self.config)

    def verify_integrity(self) -> bool:
        """True when stored and recomputed summaries would write the same
        summary CSV lines and the checks are equal."""
        summaries, checks = self.recompute_summaries()
        return _summary_csv_lines(self.summaries) == _summary_csv_lines(summaries) and checks == list(self.checks)


@lru_cache(maxsize=8)
def _cached_model(name: str, params_items: tuple) -> SdeModel:
    return builtin_model(name, dict(params_items))


def _model_from_config(config: dict) -> SdeModel:
    return _cached_model(config["model"]["name"], tuple(sorted(config["model"]["params"].items())))


def _kernel_from_config(config: dict) -> Kernel:
    return builtin_kernel(config["kernel"])


def _noise_from_config(config: dict) -> StableParams:
    return StableParams(alpha=config["noise"]["alpha"], beta=config["noise"]["beta"])


def _density_from_config(config: dict):
    return stationary_density_oracle(_model_from_config(config), _noise_from_config(config))


def _schedules(config: dict) -> list[dict]:
    return config["schedules"] if "schedules" in config else [config["schedule"]]


def _config(
    kind: str,
    model: SdeModel,
    noise: StableParams,
    kernel: Kernel,
    schedules: list[Schedule],
    x_points: list[float],
    replicates: int,
    master_seed: int,
    x0: float,
    burn_in: int,
    workers: int | None,
    **extra,
) -> dict:
    """Validate what every kind shares and snapshot it with the kind's
    ``extra`` fields as the run's configuration; ``workers`` is checked but
    kept out of the snapshot, since it must not influence any output."""
    if not isinstance(model, SdeModel):
        raise ParameterError("model must be an SdeModel")
    if not isinstance(noise, StableParams):
        raise ParameterError("noise must be a StableParams instance")
    if not isinstance(kernel, Kernel):
        raise ParameterError("kernel must be a Kernel instance")
    check_int("replicates", replicates, 2)
    check_int("master_seed", master_seed)
    check_int("burn_in", burn_in, 0)
    if workers is not None:
        check_int("workers", workers, 1)
    if not schedules:
        raise ParameterError("at least one schedule is required")
    for schedule in schedules:
        if schedule.alpha != noise.alpha:
            raise ConfigurationError(
                f"schedule alpha {schedule.alpha} disagrees with noise alpha {noise.alpha}"
            )
    config = {
        "kind": kind,
        "model": {"name": model.name, "params": dict(model.params)},
        "noise": {"alpha": noise.alpha, "beta": noise.beta},
        "kernel": kernel.name,
        "x_points": [check_number("x_points entry", v) for v in np.ravel(np.asarray(x_points, dtype=object))],
        "replicates": replicates,
        "master_seed": master_seed,
        "x0": check_number("x0", x0),
        "burn_in": burn_in,
    }
    if kind == "consistency":
        config["schedules"] = [s.as_dict() for s in schedules]
    else:
        config["schedule"] = schedules[0].as_dict()
    config.update(extra)
    return config


def _batches(replicates: int, n: int, workers: int) -> list[tuple[int, int]]:
    """Split one schedule's replicates into contiguous ``(first, count)``
    ranges, each simulated as one lockstep batch.

    There are at least as many batches as workers, and enough that a
    batch's recorded states stay within ``_MAX_BATCH_STATES``; when that
    leaves batches narrower than ``_MIN_BATCH_WIDTH``, every replicate is
    its own batch.  The boundaries move with the worker count, which is
    safe because the engine's arithmetic is elementwise: a path's bytes do
    not depend on the batch it is stepped in.
    """
    count = max(min(workers, replicates), math.ceil(replicates * (n + 1) / _MAX_BATCH_STATES))
    if replicates // count < _MIN_BATCH_WIDTH:
        return [(r, 1) for r in range(replicates)]
    bounds = [replicates * i // count for i in range(count + 1)]
    return [(lo, hi - lo) for lo, hi in zip(bounds, bounds[1:])]


def _replicates(job: tuple) -> list[tuple[int, list[dict]]]:
    """Simulate one batch of replicates and fit each path: ``job`` is
    ``(fit, config, schedule_index, first, count, threads)``; returns each
    replicate's seed and the rows its fit returned, in replicate order.
    The batch is stepped on up to ``threads`` threads where its model takes
    the affine scan, and its paths are fitted on as many."""
    fit, config, s_idx, first, count, threads = job
    schedule = _schedules(config)[s_idx]
    offset = s_idx * config["replicates"] + first
    seeds = [derive_replicate_seed(config["master_seed"], offset + j) for j in range(count)]
    model = _model_from_config(config)
    try:
        paths = _simulate_paths(
            model,
            _noise_from_config(config),
            x0=config["x0"],
            n=schedule["n"],
            delta=schedule["delta"],
            seeds=seeds,
            burn_in=config["burn_in"],
            threads=threads,
        )
    except SimulationError as exc:
        raise SimulationError(f"replicate {offset + exc.path_index}, {exc}") from None
    kernel = _kernel_from_config(config)

    def fitted(path):
        return path.seed, fit(model, kernel, path, schedule["h"], config)

    return _thread_map(fitted, paths, threads)


def _run(config: dict, fit, workers: int | None, describe, finish=None) -> ExperimentReport:
    """Run every replicate of every schedule through ``fit`` and summarize.

    Each fit is called as ``fit(model, kernel, path, h, config)``.  A kind
    whose config has a ``density`` entry has a stationary density oracle,
    built once in the parent and handed to the summarizer; no fit receives
    it.
    ``describe(density)`` (``density`` is None without an oracle) gives the
    report's provenance, and ``finish(rows, config, provenance)``, when
    given, turns the rows a fit returned for one replicate into its record
    fields.  A serial run builds the oracle before it simulates, so an
    oracle failure costs no simulation.  A pooled run submits every batch
    first and builds the oracle while the workers simulate; if the oracle
    fails, the pending batches are cancelled and its error is raised.
    ``workers`` None takes one worker per CPU the process may run on, and
    the pool starts no more processes than that; the batches follow ``workers``.

    Each process of the run, the parent of a serial run or each pool
    worker, steps affine batches and fits their paths on its share of the
    CPUs the process may run on: ``_usable_cpus() // processes`` threads,
    at least one.  A serial run on two CPUs takes two, a run of two
    workers one each.  Every helper thread has ended before a batch
    returns, so the pool forks no thread's state, and the records are
    folded in replicate order whatever the thread count.
    """
    cpus = _usable_cpus()
    if workers is None:
        workers = cpus
    batches = [
        (s_idx, first, count)
        for s_idx, schedule in enumerate(_schedules(config))
        for first, count in _batches(config["replicates"], schedule["n"], workers)
    ]
    processes = min(workers, len(batches), cpus)
    threads = max(1, cpus // processes)
    jobs = [(fit, config, *batch, threads) for batch in batches]

    def oracle():
        density = _density_from_config(config) if "density" in config else None
        return density, describe(density)

    if processes <= 1:
        density, provenance = oracle()
        results = [_replicates(job) for job in jobs]
    else:
        with ProcessPoolExecutor(max_workers=processes) as pool:
            # map submits every batch before it returns
            pending = pool.map(_replicates, jobs, chunksize=max(1, len(jobs) // (processes * 4)))
            try:
                density, provenance = oracle()
            except BaseException:
                pool.shutdown(cancel_futures=True)
                raise
            results = list(pending)
    records = [
        ReplicateRecord(replicate=index, seed=seed, **row)
        for index, (seed, rows) in enumerate(pair for batch in results for pair in batch)
        for row in (finish(rows, config, provenance) if finish else rows)
    ]
    summaries, checks = _SUMMARIZERS[config["kind"]](records, config, density)
    return ExperimentReport(config["kind"], config, records, summaries, checks, provenance)


def _fit_drift(model: SdeModel, kernel: Kernel, path, h: float, config: dict, *, methods: tuple) -> list[dict]:
    """Estimate and error of each drift estimator in ``methods`` at every
    query point, from one kernel-sum pass over the query points."""
    sums = kernel_sums(path, config["x_points"], h, kernel)
    rows = []
    for xq, *estimates in zip(config["x_points"], *(sums.estimates(method) for method in methods)):
        truth = float(model.mu(float(xq)))
        for est in estimates:
            error = est.value - truth if not est.degenerate else math.nan
            rows.append(
                {"x": xq, "method": est.method, "estimate": est.value, "error": error, "degenerate": est.degenerate}
            )
    return rows


def _degenerate_check(name: str, degenerate: int, total: int) -> Check:
    fraction = degenerate / total if total else 0.0
    return Check(
        name=name,
        passed=fraction <= _MAX_DEGENERATE_FRACTION,
        detail=f"degenerate fraction {fraction:.4g} over {total} fits (limit {_MAX_DEGENERATE_FRACTION})",
    )


def _finite(values: list[float]) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    return arr[np.isfinite(arr)]


# ---------------------------------------------------------------------------
# consistency


def run_consistency(
    model: SdeModel,
    noise: StableParams,
    kernel: Kernel,
    schedules: list[Schedule],
    x_points,
    replicates: int,
    master_seed: int,
    *,
    x0: float = 0.0,
    burn_in: int = 100_000,
    workers: int | None = None,
) -> ExperimentReport:
    """Local linear error statistics across a ladder of schedules.

    Schedules must form a refinement ladder of at least two rungs: strictly
    increasing ``n`` with non-increasing ``delta`` and ``h``.  Replicate
    ``j`` of schedule ``s`` uses the derived seed of index
    ``s * replicates + j``, so the record block of each schedule is
    self-contained.
    """
    config = _config(
        "consistency", model, noise, kernel, schedules, x_points, replicates, master_seed, x0, burn_in,
        workers,
    )
    if len(schedules) < 2:
        raise ParameterError(f"consistency requires at least two schedules, got {len(schedules)}")
    for prev, cur in zip(schedules, schedules[1:]):
        if not (cur.n > prev.n and cur.delta <= prev.delta and cur.h <= prev.h):
            raise ParameterError(
                "schedules must refine: strictly increasing n with non-increasing delta and h"
            )
    provenance = {
        "schedule_diagnostics": [asdict(validate_schedule(s)) for s in schedules],
        "kernel_sign_change": lambda_weight_changes_sign(kernel),
    }
    return _run(config, partial(_fit_drift, methods=("local_linear",)), workers, lambda density: provenance)


def _summarize_consistency(records: list[ReplicateRecord], config: dict, density=None) -> tuple[list[dict], list[Check]]:
    replicates = config["replicates"]
    schedules = config["schedules"]
    summaries = []
    checks = []
    for s_idx, sched in enumerate(schedules):
        block = [r for r in records if s_idx * replicates <= r.replicate < (s_idx + 1) * replicates]
        for xq in config["x_points"]:
            cell = [r for r in block if r.x == xq]
            errors = _finite([r.error for r in cell])
            degenerate = sum(r.degenerate for r in cell)
            summaries.append(
                {
                    "schedule_index": s_idx,
                    "n": sched["n"],
                    "delta": sched["delta"],
                    "h": sched["h"],
                    "x": xq,
                    "replicates": len(cell),
                    "degenerate_count": degenerate,
                    "mean_error": float(errors.mean()) if errors.size else math.nan,
                    "median_error": float(np.median(errors)) if errors.size else math.nan,
                    "median_abs_error": float(np.median(np.abs(errors))) if errors.size else math.nan,
                    "rmse": float(np.sqrt(np.mean(errors ** 2))) if errors.size else math.nan,
                }
            )
            checks.append(
                _degenerate_check(f"degenerate-fraction-schedule{s_idx}-x{xq:g}", degenerate, len(cell))
            )
    for xq in config["x_points"]:
        ladder = [row["rmse"] for row in summaries if row["x"] == xq]
        decreasing = all(b < a for a, b in zip(ladder, ladder[1:]))
        checks.append(
            Check(
                name=f"rmse-strictly-decreasing-x{xq:g}",
                passed=decreasing and all(math.isfinite(v) for v in ladder),
                detail="rmse ladder " + " -> ".join(f"{v:.6g}" for v in ladder),
            )
        )
        halved = len(ladder) >= 2 and ladder[-1] < 0.5 * ladder[0]
        checks.append(
            Check(
                name=f"final-rmse-below-half-x{xq:g}",
                passed=halved,
                detail=f"first {ladder[0]:.6g}, final {ladder[-1]:.6g}",
            )
        )
    return summaries, checks


# ---------------------------------------------------------------------------
# bias comparison

# The lambdas call through this module's names, which perfbench's tracer rebinds.
_BIAS_METHODS = (("local_linear", lambda *args: asymptotic_constants(*args), lambda theory: 0.0),
                 ("nadaraya_watson", lambda *args: nw_asymptotic_constants(*args), lambda theory: theory.first_order))


def run_bias_comparison(
    model: SdeModel,
    noise: StableParams,
    kernel: Kernel,
    schedule: Schedule,
    x_points,
    replicates: int,
    master_seed: int,
    *,
    x0: float = 0.0,
    burn_in: int = 100_000,
    workers: int | None = None,
) -> ExperimentReport:
    """Empirical bias of both estimators at fixed schedule, with the
    second-order theory values they should track.

    For each query point the summary carries, per ``_BIAS_METHODS`` row, the
    mean and median error with a Monte Carlo standard error, the second-order
    bias ``h^2 * Gamma``, and the first-order term ``h * K_1 * mu'(x)`` (zero
    for the local linear estimator and for symmetric kernels).  The theory
    values read the stationary density of :func:`stationary_density_oracle`,
    whose one route is fixed by the model and ``alpha``; the config records
    it as its ``density`` entry.
    """
    config = _config(
        "bias", model, noise, kernel, [schedule], x_points, replicates, master_seed, x0, burn_in, workers,
        density=dict(_DENSITY),
    )

    def describe(density):
        return {
            "density_provenance": density.provenance,
            "kernel_sign_change": lambda_weight_changes_sign(kernel),
            "schedule_diagnostics": asdict(validate_schedule(schedule)),
        }

    return _run(config, partial(_fit_drift, methods=tuple(m for m, *_ in _BIAS_METHODS)), workers, describe)


def _summarize_bias(records: list[ReplicateRecord], config: dict, density=None) -> tuple[list[dict], list[Check]]:
    model = _model_from_config(config)
    noise = _noise_from_config(config)
    kernel = _kernel_from_config(config)
    if density is None:
        density = _density_from_config(config)
    sched = config["schedule"]
    n, delta, h = sched["n"], sched["delta"], sched["h"]
    summaries = []
    checks = []
    for xq in config["x_points"]:
        for method, limit_constants, first_order in _BIAS_METHODS:
            theory = limit_constants(model, density, noise, kernel, xq, n, delta, h)
            cell = [r for r in records if r.x == xq and r.method == method]
            errors = _finite([r.error for r in cell])
            degenerate = sum(r.degenerate for r in cell)
            count = errors.size
            mc_se = float(errors.std(ddof=1) / math.sqrt(count)) if count > 1 else math.nan
            summaries.append(
                {
                    "x": xq,
                    "method": method,
                    "replicates": len(cell),
                    "degenerate_count": degenerate,
                    "mean_error": float(errors.mean()) if count else math.nan,
                    "median_error": float(np.median(errors)) if count else math.nan,
                    "mc_se": mc_se,
                    "rmse": float(np.sqrt(np.mean(errors ** 2))) if count else math.nan,
                    "theory_bias_h2": theory.bias_term,
                    "theory_first_order": first_order(theory),
                }
            )
            checks.append(
                _degenerate_check(f"degenerate-fraction-{method}-x{xq:g}", degenerate, len(cell))
            )
    return summaries, checks


# ---------------------------------------------------------------------------
# clt

_CLT_METHODS = (("local_linear", False), ("local_linear_fhat", True))  # True: the replicate's fhat replaces f(x)


def run_clt(
    model: SdeModel,
    noise: StableParams,
    kernel: Kernel,
    schedule: Schedule,
    x: float,
    replicates: int,
    master_seed: int,
    *,
    x0: float = 0.0,
    burn_in: int = 100_000,
    workers: int | None = None,
    reference_size: int = 100_000,
    tail_fraction: float = 0.1,
) -> ExperimentReport:
    """Standardized local linear errors against direct stable draws.

    Each replicate contributes one record per ``_CLT_METHODS`` row, with
    identical estimate and error: the oracle row ``"local_linear"``
    standardizes with the oracle stationary density at ``x``; the plug-in row
    ``"local_linear_fhat"`` replaces it with the replicate's own kernel
    density estimate, as a practitioner without the oracle would; the oracle
    is :func:`stationary_density_oracle`, whose one route is fixed by the
    model and ``alpha`` and recorded as the config's ``density`` entry.  The
    workers return only each replicate's estimate, error and kernel density
    estimate; the parent builds the oracle and the limit constants while they
    simulate, and standardizes the errors once their batches are back.  The
    reference sample of standard stable draws uses the derived seed index
    ``replicates``, the first one past the replicate block.

    Checks: the degenerate-fraction bound of every row, and on the oracle
    row symmetry of the standardized errors, closeness to the stable
    reference (both KS at the 1 percent level; the reference comparison is
    allowed 1.5 times the critical value except in the Gaussian control
    ``alpha = 2``, which must pass at the critical value itself), and a Hill
    tail index compatible with ``alpha`` for heavy-tailed runs.
    """
    x = check_number("x", x)
    config = _config(
        "clt", model, noise, kernel, [schedule], [x], replicates, master_seed, x0, burn_in, workers,
        density=dict(_DENSITY),
    )
    check_int("reference_size", reference_size, 100, MAX_DOUBLES)
    if not (0.0 < check_number("tail_fraction", tail_fraction) < 1.0):
        raise ParameterError(f"tail_fraction must lie in (0, 1), got {tail_fraction}")
    # the Hill estimate needs more usable replicates than its tail size
    tail_size = _hill_tail_size(replicates, tail_fraction)
    if replicates <= tail_size:
        raise ParameterError(
            f"clt needs more than {tail_size} replicates for a Hill tail estimate "
            f"at tail_fraction {tail_fraction}, got {replicates}"
        )
    config.update(reference_size=reference_size, tail_fraction=float(tail_fraction))

    def describe(density):
        constants = asymptotic_constants(
            model, density, noise, kernel, x, schedule.n, schedule.delta, schedule.h
        )
        return {
            "density_provenance": density.provenance,
            "kernel_sign_change": lambda_weight_changes_sign(kernel),
            "schedule_diagnostics": asdict(validate_schedule(schedule)),
            "constants": asdict(constants),
            "density_at_x": float(density.f(x)),
        }

    return _run(config, _fit_clt, workers, describe, finish=_standardize_clt)


def _fit_clt(model: SdeModel, kernel: Kernel, path, h: float, config: dict) -> list[dict]:
    """The local linear estimate and error at the query point and the
    replicate's own kernel density estimate ``fhat`` there; the parent
    standardizes them with :func:`_standardize_clt`."""
    xq = config["x_points"][0]
    sums = kernel_sums(path, [xq], h, kernel)
    est = sums.estimates("local_linear")[0]
    truth = float(model.mu(float(xq)))
    error = est.value - truth if not est.degenerate else math.nan
    fhat = sums.density()[0]
    return [{"x": xq, "estimate": est.value, "error": error, "fhat": fhat, "degenerate": est.degenerate}]


def _standardize_clt(rows: list[dict], config: dict, provenance: dict) -> list[dict]:
    """One replicate's clt records, one per ``_CLT_METHODS`` row: its error
    standardized by the run's limit constants, with the oracle density
    ``f(x)`` or, in a plug-in row, the replicate's kernel density estimate."""
    (row,) = rows
    constants, fx = provenance["constants"], provenance["density_at_x"]
    std_oracle = (math.nan if row["degenerate"]
                  else constants["rate"] * constants["lambda_x"] * (row["error"] - constants["bias_term"]))
    records = []
    for method, plug_in in _CLT_METHODS:
        std, degenerate = std_oracle, row["degenerate"]
        if plug_in:
            degenerate = degenerate or not (row["fhat"] > 0.0)
            std = math.nan if degenerate else std * (row["fhat"] / fx) ** (1.0 - 1.0 / config["noise"]["alpha"])
        records.append({"x": row["x"], "method": method, "estimate": row["estimate"], "error": row["error"],
                        "std_error": std, "degenerate": degenerate})
    return records


def _reference_sample(config: dict) -> np.ndarray:
    seed = derive_replicate_seed(config["master_seed"], config["replicates"])
    rng = np.random.Generator(np.random.PCG64(seed))
    noise = _noise_from_config(config)
    return np.asarray(sample_standard_stable(noise, rng, size=config["reference_size"]))


def _summarize_clt(records: list[ReplicateRecord], config: dict, density=None) -> tuple[list[dict], list[Check]]:
    reference = _reference_sample(config)
    alpha = config["noise"]["alpha"]
    ref_iqr = float(np.subtract(*np.quantile(reference, [0.75, 0.25])))
    summaries = []
    checks = []
    for method, plug_in in _CLT_METHODS:
        cell = [r for r in records if r.method == method]
        std = _finite([r.std_error for r in cell])
        degenerate = sum(r.degenerate for r in cell)
        count = std.size
        # a statistic that needs more usable replicates than remain is NaN,
        # an empty cell, and the check that reads it fails
        ks_ref = crit_ref = ks_sym = crit_sym = tail = scale_ratio = math.nan
        tail_detail = f"no hill index from {count} usable replicates"
        if count >= 2:
            ks_ref = two_sample_ks(std, reference)
            crit_ref = ks_critical_value(count, reference.size, level=0.01)
            ks_sym = two_sample_ks(std, -std)
            crit_sym = ks_critical_value(count, count, level=0.01)
            scale_ratio = float(np.subtract(*np.quantile(std, [0.75, 0.25]))) / ref_iqr
            try:
                tail = hill_tail_index(std, fraction=config["tail_fraction"])
                tail_detail = f"hill index {tail:.4g}"
            except ParameterError as exc:
                tail_detail += f" ({exc})"
        summaries.append(
            {
                "method": method,
                "replicates": len(cell),
                "degenerate_count": degenerate,
                "ks_vs_stable": ks_ref,
                "ks_critical": crit_ref,
                "ks_symmetry": ks_sym,
                "ks_symmetry_critical": crit_sym,
                "tail_index": tail,
                "scale_ratio": scale_ratio,
            }
        )
        checks.append(_degenerate_check(f"degenerate-fraction-{method}", degenerate, len(cell)))
        if not plug_in:
            factor = 1.0 if alpha == 2.0 else 1.5
            if count < 2:
                ref_detail = sym_detail = f"{count} usable replicates, fewer than the 2 a KS statistic needs"
            else:
                ref_detail = f"ks {ks_ref:.6g} against {factor:g} * critical {crit_ref:.6g}"
                sym_detail = f"ks {ks_sym:.6g} against critical {crit_sym:.6g}"
            checks.append(Check(name="clt-ks-vs-stable", passed=ks_ref <= factor * crit_ref, detail=ref_detail))
            checks.append(Check(name="clt-symmetry", passed=ks_sym <= crit_sym, detail=sym_detail))
            if alpha < 2.0:
                lo, hi = alpha - 0.3, alpha + 0.4
                checks.append(
                    Check(
                        name="clt-tail-index",
                        passed=lo <= tail <= hi,
                        detail=f"{tail_detail} against window [{lo:g}, {hi:g}]",
                    )
                )
    return summaries, checks


# ---------------------------------------------------------------------------
# lln


def run_lln_check(
    model: SdeModel,
    noise: StableParams,
    kernel: Kernel,
    schedule: Schedule,
    x: float,
    k_values,
    replicates: int,
    master_seed: int,
    *,
    x0: float = 0.0,
    burn_in: int = 100_000,
    workers: int | None = None,
) -> ExperimentReport:
    """Kernel moment sums ``s_nk / (n h^k)`` against ``f(x) * K_k``.

    Zero targets (odd moments of a symmetric kernel) are checked in
    absolute terms at 0.02; everything else relatively at 5 percent, with
    the median over replicates as the tested statistic.  ``f`` is
    :func:`stationary_density_oracle`, whose one route is fixed by the model
    and ``alpha`` and recorded as the config's ``density`` entry.
    """
    x = check_number("x", x)
    config = _config(
        "lln", model, noise, kernel, [schedule], [x], replicates, master_seed, x0, burn_in, workers,
        density=dict(_DENSITY),
    )
    wanted = f"k_values must be a nonempty subset of {{0, 1, 2, 3}}, got {k_values}"
    try:
        k_list = list(k_values)
    except TypeError:
        raise ParameterError(wanted) from None
    for k in k_list:
        check_int("k_values entry", k)
    k_list = sorted(set(k_list))
    if not k_list or any(k not in (0, 1, 2, 3) for k in k_list):
        raise ParameterError(wanted)
    config["k_values"] = k_list

    def describe(density):
        return {
            "density_provenance": density.provenance,
            "schedule_diagnostics": asdict(validate_schedule(schedule)),
        }

    return _run(config, _fit_moments, workers, describe)


def _fit_moments(model: SdeModel, kernel: Kernel, path, h: float, config: dict) -> list[dict]:
    """Normalized kernel moment sums ``s_nk / (n h^k)`` for every ``k``."""
    xq = config["x_points"][0]
    return [
        {"x": xq, "method": f"moment_k{k}", "estimate": s_nk(path, xq, h, kernel, k) / (path.n * h ** k)}
        for k in config["k_values"]
    ]


def _summarize_lln(records: list[ReplicateRecord], config: dict, density=None) -> tuple[list[dict], list[Check]]:
    kernel = _kernel_from_config(config)
    if density is None:
        density = _density_from_config(config)
    xq = config["x_points"][0]
    fx = float(density.f(xq))
    moments = {0: 1.0, 1: kernel.k1, 2: kernel.k2, 3: kernel.k3}
    summaries = []
    checks = []
    for k in config["k_values"]:
        cell = [r for r in records if r.method == f"moment_k{k}"]
        values = np.asarray([r.estimate for r in cell], dtype=float)
        target = fx * moments[k]
        abs_errors = np.abs(values - target)
        median_abs = float(np.median(abs_errors))
        relative = abs(target) > 1e-12
        median_rel = float(np.median(abs_errors / abs(target))) if relative else math.nan
        summaries.append(
            {
                "k": k,
                "target": target,
                "replicates": len(cell),
                "mean_value": float(values.mean()),
                "median_value": float(np.median(values)),
                "median_abs_error": median_abs,
                "median_rel_error": median_rel,
            }
        )
        if relative:
            passed = median_rel <= 0.05
            detail = f"median relative error {median_rel:.4g} against 0.05 (target {target:.6g})"
        else:
            passed = median_abs <= 0.02
            detail = f"median absolute error {median_abs:.4g} against 0.02 (target 0)"
        checks.append(Check(name=f"lln-moment-k{k}", passed=passed, detail=detail))
    return summaries, checks


_SUMMARIZERS = {
    "consistency": _summarize_consistency,
    "bias": _summarize_bias,
    "clt": _summarize_clt,
    "lln": _summarize_lln,
}


# ---------------------------------------------------------------------------
# persistence


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if math.isnan(value):
            return ""
        return f"{value:.17g}"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


_RECORD_FIELDS = tuple(f.name for f in fields(ReplicateRecord))
_RECORDS_HEADER = ",".join(_RECORD_FIELDS)


def _records_csv_lines(records: list[ReplicateRecord]) -> list[str]:
    rows = (",".join(_cell(getattr(r, name)) for name in _RECORD_FIELDS) for r in records)
    return [_RECORDS_HEADER, *rows]


def _summary_csv_lines(summaries: list[dict]) -> list[str]:
    """The summary CSV: a header of the first row's keys and one line per
    row in that column order; no lines for no rows."""
    if not summaries:
        return []
    columns = list(summaries[0])
    return [",".join(columns), *(",".join(_cell(row[c]) for c in columns) for row in summaries)]


def _float_cell(text: str) -> float:
    return float(text) if text else math.nan


def _bool_cell(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError(text)
    return text == "true"


# The inverse of ``_cell`` for each record field, picked by its annotation.
_RECORD_PARSERS = tuple(
    {"int": int, "float": _float_cell, "str": str, "bool": _bool_cell}[f.type] for f in fields(ReplicateRecord)
)


def read_records_csv(source) -> list[ReplicateRecord]:
    """Load replicate records written by :func:`write_report`."""
    text = read_text(source, "ascii", ParameterError)
    rows = [line for line in text.splitlines() if line.strip()]
    if not rows or rows[0] != _RECORDS_HEADER:
        raise ParameterError(f"{source}: expected a records CSV with header {_RECORDS_HEADER!r}")
    records = []
    for row, line in enumerate(rows[1:], start=1):
        cells = line.split(",")
        if len(cells) != len(_RECORD_PARSERS):
            raise ParameterError(f"{source}: malformed row {line!r}")
        try:
            records.append(ReplicateRecord(*(parse(cell) for parse, cell in zip(_RECORD_PARSERS, cells))))
        except ValueError:
            raise ParameterError(f"{source}: row {row}: invalid cell in {line!r}") from None
    return records


def config_hash(config: dict) -> str:
    """SHA-256 over the canonical JSON encoding of a config snapshot."""
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("ascii")).hexdigest()


def write_report(report: ExperimentReport, out_dir) -> dict:
    """Persist a report as records CSV, summary CSV, and a JSON manifest.

    Output bytes are a pure function of the report content: floats are
    rendered at 17 significant digits, NaN cells are left empty, and the
    manifest is canonical JSON, so reruns of the same configuration compare
    equal at the byte level regardless of worker count.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    records_path = out / f"{report.kind}_records.csv"
    summary_path = out / f"{report.kind}_summary.csv"
    manifest_path = out / f"{report.kind}_manifest.json"

    records_path.write_text("\n".join(_records_csv_lines(report.records)) + "\n", encoding="ascii")

    summary_lines = _summary_csv_lines(report.summaries)
    if summary_lines:
        summary_path.write_text("\n".join(summary_lines) + "\n", encoding="ascii")

    manifest = {
        "kind": report.kind,
        "config": report.config,
        "config_hash": config_hash(report.config),
        "package_version": _package_version(),
        "checks": [asdict(c) for c in report.checks],
        "provenance": report.provenance,
        "files": {"records": records_path.name, "summary": summary_path.name},
    }
    manifest_path.write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="ascii"
    )
    return {"records": records_path, "summary": summary_path, "manifest": manifest_path}


def _package_version() -> str:
    from stabledrift import __version__

    return __version__
