"""Spans around the public functions of each ``stabledrift`` module.

The tracer replaces every public function of ``stable``, ``simulate``,
``models``, ``kernels``, ``estimate``, ``experiments`` and ``cli`` with a
wrapper, at every module that binds it: ``experiments`` binds the estimators
and ``simulate_path`` at import, while ``cli`` and ``models._plugin_density``
import lazily from the defining module, so both places are patched.
``Kernel.evaluate`` is traced by handing out kernels from ``builtin_kernel``
whose evaluator is wrapped.

Spans stay in memory.  Pool workers are forked and inherit the wrappers;
each worker appends its spans to ``spans-<pid>.jsonl`` in the spill
directory whenever its outermost span closes, and :meth:`Tracer.spans`
reads those files back in the parent.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import math
import os
import time
from pathlib import Path

MODULES = ("stable", "simulate", "models", "kernels", "estimate", "experiments", "cli")
EVALUATE = "kernels.Kernel.evaluate"

# name -> (unit, better); the order is the order of the report.
PER_LAYER = {
    "stable.draws": ("count", "lower"),
    "stable.sample_s": ("s", "lower"),
    "stable.draws_per_s": ("1/s", "higher"),
    "simulate.paths": ("count", "lower"),
    "simulate.steps": ("count", "lower"),
    "simulate.euler_s": ("s", "lower"),
    "simulate.steps_per_s": ("1/s", "higher"),
    "simulate.csv_rows": ("count", "lower"),
    "simulate.csv_read_s": ("s", "lower"),
    "simulate.csv_write_s": ("s", "lower"),
    "models.build_calls": ("count", "lower"),
    "models.build_s": ("s", "lower"),
    "models.oracle_builds": ("count", "lower"),
    "models.oracle_s": ("s", "lower"),
    "kernels.eval_points": ("count", "lower"),
    "kernels.eval_s": ("s", "lower"),
    "kernels.quad_s": ("s", "lower"),
    "estimate.fits": ("count", "lower"),
    "estimate.fit_s": ("s", "lower"),
    "estimate.fits_per_s": ("1/s", "higher"),
    "estimate.degenerate_frac": ("ratio", "lower"),
    "estimate.constants_s": ("s", "lower"),
    "experiments.replicates": ("count", "higher"),
    "experiments.replicate_s.p50": ("s", "lower"),
    "experiments.replicate_s.p90": ("s", "lower"),
    "experiments.self_s": ("s", "lower"),
    "experiments.pool_busy_frac": ("ratio", "higher"),
    "experiments.report_write_s": ("s", "lower"),
    "experiments.report_bytes": ("bytes", "lower"),
    "cli.self_s": ("s", "lower"),
    "setup.import_s": ("s", "lower"),
    "run.wall_s": ("s", "lower"),
    "run.ref_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}

# Metrics that count work; they must repeat exactly between traced runs at
# one seed.
COUNTS = tuple(name for name, (unit, _) in PER_LAYER.items() if unit in ("count", "bytes"))

_FITS = ("estimate.local_linear_drift", "estimate.nadaraya_watson_drift")
_CONSTANTS = ("estimate.asymptotic_constants", "estimate.nw_asymptotic_constants")
_QUADRATURE = ("kernels.lambda_fractional_integral", "kernels.nw_fractional_integral")
# What a replicate worker calls; a replicate starts with its simulate_path.
_REPLICATE_CALLS = ("simulate.simulate_path", "estimate.density_estimate", "estimate.s_nk") + _FITS


def _draws(bound):
    size = bound.arguments["size"]
    return {"draws": 1 if size is None else math.prod(size) if isinstance(size, tuple) else int(size)}


# Per-function counts taken at the span: from the bound arguments, or from
# the result once the call returns.
_ARG_COUNTS = {
    "stable.sample_standard_stable": _draws,
    "simulate.simulate_path": lambda b: {"steps": b.arguments["n"] + b.arguments["burn_in"]},
    "simulate.write_path_csv": lambda b: {"rows": len(b.arguments["path"].x)},
    # the evaluator is private to each kernel, so take its one argument by position
    EVALUATE: lambda b: {"points": int(getattr(b.args[0], "size", 1))},
}
_RESULT_COUNTS = {
    "simulate.read_path_csv": lambda r: {"rows": r.n + 1},
    "estimate.local_linear_drift": lambda r: {"degenerate": int(r.degenerate)},
    "estimate.nadaraya_watson_drift": lambda r: {"degenerate": int(r.degenerate)},
    "experiments.write_report": lambda r: {"bytes": sum(Path(p).stat().st_size for p in r.values())},
}


class Tracer:
    """Records spans ``(pid, id, parent, name, t0, t1, counts)`` around the
    package's public functions once :meth:`install` has run."""

    def __init__(self, spill_dir: Path):
        self.spill_dir = Path(spill_dir)
        self.spill_dir.mkdir(parents=True, exist_ok=True)
        self.owner = os.getpid()
        self.enabled = False
        self._buffer: list[dict] = []
        self._stack: list[int] = []
        self._next_id = 0
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self) -> None:
        self._buffer = []
        self._stack = []

    def _spill(self) -> None:
        with open(self.spill_dir / f"spans-{os.getpid()}.jsonl", "a", encoding="ascii") as sink:
            for span in self._buffer:
                sink.write(json.dumps(span) + "\n")
        self._buffer = []

    def wrap(self, name: str, fn):
        arg_counts = _ARG_COUNTS.get(name)
        signature = inspect.signature(fn) if arg_counts is not None else None
        result_counts = _RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span_id = self._next_id
            self._next_id += 1
            span = {"pid": os.getpid(), "id": span_id, "parent": self._stack[-1] if self._stack else None,
                    "name": name}
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.update(arg_counts(bound))
            self._stack.append(span_id)
            span["t0"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["t1"] = time.perf_counter()
                self._stack.pop()
                self._buffer.append(span)
            if result_counts is not None:
                span.update(result_counts(result))
            if not self._stack and os.getpid() != self.owner:
                self._spill()
            return result

        return traced

    def install(self) -> None:
        """Wrap the public functions of :data:`MODULES` wherever they are bound,
        the package namespace included."""
        import importlib

        modules = [importlib.import_module(f"stabledrift.{name}") for name in MODULES]
        wrappers = {}
        for short, module in zip(MODULES, modules):
            for attr, value in vars(module).items():
                if inspect.isfunction(value) and not attr.startswith("_") and value.__module__ == module.__name__:
                    wrappers[value] = self.wrap(f"{short}.{attr}", value)
        kernels = modules[MODULES.index("kernels")]
        traced_kernels = {}
        builtin_kernel = kernels.builtin_kernel

        @functools.wraps(builtin_kernel)
        def kernel_with_traced_evaluate(name):
            kernel = builtin_kernel(name)
            if kernel.name not in traced_kernels:
                traced_kernels[kernel.name] = dataclasses.replace(
                    kernel, evaluate=self.wrap(EVALUATE, kernel.evaluate)
                )
            return traced_kernels[kernel.name]

        wrappers[builtin_kernel] = self.wrap("kernels.builtin_kernel", kernel_with_traced_evaluate)
        for module in [importlib.import_module("stabledrift"), *modules]:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(module, attr, wrappers[value])
        self.enabled = True

    def spans(self) -> list[dict]:
        """Every span of this process and of the workers it forked."""
        spans = list(self._buffer)
        for spill in sorted(self.spill_dir.glob("spans-*.jsonl")):
            with open(spill, encoding="ascii") as source:
                spans.extend(json.loads(line) for line in source)
        return spans


def _percentile(values: list[float], fraction: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, int(round(fraction * len(ordered))) - 1))]


def per_layer(spans: list[dict], owner: int, workers: int) -> dict[str, float]:
    """Reduce spans to the per-layer metrics of :data:`PER_LAYER`.

    Self time is a span's duration minus that of its direct children in the
    same process.  Times sum over processes, so with a pool they are busy
    time, not wall time.  ``setup.import_s`` and ``trace.overhead_frac`` are
    measured outside the spans and filled in by the caller.
    """
    children: dict[tuple[int, int], float] = {}
    for span in spans:
        if span["parent"] is not None:
            key = (span["pid"], span["parent"])
            children[key] = children.get(key, 0.0) + span["t1"] - span["t0"]

    def duration(span):
        return span["t1"] - span["t0"]

    def self_time(span):
        return duration(span) - children.get((span["pid"], span["id"]), 0.0)

    def named(*names):
        return [span for span in spans if span["name"] in names]

    def total(key, *names):
        return sum(span.get(key, 0) for span in named(*names))

    def busy(*names):
        return sum(duration(span) for span in named(*names))

    def rate(count, seconds):
        return count / seconds if seconds > 0.0 else 0.0

    metrics = {}
    metrics["stable.draws"] = total("draws", "stable.sample_standard_stable")
    metrics["stable.sample_s"] = busy("stable.sample_standard_stable")
    metrics["stable.draws_per_s"] = rate(metrics["stable.draws"], metrics["stable.sample_s"])
    paths = named("simulate.simulate_path")
    metrics["simulate.paths"] = len(paths)
    metrics["simulate.steps"] = total("steps", "simulate.simulate_path")
    metrics["simulate.euler_s"] = sum(self_time(span) for span in paths)
    metrics["simulate.steps_per_s"] = rate(metrics["simulate.steps"], metrics["simulate.euler_s"])
    metrics["simulate.csv_rows"] = total("rows", "simulate.read_path_csv", "simulate.write_path_csv")
    metrics["simulate.csv_read_s"] = busy("simulate.read_path_csv")
    metrics["simulate.csv_write_s"] = busy("simulate.write_path_csv")
    metrics["models.build_calls"] = len(named("models.builtin_model"))
    metrics["models.build_s"] = busy("models.builtin_model")
    metrics["models.oracle_builds"] = len(named("models.stationary_density_oracle"))
    metrics["models.oracle_s"] = busy("models.stationary_density_oracle")
    metrics["kernels.eval_points"] = total("points", EVALUATE)
    metrics["kernels.eval_s"] = busy(EVALUATE)
    metrics["kernels.quad_s"] = busy(*_QUADRATURE)
    metrics["estimate.fits"] = len(named(*_FITS))
    metrics["estimate.fit_s"] = busy(*_FITS)
    metrics["estimate.fits_per_s"] = rate(metrics["estimate.fits"], metrics["estimate.fit_s"])
    metrics["estimate.degenerate_frac"] = rate(total("degenerate", *_FITS), metrics["estimate.fits"])
    metrics["estimate.constants_s"] = busy(*_CONSTANTS)

    # A replicate is the run of worker calls that starts at one simulate_path
    # and ends before the next, among the direct children of a run_* span
    # (serial) or the outermost spans of a pool worker.
    runs = {
        (span["pid"], span["id"]) for span in spans
        if span["name"].startswith("experiments.run_")
    }
    replicates: dict[int, list[list[float]]] = {}
    for span in sorted(spans, key=lambda s: (s["pid"], s["t0"])):
        in_replicate = (span["pid"], span["parent"]) in runs or (
            span["parent"] is None and span["pid"] != owner
        )
        if not in_replicate or span["name"] not in _REPLICATE_CALLS:
            continue
        groups = replicates.setdefault(span["pid"], [])
        if span["name"] == "simulate.simulate_path" or not groups:
            groups.append([span["t0"], span["t1"]])
        else:
            groups[-1][1] = max(groups[-1][1], span["t1"])
    replicate_s = [end - start for groups in replicates.values() for start, end in groups]
    metrics["experiments.replicates"] = len(replicate_s)
    metrics["experiments.replicate_s.p50"] = _percentile(replicate_s, 0.5)
    metrics["experiments.replicate_s.p90"] = _percentile(replicate_s, 0.9)
    metrics["experiments.self_s"] = sum(
        self_time(span) for span in spans if span["name"].startswith("experiments.run_")
    )
    # Pool busy time over workers x pool wall, where the pool wall runs from
    # the first worker span's start to the last one's end.
    worker_spans = [span for span in spans if span["pid"] != owner and span["parent"] is None]
    if worker_spans:
        wall = max(s["t1"] for s in worker_spans) - min(s["t0"] for s in worker_spans)
        metrics["experiments.pool_busy_frac"] = rate(sum(map(duration, worker_spans)), workers * wall)
    else:
        metrics["experiments.pool_busy_frac"] = 0.0
    metrics["experiments.report_write_s"] = busy("experiments.write_report")
    metrics["experiments.report_bytes"] = total("bytes", "experiments.write_report")
    metrics["cli.self_s"] = sum(self_time(span) for span in spans if span["name"].startswith("cli."))
    return metrics
