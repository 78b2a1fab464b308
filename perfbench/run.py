"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--workload all`` runs every workload in turn.  Each iteration is a fresh
``perfbench/workload.py`` process (set-up, timed CLI calls, output
verification); iterations repeat at the same seed until the next one would
end after ``--seconds``, with at least three untraced iterations, or two
untraced and two traced ones under ``--trace 1``.  Reported values are
medians over iterations.  Every iteration at one seed must write the same
output bytes.

With ``--trace 0`` the end-to-end metrics are reported.  ``wall_ref`` is
the median over iterations of the timed part's time over that of a fixed
reference computation timed beside it, so that the host's swings in speed
cancel.  With ``--trace 1``, traced and untraced
iterations alternate; the per-layer metrics of the traced ones are
reported, with the tracing overhead against the untraced ones and the
untraced ones' median timed part and reference in seconds.  The last line
of standard output is a JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A stamped copy with
every iteration goes to ``.perfbench_out/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

from tracing import COUNTS, PER_LAYER  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

# name -> (unit, better)
END_TO_END = {
    "wall_ref": ("ref", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
    "success_frac": ("ratio", "higher"),
}
# Every run must end within 180 s; iterations that would outlive this are
# killed and the run fails.
RUN_LIMIT_S = 170.0


class BenchError(RuntimeError):
    """The harness could not complete a run; no result is printed."""


def _iteration(name: str, seed: int, trace: bool, index: int, deadline: float) -> dict:
    work = OUT / "work" / f"{name}-seed{seed}-{os.getpid()}-{index}"
    result_path = work.parent / f"{work.name}.json"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    command = [
        sys.executable, str(HERE / "workload.py"), "--workload", name, "--seed", str(seed),
        "--work", str(work), "--result", str(result_path),
    ] + (["--trace"] if trace else [])
    process = subprocess.Popen(
        command, cwd=ROOT, start_new_session=True, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True
    )
    try:
        output, _ = process.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{name} iteration {index} did not finish within the run limit") from None
    finally:
        # The workload and any pool worker it left behind share one session.
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait()
    try:
        if process.returncode != 0:
            raise BenchError(f"{name} iteration {index} exited with {process.returncode}:\n{output[-3000:]}")
        return json.loads(result_path.read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        result_path.unlink(missing_ok=True)


def measure(name: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    """Run iterations of one workload until ``seconds`` would be exceeded."""
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    minimum = 4 if trace else 3
    results: list[dict] = []
    while True:
        began = time.monotonic()
        results.append(_iteration(name, seed, trace and len(results) % 2 == 1, len(results), deadline))
        now = time.monotonic()
        if len(results) >= minimum and now - start + (now - began) > seconds:
            return results


def summarize(results: list[dict], trace: bool) -> dict:
    """The result object of one run: correctness, operation counts, metrics."""
    problems = [problem for result in results for problem in result["problems"]]
    if len({result.get("outputs_sha256") for result in results}) != 1:
        problems.append("iterations at one seed wrote different output bytes")
    attempted = sum(result["attempted"] for result in results)
    failed = sum(result["failed"] for result in results)
    untraced = [result for result in results if not result["trace"]]
    values: dict[str, float] = {}
    if not trace:
        # The host's speed swings by up to 2x over tens of seconds, and the
        # timed part swings with it; the reference computation timed beside
        # it swings alike, so their ratio holds still.
        values["wall_ref"] = statistics.median(result["wall_s"] / result["ref_s"] for result in untraced)
        for key in ("setup_s", "peak_rss_mb"):
            values[key] = statistics.median(result[key] for result in untraced)
        values["success_frac"] = (attempted - failed) / attempted
        units = END_TO_END
    else:
        traced = [result for result in results if result["trace"]]
        for key in traced[0]["per_layer"]:
            samples = [result["per_layer"][key] for result in traced]
            if key in COUNTS:
                if len(set(samples)) != 1:
                    problems.append(f"count {key} differs between traced iterations: {samples}")
                values[key] = samples[0]
            else:
                values[key] = statistics.median(samples)
        values["setup.import_s"] = statistics.median(result["import_s"] for result in traced)
        values["run.wall_s"] = statistics.median(result["wall_s"] for result in untraced)
        values["run.ref_s"] = statistics.median(result["ref_s"] for result in untraced)
        values["trace.overhead_frac"] = (
            statistics.median(result["wall_s"] for result in traced)
            / statistics.median(result["wall_s"] for result in untraced) - 1.0
        )
        units = PER_LAYER
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": values[key], "unit": unit} for key, (unit, _) in units.items()},
        "problems": problems,
    }


def environment(versions: dict) -> dict:
    """Where the numbers were measured: CPUs, CPU model, versions, commit."""
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown: not a git checkout"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or commit
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu_model, **versions, "commit": commit}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    results = measure(name, seed, seconds, trace)
    summary = summarize(results, trace)
    stamped = {
        "environment": environment(results[0]["versions"]),
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        **summary, "iterations": results,
    }
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    destination = OUT / "results" / f"{name}-seed{seed}-trace{int(trace)}.json"
    destination.write_text(json.dumps(stamped, indent=1) + "\n", encoding="utf-8")
    print(f"# {name} seed={seed} iterations={len(results)} environment={json.dumps(stamped['environment'])}")
    for key, metric in summary["metrics"].items():
        value = metric["value"]
        print(f"{name} {key} = {value if isinstance(value, int) else format(value, '.6g')} {metric['unit']}")
    for problem in summary["problems"]:
        print(f"{name} PROBLEM: {problem}")
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "stabledrift" / "__init__.py").is_file():
        print(f"error: no stabledrift sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        summaries = {name: run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        metrics = summaries[names[0]]["metrics"]
    else:
        metrics = {f"{name}.{key}": metric for name, s in summaries.items() for key, metric in s["metrics"].items()}
    final = {
        "correct": all(s["correct"] for s in summaries.values()),
        "attempted": sum(s["attempted"] for s in summaries.values()),
        "failed": sum(s["failed"] for s in summaries.values()),
        "metrics": metrics,
    }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
