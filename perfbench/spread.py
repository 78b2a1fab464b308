"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage, from the root of a checkout:

    python3 perfbench/spread.py --seeds 1-10 [--workload NAME ...] [--out FILE]

Runs ``perfbench/run.py --trace 0`` once per workload and seed, with the
``run_seconds`` of ``BENCHMARK.json``, and prints for each end-to-end metric
the median of the runs and the distance between their first and third
quartiles as a share of the median, next to the metric's bound.  ``--out``
writes every value, the summary and the stamped environment as JSON; the
seed-commit baseline in ``perfbench/baseline.json`` was made this way.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(seed) for seed in text.split(",")]


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """Median, first and third quartile, and (q3 - q1) / median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description="Run-to-run spread of the end-to-end metrics.")
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"), help="a range A-B or a list A,B,C")
    parser.add_argument("--workload", action="append", help="repeatable; default: every workload")
    parser.add_argument("--out", type=Path, help="write the values and their summary here")
    args = parser.parse_args(argv)
    names = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values: dict[str, dict[str, list[float]]] = {name: {m: [] for m in bounds} for name in names}
    runs = []
    for name in names:
        for seed in args.seeds:
            command = [*spec["command"], "--workload", name, "--seed", str(seed),
                       "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=240)
            if done.returncode != 0:
                print(done.stdout + done.stderr, file=sys.stderr)
                return 1
            result = json.loads(done.stdout.strip().splitlines()[-1])
            runs.append({"workload": name, "seed": seed, **result})
            for metric in bounds:
                values[name][metric].append(result["metrics"][metric]["value"])
            print(f"{name} seed {seed}: correct={result['correct']} failed={result['failed']}/{result['attempted']} "
                  + " ".join(f"{m}={result['metrics'][m]['value']:.5g}" for m in bounds), flush=True)
    summary = {}
    print(f"{'workload':<12} {'metric':<13} {'median':>10} {'spread':>8} {'bound':>6}")
    for name in names:
        summary[name] = {}
        for metric, bound in bounds.items():
            median, q1, q3, share = spread(values[name][metric])
            summary[name][metric] = {"median": median, "q1": q1, "q3": q3, "spread": share}
            print(f"{name:<12} {metric:<13} {median:>10.5g} {share:>8.4f} {bound:>6}")
    if args.out is not None:
        stamped = json.loads(
            (ROOT / ".perfbench_out" / "results" / f"{names[0]}-seed{args.seeds[0]}-trace0.json").read_text()
        )["environment"]
        args.out.write_text(json.dumps(
            {"environment": stamped, "run_seconds": spec["run_seconds"], "seeds": args.seeds,
             "summary": summary, "runs": runs}, indent=1) + "\n", encoding="utf-8")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
