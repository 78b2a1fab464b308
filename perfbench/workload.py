"""One measured run of one workload, in a fresh process.

Usage: ``python3 perfbench/workload.py --workload NAME --seed N --work DIR
--result FILE [--trace]``, from the root of a checkout.

Set-up imports ``stabledrift`` from the checkout's ``src``, builds the model
and kernels and writes the workload's input files into DIR.  The timed part
calls ``stabledrift.cli.main`` on those inputs, as a user would.  A fixed
reference computation is timed just before it (and, for a workload with a
pool, just after it too), in the same process, so that the host's speed at
that moment is known.  The outputs are then verified, and a JSON result
is written to FILE.  With ``--trace`` the package's public functions are
wrapped first and the per-layer metrics are added to the result.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, outputs_sha256  # noqa: E402


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; the children are the pool workers, which
    # have all been joined once the CLI call returns.
    peak_kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak_kib / 1024.0


def reference_s() -> float:
    """Time one fixed computation shaped like the package's work.

    It draws stable variates by the Chambers-Mallows-Stuck formula, runs an
    Euler recursion on Python floats and forms kernel-weighted sums over the
    path, with numpy alone.  No ``stabledrift`` code runs, so a change to
    the package leaves this time alone, while a change in the host's speed
    moves it as it moves the timed part.
    """
    import numpy as np

    alpha, size = 1.6, 240_000
    rng = np.random.Generator(np.random.PCG64(12345))
    start = time.perf_counter()
    u = rng.uniform(-0.5 * np.pi, 0.5 * np.pi, size)
    w = rng.exponential(size=size)
    xi = np.sin(alpha * u) / np.cos(u) ** (1.0 / alpha) * (np.cos(u - alpha * u) / w) ** ((1.0 - alpha) / alpha)
    xi *= 0.01 ** (1.0 / alpha)
    state = 0.0
    states = [0.0] * size
    for i, step in enumerate(xi.tolist()):
        state = state - 0.01 * state + step
        states[i] = state
    x = np.asarray(states)
    dx = np.diff(x)
    total = 0.0
    for centre in np.linspace(-1.0, 1.0, 40):
        z = (x[:-1] - centre) / 0.3
        total += float(np.dot(np.where(np.abs(z) <= 1.0, 0.75 * (1.0 - z * z), 0.0), dx))
    if not math.isfinite(total):
        raise RuntimeError("the reference computation lost its values")
    return time.perf_counter() - start


def _import_package():
    sys.path.insert(0, str(ROOT / "src"))
    import stabledrift

    source = Path(stabledrift.__file__).resolve()
    if ROOT / "src" not in source.parents:
        raise ImportError(f"stabledrift was imported from {source}, not from {ROOT / 'src'}")
    return stabledrift


def run(name: str, seed: int, work: Path, trace: bool) -> dict:
    workload = WORKLOADS[name]
    import_start = time.perf_counter()
    _import_package()
    import_s = time.perf_counter() - import_start

    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer(work / "spans")
        tracer.install()
    config = workload.prepare(seed, work)
    setup_s = time.perf_counter() - _STARTED

    import stabledrift.cli

    # The first call pays for the process's first use of that memory; the
    # timed call after it runs, like the timed part, on the heap that set-up
    # left.  Timed after the CLI call, on the heap the call left behind, it
    # tracks in-process work less closely; but a pool's workers are forked
    # from the parent mid-call, so for a pool both times are averaged.
    reference_s()
    ref_s = reference_s()
    codes: list[int] = []
    error = None
    start = time.perf_counter()
    with open(work / "cli.log", "w", encoding="utf-8") as log, contextlib.redirect_stdout(log), \
            contextlib.redirect_stderr(log):
        try:
            for argv in workload.calls(work):
                codes.append(stabledrift.cli.main(argv))
        except SystemExit as exc:
            codes.append(exc.code if isinstance(exc.code, int) else 2)
        except Exception:
            error = traceback.format_exc()
    wall_s = time.perf_counter() - start
    peak_rss_mb = _peak_rss_mb()
    if getattr(workload, "workers", 1) > 1:
        ref_s = (ref_s + reference_s()) / 2.0

    result = {
        "workload": name, "seed": seed, "trace": trace, "codes": codes,
        "wall_s": wall_s, "setup_s": setup_s, "import_s": import_s, "peak_rss_mb": peak_rss_mb,
        "ref_s": ref_s,
        "attempted": workload.operations(config),
    }
    if tracer is not None:
        tracer.enabled = False
        from tracing import per_layer

        result["per_layer"] = per_layer(tracer.spans(), os.getpid(), getattr(workload, "workers", 1))
    # Exit code 1 is a statistical check failing at this seed; verify()
    # accepts it only when the recomputed checks agree.  Anything else that
    # goes wrong fails every operation of the iteration.
    failed, problems = 0, []
    if error is not None:
        problems.append(f"CLI raised:\n{error}")
    elif any(code not in (0, 1) for code in codes):
        problems.append(f"exit codes {codes}")
    else:
        try:
            failed, problems = workload.verify(work, config, codes)
            result["outputs_sha256"] = outputs_sha256(workload.outputs(work))
        except Exception:
            problems.append(f"verification raised:\n{traceback.format_exc()}")
    result["failed"] = result["attempted"] if problems else failed
    result["problems"] = problems
    import numpy
    import scipy

    result["versions"] = {
        "python": sys.version.split()[0], "numpy": numpy.__version__, "scipy": scipy.__version__,
    }
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", type=Path, required=True, help="empty directory for inputs and outputs")
    parser.add_argument("--result", type=Path, required=True, help="where to write the JSON result")
    parser.add_argument("--trace", action="store_true", help="wrap the package and report per-layer metrics")
    args = parser.parse_args(argv)
    args.work.mkdir(parents=True, exist_ok=True)
    result = run(args.workload, args.seed, args.work, args.trace)
    args.result.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
