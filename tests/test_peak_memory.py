"""Traced peak memory of the steps whose working arrays are large: the
Fourier density oracle, the path CSV writer and a wide lockstep batch.

Each bound sits between the peak of the code as it is and that of a version
that holds its whole working set at once: every inversion array alive while
the spline builds (40 MiB against 62 MiB), the whole CSV text built before
it is written (0.6 MiB against 31 MiB), and all 1000 seeds stepped in one
pass (71 MiB against 215 MiB)."""
from __future__ import annotations

import tracemalloc

import numpy as np

from stabledrift import (
    ObservedPath,
    StableParams,
    builtin_model,
    simulate_paths,
    stationary_density_oracle,
    write_path_csv,
)

MIB = 2 ** 20


def traced_peak(call):
    """Bytes allocated by ``call()`` at its peak, above what was allocated
    before it."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()


def test_fourier_oracle_frees_its_inversion_before_the_spline():
    model = builtin_model("ou_linear")
    peak = traced_peak(lambda: stationary_density_oracle(model, StableParams(1.8, 0.0)))
    assert peak < 48 * MIB


def test_path_csv_writer_streams_its_rows(tmp_path):
    x = np.random.default_rng(3).standard_normal(200_000).cumsum()
    path = ObservedPath(x=x, delta=0.01, n=x.size - 1, seed=None, model_name="external", noise=None)
    peak = traced_peak(lambda: write_path_csv(path, tmp_path / "path.csv"))
    assert peak < 4 * MIB


def test_a_wide_batch_steps_in_bounded_passes():
    # 1000 short paths: 24 MB of recorded states, four passes of 250 seeds
    model = builtin_model("bounded_nonlinear")
    peak = traced_peak(
        lambda: simulate_paths(model, StableParams(1.5, 0.0), 0.0, 3000, 0.01, range(1000, 2000), 500)
    )
    assert peak < 100 * MIB
