"""Traced peak memory of the steps whose working sets are, or were, large:
the Fourier density oracle, the plug-in density oracle, the path CSV writer
and reader, and a wide lockstep batch, stepped on one thread or on several.

Each bound sits between the peak of the code as it is and that of a version
that holds its whole working set at once: a 2^18-point inversion grid and
its spline (40 MiB, against 21 KiB for pointwise evaluation), the whole CSV
text built before it is written (0.6 MiB against 31 MiB), copies of the
times and full-length spacing temporaries beside the parsed table (10.9 MiB
against 6.4 MiB for 2e5 rows), and all 1000 seeds stepped in one pass
(27 MiB against 215 MiB, in passes that step blocks of at most 2^16 draws
over all their paths; blocks of 4096 steps peaked at 71 MiB), or on three
threads in three groups of all 1000 (63 MiB against 150 MiB).  The plug-in
oracle steps its 64 paths in one lockstep pass, in blocks of 1024 steps,
and peaks at 7.2 MiB, against 17.4 MiB in blocks of 4096 steps and about
32 MiB for the draws of every step at once (the single-path design it
replaced peaked at 6.1 MiB).  The empirical characteristic function of
criterion 1, 41 frequencies over 2e5 draws, forms one frequency at a time
(4.7 MiB, against 250 MiB for the whole complex matrix).  ``kernel_sums``
on a 1e6-state path forms its window products in turn in one scratch
array: 18.1 MiB at one point and 32.9 MiB at 41, against 23.3 and 41.6 MiB
for all five products held in one block."""
from __future__ import annotations

import os
import tracemalloc

import numpy as np

from stabledrift import (
    ObservedPath,
    StableParams,
    builtin_kernel,
    builtin_model,
    empirical_char_fn,
    kernel_sums,
    read_path_csv,
    sample_standard_stable,
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


def test_fourier_oracle_evaluates_pointwise_in_bounded_memory():
    model = builtin_model("ou_linear")

    def build_and_evaluate():
        density = stationary_density_oracle(model, StableParams(1.8, 0.0))
        for x in (-0.5, 0.0, 0.5, 1e6):
            density.f(x)
            density.f_prime(x)

    assert traced_peak(build_and_evaluate) < 128 * 1024


def test_plugin_oracle_steps_its_paths_in_bounded_memory():
    model = builtin_model("bounded_nonlinear")
    peak = traced_peak(lambda: stationary_density_oracle(model, StableParams(1.5, 0.0)))
    assert peak < 24 * MIB


def test_path_csv_writer_streams_its_rows(tmp_path):
    x = np.random.default_rng(3).standard_normal(200_000).cumsum()
    path = ObservedPath(x=x, delta=0.01, n=x.size - 1, seed=None, model_name="external", noise=None)
    peak = traced_peak(lambda: write_path_csv(path, tmp_path / "path.csv"))
    assert peak < 4 * MIB


def test_path_csv_reader_keeps_no_full_length_temporaries(tmp_path):
    x = np.random.default_rng(3).standard_normal(200_000).cumsum()
    path = ObservedPath(x=x, delta=0.01, n=x.size - 1, seed=None, model_name="external", noise=None)
    write_path_csv(path, tmp_path / "path.csv")
    peak = traced_peak(lambda: read_path_csv(tmp_path / "path.csv"))
    assert peak < 8.5 * MIB


def test_a_wide_batch_steps_in_bounded_passes():
    # 1000 short paths: 24 MB of recorded states, four passes of 250 seeds,
    # each stepped in blocks of 262 steps
    model = builtin_model("bounded_nonlinear")
    peak = traced_peak(
        lambda: simulate_paths(model, StableParams(1.5, 0.0), 0.0, 3000, 0.01, range(1000, 2000), 500)
    )
    assert peak < 48 * MIB


def test_a_wide_batch_on_threads_steps_at_most_one_pass_of_seeds_at_once(monkeypatch):
    # ou_linear takes the affine scan, whose groups run on one thread per
    # usable CPU: twelve groups of about 83 seeds, three at a time
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    model = builtin_model("ou_linear")
    peak = traced_peak(
        lambda: simulate_paths(model, StableParams(1.5, 0.0), 0.0, 3000, 0.01, range(1000, 2000), 500)
    )
    assert peak < 100 * MIB


def test_empirical_char_fn_forms_one_frequency_at_a_time():
    z = sample_standard_stable(StableParams(1.5, 0.0), np.random.default_rng(1), size=200_000)
    grid = np.linspace(-4.0, 4.0, 41)
    assert traced_peak(lambda: empirical_char_fn(z, grid)) < 16 * MIB


def test_kernel_sums_holds_one_window_product_at_a_time():
    model = builtin_model("ou_linear")
    (path,) = simulate_paths(model, StableParams(1.8, 0.0), 0.0, 1_000_000, 0.01, [5], 1000)
    kernel = builtin_kernel("epanechnikov")
    assert traced_peak(lambda: kernel_sums(path, [0.0], 0.3, kernel)) < 19.5 * MIB
    grid = np.linspace(-1.0, 1.0, 41)
    assert traced_peak(lambda: kernel_sums(path, grid, 0.3, kernel)) < 35.5 * MIB
