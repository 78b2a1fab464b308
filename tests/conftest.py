"""Shared fixtures: one moderately long simulated path reused across modules,
and a report header naming the numpy build the golden digests depend on."""
from __future__ import annotations

import numpy as np
import pytest

from stabledrift import (
    StableParams,
    builtin_kernel,
    builtin_model,
    simulate_path,
)
from stabledrift.models import _fourier_density


def pytest_report_header(config):
    # numpy dispatches float64 tan and ** to the widest SIMD routines the
    # CPU has, and those round differently from libm, so every golden digest
    # depends on the numpy version and on the extensions found here
    simd = np.show_config(mode="dicts").get("SIMD Extensions", {}).get("found")
    return f"numpy {np.__version__}, SIMD extensions found: {simd}"


@pytest.fixture(scope="session")
def ou_model():
    return builtin_model("ou_linear", {"gamma": 0.0, "lam": 1.0, "sigma": 1.0})


@pytest.fixture(scope="session")
def epan():
    return builtin_kernel("epanechnikov")


@pytest.fixture(scope="session")
def noise15():
    return StableParams(1.5, 0.0)


@pytest.fixture(scope="session")
def ou_path15(ou_model, noise15):
    return simulate_path(ou_model, noise15, x0=0.0, n=60_000, delta=0.01,
                         seed=4_202_389, burn_in=12_000)


@pytest.fixture(scope="session")
def ou_density15(ou_model, noise15):
    return _fourier_density(ou_model, noise15)
