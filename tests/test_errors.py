"""The shared number rule, and every entry point refusing a bool, a string
or a number outside the float range where it expects a finite number."""
from __future__ import annotations

import math

import numpy as np
import pytest

from stabledrift import (
    ConfigurationError,
    ObservedPath,
    ParameterError,
    Schedule,
    StableParams,
    asymptotic_constants,
    builtin_kernel,
    builtin_model,
    hill_tail_index,
    increment_diagnostics,
    kernel_sums,
    ks_critical_value,
    local_linear_drift,
    run_bias_comparison,
    s_nk,
    simulate_path,
)
from stabledrift.errors import check_number
from stabledrift.kernels import lambda_fractional_integral, nw_fractional_integral
from stabledrift.models import _fourier_density


@pytest.mark.parametrize("value", [3, -2.5, 0.0, np.int64(7), np.uint8(4), np.float32(0.25), np.float64(-1e300)])
def test_check_number_returns_a_finite_real_as_a_float(value):
    result = check_number("v", value)
    assert type(result) is float and result == float(value)


@pytest.mark.parametrize(
    "value", [True, False, np.bool_(True), "0.5", None, [1.0], np.array(1.0), 10 ** 400, math.nan, math.inf,
              -math.inf, np.float64(np.nan), np.longdouble(10) ** 400],
    ids=["True", "False", "np.True", "string", "None", "list", "0-d array", "huge int", "nan", "inf", "-inf",
         "np.nan", "huge long double"],
)
def test_check_number_refuses_what_is_not_a_finite_real(value):
    with pytest.raises(ParameterError, match=r"^v must be a finite number, got "):
        check_number("v", value)


@pytest.mark.parametrize("value", [0, 0.0, -0.0, -1e-300, True])
def test_check_number_positive_refuses_zero_and_below(value):
    with pytest.raises(ConfigurationError, match=r"^v must be a positive finite number, got "):
        check_number("v", value, ConfigurationError, positive=True)


PATH = ObservedPath(x=np.array([0.0, 0.5, -0.25, 0.1]), delta=0.01, n=3, seed=None, model_name="external", noise=None)
EPAN = builtin_kernel("epanechnikov")
OU = builtin_model("ou_linear")
NOISE = StableParams(1.5, 0.0)
SCHEDULE = dict(n=100, delta=0.01, h=0.3, alpha=1.5)
DENSITY = _fourier_density(OU, NOISE)
RUN = dict(n=10, delta=0.01, seed=1, burn_in=0)

# (entry, argument named in the message); each call was accepted, or ended in
# a bare TypeError or ValueError, before these arguments had a check
ENTRIES = {
    "StableParams beta True": (lambda: StableParams(1.5, True), "beta"),
    "StableParams alpha string": (lambda: StableParams("1.5"), "alpha"),
    "Schedule delta True": (lambda: Schedule(**{**SCHEDULE, "delta": True}), "schedule delta"),
    "Schedule h True": (lambda: Schedule(**{**SCHEDULE, "h": True}), "schedule h"),
    "Schedule alpha string": (lambda: Schedule(**{**SCHEDULE, "alpha": "1.5"}), "schedule alpha"),
    "Schedule kappa string": (lambda: Schedule(**SCHEDULE, kappa="3"), "schedule kappa"),
    "experiment x0 string": (
        lambda: run_bias_comparison(OU, NOISE, EPAN, Schedule(**SCHEDULE), [0.0], 2, 1, x0="0.5", burn_in=0, workers=1),
        "x0",
    ),
    "experiment x0 True": (
        lambda: run_bias_comparison(OU, NOISE, EPAN, Schedule(**SCHEDULE), [0.0], 2, 1, x0=True, burn_in=0, workers=1),
        "x0",
    ),
    "kernel_sums grid True": (lambda: kernel_sums(PATH, True, 1.0, EPAN), "grid"),
    "kernel_sums grid strings": (lambda: kernel_sums(PATH, ["0.5"], 1.0, EPAN), "grid"),
    "local_linear_drift x string": (lambda: local_linear_drift(PATH, "0.5", 1.0, EPAN), "grid"),
    "s_nk h True": (lambda: s_nk(PATH, 0.0, True, EPAN, 0), "bandwidth h"),
    "s_nk x string": (lambda: s_nk(PATH, "0.5", 1.0, EPAN, 0), "query point"),
    "simulate_path delta string": (lambda: simulate_path(OU, NOISE, x0=0.0, **{**RUN, "delta": "0.01"}), "delta"),
    "simulate_path x0 True": (lambda: simulate_path(OU, NOISE, x0=True, **RUN), "x0"),
    "ObservedPath delta True": (
        lambda: ObservedPath(x=np.zeros(3), delta=True, n=2, seed=None, model_name="external", noise=None), "delta"),
    "constants n 1.5": (lambda: asymptotic_constants(OU, DENSITY, NOISE, EPAN, 0.0, 1.5, 0.01, 0.3), "n"),
    "constants delta string": (lambda: asymptotic_constants(OU, DENSITY, NOISE, EPAN, 0.0, 100, "0.01", 0.3), "delta"),
    "density query point True": (lambda: DENSITY.f(True), "density query point"),
    "lambda integral alpha True": (lambda: lambda_fractional_integral(EPAN, True), "alpha"),
    "nw integral alpha string": (lambda: nw_fractional_integral(EPAN, "1.5"), "alpha"),
    "ks n 1.5": (lambda: ks_critical_value(1.5, 10), "n"),
    "ks m True": (lambda: ks_critical_value(10, True), "m"),
    "ks level string": (lambda: ks_critical_value(10, 10, "0.01"), "level"),
    "hill fraction string": (lambda: hill_tail_index(np.arange(1.0, 100.0), "0.1"), "fraction"),
    "diagnostics sigma_scale string": (lambda: increment_diagnostics(PATH, "1.0"), "sigma_scale"),
}


@pytest.mark.parametrize("entry, name", ENTRIES.values(), ids=ENTRIES.keys())
def test_entry_points_refuse_what_is_not_a_finite_number(entry, name):
    with pytest.raises(ParameterError, match=rf"^{name} must be "):
        entry()
