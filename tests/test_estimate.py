"""Estimators: hand-checked moment sums, exact affine reproduction, the
ratio-form identity, degeneracy handling, and the limit constants."""
from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import gamma as gamma_fn

from stabledrift import (
    ConfigurationError,
    ObservedPath,
    ParameterError,
    StableParams,
    StationaryDensity,
    asymptotic_constants,
    builtin_kernel,
    builtin_model,
    density_estimate,
    kernel_sums,
    local_linear_drift,
    local_linear_drift_ratio,
    nadaraya_watson_drift,
    nw_asymptotic_constants,
    s_nk,
    stationary_density_oracle,
    write_drift_curve_csv,
)
from stabledrift.models import _fourier_density


def make_path(values, delta=1.0):
    x = np.asarray(values, dtype=float)
    return ObservedPath(x=x, delta=delta, n=x.size - 1, seed=None,
                        model_name="external", noise=None)


def affine_path(a, b, x0, n, delta):
    x = np.empty(n + 1)
    x[0] = x0
    for i in range(n):
        x[i + 1] = x[i] + delta * (a + b * x[i])
    return make_path(x, delta)


class TestMomentSums:
    def test_hand_value_excludes_last_observation(self):
        # observations [0, 0.5, 2]: only the first two enter the sums
        path = make_path([0.0, 0.5, 2.0])
        epan = builtin_kernel("epanechnikov")
        assert s_nk(path, 0.0, 1.0, epan, 0) == pytest.approx(0.75 + 0.5625, rel=1e-15)
        assert s_nk(path, 0.0, 1.0, epan, 1) == pytest.approx(0.5625 * 0.5, rel=1e-15)
        assert s_nk(path, 0.0, 1.0, epan, 2) == pytest.approx(0.140625, rel=1e-15)
        assert s_nk(path, 0.0, 1.0, epan, 3) == pytest.approx(0.5625 * 0.125, rel=1e-15)

    def test_states_far_outside_the_window_add_nothing(self):
        # (1e200 - 0)^2 overflows; outside the window it must not reach the sum
        path = make_path([0.0, 1e200, 0.5, 0.3])
        epan = builtin_kernel("epanechnikov")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sums = [s_nk(path, 0.0, 1.0, epan, k) for k in range(4)]
        assert sums == [1.3125, 0.28125, 0.140625, 0.0703125]

    def test_offset_powers_that_overflow_inside_the_window(self):
        # z = +-1 and K = 1/2: the terms of k = 2 are 5e199 each, though
        # (1e200)^2 overflows; those of k = 3 cancel
        path = make_path([1e200, -1e200, 1e200])
        kernel = builtin_kernel("uniform_sym")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sums = [s_nk(path, 0.0, 1e200, kernel, k) for k in range(4)]
        assert sums == [1e-200, 0.0, 1e200, 0.0]

    def test_bandwidth_scaling(self):
        path = make_path([0.0, 0.5, 2.0])
        epan = builtin_kernel("epanechnikov")
        # K_h brings a 1/h factor: with h=2 each weight is K(z/2)/2
        expected = (epan.evaluate(0.0) + epan.evaluate(0.25)) / 2.0
        assert s_nk(path, 0.0, 2.0, epan, 0) == pytest.approx(expected, rel=1e-15)

    def test_density_estimate_is_mean_weight(self):
        path = make_path([0.0, 0.5, 2.0])
        epan = builtin_kernel("epanechnikov")
        assert density_estimate(path, 0.0, 1.0, epan) == pytest.approx((0.75 + 0.5625) / 2, rel=1e-15)

    def test_validation(self):
        path = make_path([0.0, 0.5, 2.0])
        epan = builtin_kernel("epanechnikov")
        with pytest.raises(ParameterError):
            s_nk(path, 0.0, 0.0, epan, 0)
        with pytest.raises(ParameterError):
            s_nk(path, 0.0, 1.0, epan, 4)
        with pytest.raises(ParameterError):
            s_nk(path, math.nan, 1.0, epan, 0)


class TestLocalLinear:
    def test_three_point_hand_case(self):
        # responses: Y0 = 0.5 at X0 = 0, Y1 = -0.75 at X1 = 0.5; the exact
        # line through them has intercept 0.5 at x = 0
        path = make_path([0.0, 0.5, -0.25])
        usym = builtin_kernel("uniform_sym")
        est = local_linear_drift(path, 0.0, 1.0, usym)
        assert est.value == pytest.approx(0.5, rel=1e-12)
        assert not est.degenerate
        assert est.method == "local_linear"

    def test_matches_weighted_least_squares(self):
        rng = np.random.default_rng(2718)
        x = np.cumsum(rng.normal(size=40))
        path = make_path(x, delta=0.1)
        epan = builtin_kernel("epanechnikov")
        xq = float(np.median(x[:-1]))
        h = 2.0 * float(np.std(x))
        est = local_linear_drift(path, xq, h, epan)
        y = np.diff(x) / 0.1
        d = x[:-1] - xq
        w = epan.evaluate(d / h) / h
        sw = np.sqrt(w)
        design = np.column_stack([sw, sw * d])
        coef, *_ = np.linalg.lstsq(design, sw * y, rcond=None)
        assert est.value == pytest.approx(coef[0], rel=1e-9)

    @pytest.mark.parametrize("kernel_name", ["epanechnikov", "triangular", "uniform_sym"])
    def test_affine_reproduction(self, kernel_name):
        kernel = builtin_kernel(kernel_name)
        path = affine_path(a=0.7, b=-0.3, x0=1.0, n=60, delta=0.05)
        lo, hi = float(path.x.min()), float(path.x.max())
        xq = 0.5 * (lo + hi)
        h = 0.6 * (hi - lo) + 0.1
        est = local_linear_drift(path, xq, h, kernel)
        expected = 0.7 - 0.3 * xq
        assert est.value == pytest.approx(expected, rel=1e-11, abs=1e-11)

    def test_affine_reproduction_one_sided(self):
        kernel = builtin_kernel("uniform_right")
        path = affine_path(a=-0.4, b=0.2, x0=0.5, n=50, delta=0.02)
        lo, hi = float(path.x.min()), float(path.x.max())
        xq = lo - 0.05 * (hi - lo)
        h = 1.2 * (hi - xq)
        est = local_linear_drift(path, xq, h, kernel)
        assert est.value == pytest.approx(-0.4 + 0.2 * xq, rel=1e-11, abs=1e-11)

    def test_ratio_form_agrees(self, ou_path15, epan):
        for xq in (-0.8, -0.2, 0.0, 0.4, 1.1):
            est = local_linear_drift(ou_path15, xq, 0.3, epan)
            ratio = local_linear_drift_ratio(ou_path15, xq, 0.3, epan)
            assert est.value == pytest.approx(ratio, rel=1e-10)

    def test_normalized_denominator_approaches_limit(self, ou_path15, epan, ou_density15):
        est = local_linear_drift(ou_path15, 0.0, 0.3, epan)
        fx = float(ou_density15.f(0.0))
        # hhat -> (K2 - K1^2) f(x)^2 for the stationary path
        assert est.denominator == pytest.approx(0.2 * fx * fx, rel=0.12)


class TestNadarayaWatson:
    def test_three_point_hand_case(self):
        path = make_path([0.0, 0.5, -0.25])
        usym = builtin_kernel("uniform_sym")
        est = nadaraya_watson_drift(path, 0.0, 1.0, usym)
        # equal weights: (0.5 - 0.75) / 2
        assert est.value == pytest.approx(-0.125, rel=1e-13)
        assert est.denominator == pytest.approx(1.0, rel=1e-13)
        assert est.method == "nadaraya_watson"

    def test_constant_reproduction(self):
        path = affine_path(a=1.3, b=0.0, x0=0.0, n=40, delta=0.05)
        est = nadaraya_watson_drift(path, float(path.x[10]), 5.0, builtin_kernel("triangular"))
        assert est.value == pytest.approx(1.3, rel=1e-12)

    def test_weighted_mean_oracle(self, ou_path15, epan):
        xq, h = 0.3, 0.4
        est = nadaraya_watson_drift(ou_path15, xq, h, epan)
        x = ou_path15.x
        y = np.diff(x) / ou_path15.delta
        w = epan.evaluate((x[:-1] - xq) / h) / h
        assert est.value == pytest.approx(float((w * y).sum() / w.sum()), rel=1e-12)


class TestDegeneracy:
    def test_empty_window_is_degenerate(self):
        path = make_path([0.0, 0.5, -0.25])
        epan = builtin_kernel("epanechnikov")
        for fn in (local_linear_drift, nadaraya_watson_drift):
            est = fn(path, 50.0, 0.5, epan)
            assert est.degenerate
            assert math.isnan(est.value)

    def test_single_support_point_degenerates_local_linear(self):
        path = make_path([0.0, 10.0, 20.0, 30.0])
        epan = builtin_kernel("epanechnikov")
        ll = local_linear_drift(path, 0.0, 1.0, epan)
        assert ll.degenerate
        nw = nadaraya_watson_drift(path, 0.0, 1.0, epan)
        assert not nw.degenerate
        assert nw.value == pytest.approx(10.0, rel=1e-12)

    def test_coincident_support_points_degenerate(self):
        path = make_path([1.0, 1.0, 1.0, 50.0])
        epan = builtin_kernel("epanechnikov")
        est = local_linear_drift(path, 1.0, 0.5, epan)
        assert est.degenerate

    def test_nearly_coincident_states_are_flagged(self):
        # two distinct states carry weight, yet their normalized determinant
        # 5.6e-11 falls below the threshold 1e-12 * 1000 * 0.75 / 1
        x = np.full(1001, 100.0)
        x[:2] = [0.0, 0.01]
        est = local_linear_drift(make_path(x), 0.0, 1.0, builtin_kernel("epanechnikov"))
        assert est.degenerate
        assert est.denominator == pytest.approx(5.6244375e-11, rel=1e-9)
        assert est.denominator < 1e-12 * 1000 * 0.75 / 1.0
        # spread the pair to 0.05 and the determinant 1.4e-9 clears it
        x[1] = 0.05
        assert not local_linear_drift(make_path(x), 0.0, 1.0, builtin_kernel("epanechnikov")).degenerate

    def test_an_overflowing_response_sum_is_degenerate(self):
        # the jump to 1e200 makes T0 and T1 infinite, so the local linear
        # numerator S2*T0 - S1*T1 is NaN and the ratio fit's value infinite,
        # though both denominators clear the threshold; the flag reports the
        # overflow, so numpy does not warn about it
        path = make_path([0.0, 0.5e-106, 1e200, 0.25e-106, 1.0], delta=1e-3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sums = kernel_sums(path, [0.0], 1e-106, builtin_kernel("epanechnikov"))
        assert math.isinf(sums.t0[0])
        for method in ("local_linear", "nadaraya_watson"):
            est = sums.estimates(method)[0]
            assert abs(est.denominator) >= sums.threshold
            assert est.degenerate
            assert math.isnan(est.value)

    def test_ratio_form_returns_nan_when_degenerate(self):
        path = make_path([0.0, 0.5, -0.25])
        assert math.isnan(local_linear_drift_ratio(path, 50.0, 0.5, builtin_kernel("epanechnikov")))


class TestAsymptoticConstants:
    def test_closed_form_oracle(self, ou_model, ou_density15):
        noise = StableParams(1.5, 0.0)
        epan = builtin_kernel("epanechnikov")
        n, delta, h = 100_000, 0.01, 0.3
        consts = asymptotic_constants(ou_model, ou_density15, noise, epan, 0.0, n, delta, h)
        c = (1.0 / 1.5) ** (1.0 / 1.5)
        fx = gamma_fn(1.0 + 1.0 / 1.5) / (math.pi * c)
        nw_int = 0.75 ** 1.5 * 3.0 * math.pi / 8.0
        lam = 0.2 * fx ** (1.0 - 1.0 / 1.5) / (0.2 ** 1.5 * nw_int) ** (1.0 / 1.5)
        assert consts.lambda_x == pytest.approx(lam, rel=1e-4)
        assert consts.rate == pytest.approx((n * delta * h) ** (1.0 - 1.0 / 1.5), rel=1e-12)
        # linear drift: no curvature, so no second-order bias
        assert consts.gamma_x == 0.0
        assert consts.bias_term == 0.0

    def test_gamma_symmetric_kernel(self):
        # symmetric kernel: Gamma = mu'' K2 / 2
        model = builtin_model("tanh_drift")
        noise = StableParams(1.8, 0.0)
        density = _fourier_density(builtin_model("ou_linear"), StableParams(1.8, 0.0))
        epan = builtin_kernel("epanechnikov")
        consts = asymptotic_constants(model, density, noise, epan, 1.0, 10_000, 0.01, 0.5)
        expected = model.mu_double_prime(1.0) * 0.2 / 2.0
        assert consts.gamma_x == pytest.approx(expected, rel=1e-12)
        assert consts.bias_term == pytest.approx(0.25 * expected, rel=1e-12)

    def test_gamma_one_sided_kernel(self):
        model = builtin_model("tanh_drift")
        noise = StableParams(1.8, 0.0)
        density = _fourier_density(builtin_model("ou_linear"), StableParams(1.8, 0.0))
        uright = builtin_kernel("uniform_right")
        consts = asymptotic_constants(model, density, noise, uright, 1.0, 10_000, 0.01, 0.4)
        k1, k2, k3 = 0.5, 1 / 3, 0.25
        expected = model.mu_double_prime(1.0) * (k2 * k2 - k1 * k3) / (2.0 * (k2 - k1 * k1))
        assert consts.gamma_x == pytest.approx(expected, rel=1e-12)

    def test_gaussian_endpoint_rate(self, ou_model):
        noise = StableParams(2.0, 0.0)
        density = stationary_density_oracle(ou_model, noise)
        epan = builtin_kernel("epanechnikov")
        consts = asymptotic_constants(ou_model, density, noise, epan, 0.0, 10_000, 0.01, 0.3)
        assert consts.rate == pytest.approx(math.sqrt(10_000 * 0.01 * 0.3), rel=1e-12)

    def test_nw_identity_for_symmetric_kernels(self, ou_model, ou_density15):
        noise = StableParams(1.5, 0.0)
        epan = builtin_kernel("epanechnikov")
        ll = asymptotic_constants(ou_model, ou_density15, noise, epan, 0.2, 50_000, 0.01, 0.3)
        nw = nw_asymptotic_constants(ou_model, ou_density15, noise, epan, 0.2, 50_000, 0.01, 0.3)
        # K1 = 0 makes the two standardizing scales coincide
        assert ll.lambda_x == pytest.approx(nw.lambda_x, rel=1e-9)

    def test_nw_gamma_formula(self, ou_model, ou_density15):
        # Gamma = (K2 - K1^2) mu' f'/f + K2 mu'' / 2, for a symmetric and a one-sided kernel
        noise = StableParams(1.5, 0.0)
        xq = 0.4
        fx = float(ou_density15.f(xq))
        step = 1e-4
        fprime = (float(ou_density15.f(xq + step)) - float(ou_density15.f(xq - step))) / (2 * step)
        for name, k1, k2 in (("epanechnikov", 0.0, 0.2), ("uniform_right", 0.5, 1 / 3)):
            nw = nw_asymptotic_constants(ou_model, ou_density15, noise, builtin_kernel(name), xq,
                                         50_000, 0.01, 0.3)
            expected = ((k2 - k1 * k1) * ou_model.mu_prime(xq) * fprime / fx
                        + k2 * ou_model.mu_double_prime(xq) / 2.0)
            assert nw.gamma_x == pytest.approx(expected, rel=1e-3)

    def test_scheme_one_centering(self):
        # the kernel-ratio estimator's first-order term h K1 mu'(x) at h 0.4:
        # -0.2 lam on ou_linear under the one-sided kernel, 0 under a
        # symmetric one
        noise = StableParams(1.8, 0.0)
        for lam in (1.0, 3.0):
            model = builtin_model("ou_linear", {"lam": lam})
            density = stationary_density_oracle(model, noise)
            for xq in (-0.5, 0.0, 0.5):
                for name, first_order in (("uniform_right", -0.2 * lam), ("epanechnikov", 0.0)):
                    kernel = builtin_kernel(name)
                    nw = nw_asymptotic_constants(model, density, noise, kernel, xq, 10_000, 0.01, 0.4)
                    assert nw.first_order == pytest.approx(first_order, abs=1e-15)

    def test_validation(self, ou_model, ou_density15):
        epan = builtin_kernel("epanechnikov")
        with pytest.raises(ParameterError):
            asymptotic_constants(ou_model, ou_density15, StableParams(1.0, 0.0), epan,
                                 0.0, 1000, 0.01, 0.3)
        # the constants are undefined where the stationary density vanishes
        vanishing = StationaryDensity(f=lambda x: 0.0, f_prime=lambda x: 0.0, provenance="analytic")
        with pytest.raises(ParameterError):
            asymptotic_constants(ou_model, vanishing, StableParams(1.5, 0.0), epan,
                                 0.0, 1000, 0.01, 0.3)


class TestDriftCurve:
    """Drift curves: estimates over a grid, read from one kernel-sum pass."""

    def test_curve_and_csv(self, ou_path15, epan, tmp_path):
        grid = [-0.5, 0.0, 0.5, 40.0]
        curve = kernel_sums(ou_path15, grid, 0.3, epan).estimates("local_linear")
        assert [e.x for e in curve] == grid
        assert all(e.method == "local_linear" for e in curve)
        assert curve[-1].degenerate
        target = tmp_path / "curve.csv"
        write_drift_curve_csv(curve, target)
        lines = target.read_text().strip().split("\n")
        assert lines[0] == "x,estimate,method,h,degenerate,denominator"
        assert len(lines) == 5
        last = lines[-1].split(",")
        assert last[1] == ""
        assert last[4] == "true"
        good = lines[1].split(",")
        assert float(good[1]) == curve[0].value
        assert good[4] == "false"

    def test_curve_against_point_calls(self, ou_path15, epan):
        curve = kernel_sums(ou_path15, [0.1, 0.6], 0.35, epan).estimates("nadaraya_watson")
        direct = nadaraya_watson_drift(ou_path15, 0.1, 0.35, epan)
        assert curve[0].value == direct.value

    def test_method_validation(self, ou_path15, epan):
        with pytest.raises(ConfigurationError):
            kernel_sums(ou_path15, [0.0], 0.3, epan).estimates("local_quadratic")
