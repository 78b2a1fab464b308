"""Kernels: stored moments against quadrature, closed-form fractional
integrals, and the unit mass of the bandwidth-scaled kernel."""
from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.integrate import quad

from stabledrift import (
    ConfigurationError,
    ParameterError,
    builtin_kernel,
    kernel_names,
    lambda_fractional_integral,
    lambda_weight_changes_sign,
    nw_fractional_integral,
)

ALL_NAMES = ("epanechnikov", "triangular", "uniform_sym", "uniform_right")


@pytest.mark.parametrize("name", ALL_NAMES)
def test_stored_moments_match_quadrature(name):
    k = builtin_kernel(name)
    lo, hi = k.support
    for power, stored in ((0, 1.0), (1, k.k1), (2, k.k2), (3, k.k3)):
        value, _ = quad(lambda u, p=power: k.evaluate(u) * u ** p, lo, hi)
        assert value == pytest.approx(stored, abs=1e-10)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_support_and_peak(name):
    k = builtin_kernel(name)
    lo, hi = k.support
    assert np.all(np.asarray(k.evaluate(np.array([lo - 0.01, hi + 0.01, lo - 5.0]))) == 0.0)
    grid = np.linspace(lo, hi, 20_001)
    assert np.max(k.evaluate(grid)) == pytest.approx(k.peak, rel=1e-8)
    assert np.min(k.evaluate(grid)) >= 0.0


# K at the two ends of the support, from each kernel's formula
END_VALUES = {
    "epanechnikov": (0.0, 0.0),
    "triangular": (0.0, 0.0),
    "uniform_sym": (0.5, 0.5),
    "uniform_right": (1.0, 1.0),
}


@pytest.mark.parametrize("name", kernel_names())
def test_kernel_vanishes_one_ulp_outside_its_support(name):
    # kernel_sums weights only the states inside the closed support
    k = builtin_kernel(name)
    lo, hi = k.support
    outside = np.array([np.nextafter(lo, -math.inf), np.nextafter(hi, math.inf)])
    assert np.all(np.asarray(k.evaluate(outside)) == 0.0)
    assert np.asarray(k.evaluate(np.array([lo, hi]))).tolist() == list(END_VALUES[name])


def test_symmetry_flags():
    # a kernel is symmetric exactly when its stored odd moments vanish
    u = np.linspace(0.0, 1.5, 301)
    for name in ALL_NAMES:
        k = builtin_kernel(name)
        symmetric = np.array_equal(k.evaluate(-u), k.evaluate(u))
        assert symmetric == (k.k1 == 0.0 and k.k3 == 0.0) == (name != "uniform_right")


def test_exact_moment_values():
    epan = builtin_kernel("epanechnikov")
    assert (epan.k1, epan.k2, epan.peak) == (0.0, 0.2, 0.75)
    tri = builtin_kernel("triangular")
    assert (tri.k1, tri.k2) == (0.0, pytest.approx(1 / 6))
    usym = builtin_kernel("uniform_sym")
    assert (usym.k2, usym.peak) == (pytest.approx(1 / 3), 0.5)
    uright = builtin_kernel("uniform_right")
    assert (uright.k1, uright.k2, uright.k3) == (0.5, pytest.approx(1 / 3), 0.25)
    assert uright.support == (0.0, 1.0)


class TestScaledEval:
    def test_integrates_to_one(self):
        k = builtin_kernel("triangular")
        value, _ = quad(lambda v: k.evaluate(v / 0.7) / 0.7, -0.7, 0.7, points=[0.0])
        assert value == pytest.approx(1.0, abs=1e-10)


class TestFractionalIntegrals:
    def test_lambda_uniform_right_alpha_one(self):
        # piecewise-linear integrand with a sign change at u = 2/3:
        # int_0^1 |1/3 - u/2| du = 5/36
        k = builtin_kernel("uniform_right")
        assert lambda_fractional_integral(k, 1.0) == pytest.approx(5 / 36, rel=1e-10)

    def test_lambda_epanechnikov_alpha_two(self):
        # at alpha=2 and K1=0 the integrand is K2^2 K(u)^2
        k = builtin_kernel("epanechnikov")
        assert lambda_fractional_integral(k, 2.0) == pytest.approx(3 / 125, rel=1e-10)

    def test_lambda_uniform_sym_closed_form(self):
        k = builtin_kernel("uniform_sym")
        for alpha in (1.2, 1.5, 2.0):
            assert lambda_fractional_integral(k, alpha) == pytest.approx(
                2.0 * (1 / 6) ** alpha, rel=1e-9
            )

    @pytest.mark.parametrize("name,alpha", [("epanechnikov", 1.5), ("triangular", 1.3), ("uniform_sym", 1.7)])
    def test_symmetric_identity(self, name, alpha):
        # K1 = 0 collapses the weight to K2 * K(u), so the two integrals
        # differ by the factor K2^alpha
        k = builtin_kernel(name)
        assert lambda_fractional_integral(k, alpha) == pytest.approx(
            k.k2 ** alpha * nw_fractional_integral(k, alpha), rel=1e-9
        )

    def test_nw_closed_forms(self):
        epan = builtin_kernel("epanechnikov")
        assert nw_fractional_integral(epan, 2.0) == pytest.approx(0.6, rel=1e-10)
        # int (1 - u^2)^{3/2} du over [-1, 1] equals 3 pi / 8
        assert nw_fractional_integral(epan, 1.5) == pytest.approx(
            0.75 ** 1.5 * 3 * math.pi / 8, rel=1e-9
        )
        assert nw_fractional_integral(builtin_kernel("uniform_sym"), 1.5) == pytest.approx(
            2.0 ** -0.5, rel=1e-10
        )
        assert nw_fractional_integral(builtin_kernel("triangular"), 2.0) == pytest.approx(
            2 / 3, rel=1e-10
        )
        for alpha in (1.1, 1.5, 2.0):
            assert nw_fractional_integral(builtin_kernel("uniform_right"), alpha) == pytest.approx(
                1.0, rel=1e-10
            )

    @pytest.mark.parametrize("alpha", np.linspace(1.0, 2.0, 21).tolist())
    def test_tanh_sinh_matches_closed_forms(self, alpha):
        # measured within 4.5e-16 relative
        epan, tri, usym, uright = (builtin_kernel(name) for name in ALL_NAMES)
        cases = [
            (nw_fractional_integral(epan, alpha),
             0.75 ** alpha * math.sqrt(math.pi) * math.gamma(alpha + 1) / math.gamma(alpha + 1.5)),
            (nw_fractional_integral(tri, alpha), 2.0 / (alpha + 1.0)),
            (nw_fractional_integral(usym, alpha), 2.0 * 0.5 ** alpha),
            (lambda_fractional_integral(uright, alpha),
             2.0 / (alpha + 1.0) * ((1 / 3) ** (alpha + 1.0) + (1 / 6) ** (alpha + 1.0))),
        ]
        for value, closed in cases:
            assert value == pytest.approx(closed, rel=1e-14)

    def test_alpha_domain(self):
        k = builtin_kernel("epanechnikov")
        for fn in (lambda_fractional_integral, nw_fractional_integral):
            with pytest.raises(ParameterError):
                fn(k, 0.9)
            with pytest.raises(ParameterError):
                fn(k, 2.2)

    def test_sign_change_flag(self):
        assert lambda_weight_changes_sign(builtin_kernel("uniform_right"))
        for name in ("epanechnikov", "triangular", "uniform_sym"):
            assert not lambda_weight_changes_sign(builtin_kernel(name))


def test_registry():
    names = kernel_names()
    assert set(names) == set(ALL_NAMES)
    with pytest.raises(ConfigurationError):
        builtin_kernel("gaussian")
    k = builtin_kernel("epanechnikov")
    assert k.name == "epanechnikov"
