"""Stable law: parameter checks, sampler against the characteristic function,
and the two-sample machinery used by the experiment checks."""
from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from stabledrift import (
    ParameterError,
    Schedule,
    StableParams,
    empirical_char_fn,
    hill_tail_index,
    ks_critical_value,
    sample_standard_stable,
    theoretical_char_fn,
    two_sample_ks,
)
from stabledrift.stable import _cms_transform, _tan_half


class TestParams:
    def test_alpha_domain(self):
        with pytest.raises(ParameterError):
            StableParams(0.0, 0.0)
        with pytest.raises(ParameterError):
            StableParams(-1.0, 0.0)
        with pytest.raises(ParameterError):
            StableParams(2.0 + 1e-9, 0.0)

    def test_beta_domain(self):
        with pytest.raises(ParameterError):
            StableParams(1.5, 1.2)
        with pytest.raises(ParameterError):
            StableParams(1.5, -1.2)

    def test_boundary_values_accepted(self):
        assert StableParams(2.0, 0.0).alpha == 2.0
        assert StableParams(1.5, -1.0).beta == -1.0
        assert StableParams(1.0 + 2.0 ** -52, 1.0).alpha == 1.0 + 2.0 ** -52

    # one stability domain, 1 < alpha <= 2, shared by the law and the design
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(alpha=st.one_of(
        st.floats(max_value=1.0), st.floats(min_value=2.0, exclude_min=True),
        st.sampled_from([0.0, -0.0, 1.0, -1.0, math.nan, math.inf, -math.inf]),
    ))
    def test_alpha_outside_the_domain_is_rejected(self, alpha):
        with pytest.raises(ParameterError):
            StableParams(alpha, 0.0)
        with pytest.raises(ParameterError):
            Schedule(n=1000, delta=0.01, h=0.3, alpha=alpha, kappa=3.0)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(alpha=st.one_of(
        st.floats(min_value=1.0, max_value=2.0, exclude_min=True),
        st.sampled_from([1.0 + 2.0 ** -52, 2.0]),
    ))
    def test_alpha_inside_the_domain_is_accepted(self, alpha):
        assert StableParams(alpha, 0.0).alpha == alpha
        assert Schedule(n=1000, delta=0.01, h=0.3, alpha=alpha, kappa=3.0).alpha == alpha


class TestCharFn:
    def test_hand_values(self):
        # beta drops out at alpha=2: phi(u) = exp(-u^2), so phi(1) = e^{-1}
        phi = theoretical_char_fn(StableParams(2.0, 0.7), 1.0)
        assert complex(phi).imag == 0.0
        assert complex(phi).real == pytest.approx(math.exp(-1.0), rel=1e-14)
        # symmetric case: phi(u) = exp(-|u|^alpha)
        phi = theoretical_char_fn(StableParams(1.5, 0.0), -2.0)
        assert complex(phi) == pytest.approx(math.exp(-(2.0 ** 1.5)), rel=1e-13)

    def test_u_zero_is_one(self):
        for params in (StableParams(1.2, 0.5), StableParams(1.1, -0.8), StableParams(2.0, 0.0)):
            assert complex(theoretical_char_fn(params, 0.0)) == 1.0

    def test_conjugate_symmetry(self):
        u = np.linspace(-3.0, 3.0, 13)
        for params in (StableParams(1.7, -0.6), StableParams(1.3, 0.4)):
            phi = np.asarray(theoretical_char_fn(params, u))
            assert_allclose(phi[::-1], np.conj(phi), rtol=1e-12, atol=1e-15)

    def test_skewed_has_imaginary_part(self):
        phi = complex(theoretical_char_fn(StableParams(1.5, 0.8), 1.0))
        assert abs(phi.imag) > 1e-3

    def test_empirical_exact_two_point(self):
        # (e^{i pi} + e^{-i pi}) / 2 = -1 with the imaginary parts cancelling
        samples = np.array([math.pi, -math.pi])
        phi = np.asarray(empirical_char_fn(samples, np.array([1.0])))
        assert phi[0] == pytest.approx(-1.0 + 0.0j, abs=1e-15)

    def test_empirical_is_the_mean_over_each_row_of_the_outer_product(self):
        # one frequency at a time sums each row as the (len(u), n) matrix did
        z = sample_standard_stable(StableParams(1.5, 0.5), np.random.default_rng(8), size=12_345)
        u = np.linspace(-4.0, 4.0, 9).reshape(3, 3)
        matrix = np.exp(1j * np.outer(u.ravel(), z)).mean(axis=1).reshape(u.shape)
        assert np.asarray(empirical_char_fn(z, u)).tobytes() == matrix.tobytes()
        assert empirical_char_fn(z, 2.0) == matrix.ravel()[6]

    def test_empirical_at_zero(self):
        rng = np.random.default_rng(5)
        phi = np.asarray(empirical_char_fn(rng.normal(size=50), np.array([0.0])))
        assert phi[0] == pytest.approx(1.0 + 0.0j, abs=1e-15)


class TestSampler:
    def test_deterministic_given_seed(self):
        params = StableParams(1.6, -0.3)
        a = sample_standard_stable(params, np.random.default_rng(99), size=1000)
        b = sample_standard_stable(params, np.random.default_rng(99), size=1000)
        assert np.array_equal(a, b)

    def test_scalar_draw(self):
        value = sample_standard_stable(StableParams(1.5, 0.0), np.random.default_rng(1))
        assert isinstance(value, float)

    @pytest.mark.parametrize("alpha, beta", [(1.5, 0.0), (1.8, 0.3), (2.0, 0.0), (1.2, -1.0)])
    def test_scalar_draw_is_the_first_of_one(self, alpha, beta):
        params = StableParams(alpha, beta)
        for seed in range(50):
            value = sample_standard_stable(params, np.random.default_rng(seed))
            first = sample_standard_stable(params, np.random.default_rng(seed), size=1)[0]
            assert np.float64(value).tobytes() == first.tobytes()

    @pytest.mark.parametrize("size, shape", [(5, (5,)), ((3, 4), (3, 4)), ((2, 1, 3), (2, 1, 3)), ((0,), (0,))])
    def test_requested_shape(self, size, shape):
        z = sample_standard_stable(StableParams(1.5, 0.2), np.random.default_rng(3), size=size)
        assert isinstance(z, np.ndarray) and z.shape == shape and z.dtype == np.float64

    def test_gaussian_endpoint_variance_two(self):
        rng = np.random.default_rng(2024)
        z = sample_standard_stable(StableParams(2.0, 0.9), rng, size=200_000)
        # alpha=2 is N(0, 2) regardless of beta
        assert z.var() == pytest.approx(2.0, abs=0.05)
        assert z.mean() == pytest.approx(0.0, abs=0.02)

    def test_gaussian_endpoint_law(self):
        rng = np.random.default_rng(77)
        z = sample_standard_stable(StableParams(2.0, 0.0), rng, size=100_000)
        ref = rng.normal(0.0, math.sqrt(2.0), size=100_000)
        assert two_sample_ks(z, ref) < ks_critical_value(z.size, ref.size, 0.01)

    @pytest.mark.parametrize("alpha,beta", [(1.3, -1.0), (1.3, 0.5), (1.7, -1.0), (1.7, 0.5)])
    def test_char_fn_match(self, alpha, beta):
        params = StableParams(alpha, beta)
        rng = np.random.default_rng(31_000 + int(100 * alpha) + int(10 * (1 + beta)))
        z = sample_standard_stable(params, rng, size=40_000)
        u = np.array([-3.0, -1.0, 0.5, 2.0])
        emp = np.asarray(empirical_char_fn(z, u))
        theo = np.asarray(theoretical_char_fn(params, u))
        assert np.max(np.abs(emp - theo)) < 5.0 / math.sqrt(z.size)

    # Nearer to alpha = 1 the shift tan(pi alpha / 2) of a skewed law passes
    # 6e13, where one ulp of a draw moves exp(i u Z) by about the bound itself
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(alpha=st.floats(1.0 + 1e-12, 2.0), beta=st.floats(-1.0, 1.0))
    def test_char_fn_match_at_random_parameters(self, alpha, beta):
        params = StableParams(alpha, beta)
        # the stream follows from the drawn parameters alone
        rng = np.random.default_rng(np.array([alpha, beta]).view(np.uint64).tolist())
        z = sample_standard_stable(params, rng, size=40_000)
        u = np.array([-3.0, -1.0, 0.5, 2.0])
        emp = np.asarray(empirical_char_fn(z, u))
        theo = np.asarray(theoretical_char_fn(params, u))
        assert np.max(np.abs(emp - theo)) < 5.0 / math.sqrt(z.size)

    @pytest.mark.parametrize("beta", [-1.0, 1.0])
    def test_fully_skewed_draws_next_to_alpha_one_are_finite(self, beta):
        # cos(v - arg) is about alpha - 1 here and may round below zero
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            z = sample_standard_stable(StableParams(1.0 + 2.0 ** -52, beta), np.random.default_rng(0), size=40_000)
        assert np.isfinite(z).all()


# Twice the worst relative error of the sin/cos form of the map, which the
# tan form replaced, at _accuracy_points(): one bound per alpha for each beta
ACCURACY_BETAS = [-1.0, -0.3, 0.0, 0.5, 1.0]
ACCURACY_BOUNDS = {
    1.01: [8.3e-16, 2.2e-14, 6.9e-16, 2.3e-14, 8.2e-16],
    1.2: [8.0e-16, 1.2e-15, 7.1e-16, 3.2e-15, 8.5e-16],
    1.5: [2.0e-15, 1.5e-15, 1.8e-15, 2.2e-15, 2.0e-15],
    1.8: [2.3e-15, 2.4e-15, 2.3e-15, 2.2e-15, 1.8e-15],
    1.99: [3.0e-15, 2.8e-14, 1.6e-14, 1.8e-14, 2.8e-15],
    2.0: [7.5e-16, 7.5e-16, 7.5e-16, 7.5e-16, 7.5e-16],
}


def _accuracy_points():
    # uniforms in the bulk and within 1e-6 of both ends, each with four
    # exponentials from 1e-3 to 20, mapped to angles as the sampler does
    ends = 1e-6 * np.array([1.0, 0.5, 0.2, 0.1])
    u = np.concatenate([np.random.default_rng(0).random(200), ends, 1.0 - ends])
    uu, ww = np.meshgrid(u, np.array([1e-3, 0.5, 2.0, 20.0]))
    return -math.pi / 2.0 + math.pi * uu.ravel(), ww.ravel()


def _textbook_cms(alpha, beta, v, w):
    # the sin/cos form in long double, from the same double angles, waits and
    # scalars b0 and s that the map is given and computes
    t = _tan_half(alpha)
    b0 = math.atan(beta * t) / alpha
    s = (1.0 + beta * beta * t * t) ** (1.0 / (2.0 * alpha))
    a = np.longdouble(alpha)
    v = v.astype(np.longdouble)
    arg = a * (v + np.longdouble(b0))
    return (np.longdouble(s) * np.sin(arg) / np.cos(v) ** (1 / a)
            * (np.cos(v - arg) / w.astype(np.longdouble)) ** ((1 - a) / a))


@pytest.mark.skipif(np.finfo(np.longdouble).nmant + 1 < 64,
                    reason="long double has fewer than 64 mantissa bits on this platform")
@pytest.mark.parametrize("alpha", sorted(ACCURACY_BOUNDS))
@pytest.mark.parametrize("beta", ACCURACY_BETAS)
def test_cms_map_matches_the_textbook_form_in_long_double(alpha, beta):
    v, w = _accuracy_points()
    exact = _textbook_cms(alpha, beta, v, w)
    x = _cms_transform(StableParams(alpha, beta), v.copy(), w.copy(), np.empty_like(v), np.empty_like(v))
    assert np.isfinite(exact).all()
    worst = float(np.max(np.abs((x.astype(np.longdouble) - exact) / exact)))
    assert worst <= ACCURACY_BOUNDS[alpha][ACCURACY_BETAS.index(beta)]


class TestKolmogorovSmirnov:
    def test_disjoint_samples(self):
        assert two_sample_ks(np.array([0.0]), np.array([1.0])) == 1.0

    def test_identical_samples(self):
        x = np.array([0.3, -1.2, 4.0])
        assert two_sample_ks(x, x.copy()) == 0.0

    def test_matches_scipy(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=257)
        b = rng.normal(0.3, 1.1, size=311)
        expected = scipy.stats.ks_2samp(a, b, method="asymp").statistic
        assert two_sample_ks(a, b) == pytest.approx(expected, abs=1e-12)

    def test_critical_value_formula(self):
        # large-sample two-sided quantile: c(q) * sqrt(1/n + 1/m)
        expected = scipy.stats.kstwobign.isf(0.01) * math.sqrt(2.0 / 500.0)
        assert ks_critical_value(500, 500, 0.01) == pytest.approx(expected, rel=1e-6)
        assert ks_critical_value(500, 100_000, 0.01) < ks_critical_value(500, 500, 0.01)

    def test_critical_value_validation(self):
        with pytest.raises(ParameterError):
            ks_critical_value(0, 10, 0.01)
        with pytest.raises(ParameterError):
            ks_critical_value(10, 10, 0.0)


class TestHill:
    def test_exact_pareto(self):
        # X = U^{-1/a} is Pareto with tail index a; Hill is consistent there
        rng = np.random.default_rng(313)
        x = rng.uniform(size=5000) ** (-1.0 / 1.5)
        assert hill_tail_index(x, fraction=0.1) == pytest.approx(1.5, abs=0.25)

    def test_gaussian_reads_heavy_index(self):
        rng = np.random.default_rng(314)
        x = rng.normal(size=5000)
        assert hill_tail_index(x, fraction=0.1) > 2.5

    def test_validation(self):
        with pytest.raises(ParameterError):
            hill_tail_index(np.ones(5), fraction=0.0)
        with pytest.raises(ParameterError):
            hill_tail_index(np.ones(5), fraction=1.5)
        with pytest.raises(ParameterError):
            hill_tail_index(np.arange(5.0), fraction=0.5)
