"""Model registry, derivative consistency, and the stationary density
oracle routes with their closed-form checks."""
from __future__ import annotations

import dataclasses
import math
import re

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gamma as gamma_fn

from stabledrift import (
    ConfigurationError,
    NumericError,
    ParameterError,
    SdeModel,
    StableParams,
    builtin_model,
    model_names,
    stationary_density_oracle,
    validate_model,
)
from stabledrift.models import (
    _PLUGIN_BURN_IN,
    _PLUGIN_DELTA,
    _PLUGIN_PATHS,
    _PLUGIN_SEED,
    _PLUGIN_STEPS,
    _center_series,
    _fourier_density,
    _gaussian_density,
    _plugin_density,
    _plugin_sample,
)
from stabledrift.simulate import derive_replicate_seed, simulate_path
from stabledrift.stable import _tan_half


def finite_difference(f, x, step):
    return (f(x + step) - f(x - step)) / (2.0 * step)


class TestBuiltinModels:
    def test_ou_closures(self):
        m = builtin_model("ou_linear", {"gamma": 0.3, "lam": 1.2, "sigma": 0.8})
        assert m.mu(2.0) == pytest.approx(0.3 - 1.2 * 2.0, rel=1e-15)
        assert m.mu_prime(5.0) == -1.2
        assert m.mu_double_prime(-3.0) == 0.0
        assert m.sigma(17.0) == 0.8
        assert m.sigma_constant
        assert m.lipschitz_mu == pytest.approx(1.2)
        values = m.mu(np.array([-1.0, 0.0, 2.5]))
        np.testing.assert_allclose(values, [1.5, 0.3, -2.7], rtol=1e-14)

    def test_tanh_drift_second_derivative(self):
        m = builtin_model("tanh_drift", {"a": 1.0, "sigma": 1.0})
        # mu = -a tanh, so mu'' = 2 a tanh sech^2
        t = math.tanh(1.0)
        assert m.mu_double_prime(1.0) == pytest.approx(2.0 * t * (1.0 - t * t), rel=1e-12)
        assert m.mu_double_prime(1.0) == pytest.approx(0.6397000084, abs=1e-9)

    @pytest.mark.parametrize("name,params", [
        ("ou_linear", {"gamma": -0.4, "lam": 0.7, "sigma": 1.3}),
        ("tanh_drift", {"a": 1.4, "sigma": 0.6}),
        ("bounded_nonlinear", {"lam": 1.1, "c": 0.4, "sigma0": 0.6, "sigma1": 0.3}),
    ])
    def test_derivatives_match_finite_differences(self, name, params):
        m = builtin_model(name, params)
        for x in (-2.0, -0.3, 0.0, 0.7, 3.0):
            fd1 = finite_difference(m.mu, x, 1e-6)
            assert m.mu_prime(x) == pytest.approx(fd1, abs=1e-5)
            fd2 = finite_difference(m.mu_prime, x, 1e-5)
            assert m.mu_double_prime(x) == pytest.approx(fd2, abs=1e-4)

    def test_sigma_bounds_hold(self):
        m = builtin_model("bounded_nonlinear", {"lam": 1.0, "c": 0.5, "sigma0": 0.5, "sigma1": 0.5})
        lo, hi = m.sigma_bounds
        values = m.sigma(np.linspace(-30, 30, 2001))
        assert np.all(values >= lo - 1e-12)
        assert np.all(values <= hi + 1e-12)
        assert not m.sigma_constant

    def test_param_validation(self):
        with pytest.raises(ConfigurationError):
            builtin_model("ou_linear", {"lambda": 1.0})
        with pytest.raises(ParameterError):
            builtin_model("ou_linear", {"lam": 0.0})
        with pytest.raises(ParameterError):
            builtin_model("tanh_drift", {"sigma": -1.0})
        with pytest.raises(ConfigurationError):
            builtin_model("geometric", {})
        # float() used to read both as 2.0 and 1.0
        for bad in ("2", True):
            with pytest.raises(ConfigurationError, match=f"^model parameter 'lam' must be a finite number, got {bad!r}$"):
                builtin_model("ou_linear", {"lam": bad})

    @pytest.mark.parametrize("name", ["ou_linear", "tanh_drift", "bounded_nonlinear"])
    @pytest.mark.parametrize("fn", ["mu", "mu_prime", "mu_double_prime", "sigma"])
    def test_float_in_float_out_and_array_in_array_out(self, name, fn):
        f = getattr(builtin_model(name), fn)
        for x in (0.0, -1.5, 2.25):
            assert isinstance(f(x), float)
        for arr in (np.array(0.7), np.linspace(-3.0, 3.0, 7), np.linspace(-3.0, 3.0, 12).reshape(3, 4)):
            out = f(arr)
            assert np.shape(out) == arr.shape
            assert np.asarray(out).dtype == np.float64

    def test_registry(self):
        assert set(model_names()) == {"ou_linear", "tanh_drift", "bounded_nonlinear"}
        defaults = builtin_model("ou_linear")
        assert defaults.params["lam"] == 1.0


class TestValidateModel:
    def _ou_fields(self):
        m = builtin_model("ou_linear", {"gamma": 0.0, "lam": 1.0, "sigma": 1.0})
        return {
            "name": m.name, "params": m.params, "mu": m.mu, "mu_prime": m.mu_prime,
            "mu_double_prime": m.mu_double_prime, "sigma": m.sigma,
            "sigma_bounds": m.sigma_bounds, "lipschitz_mu": m.lipschitz_mu,
        }

    def test_wrong_first_derivative_rejected(self):
        fields = self._ou_fields()
        fields["mu_prime"] = lambda x: 0.5 * np.ones_like(np.asarray(x, dtype=float))
        with pytest.raises(ParameterError):
            validate_model(SdeModel(**fields))

    def test_wrong_second_derivative_rejected(self):
        fields = self._ou_fields()
        fields["mu_double_prime"] = lambda x: np.ones_like(np.asarray(x, dtype=float))
        with pytest.raises(ParameterError):
            validate_model(SdeModel(**fields))

    @pytest.mark.parametrize("lam", [1.0, 1875.0])
    def test_slightly_wrong_second_derivative_rejected(self, lam):
        fields = self._ou_fields()
        fields["mu"] = builtin_model("ou_linear", {"lam": lam}).mu
        fields["mu_prime"] = lambda x: np.full_like(np.asarray(x, dtype=float), -lam)
        fields["lipschitz_mu"] = lam
        fields["mu_double_prime"] = lambda x: np.full_like(np.asarray(x, dtype=float), 1e-5)
        with pytest.raises(ParameterError, match="mu_double_prime"):
            validate_model(SdeModel(**fields))

    @pytest.mark.parametrize("lam", [1875.0, 3000.0, 1e4])
    def test_steep_linear_drift_builds(self, lam):
        # the second difference of gamma - lam * x rounds to about
        # eps * lam / step^2 near |x| = 1, above the 1e-6 relative tolerance
        assert builtin_model("ou_linear", {"lam": lam}).lipschitz_mu == lam

    def test_sigma_outside_bounds_rejected(self):
        fields = self._ou_fields()
        fields["sigma_bounds"] = (0.1, 0.5)
        with pytest.raises(ParameterError):
            validate_model(SdeModel(**fields))

    def test_lipschitz_understatement_rejected(self):
        fields = self._ou_fields()
        fields["lipschitz_mu"] = 0.2
        with pytest.raises(ParameterError):
            validate_model(SdeModel(**fields))

    @pytest.mark.parametrize("affine", [(0.0, 1.0 + 2.0 ** -52), (1e-300, 1.0), (0.0, 2.0)])
    def test_wrong_affine_coefficients_rejected(self, affine):
        # the drift is 0 - 1 * x; the engine would step the declared one
        fields = self._ou_fields()
        validate_model(SdeModel(**fields, affine_drift=(0.0, 1.0)))
        with pytest.raises(ParameterError, match="affine_drift"):
            validate_model(SdeModel(**fields, affine_drift=affine))

    def test_affine_drift_with_state_dependent_sigma_rejected(self):
        m = builtin_model("bounded_nonlinear", {"lam": 0.0, "sigma1": 0.5})
        assert m.affine_drift is None
        with pytest.raises(ParameterError, match="constant sigma"):
            validate_model(dataclasses.replace(m, affine_drift=(0.0, m.params["c"])))

    @staticmethod
    def _stepper_of(kind):
        """A bounded_nonlinear model whose declared stepper takes the step
        ``kind`` on floats and on vectors, in block form."""
        m = builtin_model("bounded_nonlinear")
        mu, sigma = m.mu, m.sigma
        lam, c, s0, s1 = (m.params[key] for key in ("lam", "c", "sigma0", "sigma1"))
        steps = {
            "generic": lambda delta: lambda x, term: x + mu(x) * delta + sigma(x) * term,
            "splits sigma": lambda delta: lambda x, term: x + mu(x) * delta + (s0 * term + s1 / (1.0 + x * x) * term),
            "folds delta": lambda delta: lambda x, term: (
                x + (-lam * delta) * x / (1.0 + x * x) - c * delta * x + sigma(x) * term
            ),
            "drops sigma": lambda delta: lambda x, term: x + mu(x) * delta + term,
            "flips the drift": lambda delta: lambda x, term: x - mu(x) * delta + sigma(x) * term,
        }

        def stepper(delta, width):
            step = steps[kind](delta)

            def block(x, terms, rows):
                for k, term in enumerate(terms if width else terms.tolist()):
                    x = step(x, term)
                    if width:
                        rows[k] = x
                    else:
                        rows.append(x)
                return x

            return block

        return dataclasses.replace(m, stepper=stepper)

    @pytest.mark.parametrize("regrouping", ["generic", "splits sigma", "folds delta"])
    def test_stepper_that_regroups_the_step_accepted(self, regrouping):
        # each rounds differently from the generic step, within the bound
        validate_model(self._stepper_of(regrouping))

    @pytest.mark.parametrize("departure", ["drops sigma", "flips the drift"])
    def test_stepper_that_departs_from_the_generic_step_rejected(self, departure):
        with pytest.raises(ParameterError, match="stepper departs from the Euler step"):
            validate_model(self._stepper_of(departure))

    @pytest.mark.parametrize("breach, message", [
        ("returns its first state", "vector block must return its last state"),
        ("changes x", "vector block must not change x"),
        ("steps one ulp off the float step", "float and vector steps differ"),
    ])
    def test_vector_step_that_breaks_the_in_place_contract_rejected(self, breach, message):
        m = builtin_model("bounded_nonlinear")
        declared = m.stepper

        def stepper(delta, width):
            block = declared(delta, width)
            if width is None:
                return block

            def vector(x, terms, rows):
                start = x.copy()
                block(x, terms, rows)
                if breach == "changes x":
                    x[0] += 1.0
                elif breach == "steps one ulp off the float step":
                    rows[-1, 0] = np.nextafter(rows[-1, 0], np.inf)
                return start if breach == "returns its first state" else rows[-1]

            return vector

        with pytest.raises(ParameterError, match=message):
            validate_model(dataclasses.replace(m, stepper=stepper))

    @pytest.mark.parametrize("name, params, affine", [
        ("ou_linear", {"gamma": -0.4, "lam": 0.7}, (-0.4, 0.7)),
        ("bounded_nonlinear", {"lam": 0.0, "c": 0.3, "sigma1": 0.0}, (0.0, 0.3)),
        ("bounded_nonlinear", {"lam": 0.5, "sigma1": 0.0}, None),
        ("bounded_nonlinear", {"lam": 0.0, "sigma1": 0.5}, None),
        ("tanh_drift", {}, None),
    ])
    def test_declared_affine_drift(self, name, params, affine):
        assert builtin_model(name, params).affine_drift == affine

    def test_valid_model_passes(self):
        validate_model(builtin_model("tanh_drift"))

    @pytest.mark.parametrize("name, params, constant", [
        ("ou_linear", {}, True),
        ("tanh_drift", {}, True),
        ("bounded_nonlinear", {"sigma1": 0.0}, True),
        ("bounded_nonlinear", {"sigma1": 0.5}, False),
    ])
    def test_sigma_constant_reads_the_bounds(self, name, params, constant):
        m = builtin_model(name, params)
        lo, hi = m.sigma_bounds
        assert m.sigma_constant == (lo == hi) == constant

    def test_sigma_constant_cannot_be_declared(self):
        # bounds (0.5, 1.0): a declared constant sigma would step with 0.5
        m = builtin_model("bounded_nonlinear")
        with pytest.raises(TypeError):
            dataclasses.replace(m, sigma_constant=True)


class TestStationaryDensity:
    def test_analytic_gaussian(self):
        m = builtin_model("ou_linear", {"gamma": 0.0, "lam": 2.0, "sigma": 1.5})
        d = stationary_density_oracle(m, StableParams(2.0, 0.0))
        assert d.provenance == "analytic"
        var = 1.5 ** 2 / 2.0
        assert float(d.f(0.0)) == pytest.approx(1.0 / math.sqrt(2 * math.pi * var), rel=1e-12)
        x = 0.8
        expected = math.exp(-x * x / (2 * var)) / math.sqrt(2 * math.pi * var)
        assert float(d.f(x)) == pytest.approx(expected, rel=1e-12)
        assert float(d.f_prime(x)) == pytest.approx(-x / var * expected, rel=1e-10)

    def test_analytic_mean_shift(self):
        m = builtin_model("ou_linear", {"gamma": 1.0, "lam": 2.0, "sigma": 1.0})
        d = stationary_density_oracle(m, StableParams(2.0, 0.0))
        assert float(d.f_prime(0.5)) == pytest.approx(0.0, abs=1e-12)
        assert float(d.f(0.2)) == pytest.approx(float(d.f(0.8)), rel=1e-10)

    def test_fourier_center_value_closed_form(self):
        # symmetric stable density at its center: f(0) = Gamma(1 + 1/a) / (pi c);
        # measured within 1.6e-15 relative
        m = builtin_model("ou_linear", {"gamma": 0.0, "lam": 1.0, "sigma": 1.0})
        for alpha in (1.5, 1.8):
            d = _fourier_density(m, StableParams(alpha, 0.0))
            assert d.provenance == "numeric-oracle"
            c = (1.0 / alpha) ** (1.0 / alpha)
            expected = gamma_fn(1.0 + 1.0 / alpha) / (math.pi * c)
            assert float(d.f(0.0)) == pytest.approx(expected, rel=1e-12)
            # next to the center the tail series must give up, not overflow
            assert float(d.f(1e-300)) == pytest.approx(expected, rel=1e-12)
            for bad in (math.inf, -math.inf, math.nan):
                with pytest.raises(ParameterError, match="finite"):
                    d.f(bad)

    def test_fourier_symmetry_and_normalization(self):
        m = builtin_model("ou_linear", {"gamma": 2.0, "lam": 2.0, "sigma": 1.0})
        alpha = 1.7
        d = _fourier_density(m, StableParams(alpha, 0.0))
        assert float(d.f(1.3)) == pytest.approx(float(d.f(0.7)), rel=1e-6)
        assert float(d.f_prime(0.5)) > 0.0 > float(d.f_prime(1.5))
        # mass over the real line, measured 1 - 1.1e-15
        mass = quad(d.f, -math.inf, math.inf)[0]
        assert mass == pytest.approx(1.0, abs=1e-10)
        # far out the density follows the tail law, not a grid edge
        c = (1.0 / (alpha * 2.0)) ** (1.0 / alpha)
        y = (1e6 - 1.0) / c
        lead = alpha * gamma_fn(alpha) * math.sin(math.pi * alpha / 2) / math.pi * y ** (-1.0 - alpha)
        assert float(d.f(1e6)) > 0.0
        assert float(d.f(1e6)) * c == pytest.approx(lead, rel=1e-8)

    def test_fourier_matches_analytic_at_endpoint(self):
        # measured within 2.3e-15 relative for f and f'
        m = builtin_model("ou_linear", {"gamma": 0.5, "lam": 1.0, "sigma": 1.0})
        analytic = _gaussian_density(m, StableParams(2.0, 0.0))
        fourier = _fourier_density(m, StableParams(2.0, 0.0))
        for x in (-1.0, 0.2, 0.5, 2.0, 3.5):
            assert float(fourier.f(x)) == pytest.approx(float(analytic.f(x)), rel=1e-12)
            assert float(fourier.f_prime(x)) == pytest.approx(float(analytic.f_prime(x)), rel=1e-12)

    def test_fourier_derivative_matches_central_differences(self):
        # measured within 4.8e-8 of f(x), at steps of 1e-4 max(1, |x|)
        m = builtin_model("ou_linear")
        for alpha, beta in ((1.5, 0.0), (1.8, 0.5), (1.2, 1.0)):
            d = _fourier_density(m, StableParams(alpha, beta))
            for x in (-2.0, -0.7, 0.3, 1.1, 4.0, 25.0):
                step = 1e-4 * max(1.0, abs(x))
                slope = finite_difference(d.f, x, step)
                assert abs(slope - float(d.f_prime(x))) <= 5e-7 * float(d.f(x))

    def test_fourier_skewed_law_reflects(self):
        # f(m + d; beta) = f(m - d; -beta) about the mean m = 1, and f' flips
        # sign; d spans the inversion integrals and the tail series
        m = builtin_model("ou_linear", {"gamma": 2.0, "lam": 2.0, "sigma": 1.0})
        for alpha in (1.5, 1.8):
            for beta in (0.5, 1.0):
                right = _fourier_density(m, StableParams(alpha, beta))
                left = _fourier_density(m, StableParams(alpha, -beta))
                for offset in (0.25, 0.75, 3.0, 40.0, 4096.0):
                    assert float(right.f(1.0 + offset)) == pytest.approx(float(left.f(1.0 - offset)), rel=1e-14)
                    assert float(right.f_prime(1.0 + offset)) == pytest.approx(
                        -float(left.f_prime(1.0 - offset)), rel=1e-14)

    def test_fourier_tail_law(self):
        # Symmetric: the two leading terms of the series in |y|^(-alpha),
        # with the second -cos(pi a/2) Gamma(2a+1)/Gamma(a+1) |y|^(-a) times
        # the first (measured within 7.9e-8). Totally skewed, right tail: the
        # leading term, (1 + beta) times the symmetric one, off by at most
        # 7.1 |y|^(-alpha) (measured).
        m = builtin_model("ou_linear", {"gamma": 0.5, "lam": 2.0, "sigma": 1.3})
        for alpha in (1.2, 1.5, 1.8):
            c = 1.3 * (1.0 / (2.0 * alpha)) ** (1.0 / alpha)
            law = alpha * gamma_fn(alpha) * math.sin(math.pi * alpha / 2) / math.pi
            second = -math.cos(math.pi * alpha / 2) * gamma_fn(2 * alpha + 1) / gamma_fn(alpha + 1)
            symmetric = _fourier_density(m, StableParams(alpha, 0.0))
            skewed = _fourier_density(m, StableParams(alpha, 1.0))
            for y in (1e3, 1e4, 1e6):
                lead = law * y ** (-1.0 - alpha)
                for side in (1.0, -1.0):
                    value = float(symmetric.f(0.25 + side * c * y)) * c
                    assert value == pytest.approx(lead * (1.0 + second * y ** -alpha), rel=1e-6)
                value = float(skewed.f(0.25 + c * y)) * c
                assert abs(value / (2.0 * lead) - 1.0) <= 10.0 * y ** -alpha

    @pytest.mark.parametrize("alpha", [1.05, 1.1, 1.3, 1.5, 1.8, 1.99, 2.0])
    def test_center_series_matches_the_inversion_integrals(self, alpha):
        # measured within 1.1e-14 of g for g and 5.5e-14 of g for g', with
        # error bounds of at most 1.3e-12 of g; the series certifies every
        # point, so the oracle needs no quadrature for |y| < 1
        for beta in (-1.0, -0.5, 0.0, 0.5, 1.0):
            skew = beta * _tan_half(alpha)
            for y in np.linspace(-0.99, 0.99, 23).tolist():
                g, g_prime, error = _center_series(y, alpha, skew)
                assert error <= 1e-9 * g
                expected, expected_prime = (
                    quad(integrand, 0.0, math.inf, epsabs=1e-14, epsrel=1e-12, limit=500)[0] / math.pi
                    for integrand in (
                        lambda s: math.exp(-s ** alpha) * math.cos(skew * s ** alpha - s * y),
                        lambda s: s * math.exp(-s ** alpha) * math.sin(skew * s ** alpha - s * y),
                    )
                )
                assert abs(g - expected) <= 1e-12 * expected
                assert abs(g_prime - expected_prime) <= 1e-12 * expected
                # the reflection g(y; skew) = g(-y; -skew) holds bit for bit
                mirror = _center_series(-y, alpha, -skew)
                assert (mirror[0], -mirror[1]) == (g, g_prime)

    def test_fourier_refuses_points_it_cannot_certify(self):
        # the light tail of a totally skewed law, and the Gaussian endpoint
        # far out: no rule reaches 1e-9 of the density there
        m = builtin_model("ou_linear")
        for noise, x in ((StableParams(1.8, 1.0), -21.0), (StableParams(1.5, -1.0), 15.0),
                         (StableParams(2.0, 0.0), 14.0)):
            d = _fourier_density(m, noise)
            for evaluate in (d.f, d.f_prime):
                with pytest.raises(NumericError, match=re.escape(f"x = {x!r}")):
                    evaluate(x)

    def test_simulation_route(self):
        m = builtin_model("ou_linear", {"gamma": 0.0, "lam": 1.0, "sigma": 1.0})
        fourier = _fourier_density(m, StableParams(1.5, 0.0))
        sim = _plugin_density(m, StableParams(1.5, 0.0))
        assert sim.provenance == "kernel-plug-in"
        assert float(sim.f(0.0)) == pytest.approx(float(fourier.f(0.0)), rel=0.1)
        # the density vanishes past the ends of this grid, which is much
        # finer than the plug-in's own
        grid = np.linspace(-150.0, 150.0, 150_001)
        assert sim.f(grid[0]) == sim.f(grid[-1]) == 0.0
        mass = np.trapezoid([sim.f(x) for x in grid.tolist()], grid)
        assert mass == pytest.approx(1.0, abs=5e-3)
        again = _plugin_density(m, StableParams(1.5, 0.0))
        assert float(again.f(0.3)) == float(sim.f(0.3))

    def test_simulation_route_is_near_the_fourier_oracle(self):
        # At these points |y| < 1, so the Fourier route answers by its centre
        # series.  The bounds are the worst errors the single-path design of
        # the plug-in (one 4e5-step path of 0.01) made over the three alphas
        # and the 19 of 20 seeds it could build from: 8.7% in f and 0.32 in
        # f'/f (5.2% and 0.17 at its own seed).  The error is the Monte Carlo
        # noise of about 4000 units of recorded time, which the pooled paths
        # keep.
        m = builtin_model("ou_linear", {"gamma": 0.0, "lam": 1.0, "sigma": 1.0})
        for alpha in (1.2, 1.5, 1.8):
            noise = StableParams(alpha, 0.0)
            truth, sim = _fourier_density(m, noise), _plugin_density(m, noise)
            for x in (-0.5, 0.0, 0.5):
                assert abs(sim.f(x) / truth.f(x) - 1.0) < 0.09
                assert abs(sim.f_prime(x) / sim.f(x) - truth.f_prime(x) / truth.f(x)) < 0.33

    @pytest.mark.parametrize("name", ["ou_linear", "tanh_drift", "bounded_nonlinear"])
    def test_plugin_sample_is_its_paths_stepped_one_at_a_time(self, name):
        m = builtin_model(name)
        noise = StableParams(1.5, 0.0)
        alone = [
            simulate_path(m, noise, 0.0, _PLUGIN_STEPS, _PLUGIN_DELTA, derive_replicate_seed(_PLUGIN_SEED, j),
                          _PLUGIN_BURN_IN).x
            for j in range(_PLUGIN_PATHS)
        ]
        assert _plugin_sample(m, noise).tobytes() == np.concatenate(alone).tobytes()

    @pytest.mark.parametrize("alpha", [1.2, 1.5, 1.8])
    @pytest.mark.parametrize("name", ["tanh_drift", "bounded_nonlinear"])
    def test_simulation_route_keeps_its_mass(self, name, alpha):
        # the heavy tails stretch the histogram's range over hundreds of
        # bandwidths; bins sized from that range alone smoothed with one or
        # two taps and lost mass
        density = _plugin_density(builtin_model(name), StableParams(alpha, 0.0))
        assert density.f(0.0) > 0.0

    def test_auto_routing(self):
        ou = builtin_model("ou_linear")
        assert stationary_density_oracle(ou, StableParams(2.0, 0.0)).provenance == "analytic"
        assert stationary_density_oracle(ou, StableParams(1.5, 0.0)).provenance == "numeric-oracle"
        tanh_m = builtin_model("tanh_drift")
        d = stationary_density_oracle(tanh_m, StableParams(1.8, 0.0))
        assert d.provenance == "kernel-plug-in"

    @pytest.mark.parametrize("alpha, provenance", [(1.5, "numeric-oracle"), (2.0, "analytic")])
    def test_an_affine_bounded_nonlinear_takes_the_exact_law(self, alpha, provenance):
        # at lam 0 and sigma1 0 the drift is -c x and sigma is sigma0: ou_linear's
        # law with lam c and sigma sigma0, not the plug-in estimate
        affine = builtin_model("bounded_nonlinear", {"lam": 0.0, "c": 0.7, "sigma0": 0.4, "sigma1": 0.0})
        linear = builtin_model("ou_linear", {"gamma": 0.0, "lam": 0.7, "sigma": 0.4})
        noise = StableParams(alpha, 0.0)
        got, expected = stationary_density_oracle(affine, noise), stationary_density_oracle(linear, noise)
        assert got.provenance == expected.provenance == provenance
        for x in (-2.5, -0.3, 0.0, 0.8, 4.0):
            assert got.f(x) == expected.f(x) and got.f_prime(x) == expected.f_prime(x)

    def test_route_validation(self):
        ou = builtin_model("ou_linear")
        with pytest.raises(ParameterError):
            stationary_density_oracle(ou, StableParams(1.0, 0.0))
