"""Scalar SDE models with smooth drift and their stationary densities.

A model packages the drift, its first two derivatives, and the diffusion
coefficient together with the global bounds the estimation theory relies on:
a Lipschitz constant for the drift and two-sided positive bounds for the
diffusion coefficient.  Registration through :func:`builtin_model` runs a
numeric invariant suite (finiteness, bound consistency, finite-difference
agreement of the declared derivatives), so a registered model can be trusted
downstream without re-checking.

The stationary density is exposed through a uniform interface with three
provenance levels: closed form where one exists, numeric Fourier inversion
of the known characteristic function for the linear model, and a smoothed
long-path estimate for everything else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import ConfigurationError, NumericError, ParameterError
from .stable import StableParams, _tan_half

__all__ = [
    "SdeModel",
    "StationaryDensity",
    "builtin_model",
    "model_names",
    "stationary_density_oracle",
]

_VALIDATION_GRID = np.linspace(-50.0, 50.0, 10_001)
# states, scaled increments and time steps on which a declared stepper must
# take the generic step
_STEP_STATES = (-50.0, -3.5, -1.0, -0.25, -0.0, 0.0, 0.6, 1.0, 2.5, 7.0, 1e3, 1e6)
_STEP_TERMS = (0.3, -1.7, 0.0, 2.5e-3, -4.0, 1e-9, -0.02, 11.0, -0.6, 5.0, -2e3, 0.8)
_STEP_DELTAS = (0.01, 0.37)
# Seed of the plug-in oracle's path; experiment configs record it.
_PLUGIN_SEED = 853_090_411


@dataclass(frozen=True)
class SdeModel:
    """Drift and diffusion data of ``dX_t = mu(X_t) dt + sigma(X_t-) dZ_t``.

    Attributes
    ----------
    name : str
        Registry name.
    params : dict
        Parameter values the instance was built from; sufficient to rebuild
        it via :func:`builtin_model` (used by worker processes).
    mu, mu_prime, mu_double_prime : callable
        Drift and its first two derivatives.  Each takes a Python float or
        a float64 ndarray and returns a float for a float and an array of
        the argument's shape for an array.  ``mu`` and ``sigma`` apply the
        same IEEE operations to either, so a batch of paths steps exactly
        as each path alone does.
    sigma : callable
        Diffusion coefficient, same calling convention.
    sigma_bounds : tuple of float
        Global bounds ``0 < lo <= sigma(x) <= hi``.
    lipschitz_mu : float
        Global bound on ``|mu'|``.
    sigma_constant : bool
        Derived, not a field: True when the two ``sigma_bounds`` coincide.
    affine_drift : tuple of float or None
        ``(gamma, lam)`` when the drift is exactly ``gamma - lam * x`` and
        sigma is constant; the Euler engine then steps each block of draws
        as a linear recurrence instead of one step at a time.  None, the
        default, keeps the generic step for any drift.
    stepper : callable or None
        ``stepper(delta, width)`` returns the model's whole Euler step from
        state ``x`` with the scaled stable increment ``term``.  When
        ``width`` is None it is ``step(x, term)`` on Python floats and
        returns the next state.  Otherwise it is ``step(x, term, out)`` on
        float64 vectors of length ``width``: it writes the next state into
        ``out``, which overlaps neither ``x`` nor ``term``, returns ``out``
        and leaves ``x`` and ``term`` as they were.  Either must equal the
        generic step of :func:`euler_step` bit for bit,
        ``x + mu(x) * delta + term`` when sigma is constant (``term`` then
        carries sigma) and ``x + mu(x) * delta + sigma(x) * term``
        otherwise, so it may share work between drift and diffusion but not
        reorder any operation.  A vector step holds the model's constants,
        and the scratch arrays it writes its partial results into, as
        arrays of length ``width``: a numpy operation with a Python-float
        operand, or one that allocates its result, costs more.  None, the
        default, takes the generic step.
    """

    name: str
    params: dict
    mu: Callable
    mu_prime: Callable
    mu_double_prime: Callable
    sigma: Callable
    sigma_bounds: tuple[float, float]
    lipschitz_mu: float
    affine_drift: tuple[float, float] | None = None
    stepper: Callable | None = None

    @property
    def sigma_constant(self) -> bool:
        return self.sigma_bounds[0] == self.sigma_bounds[1]


@dataclass(frozen=True)
class StationaryDensity:
    """Stationary marginal density of a model, with provenance.

    ``provenance`` is one of ``"analytic"``, ``"numeric-oracle"`` (Fourier
    inversion of an exact characteristic function), or ``"kernel-plug-in"``
    (smoothed long-trajectory estimate).  ``grid`` is the abscissa grid the
    numeric routes were built on, or None for closed forms; ``f`` vanishes
    outside it for the numeric routes.
    """

    f: Callable
    f_prime: Callable
    provenance: str
    grid: np.ndarray | None = None


def _float_param(params: dict, key: str, default: float) -> float:
    value = params.get(key, default)
    try:
        value = float(value)
    except (TypeError, ValueError):
        raise ConfigurationError(f"model parameter {key!r} must be a number, got {value!r}") from None
    if not math.isfinite(value):
        raise ConfigurationError(f"model parameter {key!r} must be finite, got {value}")
    return value


def _reject_unknown(params: dict, allowed: tuple[str, ...]) -> None:
    unknown = sorted(set(params) - set(allowed))
    if unknown:
        raise ConfigurationError(
            f"unknown model parameters {unknown}; allowed: {sorted(allowed)}"
        )


def _constant(value: float) -> Callable:
    """The coefficient ``value`` everywhere, in the argument's shape."""
    return lambda x: np.full(np.shape(x), value)[()]


def _operands(width: int | None, *values: float) -> tuple:
    """``values`` as a stepper's operands: the floats themselves for a float
    state, arrays of length ``width`` for a vector state."""
    if width is None:
        return values
    return tuple(np.full(width, value) for value in values)


def _exact_tanh(x) -> np.ndarray:
    """``math.tanh`` of every entry of ``x``, in its shape.  np.tanh is not
    math.tanh to the last bit, and a batch of paths must step exactly as
    each path alone does."""
    x = np.asarray(x, dtype=float)
    return np.fromiter(map(math.tanh, x.ravel().tolist()), float, x.size).reshape(x.shape)


def _make_ou_linear(params: dict) -> SdeModel:
    _reject_unknown(params, ("gamma", "lam", "sigma"))
    gamma = _float_param(params, "gamma", 0.0)
    lam = _float_param(params, "lam", 1.0)
    sigma0 = _float_param(params, "sigma", 1.0)
    if lam <= 0.0:
        raise ParameterError(f"ou_linear requires lam > 0 for ergodicity, got {lam}")
    if sigma0 <= 0.0:
        raise ParameterError(f"ou_linear requires sigma > 0, got {sigma0}")

    def mu(x):
        return gamma - lam * x

    return SdeModel(
        name="ou_linear",
        params={"gamma": gamma, "lam": lam, "sigma": sigma0},
        mu=mu,
        mu_prime=_constant(-lam),
        mu_double_prime=_constant(0.0),
        sigma=_constant(sigma0),
        sigma_bounds=(sigma0, sigma0),
        lipschitz_mu=lam,
        affine_drift=(gamma, lam),
    )


def _make_tanh_drift(params: dict) -> SdeModel:
    _reject_unknown(params, ("a", "sigma"))
    a = _float_param(params, "a", 1.0)
    sigma0 = _float_param(params, "sigma", 1.0)
    if a <= 0.0:
        raise ParameterError(f"tanh_drift requires a > 0 for ergodicity, got {a}")
    if sigma0 <= 0.0:
        raise ParameterError(f"tanh_drift requires sigma > 0, got {sigma0}")

    def mu(x):
        if isinstance(x, float):
            return -a * math.tanh(x)
        return -a * _exact_tanh(x)

    # math.tanh here too: np.tanh would move the limit constants of tanh runs
    def mu_prime(x):
        if isinstance(x, float):
            th = math.tanh(x)
            return -a * (1.0 - th * th)
        th = np.tanh(np.asarray(x, dtype=float))
        return -a * (1.0 - th * th)

    def mu_double_prime(x):
        if isinstance(x, float):
            th = math.tanh(x)
            return 2.0 * a * th * (1.0 - th * th)
        th = np.tanh(np.asarray(x, dtype=float))
        return 2.0 * a * th * (1.0 - th * th)

    def stepper(delta, width):
        tanh = math.tanh
        neg_a, dt = _operands(width, -a, delta)
        if width is None:
            return lambda x, term: x + neg_a * tanh(x) * dt + term

        def step(x, term, out):
            drift = np.fromiter(map(tanh, x.tolist()), float, width)
            np.multiply(neg_a, drift, drift)
            np.multiply(drift, dt, drift)
            np.add(x, drift, drift)
            return np.add(drift, term, out)

        return step

    return SdeModel(
        name="tanh_drift",
        params={"a": a, "sigma": sigma0},
        mu=mu,
        mu_prime=mu_prime,
        mu_double_prime=mu_double_prime,
        sigma=_constant(sigma0),
        sigma_bounds=(sigma0, sigma0),
        lipschitz_mu=a,
        stepper=stepper,
    )


def _make_bounded_nonlinear(params: dict) -> SdeModel:
    _reject_unknown(params, ("lam", "c", "sigma0", "sigma1"))
    lam = _float_param(params, "lam", 1.0)
    c = _float_param(params, "c", 0.5)
    s0 = _float_param(params, "sigma0", 0.5)
    s1 = _float_param(params, "sigma1", 0.5)
    if lam < 0.0:
        raise ParameterError(f"bounded_nonlinear requires lam >= 0, got {lam}")
    if c <= 0.0:
        raise ParameterError(f"bounded_nonlinear requires c > 0 for ergodicity, got {c}")
    if s0 <= 0.0:
        raise ParameterError(f"bounded_nonlinear requires sigma0 > 0, got {s0}")
    if s1 < 0.0:
        raise ParameterError(f"bounded_nonlinear requires sigma1 >= 0, got {s1}")

    def mu(x):
        return -lam * x / (1.0 + x * x) - c * x

    def mu_prime(x):
        q = 1.0 + x * x
        return -lam * (1.0 - x * x) / (q * q) - c

    def mu_double_prime(x):
        q = 1.0 + x * x
        return 2.0 * lam * x * (3.0 - x * x) / (q * q * q)

    def sigma(x):
        return s0 + s1 / (1.0 + x * x)

    bounds = (s0, s0 + s1)

    # q = 1 + x^2 serves drift and diffusion alike
    def stepper(delta, width):
        neg_lam, one, c_, s0_, s1_, dt = _operands(width, -lam, 1.0, c, s0, s1, delta)
        constant = bounds[0] == bounds[1]
        if width is None:
            if constant:
                return lambda x, term: x + (neg_lam * x / (one + x * x) - c_ * x) * dt + term

            def float_step(x, term):
                q = one + x * x
                return x + (neg_lam * x / q - c_ * x) * dt + (s0_ + s1_ / q) * term

            return float_step
        q, drift = np.empty((2, width))

        # x + (neg_lam * x / q - c_ * x) * dt, then + (s0_ + s1_ / q) * term,
        # or + term with a constant sigma; out holds c_ * x meanwhile
        def step(x, term, out):
            np.multiply(x, x, q)
            np.add(one, q, q)
            np.multiply(neg_lam, x, drift)
            np.divide(drift, q, drift)
            np.subtract(drift, np.multiply(c_, x, out), drift)
            np.multiply(drift, dt, drift)
            np.add(x, drift, drift)
            if constant:
                return np.add(drift, term, out)
            np.divide(s1_, q, q)
            np.add(s0_, q, q)
            np.multiply(q, term, q)
            return np.add(drift, q, out)

        return step

    return SdeModel(
        name="bounded_nonlinear",
        params={"lam": lam, "c": c, "sigma0": s0, "sigma1": s1},
        mu=mu,
        mu_prime=mu_prime,
        mu_double_prime=mu_double_prime,
        sigma=sigma,
        sigma_bounds=bounds,
        lipschitz_mu=lam + c,
        # with lam = 0 the drift is -c * x: the same value, up to the sign of zero
        affine_drift=(0.0, c) if lam == 0.0 and s1 == 0.0 else None,
        stepper=stepper,
    )


_FACTORIES = {
    "ou_linear": _make_ou_linear,
    "tanh_drift": _make_tanh_drift,
    "bounded_nonlinear": _make_bounded_nonlinear,
}


def model_names() -> tuple[str, ...]:
    """Names accepted by :func:`builtin_model`, in registry order."""
    return tuple(_FACTORIES)


def _generic_step(model: SdeModel, delta: float, width: int | None = None) -> Callable:
    """The Euler step built from ``mu`` and ``sigma``, under the contract of
    ``SdeModel.stepper``: ``step(x, term)`` on floats when ``width`` is
    None, ``step(x, term, out)`` on vectors otherwise.  It is the reference
    a declared stepper must equal."""
    mu = model.mu
    if model.sigma_constant:
        if width is None:
            return lambda x, term: x + mu(x) * delta + term
        return lambda x, term, out: np.add(x + mu(x) * delta, term, out)
    sigma = model.sigma
    if width is None:
        return lambda x, term: x + mu(x) * delta + sigma(x) * term
    return lambda x, term, out: np.add(x + mu(x) * delta, sigma(x) * term, out)


def euler_step(model: SdeModel, delta: float, width: int | None = None) -> Callable:
    """The model's Euler step at time step ``delta``: its declared
    ``stepper`` for a float state (``width`` None) or a vector of ``width``
    states, else the generic step from ``mu`` and ``sigma``, under the
    contract of ``SdeModel.stepper``.  ``term`` is the scaled stable
    increment, ``delta^(1/alpha) * xi``, times sigma when sigma is
    constant."""
    if model.stepper is None:
        return _generic_step(model, delta, width)
    return model.stepper(delta, width)


def _check_stepper(model: SdeModel) -> None:
    """Raise unless the declared stepper takes the generic step bit for bit
    on ``_STEP_STATES``, both on floats and on one vector, and its vector
    step writes into and returns ``out`` and leaves ``x`` and ``term`` as
    they were."""
    states = np.array(_STEP_STATES)
    terms = np.array(_STEP_TERMS)
    for delta in _STEP_DELTAS:
        expected = _generic_step(model, delta)(states, terms)
        step = model.stepper(delta, None)
        floats = np.array([step(x, term) for x, term in zip(_STEP_STATES, _STEP_TERMS)])
        x, term, out = states.copy(), terms.copy(), np.empty_like(states)
        stepped = model.stepper(delta, states.size)(x, term, out)
        if stepped is not out:
            raise ParameterError(f"model {model.name}: stepper's vector step must return its out array")
        if x.tobytes() != states.tobytes() or term.tobytes() != terms.tobytes():
            raise ParameterError(f"model {model.name}: stepper's vector step must not change x or term")
        for got in (floats, stepped):
            if got.tobytes() != expected.tobytes():
                at = int(np.flatnonzero(got.view(np.int64) != expected.view(np.int64))[0])
                raise ParameterError(
                    f"model {model.name}: stepper departs from the generic Euler step at "
                    f"x = {_STEP_STATES[at]}, term = {_STEP_TERMS[at]}, delta = {delta} "
                    f"({got[at]!r} against {expected[at]!r})"
                )


def validate_model(model: SdeModel) -> None:
    """Check a model's declared structure on a dense grid.

    Verifies finiteness of all coefficient functions, consistency of the
    diffusion bounds and the drift Lipschitz constant, agreement of the
    declared derivatives with central finite differences, and, when
    ``affine_drift`` is declared, that sigma is constant and the drift
    equals ``gamma - lam * x`` exactly on the grid, and, when ``stepper``
    is declared, that it takes the generic Euler step bit for bit on a
    dozen states, on floats and on a vector.  Tolerances for
    the derivative checks are relative to the sup of the analytic derivative
    over the grid, floored at 1, since a pointwise relative comparison is
    meaningless at zeros of the derivative; the second-derivative check
    also allows, pointwise, the rounding error of its second difference.

    Raises
    ------
    ParameterError
        On any violated invariant.
    """
    x = _VALIDATION_GRID
    mu = model.mu(x)
    mu_p = model.mu_prime(x)
    mu_pp = model.mu_double_prime(x)
    sig = model.sigma(x)
    for label, values in (("mu", mu), ("mu_prime", mu_p), ("mu_double_prime", mu_pp), ("sigma", sig)):
        if not np.isfinite(values).all():
            raise ParameterError(f"model {model.name}: {label} is not finite on the check grid")
    lo, hi = model.sigma_bounds
    if not (0.0 < lo <= hi):
        raise ParameterError(f"model {model.name}: sigma_bounds must satisfy 0 < lo <= hi, got {model.sigma_bounds}")
    if sig.min() < lo - 1e-12 or sig.max() > hi + 1e-12:
        raise ParameterError(
            f"model {model.name}: sigma leaves its declared bounds "
            f"[{lo}, {hi}] on the check grid (range [{sig.min()}, {sig.max()}])"
        )
    if np.abs(mu_p).max() > model.lipschitz_mu * (1.0 + 1e-9) + 1e-12:
        raise ParameterError(
            f"model {model.name}: |mu'| exceeds the declared Lipschitz constant "
            f"{model.lipschitz_mu} (observed {np.abs(mu_p).max()})"
        )
    if model.affine_drift is not None:
        gamma, lam = model.affine_drift
        if not model.sigma_constant:
            raise ParameterError(f"model {model.name}: affine_drift requires a constant sigma")
        if not np.array_equal(mu, gamma - lam * x):
            raise ParameterError(
                f"model {model.name}: mu is not gamma - lam * x with the declared "
                f"affine_drift {model.affine_drift} on the check grid"
            )
    if model.stepper is not None:
        _check_stepper(model)
    step1 = 1e-5 * np.maximum(1.0, np.abs(x))
    fd1 = (model.mu(x + step1) - model.mu(x - step1)) / (2.0 * step1)
    tol1 = 1e-6 * max(1.0, float(np.abs(mu_p).max()))
    err1 = float(np.abs(fd1 - mu_p).max())
    if err1 > tol1:
        raise ParameterError(
            f"model {model.name}: mu_prime disagrees with finite differences "
            f"(max abs deviation {err1}, tolerance {tol1})"
        )
    step2 = 6e-4 * np.maximum(1.0, np.abs(x))
    fd2 = (model.mu(x + step2) - 2.0 * mu + model.mu(x - step2)) / (step2 * step2)
    # rounding of x +- step2 (times |mu'| <= L) and of the three drift values,
    # amplified by 1 / step2^2: for a steep drift it exceeds 1e-6 near |x| = 1
    rounding = 4.0 * np.finfo(float).eps * (np.abs(mu) + model.lipschitz_mu * (np.abs(x) + step2))
    tol2 = 1e-6 * max(1.0, float(np.abs(mu_pp).max())) + rounding / (step2 * step2)
    dev2 = np.abs(fd2 - mu_pp)
    worst = int(np.argmax(dev2 - tol2))
    if dev2[worst] > tol2[worst]:
        raise ParameterError(
            f"model {model.name}: mu_double_prime disagrees with finite differences "
            f"at x = {x[worst]} (abs deviation {dev2[worst]}, tolerance {tol2[worst]})"
        )


def builtin_model(name: str, params: dict | None = None) -> SdeModel:
    """Build and validate a registered model.

    Parameters
    ----------
    name : str
        One of ``ou_linear`` (drift ``gamma - lam * x``), ``tanh_drift``
        (drift ``-a * tanh(x)``), or ``bounded_nonlinear`` (drift
        ``-lam * x / (1 + x^2) - c * x`` with state-dependent sigma).
    params : dict, optional
        Parameter overrides; unknown keys are rejected.

    Returns
    -------
    SdeModel
        A model that has passed :func:`validate_model`.
    """
    try:
        factory = _FACTORIES[name]
    except KeyError:
        known = ", ".join(_FACTORIES)
        raise ConfigurationError(f"unknown model {name!r}; available: {known}") from None
    model = factory(dict(params or {}))
    validate_model(model)
    return model


def _masked_spline(spline: CubicSpline, lo: float, hi: float, clip_nonneg: bool) -> Callable:
    def evaluate(x):
        x_arr = np.asarray(x, dtype=float)
        scalar = x_arr.ndim == 0
        x_arr = np.atleast_1d(x_arr)
        inside = (x_arr >= lo) & (x_arr <= hi)
        out = np.zeros_like(x_arr)
        if inside.any():
            vals = spline(x_arr[inside])
            if clip_nonneg:
                vals = np.maximum(vals, 0.0)
            out[inside] = vals
        if scalar:
            return float(out[0])
        return out

    return evaluate


def _ou_margin(model: SdeModel, noise: StableParams) -> tuple[float, float]:
    lam = model.params["lam"]
    gamma = model.params["gamma"]
    sigma0 = model.params["sigma"]
    scale = sigma0 * (1.0 / (noise.alpha * lam)) ** (1.0 / noise.alpha)
    return gamma / lam, scale


def _gaussian_density(model: SdeModel, noise: StableParams) -> StationaryDensity:
    mean, scale = _ou_margin(model, noise)
    var = 2.0 * scale * scale
    norm = 1.0 / math.sqrt(2.0 * math.pi * var)

    def f(x):
        x_arr = np.asarray(x, dtype=float)
        out = norm * np.exp(-((x_arr - mean) ** 2) / (2.0 * var))
        return float(out) if out.ndim == 0 else out

    def f_prime(x):
        x_arr = np.asarray(x, dtype=float)
        out = -norm * (x_arr - mean) / var * np.exp(-((x_arr - mean) ** 2) / (2.0 * var))
        return float(out) if out.ndim == 0 else out

    return StationaryDensity(f=f, f_prime=f_prime, provenance="analytic", grid=None)


def _fourier_density(model: SdeModel, noise: StableParams) -> StationaryDensity:
    mean, scale = _ou_margin(model, noise)
    alpha, beta = noise.alpha, noise.beta
    n_grid = 2 ** 18
    dy = min(0.02, scale / 20.0)
    du = 2.0 * math.pi / (n_grid * dy)
    # Each inversion array is formed in place where it can be and dropped
    # after its last use, so that only y and the clipped density are alive
    # while the spline builds; the operations and operands are unchanged.
    j = np.arange(n_grid)
    u = -0.5 * n_grid * du + j * du
    t = _tan_half(alpha)
    cu = scale * np.abs(u)
    cu **= alpha
    np.negative(cu, out=cu)
    phi = 1j * beta * np.sign(u)
    del u
    phi *= t
    np.subtract(1.0, phi, out=phi)
    np.multiply(cu, phi, out=phi)
    del cu
    np.exp(phi, out=phi)
    y0 = -0.5 * n_grid * dy
    y = y0 + np.arange(n_grid) * dy
    # Discretized inversion f(y) = (1/2pi) int exp(-i u y) phi(u) du as an FFT
    # with the frequency offset folded into pre- and post-phase factors.
    pre = -1j * j
    del j
    pre *= du
    pre *= y0
    np.exp(pre, out=pre)
    np.multiply(phi, pre, out=phi)
    del pre
    values = np.fft.fft(phi)
    del phi
    post = 1j * (0.5 * n_grid * du) * y
    np.exp(post, out=post)
    np.multiply(du / (2.0 * math.pi), post, out=post)
    np.multiply(post, values, out=values)
    del post
    real = values.real
    imag_residual = float(np.abs(values.imag).max())
    peak = float(real.max())
    if peak <= 0.0 or imag_residual > 1e-6 * peak:
        raise NumericError(
            f"Fourier inversion left an imaginary residual of {imag_residual} "
            f"against a density peak of {peak}"
        )
    if real.min() < -1e-7 * peak:
        raise NumericError(
            f"Fourier inversion produced negative density values down to {real.min()}"
        )
    real = np.maximum(real, 0.0)
    del values
    total = float(np.trapezoid(real, dx=dy))
    if abs(total - 1.0) > 1e-4:
        raise NumericError(
            f"inverted density integrates to {total}, outside the 1e-4 tolerance"
        )
    spline = CubicSpline(y + mean, real)
    lo, hi = y[0] + mean, y[-1] + mean
    return StationaryDensity(
        f=_masked_spline(spline, lo, hi, clip_nonneg=True),
        f_prime=_masked_spline(spline.derivative(), lo, hi, clip_nonneg=False),
        provenance="numeric-oracle",
        grid=y + mean,
    )


def _plugin_density(model: SdeModel, noise: StableParams, seed: int) -> StationaryDensity:
    from .simulate import simulate_path

    path = simulate_path(model, noise, x0=0.0, n=400_000, delta=0.01, seed=seed, burn_in=100_000)
    data = path.x
    q_lo, q1, q3, q_hi = np.quantile(data, [0.0005, 0.25, 0.75, 0.9995])
    iqr = q3 - q1
    if iqr <= 0.0:
        raise NumericError("simulated trajectory is too concentrated for a density estimate")
    # Bandwidth from the effective sample size: consecutive observations are
    # dependent over roughly one relaxation time of the drift.
    relaxation = 1.0 / max(model.lipschitz_mu, 1e-6)
    n_eff = max(200.0, path.n * path.delta / (2.0 * relaxation))
    bandwidth = 0.9 * (iqr / 1.34) * n_eff ** (-0.2)
    lo = q_lo - 3.0 * bandwidth
    hi = q_hi + 3.0 * bandwidth
    n_bins = 4096
    counts, edges = np.histogram(data, bins=n_bins, range=(lo, hi))
    bin_width = (hi - lo) / n_bins
    centers = 0.5 * (edges[:-1] + edges[1:])
    taps = int(math.ceil(bandwidth / bin_width))
    offsets = np.arange(-taps, taps + 1) * bin_width / bandwidth
    weights = 0.75 * np.maximum(0.0, 1.0 - offsets * offsets)
    raw = np.convolve(counts, weights, mode="same") / (data.size * bandwidth)
    total = float(np.trapezoid(raw, centers))
    if not (0.9 < total < 1.1):
        raise NumericError(
            f"plug-in density mass {total} is too far from 1; trajectory may not be stationary"
        )
    spline = CubicSpline(centers, raw / total)
    return StationaryDensity(
        f=_masked_spline(spline, float(centers[0]), float(centers[-1]), clip_nonneg=True),
        f_prime=_masked_spline(spline.derivative(), float(centers[0]), float(centers[-1]), clip_nonneg=False),
        provenance="kernel-plug-in",
        grid=centers,
    )


def stationary_density_oracle(
    model: SdeModel,
    noise: StableParams,
    method: str = "auto",
    *,
    seed: int = _PLUGIN_SEED,
) -> StationaryDensity:
    """Stationary density of a model under the given noise.

    Parameters
    ----------
    model : SdeModel
    noise : StableParams
        Must have ``alpha > 1``; heavier tails have no stationary mean
        structure for the linear model's Fourier route and are outside the
        estimation range anyway.
    method : str
        ``"auto"`` picks the best available route: closed-form Gaussian for
        the linear model at ``alpha == 2``, Fourier inversion for the linear
        model otherwise, long-trajectory plug-in for the rest.  ``"fourier"``
        and ``"simulation"`` force a route; ``"analytic"`` forces the
        Gaussian closed form.
    seed : int
        Seeds the simulation route only, a fixed design of 4e5 steps of
        0.01 after a 1e5-step burn-in.  The default is a fixed constant so
        the plug-in oracle is reproducible.
    """
    if not isinstance(noise, StableParams):
        raise ParameterError("noise must be a StableParams instance")
    if noise.alpha <= 1.0:
        raise ConfigurationError(
            f"stationary density oracle requires alpha > 1, got {noise.alpha}"
        )
    linear = model.name == "ou_linear" and model.sigma_constant
    if method == "auto":
        if linear and noise.alpha == 2.0:
            method = "analytic"
        elif linear:
            method = "fourier"
        else:
            method = "simulation"
    if method == "analytic":
        if not (linear and noise.alpha == 2.0):
            raise ConfigurationError(
                "analytic stationary density requires the linear model at alpha = 2"
            )
        return _gaussian_density(model, noise)
    if method == "fourier":
        if not linear:
            raise ConfigurationError(
                "Fourier inversion requires the linear model with constant sigma; "
                f"got {model.name}"
            )
        return _fourier_density(model, noise)
    if method == "simulation":
        return _plugin_density(model, noise, seed)
    raise ConfigurationError(
        f"unknown density method {method!r}; expected auto, analytic, fourier, or simulation"
    )
