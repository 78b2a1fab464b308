"""Scalar SDE models with smooth drift and their stationary densities.

A model packages the drift, its first two derivatives, and the diffusion
coefficient together with the global bounds the estimation theory relies on:
a Lipschitz constant for the drift and two-sided positive bounds for the
diffusion coefficient.  Registration through :func:`builtin_model` runs a
numeric invariant suite (finiteness, bound consistency, finite-difference
agreement of the declared derivatives), so a registered model can be trusted
downstream without re-checking.

The stationary density is exposed through a uniform interface with three
provenance levels: closed form where one exists, pointwise numeric
inversion of the known characteristic function for a model with an affine
drift and constant sigma, and a smoothed estimate from 64 paths of fixed
seeds, stepped in lockstep, for everything else.  The inversion sums a
convergent series near the law's centre and an asymptotic one in its tails,
and takes the inversion integrals by the package's tanh-sinh rule at the
points neither series certifies, with numpy and ``math`` alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigurationError, NumericError, ParameterError, check_number
from .kernels import _tanh_sinh
from .stable import StableParams, _tan_half

__all__ = [
    "SdeModel",
    "StationaryDensity",
    "builtin_model",
    "model_names",
    "validate_model",
    "stationary_density_oracle",
]

_VALIDATION_GRID = np.linspace(-50.0, 50.0, 10_001)
# states, scaled increments and time steps on which a declared stepper is
# checked against the exact Euler step
_STEP_STATES = (-50.0, -3.5, -1.0, -0.25, -0.0, 0.0, 0.6, 1.0, 2.5, 7.0, 1e3, 1e6)
_STEP_TERMS = (0.3, -1.7, 0.0, 2.5e-3, -4.0, 1e-9, -0.02, 11.0, -0.6, 5.0, -2e3, 0.8)
_STEP_DELTAS = (0.01, 0.37)
# A step may miss the exact x + mu(x) delta + sigma(x) term by _STEP_ULPS
# ulps of |x| + |mu(x) delta| + |sigma(x) term| plus _STEP_UNDERFLOW * delta
# * 2^-1074.  A rounding errs by at most 2^-53 of its result, or 2^-1075 below
# 2^-1022: under one ulp of that sum, so counting roundings bounds
# bounded_nonlinear's generic step by 8 ulps and its regrouped one by 7 (over
# 1.2e7 random steps the worst missed by 2.7).  But delta scales mu(x)'s own
# 2^-1075s: the second term counts them, three at most in the built-in drifts
# (bounded_nonlinear's lam x, its quotient and c x), each as a whole 2^-1074.
# It is below one ulp of any sum of at least _STEP_UNDERFLOW * delta * 2^-1021.
_STEP_ULPS = 8
_STEP_UNDERFLOW = 3
# The plug-in oracle's design: _PLUGIN_PATHS paths, from the seeds derived
# from _PLUGIN_SEED, each recording _PLUGIN_STEPS steps of _PLUGIN_DELTA
# after _PLUGIN_BURN_IN steps from 0; experiment configs record the seed and
# the path count.  A lockstep step costs about the same at any width up to
# about 200, so the 4e5 pooled states take 8250 vector steps, where one path
# took 5e5 steps on floats.
_PLUGIN_SEED = 853_090_411
_PLUGIN_PATHS = 64
_PLUGIN_STEPS = 6_250
_PLUGIN_DELTA = 0.01
_PLUGIN_BURN_IN = 2_000
# Terms of the Fourier route's tail and centre series past which they give up.
_SERIES_TERMS = 100
_CENTER_TERMS = 1000
# The inversion integrals stop at s^alpha = _CUT, where exp(-s^alpha) < 6e-19.
_CUT = 42.0


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
        ``stepper(delta, width)`` returns the model's Euler step as a block
        stepper, ``advance(x, terms, rows)``, which steps from state ``x``
        through each scaled stable increment of ``terms`` in turn, records
        the state after step ``k`` as row ``k`` of ``rows`` and returns the
        last state; the Euler engine calls it once per block of draws.
        When ``width`` is None, ``x`` is a Python float, ``terms`` a 1-d
        float64 array and ``rows`` a list the states are appended to.
        Otherwise ``x`` is a float64 vector of length ``width``, which the
        stepper does not write, and ``terms`` and ``rows`` are
        ``(steps, width)`` arrays, both the engine's scratch: the stepper
        may overwrite ``terms``, and steps that cannot raise may use the
        rows not yet written.  Steps that can raise (by calling ``mu``,
        say) write only the rows of the steps taken, since the engine
        checks the whole block when a step raises.  The float and
        vector forms must take the same steps bit for bit, so a batch of
        paths steps exactly as each path alone does, and each step must
        stay within ``_STEP_ULPS`` ulps of ``|x| + |mu(x) delta| +
        |sigma(x) term|``, plus the underflow term ``_STEP_UNDERFLOW *
        delta * 2^-1074`` for the roundings of ``mu(x)`` below 2^-1022, of
        the exact ``x + mu(x) delta + sigma(x) term`` (``term`` carries
        sigma when sigma is constant, and the step is then ``x + mu(x)
        delta + term``), the bound the generic step of
        :func:`euler_step` meets: it may regroup the step's operations, as
        long as the vector form regroups them as the float form does.  A
        vector stepper holds the model's constants, and the scratch arrays
        it writes its partial results into, as arrays of length ``width``:
        a numpy operation with a Python-float operand, or one that
        allocates its result, costs more.  None, the default, takes the
        generic step.  Of the built-in models, tanh_drift declares one, in
        the generic step's float order, and bounded_nonlinear does when its
        sigma depends on the state.
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

    ``f`` and ``f_prime`` take a float and return a float.  ``provenance``
    is one of ``"analytic"``, ``"numeric-oracle"`` (Fourier inversion of an
    exact characteristic function, evaluated at each point asked for), or
    ``"kernel-plug-in"`` (smoothed estimate from simulated paths).  The
    plug-in's ``f`` interpolates its smoothed density linearly between the
    centres of its histogram bins, an eighth of its bandwidth apart (at most
    2^16 of them), and its ``f_prime`` the central differences of that
    density likewise; both vanish outside the grid.  The other two routes
    are positive everywhere.
    """

    f: Callable
    f_prime: Callable
    provenance: str


def _float_param(params: dict, key: str, default: float) -> float:
    return check_number(f"model parameter {key!r}", params.get(key, default), ConfigurationError)


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
            def float_block(x, terms, rows):
                append = rows.append
                for term in terms.tolist():
                    x = x + neg_a * tanh(x) * dt + term
                    append(x)
                return x

            return float_block
        fromiter, multiply, add = np.fromiter, np.multiply, np.add

        def vector_block(x, terms, rows):
            for term, row in zip(terms, rows):
                drift = fromiter(map(tanh, x.tolist()), float, width)
                multiply(neg_a, drift, drift)
                multiply(drift, dt, drift)
                add(x, drift, drift)
                x = add(drift, term, row)
            return x

        return vector_block

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

    # Declared only for a state-dependent sigma: with a constant one the
    # model takes the affine scan (lam = 0) or the generic step.  The step
    # x + mu(x) delta + sigma(x) term is regrouped as
    # (1 - c delta) x + s0 term + (s1 term - lam delta x) / (1 + x^2),
    # with s0 term and s1 term formed once per block: eight array
    # operations a step.
    def stepper(delta, width):
        decay, pull = 1.0 - c * delta, lam * delta
        if width is None:
            def float_block(x, terms, rows):
                append = rows.append
                for s0_term, s1_term in zip((s0 * terms).tolist(), (s1 * terms).tolist()):
                    x = decay * x + s0_term + (s1_term - pull * x) / (1.0 + x * x)
                    append(x)
                return x

            return float_block
        decay_, pull_, one = _operands(width, decay, pull, 1.0)
        q, drift = np.empty((2, width))
        multiply, add, subtract, divide = np.multiply, np.add, np.subtract, np.divide

        # each row holds s1 term until its step has read it and writes its state
        def vector_block(x, terms, rows):
            multiply(terms, s1, rows)
            multiply(terms, s0, terms)
            for s0_term, row in zip(terms, rows):
                multiply(x, x, q)
                add(q, one, q)
                multiply(pull_, x, drift)
                subtract(row, drift, drift)
                divide(drift, q, drift)
                multiply(decay_, x, row)
                add(row, s0_term, row)
                x = add(row, drift, row)
            return x

        return vector_block

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
        stepper=None if bounds[0] == bounds[1] else stepper,
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
    """The Euler step built from ``mu`` and ``sigma``, as a block stepper
    under the contract of ``SdeModel.stepper``: ``x + mu(x) * delta + term``
    when sigma is constant (``term`` then carries sigma), else
    ``x + mu(x) * delta + sigma(x) * term``, in that float order."""
    mu, sigma = model.mu, model.sigma
    constant = model.sigma_constant
    if width is None:
        def float_block(x, terms, rows):
            append = rows.append
            for term in terms.tolist():
                x = x + mu(x) * delta + (term if constant else sigma(x) * term)
                append(x)
            return x

        return float_block

    def vector_block(x, terms, rows):
        for term, row in zip(terms, rows):
            x = np.add(x + mu(x) * delta, term if constant else sigma(x) * term, row)
        return x

    return vector_block


def euler_step(model: SdeModel, delta: float, width: int | None = None) -> Callable:
    """The model's Euler step at time step ``delta`` as a block stepper: its
    declared ``stepper`` for a float state (``width`` None) or a vector of
    ``width`` states, else the generic step from ``mu`` and ``sigma``, under
    the contract of ``SdeModel.stepper``.  A term is a scaled stable
    increment, ``delta^(1/alpha) * xi``, times sigma when sigma is
    constant."""
    if model.stepper is None:
        return _generic_step(model, delta, width)
    return model.stepper(delta, width)


def _exact_step(model: SdeModel, delta: float, x: np.ndarray, terms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Euler step from each state of ``x`` with its term, evaluated in
    long double, and ``|x| + |mu(x) delta| + |sigma(x) term|`` in double,
    whose ulp measures a step's error.  ``mu`` and ``sigma`` take the long
    double states, so the built-in models evaluate them in long double too,
    except tanh_drift's ``math.tanh``."""
    wide = np.asarray(x, dtype=np.longdouble)
    drift = np.asarray(model.mu(wide), dtype=np.longdouble) * np.longdouble(delta)
    noise = np.asarray(terms, dtype=np.longdouble)
    if not model.sigma_constant:
        noise = np.asarray(model.sigma(wide), dtype=np.longdouble) * noise
    return wide + drift + noise, (np.abs(wide) + np.abs(drift) + np.abs(noise)).astype(float)


def _missed_ulps(step, exact, size, delta: float) -> np.ndarray:
    """Ulps of ``size`` by which ``step`` misses ``exact`` (both as from
    :func:`_exact_step`) beyond ``_STEP_UNDERFLOW * delta * 2^-1074``."""
    underflow = np.longdouble(_STEP_UNDERFLOW) * np.longdouble(delta) * np.longdouble(2.0 ** -1074)
    return (np.maximum(np.abs(step - exact) - underflow, 0.0) / np.spacing(size)).astype(float)


def _check_stepper(model: SdeModel) -> None:
    """Raise unless the declared stepper, on two-step blocks from
    ``_STEP_STATES``, takes the same steps on floats as on one vector, bit
    for bit, each within the bound of ``SdeModel.stepper`` of the exact
    Euler step, and returns its last state, leaving ``x`` as it was."""
    states = np.array(_STEP_STATES)
    terms = np.array([_STEP_TERMS, _STEP_TERMS[::-1]])
    # where long double is no wider than double, the reference carries a
    # double step's rounding too
    wide = np.finfo(np.longdouble).precision > np.finfo(float).precision
    allowance = _STEP_ULPS if wide else 2 * _STEP_ULPS
    for delta in _STEP_DELTAS:
        float_block = model.stepper(delta, None)
        floats = []
        for x, pair in zip(_STEP_STATES, terms.T):
            rows: list = []
            last = float_block(x, pair.copy(), rows)
            if len(rows) != 2 or last != rows[-1]:
                raise ParameterError(
                    f"model {model.name}: stepper's float block must record each step and return its last state"
                )
            floats.append(rows)
        floats = np.array(floats).T
        x, rows = states.copy(), np.empty_like(terms)
        last = model.stepper(delta, states.size)(x, terms.copy(), rows)
        if x.tobytes() != states.tobytes():
            raise ParameterError(f"model {model.name}: stepper's vector block must not change x")
        if np.asarray(last).tobytes() != rows[-1].tobytes():
            raise ParameterError(f"model {model.name}: stepper's vector block must return its last state")
        if floats.tobytes() != rows.tobytes():
            at = int(np.flatnonzero(floats.view(np.int64) != rows.view(np.int64))[0]) % states.size
            raise ParameterError(
                f"model {model.name}: stepper's float and vector steps differ from x = {_STEP_STATES[at]}, "
                f"delta = {delta}"
            )
        for start, step, term in zip((states, rows[0]), rows, terms):
            exact, size = _exact_step(model, delta, start, term)
            missed = _missed_ulps(step, exact, size, delta)
            if not missed.max() <= allowance:
                at = int(np.argmax(~(missed <= allowance)))
                raise ParameterError(
                    f"model {model.name}: stepper departs from the Euler step at "
                    f"x = {start[at]!r}, term = {term[at]!r}, delta = {delta} "
                    f"({step[at]!r} against {float(exact[at])!r}, {missed[at]:.3g} ulps)"
                )


def _require_finite_check(model: SdeModel, label: str, deviation, tolerance) -> None:
    # a nan or infinite tolerance fails no comparison, so it would pass the model
    if not (np.isfinite(deviation).all() and np.isfinite(tolerance).all()):
        raise ParameterError(
            f"model {model.name}: the finite-difference check of {label} is not finite on the check grid"
        )


def validate_model(model: SdeModel) -> None:
    """Check a model's declared structure on a dense grid.

    Verifies finiteness of all coefficient functions, consistency of the
    diffusion bounds and the drift Lipschitz constant, agreement of the
    declared derivatives with central finite differences, and, when
    ``affine_drift`` is declared, that sigma is constant and the drift
    equals ``gamma - lam * x`` exactly on the grid, and, when ``stepper``
    is declared, that it steps a dozen states within a few ulps of the
    exact Euler step, the same on floats as on a vector.  Tolerances for
    the derivative checks are relative to the sup of the analytic derivative
    over the grid, floored at 1, since a pointwise relative comparison is
    meaningless at zeros of the derivative; the second-derivative check
    also allows, pointwise, the rounding error of its second difference.
    A check whose deviation or tolerance overflows fails.

    Raises
    ------
    ParameterError
        On any violated invariant.
    """
    x = _VALIDATION_GRID
    # an overflow here is reported below as a value that is not finite
    with np.errstate(all="ignore"):
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
    # an overflow here is reported below as a check that is not finite
    with np.errstate(all="ignore"):
        step1 = 1e-5 * np.maximum(1.0, np.abs(x))
        fd1 = (model.mu(x + step1) - model.mu(x - step1)) / (2.0 * step1)
        tol1 = 1e-6 * max(1.0, float(np.abs(mu_p).max()))
        dev1 = np.abs(fd1 - mu_p)
        step2 = 6e-4 * np.maximum(1.0, np.abs(x))
        fd2 = (model.mu(x + step2) - 2.0 * mu + model.mu(x - step2)) / (step2 * step2)
        # rounding of x +- step2 (times |mu'| <= L) and of the three drift values,
        # amplified by 1 / step2^2: for a steep drift it exceeds 1e-6 near |x| = 1
        rounding = 4.0 * np.finfo(float).eps * (np.abs(mu) + model.lipschitz_mu * (np.abs(x) + step2))
        tol2 = 1e-6 * max(1.0, float(np.abs(mu_pp).max())) + rounding / (step2 * step2)
        dev2 = np.abs(fd2 - mu_pp)
    _require_finite_check(model, "mu_prime", dev1, tol1)
    err1 = float(dev1.max())
    if err1 > tol1:
        raise ParameterError(
            f"model {model.name}: mu_prime disagrees with finite differences "
            f"(max abs deviation {err1}, tolerance {tol1})"
        )
    _require_finite_check(model, "mu_double_prime", dev2, tol2)
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


def _interpolant(grid: np.ndarray, values: np.ndarray) -> Callable:
    """The piecewise linear interpolant of ``values`` on ``grid``, zero
    outside it, as a function of one float."""
    return lambda x: float(np.interp(x, grid, values, left=0.0, right=0.0))


def _ou_margin(model: SdeModel, noise: StableParams) -> tuple[float, float]:
    gamma, lam = model.affine_drift
    if not lam > 0.0:
        raise ParameterError(f"model {model.name}: an affine drift needs lam > 0 for a stationary law, got {lam!r}")
    scale = model.sigma_bounds[0] * (1.0 / (noise.alpha * lam)) ** (1.0 / noise.alpha)
    return gamma / lam, scale


def _gaussian_density(model: SdeModel, noise: StableParams) -> StationaryDensity:
    mean, scale = _ou_margin(model, noise)
    var = 2.0 * scale * scale
    norm = 1.0 / math.sqrt(2.0 * math.pi * var)

    # x as a 0-d array, so the arithmetic runs through numpy's ufuncs
    def f(x):
        x_arr = np.asarray(x, dtype=float)
        return float(norm * np.exp(-((x_arr - mean) ** 2) / (2.0 * var)))

    def f_prime(x):
        x_arr = np.asarray(x, dtype=float)
        return float(-norm * (x_arr - mean) / var * np.exp(-((x_arr - mean) ** 2) / (2.0 * var)))

    return StationaryDensity(f=f, f_prime=f_prime, provenance="analytic")


def _tail_series(y: float, alpha: float, skew: float) -> tuple[float, float, float] | None:
    """``g(y)``, ``g'(y)`` and an error bound of both from the large-``|y|``
    expansion of the standardized stable density,
    ``g(y) ~ (1/pi) sum_k Re[(-A)^k e^(-i pi (k alpha + 1)/2)] Gamma(k alpha + 1)/k! y^(-k alpha - 1)``
    with ``A = 1 - i skew`` for ``y > 0``, and by reflection,
    ``g(y; skew) = g(-y; -skew)``, for ``y < 0``.  The series diverges for
    ``alpha > 1``; it is summed until a term falls below ``1e-14`` of the
    sum, and None is returned where the terms stop shrinking first, as they
    do from the second term on for ``|y| < 1``."""
    if abs(y) < 1.0:
        return None
    side = math.copysign(1.0, y)
    y, skew = abs(y), side * skew
    log_modulus = 0.5 * math.log1p(skew * skew)
    angle = math.atan2(skew, -1.0)
    log_y = math.log(y)
    g = g_prime = rounding = 0.0
    previous = math.inf
    for k in range(1, _SERIES_TERMS + 1):
        power = k * alpha + 1.0
        magnitude = math.exp(math.lgamma(power) - math.lgamma(k + 1.0) + k * log_modulus - power * log_y)
        if magnitude >= previous:
            return None
        term = magnitude * math.cos(k * angle - 0.5 * math.pi * power)
        g += term
        g_prime -= power / y * term
        # the cosine's argument, of about the size of power, is rounded
        rounding += 1e-15 * power * magnitude * (1.0 + power / y)
        if magnitude <= 1e-14 * abs(g):
            error = magnitude * (1.0 + power / y) + rounding
            return g / math.pi, side * g_prime / math.pi, error / math.pi
        previous = magnitude
    return None


def _center_series(y: float, alpha: float, skew: float) -> tuple[float, float, float] | None:
    """``g(y)``, ``g'(y)`` and an error bound of both from the convergent
    expansion of the standardized stable density about its centre
    (Zolotarev, 1986, section 2.4),
    ``g(y) = (1/(pi alpha)) sum_k Re[(-i y)^k A^(-(k+1)/alpha)] Gamma((k+1)/alpha)/k!``
    with ``A = 1 - i skew`` for ``y >= 0``, ``g'`` termwise, and by
    reflection, ``g(y; skew) = g(-y; -skew)``, for ``y < 0``.  It is used
    for ``|y| < 1`` only.  By Wendel's inequality the ratio of term ``k + 1``
    to term ``k`` is at most ``y (alpha |A|)^(-1/alpha) (k+1)^(1/alpha-1)``,
    which falls with ``k``, so the terms past ``k`` sum to at most a
    geometric series; the sum stops once that bound falls below ``1e-16``
    of it, and the bound, with the rounding of the terms summed, is the
    error bound returned.  None is returned where that takes more than
    ``_CENTER_TERMS`` terms, as next to ``alpha = 1`` without skew."""
    if not abs(y) < 1.0:
        return None
    side = math.copysign(1.0, y)
    y, skew = abs(y), side * skew
    log_modulus = 0.5 * math.log1p(skew * skew)
    angle = math.atan(skew)
    ratio_bound = y * math.exp(-(math.log(alpha) + log_modulus) / alpha)
    g = g_prime = rounding = 0.0
    below, y_power = 0.0, 1.0  # y^(k-1) and y^k
    for k in range(_CENTER_TERMS):
        power = (k + 1.0) / alpha
        log_coefficient = math.lgamma(power) - math.lgamma(k + 1.0) - power * log_modulus
        coefficient = math.exp(log_coefficient)
        # cos(phase - k pi/2) by the quarter turns, exact where skew = 0
        phase = power * angle
        cosine = (math.cos(phase), math.sin(phase), -math.cos(phase), -math.sin(phase))[k % 4]
        # the moduli of the terms of g and g'
        value, slope = coefficient * y_power, k * coefficient * below
        size = value + slope
        g += value * cosine
        g_prime += slope * cosine
        # the exponent, the cosine's argument and y^k are rounded
        rounding += 1e-15 * (abs(log_coefficient) + abs(phase) + k + 1.0) * size
        below, y_power = y_power, y_power * y
        if k >= 1:
            # the later terms of g and g' shrink at least by this factor each
            shrink = (k + 1.0) / k * ratio_bound * (k + 1.0) ** (1.0 / alpha - 1.0)
            rest = size * shrink / (1.0 - shrink) if shrink < 1.0 else math.inf
            if rest <= 1e-16 * abs(g):
                scale = 1.0 / (math.pi * alpha)
                return g * scale, side * g_prime * scale, (rest + rounding) * scale
    return None


def _inversion_integrals(y: float, alpha: float, skew: float) -> tuple[float, float, float]:
    """``g(y)``, ``g'(y)`` and an error bound of both from the inversion
    integrals ``g(y) = (1/pi) int_0^inf exp(-s^alpha) cos(skew s^alpha - s y) ds``
    and ``g'(y) = (1/pi) int_0^inf s exp(-s^alpha) sin(skew s^alpha - s y) ds``,
    cut at ``s_max = _CUT^(1/alpha)`` and taken on ``[0, s_max]`` by the
    tanh-sinh rule of :mod:`stabledrift.kernels`, as the real and imaginary
    parts of one integral.  Past the cut ``s^alpha >= _CUT s / s_max``, so the
    tails of both together are at most ``int (1 + s) exp(-_CUT s / s_max) ds``
    from ``s_max``, which the bound adds to the rule's."""

    def integrand(s: np.ndarray) -> np.ndarray:
        power = s ** alpha
        phase = skew * power - s * y
        return np.exp(-power) * (np.cos(phase) + 1j * s * np.sin(phase))

    s_max = _CUT ** (1.0 / alpha)
    value, error = _tanh_sinh(integrand, 0.0, s_max)
    error += math.exp(-_CUT) * s_max / _CUT * (1.0 + s_max * (1.0 + 1.0 / _CUT))
    return value.real / math.pi, value.imag / math.pi, error / math.pi


def _fourier_density(model: SdeModel, noise: StableParams) -> StationaryDensity:
    """The stationary law of a model with an affine drift ``gamma - lam * x``
    and constant sigma, a stable law of location ``gamma / lam`` and scale
    ``c``, evaluated pointwise: ``f(x) = g(y) / c`` and ``f'(x) = g'(y) /
    c^2`` at ``y = (x - m) / c``, where ``g`` is the standardized density of
    characteristic function
    ``exp(-|u|^alpha (1 - i beta sgn(u) tan(pi alpha / 2)))``.  Each point
    takes the first of the centre series (``|y| < 1``), the tail series
    (``|y| >= 1``) and the inversion integrals whose error bound is within
    ``1e-9 g(y)``, for ``f`` and ``f'`` alike; a point where none is raises
    :class:`NumericError`."""
    mean, scale = _ou_margin(model, noise)
    alpha = noise.alpha
    skew = noise.beta * _tan_half(alpha)

    def standardized(x) -> tuple[float, float]:
        x = check_number("density query point", x)
        y = (x - mean) / scale
        for rule in (_center_series, _tail_series, _inversion_integrals):
            value = rule(y, alpha, skew)
            if value is not None:
                g, g_prime, error = value
                if g > 0.0 and error <= 1e-9 * g:
                    return g, g_prime
        raise NumericError(
            f"the stationary density at x = {x!r} cannot be evaluated to its accuracy target"
        )

    return StationaryDensity(
        f=lambda x: standardized(x)[0] / scale,
        f_prime=lambda x: standardized(x)[1] / (scale * scale),
        provenance="numeric-oracle",
    )


def _plugin_sample(model: SdeModel, noise: StableParams) -> np.ndarray:
    """The plug-in oracle's pooled states: the recorded states of its
    ``_PLUGIN_PATHS`` paths, in the order of their seeds
    ``derive_replicate_seed(_PLUGIN_SEED, j)``, stepped in lockstep."""
    from .simulate import derive_replicate_seed, simulate_paths

    seeds = [derive_replicate_seed(_PLUGIN_SEED, j) for j in range(_PLUGIN_PATHS)]
    paths = simulate_paths(model, noise, 0.0, _PLUGIN_STEPS, _PLUGIN_DELTA, seeds, _PLUGIN_BURN_IN)
    return np.concatenate([path.x for path in paths])


def _plugin_density(model: SdeModel, noise: StableParams) -> StationaryDensity:
    """A smoothed density estimate from the pooled states of
    :func:`_plugin_sample`, a fixed design of 64 paths of 6250 steps of 0.01
    after a 2000-step burn-in, from fixed seeds, so the oracle is
    reproducible.  The histogram's bins are an eighth of the bandwidth wide,
    unless its range would then take more than 2^16 of them."""
    data = _plugin_sample(model, noise)
    q_lo, q1, q3, q_hi = np.quantile(data, [0.0005, 0.25, 0.75, 0.9995])
    iqr = q3 - q1
    if iqr <= 0.0:
        raise NumericError("simulated trajectory is too concentrated for a density estimate")
    # Bandwidth from the effective sample size of the pooled recorded time:
    # consecutive observations are dependent over roughly one relaxation
    # time of the drift.
    relaxation = 1.0 / max(model.lipschitz_mu, 1e-6)
    n_eff = max(200.0, _PLUGIN_PATHS * _PLUGIN_STEPS * _PLUGIN_DELTA / (2.0 * relaxation))
    bandwidth = 0.9 * (iqr / 1.34) * n_eff ** (-0.2)
    lo = q_lo - 3.0 * bandwidth
    hi = q_hi + 3.0 * bandwidth
    # Bins from the bandwidth, so the kernel spans many of them however far
    # the tails stretch the range.
    n_bins = min(2 ** 16, math.ceil(8.0 * (hi - lo) / bandwidth))
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
    density = raw / total
    return StationaryDensity(
        f=_interpolant(centers, density),
        f_prime=_interpolant(centers, np.gradient(density, centers)),
        provenance="kernel-plug-in",
    )


def stationary_density_oracle(model: SdeModel, noise: StableParams) -> StationaryDensity:
    """Stationary density of a model under the given noise, on the one
    route the model and ``alpha`` admit.

    A model with an affine drift and constant sigma (its ``affine_drift``,
    which :func:`validate_model` allows only with a constant sigma) has the
    Gaussian closed form at ``alpha == 2`` and a stable law, evaluated by
    Fourier inversion, below it; every other model gets the simulated
    plug-in estimate.  ``noise``'s type guarantees ``alpha > 1``, which that
    stable law needs.  The Fourier route builds nothing up front: its ``f``
    and ``f_prime`` evaluate the density at each point they are called with,
    by series wherever they converge and by the tanh-sinh rule elsewhere,
    with numpy and ``math`` alone, to within 1e-9 of the density, and raise
    :class:`NumericError` naming a point where no rule reaches that.  The plug-in route
    simulates 64 paths from fixed seeds in one lockstep batch, so it is
    reproducible, and is piecewise linear on its grid and zero outside it.
    """
    if not isinstance(noise, StableParams):
        raise ParameterError("noise must be a StableParams instance")
    if model.affine_drift is None:
        return _plugin_density(model, noise)
    if noise.alpha == 2.0:
        return _gaussian_density(model, noise)
    return _fourier_density(model, noise)
