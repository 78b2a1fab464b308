"""Compactly supported smoothing kernels and the constants they feed into
the asymptotic theory of the drift estimators.

Each kernel carries closed-form moments ``K_k = int u^k K(u) du`` for
``k = 1, 2, 3`` alongside its evaluator.  The two fractional integrals at the
bottom of the module are the only quantities that require quadrature: both
raise the kernel to a non-integer power ``alpha``, which is how the stable
noise index enters the limit constants.  They are taken by the tanh-sinh
rule (Takahasi and Mori, 1974) on the pieces between the integrand's kinks,
whose endpoint singularities it absorbs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigurationError, NumericError, ParameterError, check_number

__all__ = [
    "Kernel",
    "builtin_kernel",
    "kernel_names",
    "lambda_fractional_integral",
    "lambda_weight_changes_sign",
    "nw_fractional_integral",
]


@dataclass(frozen=True)
class Kernel:
    """A nonnegative kernel with unit mass and compact support.

    Attributes
    ----------
    name : str
        Registry name.
    evaluate : callable
        Vectorized evaluator, zero outside ``support``.
        :func:`~stabledrift.estimate.kernel_sums` relies on this: it
        evaluates the kernel only at offsets inside ``support``.
    support : tuple of float
        Closed interval outside which the kernel vanishes.
    k1, k2, k3 : float
        First three raw moments ``int u^k K(u) du``.  A symmetric kernel has
        ``k1 == k3 == 0``.
    peak : float
        Maximum kernel value, used for degeneracy thresholds.
    """

    name: str
    evaluate: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    support: tuple[float, float]
    k1: float
    k2: float
    k3: float
    peak: float


def _epanechnikov(u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    return 0.75 * np.maximum(0.0, 1.0 - u * u)


def _triangular(u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    return np.maximum(0.0, 1.0 - np.abs(u))


def _uniform_sym(u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    return np.where((u >= -1.0) & (u <= 1.0), 0.5, 0.0)


def _uniform_right(u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    return np.where((u >= 0.0) & (u <= 1.0), 1.0, 0.0)


_BUILTINS: dict[str, Kernel] = {
    "epanechnikov": Kernel(
        name="epanechnikov",
        evaluate=_epanechnikov,
        support=(-1.0, 1.0),
        k1=0.0,
        k2=1.0 / 5.0,
        k3=0.0,
        peak=0.75,
    ),
    "triangular": Kernel(
        name="triangular",
        evaluate=_triangular,
        support=(-1.0, 1.0),
        k1=0.0,
        k2=1.0 / 6.0,
        k3=0.0,
        peak=1.0,
    ),
    "uniform_sym": Kernel(
        name="uniform_sym",
        evaluate=_uniform_sym,
        support=(-1.0, 1.0),
        k1=0.0,
        k2=1.0 / 3.0,
        k3=0.0,
        peak=0.5,
    ),
    "uniform_right": Kernel(
        name="uniform_right",
        evaluate=_uniform_right,
        support=(0.0, 1.0),
        k1=0.5,
        k2=1.0 / 3.0,
        k3=0.25,
        peak=1.0,
    ),
}


def kernel_names() -> tuple[str, ...]:
    """Names accepted by :func:`builtin_kernel`, in registry order."""
    return tuple(_BUILTINS)


def builtin_kernel(name: str) -> Kernel:
    """Look up a built-in kernel by name.

    Raises
    ------
    ConfigurationError
        If the name is not registered.
    """
    try:
        return _BUILTINS[name]
    except KeyError:
        known = ", ".join(_BUILTINS)
        raise ConfigurationError(f"unknown kernel {name!r}; available: {known}") from None


def _check_alpha_power(alpha: float) -> None:
    if not (1.0 <= check_number("alpha", alpha) <= 2.0):
        raise ParameterError(f"alpha must lie in [1, 2], got {alpha}")


# Tanh-sinh nodes span t in [-_NODE_SPAN, _NODE_SPAN]: past it every node
# rounds onto an endpoint and every weight is below 1e-20 of the interval.
_NODE_SPAN = 4.0
# The finest step is 2^-_LEVELS; two levels agree long before it.
_LEVELS = 10


def _tanh_sinh(f: Callable[[np.ndarray], np.ndarray], a: float, b: float) -> tuple[float, float]:
    """``int_a^b f`` by the tanh-sinh rule, and the change of the last
    halving of its step: ``u = c + r tanh((pi/2) sinh t)`` maps the line onto
    ``(a, b)``, and the trapezoidal sum in ``t`` with step ``2^-level`` takes
    the new nodes of each level only, until two levels agree to ``1e-14``."""
    centre, radius = 0.5 * (a + b), 0.5 * (b - a)

    def weighted_sum(t: np.ndarray) -> float:
        s = 0.5 * math.pi * np.sinh(t)
        u = np.clip(centre + radius * np.tanh(s), a, b)
        weights = radius * 0.5 * math.pi * np.cosh(t) / np.cosh(s) ** 2
        return float(np.dot(f(u), weights))

    total = weighted_sum(np.arange(-_NODE_SPAN, _NODE_SPAN + 1.0))
    estimate, change = total, math.inf
    for level in range(1, _LEVELS + 1):
        step = 2.0 ** -level
        total += weighted_sum(np.arange(step, _NODE_SPAN, 2.0 * step)) + weighted_sum(
            np.arange(-step, -_NODE_SPAN, -2.0 * step)
        )
        refined = total * step
        change = abs(refined - estimate)
        estimate = refined
        if change <= 1e-14 * abs(estimate):
            break
    return estimate, change


def _quad_with_kinks(f: Callable[[np.ndarray], np.ndarray], a: float, b: float, kinks: list[float]) -> float:
    edges = [a, *sorted(p for p in kinks if a < p < b), b]
    val = error = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        piece, change = _tanh_sinh(f, lo, hi)
        val += piece
        error += change
    if error > max(1e-10, 1e-8 * abs(val)):
        raise NumericError(
            f"quadrature did not converge: value {val!r}, error estimate {error!r}"
        )
    return val


def lambda_fractional_integral(kernel: Kernel, alpha: float) -> float:
    """The local linear limit integral ``int K(u)^alpha |K_2 - u K_1|^alpha du``.

    For a symmetric kernel ``K_1 = 0`` and the value reduces to
    ``K_2^alpha * int K(u)^alpha du`` exactly.  For asymmetric kernels the
    linear factor ``K_2 - u K_1`` can change sign inside the support; the
    absolute value keeps the alpha-th power real, and
    :func:`lambda_weight_changes_sign` reports whether the sign change
    actually occurs so downstream reports can flag it.
    """
    _check_alpha_power(alpha)
    a, b = kernel.support
    k1, k2 = kernel.k1, kernel.k2

    def f(u: np.ndarray) -> np.ndarray:
        return kernel.evaluate(u) ** alpha * np.abs(k2 - u * k1) ** alpha

    kinks = [0.0]
    if k1 != 0.0:
        kinks.append(k2 / k1)
    return _quad_with_kinks(f, a, b, kinks)


def lambda_weight_changes_sign(kernel: Kernel) -> bool:
    """Whether the factor ``K_2 - u K_1`` changes sign inside the support."""
    if kernel.k1 == 0.0:
        return False
    a, b = kernel.support
    root = kernel.k2 / kernel.k1
    return a < root < b


def nw_fractional_integral(kernel: Kernel, alpha: float) -> float:
    """The kernel-ratio limit integral ``int K(u)^alpha du``."""
    _check_alpha_power(alpha)
    a, b = kernel.support

    def f(u: np.ndarray) -> np.ndarray:
        return kernel.evaluate(u) ** alpha

    return _quad_with_kinks(f, a, b, [0.0])
