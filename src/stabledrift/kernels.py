"""Compactly supported smoothing kernels and the constants they feed into
the asymptotic theory of the drift estimators.

Each kernel carries closed-form moments ``K_k = int u^k K(u) du`` for
``k = 1, 2, 3`` alongside its evaluator.  The two fractional integrals at the
bottom of the module are the only quantities that require quadrature: both
raise the kernel to a non-integer power ``alpha``, which is how the stable
noise index enters the limit constants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy import integrate

from .errors import ConfigurationError, NumericError, ParameterError

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
        First three raw moments ``int u^k K(u) du``.
    l2 : float
        Squared-kernel integral ``int K(u)^2 du``.
    peak : float
        Maximum kernel value, used for degeneracy thresholds.
    symmetric : bool
        True when ``K(-u) = K(u)``, which forces the odd moments to zero.
    """

    name: str
    evaluate: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    support: tuple[float, float]
    k1: float
    k2: float
    k3: float
    l2: float
    peak: float
    symmetric: bool


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
        l2=3.0 / 5.0,
        peak=0.75,
        symmetric=True,
    ),
    "triangular": Kernel(
        name="triangular",
        evaluate=_triangular,
        support=(-1.0, 1.0),
        k1=0.0,
        k2=1.0 / 6.0,
        k3=0.0,
        l2=2.0 / 3.0,
        peak=1.0,
        symmetric=True,
    ),
    "uniform_sym": Kernel(
        name="uniform_sym",
        evaluate=_uniform_sym,
        support=(-1.0, 1.0),
        k1=0.0,
        k2=1.0 / 3.0,
        k3=0.0,
        l2=0.5,
        peak=0.5,
        symmetric=True,
    ),
    "uniform_right": Kernel(
        name="uniform_right",
        evaluate=_uniform_right,
        support=(0.0, 1.0),
        k1=0.5,
        k2=1.0 / 3.0,
        k3=0.25,
        l2=1.0,
        peak=1.0,
        symmetric=False,
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
    if not (1.0 <= alpha <= 2.0):
        raise ParameterError(f"alpha must lie in [1, 2], got {alpha}")


def _quad_with_kinks(f: Callable[[float], float], a: float, b: float, kinks: list[float]) -> float:
    interior = sorted(p for p in kinks if a < p < b)
    val, abserr = integrate.quad(f, a, b, points=interior or None, limit=200, epsabs=1e-12, epsrel=1e-9)
    if abserr > max(1e-10, 1e-8 * abs(val)):
        raise NumericError(
            f"quadrature did not converge: value {val!r}, error estimate {abserr!r}"
        )
    return float(val)


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

    def f(u: float) -> float:
        return float(kernel.evaluate(u)) ** alpha * abs(k2 - u * k1) ** alpha

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

    def f(u: float) -> float:
        return float(kernel.evaluate(u)) ** alpha

    return _quad_with_kinks(f, a, b, [0.0])
