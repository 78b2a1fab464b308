"""Standard alpha-stable variates and distribution-level diagnostics.

The scale convention used throughout fixes the characteristic function of a
standard variate ``Z`` with stability index ``alpha`` and skewness ``beta`` as

    E exp(i u Z) = exp(-|u|^alpha * (1 - i beta sgn(u) tan(pi alpha / 2)))

over the one stability domain ``1 < alpha <= 2`` that ``StableParams``
admits, the range where the drift estimator concentrates.  Under this
convention ``alpha == 2`` is Gaussian with variance 2 (the skewness term
vanishes identically), and the scale parameter of a sum of independent terms
combines additively in its alpha-th power.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, check_int, check_number

__all__ = [
    "StableParams",
    "sample_standard_stable",
    "theoretical_char_fn",
    "empirical_char_fn",
    "two_sample_ks",
    "ks_critical_value",
    "hill_tail_index",
]


@dataclass(frozen=True)
class StableParams:
    """Index and skewness of a standard stable law.

    Parameters
    ----------
    alpha : float
        Stability index in ``(1, 2]``, the range where the drift estimator
        concentrates; the functions that take a ``StableParams`` rely on
        this and do not check the range again.
    beta : float
        Skewness in ``[-1, 1]``.  Ignored in effect when ``alpha == 2``.
    """

    alpha: float
    beta: float = 0.0

    def __post_init__(self) -> None:
        if not (1.0 < check_number("alpha", self.alpha) <= 2.0):
            raise ParameterError(f"alpha must lie in (1, 2], got {self.alpha}")
        if not (-1.0 <= check_number("beta", self.beta) <= 1.0):
            raise ParameterError(f"beta must lie in [-1, 1], got {self.beta}")


def _tan_half(alpha: float) -> float:
    # tan(pi * alpha / 2) with the Gaussian endpoint pinned to exactly zero;
    # floating-point tan(pi) would leave a spurious residual of ~1e-16.
    if alpha == 2.0:
        return 0.0
    return math.tan(math.pi * alpha / 2.0)


def _cms_transform(
    params: StableParams, v: np.ndarray, w: np.ndarray, out: np.ndarray, scratch: np.ndarray
) -> np.ndarray:
    """Write into ``out``, and return it, the Chambers-Mallows-Stuck map from
    uniform angles ``v`` on ``(-pi/2, pi/2)`` and unit exponentials ``w`` to
    standard stable variates.

    With ``arg = alpha (v + b0)`` the textbook map is

        X = s sin(arg) / cos(v)^(1/alpha) * (cos(v - arg) / w)^((1 - alpha) / alpha).

    It is evaluated through ``tan`` alone: numpy dispatches float64 ``tan``
    to SIMD routines where the CPU has them (AVX-512 on x86-64) and leaves
    ``sin`` and ``cos`` to libm, at several times the cost per element.
    ``cos x = (1 + tan^2 x)^(-1/2)`` holds for ``|x| < pi/2``, and so for
    ``v`` and for ``v - arg = -((alpha - 1) v + alpha b0)``, which lies in
    ``[-pi/2, pi/2]`` because ``|alpha b0| <= (2 - alpha) pi / 2`` (at the
    closed end ``tan`` is finite in floating point and the factor merely
    large).  ``sin(arg) = 2 tau / (1 + tau^2)`` with ``tau = tan(arg / 2)``
    holds for ``|arg| < pi``, which the same bounds give.  So

        X = ((1 + tan^2(v - arg)) w^2)^((alpha - 1) / (2 alpha))
            * (1 + tan^2 v)^(1 / (2 alpha)) * 2 s tau / (1 + tau^2).

    The four arrays share one shape and do not overlap; ``v``, ``w`` and
    ``scratch`` are overwritten, so nothing is allocated.  The map is
    elementwise, so any split of the draws into blocks maps to the same
    values."""
    alpha = params.alpha
    beta = params.beta
    t = _tan_half(alpha)
    b0 = math.atan(beta * t) / alpha
    s = (1.0 + beta * beta * t * t) ** (1.0 / (2.0 * alpha))
    arg = np.add(v, b0, out=scratch)
    arg *= alpha
    tail = np.subtract(v, arg, out=out)
    np.tan(tail, out=tail)
    tail *= tail
    tail += 1.0
    w *= w
    tail *= w
    tail **= (alpha - 1.0) / (2.0 * alpha)
    np.tan(v, out=v)
    v *= v
    v += 1.0
    v **= 1.0 / (2.0 * alpha)
    tail *= v
    arg *= 0.5
    tau = np.tan(arg, out=arg)
    np.multiply(tau, tau, out=w)
    w += 1.0
    tau *= 2.0 * s
    tau /= w
    return np.multiply(tail, tau, out=out)


def sample_standard_stable(
    params: StableParams,
    rng: np.random.Generator,
    size: int | tuple[int, ...] | None = None,
):
    """Draw standard stable variates by the Chambers-Mallows-Stuck transform.

    Parameters
    ----------
    params : StableParams
        Index and skewness of the target law; its type guarantees
        ``1 < alpha <= 2``, the one domain the transform covers.
    rng : numpy.random.Generator
        Source of randomness; two draws per variate are consumed
        (one uniform angle, one unit exponential).
    size : int, tuple of int, or None
        Output shape.  ``None`` returns a single float.

    Returns
    -------
    float or numpy.ndarray
        Variates with the characteristic function documented in the module
        docstring, scale 1 and zero shift.
    """
    if not isinstance(params, StableParams):
        raise ParameterError("params must be a StableParams instance")
    if not isinstance(rng, np.random.Generator):
        raise ParameterError("rng must be a numpy.random.Generator")
    v = rng.uniform(-math.pi / 2.0, math.pi / 2.0, size)
    w = rng.standard_exponential(size)
    v = np.asarray(v, dtype=float)
    x = _cms_transform(params, v, np.asarray(w, dtype=float), np.empty_like(v), np.empty_like(v))
    if size is None:
        return float(x)
    return x


def theoretical_char_fn(params: StableParams, u):
    """Closed-form characteristic function of the standard stable law.

    Accepts a scalar or an array of real frequencies and returns complex
    values of matching shape.
    """
    if not isinstance(params, StableParams):
        raise ParameterError("params must be a StableParams instance")
    u_arr = np.asarray(u, dtype=float)
    scalar = u_arr.ndim == 0
    u_arr = np.atleast_1d(u_arr)
    au = np.abs(u_arr)
    t = _tan_half(params.alpha)
    psi = -(au ** params.alpha) * (1.0 - 1j * params.beta * np.sign(u_arr) * t)
    out = np.exp(psi)
    if scalar:
        return complex(out[0])
    return out


def empirical_char_fn(samples, u):
    """Empirical characteristic function ``mean(exp(i u X_j))`` of a sample.

    One frequency at a time, in two buffers the size of the sample, not in
    a ``(len(u), len(samples))`` matrix; each mean is that of the matrix's
    row bit for bit."""
    x = np.asarray(samples, dtype=float).ravel()
    if x.size == 0:
        raise ParameterError("samples must be nonempty")
    u_arr = np.asarray(u, dtype=float)
    scalar = u_arr.ndim == 0
    u_flat = np.atleast_1d(u_arr).ravel()
    phase = np.empty_like(x)
    unit = np.empty(x.shape, dtype=complex)
    out = np.empty(u_flat.shape, dtype=complex)
    for k, uk in enumerate(u_flat):
        np.multiply(uk, x, out=phase)
        np.multiply(1j, phase, out=unit)
        out[k] = np.exp(unit, out=unit).mean()
    if scalar:
        return complex(out[0])
    return out.reshape(np.atleast_1d(u_arr).shape)


def two_sample_ks(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov statistic, the exact sup distance
    between the two empirical distribution functions."""
    a_arr = np.sort(np.asarray(a, dtype=float).ravel())
    b_arr = np.sort(np.asarray(b, dtype=float).ravel())
    if a_arr.size == 0 or b_arr.size == 0:
        raise ParameterError("both samples must be nonempty")
    if not (np.isfinite(a_arr).all() and np.isfinite(b_arr).all()):
        raise ParameterError("samples must be finite")
    pooled = np.concatenate([a_arr, b_arr])
    cdf_a = np.searchsorted(a_arr, pooled, side="right") / a_arr.size
    cdf_b = np.searchsorted(b_arr, pooled, side="right") / b_arr.size
    return float(np.max(np.abs(cdf_a - cdf_b)))


def ks_critical_value(n: int, m: int, level: float = 0.01) -> float:
    """Asymptotic two-sample KS critical value at the given test level.

    Uses ``c(level) * sqrt(1/n + 1/m)`` with
    ``c(level) = sqrt(-log(level / 2) / 2)``.
    """
    check_int("n", n, 1)
    check_int("m", m, 1)
    if not (0.0 < check_number("level", level) < 1.0):
        raise ParameterError(f"level must lie in (0, 1), got {level}")
    c = math.sqrt(-0.5 * math.log(level / 2.0))
    return c * math.sqrt(1.0 / n + 1.0 / m)


def _hill_tail_size(size: int, fraction: float) -> int:
    """How many upper order statistics a Hill estimate over ``size`` points reads."""
    return max(10, int(round(fraction * size)))


def hill_tail_index(samples, fraction: float = 0.1) -> float:
    """Hill estimate of the tail index from the upper order statistics
    of ``|samples|``.

    Parameters
    ----------
    samples : array_like
        Observations; the absolute values' upper tail is used.
    fraction : float
        Fraction of the sample treated as tail, clipped to at least 10
        points.  The default trades bias against variance acceptably for
        samples of a few hundred points or more.
    """
    x = np.abs(np.asarray(samples, dtype=float).ravel())
    if not (0.0 < check_number("fraction", fraction) < 1.0):
        raise ParameterError(f"fraction must lie in (0, 1), got {fraction}")
    x = np.sort(x[x > 0.0])
    k = _hill_tail_size(x.size, fraction)
    if x.size <= k:
        raise ParameterError("too few nonzero observations for a tail estimate")
    tail = x[-(k + 1):]
    logs = np.log(tail)
    hill = float(np.mean(logs[1:] - logs[0]))
    if hill <= 0.0:
        raise ParameterError("degenerate tail: all upper order statistics equal")
    return 1.0 / hill
