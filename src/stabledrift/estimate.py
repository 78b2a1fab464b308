"""Pointwise drift estimators and their asymptotic constants.

Both estimators regress the normalized one-step increments
``Y_i = (X_{i+1} - X_i) / delta`` on kernel weights centered at the query
point ``x``; the last observation only ever appears as a response.  The
kernel-weighted average (ratio) estimator uses the weights directly, while
the local linear estimator also fits a slope in the offset ``X_i - x``,
which cancels the first-order term of the drift's Taylor expansion and is
what removes the design-dependent part of the bias.

One set of kernel sums feeds every estimate: :func:`kernel_sums` forms
``S_0, S_1, S_2, T_0, T_1`` over a grid, and the local linear, ratio and
density (``S_0 / n``) estimates are derived from them elementwise.  Every
kernel has compact support, so those sums and the moment sums :func:`s_nk`
weight only the states inside the kernel window around the query point,
however far the others lie.  Grid points that lie within one window width
of each other share one scan of the path for their windows, so a dense grid
costs about one pass over the path per window width it covers, not one per
point.

The asymptotic description of the local linear estimator at an interior
point with ``1 < alpha < 2`` is

    rate * (muhat(x) - mu(x) - bias_term)  ==>  standard stable(alpha)

with ``rate = (n delta h)^(1 - 1/alpha)``, ``bias_term = h^2 * Gamma(x)``,
and a scale constant ``Lambda(x)`` multiplying the left side to make the
limit standard.  Both constants are exposed here, for the local linear and
the ratio estimator respectively, so Monte Carlo experiments can standardize
observed errors and compare them against direct stable draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, ParameterError, check_int, check_number
from .kernels import Kernel, lambda_fractional_integral, nw_fractional_integral
from .models import SdeModel, StationaryDensity
from .simulate import ObservedPath
from .stable import StableParams

__all__ = [
    "DriftEstimate",
    "AsymptoticConstants",
    "KernelRatioConstants",
    "KernelSums",
    "kernel_sums",
    "s_nk",
    "local_linear_drift",
    "local_linear_drift_ratio",
    "nadaraya_watson_drift",
    "density_estimate",
    "asymptotic_constants",
    "nw_asymptotic_constants",
    "write_drift_curve_csv",
]

_DEGENERACY_COEFF = 1e-12
# relative slack on the window edges of ``_edges``: 2^-50 of |x| + h*max(|a|, |b|)
# exceeds the rounding of the edges and of z, also where an edge cancels to about zero
_EDGE_SLACK = 2.0 ** -50


@dataclass(frozen=True)
class DriftEstimate:
    """One pointwise drift estimate.

    ``value`` is meaningful only when ``degenerate`` is False; a degenerate
    fit keeps NaN there.  ``denominator`` records the quantity tested
    against the degeneracy threshold: the normalized design determinant for
    the local linear fit, the kernel mass for the ratio fit.
    """

    x: float
    value: float
    h: float
    method: str
    denominator: float
    degenerate: bool


@dataclass(frozen=True)
class AsymptoticConstants:
    """Limit-law constants for a pointwise drift estimate.

    ``lambda_x * rate * (muhat - mu - bias_term)`` converges to the standard
    stable law with the noise's index.  ``gamma_x`` is the second-order bias
    coefficient, ``bias_term = h^2 * gamma_x``.
    """

    lambda_x: float
    gamma_x: float
    rate: float
    bias_term: float


@dataclass(frozen=True)
class KernelRatioConstants(AsymptoticConstants):
    """Limit-law constants of the kernel-ratio estimator, whose bias also has
    a term of first order in ``h``, ``first_order = h * K_1 * mu'(x)``; it
    vanishes only for a symmetric kernel.  The local linear estimator has no
    such term."""

    first_order: float


def _check_point(x: float, h: float) -> tuple[float, float]:
    return check_number("query point", x), check_number("bandwidth h", h, positive=True)


def _edges(first: float, last: float, h: float, kernel: Kernel) -> tuple[float, float]:
    """Edges ``first + a*h - slack`` and ``last + b*h + slack``, for
    ``(a, b) = kernel.support``, that hold the edges of every point ``x`` in
    ``[first, last]``, ``_edges(x, x, h, kernel)``: the slack, 2^-50 of
    ``max(|first|, |last|) + h*max(|a|, |b|)``, is the largest of those
    points' own slacks, and rounding is monotone, so no point's edge lies
    outside them."""
    a, b = kernel.support
    slack = _EDGE_SLACK * (max(abs(first), abs(last)) + h * max(abs(a), abs(b)))
    return first + a * h - slack, last + b * h + slack


def _window(xs: np.ndarray, x: float, h: float, kernel: Kernel) -> tuple[np.ndarray, np.ndarray]:
    """Indices, in the order of ``xs``, and offsets ``z_i = (X_i - x) / h``
    of the states with ``a <= z_i <= b`` for ``(a, b) = kernel.support``: the
    states between the edges ``_edges(x, x, h, kernel)``, widened by a slack
    that covers their rounding, trimmed to exactly that interval.  Given any
    subsequence of the states that holds the whole window, the result is the
    same window with the same ``z`` floats, indexed into that subsequence.
    Sums over it rely on ``kernel.evaluate`` being zero outside ``support``.

    ``z`` is formed in place on the gathered states, by the same float
    operations as ``(xs[index] - x) / h``, and the trim runs only when some
    offset lies outside ``[a, b]``; otherwise the widened window is exact."""
    a, b = kernel.support
    lo, hi = _edges(x, x, h, kernel)
    index = np.flatnonzero((xs >= lo) & (xs <= hi))
    z = xs[index]
    z -= x
    z /= h
    if z.size and (z.min() < a or z.max() > b):
        inside = (z >= a) & (z <= b)
        index, z = index[inside], z[inside]
    return index, z


@dataclass(frozen=True)
class KernelSums:
    """Kernel sums of one path over a query grid, from :func:`kernel_sums`.

    At ``x = grid[j]``, with ``z_i = (X_i - x) / h``, ``w_i = K(z_i) / h``
    and ``Y_i = (X_{i+1} - X_i) / delta`` for ``i < n``, ``s0, s1, s2[j]``
    are ``sum_i w_i z_i^k`` and ``t0, t1[j]`` are ``sum_i w_i z_i^k Y_i``;
    ``threshold`` is the degeneracy threshold ``1e-12 * n * max(K) / h``, and
    ``two_offsets[j]`` tells whether at least two distinct ``z_i`` carry
    nonzero weight, without which a local linear fit is degenerate.
    """

    grid: np.ndarray
    h: float
    n: int
    threshold: float
    s0: np.ndarray
    s1: np.ndarray
    s2: np.ndarray
    t0: np.ndarray
    t1: np.ndarray
    two_offsets: np.ndarray

    def estimates(self, method: str) -> list[DriftEstimate]:
        """The ``local_linear`` or ``nadaraya_watson`` estimate at every grid
        point, in grid order."""
        if method not in ("local_linear", "nadaraya_watson"):
            raise ConfigurationError(f"unknown method {method!r}; expected 'local_linear' or 'nadaraya_watson'")
        with np.errstate(all="ignore"):
            if method == "local_linear":
                det = self.s0 * self.s2 - self.s1 * self.s1
                numerator, divisor, denominator = self.s2 * self.t0 - self.s1 * self.t1, det, det / float(self.n ** 2)
                one_offset = ~self.two_offsets
            else:
                numerator, divisor, denominator, one_offset = self.t0, self.s0, self.s0, False
            value = numerator / divisor
        # a sum that overflowed leaves no estimate, whatever the threshold says
        finite = np.isfinite(numerator) & np.isfinite(divisor) & np.isfinite(value)
        degenerate = ~(np.abs(denominator) >= self.threshold) | one_offset | ~finite
        value[degenerate] = math.nan
        return [
            DriftEstimate(x=x, value=v, h=self.h, method=method, denominator=d, degenerate=g)
            for x, v, d, g in zip(self.grid.tolist(), value.tolist(), denominator.tolist(), degenerate.tolist())
        ]

    def density(self) -> list[float]:
        """The kernel density estimate ``S_0 / n`` at every grid point."""
        return (self.s0 / self.n).tolist()


def kernel_sums(path: ObservedPath, grid, h: float, kernel: Kernel) -> KernelSums:
    """Form the kernel sums of :class:`KernelSums` at every grid point.

    Every point is validated before any work.  At each point only the
    states of its kernel window (see :func:`_window`) are weighted, so no
    ``(len(grid), n)`` array is built.  The points are taken in sorted order
    in runs that span at most one window width ``(b - a) * h``.  One scan of
    the path selects, in time order, the states between the run's
    :func:`_edges`, which hold every window of the run; each point then
    selects its window from those states alone.  A one-point run scans the
    path directly.  Either way a point's window is the same states in the
    same order with the same offsets, so every sum and flag is bit for bit
    what the point alone gives, whatever the rest of the grid holds.

    Each sum is one pairwise ``.sum()`` over its window's products; ``w z z``,
    ``w Y`` and ``w z Y`` are formed in turn into one scratch array, each
    summed before the next.  When no weight is zero, the ``two_offsets``
    flag reads the window's offsets themselves.
    """
    values = [check_number("query point", x) for x in np.ravel(np.asarray(grid, dtype=object))]
    if not values:
        raise ParameterError("grid must be nonempty")
    points = np.array(values)
    h = check_number("bandwidth h", h, positive=True)
    a, b = kernel.support
    width = (b - a) * h
    order = sorted(range(len(values)), key=values.__getitem__)
    xs = path.x[:-1]
    sums = np.empty((5, points.size))
    two_offsets = np.empty(points.size, dtype=bool)
    # near the float range an increment, an offset or a sum may overflow;
    # the estimates flag such a point, so numpy need not warn about it
    with np.errstate(all="ignore"):
        y = np.diff(path.x) / path.delta
        start = 0
        while start < len(order):
            first = values[order[start]]
            stop = start + 1
            while stop < len(order) and values[order[stop]] - first <= width:
                stop += 1
            near, near_y = xs, y
            if stop - start > 1:
                lo, hi = _edges(first, values[order[stop - 1]], h, kernel)
                run = np.flatnonzero((xs >= lo) & (xs <= hi))
                near, near_y = xs[run], y[run]
            for j in order[start:stop]:
                index, z = _window(near, values[j], h, kernel)
                w = kernel.evaluate(z) / h
                wz = w * z
                yw = near_y[index]
                product = wz * z
                sums[:3, j] = w.sum(), wz.sum(), product.sum()
                sums[3, j] = np.multiply(w, yw, out=product).sum()
                sums[4, j] = np.multiply(wz, yw, out=product).sum()
                weighted = z if w.all() else z[w != 0.0]
                two_offsets[j] = weighted.size > 1 and weighted.min() < weighted.max()
            start = stop
    return KernelSums(points, h, path.n, _DEGENERACY_COEFF * path.n * kernel.peak / h, *sums, two_offsets)


def s_nk(path: ObservedPath, x: float, h: float, kernel: Kernel, k: int) -> float:
    """Kernel-weighted offset power sum ``sum_i K_h(X_i - x) (X_i - x)^k``
    over the window (see :func:`_window`) of the states ``X_0 .. X_{n-1}``;
    a state of zero weight adds nothing, however far it lies from ``x``.
    ``k`` must be one of 0, 1, 2, 3.  Where an offset power overflows, as
    ``(X_i - x)^k`` may when ``h`` is near the float range, the sum is
    ``h^(k-1) sum_i K(z_i) z_i^k`` instead, scaled by ``h`` one factor at a
    time, so it is infinite only when the sum itself leaves the float range.
    """
    if k not in (0, 1, 2, 3):
        raise ParameterError(f"k must be one of 0, 1, 2, 3, got {k}")
    x, h = _check_point(x, h)
    index, z = _window(path.x[:-1], x, h, kernel)
    kz = kernel.evaluate(z)
    w = kz / h
    # an edge state of zero weight may still have an offset power that overflows
    weighted = w != 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        total = float((w[weighted] * (path.x[index[weighted]] - x) ** k).sum())
    if math.isfinite(total):
        return total
    total = float((kz * z ** k).sum())
    if k == 0:
        return total / h
    for _ in range(k - 1):
        total *= h
    return total


def local_linear_drift(path: ObservedPath, x: float, h: float, kernel: Kernel) -> DriftEstimate:
    """Local linear drift estimate at ``x``.

    Solves the kernel-weighted least squares problem for intercept and slope
    in the offset ``X_i - x`` and returns the intercept.  The solve works in
    the scaled offsets ``(X_i - x) / h``, which keeps the normal-equation
    determinant well conditioned for small bandwidths; the result is
    algebraically identical to the ratio of offset power sums.

    The fit is flagged degenerate when fewer than two distinct scaled
    offsets carry kernel weight, or when the normalized determinant

        (S~_0 S~_2 - S~_1^2) / n^2

    falls below ``1e-12 * n * max(K) / h`` in magnitude, so states that
    nearly coincide may also be flagged.  It is also flagged when the
    numerator, the determinant or the intercept is not finite, as when a
    response sum overflows.
    """
    return kernel_sums(path, [x], h, kernel).estimates("local_linear")[0]


def local_linear_drift_ratio(path: ObservedPath, x: float, h: float, kernel: Kernel) -> float:
    """Local linear estimate in its raw ratio form.

    Forms the estimate directly as

        sum_i K_h(X_i - x) (S_2 - (X_i - x) S_1) (X_{i+1} - X_i)
        -----------------------------------------------------------
        delta * sum_i K_h(X_i - x) (S_2 - (X_i - x) S_1)

    with ``S_k`` the :func:`s_nk` sums, weighted over the whole path.
    Numerically inferior to :func:`local_linear_drift` for small bandwidths,
    kept as an independent cross-check of the solver algebra.  Returns NaN
    when the denominator is exactly zero.
    """
    x, h = _check_point(x, h)
    d = path.x[:-1] - x
    w = kernel.evaluate(d / h) / h
    s1 = float((w * d).sum())
    s2 = float((w * d * d).sum())
    weight = w * (s2 - d * s1)
    den = path.delta * float(weight.sum())
    if den == 0.0:
        return math.nan
    num = float((weight * np.diff(path.x)).sum())
    return num / den


def nadaraya_watson_drift(path: ObservedPath, x: float, h: float, kernel: Kernel) -> DriftEstimate:
    """Kernel-ratio (locally constant) drift estimate at ``x``:
    the kernel-weighted average of the normalized increments.

    Degenerate when the kernel mass ``sum_i K_h(X_i - x)`` falls below the
    same threshold as the local linear fit, or when the response sum, the
    kernel mass or their ratio is not finite; a single in-support state is
    enough to produce a value here, unlike the linear fit.
    """
    return kernel_sums(path, [x], h, kernel).estimates("nadaraya_watson")[0]


def density_estimate(path: ObservedPath, x: float, h: float, kernel: Kernel) -> float:
    """Kernel density estimate ``(1/n) sum_i K_h(X_i - x)`` of the
    stationary density at ``x``, from the first ``n`` observations."""
    return kernel_sums(path, [x], h, kernel).density()[0]


def _limit_inputs(model, density, noise, x, n, delta, h) -> tuple[float, float, float, float]:
    """Validate what both limit-constant functions share; return ``alpha``,
    ``f(x)``, ``sigma(x)`` and the rate ``(n delta h)^(1 - 1/alpha)``."""
    if not isinstance(noise, StableParams):
        raise ParameterError("noise must be a StableParams instance")
    alpha = noise.alpha
    x, h = _check_point(x, h)
    check_int("n", n, 1)
    check_number("delta", delta, positive=True)
    fx = float(density.f(float(x)))
    if not (fx > 0.0):
        raise ParameterError(f"stationary density vanishes at x = {x}; constants are undefined there")
    return alpha, fx, float(model.sigma(float(x))), (n * delta * h) ** (1.0 - 1.0 / alpha)


def asymptotic_constants(
    model: SdeModel,
    density: StationaryDensity,
    noise: StableParams,
    kernel: Kernel,
    x: float,
    n: int,
    delta: float,
    h: float,
) -> AsymptoticConstants:
    """Limit constants of the local linear estimator at an interior point.

    Requires ``1 < alpha <= 2``; the open interval is where the stable limit
    theory lives, and the Gaussian endpoint is included so control runs can
    standardize against the normal limit with the same code path.

    Raises
    ------
    ParameterError
        If the stationary density vanishes at ``x`` or the kernel has zero
        moment variance.
    """
    alpha, fx, sx, rate = _limit_inputs(model, density, noise, x, n, delta, h)
    var_k = kernel.k2 - kernel.k1 ** 2
    if not (var_k > 0.0):
        raise ParameterError(f"kernel {kernel.name} has no moment variance")
    lam_int = lambda_fractional_integral(kernel, alpha)
    lambda_x = var_k * fx ** (1.0 - 1.0 / alpha) / (sx * lam_int ** (1.0 / alpha))
    gamma_x = float(model.mu_double_prime(float(x))) * (
        kernel.k2 ** 2 - kernel.k1 * kernel.k3
    ) / (2.0 * var_k)
    return AsymptoticConstants(
        lambda_x=lambda_x, gamma_x=gamma_x, rate=rate, bias_term=h * h * gamma_x
    )


def nw_asymptotic_constants(
    model: SdeModel,
    density: StationaryDensity,
    noise: StableParams,
    kernel: Kernel,
    x: float,
    n: int,
    delta: float,
    h: float,
) -> KernelRatioConstants:
    """Limit constants of the kernel-ratio estimator at an interior point.

    Expanding ``sum K f mu / sum K f`` about ``x`` gives the bias
    ``h K_1 mu'(x) + h^2 Gamma(x)`` with the second-order coefficient
    ``Gamma(x) = (K_2 - K_1^2) mu'(x) f'(x) / f(x) + K_2 mu''(x) / 2``,
    which involves the stationary density's log-derivative.  The first-order
    term is nonzero only for an asymmetric kernel, where it dominates the
    ratio estimator's bias; the local linear estimator has no such term.
    Under a symmetric kernel the scale constant coincides with the local
    linear one because the moment-variance factors cancel against the
    fractional integral.
    """
    alpha, fx, sx, rate = _limit_inputs(model, density, noise, x, n, delta, h)
    fpx = float(density.f_prime(float(x)))
    nw_int = nw_fractional_integral(kernel, alpha)
    lambda_x = fx ** (1.0 - 1.0 / alpha) / (sx * nw_int ** (1.0 / alpha))
    slope = float(model.mu_prime(float(x)))
    gamma_x = (
        (kernel.k2 - kernel.k1 ** 2) * slope * fpx / fx
        + 0.5 * kernel.k2 * float(model.mu_double_prime(float(x)))
    )
    return KernelRatioConstants(
        lambda_x=lambda_x, gamma_x=gamma_x, rate=rate, bias_term=h * h * gamma_x,
        first_order=h * kernel.k1 * slope,
    )


def write_drift_curve_csv(estimates: list[DriftEstimate], destination) -> None:
    """Write drift estimates as CSV with columns
    ``x,estimate,method,h,degenerate,denominator``.

    Degenerate rows leave the estimate cell empty.  Floats use 17
    significant digits and no locale formatting.
    """
    lines = ["x,estimate,method,h,degenerate,denominator"]
    for est in estimates:
        value = "" if est.degenerate else f"{est.value:.17g}"
        flag = "true" if est.degenerate else "false"
        lines.append(
            f"{est.x:.17g},{value},{est.method},{est.h:.17g},{flag},{est.denominator:.17g}"
        )
    Path(destination).write_text("\n".join(lines) + "\n", encoding="ascii")
