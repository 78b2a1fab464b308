"""Properties of the drift estimators over random inputs: translation
equivariance on exactly representable designs, affine reproduction, the
grid contract of ``kernel_sums``, and the degeneracy flag on designs with
fewer than two distinct weighted states."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stabledrift import (
    ObservedPath,
    ParameterError,
    builtin_kernel,
    kernel_names,
    kernel_sums,
    local_linear_drift,
    nadaraya_watson_drift,
)

kernels = st.sampled_from(sorted(kernel_names())).map(builtin_kernel)
METHODS = ("local_linear", "nadaraya_watson")


def make_path(values, delta=1.0):
    x = np.asarray(values, dtype=float)
    return ObservedPath(x=x, delta=delta, n=x.size - 1, seed=None, model_name="external", noise=None)


def same_estimate(a, b):
    """Equal value (NaN equal to NaN), denominator and flag, bit for bit."""
    value_same = a.value == b.value or (math.isnan(a.value) and math.isnan(b.value))
    return value_same and a.denominator == b.denominator and a.degenerate == b.degenerate


# multiples of 2^-10 within +-4: a shift by an integer below 2^10 keeps every
# difference of two states, or of a state and a query point, exact
dyadic = st.integers(min_value=-4096, max_value=4096).map(lambda k: k / 1024.0)


@settings(max_examples=60, deadline=None)
@given(
    states=st.lists(dyadic, min_size=2, max_size=60),
    grid=st.lists(dyadic, min_size=1, max_size=5),
    shift=st.integers(min_value=-1000, max_value=1000),
    h=st.floats(min_value=0.05, max_value=8.0),
    delta=st.floats(min_value=1e-3, max_value=1.0),
    kernel=kernels,
)
def test_translation_equivariance_is_exact_on_dyadic_designs(states, grid, shift, h, delta, kernel):
    base = kernel_sums(make_path(states, delta), grid, h, kernel)
    moved = kernel_sums(make_path([s + shift for s in states], delta), [x + shift for x in grid], h, kernel)
    for method in METHODS:
        for a, b in zip(base.estimates(method), moved.estimates(method)):
            assert b.x == a.x + shift
            assert same_estimate(a, b)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=30, max_value=120),
    delta=st.floats(min_value=0.005, max_value=0.1),
    a=st.floats(min_value=-2.0, max_value=2.0),
    b=st.floats(min_value=-0.5, max_value=0.5),
    x0=st.floats(min_value=-2.0, max_value=2.0),
    kernel=kernels,
)
def test_local_linear_reproduces_affine_drifts(n, delta, a, b, x0, kernel):
    # the design of criterion 2 of the acceptance gate, over random draws
    if abs(b) * delta * n > 2.0:
        delta = 2.0 / (abs(b) * n)
    x = np.empty(n + 1)
    x[0] = x0
    for i in range(n):
        x[i + 1] = x[i] + delta * (a + b * x[i])
    lo, hi = float(x[:-1].min()), float(x[:-1].max())
    # a path that barely moves has (nearly) one state, and no slope to fit
    assume(hi - lo >= 0.05)
    if kernel.support[0] == 0.0:
        xq = lo - 0.05 * (hi - lo)
        h = 1.2 * (hi - xq)
    else:
        xq = 0.5 * (lo + hi)
        h = 0.65 * (hi - lo) + 0.05
    est = kernel_sums(make_path(x, delta), [xq], h, kernel).estimates("local_linear")[0]
    assert not est.degenerate
    target = a + b * xq
    assert abs(est.value - target) <= 1e-9 * max(1.0, abs(target))


finite = st.floats(min_value=-5.0, max_value=5.0)


@settings(max_examples=40, deadline=None)
@given(
    states=st.lists(finite, min_size=2, max_size=40),
    grid=st.lists(finite, min_size=1, max_size=8),
    h=st.floats(min_value=0.05, max_value=5.0),
    kernel=kernels,
)
def test_kernel_sums_keeps_grid_order_and_length(states, grid, h, kernel):
    path = make_path(states)
    sums = kernel_sums(path, grid, h, kernel)
    assert [len(v) for v in (sums.grid, sums.s0, sums.s1, sums.s2, sums.t0, sums.t1)] == [len(grid)] * 6
    for method, one_point in zip(METHODS, (local_linear_drift, nadaraya_watson_drift)):
        estimates = sums.estimates(method)
        assert [e.x for e in estimates] == grid
        assert all(e.method == method for e in estimates)
        for x, est in zip(grid, estimates):
            assert same_estimate(est, one_point(path, x, h, kernel))


@settings(max_examples=30, deadline=None)
@given(
    grid=st.lists(finite, min_size=0, max_size=5),
    bad=st.sampled_from([math.nan, math.inf, -math.inf]),
    position=st.integers(min_value=0, max_value=5),
)
def test_kernel_sums_rejects_a_non_finite_grid_point(grid, bad, position):
    grid.insert(min(position, len(grid)), bad)
    with pytest.raises(ParameterError, match="query point must be finite"):
        kernel_sums(make_path([0.0, 0.5, -0.25]), grid, 1.0, builtin_kernel("epanechnikov"))


@pytest.mark.parametrize("h", [0.0, -1.0, math.inf, math.nan])
def test_kernel_sums_rejects_a_bad_bandwidth(h):
    with pytest.raises(ParameterError, match="bandwidth h must be positive and finite"):
        kernel_sums(make_path([0.0, 0.5, -0.25]), [0.0, 0.1], h, builtin_kernel("epanechnikov"))


def test_kernel_sums_rejects_an_empty_grid():
    with pytest.raises(ParameterError, match="grid must be nonempty"):
        kernel_sums(make_path([0.0, 0.5, -0.25]), [], 1.0, builtin_kernel("epanechnikov"))


@settings(max_examples=80, deadline=None)
@given(
    data=st.data(),
    n=st.integers(min_value=1, max_value=200),
    state=st.floats(min_value=-100.0, max_value=100.0),
    offset=st.floats(min_value=-1.0, max_value=1.0),
    kernel=kernels,
)
def test_fewer_than_two_distinct_weighted_states_is_degenerate(data, n, state, offset, kernel):
    # the documented direction of the flag, for n * h >= 1
    h = data.draw(st.floats(min_value=1.0 / n, max_value=100.0))
    weighted = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    far = state + 10.0 * h + 1.0
    x = [state if w else far for w in weighted] + [data.draw(finite)]
    xq = state - h * offset
    assert local_linear_drift(make_path(x), xq, h, kernel).degenerate
