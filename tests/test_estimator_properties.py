"""Properties of the drift estimators over random inputs: translation
equivariance on exactly representable designs, affine reproduction, the
grid contract of ``kernel_sums``, its agreement and that of ``s_nk`` with a
full-array reference on paths that crowd the kernel window's edges, the
bit-for-bit agreement of a dense grid's sums with one-point sums and of
both with the plain per-point form of the window and its sums, and the
degeneracy flag on designs with fewer than two distinct weighted states."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from stabledrift import (
    KernelSums,
    ObservedPath,
    ParameterError,
    builtin_kernel,
    kernel_names,
    kernel_sums,
    local_linear_drift,
    nadaraya_watson_drift,
    s_nk,
)
from stabledrift.estimate import _edges, _window

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
    with pytest.raises(ParameterError, match="query point must be a finite number"):
        kernel_sums(make_path([0.0, 0.5, -0.25]), grid, 1.0, builtin_kernel("epanechnikov"))


@pytest.mark.parametrize("h", [0.0, -1.0, math.inf, math.nan])
def test_kernel_sums_rejects_a_bad_bandwidth(h):
    with pytest.raises(ParameterError, match="bandwidth h must be a positive finite number"):
        kernel_sums(make_path([0.0, 0.5, -0.25]), [0.0, 0.1], h, builtin_kernel("epanechnikov"))


def test_kernel_sums_rejects_an_empty_grid():
    with pytest.raises(ParameterError, match="grid must be nonempty"):
        kernel_sums(make_path([0.0, 0.5, -0.25]), [], 1.0, builtin_kernel("epanechnikov"))


def full_array_sums(states, x, h, kernel, delta):
    """Brute-force ``S_0, S_1, S_2, T_0, T_1`` at ``x``: the kernel evaluated
    at every state, each sum taken exactly rounded, with the sum of its terms'
    absolute values, and whether two distinct offsets carry weight.  A state
    of zero weight adds nothing, also where its offset overflows."""
    xs = np.asarray(states[:-1], dtype=float)
    y = np.diff(np.asarray(states, dtype=float)) / delta
    with np.errstate(over="ignore", invalid="ignore"):
        z = (xs - x) / h
        w = kernel.evaluate(z) / h
    weighted = w != 0.0
    z, w, y = z[weighted], w[weighted], y[weighted]
    wz = w * z
    terms = (w, wz, wz * z, w * y, wz * y)
    sums = [math.fsum(t.tolist()) for t in terms]
    scales = [math.fsum(np.abs(t).tolist()) for t in terms]
    return sums, scales, np.unique(z).size > 1


def test_a_window_edge_that_cancels_to_zero_keeps_its_state():
    # x + a*h is exactly 0; the state at -1e-20 has z = -1 after rounding and
    # weight 0.5, which a slack of one ulp around that edge would drop
    sums = kernel_sums(make_path([-1e-20, 0.5, 1.2, 0.9, 2.5]), [1.0], 1.0, builtin_kernel("uniform_sym"))
    assert (sums.s0[0], sums.t0[0]) == (2.0, 1.25)
    assert sums.estimates("nadaraya_watson")[0].value == 0.625


@st.composite
def crowded_windows(draw):
    """A query point, a bandwidth and a path whose states sit at the kernel
    window's edges, one ulp either side of them, inside the window and far
    outside it."""
    kernel = draw(kernels)
    x = draw(st.one_of(st.floats(-10.0, 10.0), st.floats(-1e12, 1e12)))
    h = draw(st.one_of(st.floats(1e-12, 10.0), st.floats(1e-12, 1e300)))
    a, b = kernel.support
    edges = [x + a * h, x + b * h]
    near = [float(v) for e in edges for v in (np.nextafter(e, -math.inf), e, np.nextafter(e, math.inf))]
    state = st.one_of(
        st.sampled_from(near),
        st.floats(a, b).map(lambda u: x + u * h),
        st.floats(-3.0, 3.0).map(lambda u: x + u * h),
        st.floats(-1e200, 1e200),
    )
    states = draw(st.lists(state, min_size=2, max_size=60))
    grid = [x] + draw(st.lists(st.sampled_from(near + states), max_size=3))
    delta = draw(st.floats(1e-3, 1.0))
    return kernel, h, delta, states, grid


def full_array_moments(states, x, h, kernel):
    """Brute-force ``s_nk`` at ``x`` for k = 0..3: ``w_i (X_i - x)^k`` over
    the states of nonzero weight, each sum taken exactly rounded, with the sum
    of its terms' absolute values; None for a k whose terms overflow."""
    xs = np.asarray(states[:-1], dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        d = xs - x
        w = kernel.evaluate(d / h) / h
        d, w = d[w != 0.0], w[w != 0.0]
        terms = [w * d ** k for k in range(4)]
    return [
        (math.fsum(t.tolist()), math.fsum(np.abs(t).tolist())) if np.isfinite(t).all() else None
        for t in terms
    ]


@settings(max_examples=300, deadline=None)
@given(crowded_windows())
def test_kernel_sums_agrees_with_a_full_array_reference(case):
    kernel, h, delta, states, grid = case
    path = make_path(states, delta)
    got = kernel_sums(path, grid, h, kernel)
    n = len(states) - 1
    for j, x in enumerate(grid):
        sums, scales, two_offsets = full_array_sums(states, x, h, kernel, delta)
        for value, ref, scale in zip((got.s0, got.s1, got.s2, got.t0, got.t1), sums, scales):
            assert abs(value[j] - ref) <= 1e-12 * scale
        for k, moment in enumerate(full_array_moments(states, x, h, kernel)):
            if moment is not None:
                ref, scale = moment
                assert abs(s_nk(path, x, h, kernel, k) - ref) <= 1e-12 * scale
        assert got.two_offsets[j] == two_offsets
        ref = KernelSums(np.array([x]), h, n, got.threshold, *(np.array([s]) for s in sums), np.array([two_offsets]))
        # a flag may differ only where the reference's denominator ties with
        # the threshold to within the rounding of the sums it is formed from
        ties = {
            "local_linear": (scales[0] * scales[2] + scales[1] ** 2) / float(n ** 2),
            "nadaraya_watson": scales[0],
        }
        for method in METHODS:
            mine, theirs = got.estimates(method)[j], ref.estimates(method)[0]
            if abs(abs(theirs.denominator) - got.threshold) > 1e-12 * ties[method]:
                assert mine.degenerate == theirs.degenerate


@st.composite
def dense_grids(draw):
    """An unsorted grid with duplicates, spaced below the window width so that
    points share runs, a bandwidth and a path whose states sit at every
    point's window edges, at the outer edges of every span of grid points
    (where a run's scan stops), one ulp either side of them, and elsewhere."""
    kernel = draw(kernels)
    h = draw(st.floats(0.01, 5.0))
    a, b = kernel.support
    center = draw(st.one_of(st.floats(-10.0, 10.0), st.floats(-1e6, 1e6)))
    spacing = draw(st.floats(0.0, 1.0)) * (b - a) * h
    points = [center + k * spacing for k in range(draw(st.integers(2, 8)))]
    grid = draw(st.permutations(points + draw(st.lists(st.sampled_from(points), max_size=4))))
    edges = [e for x in points for e in (x + a * h, x + b * h)]
    edges += [e for first in points for last in points if first <= last for e in _edges(first, last, h, kernel)]
    near = [float(v) for e in edges for v in (np.nextafter(e, -math.inf), e, np.nextafter(e, math.inf))]
    reach = max(abs(a), abs(b)) * h + points[-1] - points[0]
    elsewhere = st.one_of(st.floats(-1.5, 1.5).map(lambda u: center + u * reach), st.floats(-1e200, 1e200))
    states = draw(st.lists(st.sampled_from(near), min_size=1, max_size=60))
    states += draw(st.lists(elsewhere, min_size=1, max_size=20))
    return kernel, h, draw(st.floats(1e-3, 1.0)), draw(st.permutations(states)), grid


@settings(max_examples=300, deadline=None)
@given(dense_grids())
def test_a_grid_point_reads_exactly_as_it_does_alone(case):
    kernel, h, delta, states, grid = case
    path = make_path(states, delta)
    sums = kernel_sums(path, grid, h, kernel)
    assert sums.grid.tolist() == grid
    for j, x in enumerate(grid):
        alone = kernel_sums(path, [x], h, kernel)
        assert (alone.h, alone.n, alone.threshold) == (sums.h, sums.n, sums.threshold)
        for field in ("grid", "s0", "s1", "s2", "t0", "t1", "two_offsets"):
            assert getattr(sums, field)[j:j + 1].tobytes() == getattr(alone, field).tobytes(), field


def plain_window(xs, x, h, kernel):
    """The kernel window in its plain form: every state between the widened
    edges, offsets ``(X_i - x) / h`` formed out of place, then trimmed to
    ``[a, b]`` whether or not any offset lies outside."""
    a, b = kernel.support
    lo, hi = _edges(x, x, h, kernel)
    index = np.flatnonzero((xs >= lo) & (xs <= hi))
    z = (xs[index] - x) / h
    inside = (z >= a) & (z <= b)
    return index[inside], z[inside]


def plain_sums(path, x, h, kernel):
    """``S_0, S_1, S_2, T_0, T_1`` and the two-offsets flag at ``x`` in their
    plain per-point form: each product formed anew and summed, and the flag
    read from the offsets of nonzero weight."""
    with np.errstate(all="ignore"):
        y = np.diff(path.x) / path.delta
        index, z = plain_window(path.x[:-1], x, h, kernel)
        w = kernel.evaluate(z) / h
        wz = w * z
        yw = y[index]
        sums = w.sum(), wz.sum(), (wz * z).sum(), (w * yw).sum(), (wz * yw).sum()
    weighted = z[w != 0.0]
    return sums, weighted.size > 1 and weighted.min() < weighted.max()


def plain_s_nk(path, x, h, kernel, k):
    """``s_nk`` over :func:`plain_window`, in the same operations."""
    index, z = plain_window(path.x[:-1], x, h, kernel)
    kz = kernel.evaluate(z)
    w = kz / h
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


def as_bytes(value):
    return np.float64(value).tobytes()


# a state one ulp below the edge -1, inside the widened window, so the trim
# runs; epanechnikov states at z = 1 exactly, of zero weight, beside two equal
# offsets, so the flag must skip the zero weight; states all outside the window
TRIMMED = (builtin_kernel("uniform_sym"), 1.0, 0.5, [float(np.nextafter(-1.0, -math.inf)), 0.25, 0.5, 2.0], [0.0])
ZERO_WEIGHT = (builtin_kernel("epanechnikov"), 1.0, 0.5, [1.0, 0.25, 0.25, -1.0, 3.0], [0.0])
EMPTY = (builtin_kernel("triangular"), 1.0, 0.5, [5.0, 6.0, 7.0], [0.0, 0.5])


def test_the_named_windows_reach_each_case():
    kernel, h, _, states, grid = TRIMMED
    xs = np.array(states[:-1])
    lo, hi = _edges(grid[0], grid[0], h, kernel)
    assert _window(xs, grid[0], h, kernel)[0].size < np.count_nonzero((xs >= lo) & (xs <= hi))
    kernel, h, _, states, grid = ZERO_WEIGHT
    _, z = _window(np.array(states[:-1]), grid[0], h, kernel)
    assert not kernel.evaluate(z).all() and z.min() < z.max()
    kernel, h, _, states, grid = EMPTY
    assert all(_window(np.array(states[:-1]), x, h, kernel)[0].size == 0 for x in grid)


@settings(max_examples=300, deadline=None)
@given(st.one_of(dense_grids(), crowded_windows()))
@example(TRIMMED)
@example(ZERO_WEIGHT)
@example(EMPTY)
def test_kernel_sums_and_s_nk_match_the_plain_per_point_form(case):
    kernel, h, delta, states, grid = case
    path = make_path(states, delta)
    sums = kernel_sums(path, grid, h, kernel)
    for j, x in enumerate(grid):
        plain, two_offsets = plain_sums(path, x, h, kernel)
        for field, value in zip(("s0", "s1", "s2", "t0", "t1"), plain):
            assert getattr(sums, field)[j:j + 1].tobytes() == as_bytes(value), field
        assert bool(sums.two_offsets[j]) == two_offsets
        for k in range(4):
            assert as_bytes(s_nk(path, x, h, kernel, k)) == as_bytes(plain_s_nk(path, x, h, kernel, k)), k


def test_a_single_weighted_state_is_degenerate_when_n_h_is_tiny():
    # n * h = 4.2e-9: the rounding residue of S0*S2 - S1^2 alone clears the
    # threshold, so only the count of distinct weighted offsets flags the fit
    path = make_path([0.017587767251939723, 1.0])
    est = local_linear_drift(path, 0.01758777041940872, 4.218282987293216e-09, builtin_kernel("triangular"))
    assert est.degenerate
    assert math.isnan(est.value)


@settings(max_examples=80, deadline=None)
@given(
    data=st.data(),
    n=st.integers(min_value=1, max_value=200),
    state=st.floats(min_value=-100.0, max_value=100.0),
    offset=st.floats(min_value=-1.0, max_value=1.0),
    kernel=kernels,
)
def test_fewer_than_two_distinct_weighted_states_is_degenerate(data, n, state, offset, kernel):
    h = data.draw(st.floats(min_value=1e-12 / n, max_value=100.0))
    weighted = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    far = state + 10.0 * h + 1.0
    x = [state if w else far for w in weighted] + [data.draw(finite)]
    xq = state - h * offset
    assert local_linear_drift(make_path(x), xq, h, kernel).degenerate
