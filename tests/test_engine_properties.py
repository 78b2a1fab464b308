"""Properties of the lockstep Euler engine over random inputs: a batch of
paths is bit for bit the same paths stepped one at a time, on any number of
threads, the streamed increments are the sampler's stream, the block scan
of an affine drift follows the step-by-step loop, each model's array
branches are its scalar branches, each declared stepper stays within a few
ulps of the exact Euler step, and replicate seeds never collide."""
from __future__ import annotations

import dataclasses
import os
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stabledrift import simulate
from stabledrift import (
    SdeModel,
    SimulationError,
    StableParams,
    builtin_model,
    derive_replicate_seed,
    model_names,
    sample_standard_stable,
    simulate_path,
    simulate_paths,
)
from stabledrift.models import _STEP_ULPS, _exact_step, _generic_step, _missed_ulps, euler_step
from stabledrift.simulate import _BLOCK_DRAWS, _CHUNK, _PASS, _simulate_paths, _stable_blocks

MODELS = {
    # lam 150 at delta 0.01 makes a = 1 - lam * delta negative in the affine scan
    "ou_linear": [{}, {"gamma": 0.5, "lam": 2.0, "sigma": 0.7}, {"gamma": 0.3, "lam": 150.0, "sigma": 0.5}],
    "tanh_drift": [{}, {"a": 1.7, "sigma": 0.4}],
    "bounded_nonlinear": [{}, {"lam": 0.0, "sigma1": 0.0}, {"lam": 2.0, "c": 0.3, "sigma0": 0.2, "sigma1": 1.5}],
}

seeds = st.integers(min_value=0, max_value=2 ** 64 - 1)
noises = st.builds(
    StableParams,
    alpha=st.floats(min_value=1.1, max_value=2.0),
    beta=st.floats(min_value=-1.0, max_value=1.0),
)
# lengths near multiples of the draw block, so paths straddle block edges
lengths = st.one_of(
    st.integers(min_value=0, max_value=3 * _CHUNK),
    st.sampled_from([0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK - 1]),
)


def test_every_registered_model_is_covered():
    assert set(MODELS) == set(model_names())


@settings(max_examples=30, deadline=None)
@given(
    name=st.sampled_from(sorted(MODELS)),
    variant=st.integers(min_value=0, max_value=2),
    noise=noises,
    batch=st.lists(seeds, min_size=1, max_size=5),
    n=lengths.filter(lambda v: v >= 1),
    burn_in=lengths,
    x0=st.floats(min_value=-3.0, max_value=3.0),
)
def test_batch_paths_equal_single_paths_bit_for_bit(name, variant, noise, batch, n, burn_in, x0):
    params = MODELS[name][variant % len(MODELS[name])]
    model = builtin_model(name, params)
    paths = simulate_paths(model, noise, x0, n, 0.01, batch, burn_in=burn_in)
    assert len(paths) == len(batch)
    for seed, path in zip(batch, paths):
        alone = simulate_path(model, noise, x0, n, 0.01, seed, burn_in=burn_in)
        assert path.seed == seed
        assert path.x.tobytes() == alone.x.tobytes()


def test_a_batch_of_two_passes_equals_single_paths_bit_for_bit():
    # 300 seeds step as two lockstep passes of 150 into one states array, in
    # blocks of 436 steps, so the 1100 steps straddle two block edges that
    # the single paths, in blocks of _CHUNK, do not have
    assert _PASS < 300 <= 2 * _PASS
    assert 2 * (_BLOCK_DRAWS // 150) < 1100 < _CHUNK
    model = builtin_model("bounded_nonlinear")
    noise = StableParams(1.5, 0.3)
    batch = [derive_replicate_seed(5, index) for index in range(300)]
    paths = simulate_paths(model, noise, 0.5, 1000, 0.01, batch, burn_in=100)
    for seed, path in zip(batch, paths):
        alone = simulate_path(model, noise, 0.5, 1000, 0.01, seed, burn_in=100)
        assert path.seed == seed
        assert path.x.tobytes() == alone.x.tobytes()


def _cubic_restoring() -> SdeModel:
    # x' = x - x^3 delta + xi delta^(1/alpha) overshoots without bound once a
    # jump carries the state past about sqrt(2 / delta), which few seeds do
    def zero(x):
        return 0.0 if isinstance(x, float) else np.zeros_like(np.asarray(x, dtype=float))

    def one(x):
        return 1.0 if isinstance(x, float) else np.ones_like(np.asarray(x, dtype=float))

    return SdeModel(
        name="cubic_restoring", params={}, mu=lambda x: -(x ** 3), mu_prime=zero, mu_double_prime=zero,
        sigma=one, sigma_bounds=(1.0, 1.0), lipschitz_mu=1.0,
    )


def test_an_explosion_in_a_later_pass_names_its_seed():
    model, noise = _cubic_restoring(), StableParams(1.2, 0.0)
    steady, failures = [], {}
    seed = 0
    while len(steady) < 299 or not failures:
        try:
            simulate_path(model, noise, 0.0, 200, 0.01, seed, burn_in=0)
            steady.append(seed)
        except SimulationError as exc:
            failures[seed] = str(exc)
        seed += 1
    bad, message = next(iter(failures.items()))
    # position 217 lies in the second of two passes of 150 seeds
    batch = steady[:217] + [bad] + steady[217:299]
    with pytest.raises(SimulationError) as caught:
        simulate_paths(model, noise, 0.0, 200, 0.01, batch, burn_in=0)
    assert str(caught.value) == f"seed {bad}: {message}"
    assert caught.value.path_index == 217


# the models on the affine scan, whose batches step on threads
AFFINE = [("ou_linear", {}), ("bounded_nonlinear", {"lam": 0.0, "sigma1": 0.0})]


@pytest.mark.parametrize("name, params", AFFINE, ids=[name for name, _ in AFFINE])
@pytest.mark.parametrize("width", [2, 7, 24, 300])
def test_threaded_batches_equal_single_paths_bit_for_bit(name, params, width):
    # 4700 steps straddle a draw block; 300 seeds make groups of 150, 128
    # and 85 seeds at 1, 2 and 3 threads.  Three threads outnumber the
    # cores of a small host, and a short switch interval interleaves them
    # often, so rows written by the wrong group would show.
    model, noise = builtin_model(name, params), StableParams(1.7, 0.4)
    assert model.sigma_constant and model.affine_drift is not None
    batch = [derive_replicate_seed(23, index) for index in range(width)]
    alone = [simulate_path(model, noise, 0.3, 600, 0.01, seed, burn_in=4100).x.tobytes() for seed in batch]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for threads in (1, 2, 3):
            before = threading.active_count()
            paths = _simulate_paths(model, noise, 0.3, 600, 0.01, batch, 4100, threads)
            # no helper thread outlives the call, so a pool may fork after it
            assert threading.active_count() == before
            assert [path.seed for path in paths] == batch
            assert [path.x.tobytes() for path in paths] == alone
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("name, params, threads", [("ou_linear", {}, 3), ("tanh_drift", {}, 1)])
def test_a_batch_takes_a_thread_per_usable_cpu_on_the_affine_scan_only(monkeypatch, name, params, threads):
    taken = []
    original = simulate._thread_map

    def recording(function, items, count):
        taken.append(count)
        return original(function, items, count)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    monkeypatch.setattr(simulate, "_thread_map", recording)
    simulate_paths(builtin_model(name, params), StableParams(1.5, 0.0), 0.0, 100, 0.01, range(7), burn_in=50)
    assert taken == [threads]


def _affine_explosions():
    """An ou_linear model whose rare large jumps leave the state bound, 298
    seeds that stay inside it over 200 steps, and two that leave it, the
    first returned at a later step than the second."""
    model, noise = builtin_model("ou_linear", {"sigma": 1e10}), StableParams(1.2, 0.0)
    steady, failures = [], {}
    seed = 0
    while len(steady) < 298 or len(set(failures.values())) < 2:
        try:
            simulate_path(model, noise, 0.0, 200, 0.01, seed, burn_in=0)
            steady.append(seed)
        except SimulationError as exc:
            failures[seed] = str(exc)
        seed += 1
    late, early = sorted(failures, key=lambda bad: int(failures[bad].split()[-1]), reverse=True)[:2]
    assert failures[late] != failures[early]
    return model, noise, steady, late, early, failures[early]


@pytest.mark.parametrize("width, late_at, early_at", [(12, 1, 10), (300, 100, 217)])
def test_the_earliest_failing_step_is_named_whatever_the_layout(width, late_at, early_at):
    # the later-positioned seed fails first; at 1 thread 300 seeds step as
    # two passes of 150, and the first pass's failure used to be named
    model, noise, steady, late, early, message = _affine_explosions()
    batch = steady[: width - 2]
    batch.insert(late_at, late)
    batch.insert(early_at, early)
    for threads in (1, 2, 3):
        before = threading.active_count()
        with pytest.raises(SimulationError) as caught:
            _simulate_paths(model, noise, 0.0, 200, 0.01, batch, 0, threads)
        assert threading.active_count() == before
        assert str(caught.value) == f"seed {early}: {message}"
        assert caught.value.path_index == early_at


def _extended_ou(gamma, lam, delta, scale, noise, x0, n, seed, burn_in):
    """The Euler recurrence of ou_linear in long double arithmetic, on the
    engine's scaled increments: a reference for both routes.  Its factor
    ``1 - lam * delta`` is formed from the double ``lam * delta``, as the
    engine forms it: where that product rounds to 1 the engine steps with a
    factor of exactly 0, and a factor of 1e-16 would carry a jump of 1e4
    into the next state."""
    total = burn_in + n
    terms = np.asarray(sample_standard_stable(noise, np.random.Generator(np.random.PCG64(seed)), size=total)) * scale
    one = np.longdouble(1.0)
    a = one - np.longdouble(lam * delta)
    shift = gamma * one * (delta * one)
    x = one * x0
    states = [x]
    for term in terms.tolist():
        x = a * x + shift + term * one
        states.append(x)
    return np.array(states[burn_in:], dtype=np.longdouble)


@pytest.mark.skipif(np.finfo(np.longdouble).precision < 18, reason="long double is not wider than double here")
@settings(max_examples=40, deadline=None)
# lam * delta rounds to exactly 1 in double here, and a jump to 1.3e5 follows
@example(gamma=0.0, rate=1.0, delta=0.375, sigma=1.0, noise=StableParams(1.125, 0.0), batch=[131],
         n=4095, burn_in=0, x0=0.0)
# the walk reaches |x| = 2863 at step 3968 and crosses zero at step 5908,
# still carrying the absolute rounding of that large state
@example(gamma=0.0, rate=1.1378453532023255e-23, delta=0.25, sigma=2.0, noise=StableParams(1.125, 1.0),
         batch=[36839], n=8191, burn_in=4, x0=0.0)
@given(
    gamma=st.floats(min_value=-5.0, max_value=5.0),
    rate=st.floats(min_value=0.0, max_value=1.9, exclude_min=True, exclude_max=True),
    delta=st.floats(min_value=0.01, max_value=0.5),
    sigma=st.floats(min_value=0.05, max_value=3.0),
    noise=noises,
    batch=st.lists(seeds, min_size=1, max_size=3),
    n=lengths.filter(lambda v: v >= 1),
    burn_in=lengths,
    x0=st.floats(min_value=-3.0, max_value=3.0),
)
def test_affine_scan_follows_the_step_loop(gamma, rate, delta, sigma, noise, batch, n, burn_in, x0):
    # rate is lam * delta, so a = 1 - rate spans (-0.9, 1)
    lam = rate / delta
    model = builtin_model("ou_linear", {"gamma": gamma, "lam": lam, "sigma": sigma})
    assert model.affine_drift is not None
    loop = dataclasses.replace(model, affine_drift=None)
    scale = sigma * delta ** (1.0 / noise.alpha)
    fast = simulate_paths(model, noise, x0, n, delta, batch, burn_in=burn_in)
    slow = simulate_paths(loop, noise, x0, n, delta, batch, burn_in=burn_in)
    for seed, scan, step in zip(batch, fast, slow):
        exact = _extended_ou(gamma, lam, delta, scale, noise, x0, n, seed, burn_in)
        # a state carries the absolute rounding of the largest state before
        # it, so each bound scales with the running maximum
        assert np.all(np.abs(scan.x - exact) <= 1e-12 * (1.0 + np.maximum.accumulate(np.abs(exact))))
        # Near a = 1 the loop's own rounding walks: with a = 1 - 2e-152 it
        # strayed 1.0e-12 relative from the reference over 2271 steps, where
        # the scan stayed within 1.6e-14.  Its distance is allowed on top.
        loop_error = np.abs(step.x - exact).astype(float)
        reach = np.maximum.accumulate(np.abs(step.x))
        assert np.all(np.abs(scan.x - step.x) <= 1e-12 * (1.0 + reach) + loop_error)


@pytest.mark.skipif(np.finfo(np.longdouble).precision < 18, reason="long double is not wider than double here")
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_affine_scan_keeps_a_near_one(seed):
    # At lam * delta = 1e-7 the rounded a raised to the power 2048 would
    # carry 2048 times a's rounding error: 2.5e-13 to 2.8e-13 here, against
    # at most 1.0e-15 for the scan's factors.
    noise, delta, lam = StableParams(1.5, 0.0), 0.1, 1e-6
    model = builtin_model("ou_linear", {"gamma": -2.0, "lam": lam, "sigma": 2.0})
    path = simulate_path(model, noise, 0.0, _CHUNK, delta, seed, burn_in=2 * _CHUNK)
    exact = _extended_ou(-2.0, lam, delta, 2.0 * delta ** (1.0 / 1.5), noise, 0.0, _CHUNK, seed, 2 * _CHUNK)
    assert np.all(np.abs(path.x - exact) <= 1e-14 * (1.0 + np.abs(exact)))


def _failure(model, noise, seeds):
    with pytest.raises(SimulationError) as caught:
        simulate_paths(model, noise, 0.0, 200, 3.0, seeds, burn_in=100)
    return str(caught.value), caught.value.path_index


@pytest.mark.parametrize("alpha, beta", [(1.5, 0.0), (1.2, 0.7), (2.0, 0.0)])
def test_affine_scan_fails_at_the_loop_step(alpha, beta):
    # delta 3 on x' = -x gives a = -2: the state flips and doubles each step
    model = builtin_model("ou_linear")
    loop = dataclasses.replace(model, affine_drift=None)
    noise = StableParams(alpha, beta)
    for seed in range(40):
        assert _failure(model, noise, [seed]) == _failure(loop, noise, [seed])
    batch = list(range(100, 140))
    assert _failure(model, noise, batch) == _failure(loop, noise, batch)


def _zero_drift(sigma: float) -> SdeModel:
    def zero(x):
        return 0.0 if isinstance(x, float) else np.zeros_like(np.asarray(x, dtype=float))

    def constant(x):
        return sigma if isinstance(x, float) else np.full_like(np.asarray(x, dtype=float), sigma)

    return SdeModel(
        name="zero_drift", params={}, mu=zero, mu_prime=zero, mu_double_prime=zero,
        sigma=constant, sigma_bounds=(sigma, sigma), lipschitz_mu=1.0,
    )


@settings(max_examples=25, deadline=None)
@given(noise=noises, seed=seeds, n=lengths.filter(lambda v: v >= 1), burn_in=lengths,
       width=st.integers(min_value=1, max_value=3))
def test_streamed_increments_are_the_sampler_stream(noise, seed, n, burn_in, width):
    # With zero drift from x0 = 0 the states are running sums of the scaled
    # increments, and those must be the sampler's draws from PCG64(seed).
    delta = 0.04
    scale = 2.0 * delta ** (1.0 / noise.alpha)
    total = burn_in + n
    xi = np.asarray(sample_standard_stable(noise, np.random.Generator(np.random.PCG64(seed)), size=total))
    expected = np.cumsum(np.concatenate([[0.0], xi * scale]))[burn_in:]
    paths = simulate_paths(_zero_drift(2.0), noise, 0.0, n, delta, [seed] * width, burn_in=burn_in)
    for path in paths:
        assert path.x.tobytes() == expected.tobytes()


@settings(max_examples=25, deadline=None)
@given(
    noise=st.builds(
        StableParams,
        alpha=st.floats(min_value=1.0, max_value=2.0, exclude_min=True),
        beta=st.floats(min_value=-1.0, max_value=1.0),
    ),
    batch=st.lists(seeds, min_size=1, max_size=5),
    # the affine scan's block, and the capped blocks of 96 and _PASS paths
    length=st.sampled_from([_CHUNK, _BLOCK_DRAWS // 96, _BLOCK_DRAWS // _PASS]),
    blocks=st.integers(min_value=1, max_value=3),
    edge=st.sampled_from([-1, 0, 1]),
)
def test_reused_stream_blocks_are_the_sampler_stream(noise, batch, length, blocks, edge):
    # every block is drawn into the same buffers, and a short last block
    # follows full ones: each row must still be the sampler's own draws
    total = blocks * length + edge
    rows = [[] for _ in batch]
    drawn = 0
    for block in _stable_blocks(noise, batch, total, length):
        assert block.shape == (len(batch), min(length, total - drawn))
        drawn += block.shape[1]
        for row, values in zip(rows, block):
            row.append(values.copy())
    assert drawn == total
    for seed, row in zip(batch, rows):
        expected = np.asarray(sample_standard_stable(noise, np.random.Generator(np.random.PCG64(seed)), size=total))
        assert np.concatenate(row).tobytes() == expected.tobytes()


states = st.lists(
    st.one_of(st.floats(min_value=-1e6, max_value=1e6), st.floats(min_value=-5.0, max_value=5.0)),
    min_size=1,
    max_size=64,
)


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(MODELS)), variant=st.integers(min_value=0, max_value=2), xs=states)
def test_array_branches_equal_scalar_branches_bit_for_bit(name, variant, xs):
    model = builtin_model(name, MODELS[name][variant % len(MODELS[name])])
    arr = np.asarray(xs, dtype=float)
    for fn in (model.mu, model.sigma):
        scalar = np.array([fn(float(v)) for v in xs], dtype=float)
        assert np.asarray(fn(arr), dtype=float).tobytes() == scalar.tobytes()


STEPPED = [(name, params) for name in sorted(MODELS) for params in MODELS[name]
           if builtin_model(name, params).stepper is not None]
# magnitudes up to the float range, where x * x and the step itself overflow
big_states = st.lists(
    st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.floats(min_value=-5.0, max_value=5.0)),
    min_size=1,
    max_size=64,
)


def test_models_with_a_stepper_are_covered():
    assert {name for name, _ in STEPPED} == {"tanh_drift", "bounded_nonlinear"}


TANH = [case for case in STEPPED if case[0] == "tanh_drift"]
step_sizes = st.one_of(st.floats(min_value=1e-6, max_value=50.0), st.sampled_from([0.01, 0.1]))
# terms up to the float range too, where a step leaves the state bound
state_term_pairs = big_states.flatmap(lambda xs: st.tuples(st.just(xs), st.lists(
    st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.floats(min_value=-10.0, max_value=10.0)),
    min_size=len(xs), max_size=len(xs))))


def _single_steps(block_of, delta, xs, terms):
    """Each state stepped once with its term by the block steppers
    ``block_of(delta, width)``, on floats and as one vector block of one
    step; either form must return its last state."""
    arr = np.asarray(xs, dtype=float)
    floats = []
    for x, term in zip(xs, terms):
        rows: list = []
        assert block_of(delta, None)(x, np.array([term]), rows) is rows[-1]
        floats.append(rows[0])
    rows = np.empty((1, arr.size))
    last = block_of(delta, arr.size)(arr.copy(), np.array([terms], dtype=float), rows)
    assert last.tobytes() == rows[0].tobytes()
    return np.array(floats, dtype=float), rows[0]


@pytest.mark.skipif(np.finfo(np.longdouble).precision < 18, reason="long double is not wider than double here")
@settings(max_examples=150, deadline=None)
@given(case=st.sampled_from(STEPPED), delta=step_sizes, pairs=state_term_pairs)
# subnormal states, where the product with delta scales mu(x)'s rounding
@example(case=("bounded_nonlinear", {}), delta=17.0, pairs=([5e-324, 1e-310], [0.0, 0.0]))
def test_steps_stay_within_the_bound_of_the_exact_step(case, delta, pairs):
    # Where |x| + |mu(x) delta| + |sigma(x) term| is finite and inside the
    # state bound, the declared and the generic step both miss the exact
    # step by at most _STEP_ULPS ulps of that sum plus the underflow term
    # _STEP_UNDERFLOW * delta * 2^-1074; where the exact step
    # from a state inside the bound lands more than twice the bound out,
    # both leave the bound.  The float and vector forms agree bit for bit.
    model = builtin_model(*case)
    xs, terms = pairs
    arr = np.asarray(xs, dtype=float)
    with np.errstate(all="ignore"):
        exact, size = _exact_step(model, delta, arr, np.asarray(terms, dtype=float))
        inside = np.isfinite(size) & (size < 1e12)
        far_out = (np.abs(arr) < 1e12) & ~(np.abs(exact) <= 2e12)
        for block_of in (model.stepper, lambda d, w: _generic_step(model, d, w)):
            floats, vector = _single_steps(block_of, delta, xs, terms)
            assert floats.tobytes() == vector.tobytes()
            missed = _missed_ulps(vector, exact, size, delta)
            assert np.all(missed[inside] <= _STEP_ULPS)
            assert not np.any(np.abs(vector[far_out]) < 1e12)


@settings(max_examples=100, deadline=None)
@given(case=st.sampled_from(TANH), delta=step_sizes, pairs=state_term_pairs)
def test_tanh_drift_stepper_takes_the_generic_step_bit_for_bit(case, delta, pairs):
    model = builtin_model(*case)
    xs, terms = pairs
    with np.errstate(all="ignore"):
        fused = _single_steps(model.stepper, delta, xs, terms)
        generic = _single_steps(lambda d, w: _generic_step(model, d, w), delta, xs, terms)
    for got, expected in zip(fused, generic):
        assert got.tobytes() == expected.tobytes()


@settings(max_examples=20, deadline=None)
@given(
    case=st.sampled_from(TANH),
    noise=noises,
    batch=st.lists(seeds, min_size=1, max_size=4),
    n=lengths.filter(lambda v: v >= 1),
    burn_in=lengths,
    x0=st.floats(min_value=-3.0, max_value=3.0),
)
def test_stepper_paths_equal_generic_paths(case, noise, batch, n, burn_in, x0):
    model = builtin_model(*case)
    generic = dataclasses.replace(model, stepper=None)
    fused = simulate_paths(model, noise, x0, n, 0.01, batch, burn_in=burn_in)
    plain = simulate_paths(generic, noise, x0, n, 0.01, batch, burn_in=burn_in)
    for a, b in zip(fused, plain):
        assert a.x.tobytes() == b.x.tobytes()


@pytest.mark.parametrize("width", [1, 2, 97])
@pytest.mark.parametrize("case", STEPPED + [("bounded_nonlinear", {"lam": 1.0, "sigma1": 0.0})])
def test_float_route_equals_vector_route_across_a_block_boundary(case, width):
    # the vector route driven in blocks of _CHUNK, at width 1 too, against
    # each path stepped alone on floats, and against the batch, which the
    # engine steps in blocks of 675 at width 97
    model = builtin_model(*case)
    noise, delta, total = StableParams(1.5, 0.0), 0.01, _CHUNK + 300
    batch = [derive_replicate_seed(25, j) for j in range(width)]
    scale = delta ** (1.0 / noise.alpha) * (model.sigma_bounds[0] if model.sigma_constant else 1.0)
    advance = euler_step(model, delta, width)
    state, blocks = np.zeros(width), []
    with np.errstate(all="ignore"):
        for xi in _stable_blocks(noise, batch, total, _CHUNK):
            rows = np.empty((xi.shape[1], width))
            state = advance(state, xi.T * scale, rows).copy()
            blocks.append(rows)
    vector = np.concatenate(blocks).T
    for seed, row in zip(batch, vector):
        assert simulate_path(model, noise, 0.0, total, delta, seed, burn_in=0).x[1:].tobytes() == row.tobytes()
    if width > 1:
        for path, row in zip(simulate_paths(model, noise, 0.0, total, delta, batch, burn_in=0), vector):
            assert path.x[1:].tobytes() == row.tobytes()


@pytest.mark.parametrize("case", [case for case in STEPPED if case[0] == "bounded_nonlinear"])
def test_stepper_fails_where_the_generic_step_fails(case):
    # delta 40 makes the drift overshoot by a factor of at least 11 each step
    model = builtin_model(*case)
    generic = dataclasses.replace(model, stepper=None)
    noise = StableParams(1.5, 0.0)

    def failure(m, batch):
        with pytest.raises(SimulationError) as caught:
            simulate_paths(m, noise, 0.5, 200, 40.0, batch, burn_in=50)
        return str(caught.value), caught.value.path_index

    for batch in ([3], [11], list(range(20, 45))):
        assert failure(model, batch) == failure(generic, batch)


@settings(max_examples=200, deadline=None)
@given(
    master=st.integers(min_value=-(2 ** 63), max_value=2 ** 64 - 1),
    i=st.integers(min_value=0, max_value=2 ** 64 - 1),
    j=st.integers(min_value=0, max_value=2 ** 64 - 1),
)
def test_replicate_seed_is_injective_in_the_index(master, i, j):
    a = derive_replicate_seed(master, i)
    b = derive_replicate_seed(master, j)
    assert 0 <= a < 2 ** 64
    assert (a == b) == (i == j)
