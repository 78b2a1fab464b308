"""Properties of the lockstep Euler engine over random inputs: a batch of
paths is bit for bit the same paths stepped one at a time, the streamed
increments are the sampler's stream, the block scan of an affine drift
follows the step-by-step loop, each model's array branches are its scalar
branches, each declared stepper is the generic Euler step, and replicate
seeds never collide."""
from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from stabledrift.models import _generic_step, euler_step
from stabledrift.simulate import _CHUNK, _PASS, _stable_blocks

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
    # 300 seeds step as two lockstep passes of 150 into one states array
    assert _PASS < 300 <= 2 * _PASS
    model = builtin_model("bounded_nonlinear")
    noise = StableParams(1.5, 0.3)
    batch = [derive_replicate_seed(5, index) for index in range(300)]
    paths = simulate_paths(model, noise, 0.5, 300, 0.01, batch, burn_in=100)
    for seed, path in zip(batch, paths):
        alone = simulate_path(model, noise, 0.5, 300, 0.01, seed, burn_in=100)
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


def _extended_ou(gamma, lam, delta, scale, noise, x0, n, seed, burn_in):
    """The Euler recurrence of ou_linear in long double arithmetic, on the
    engine's scaled increments: a reference for both routes."""
    total = burn_in + n
    terms = np.asarray(sample_standard_stable(noise, np.random.Generator(np.random.PCG64(seed)), size=total)) * scale
    one = np.longdouble(1.0)
    gamma, lam, delta = gamma * one, lam * one, delta * one
    x = one * x0
    states = [x]
    for term in terms.tolist():
        x = x + (gamma - lam * x) * delta + term * one
        states.append(x)
    return np.array(states[burn_in:], dtype=np.longdouble)


@pytest.mark.skipif(np.finfo(np.longdouble).precision < 18, reason="long double is not wider than double here")
@settings(max_examples=40, deadline=None)
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
        assert np.all(np.abs(scan.x - exact) <= 1e-12 * (1.0 + np.abs(exact)))
        # Near a = 1 the loop's own rounding walks: with a = 1 - 2e-152 it
        # strayed 1.0e-12 relative from the reference over 2271 steps, where
        # the scan stayed within 1.6e-14.  Its distance is allowed on top.
        loop_error = np.abs(step.x - exact).astype(float)
        assert np.all(np.abs(scan.x - step.x) <= 1e-12 * (1.0 + np.abs(step.x)) + loop_error)


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
    total=st.tuples(st.integers(min_value=1, max_value=3), st.sampled_from([-1, 0, 1])).map(
        lambda pair: pair[0] * _CHUNK + pair[1]
    ),
)
def test_reused_stream_blocks_are_the_sampler_stream(noise, batch, total):
    # every block is drawn into the same buffers, and a short last block
    # follows full ones: each row must still be the sampler's own draws
    rows = [[] for _ in batch]
    drawn = 0
    for block in _stable_blocks(noise, batch, total):
        assert block.shape == (len(batch), min(_CHUNK, total - drawn))
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


@settings(max_examples=100, deadline=None)
@given(
    case=st.sampled_from(STEPPED),
    delta=st.one_of(st.floats(min_value=1e-6, max_value=50.0), st.sampled_from([0.01, 0.1])),
    pairs=big_states.flatmap(lambda xs: st.tuples(st.just(xs), st.lists(
        st.floats(allow_nan=False, allow_infinity=False), min_size=len(xs), max_size=len(xs)))),
)
def test_declared_steppers_take_the_generic_step_bit_for_bit(case, delta, pairs):
    model = builtin_model(*case)
    xs, terms = pairs
    generic = _generic_step(model, delta)
    step = euler_step(model, delta)
    arr, term_arr = np.asarray(xs, dtype=float), np.asarray(terms, dtype=float)
    before = arr.tobytes() + term_arr.tobytes()
    out, generic_out = np.empty_like(arr), np.empty_like(arr)
    with np.errstate(all="ignore"):
        expected = np.array([generic(x, t) for x, t in zip(xs, terms)], dtype=float)
        floats = np.array([step(x, t) for x, t in zip(xs, terms)], dtype=float)
        vector = euler_step(model, delta, arr.size)(arr, term_arr, out)
        generic_vector = _generic_step(model, delta, arr.size)(arr, term_arr, generic_out)
    assert vector is out and generic_vector is generic_out
    assert arr.tobytes() + term_arr.tobytes() == before
    assert floats.tobytes() == expected.tobytes()
    assert vector.tobytes() == expected.tobytes()
    assert generic_vector.tobytes() == expected.tobytes()


@settings(max_examples=20, deadline=None)
@given(
    case=st.sampled_from(STEPPED),
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
