"""Properties of the lockstep Euler engine over random inputs: a batch of
paths is bit for bit the same paths stepped one at a time, the streamed
increments are the sampler's stream, each model's array branches are its
scalar branches, and replicate seeds never collide."""
from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from stabledrift import (
    SdeModel,
    StableParams,
    builtin_model,
    derive_replicate_seed,
    model_names,
    sample_standard_stable,
    simulate_path,
    simulate_paths,
)
from stabledrift.simulate import _CHUNK

MODELS = {
    "ou_linear": [{}, {"gamma": 0.5, "lam": 2.0, "sigma": 0.7}],
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


def _zero_drift(sigma: float) -> SdeModel:
    def zero(x):
        return 0.0 if isinstance(x, float) else np.zeros_like(np.asarray(x, dtype=float))

    def constant(x):
        return sigma if isinstance(x, float) else np.full_like(np.asarray(x, dtype=float), sigma)

    return SdeModel(
        name="zero_drift", params={}, mu=zero, mu_prime=zero, mu_double_prime=zero,
        sigma=constant, sigma_bounds=(sigma, sigma), lipschitz_mu=1.0, sigma_constant=True,
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
