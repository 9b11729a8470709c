"""Property-based checks for the small algebraic invariants."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from crowdtrack import ParticleSet, resample


@given(m=st.integers(min_value=1, max_value=64), seed=st.integers(0, 2**32 - 1))
def test_uniform_resampling_is_a_permutation(m, seed):
    rng = np.random.default_rng(seed)
    states = rng.standard_normal((m, 6))
    pset = ParticleSet(states, np.full(m, 1.0 / m))
    out = resample(pset, m, rng)
    assert np.array_equal(np.sort(out.states, axis=0), np.sort(states, axis=0))
    assert np.allclose(out.weights, 1.0 / m)


@given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 40))
def test_resampling_conserves_support(seed, m):
    rng = np.random.default_rng(seed)
    states = rng.standard_normal((m, 6))
    weights = rng.random(m)
    weights /= weights.sum()
    out = resample(ParticleSet(states, weights), m, rng)
    rows = {tuple(r) for r in states}
    assert all(tuple(r) in rows for r in out.states)
    assert out.size == m
