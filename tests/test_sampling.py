"""The single-draw categorical helper is ``Generator.choice``, draw for draw."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.sampling import categorical_cdf, draw
from repro.workloads.lifetime import LIFETIME_MODELS, sample_lifetime

_WEIGHTS = st.lists(
    st.one_of(
        st.just(0.0),
        st.floats(min_value=1e-6, max_value=1e6, allow_nan=False),
    ),
    min_size=1,
    max_size=24,
).filter(lambda w: sum(w) > 0)

_SEEDS = st.integers(min_value=0, max_value=2**63 - 1)


@settings(max_examples=200, deadline=None)
@given(weights=_WEIGHTS, seed=_SEEDS)
def test_draw_matches_generator_choice(weights, seed):
    w = np.asarray(weights)
    p = w / w.sum()
    reference = np.random.default_rng(seed)
    helper = np.random.default_rng(seed)
    cdf = categorical_cdf(p)
    for _ in range(3):
        assert draw(cdf, helper) == int(reference.choice(len(p), p=p))
    # Same stream position afterwards.
    assert helper.random() == reference.random()


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(LIFETIME_MODELS)), seed=_SEEDS)
def test_sample_lifetime_matches_vector_sample(name, seed):
    model = LIFETIME_MODELS[name]
    reference = np.random.default_rng(seed)
    scalar = np.random.default_rng(seed)
    for _ in range(4):
        expected = float(model.sample(reference, 1)[0])
        assert sample_lifetime(name, scalar) == expected
    assert scalar.random() == reference.random()
