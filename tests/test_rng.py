import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from manifold_sde.rng import RngStream


def test_same_stream_replays():
    a = RngStream(seed=42, stream_id=7).normal((3, 4))
    b = RngStream(seed=42, stream_id=7).normal((3, 4))
    assert np.array_equal(a, b)


def test_streams_are_distinct():
    a = RngStream(seed=42, stream_id=0).normal((1000,))
    b = RngStream(seed=42, stream_id=1).normal((1000,))
    assert not np.array_equal(a, b)
    # and distinct seeds with the same stream id differ too
    c = RngStream(seed=43, stream_id=0).normal((1000,))
    assert not np.array_equal(a, c)


def test_sequential_draws_advance():
    s = RngStream(seed=0, stream_id=0)
    first = s.normal((5,))
    second = s.normal((5,))
    assert not np.array_equal(first, second)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**70), st.integers(min_value=0, max_value=2**40))
def test_any_seed_stream_pair_works(seed, stream):
    x = RngStream(seed=seed, stream_id=stream).normal((4,))
    assert x.shape == (4,) and np.all(np.isfinite(x))


def test_uniform_range():
    u = RngStream(seed=9, stream_id=3).uniform((2000,))
    assert np.all((u >= 0.0) & (u < 1.0))


def test_normal_moments():
    x = RngStream(seed=123, stream_id=0).normal((200_000,))
    assert abs(x.mean()) < 0.01
    assert abs(x.std() - 1.0) < 0.01

