import sys
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from manifold_sde import SimulationConfig, make_manifold, rng, simulate
from manifold_sde.harness import THREADS_ENV
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



# ---------------------------------------------------------------------------
# bit identity with the keyed generator, and how often generators are built


def oracle(seed, stream_id):
    """The generator whose draws stream ``(seed, stream_id)`` reproduces."""
    return np.random.Generator(np.random.Philox(key=(seed % 2**64, stream_id % 2**64)))


@pytest.mark.parametrize("counter", [0, 1, 3 << 64, (0, 5, 0, 0), (7, 2, 1, 0),
                                     (2**64 - 1, 2**64 - 1, 2**64 - 1, 2**64 - 1)])
def test_counter_draws_match_the_philox_generator_at_that_counter(counter):
    words = counter if isinstance(counter, int) else np.array(counter, dtype=np.uint64)
    ref = np.random.Generator(np.random.Philox(key=(21, 8), counter=words))
    s = RngStream(21, 8, counter=counter)
    np.testing.assert_array_equal(s.normal((4, 3)), ref.standard_normal((4, 3)))
    np.testing.assert_array_equal(s.normal((5,)), ref.standard_normal((5,)))


@pytest.mark.parametrize("counter", [-1, 2**256, (0, 0, 0), (0, 0, 2**64, 0)])
def test_out_of_range_counter_is_rejected(counter):
    with pytest.raises(ValueError, match="counter"):
        RngStream(0, 0, counter=counter)


@pytest.mark.parametrize("seed,stream_id", [(0, 0), (7, 12345), (2**64 + 3, 2**65 + 11),
                                            (2**70, 2**64)])
def test_draws_match_the_keyed_philox_generator(seed, stream_id):
    # the harness's order: one block, retry-shaped draws, then a uniform after normals
    s, ref = RngStream(seed, stream_id), oracle(seed, stream_id)
    np.testing.assert_array_equal(s.normal((20, 3)), ref.standard_normal((20, 3)))
    for _ in range(3):
        np.testing.assert_array_equal(s.normal((3,)), ref.standard_normal((3,)))
    np.testing.assert_array_equal(s.uniform((5,)), ref.random((5,)))


def test_scalar_draws_match_the_keyed_philox_generator():
    s, ref = RngStream(3, 4), oracle(3, 4)
    first = s.normal()
    assert np.shape(first) == () and first == ref.standard_normal(())
    assert s.normal(()) == ref.standard_normal(())
    assert RngStream(5, 6).uniform() == oracle(5, 6).random(())


def test_interleaved_live_streams_match_the_keyed_philox_generator():
    # A1 B1 C1 ... A2 B2 C2 ...: every stream's later draws replay past the others
    streams = [RngStream(11, i) for i in range(50)]
    refs = [oracle(11, i) for i in range(50)]
    for _ in range(3):
        for s, ref in zip(streams, refs):
            np.testing.assert_array_equal(s.normal((4, 2)), ref.standard_normal((4, 2)))


def test_streams_drawn_from_two_threads_at_once_match():
    barrier = threading.Barrier(2)

    def draw(offset):
        streams = [RngStream(99, offset + i) for i in range(200)]
        barrier.wait(timeout=30)
        return [[s.normal((6,)) for s in streams] for _ in range(3)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = {offset: pool.submit(draw, offset) for offset in (0, 1000)}
            results = {offset: f.result(timeout=60) for offset, f in futures.items()}
    finally:
        sys.setswitchinterval(interval)
    for offset, rounds in results.items():
        refs = [oracle(99, offset + i) for i in range(200)]
        for row in rounds:
            for got, ref in zip(row, refs):
                np.testing.assert_array_equal(got, ref.standard_normal((6,)))


@pytest.fixture
def philox_builds(monkeypatch):
    """Every Philox the rng module builds, as (thread id, key or None)."""
    built = []

    def counting_philox(*args, **kwargs):
        built.append((threading.get_ident(), kwargs.get("key")))
        return np.random.Philox(*args, **kwargs)

    monkeypatch.setattr(rng, "Philox", counting_philox)
    return built


def test_paths_without_retries_build_one_shared_philox(philox_builds, monkeypatch):
    # one worker, so every build happens where the monkeypatch can count it
    monkeypatch.setenv(THREADS_ENV, "1")
    monkeypatch.setattr(rng, "_local", threading.local())
    so3 = make_manifold("so", N=3)
    out = simulate(SimulationConfig(T=1.0, n_div=10, n_path=64, seed=3, path_chunk=8), so3)
    assert out.n_path == 64
    assert [key for _, key in philox_builds] == [None]


def test_simulate_builds_no_philox_and_draws_every_stream_once(philox_builds, monkeypatch):
    # a retry-heavy run in one 64-path chunk: each block stream and each
    # retry stream is drawn once, so none opens a generator of its own
    monkeypatch.setenv(THREADS_ENV, "1")
    RngStream(0).normal()  # this thread's shared generator exists before counting
    philox_builds.clear()
    draws = Counter()
    normal = RngStream.normal

    def counted_normal(self, shape=()):
        draws[(self.seed, self.stream_id, self.counter)] += 1
        return normal(self, shape)

    monkeypatch.setattr(RngStream, "normal", counted_normal)
    spd = make_manifold("spd", N=3)
    simulate(SimulationConfig(T=6.0, n_div=40, n_path=64, seed=5), spd)
    blocks = [key for key in draws if key[2][2] == 0]
    retries = [key for key in draws if key[2][2] > 0]
    assert sorted(blocks) == [(5, 0, (0, tau, 0, 0)) for tau in range(3)]
    assert len(retries) > 0
    assert set(draws.values()) == {1}
    assert philox_builds == []
