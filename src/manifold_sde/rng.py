"""Counter-based random number streams.

Reproducibility contract: a stream is identified by ``(seed, stream_id,
counter)`` and its output depends on nothing else -- not on process
scheduling, not on other streams, not on how draws are sliced into calls.
Stream ``(seed, stream_id, counter)`` yields exactly the draws of
``Generator(Philox(key=(seed mod 2**64, stream_id mod 2**64), counter=counter))``.
The counter is a Python int in [0, 2**256) or a tuple of four 64-bit words,
least significant first, and defaults to 0.  Philox is counter-based by
construction: a stream's draws come from the counter values after its start
(Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC'11), so
streams whose counters differ in a high word never overlap in practice.

The simulation harness addresses its noise through the counter (see
``harness``): the normals of a 64-path x 16-step block are one draw from the
stream ``(seed, path block, (0, time block, 0, 0))``, and a retry of path
``i`` at step ``j`` draws from ``(seed, i, (0, j, attempt, 0))``.

Opening a stream builds no generator; it only computes the key and counter.
A stream's first draw comes from one generator per thread whose state is set
to the stream's fresh state (its counter, an empty buffer), which costs a few
microseconds where building a ``Philox`` costs several times that.  A second
draw opens the stream's own generator, replays the first draw on it and
continues from there, so a long-lived stream costs O(1) per draw.  The
harness draws each stream once, so it never builds a generator of its own.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np
from numpy.random import Generator, Philox

_local = threading.local()
_WORD = 1 << 64


def _thread_generator(key: tuple, counter: tuple) -> Generator:
    """This thread's shared generator, set to the fresh state of ``(key, counter)``."""
    gen = getattr(_local, "gen", None)
    if gen is None:
        gen = _local.gen = Generator(Philox(0))
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": counter, "key": key},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return gen


def _counter_words(counter) -> tuple:
    """``counter`` as four 64-bit words, least significant first."""
    if isinstance(counter, (int, np.integer)):
        value = int(counter)
        if not 0 <= value < _WORD**4:
            raise ValueError(f"counter must lie in [0, 2**256), got {value}")
        return tuple((value >> (64 * k)) % _WORD for k in range(4))
    words = tuple(int(w) for w in counter)
    if len(words) != 4 or not all(0 <= w < _WORD for w in words):
        raise ValueError(f"counter must be four 64-bit words, got {counter!r}")
    return words


@dataclass
class RngStream:
    """An independent Gaussian/uniform source keyed by ``(seed, stream_id)``
    and starting at Philox counter ``counter``."""

    seed: int
    stream_id: int = 0
    counter: int | tuple = 0
    _key: tuple = field(init=False, repr=False)
    _counter: tuple = field(init=False, repr=False)
    _gen: Generator | None = field(init=False, repr=False, default=None)
    _first: tuple | None = field(init=False, repr=False, default=None)

    def __post_init__(self) -> None:
        self._key = (int(self.seed) % _WORD, int(self.stream_id) % _WORD)
        self._counter = _counter_words(self.counter)

    def _draw(self, method: str, shape) -> np.ndarray:
        if self._gen is None:
            if self._first is None:
                out = getattr(_thread_generator(self._key, self._counter), method)(shape)
                self._first = (method, shape)
                return out
            self._gen = Generator(Philox(key=self._key,
                                         counter=np.array(self._counter, dtype=np.uint64)))
            first_method, first_shape = self._first
            getattr(self._gen, first_method)(first_shape)
        return getattr(self._gen, method)(shape)

    def normal(self, shape=()) -> np.ndarray:
        return self._draw("standard_normal", shape)

    def uniform(self, shape=()) -> np.ndarray:
        return self._draw("random", shape)
