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

A stream builds no generator; it holds only its Philox state (key, counter
and buffer).  Every draw comes from one generator per thread: the draw sets
that generator to the stream's state, draws, and saves the advanced state
back, which costs a few microseconds where building a ``Philox`` costs
several times that.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np
from numpy.random import Generator, Philox

from ._checks import require_integer

_local = threading.local()
_WORD = 1 << 64


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
    """An independent Gaussian/uniform source keyed by ``(seed, stream_id)``,
    each an int or numpy integer, and starting at Philox counter ``counter``."""

    seed: int
    stream_id: int = 0
    counter: int | tuple = 0
    _state: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        require_integer("seed", self.seed)
        require_integer("stream_id", self.stream_id)
        self._state = {
            "bit_generator": "Philox",
            "state": {"counter": _counter_words(self.counter),
                      "key": (int(self.seed) % _WORD, int(self.stream_id) % _WORD)},
            "buffer": (0, 0, 0, 0),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }

    def _draw(self, method: str, shape) -> np.ndarray:
        gen = getattr(_local, "gen", None)
        if gen is None:
            gen = _local.gen = Generator(Philox(0))
        gen.bit_generator.state = self._state
        out = getattr(gen, method)(shape)
        self._state = gen.bit_generator.state
        return out

    def normal(self, shape=()) -> np.ndarray:
        return self._draw("standard_normal", shape)

    def uniform(self, shape=()) -> np.ndarray:
        return self._draw("random", shape)
