"""Counter-based random number streams.

Reproducibility contract: a stream is identified by ``(seed, stream_id)`` and
its output depends on nothing else -- not on thread scheduling, not on other
streams, not on how draws are sliced into calls.  The simulation harness gives
path ``i`` the stream ``(seed, i)``, so results are bit-identical no matter how
paths are chunked or parallelized.

Built on numpy's Philox generator, which is counter-based by construction:
stream ``(seed, stream_id)`` yields exactly the draws of
``Generator(Philox(key=(seed mod 2**64, stream_id mod 2**64)))``.

Opening a stream builds no generator; it only computes the key.  A stream's
first draw comes from one generator per thread whose state is set to the
key's fresh state (counter 0, empty buffer), which costs a few microseconds
where building a ``Philox`` costs several times that.  A second draw opens
the stream's own generator, replays the first draw on it and continues from
there, so a long-lived stream costs O(1) per draw.  The harness draws each
path's noise block first and touches the stream again only to retry, so
only paths that retry open a generator of their own.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np
from numpy.random import Generator, Philox

_local = threading.local()


def _thread_generator(key: tuple) -> Generator:
    """This thread's shared generator, set to the fresh state of ``key``."""
    gen = getattr(_local, "gen", None)
    if gen is None:
        gen = _local.gen = Generator(Philox(0))
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": key},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return gen


@dataclass
class RngStream:
    """An independent Gaussian/uniform source keyed by ``(seed, stream_id)``."""

    seed: int
    stream_id: int = 0
    _key: tuple = field(init=False, repr=False)
    _gen: Generator | None = field(init=False, repr=False, default=None)
    _first: tuple | None = field(init=False, repr=False, default=None)

    def __post_init__(self) -> None:
        self._key = (int(self.seed) % (1 << 64), int(self.stream_id) % (1 << 64))

    def _draw(self, method: str, shape) -> np.ndarray:
        if self._gen is None:
            if self._first is None:
                out = getattr(_thread_generator(self._key), method)(shape)
                self._first = (method, shape)
                return out
            self._gen = Generator(Philox(key=self._key))
            first_method, first_shape = self._first
            getattr(self._gen, first_method)(first_shape)
        return getattr(self._gen, method)(shape)

    def normal(self, shape=()) -> np.ndarray:
        return self._draw("standard_normal", shape)

    def uniform(self, shape=()) -> np.ndarray:
        return self._draw("random", shape)
