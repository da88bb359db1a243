"""Counter-based random number streams.

Reproducibility contract: a stream is identified by ``(seed, stream_id)`` and
its output depends on nothing else -- not on thread scheduling, not on other
streams, not on how draws are sliced into calls.  The simulation harness gives
path ``i`` the stream ``(seed, i)``, so results are bit-identical no matter how
paths are chunked or parallelized.

Built on numpy's Philox generator, which is counter-based by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class RngStream:
    """An independent Gaussian/uniform source keyed by ``(seed, stream_id)``."""

    seed: int
    stream_id: int = 0
    _gen: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self) -> None:
        key = (int(self.seed) % (1 << 64), int(self.stream_id) % (1 << 64))
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def normal(self, shape=()) -> np.ndarray:
        return self._gen.standard_normal(shape)

    def uniform(self, shape=()) -> np.ndarray:
        return self._gen.random(shape)
