"""Monte Carlo estimation of E[ int_0^T g(X_s, s) ds + f(X_T, T) ] on a manifold.

Paths evolve on a uniform grid h = T / n_div.  Path i draws all of its noise
from the counter-based stream (seed, stream_id=i): one block of n_div
increments up front, then any retry draws in failure order.  That makes the
estimate bit-identical for a fixed config no matter how paths are chunked or
how many worker threads run, and lets a single path be replayed in isolation.
Opening a path's stream builds no generator: its block is drawn from one
generator per worker thread re-keyed to the stream, and only a path that
retries opens a generator of its own (see ``rng``).  The draws are those of
the stream's own generator either way, so the samples do not depend on it.

The running cost is accumulated as sum_j g(X_{j+1}, j h) * h (the post-step
point with the pre-step time, matching the reference loop order), plus the
terminal f(X_T, T).  Costs act on the functional representation of the state
(identity except for Grassmann, where points are presented as projectors).
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .geometry import ManifoldHandle, require_on_manifold
from .integrators import (
    INTEGRATOR_IDS,
    StepFailureError,
    Stepper,
    WienerIncrement,
    make_stepper,
    truncation_bound,
)
from .rng import RngStream

THREADS_ENV = "MANIFOLD_SDE_THREADS"


@dataclass(frozen=True)
class SimulationConfig:
    """Inputs of one Monte Carlo run; h = T / n_div."""

    T: float
    n_div: int
    n_path: int
    seed: int
    integrator: str = "ito-em"
    r: float = 1.0
    diffusion: float = 0.5
    max_retries: int = 5
    path_chunk: int = 256

    def __post_init__(self):
        if not (math.isfinite(self.T) and self.T > 0.0):
            raise ValueError(f"T must be positive and finite, got {self.T}")
        if self.n_div < 1 or self.n_path < 1:
            raise ValueError("n_div and n_path must be at least 1")
        if self.integrator not in INTEGRATOR_IDS:
            raise ValueError(
                f"unknown integrator {self.integrator!r}; valid ids: "
                f"{', '.join(INTEGRATOR_IDS)}"
            )
        if not (math.isfinite(self.r) and self.r >= 1.0):
            raise ValueError(f"truncation parameter r must be finite and >= 1, got {self.r}")
        if not (math.isfinite(self.diffusion) and self.diffusion > 0.0):
            raise ValueError(f"diffusion must be positive and finite, got {self.diffusion}")
        if self.max_retries < 0 or self.path_chunk < 1:
            raise ValueError("max_retries must be >= 0 and path_chunk >= 1")

    @property
    def h(self) -> float:
        return self.T / self.n_div


@dataclass(frozen=True)
class CostFunctional:
    """Running + terminal costs; either slot may be None (treated as zero).

    Both callables receive (points, t) with points batched over a leading
    axis, and must return one value per point without writing into points
    (they may be the harness's state array itself).
    """

    running: Callable | None = None
    terminal: Callable | None = None
    name: str = ""


@dataclass(frozen=True)
class SampleSet:
    """Per-path accumulated samples with summary statistics.

    A run either finishes every path or raises StepFailureError, so the
    mean and stderr cover all ``n_path`` samples; a non-finite cost value
    shows as a NaN estimate.  ``divergent`` is always empty; it stays only
    because ``perfbench/run.py`` still reads it.
    """

    samples: np.ndarray
    divergent: tuple = ()

    @property
    def n_path(self) -> int:
        return int(self.samples.shape[0])

    @property
    def mean(self) -> float:
        return float(np.mean(self.samples))

    @property
    def stderr(self) -> float:
        n = self.n_path
        if n < 2:
            return float("nan")
        return float(np.std(self.samples, ddof=1) / np.sqrt(n))


def _worker_count(n_chunks: int) -> int:
    """Worker threads for ``n_chunks`` chunks, capped by THREADS_ENV (0 or unset = auto)."""
    raw = os.environ.get(THREADS_ENV, "0").strip()
    try:
        cap = int(raw)
    except ValueError:
        cap = -1
    if cap < 0:
        raise ValueError(f"{THREADS_ENV} must be a non-negative integer, got {raw!r}")
    auto = min(n_chunks, os.cpu_count() or 1)
    return max(1, min(cap, n_chunks) if cap else auto)


def _run_chunk(handle: ManifoldHandle, stepper: Stepper, config: SimulationConfig,
               cost: CostFunctional, lo: int, hi: int) -> np.ndarray:
    """Advance paths [lo, hi) as whole arrays; returns their samples.

    Each step moves the whole chunk at once.  Rows the stepper flags are
    resampled from their own streams; a row still flagged after
    ``max_retries`` draws raises StepFailureError, the one way a run fails.
    """
    size = hi - lo
    h = config.h
    noise = stepper.noise_shape
    # normalized moves ignore the clamp entirely
    bound = truncation_bound(h, config.r) if stepper.uses_truncation else None

    def increment(raw):
        zeta = np.clip(raw, -bound, bound) if bound is not None else raw
        return WienerIncrement(raw=raw, truncated=zeta, h=h, r=config.r)

    streams = [RngStream(seed=config.seed, stream_id=i) for i in range(lo, hi)]
    blocks = np.stack([s.normal((config.n_div,) + noise) for s in streams], axis=1)

    # astype keeps the broadcast view's axis order; the copy makes the state
    # C-ordered, and the steppers' rounding depends on that layout
    state = np.broadcast_to(handle.default_point(), (size,) + handle.shape).astype(float).copy()
    acc = np.zeros(size)

    for j in range(config.n_div):
        t = j * h
        out = stepper.step(state, t, h, increment(blocks[j]))
        ok = np.asarray(out.ok)
        state[ok] = out.state[ok]

        attempts = 0
        pending = np.nonzero(~ok)[0]
        while pending.size:
            attempts += 1
            if attempts > config.max_retries:
                raise StepFailureError(
                    f"{handle.name}: path {lo + int(pending[0])} failed step {j} "
                    f"(t={t:.6g}) after {config.max_retries} retries"
                )
            raw = np.stack([streams[i].normal(noise) for i in pending])
            out = stepper.step(state[pending], t, h, increment(raw))
            ok = np.asarray(out.ok)
            state[pending[ok]] = out.state[ok]
            pending = pending[~ok]

        if cost.running is not None:
            pts = handle.functional_point(state)
            acc += h * np.asarray(cost.running(pts, t), dtype=float)

    if cost.terminal is not None:
        pts = handle.functional_point(state)
        acc += np.asarray(cost.terminal(pts, config.T), dtype=float)
    return acc


def simulate(config: SimulationConfig, handle: ManifoldHandle,
             cost: CostFunctional | None = None) -> SampleSet:
    """Run n_path independent paths from the handle's canonical point and
    accumulate the cost functional.

    The paths follow the Brownian motion with generator scale
    config.diffusion, in the form the chosen integrator consumes.
    """
    cost = cost if cost is not None else CostFunctional()
    stepper = make_stepper(handle, config.integrator, diffusion=config.diffusion)
    require_on_manifold(handle, handle.default_point(), tol=1e-8)

    chunks = [
        (lo, min(lo + config.path_chunk, config.n_path))
        for lo in range(0, config.n_path, config.path_chunk)
    ]
    samples = np.empty(config.n_path)

    def run(span):
        return _run_chunk(handle, stepper, config, cost, span[0], span[1])

    workers = _worker_count(len(chunks))
    if workers <= 1:
        results = [run(span) for span in chunks]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run, chunks))
    for (lo, hi), acc in zip(chunks, results):
        samples[lo:hi] = acc
    return SampleSet(samples=samples)


# ---------------------------------------------------------------------------
# cross-scheme comparison grids


@dataclass(frozen=True)
class ComparisonCell:
    integrator: str
    n_div: int
    mean: float
    stderr: float
    n_path: int


@dataclass(frozen=True)
class ComparisonTable:
    """Per-cell estimates plus the worst pairwise discrepancy.

    ``consistent`` is True when every pair of cells differs by at most three
    combined standard errors, hypot(stderr_a, stderr_b).  The cells share
    their per-path streams, so that allowance overstates the noise in a
    difference and can miss a real bias; see :func:`compare_methods`.
    """

    cells: tuple
    worst_gap: float
    worst_allowance: float
    worst_pair: tuple
    consistent: bool

    def cell(self, integrator: str, n_div: int) -> ComparisonCell:
        for c in self.cells:
            if c.integrator == integrator and c.n_div == n_div:
                return c
        raise KeyError(f"no cell ({integrator}, {n_div})")


def _pairwise_consistency(cells: Sequence[ComparisonCell]):
    worst_ratio = -1.0
    worst = (0.0, float("inf"), ("", ""))
    consistent = True
    for i in range(len(cells)):
        for k in range(i + 1, len(cells)):
            a, b = cells[i], cells[k]
            gap = abs(a.mean - b.mean)
            allowance = 3.0 * float(np.hypot(a.stderr, b.stderr))
            if gap > allowance:
                consistent = False
            ratio = gap / allowance if allowance > 0 else np.inf
            if ratio > worst_ratio:
                worst_ratio = ratio
                worst = (gap, allowance,
                         (f"{a.integrator}@{a.n_div}", f"{b.integrator}@{b.n_div}"))
    return worst[0], worst[1], worst[2], consistent


_COMPARED_INTEGRATORS = ("ito-em", "strat-heun", "geodesic-walk", "retractive-em")


def compare_methods(config: SimulationConfig, handle: ManifoldHandle,
                    cost: CostFunctional,
                    n_divs: Sequence[int] = (200, 500, 700)) -> ComparisonTable:
    """Estimate the same functional over an integrator x n_div grid.

    Every cell reuses the config's seed, so path i draws from the same
    stream (seed, i) in every cell and the cells are strongly positively
    correlated (common random numbers).  The pairwise check allows
    3 * hypot(stderr_a, stderr_b), which treats the cells as independent:
    under that correlation the allowance is loose, not conservative, and a
    real O(h) bias between schemes can pass it.  Paired-difference
    statistics are the open fix (ROADMAP item 5, coupled grids).
    """
    cells = []
    for integ in _COMPARED_INTEGRATORS:
        for nd in n_divs:
            cfg = replace(config, integrator=integ, n_div=int(nd))
            out = simulate(cfg, handle, cost=cost)
            cells.append(ComparisonCell(integrator=integ, n_div=int(nd),
                                        mean=out.mean, stderr=out.stderr,
                                        n_path=out.n_path))
    gap, allowance, pair, consistent = _pairwise_consistency(cells)
    return ComparisonTable(cells=tuple(cells), worst_gap=gap,
                           worst_allowance=allowance, worst_pair=pair,
                           consistent=consistent)


# ---------------------------------------------------------------------------
# long-time uniform limit


@dataclass(frozen=True)
class UniformLimitRow:
    cost_name: str
    brownian: SampleSet
    direct_mean: float
    direct_stderr: float

    @property
    def gap(self) -> float:
        return abs(self.brownian.mean - self.direct_mean)

    @property
    def allowance(self) -> float:
        return 3.0 * float(np.hypot(self.brownian.stderr, self.direct_stderr))

    @property
    def consistent(self) -> bool:
        return self.gap <= self.allowance


def uniform_limit_run(config: SimulationConfig, handle: ManifoldHandle, costs,
                      n_direct: int = 100_000) -> tuple:
    """Long-run Brownian estimates vs direct uniform sampling, per cost.

    ``costs`` is a sequence of (name, f) pairs with f acting on batched
    functional points; each is simulated with ``config``.  Only compact
    families have a uniform limit; the direct estimates come from the
    independent samplers in oracles, seeded from ``config.seed``.
    """
    from .oracles import uniform_cost_estimate

    if not handle.compact:
        raise ValueError(f"{handle.name} is not compact; no uniform limit")
    rows = []
    for k, (name, f) in enumerate(costs):
        cost = CostFunctional(terminal=lambda x, t, f=f: f(x), name=name)
        browny = simulate(config, handle, cost=cost)
        direct_rng = RngStream(seed=config.seed, stream_id=2**32 + k)
        dmean, dse = uniform_cost_estimate(handle, f, direct_rng, n_sample=n_direct)
        rows.append(UniformLimitRow(cost_name=name, brownian=browny,
                                    direct_mean=dmean, direct_stderr=dse))
    return tuple(rows)
