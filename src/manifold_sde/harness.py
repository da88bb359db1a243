"""Monte Carlo estimation of E[ int_0^T g(X_s, s) ds + f(X_T, T) ] on a manifold.

Paths evolve on a uniform grid h = T / n_div.  Every normal is a pure
function of (seed, path, step, attempt), addressed through the Philox counter
(see ``rng``).  Paths 64 b ... 64 b + 63 over steps 16 tau ... 16 tau + 15
form block (b, tau), whose increments are one C-ordered
``(steps, 64) + noise_shape`` draw from the stream ``(seed, b, (0, tau, 0, 0))``;
the last time block draws ``min(16, n_div - 16 tau)`` steps, a prefix of the
same layout.  Attempt a >= 1 of path i at step j draws ``noise_shape`` from
the stream ``(seed, i, (0, j, a, 0))``, so a retry's values do not depend on
which other rows failed.  That makes the estimate bit-identical for a fixed
config no matter how paths are chunked or how many worker processes run, and
lets one increment be replayed by one stream call.  A chunk holds the noise
of one time block at a time, so its noise memory is bounded by
chunk x 16 x noise size whatever n_div is.

Chunks of paths run in forked worker processes (``os.fork``): the calling
process is worker 0 and forks ``workers - 1`` children, chunk k goes to worker
k mod workers, and every worker runs its chunks in ascending order.  Each run
plans its chunks for its worker count (``_plan_chunks``), so every worker runs
as many chunks of near-equal size.  The children write their samples into one
shared anonymous ``mmap`` and report their least failure through a pipe.  A
failing run raises the StepFailureError of the earliest step, and of the
lowest path at that step, which is what one chunk holding every path raises;
any other exception comes first, from the lowest chunk that raised one.  With
one worker, which is all there is without ``os.fork``, nothing is forked.

The running cost is accumulated as sum_j g(X_{j+1}, j h) * h (the post-step
point with the pre-step time, matching the reference loop order), plus the
terminal f(X_T, T).  Costs act on the functional representation of the state
(identity except for Grassmann, where points are presented as projectors).
"""

from __future__ import annotations

import math
import mmap
import os
import pickle
import signal
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from ._checks import require_integer, require_real
from .geometry import ManifoldHandle, require_on_manifold
from .integrators import (
    INTEGRATOR_IDS,
    TRUNCATED_IDS,
    StepFailureError,
    Stepper,
    WienerIncrement,
    make_stepper,
    truncation_bound,
)
from .rng import RngStream

THREADS_ENV = "MANIFOLD_SDE_THREADS"

# the noise layout: paths and steps per block drawn by one stream (see _noise_block)
BLOCK_PATHS = 64
BLOCK_STEPS = 16


class WorkerProcessError(RuntimeError):
    """A worker process ended without reporting on its chunks.

    ``status`` is the exit status, or minus the signal that killed it.
    """

    def __init__(self, pid: int, status: int):
        self.pid = pid
        self.status = status
        how = f"killed by signal {-status}" if status < 0 else f"exited with status {status}"
        super().__init__(f"worker process {pid} {how} without a report")


@dataclass(frozen=True)
class SimulationConfig:
    """Inputs of one Monte Carlo run; h = T / n_div.

    ``path_chunk`` is an upper bound on the paths per chunk; each run plans
    its chunks for its worker count (see ``_plan_chunks``).  The counts
    ``n_div``, ``n_path``, ``seed``, ``max_retries`` and ``path_chunk`` are
    ints or numpy integers, and ``T``, ``r`` and ``diffusion`` real numbers;
    none of them is a bool.  The schemes that clamp their increments
    (``TRUNCATED_IDS``) need h in (0, 1); the walks take any h.
    """

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
        for name in ("n_div", "n_path", "seed", "max_retries", "path_chunk"):
            require_integer(name, getattr(self, name))
        for name in ("T", "r", "diffusion"):
            require_real(name, getattr(self, name))
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
        if self.integrator in TRUNCATED_IDS:
            truncation_bound(self.h, self.r)  # raises a ValueError naming h unless 0 < h < 1
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
    mean and stderr cover all ``n_path`` samples.  ``mean`` is NaN when a
    sample is NaN or both +inf and -inf occur, else +-inf when one does;
    ``stderr`` is NaN when a sample is non-finite or n_path < 2.
    ``divergent`` is always empty; it stays only because
    ``perfbench/run.py`` still reads it.
    """

    samples: np.ndarray
    divergent: tuple = ()

    @property
    def n_path(self) -> int:
        return int(self.samples.shape[0])

    @property
    def mean(self) -> float:
        with np.errstate(invalid="ignore"):  # inf + -inf is NaN
            return float(np.mean(self.samples))

    @property
    def stderr(self) -> float:
        n = self.n_path
        if n < 2 or not np.all(np.isfinite(self.samples)):
            return float("nan")
        return float(np.std(self.samples, ddof=1) / np.sqrt(n))


def _worker_count(config: SimulationConfig) -> int:
    """Worker processes for one run, capped by THREADS_ENV (0 or unset = auto).

    A cap gives min(cap, ceil(n_path / path_chunk)).  Auto gives up to the
    CPUs the process may run on (its affinity mask where the OS has one:
    ``taskset`` or a cpuset can leave fewer than ``os.cpu_count()``), but no
    more workers than started blocks of 64 x 16 path-steps,
    so a run of at most one block does not fork, and never more than the
    paths.  Without ``os.fork`` there is one.
    """
    raw = os.environ.get(THREADS_ENV, "0").strip()
    try:
        cap = int(raw)
    except ValueError:
        cap = -1
    if cap < 0:
        raise ValueError(f"{THREADS_ENV} must be a non-negative integer, got {raw!r}")
    if not hasattr(os, "fork"):
        return 1
    if cap:
        return max(1, min(cap, -(-config.n_path // config.path_chunk)))
    blocks = -(-config.n_path * config.n_div // (BLOCK_PATHS * BLOCK_STEPS))
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, blocks, config.n_path))


def _plan_chunks(n_path: int, path_chunk: int, workers: int) -> list:
    """Contiguous (lo, hi) chunks covering paths [0, n_path) in order.

    There are k = workers * ceil(n_path / (workers * path_chunk)) chunks, so
    every worker runs as many, and none holds more than path_chunk paths.
    Whole 64-path blocks are shared out when every chunk then gets one,
    the larger shares going last, where the short final block is; chunk
    sizes then differ by at most one block.  Otherwise paths are shared out
    the same way and sizes differ by at most one path; a chunk left empty
    (k above n_path) is dropped.
    """
    k = workers * -(-n_path // (workers * path_chunk))

    def edges(units, size):
        q, rem = divmod(units, k)
        return [min(n_path, size * (i * q + max(0, i - k + rem))) for i in range(k + 1)]

    bounds = edges(-(-n_path // BLOCK_PATHS), BLOCK_PATHS)
    sizes = np.diff(bounds)
    if sizes.min() < 1 or sizes.max() > path_chunk:
        bounds = edges(n_path, 1)
    return [(lo, hi) for lo, hi in zip(bounds, bounds[1:]) if hi > lo]


def _noise_block(seed: int, lo: int, hi: int, tau: int, steps: int, noise: tuple) -> np.ndarray:
    """Main increments of paths [lo, hi) at steps 16 tau ... 16 tau + steps - 1,
    shaped (steps, hi - lo) + noise.

    Path block b holds paths 64 b ... 64 b + 63; its increments over time
    block tau are one C-ordered ``(steps, 64) + noise`` draw from the stream
    ``(seed, b, (0, tau, 0, 0))``.  A shorter last time block draws a prefix
    of that layout, so step j's normals do not depend on ``n_div``.
    """
    first, last = lo // BLOCK_PATHS, (hi - 1) // BLOCK_PATHS
    shape = (steps, BLOCK_PATHS) + noise
    parts = [RngStream(seed, stream_id=b, counter=(0, tau, 0, 0)).normal(shape)
             for b in range(first, last + 1)]
    block = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)
    offset = first * BLOCK_PATHS
    return block[:, lo - offset:hi - offset]


def _run_chunk(handle: ManifoldHandle, stepper: Stepper, config: SimulationConfig,
               cost: CostFunctional, lo: int, hi: int) -> np.ndarray:
    """Advance paths [lo, hi) as whole arrays; returns their samples.

    Each step moves the whole chunk at once.  The chunk holds the noise of
    one time block at a time (``_noise_block``).  A stepper's rows are final
    (a flagged row is its previous state, bit for bit), so the chunk takes
    them whole.  A row the stepper flags is resampled, attempt a of path i at
    step j drawing from the stream ``(seed, i, (0, j, a, 0))``; a row still
    flagged after ``max_retries`` draws raises StepFailureError, the one way
    a run fails.
    """
    size = hi - lo
    h = config.h
    noise = stepper.noise_shape
    # normalized moves ignore the clamp entirely
    bound = truncation_bound(h, config.r) if stepper.uses_truncation else None

    def increment(raw):
        zeta = np.clip(raw, -bound, bound) if bound is not None else raw
        return WienerIncrement(raw=raw, truncated=zeta, h=h, r=config.r)

    # astype keeps the broadcast view's axis order; the copy makes the state
    # C-ordered, and the steppers' rounding depends on that layout
    state = np.broadcast_to(handle.default_point(), (size,) + handle.shape).astype(float).copy()
    acc = np.zeros(size)

    for j in range(config.n_div):
        t = j * h
        tau, s = divmod(j, BLOCK_STEPS)
        if s == 0:
            block = _noise_block(config.seed, lo, hi, tau,
                                 min(BLOCK_STEPS, config.n_div - j), noise)
        out = stepper.step(state, t, h, increment(block[s]))
        state = out.state

        attempt = 0
        pending = np.nonzero(~np.asarray(out.ok))[0]
        while pending.size:
            attempt += 1
            if attempt > config.max_retries:
                path = lo + int(pending[0])
                raise StepFailureError(
                    f"{handle.name}: path {path} failed step {j} "
                    f"(t={t:.6g}) after {config.max_retries} retries",
                    step=j, path=path,
                )
            raw = np.stack([
                RngStream(config.seed, stream_id=lo + i, counter=(0, j, attempt, 0)).normal(noise)
                for i in pending.tolist()
            ])
            out = stepper.step(state[pending], t, h, increment(raw))
            state[pending] = out.state
            pending = pending[~np.asarray(out.ok)]

        if cost.running is not None:
            pts = handle.functional_point(state)
            acc += h * np.asarray(cost.running(pts, t), dtype=float)

    if cost.terminal is not None:
        pts = handle.functional_point(state)
        acc += np.asarray(cost.terminal(pts, config.T), dtype=float)
    return acc


def _failure_order(failure) -> tuple:
    """Sort key of a chunk failure (chunk index, exception): any other
    exception before a located step failure, the lowest chunk first; step
    failures by (step, path).  The least is what one chunk holding every path
    raises, whatever the layout."""
    k, exc = failure
    if isinstance(exc, StepFailureError) and exc.step is not None:
        return (1, exc.step, exc.path)
    return (0, k)


def _run_share(run, chunks, worker: int, workers: int, out: np.ndarray):
    """Run chunks worker, worker + workers, ... in order into ``out``; returns
    the least failure (``_failure_order``) as (chunk index, exception), or None.

    A chunk stops at its first failure.  After a step failure the share runs
    on, since a later chunk may fail at an earlier step; any other exception
    ends it.
    """
    least = None
    for k in range(worker, len(chunks), workers):
        lo, hi = chunks[k]
        try:
            out[lo:hi] = run(lo, hi)
        except Exception as exc:
            failure = (k, exc)
            if least is None or _failure_order(failure) < _failure_order(least):
                least = failure
            if _failure_order(failure)[0] == 0:
                break
    return least


def _encode_report(failure) -> bytes:
    """A child's report: None, or (chunk index, pickled exception or None, repr)."""
    if failure is None:
        return pickle.dumps(None)
    k, exc = failure
    try:
        payload = pickle.dumps(exc)
    except Exception:
        payload = None
    return pickle.dumps((k, payload, repr(exc)))


def _decode_report(pid: int, status: int, data: bytes):
    """The failure a child reported, as (chunk index, exception), or None.

    A child that exited nonzero or left a short report is a WorkerProcessError;
    an exception that does not unpickle comes back as a RuntimeError of its repr.
    """
    if status != 0:
        raise WorkerProcessError(pid, status)
    try:
        report = pickle.loads(data)
    except Exception:
        raise WorkerProcessError(pid, status) from None
    if report is None:
        return None
    k, payload, text = report
    try:
        return k, pickle.loads(payload)
    except Exception:
        return k, RuntimeError(text)


def _write_all(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def _run_forked(run, chunks, n_path: int, workers: int) -> np.ndarray:
    """Run ``chunks`` on this process (worker 0) and ``workers - 1`` forked
    children (none for one worker); returns the samples or raises the least
    failure (``_failure_order``).

    The children write samples into one shared anonymous mmap and a report
    into a pipe each.  A child never returns into the caller: it leaves by
    ``os._exit``, so it flushes no buffers and runs no exit hooks.  Every
    child is reaped on every path; if this process raises, the children are
    killed first.
    """
    shared = np.frombuffer(mmap.mmap(-1, 8 * n_path), dtype=float)
    children = []  # (pid, read end of its report pipe)
    reports, statuses = {}, {}
    try:
        for w in range(1, workers):
            r, wr = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(r)
                os.close(wr)
                raise
            if pid == 0:
                status = 1
                try:
                    _write_all(wr, _encode_report(_run_share(run, chunks, w, workers, shared)))
                    status = 0
                finally:
                    os._exit(status)
            os.close(wr)
            children.append((pid, r))
        failures = [_run_share(run, chunks, 0, workers, shared)]
        for pid, r in children:
            with open(r, "rb", closefd=False) as fh:
                reports[pid] = fh.read()
    except BaseException:
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, r in children:
            os.close(r)
            statuses[pid] = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    failures += [_decode_report(pid, statuses[pid], reports[pid]) for pid, _ in children]
    failures = [f for f in failures if f is not None]
    if failures:
        raise min(failures, key=_failure_order)[1]
    return shared.copy()


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

    def run(lo, hi):
        return _run_chunk(handle, stepper, config, cost, lo, hi)

    workers = _worker_count(config)
    chunks = _plan_chunks(config.n_path, config.path_chunk, workers)
    return SampleSet(samples=_run_forked(run, chunks, config.n_path, workers))


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
    their random numbers, so that allowance overstates the noise in a
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


def _agreement(mean_a: float, stderr_a: float, mean_b: float, stderr_b: float) -> tuple:
    """(gap, allowance, agree): |mean_a - mean_b| against 3 hypot(stderr_a,
    stderr_b); a NaN gap or allowance is no evidence, so it does not agree."""
    gap = abs(mean_a - mean_b)
    allowance = 3.0 * float(np.hypot(stderr_a, stderr_b))
    return gap, allowance, bool(gap <= allowance)


def _pairwise_consistency(cells: Sequence[ComparisonCell]):
    worst_ratio = -1.0
    worst = (0.0, float("inf"), ("", ""))
    consistent = True
    for i in range(len(cells)):
        for k in range(i + 1, len(cells)):
            a, b = cells[i], cells[k]
            gap, allowance, agree = _agreement(a.mean, a.stderr, b.mean, b.stderr)
            consistent = consistent and agree
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

    Every cell reuses the config's seed, so path i draws the same normals at
    step j in every cell, whatever its n_div (each (path block, time block)
    draw is a prefix of one stream), and the cells are strongly positively
    correlated (common random numbers).  The pairwise check allows
    3 * hypot(stderr_a, stderr_b), which treats the cells as independent:
    under that correlation the allowance is loose, not conservative, and a
    real O(h) bias between schemes can pass it.  Paired-difference
    statistics are the open fix (ROADMAP item 6, coupled grids).
    ``n_divs`` must not be empty, and each entry goes to ``SimulationConfig``
    as given, so it must be an integer.
    """
    if len(n_divs) == 0:
        raise ValueError("n_divs must hold at least one n_div")
    # every cell's config is built, and so checked, before the first run
    configs = [replace(config, integrator=integ, n_div=nd)
               for integ in _COMPARED_INTEGRATORS for nd in n_divs]
    cells = []
    for cfg in configs:
        out = simulate(cfg, handle, cost=cost)
        cells.append(ComparisonCell(integrator=cfg.integrator, n_div=int(cfg.n_div),
                                    mean=out.mean, stderr=out.stderr, n_path=out.n_path))
    gap, allowance, pair, consistent = _pairwise_consistency(cells)
    return ComparisonTable(cells=tuple(cells), worst_gap=gap,
                           worst_allowance=allowance, worst_pair=pair,
                           consistent=consistent)


# ---------------------------------------------------------------------------
# long-time uniform limit


@dataclass(frozen=True)
class UniformLimitRow:
    """One cost's long-run Brownian samples and its direct uniform samples."""

    cost_name: str
    brownian: SampleSet
    direct: SampleSet

    @property
    def _agreement(self) -> tuple:
        return _agreement(self.brownian.mean, self.brownian.stderr,
                          self.direct.mean, self.direct.stderr)

    gap = property(lambda self: self._agreement[0])
    allowance = property(lambda self: self._agreement[1])
    consistent = property(lambda self: self._agreement[2])


def uniform_limit_run(config: SimulationConfig, handle: ManifoldHandle,
                      costs: Sequence[CostFunctional], n_direct: int = 100_000) -> tuple:
    """Long-run Brownian estimates vs direct uniform sampling, per cost.

    Each cost must be terminal only: the uniform law is a law of X_T, so a
    running part has nothing to compare with.  Only compact families with a
    direct sampler have a reference; for each cost the direct samples of
    ``cost.terminal(points, config.T)`` come first, from the independent
    samplers in oracles seeded from ``config.seed``, and then the cost is
    simulated with ``config``.  ``n_direct``, the direct sample count per
    cost, must be a positive integer.
    """
    from .oracles import uniform_cost_estimate

    require_integer("n_direct", n_direct, positive=True)
    if not handle.compact:
        raise ValueError(f"{handle.name} is not compact; no uniform limit")
    for cost in costs:
        if cost.terminal is None:
            raise ValueError(f"cost {cost.name!r} has no terminal part; "
                             "the uniform comparison needs a terminal cost")
        if cost.running is not None:
            raise ValueError(f"cost {cost.name!r} has a running part; "
                             "the uniform comparison takes terminal costs only")
    rows = []
    for k, cost in enumerate(costs):
        direct = uniform_cost_estimate(handle, lambda x: cost.terminal(x, config.T),
                                       RngStream(seed=config.seed, stream_id=2**32 + k),
                                       n_sample=n_direct)
        rows.append(UniformLimitRow(cost_name=cost.name,
                                    brownian=simulate(config, handle, cost=cost),
                                    direct=direct))
    return tuple(rows)
