import dataclasses
import errno
import hashlib
import math
import os
import pickle
import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from manifold_sde import (
    INTEGRATOR_IDS,
    CostFunctional,
    SimulationConfig,
    StepFailureError,
    compare_methods,
    make_cost,
    make_manifold,
    WorkerProcessError,
    make_stepper,
    simulate,
    uniform_limit_run,
)
from manifold_sde import harness, oracles
from manifold_sde.harness import (
    BLOCK_PATHS,
    BLOCK_STEPS,
    THREADS_ENV,
    _noise_block,
    _plan_chunks,
    _run_chunk,
    _worker_count,
)
from manifold_sde.manifolds import make_hypersurface
from manifold_sde.rng import RngStream


@pytest.fixture(scope="module")
def so3():
    return make_manifold("so", N=3)


def test_constant_running_cost_integrates_to_T(so3):
    cost = CostFunctional(running=lambda pts, t: np.ones(pts.shape[0]))
    cfg = SimulationConfig(T=2.0, n_div=8, n_path=16, seed=1)
    out = simulate(cfg, so3, cost=cost)
    assert np.all(out.samples == 2.0)  # h is a power of two: the sum is exact

    cfg2 = SimulationConfig(T=0.7, n_div=7, n_path=16, seed=1)
    out2 = simulate(cfg2, so3, cost=cost)
    np.testing.assert_allclose(out2.samples, 0.7, rtol=0.0, atol=1e-12)


def test_constant_terminal_cost_has_zero_stderr(so3):
    cost = CostFunctional(terminal=lambda pts, t: np.full(pts.shape[0], 2.5))
    out = simulate(SimulationConfig(T=1.0, n_div=10, n_path=32, seed=2), so3, cost=cost)
    assert out.mean == 2.5
    assert out.stderr == 0.0


@pytest.mark.parametrize("bad", [
    dict(T=0.0),
    dict(T=-1.0),
    dict(T=float("nan")),
    dict(T=float("inf")),
    dict(n_div=0),
    dict(n_path=0),
    dict(integrator="milstein"),
    dict(r=0.5),
    dict(r=float("nan")),
    dict(r=float("inf")),
    dict(diffusion=0.0),
    dict(diffusion=float("nan")),
    dict(diffusion=float("inf")),
    dict(max_retries=-1),
    dict(path_chunk=0),
])
def test_config_validation(bad):
    base = dict(T=1.0, n_div=10, n_path=10, seed=0)
    base.update(bad)
    with pytest.raises(ValueError):
        SimulationConfig(**base)


@pytest.mark.parametrize("field,value", [
    ("seed", 1.5), ("max_retries", 2.5), ("n_div", True), ("n_div", 10.0),
    ("path_chunk", 4.0), ("n_path", "8"),
])
def test_config_counts_must_be_integers(field, value):
    base = dict(T=1.0, n_div=10, n_path=10, seed=0)
    base[field] = value
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        SimulationConfig(**base)


@pytest.mark.parametrize("field,value", [
    ("T", True), ("r", True), ("diffusion", True), ("T", "1.0"),
])
def test_config_float_fields_must_be_real_numbers(field, value):
    base = dict(T=1.0, n_div=10, n_path=10, seed=0)
    base[field] = value
    with pytest.raises(ValueError, match=f"{field} must be a real number"):
        SimulationConfig(**base)


@pytest.mark.parametrize("integrator", INTEGRATOR_IDS)
def test_clamped_schemes_need_a_step_below_one(integrator):
    # the clamp level sqrt(2 r |ln h|) needs h in (0, 1); the walks read the
    # raw increment and take any h
    clamped = integrator in ("ito-em", "strat-heun", "retractive-em")
    for T, n_div in ((2.0, 1), (1.0, 1), (3.0, 2)):
        if clamped:
            with pytest.raises(ValueError, match=f"got h={T / n_div}"):
                SimulationConfig(T=T, n_div=n_div, n_path=4096, seed=0, integrator=integrator)
        else:
            SimulationConfig(T=T, n_div=n_div, n_path=4096, seed=0, integrator=integrator)
    assert SimulationConfig(T=2.0, n_div=3, n_path=4, seed=0, integrator=integrator).h < 1.0


def test_config_counts_take_numpy_integers(so3):
    counts = dict(n_div=10, n_path=8, seed=4, max_retries=2, path_chunk=4)
    cost = make_cost("sum_abs", so3)
    wide = SimulationConfig(T=0.5, **{k: np.int64(v) for k, v in counts.items()})
    plain = SimulationConfig(T=0.5, **counts)
    np.testing.assert_array_equal(simulate(wide, so3, cost=cost).samples,
                                  simulate(plain, so3, cost=cost).samples)


@pytest.mark.parametrize("family,params", [("spd", {"N": 3}), ("so", {"N": 3})])
def test_each_cost_of_a_tuple_is_its_own_run(family, params, monkeypatch):
    # one set of paths serves every cost (a running one among them), and
    # column j is the one-cost run of cost j, whatever the chunks and workers
    handle = make_manifold(family, **params)
    costs = tuple(make_cost(c, handle) for c in ("sum_abs", "spd_running", "abs11"))
    base = dict(T=1.0, n_div=20, n_path=300, seed=13)
    monkeypatch.setenv(THREADS_ENV, "1")
    alone = [simulate(SimulationConfig(**base), handle, cost=c).samples for c in costs]
    for chunk in (7, 256):
        for threads in ("1", "2"):
            monkeypatch.setenv(THREADS_ENV, threads)
            sets = simulate(SimulationConfig(path_chunk=chunk, **base), handle, cost=costs)
            assert isinstance(sets, tuple) and len(sets) == 3
            for out, want in zip(sets, alone):
                assert out.samples.tobytes() == want.tobytes(), (chunk, threads)


def test_simulate_needs_a_cost_in_a_tuple(so3):
    with pytest.raises(ValueError, match="cost must hold at least one CostFunctional"):
        simulate(SimulationConfig(T=1.0, n_div=4, n_path=4, seed=0), so3, cost=())


def test_results_independent_of_chunking_and_threads(so3, monkeypatch):
    cost = make_cost("sum_abs", so3)
    base = dict(T=1.0, n_div=50, n_path=200, seed=11)
    reference = None
    for chunk, threads in [(256, "1"), (64, "4"), (37, "2"), (1000, "0")]:
        monkeypatch.setenv(THREADS_ENV, threads)
        out = simulate(SimulationConfig(path_chunk=chunk, **base), so3, cost=cost)
        if reference is None:
            reference = out.samples
        else:
            np.testing.assert_array_equal(out.samples, reference)


# sha256 of simulate(...).samples for the two geodesic walks (T = 0.5, 10
# steps, 24 paths, seed 5, chunks of 7, terminal sum_abs).  Like the CLI
# pins, a change meant to keep every number leaves these unchanged, and a
# numpy/LAPACK change may need them re-recorded.  The spd ones were
# re-recorded when sigma moved to the closed form on well-conditioned rows
# and again when christoffel took products with the metric's x^{-1} instead
# of solves (a rounding change only), the so ones when so(N) inverted through
# linalg.so_inv and again when brownian_sde stopped projecting the
# (tangent-valued) group sigma.  The so and spd rk4-geodesic ones were
# re-recorded when that scheme took the closed-form exponential map instead
# of 2 RK4 substeps; the largest per-path difference, 6.2e-6 (so) and 8.0e-4
# (spd), is the RK4's own error at h = 0.05.  The spd ones were re-recorded
# again when x^{-1} and x^{-1/2} came from the sigma factor instead of
# np.linalg.inv and the exponential's middle factor from its closed form
# (a rounding change only: at most 5.2e-14 (geodesic-walk) and 9.2e-14
# (rk4-geodesic) per path, with no flag changed), and again when the metric
# took x^{-1/2} (x^{-1/2} w x^{-1/2}) x^{-1/2} in place of x^{-1} w x^{-1}
# (a rounding change only: at most 6.2e-14 and 1.4e-13 per path).
PINNED_WALK_SAMPLES = [
    ("so", {"N": 3}, "geodesic-walk",
     "30abaffab6a3a1bac15989cee81fb9a10167174b5977ff07b4209687b4b77c76"),
    ("so", {"N": 3}, "rk4-geodesic",
     "799ccf2f47044eed31f8d405892f45bfd81b7c89b9183129cca184c4f01d896d"),
    ("spd", {"N": 3}, "geodesic-walk",
     "e26e79ad01e4d829ec2e267a140a31796c6e07354694bc99bd35251d720ea1fc"),
    ("spd", {"N": 3}, "rk4-geodesic",
     "7795b692e0f4be37d3a08ead035e322a1d0fd83f37d843b3b72e68b9186e0842"),
    ("hyperbolic", {"n": 3}, "geodesic-walk",
     "3e492f1caca5c72840baa44207df2998f71817f3dec6ebcea32ebbe6ae3f22e5"),
    ("hyperbolic", {"n": 3}, "rk4-geodesic",
     "cac5af8618cc25c634da5462221b366bde7c30ea45afb507ecef0d938ea1e8a6"),
    ("grassmann", {"n": 5, "p": 2}, "geodesic-walk",
     "28be7b1bd5094abb796f443125493a49dcdb6e3d39da082913771af8077535c8"),
    ("grassmann", {"n": 5, "p": 2}, "rk4-geodesic",
     "c9d24977b23b75244fa96f0f6ec3a897efcd5558d91c50995887f654f8b2d8f3"),
]


@pytest.mark.parametrize("family,params,integrator,digest", PINNED_WALK_SAMPLES,
                         ids=[f"{row[0]}-{row[2]}" for row in PINNED_WALK_SAMPLES])
def test_walk_samples_are_pinned(family, params, integrator, digest):
    handle = make_manifold(family, **params)
    cfg = SimulationConfig(T=0.5, n_div=10, n_path=24, seed=5, integrator=integrator,
                           path_chunk=7)
    out = simulate(cfg, handle, cost=make_cost("sum_abs", handle))
    assert hashlib.sha256(out.samples.tobytes()).hexdigest() == digest


def test_chunk_larger_than_path_count(so3):
    cost = make_cost("sum_abs", so3)
    out = simulate(SimulationConfig(T=1.0, n_div=20, n_path=10, seed=4,
                                    path_chunk=512), so3, cost=cost)
    assert out.n_path == 10
    assert np.all(np.isfinite(out.samples))


def test_step_failure_names_path_and_step():
    spd = make_manifold("spd", N=3)
    cfg = SimulationConfig(T=2.0, n_div=4, n_path=32, seed=0, integrator="ito-em",
                           max_retries=0, path_chunk=32)
    with pytest.raises(StepFailureError, match=r"path 17 failed step 1"):
        simulate(cfg, spd)
    # retry draws (attempts 1, 2, ... of the path-step) recover every path
    out = simulate(SimulationConfig(T=2.0, n_div=4, n_path=32, seed=0,
                                    integrator="ito-em", max_retries=5,
                                    path_chunk=32), spd)
    assert out.divergent == ()
    assert np.all(np.isfinite(out.samples))


@pytest.mark.parametrize("workers", ["1", "2", "4"])
def test_step_failure_in_a_worker_process_is_raised_as_in_process(monkeypatch, workers):
    # chunk 0 finishes; chunk 1 fails on path 15, which a child runs at 2
    # workers; chunk 2, the calling process's own at 2 workers, fails at the
    # same step on path 17.  The lowest chunk index wins, so every worker
    # count raises the same error.
    spd = make_manifold("spd", N=3)
    cfg = SimulationConfig(T=2.0, n_div=4, n_path=32, seed=50, integrator="ito-em",
                           max_retries=0, path_chunk=8)
    stepper = make_stepper(spd, "ito-em", diffusion=cfg.diffusion)
    assert _run_chunk(spd, stepper, cfg, (CostFunctional(),), 0, 8)[1] is None
    assert _run_chunk(spd, stepper, cfg, (CostFunctional(),), 16, 24)[1] == (1, 17)
    monkeypatch.setenv(THREADS_ENV, workers)
    with pytest.raises(StepFailureError) as excinfo:
        simulate(cfg, spd)
    assert str(excinfo.value) == "spd(3): path 15 failed step 1 (t=0.5) after 0 retries"


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_worker_process_that_dies_is_a_named_error(so3, monkeypatch):
    parent = os.getpid()

    def terminal(pts, t):
        if os.getpid() != parent:
            os._exit(7)
        return np.zeros(pts.shape[0])

    monkeypatch.setenv(THREADS_ENV, "2")
    cfg = SimulationConfig(T=0.5, n_div=2, n_path=16, seed=0, path_chunk=8)
    with pytest.raises(WorkerProcessError, match="exited with status 7") as excinfo:
        simulate(cfg, so3, cost=CostFunctional(terminal=terminal))
    assert excinfo.value.status == 7 and excinfo.value.pid != parent
    _assert_no_child_left()


def test_a_short_report_is_a_worker_failure():
    # a child that exited 0 after writing part of its report
    report = pickle.dumps(((3, None, "ValueError()"), None))
    with pytest.raises(WorkerProcessError, match="exited with status 0"):
        harness._decode_report(1234, 0, report[:-4])


def test_a_fork_that_fails_is_raised_with_no_child_left(so3, monkeypatch):
    def no_fork():
        raise BlockingIOError(errno.EAGAIN, "no process ids left")

    monkeypatch.setattr(harness.os, "fork", no_fork)
    monkeypatch.setenv(THREADS_ENV, "2")
    cfg = SimulationConfig(T=0.5, n_div=2, n_path=16, seed=0, path_chunk=8)
    with pytest.raises(BlockingIOError, match="no process ids left"):
        simulate(cfg, so3)
    _assert_no_child_left()


class _Unpicklable(Exception):
    def __reduce__(self):
        raise pickle.PicklingError("not picklable")


def test_unpicklable_child_exception_comes_back_as_runtime_error(so3, monkeypatch):
    parent = os.getpid()

    def terminal(pts, t):
        if os.getpid() != parent:
            raise _Unpicklable("in a child")
        return np.zeros(pts.shape[0])

    monkeypatch.setenv(THREADS_ENV, "2")
    cfg = SimulationConfig(T=0.5, n_div=2, n_path=16, seed=0, path_chunk=8)
    with pytest.raises(RuntimeError, match=r"_Unpicklable\('in a child'\)"):
        simulate(cfg, so3, cost=CostFunctional(terminal=terminal))
    _assert_no_child_left()


def test_interrupt_in_the_calling_process_reaps_every_worker(so3, monkeypatch):
    parent = os.getpid()

    def terminal(pts, t):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        return np.zeros(pts.shape[0])

    monkeypatch.setenv(THREADS_ENV, "4")
    cfg = SimulationConfig(T=0.5, n_div=2, n_path=32, seed=0, path_chunk=8)
    with pytest.raises(KeyboardInterrupt):
        simulate(cfg, so3, cost=CostFunctional(terminal=terminal))
    _assert_no_child_left()


def test_rk4_blowup_in_simulate_is_a_step_failure():
    # a non-finite geodesic field is flagged like a domain exit and retried,
    # and a row still flagged after max_retries is a StepFailureError; with
    # a metric_seed so(3) has no closed-form exponential, so the RK4 runs
    def christoffel(x, u, v):
        return np.full(np.broadcast(x, u, v).shape, np.nan)

    handle = make_manifold("so", N=3, metric_seed=4)
    assert handle.exponential is None
    broken = dataclasses.replace(handle, christoffel=christoffel)
    cfg = SimulationConfig(T=0.5, n_div=2, n_path=8, seed=0, integrator="rk4-geodesic",
                           max_retries=2)
    with pytest.raises(StepFailureError, match=r"path 0 failed step 0 .* after 2 retries"):
        simulate(cfg, broken)


def test_retry_draws_keep_runs_chunk_invariant():
    spd = make_manifold("spd", N=3)
    base = dict(T=2.0, n_div=4, n_path=32, seed=0, integrator="ito-em", max_retries=5)
    a = simulate(SimulationConfig(path_chunk=32, **base), spd)
    b = simulate(SimulationConfig(path_chunk=7, **base), spd)
    np.testing.assert_array_equal(a.samples, b.samples)


# ---------------------------------------------------------------------------
# the chunk layout, the worker count and the failure contract


@pytest.mark.parametrize("workers", [1, 2, 3, 4])
@pytest.mark.parametrize("path_chunk", [1, 7, 32, 64, 100, 256, 1000, 25_000])
def test_chunk_plan_is_balanced_and_bounded(path_chunk, workers):
    for n_path in (1, 3, 5, 63, 64, 65, 128, 129, 160, 384, 640, 1000, 5000, 25_000):
        chunks = _plan_chunks(n_path, path_chunk, workers)
        bounds = [lo for lo, _ in chunks] + [chunks[-1][1]]
        assert bounds[0] == 0 and bounds[-1] == n_path
        assert all(chunks[i][1] == chunks[i + 1][0] for i in range(len(chunks) - 1))
        sizes = np.diff(bounds)
        assert sizes.min() >= 1 and sizes.max() <= path_chunk
        assert sizes.max() - sizes.min() <= BLOCK_PATHS
        shares = [sizes[w::workers].sum() for w in range(workers)]
        assert max(shares) - min(shares) <= BLOCK_PATHS
        k = workers * -(-n_path // (workers * path_chunk))
        if k <= n_path:
            assert len(chunks) == k  # every worker runs as many chunks
        else:
            assert np.all(sizes == 1)  # more chunks than paths: one path each
        if path_chunk % BLOCK_PATHS == 0 and -(-n_path // BLOCK_PATHS) >= k:
            assert all(b % BLOCK_PATHS == 0 for b in bounds[:-1]), (n_path, bounds)


def test_chunk_plan_keeps_every_worker_busy():
    # no worker idles while another runs an extra chunk
    assert _plan_chunks(384, 256, 2) == [(0, 192), (192, 384)]
    assert _plan_chunks(160, 256, 2) == [(0, 64), (64, 160)]
    assert _plan_chunks(640, 256, 2) == [(0, 128), (128, 256), (256, 448), (448, 640)]
    assert _plan_chunks(100, 256, 1) == [(0, 100)]


def test_auto_worker_count_is_at_most_one_per_started_block(monkeypatch):
    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3},
                        raising=False)

    def workers(n_path, n_div, cap="0", path_chunk=256):
        monkeypatch.setenv(THREADS_ENV, cap)
        return _worker_count(SimulationConfig(T=0.5, n_div=n_div, n_path=n_path, seed=0,
                                              path_chunk=path_chunk))

    block = BLOCK_PATHS * BLOCK_STEPS
    assert workers(512, 1) == 1
    assert workers(block, 1) == 1 and workers(block + 1, 1) == 2
    assert workers(128, 10) == 2  # 1280 path-steps start two blocks
    assert workers(2 * block + 1, 1) == 3
    assert workers(128, 50) == 4  # one chunk of paths still fills the CPUs
    assert workers(1_000_000, 1) == 4
    assert workers(2, 100_000) == 2  # never more workers than paths
    # an explicit cap keeps min(cap, ceil(n_path / path_chunk))
    assert workers(512, 1, cap="2") == 2
    assert workers(512, 1, cap="8") == 2
    assert workers(100, 1, cap="3", path_chunk=7) == 3


def test_auto_worker_count_follows_the_cpu_affinity(monkeypatch):
    # one usable CPU (taskset -c 1, a one-CPU cpuset) on a larger machine:
    # a second worker would only share it
    monkeypatch.setenv(THREADS_ENV, "0")
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 8)
    config = SimulationConfig(T=1.0, n_div=100, n_path=10_000, seed=0)
    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {1}, raising=False)
    assert _worker_count(config) == 1
    # without an affinity call the CPU count is the bound
    monkeypatch.delattr(harness.os, "sched_getaffinity", raising=False)
    assert _worker_count(config) == 8


def test_a_tiny_run_does_not_fork(so3, monkeypatch):
    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(harness.os, "fork", no_fork)
    monkeypatch.delenv(THREADS_ENV, raising=False)
    out = simulate(SimulationConfig(T=0.5, n_div=1, n_path=512, seed=0, path_chunk=64), so3)
    assert out.n_path == 512


def test_without_fork_one_worker_runs_every_chunk(so3, monkeypatch):
    config = SimulationConfig(T=0.5, n_div=16, n_path=256, seed=4, path_chunk=64)
    monkeypatch.setenv(THREADS_ENV, "2")
    forked = simulate(config, so3)
    monkeypatch.delattr(harness.os, "fork")
    assert _worker_count(config) == 1
    np.testing.assert_array_equal(simulate(config, so3).samples, forked.samples)


def test_step_failure_is_the_earliest_step_whatever_the_layout(monkeypatch):
    # every path alone: path 33 first fails step 1, path 68 step 0.  A single
    # chunk raises path 68; the lowest failing chunk would say path 33 at
    # path_chunk 8, 32 and 64, so the earliest step must win across chunks
    spd = make_manifold("spd", N=3)
    cfg = SimulationConfig(T=2.0, n_div=4, n_path=128, seed=8, integrator="ito-em",
                           max_retries=0, path_chunk=1000)
    stepper = make_stepper(spd, "ito-em", diffusion=cfg.diffusion)
    assert _run_chunk(spd, stepper, cfg, (CostFunctional(),), 0, 64)[1] == (1, 33)
    monkeypatch.setenv(THREADS_ENV, "1")
    with pytest.raises(StepFailureError) as single:
        simulate(cfg, spd)
    assert (single.value.step, single.value.path) == (0, 68)
    expected = str(single.value)
    assert expected == "spd(3): path 68 failed step 0 (t=0) after 0 retries"
    for chunk in (8, 32, 64, 1000):
        for cap in ("1", "2", "4"):
            monkeypatch.setenv(THREADS_ENV, cap)
            with pytest.raises(StepFailureError) as excinfo:
                simulate(dataclasses.replace(cfg, path_chunk=chunk), spd)
            assert str(excinfo.value) == expected, (chunk, cap)
            assert (excinfo.value.step, excinfo.value.path) == (0, 68)
    _assert_no_child_left()


def test_step_failure_location_survives_pickling():
    exc = pickle.loads(pickle.dumps(StepFailureError("path 3 failed step 2", step=2, path=3)))
    assert (str(exc), exc.step, exc.path) == ("path 3 failed step 2", 2, 3)
    assert StepFailureError("no location").step is None


def test_other_exceptions_win_over_step_failures_by_lowest_chunk(monkeypatch):
    # at both caps: chunk 0 fails step 0 on path 5 and chunk 5 on path 33,
    # and chunks 1-4 finish, so only they call the terminal cost; at cap 2
    # the child runs chunks 1, 3 and 5
    spd = make_manifold("spd", N=3)
    cfg = SimulationConfig(T=2.0, n_div=4, n_path=40, seed=32, integrator="ito-em",
                           max_retries=0, path_chunk=7)

    def raising(sizes):
        def terminal(pts, t):
            if len(pts) in sizes:
                raise ValueError(f"{len(pts)} rows")
            return np.zeros(len(pts))
        return CostFunctional(terminal=terminal)

    for cap in ("1", "2"):
        monkeypatch.setenv(THREADS_ENV, cap)
        assert _plan_chunks(cfg.n_path, cfg.path_chunk, _worker_count(cfg)) == [
            (0, 6), (6, 12), (12, 19), (19, 26), (26, 33), (33, 40)]
        with pytest.raises(StepFailureError) as excinfo:
            simulate(cfg, spd)
        assert (excinfo.value.step, excinfo.value.path) == (0, 5)
        # a fault in chunks 2-4 (7 rows) beats the step failure in chunk 0
        with pytest.raises(ValueError, match="^7 rows$"):
            simulate(cfg, spd, cost=raising({7}))
        # of the faults in chunk 1 (6 rows) and chunks 2-4, chunk 1's is raised
        with pytest.raises(ValueError, match="^6 rows$"):
            simulate(cfg, spd, cost=raising({6, 7}))
    _assert_no_child_left()


# ---------------------------------------------------------------------------
# the noise layout: 64-path x 16-step blocks, one stream per block, and one
# stream per retry attempt of a path-step


def _record_steps(monkeypatch):
    """Patch the harness's ``make_stepper`` so every step call appends
    (raw increment, ok flags) to the returned list."""
    calls = []
    real = harness.make_stepper

    def factory(*args, **kwargs):
        stepper = real(*args, **kwargs)

        def step(x, t, h, inc):
            out = stepper.step(x, t, h, inc)
            calls.append((np.array(inc.raw), np.array(out.ok)))
            return out

        return dataclasses.replace(stepper, step=step)

    monkeypatch.setattr(harness, "make_stepper", factory)
    return calls


def test_each_increment_replays_from_one_stream_call(monkeypatch):
    # one chunk at one worker: each step is one call on every path, then one
    # call per retry attempt on the rows still flagged, in path order
    monkeypatch.setenv(THREADS_ENV, "1")
    calls = _record_steps(monkeypatch)
    spd = make_manifold("spd", N=3)
    cfg = SimulationConfig(T=6.0, n_div=33, n_path=130, seed=3, path_chunk=1000)
    simulate(cfg, spd)
    noise = (3, 3)

    def main_increment(i, j):
        tau = j // BLOCK_STEPS
        steps = min(BLOCK_STEPS, cfg.n_div - BLOCK_STEPS * tau)
        block = RngStream(cfg.seed, i // BLOCK_PATHS, counter=(0, tau, 0, 0))
        return block.normal((steps, BLOCK_PATHS) + noise)[j % BLOCK_STEPS, i % BLOCK_PATHS]

    calls = iter(calls)
    retries = Counter()
    for j in range(cfg.n_div):
        raw, ok = next(calls)
        for i in (0, 63, 64, 129):
            np.testing.assert_array_equal(raw[i], main_increment(i, j))
        pending = np.nonzero(~ok)[0]
        attempt = 0
        while pending.size:
            attempt += 1
            raw, ok = next(calls)
            for row, i in enumerate(pending):
                retry = RngStream(cfg.seed, int(i), counter=(0, j, attempt, 0))
                np.testing.assert_array_equal(raw[row], retry.normal(noise))
            retries[attempt] += pending.size
            pending = pending[~ok]
    assert next(calls, None) is None
    assert retries[2] > 0  # second attempts too


@pytest.mark.parametrize("n_div", [17, 33])
@pytest.mark.parametrize("family,params,integrator,T,cost", [
    ("sphere", {"n": 3}, "ito-em", 1.0, "phi_5_2"),
    # coarse enough that hundreds of rows leave the domain and are retried
    ("spd", {"N": 3}, "strat-heun", 4.0, "spd_running"),
], ids=["sphere-ito-em", "spd-strat-heun"])
def test_samples_do_not_depend_on_chunk_or_workers_across_block_edges(
        monkeypatch, family, params, integrator, T, cost, n_div):
    handle = make_manifold(family, **params)
    reference = None
    for chunk in (7, 63, 64, 65, 1000):
        for cap in ("1", "2"):
            monkeypatch.setenv(THREADS_ENV, cap)
            cfg = SimulationConfig(T=T, n_div=n_div, n_path=150, seed=3,
                                   integrator=integrator, path_chunk=chunk)
            samples = simulate(cfg, handle, cost=make_cost(cost, handle)).samples
            if reference is None:
                reference = samples
            assert samples.tobytes() == reference.tobytes(), (chunk, cap)


def test_main_draws_hold_at_most_one_block(so3, monkeypatch):
    shapes = []

    class Recording(RngStream):
        def normal(self, shape=()):
            shapes.append(tuple(shape))
            return super().normal(shape)

    monkeypatch.setattr(harness, "RngStream", Recording)
    monkeypatch.setenv(THREADS_ENV, "1")
    for n_div in (40, 400):
        shapes.clear()
        simulate(SimulationConfig(T=1.0, n_div=n_div, n_path=200, seed=1), so3)
        # 4 path blocks per time block; the draws grow in number, not in size
        assert len(shapes) == 4 * math.ceil(n_div / BLOCK_STEPS)
        assert all(s[0] <= BLOCK_STEPS and s[1:] == (BLOCK_PATHS, 3, 3) for s in shapes)


def _assert_uncorrelated(a, b):
    a, b = np.ravel(a), np.ravel(b)
    assert abs(np.corrcoef(a, b)[0, 1]) < 5.0 / math.sqrt(a.size)


def test_block_normals_are_standard_normal():
    z = _noise_block(seed=7, lo=0, hi=15_625, tau=0, steps=BLOCK_STEPS, noise=(4,)).ravel()
    n = z.size
    assert n == 10**6
    assert abs(z.mean()) < 5.0 / math.sqrt(n)
    assert abs(z.var() - 1.0) < 5.0 * math.sqrt(2.0 / n)
    # Kolmogorov-Smirnov: sqrt(n) D below 1.95, the 0.001 critical value
    x = np.sort(z)
    cdf = 0.5 * (1.0 + np.vectorize(math.erf)(x / math.sqrt(2.0)))
    d = max(np.max(np.arange(1, n + 1) / n - cdf), np.max(cdf - np.arange(n) / n))
    assert math.sqrt(n) * d < 1.95


def test_paths_across_a_path_block_edge_are_uncorrelated():
    pairs = [_noise_block(11, 63, 65, tau, BLOCK_STEPS, (3, 3)) for tau in range(1000)]
    _assert_uncorrelated([p[:, 0] for p in pairs], [p[:, 1] for p in pairs])


def test_steps_across_a_time_block_edge_are_uncorrelated():
    last = _noise_block(12, 0, 20_000, 0, BLOCK_STEPS, (3,))[BLOCK_STEPS - 1]
    first = _noise_block(12, 0, 20_000, 1, BLOCK_STEPS, (3,))[0]
    _assert_uncorrelated(last, first)


def test_first_retry_is_uncorrelated_with_the_main_draw():
    j, n = 5, 20_000
    main = _noise_block(13, 0, n, 0, BLOCK_STEPS, (3,))[j]
    retry = [RngStream(13, i, counter=(0, j, 1, 0)).normal((3,)) for i in range(n)]
    _assert_uncorrelated(main, retry)


@pytest.mark.parametrize("lo,hi", [(0, 12_500), (100, 12_600), (70, 120)],
                         ids=["aligned", "offset", "one-block"])
def test_noise_block_holds_its_output_and_one_draw(lo, hi):
    # sphere(3)'s (3, 1) increments over one 16-step time block; the traced
    # peak is the array of whole path blocks plus one block's draw, and its
    # bits are those of the per-block draws.  A line tracer (sys.settrace, as
    # a coverage run uses) allocates in its callbacks, so it is suspended
    # around the measured call, for this frame too, and then restored
    noise = (3, 1)
    frame, tracer = sys._getframe(), sys.gettrace()
    local = frame.f_trace
    sys.settrace(None)
    frame.f_trace = None
    tracemalloc.start()
    try:
        block = _noise_block(21, lo, hi, 2, BLOCK_STEPS, noise)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        sys.settrace(tracer)
        frame.f_trace = local
    assert block.shape == (BLOCK_STEPS, hi - lo) + noise
    first, last = lo // BLOCK_PATHS, (hi - 1) // BLOCK_PATHS
    one_draw = BLOCK_STEPS * BLOCK_PATHS * 3 * 8
    assert peak <= (last + 1 - first) * one_draw + one_draw + 65_536
    draws = np.concatenate([RngStream(21, b, counter=(0, 2, 0, 0)).normal(
        (BLOCK_STEPS, BLOCK_PATHS) + noise) for b in range(first, last + 1)], axis=1)
    offset = first * BLOCK_PATHS
    assert block.tobytes() == draws[:, lo - offset:hi - offset].tobytes()


def test_non_finite_cost_value_shows_in_the_estimate(so3):
    # one NaN per chunk: nothing is dropped, so the estimate reads NaN
    def terminal(pts, t):
        values = np.abs(pts).sum(axis=(-2, -1))
        values[0] = np.nan
        return values

    cfg = SimulationConfig(T=0.5, n_div=5, n_path=8, seed=3, path_chunk=4)
    out = simulate(cfg, so3, cost=CostFunctional(terminal=terminal))
    plain = simulate(cfg, so3, cost=make_cost("sum_abs", so3))
    nan = np.isnan(out.samples)
    np.testing.assert_array_equal(np.nonzero(nan)[0], [0, 4])
    np.testing.assert_array_equal(out.samples[~nan], plain.samples[~nan])
    assert out.n_path == 8 and out.divergent == ()
    assert np.isnan(out.mean)
    assert np.isnan(out.stderr)  # all 8 samples counted, the NaN ones too


@pytest.mark.parametrize("samples,mean", [
    ([1.0, np.inf, 2.0], np.inf),
    ([1.0, -np.inf, 2.0], -np.inf),
    ([1.0, np.inf, -np.inf], np.nan),
    ([1.0, np.nan, np.inf], np.nan),
])
def test_infinite_samples_give_the_documented_estimate(samples, mean):
    # no RuntimeWarning (an error under the suite's filter), and the values
    # the SampleSet docstring states
    out = harness.SampleSet(np.array(samples))
    np.testing.assert_array_equal(out.mean, mean)
    assert math.isnan(out.stderr)


def test_compare_methods_grid_and_lookup(so3):
    cost = make_cost("sum_abs", so3)
    cfg = SimulationConfig(T=0.5, n_div=40, n_path=64, seed=5)
    table = compare_methods(cfg, so3, cost, n_divs=(20, 40))
    assert len(table.cells) == 4 * 2
    assert list(table.cells)[:2] == [("ito-em", 20), ("ito-em", 40)]  # run order
    cell = table.cell("geodesic-walk", 20)
    assert cell is table.cells[("geodesic-walk", 20)]
    assert cell.n_path == 64 and cell.samples.shape == (64,)
    assert cell.mean == float(np.mean(cell.samples)) and cell.stderr > 0.0
    with pytest.raises(KeyError):
        table.cell("ito-em", 999)
    assert isinstance(table.consistent, bool)
    assert table.worst_gap >= 0.0 and table.worst_allowance > 0.0
    if table.consistent:
        assert table.worst_gap <= table.worst_allowance


def test_compare_methods_cells_are_the_simulate_samples(so3):
    cost = make_cost("sum_abs", so3)
    cfg = SimulationConfig(T=0.5, n_div=40, n_path=24, seed=5)
    table = compare_methods(cfg, so3, cost, n_divs=(10, 20))
    for (integrator, n_div), cell in table.cells.items():
        own = simulate(dataclasses.replace(cfg, integrator=integrator, n_div=n_div), so3, cost=cost)
        assert cell.samples.tobytes() == own.samples.tobytes(), (integrator, n_div)


@pytest.mark.parametrize("n_divs,message", [
    ((), "n_divs must hold at least one n_div"),
    ((10.7,), "n_div must be an integer"),
    ((20, 10.7), "n_div must be an integer"),
    ((20, True), "n_div must be an integer"),
    ((200, 1), r"step size in \(0, 1\), got h=2\.0"),
    ((20, 20), r"n_divs must not repeat an n_div, got \(20, 20\)"),
], ids=["empty", "float", "float-after-int", "bool", "h-at-least-1", "repeated"])
def test_compare_methods_checks_its_grid_before_running(so3, n_divs, message, monkeypatch):
    calls = []
    monkeypatch.setattr(harness, "simulate", lambda *args, **kw: calls.append(args))
    cfg = SimulationConfig(T=2.0, n_div=20, n_path=8, seed=5)
    with pytest.raises(ValueError, match=message):
        compare_methods(cfg, so3, make_cost("sum_abs", so3), n_divs=n_divs)
    assert calls == []


def test_compare_methods_with_nan_stderrs_is_not_consistent():
    # one path gives NaN stderrs, so every allowance is NaN: no evidence of
    # agreement
    sphere = make_manifold("sphere", n=3)
    cfg = SimulationConfig(T=0.5, n_div=20, n_path=1, seed=1)
    table = compare_methods(cfg, sphere, make_cost("phi_5_2", sphere), n_divs=(20,))
    assert all(math.isnan(c.stderr) for c in table.cells.values())
    assert table.consistent is False


def test_one_path_uniform_limit_row_is_not_consistent(so3):
    # one path has a NaN stderr, so the allowance is NaN: no evidence of
    # agreement
    costs = [make_cost("sum_abs", so3)]
    (row,) = uniform_limit_run(SimulationConfig(T=1.0, n_div=4, n_path=1, seed=0), so3, costs,
                               n_direct=8)
    assert math.isnan(row.samples.stderr) and math.isnan(row.allowance)
    assert row.agree is False


def test_invariant_measure_independent_of_metric_choice():
    # two random left-invariant metrics share the long-run (Haar) limit
    means = []
    allow = []
    for metric_seed in (41, 42):
        handle = make_manifold("so", N=3, metric_seed=metric_seed)
        out = simulate(SimulationConfig(T=40.0, n_div=400, n_path=400, seed=6),
                       handle, cost=make_cost("sum_abs", handle))
        means.append(out.mean)
        allow.append(out.stderr)
    gap = abs(means[0] - means[1])
    assert gap < 3.0 * float(np.hypot(allow[0], allow[1]))


def test_uniform_limit_requires_compact_target():
    hyp = make_manifold("hyperbolic", n=2)
    costs = [make_cost("sum_abs", hyp)]
    with pytest.raises(ValueError, match="compact"):
        uniform_limit_run(SimulationConfig(T=40.0, n_div=400, n_path=4, seed=0), hyp, costs,
                          n_direct=8)


def test_uniform_limit_rows_hold_both_sample_sets(so3):
    cfg = SimulationConfig(T=1.0, n_div=4, n_path=16, seed=3)
    cost = make_cost("sum_abs", so3)
    (row,) = uniform_limit_run(cfg, so3, [cost], n_direct=50)
    assert row.label == "sum_abs"
    np.testing.assert_array_equal(row.samples.samples, simulate(cfg, so3, cost=cost).samples)
    assert row.reference.n_path == 50
    assert row.gap == abs(row.samples.mean - row.reference.mean)


def test_uniform_limit_reads_every_cost_off_one_run(so3, monkeypatch):
    # one simulate call and one direct draw serve all four costs, and row j
    # is the one-cost run of cost j, on both sides
    cfg = SimulationConfig(T=1.0, n_div=4, n_path=16, seed=3)
    ids = ("sum_abs", "abs11", "exp_half_sum", "inv_sqrt_sum")
    costs = [make_cost(c, so3) for c in ids]
    alone = [uniform_limit_run(cfg, so3, [cost], n_direct=30_000)[0] for cost in costs]
    calls = Counter()
    real_simulate, real_sample = harness.simulate, oracles.sample_uniform

    def counted_simulate(*args, **kw):
        calls["simulate"] += 1
        return real_simulate(*args, **kw)

    def counted_sample(*args):
        calls["sample_uniform"] += 1
        return real_sample(*args)

    monkeypatch.setattr(harness, "simulate", counted_simulate)
    monkeypatch.setattr(oracles, "sample_uniform", counted_sample)
    rows = uniform_limit_run(cfg, so3, costs, n_direct=30_000)
    # 30 000 points are two batches of one sequence, as for one cost
    assert calls == {"simulate": 1, "sample_uniform": 2}
    assert [row.label for row in rows] == list(ids)
    for row, want in zip(rows, alone):
        assert row.samples.samples.tobytes() == want.samples.samples.tobytes()
        assert row.reference.samples.tobytes() == want.reference.samples.tobytes()
        assert (row.gap, row.allowance, row.agree) == (want.gap, want.allowance, want.agree)


@pytest.mark.parametrize("cost,message", [
    (CostFunctional(name="none"), "'none' has no terminal part"),
    (CostFunctional(running=lambda x, t: x[..., 0, 0], name="run"), "'run' has no terminal"),
    (make_cost("spd_running", make_manifold("so", N=3)), "'spd_running' has a running part"),
])
def test_uniform_limit_takes_terminal_costs_only(so3, cost, message, monkeypatch):
    calls = []
    monkeypatch.setattr(harness, "simulate", lambda *args, **kw: calls.append(args))
    cfg = SimulationConfig(T=1.0, n_div=4, n_path=4, seed=0)
    with pytest.raises(ValueError, match=message):
        uniform_limit_run(cfg, so3, [make_cost("sum_abs", so3), cost], n_direct=8)
    assert calls == []


def test_uniform_limit_checks_its_costs_before_the_family(monkeypatch):
    # spd has no direct sampler, but the running part is reported first
    calls = []
    monkeypatch.setattr(harness, "simulate", lambda *args, **kw: calls.append(args))
    spd3 = make_manifold("spd", N=3)
    cfg = SimulationConfig(T=1.0, n_div=4, n_path=4, seed=0)
    with pytest.raises(ValueError, match="'spd_running' has a running part"):
        uniform_limit_run(cfg, spd3, [make_cost("spd_running", spd3)], n_direct=8)
    assert calls == []


def test_uniform_limit_needs_a_cost(so3, monkeypatch):
    calls = []
    monkeypatch.setattr(harness, "simulate", lambda *args, **kw: calls.append(args))
    monkeypatch.setattr(oracles, "sample_uniform", lambda *args: calls.append(args))
    cfg = SimulationConfig(T=1.0, n_div=4, n_path=4, seed=0)
    with pytest.raises(ValueError, match="costs must hold at least one cost"):
        uniform_limit_run(cfg, so3, [], n_direct=8)
    assert calls == []


@pytest.mark.parametrize("n_direct", [0, -5, True, 8.0])
def test_uniform_limit_checks_its_direct_count_first(so3, n_direct, monkeypatch):
    calls = []
    monkeypatch.setattr(harness, "simulate", lambda *args, **kw: calls.append(args))
    monkeypatch.setattr(oracles, "sample_uniform", lambda *args: calls.append(args))
    cfg = SimulationConfig(T=1.0, n_div=4, n_path=4, seed=0)
    with pytest.raises(ValueError, match="n_direct must be a positive integer"):
        uniform_limit_run(cfg, so3, [make_cost("sum_abs", so3)], n_direct=n_direct)
    assert calls == []


def test_uniform_limit_without_a_sampler_fails_before_simulating(monkeypatch):
    calls = []
    monkeypatch.setattr(harness, "simulate", lambda *args, **kw: calls.append(args))
    surface = make_hypersurface(3, p=4)
    cost = CostFunctional(terminal=lambda x, t: x[..., 0, 0], name="x1")
    cfg = SimulationConfig(T=40.0, n_div=400, n_path=2000, seed=0)
    with pytest.raises(ValueError, match="no direct uniform sampler"):
        uniform_limit_run(cfg, surface, [cost], n_direct=8)
    assert calls == []
