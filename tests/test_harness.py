import dataclasses
import hashlib
import os
import pickle

import numpy as np
import pytest

from manifold_sde import (
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
from manifold_sde.harness import THREADS_ENV, _run_chunk


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
# numpy/LAPACK change may need them re-recorded.
PINNED_WALK_SAMPLES = [
    ("so", {"N": 3}, "geodesic-walk",
     "c2f609e15f87ef5ca8418b86122eaf3edfcb764c914a7d1449916f6e3e511c5d"),
    ("so", {"N": 3}, "rk4-geodesic",
     "4e189757b5b5add95e8777d008e8c513aa2ad9a362e9d92649c6be4b29af95bd"),
    ("spd", {"N": 3}, "geodesic-walk",
     "23184248b9c26e242a39ef5b1c6372c915be071c6299fcab0669dd627d367e8d"),
    ("spd", {"N": 3}, "rk4-geodesic",
     "6f272d0af018dd49971e2b0c59fc4092dd61726964edd9024fabd42d606d2899"),
    ("hyperbolic", {"n": 3}, "geodesic-walk",
     "4a612d4c51ff834db9cce68747730742e10a2a71d69c49d3117884c3c8b6940d"),
    ("hyperbolic", {"n": 3}, "rk4-geodesic",
     "4b8b839b85e6b61d803a52afa6c1fb9be94e8bd2da4826be47027654829938c9"),
    ("grassmann", {"n": 5, "p": 2}, "geodesic-walk",
     "5d86223711403c3f5ba69524cfd8492f25e70fc722ef63f75e8f5234c0e6d0b8"),
    ("grassmann", {"n": 5, "p": 2}, "rk4-geodesic",
     "a7e94297424bdebbf6ee9bc6acf1656ffc16c824d4f26a52d5f98a3f81d39bfc"),
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
    with pytest.raises(StepFailureError, match=r"path 24 failed step 0"):
        simulate(cfg, spd)
    # retried draws from the same per-path streams recover every path
    out = simulate(SimulationConfig(T=2.0, n_div=4, n_path=32, seed=0,
                                    integrator="ito-em", max_retries=5,
                                    path_chunk=32), spd)
    assert out.divergent == ()
    assert np.all(np.isfinite(out.samples))


@pytest.mark.parametrize("workers", ["1", "2", "4"])
def test_step_failure_in_a_worker_process_is_raised_as_in_process(monkeypatch, workers):
    # chunk 1 fails on path 15, which a child runs at 2 workers; chunk 2, the
    # calling process's own at 2 workers, fails at the same step on path 23.
    # The lowest chunk index wins, so every worker count raises the same error.
    spd = make_manifold("spd", N=3)
    cfg = SimulationConfig(T=2.0, n_div=4, n_path=32, seed=1, integrator="ito-em",
                           max_retries=0, path_chunk=8)
    stepper = make_stepper(spd, "ito-em", diffusion=cfg.diffusion)
    with pytest.raises(StepFailureError, match=r"path 23 failed step 2 "):
        _run_chunk(spd, stepper, cfg, CostFunctional(), 16, 24)
    monkeypatch.setenv(THREADS_ENV, workers)
    with pytest.raises(StepFailureError) as excinfo:
        simulate(cfg, spd)
    assert str(excinfo.value) == "spd(3): path 15 failed step 2 (t=1) after 0 retries"


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


def test_rk4_blowup_in_simulate_is_a_step_failure(so3):
    # a non-finite geodesic field is flagged like a domain exit and retried;
    # DivergenceError belongs to integrate_geodesic_rk4_projected alone
    def christoffel(x, u, v):
        return np.full(np.broadcast(x, u, v).shape, np.nan)

    broken = dataclasses.replace(so3, christoffel=christoffel)
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


def test_compare_methods_grid_and_lookup(so3):
    cost = make_cost("sum_abs", so3)
    cfg = SimulationConfig(T=0.5, n_div=40, n_path=64, seed=5)
    table = compare_methods(cfg, so3, cost, n_divs=(20, 40))
    assert len(table.cells) == 4 * 2
    cell = table.cell("geodesic-walk", 20)
    assert cell.integrator == "geodesic-walk" and cell.n_div == 20
    assert cell.n_path == 64
    with pytest.raises(KeyError):
        table.cell("ito-em", 999)
    assert isinstance(table.consistent, bool)
    assert table.worst_gap >= 0.0 and table.worst_allowance > 0.0
    if table.consistent:
        assert table.worst_gap <= table.worst_allowance


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
    costs = [("sum_abs", lambda pts: np.sum(np.abs(pts), axis=(-2, -1)))]
    with pytest.raises(ValueError, match="compact"):
        uniform_limit_run(SimulationConfig(T=40.0, n_div=4, n_path=4, seed=0), hyp, costs,
                          n_direct=8)
