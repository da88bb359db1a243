"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest perfbench
"""

from __future__ import annotations

import dataclasses
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import manifold_sde as ms  # noqa: E402
import run  # noqa: E402
from tracing import Tracer, _covered  # noqa: E402
from workloads import (  # noqa: E402
    GATE_Z,
    WORKLOADS,
    Cell,
    cell_cost,
    gate,
    reason_check,
    reference,
    stats,
)

NAME = re.compile(r"[A-Za-z0-9_.-]+")

SMALL = Cell(family="so", params=(("N", 3),), integrator="ito-em", T=0.1, n_div=10,
             n_path=256, cost="linear", gate="linear", bias_tol=0.005)


def _simulate(cell, handle, cost, simulate=ms.simulate, **overrides):
    cfg = ms.SimulationConfig(T=cell.T, n_div=cell.n_div, n_path=cell.n_path, seed=11,
                              integrator=cell.integrator, diffusion=cell.diffusion,
                              path_chunk=cell.path_chunk, **overrides)
    return simulate(cfg, handle, cost=cost).samples


def test_gate_passes_at_reference_and_fails_when_shifted():
    handle = ms.make_manifold("so", N=3)
    samples = _simulate(SMALL, handle, cell_cost(SMALL, handle))
    ref = reference(SMALL, handle, ms.heat_expectation_s2)
    assert gate(SMALL, ref, samples)[0]
    tol = GATE_Z * stats(samples)[1] + SMALL.bias_tol
    assert not gate(SMALL, ref + 2.0 * tol, samples)[0]
    assert not gate(SMALL, ref - 2.0 * tol, samples)[0]


def test_finite_gate_rejects_nan():
    cell = dataclasses.replace(SMALL, gate="finite")
    assert gate(cell, None, np.ones(4))[0]
    assert not gate(cell, None, np.array([1.0, np.nan]))[0]


def test_references_match_stated_values():
    spd = WORKLOADS["spd-retry"].cells[0]
    assert reference(spd, ms.make_manifold("spd", N=3), None) == pytest.approx(
        2.0 * np.exp(0.5) - 1.0, rel=1e-14)
    so8 = next(c for c in WORKLOADS["group-retract"].cells if dict(c.params) == {"N": 8})
    assert reference(so8, ms.make_manifold("so", N=8), None) == pytest.approx(
        8.0 * np.exp(-1.75 * so8.T), rel=1e-14)


@pytest.mark.parametrize("cell", [
    SMALL,
    dataclasses.replace(SMALL, integrator="retractive-em", n_path=64),
    dataclasses.replace(SMALL, family="sphere", params=(("n", 3),), integrator="rk4-geodesic",
                        cost="phi_5_2", path_chunk=32),
    dataclasses.replace(SMALL, family="spd", integrator="strat-heun", T=2.0, cost="spd_running",
                        gate="finite"),
], ids=lambda c: c.label)
def test_tracing_leaves_samples_unchanged(cell):
    handle = ms.make_manifold(cell.family, **dict(cell.params))
    cost = cell_cost(cell, handle)
    plain = _simulate(cell, handle, cost)
    tracer = Tracer()
    with tracer.installed():
        traced = _simulate(cell, tracer.handle(handle), tracer.cost(cost),
                           simulate=tracer.simulate(ms.simulate))
    assert traced.tobytes() == plain.tobytes()
    names = {s.name for s in tracer.spans}
    assert {"harness.simulate", "integrators.step", "rng.open", "rng.normal"} <= names
    if cell.family == "spd":
        assert "rng.retry_normal" in names and "integrators.retry_step" in names
    # patches are undone
    from manifold_sde import harness
    assert harness.RngStream is ms.RngStream and harness.make_stepper is ms.make_stepper


def test_self_time_subtracts_union_of_children():
    assert _covered([(0, 4), (2, 6), (8, 9)], 1, 10) == 6
    tracer = Tracer()
    outer = tracer.wrap("outer", lambda: inner())
    inner = tracer.wrap("inner", lambda: sum(range(10_000)))
    outer()
    agg = tracer.self_times()
    spans = {s.name: s for s in tracer.spans}
    assert spans["inner"].parent == spans["outer"].sid
    total = (spans["outer"].end_ns - spans["outer"].start_ns) * 1e-9
    assert agg["outer"][0] + agg["inner"][0] == pytest.approx(total, rel=1e-9)


def test_reason_check():
    metrics = {n: 0.0 for n in run.per_layer_units()}
    w = WORKLOADS["group-retract"]
    metrics.update({"manifolds.christoffel_s": 2.0, "manifolds.project_s": 1.0,
                    "manifolds.retract_s": 2.0, "manifolds.domain_s": 1.0})
    assert not reason_check(w, metrics)[0]  # other manifold callables also sum to 3
    metrics["manifolds.christoffel_s"] = 3.0
    assert reason_check(w, metrics)[0]
    metrics["harness.retry_draws"] = 3
    assert not reason_check(w, metrics)[0]


def test_metric_and_workload_names():
    names = [*run.END_TO_END, *run.per_layer_units(), *WORKLOADS]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    for unit in [*run.END_TO_END.values(), *run.per_layer_units().values()]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", unit), unit
    for w in WORKLOADS.values():
        names = [c.label for c in w.cells]
        assert len(names) == len(set(names)), w.name
        for name in w.lead:
            assert name in run.per_layer_units(), name


def test_benchmark_json_lists_every_metric_and_workload():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    for w in spec["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]].why and len(w["why"]) <= 200
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    for m in spec["end_to_end"]:
        assert m["better"] == "lower" and 0 < m["bound"] <= 0.25
