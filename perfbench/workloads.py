"""The benchmark's workloads: cells, reference values and correctness gates.

A cell is one ``simulate`` call (or one ``manifold-sde`` CLI ``simulate`` run)
with a fixed family, integrator, grid, path count and batch size.  Cell sizes
are chosen so that every cell of a workload takes a comparable share of its
wall time on a 2-core machine; no single cell hides the rest.

Correctness gates (a failed gate counts the cell as failed):

- ``heat``: sphere(3) with phi^{5/2} against the spectral heat-kernel series
  ``heat_expectation_s2``.
- ``linear``: the benchmark's own linear cost tr(X_0^T X_T).  Every family
  here has a linear Ito drift lambda x (README constants: SO(3) -0.5,
  Stiefel(5,3) -1.5, SPD(3) +1; so(8) reads lambda off ``ito_drift(I)``), so
  with generator scale c the mean is tr(X_0^T X_0) exp(2 c lambda T).
- ``spd_running``: the registered running-plus-terminal SPD functional,
  E[int_0^T X_11 ds + X_11(T)] = (e^{rT} - 1)/r + e^{rT} with r = 2 c lambda
  (2 e^{1/2} - 1 at T = 1/2, c = 1/2).
- ``finite``: coarse SPD grids, whose O(h) bias makes an analytic band
  meaningless: every sample finite, no divergent path, no step failure.

A statistical gate passes when |mean - reference| <= GATE_Z * stderr +
``bias_tol``.  ``bias_tol`` is each cell's stated allowance for the
discretisation bias of its grid: at least 1.5x the largest bias measured on
the same grid and integrators with 1e5 (sphere) or 40x the cell's (group,
SPD) paths, at two seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from manifold_sde import CostFunctional, make_cost

GATE_Z = 5.0
# The determinism gate re-runs this many paths with this chunk size.
DETERMINISM_PATHS = 300
DETERMINISM_CHUNK = 7

# Ito drift coefficients lambda (ito_drift(x) = lambda x) stated in the README.
README_DRIFT = {"so(3)": -0.5, "stiefel(5,3)": -1.5, "spd(3)": 1.0}


@dataclass(frozen=True)
class Cell:
    family: str
    params: tuple
    integrator: str
    T: float
    n_div: int
    n_path: int
    cost: str
    gate: str
    bias_tol: float = 0.0
    path_chunk: int = 256
    diffusion: float = 0.5
    max_retries: int = 5
    via_cli: bool = False

    @property
    def label(self) -> str:
        params = ",".join(str(v) for _, v in self.params)
        via = "cli" if self.via_cli else "api"
        return (f"{self.family}({params})/{self.integrator}/{self.cost}/"
                f"T{self.T:g}x{self.n_div}/{self.n_path}p/b{self.path_chunk}/{via}")

    @property
    def path_steps(self) -> int:
        return self.n_div * self.n_path

    @property
    def chunks(self) -> int:
        return -(-self.n_path // self.path_chunk)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    cells: tuple
    target_stderr: float
    determinism_cell: int = 0
    # The traced run confirms the workload's reason when the summed self time
    # of ``lead`` exceeds every other module's self time (empty: no check), and
    # when harness retry draws are non-zero exactly if ``retries``.
    lead: tuple = ()
    retries: bool = False


def _cells(family, params, integrators, n_paths, **common):
    return tuple(
        Cell(family=family, params=tuple(sorted(params.items())), integrator=i,
             n_path=n, **common)
        for i, n in zip(integrators, n_paths)
    )


ALL = ("ito-em", "strat-heun", "geodesic-walk", "retractive-em", "rk4-geodesic")
PROJECTED = ("ito-em", "strat-heun")
RETRACTED = ("retractive-em", "geodesic-walk", "rk4-geodesic")
SO3, SO8, ST53 = ("so", {"N": 3}), ("so", {"N": 8}), ("stiefel", {"n": 5, "p": 3})

# Per-family discretisation allowance of the linear cost on the T=0.1, 10-step
# group grid (measured worst bias: so(3) 0.003, so(8) 0.061, stiefel 0.018).
GROUP_BIAS = {"so(3)": 0.005, "so(8)": 0.1, "stiefel(5,3)": 0.03}
GROUP_GRID = dict(T=0.1, n_div=10, cost="linear", gate="linear")


def _group(family, params, integrators, n_paths, **extra):
    key = f"{family}({','.join(str(v) for v in params.values())})"
    return _cells(family, params, integrators, n_paths, bias_tol=GROUP_BIAS[key],
                  **{**GROUP_GRID, **extra})


SPHERE_PATHS = Workload(
    name="sphere-paths",
    why=("sphere(3), 5 integrators, tens of thousands of paths via cli.main and a "
         "25000-path chunk: stream opening, noise draws, harness indexing and CSV "
         "writing dominate"),
    cells=(
        # CLI cells: radius 1, generator scale 1/2 (the CLI's fixed values);
        # measured worst bias on this grid -0.012 (retractive-em).
        *_cells("sphere", {"n": 3}, ALL, (5000,) * 5, T=0.2, n_div=20,
                cost="phi_5_2", gate="heat", bias_tol=0.02, via_cli=True),
        # criterion-8 style: radius 3, scale 0.4, T=2, one 25000-path chunk;
        # measured ito-em bias on this grid -0.027.
        Cell(family="sphere", params=(("n", 3), ("radius", 3.0)), integrator="ito-em",
             T=2.0, n_div=16, n_path=25_000, cost="phi_5_2", gate="heat",
             bias_tol=0.04, path_chunk=25_000, diffusion=0.4),
    ),
    target_stderr=0.002,
    lead=("rng.open_s", "rng.normal_s", "harness.self_s"),
)

GROUP_PROJECT = Workload(
    name="group-project",
    why=("ito-em and strat-heun on so(3), so(8), stiefel(5,3) at 256- and 32-path "
         "batches: tubular SVD polar factor and domain test dominate, christoffel "
         "is never called"),
    cells=(
        *_group(*SO3, PROJECTED, (1024, 768)),
        *_group(*SO8, PROJECTED, (384, 256)),
        *_group(*ST53, PROJECTED, (1024, 768)),
        *_group(*SO3, PROJECTED, (512, 384), path_chunk=32),
        *_group(*SO8, PROJECTED, (192, 128), path_chunk=32),
        *_group(*ST53, PROJECTED, (512, 384), path_chunk=32),
    ),
    target_stderr=0.005,
    lead=("manifolds.retract_s", "manifolds.domain_s"),
)

GROUP_RETRACT = Workload(
    name="group-retract",
    why=("retractive-em, geodesic-walk, rk4-geodesic on so(3), so(8), stiefel(5,3): "
         "broadcast solves in christoffel and project plus mu_retraction_adjusted "
         "dominate"),
    cells=(
        *_group(*SO3, RETRACTED, (384, 1024, 512)),
        # so(8) on half the horizon with the same step: retractive-em costs
        # about 1 ms per path-step, and at T=0.1 its 32 paths made one cell's
        # variance estimate most of time_to_tol_s and of its run-to-run spread
        *_group(*SO8, RETRACTED, (64, 768, 256), T=0.05, n_div=5),
        *_group(*ST53, RETRACTED, (768, 1024, 768)),
    ),
    target_stderr=0.005,
    lead=("manifolds.christoffel_s", "manifolds.project_s"),
)

SPD_RETRY = Workload(
    name="spd-retry",
    why=("spd(3) with spd_running, 5 integrators on the T=0.5 grid and a coarse "
         "T=2, 10-step grid: harness retries and the running cost run every step"),
    cells=(
        # fine grid (criterion-6 horizon, 50 steps); worst measured bias -0.040
        *_cells("spd", {"N": 3}, ALL, (640, 384, 384, 128, 160), T=0.5, n_div=50,
                cost="spd_running", gate="spd_running", bias_tol=0.06),
        # linear cost on the same grid; worst measured bias -0.013
        *_cells("spd", {"N": 3}, PROJECTED, (640, 384), T=0.5, n_div=50,
                cost="linear", gate="linear", bias_tol=0.05),
        # coarse grid: 2-11% of path-steps are resampled.  With the default 5
        # retries, 2 of 400 strat-heun runs of 1024 paths exhausted them (a
        # StepFailureError); with 20, none of the same 400 did.
        *_cells("spd", {"N": 3}, ALL, (2048, 1024, 1024, 384, 512), T=2.0, n_div=10,
                cost="spd_running", gate="finite", max_retries=20),
    ),
    target_stderr=0.02,
    determinism_cell=7,
    retries=True,
)

WORKLOADS = {w.name: w for w in (SPHERE_PATHS, GROUP_PROJECT, GROUP_RETRACT, SPD_RETRY)}


# ---------------------------------------------------------------------------
# references and gates


def drift_coefficient(handle) -> float:
    """lambda with ito_drift(x) = lambda x: the README constant, else read at x_0.

    Reading requires ``ito_drift(x_0)`` to be an exact multiple of x_0.
    """
    x0 = handle.default_point()
    d = handle.ito_drift(x0)
    lam = float(np.sum(d * x0) / np.sum(x0 * x0))
    if not np.allclose(d, lam * x0, rtol=0.0, atol=1e-12):
        raise ValueError(f"{handle.name}: Ito drift at x_0 is not a multiple of x_0")
    return README_DRIFT.get(handle.name, lam)


def reference(cell: Cell, handle, heat_expectation_s2) -> float | None:
    """The cell's analytic mean (None for the ``finite`` gate)."""
    if cell.gate == "heat":
        radius = dict(cell.params).get("radius", 1.0)
        return heat_expectation_s2(lambda p: p**2.5, T=cell.T,
                                   diffusion=cell.diffusion, radius=radius)
    if cell.gate == "finite":
        return None
    rate = 2.0 * cell.diffusion * drift_coefficient(handle)
    grow = math.exp(rate * cell.T)
    if cell.gate == "linear":
        x0 = handle.default_point()
        return float(np.sum(x0 * x0)) * grow
    if cell.gate == "spd_running":
        return (grow - 1.0) / rate + grow
    raise ValueError(f"unknown gate {cell.gate!r}")


def cell_cost(cell: Cell, handle) -> CostFunctional:
    """The registered cost ``cell.cost``, or tr(X_0^T X_T) for ``linear``."""
    if cell.cost != "linear":
        return make_cost(cell.cost, handle)
    x0 = handle.default_point()
    return CostFunctional(terminal=lambda x, t: np.sum(x * x0, axis=(-2, -1)),
                          name="linear")


def stats(samples: np.ndarray) -> tuple[float, float]:
    n = samples.size
    return float(np.mean(samples)), float(np.std(samples, ddof=1) / math.sqrt(n))


def gate(cell: Cell, ref: float | None, samples: np.ndarray) -> tuple[bool, str]:
    """Apply the cell's correctness gate; returns (passed, description)."""
    if not np.all(np.isfinite(samples)):
        return False, "non-finite or divergent samples"
    if cell.gate == "finite":
        return True, "all samples finite"
    mean, se = stats(samples)
    tol = GATE_Z * se + cell.bias_tol
    ok = abs(mean - ref) <= tol
    return ok, (f"mean {mean:.6g} vs reference {ref:.6g}: |gap| {abs(mean - ref):.3g} "
                f"{'<=' if ok else '>'} {GATE_Z:g}*{se:.3g} + {cell.bias_tol:g}")


def reason_check(workload: Workload, metrics: dict) -> tuple[bool, str]:
    """Does a traced run's per-layer split confirm the workload's reason?"""
    own = {n: v for n, v in metrics.items()
           if n.endswith("_s") and n not in ("harness.retry_s", "oracles.reference_s")}
    parts = []
    ok = True
    if workload.lead:
        lead = sum(own[n] for n in workload.lead)
        modules: dict = {}
        for n, v in own.items():
            if n not in workload.lead:
                modules[n.split(".")[0]] = modules.get(n.split(".")[0], 0.0) + v
        top, top_s = max(modules.items(), key=lambda kv: kv[1])
        ok = lead > top_s
        parts.append(f"{' + '.join(workload.lead)} = {lead:.3g} s "
                     f"{'>' if ok else '<='} next module {top} {top_s:.3g} s")
    draws = metrics["harness.retry_draws"]
    retry_ok = (draws > 0) == workload.retries
    parts.append(f"retry draws {draws:.0f} (expected {'> 0' if workload.retries else '0'})")
    return ok and retry_ok, "; ".join(parts)
