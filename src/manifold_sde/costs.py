"""Registered cost functionals for the experiment runners and the CLI.

Ids and shapes:

- ``phi_5_2``:      terminal phi^{5/2}, phi the great-circle angle from the
                    start point (sphere families),
- ``phi_32_52``:    terminal phi^{3/2} + phi^{5/2},
- ``abs11``:        terminal |X_11|^2,
- ``sum_abs``:      terminal sum_ij |X_ij|,
- ``exp_half_sum``: terminal exp(sum_ij |X_ij| / 2),
- ``inv_sqrt_sum``: terminal (1 + sum_ij |X_ij|)^{-1/2},
- ``spd_running``:  terminal |X_11| plus running max(X_11, 0), integrated
                    over [0, T] (not time-averaged).

All costs act on the functional representation supplied by the harness
(identity except Grassmann, whose points arrive as projectors Y Y^T).
"""

from __future__ import annotations

import numpy as np

from .geometry import ManifoldHandle
from .harness import CostFunctional

COST_IDS = (
    "phi_5_2",
    "phi_32_52",
    "abs11",
    "sum_abs",
    "exp_half_sum",
    "inv_sqrt_sum",
    "spd_running",
)

# the sphere costs as functions of the angle phi, shared with the spectral
# heat-kernel series that checks them
ANGLE_COSTS = {
    "phi_5_2": lambda p: p ** 2.5,
    "phi_32_52": lambda p: p ** 1.5 + p ** 2.5,
}


def sphere_angle(handle: ManifoldHandle, x0: np.ndarray):
    """phi(x) = angle between x and the reference point on the unit sphere."""
    radius = float(handle.params.get("radius", 1.0))
    x0 = np.asarray(x0, dtype=float)

    def phi(x):
        inner = np.sum(x * x0, axis=(-2, -1)) / radius**2
        return np.arccos(np.clip(inner, -1.0, 1.0))

    return phi


def _sum_abs(x):
    return np.abs(x).sum(axis=(-2, -1))


def make_cost(cost_id: str, handle: ManifoldHandle) -> CostFunctional:
    """Build a registered cost functional bound to one manifold handle."""
    if cost_id in ANGLE_COSTS:
        if handle.name.split("(")[0] != "sphere":
            raise ValueError(f"cost {cost_id!r} measures a sphere angle; got {handle.name}")
        phi = sphere_angle(handle, handle.default_point())
        of_angle = ANGLE_COSTS[cost_id]
        return CostFunctional(terminal=lambda x, t: of_angle(phi(x)), name=cost_id)
    if cost_id == "abs11":
        return CostFunctional(terminal=lambda x, t: np.abs(x[..., 0, 0]) ** 2, name=cost_id)
    if cost_id == "sum_abs":
        return CostFunctional(terminal=lambda x, t: _sum_abs(x), name=cost_id)
    if cost_id == "exp_half_sum":
        return CostFunctional(
            terminal=lambda x, t: np.exp(0.5 * _sum_abs(x)), name=cost_id
        )
    if cost_id == "inv_sqrt_sum":
        return CostFunctional(
            terminal=lambda x, t: (1.0 + _sum_abs(x)) ** -0.5, name=cost_id
        )
    if cost_id == "spd_running":
        return CostFunctional(
            running=lambda x, t: np.maximum(x[..., 0, 0], 0.0),
            terminal=lambda x, t: np.abs(x[..., 0, 0]),
            name=cost_id,
        )
    raise ValueError(f"unknown cost {cost_id!r}; valid ids: {', '.join(COST_IDS)}")
