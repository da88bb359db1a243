"""Registered cost functionals for the experiment runners and the CLI.

The ids are the keys of ``ANGLE_COSTS`` (sphere families, functions of the
great-circle angle phi from the start point) followed by those of
``_MATRIX_COSTS``; each entry says what its cost is.  A cost listed in
``_FAMILIES`` is defined on those families only, and ``make_cost`` rejects
it on any other.  All costs act on the functional representation supplied
by the harness (identity except Grassmann, whose points arrive as
projectors Y Y^T).
"""

from __future__ import annotations

import numpy as np

from .geometry import ManifoldHandle
from .harness import CostFunctional

# the sphere costs as functions of the angle phi, shared with the spectral
# heat-kernel series that checks them
ANGLE_COSTS = {
    "phi_5_2": lambda p: p ** 2.5,  # terminal phi^{5/2}
    "phi_32_52": lambda p: p ** 1.5 + p ** 2.5,  # terminal phi^{3/2} + phi^{5/2}
}


def _sum_abs(x):
    return np.abs(x).sum(axis=(-2, -1))


# id -> (running, terminal), both taking (points, t); None is no cost
_MATRIX_COSTS = {
    # terminal |X_11|^2
    "abs11": (None, lambda x, t: np.abs(x[..., 0, 0]) ** 2),
    # terminal sum_ij |X_ij|
    "sum_abs": (None, lambda x, t: _sum_abs(x)),
    # terminal exp(sum_ij |X_ij| / 2)
    "exp_half_sum": (None, lambda x, t: np.exp(0.5 * _sum_abs(x))),
    # terminal (1 + sum_ij |X_ij|)^{-1/2}
    "inv_sqrt_sum": (None, lambda x, t: (1.0 + _sum_abs(x)) ** -0.5),
    # terminal |X_11| plus running max(X_11, 0), integrated over [0, T]
    # (not time-averaged)
    "spd_running": (lambda x, t: np.maximum(x[..., 0, 0], 0.0),
                    lambda x, t: np.abs(x[..., 0, 0])),
    # terminal (log det X)^2, exact in oracles.exact_mean
    "log_det_sq": (None, lambda x, t: np.linalg.slogdet(x)[1] ** 2),
    # terminal (log x_n)^2 of the height x_n, exact in oracles.exact_mean
    "log_height_sq": (None, lambda x, t: np.log(x[..., -1, 0]) ** 2),
}

# the families a cost is defined on, for costs not defined on every family
_FAMILIES = {
    **{cost_id: ("sphere",) for cost_id in ANGLE_COSTS},
    "log_det_sq": ("spd", "gl+"),
    "log_height_sq": ("hyperbolic",),
}

COST_IDS = tuple(ANGLE_COSTS) + tuple(_MATRIX_COSTS)


def sphere_angle(handle: ManifoldHandle, x0: np.ndarray):
    """phi(x) = angle between x and the reference point on the unit sphere."""
    radius = float(handle.params.get("radius", 1.0))
    x0 = np.asarray(x0, dtype=float)

    def phi(x):
        inner = np.sum(x * x0, axis=(-2, -1)) / radius**2
        return np.arccos(np.clip(inner, -1.0, 1.0))

    return phi


def make_cost(cost_id: str, handle: ManifoldHandle) -> CostFunctional:
    """Build a registered cost functional bound to one manifold handle."""
    families = _FAMILIES.get(cost_id)
    if families is not None and handle.family not in families:
        raise ValueError(f"cost {cost_id!r} is defined on {', '.join(families)} only; "
                         f"got {handle.name}")
    if cost_id in ANGLE_COSTS:
        phi = sphere_angle(handle, handle.default_point())
        of_angle = ANGLE_COSTS[cost_id]
        return CostFunctional(terminal=lambda x, t: of_angle(phi(x)), name=cost_id)
    if cost_id in _MATRIX_COSTS:
        running, terminal = _MATRIX_COSTS[cost_id]
        return CostFunctional(running=running, terminal=terminal, name=cost_id)
    raise ValueError(f"unknown cost {cost_id!r}; valid ids: {', '.join(COST_IDS)}")
