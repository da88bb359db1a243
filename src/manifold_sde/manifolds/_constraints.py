"""Constraint blocks shared between manifold families.

Each builder returns one :class:`~manifold_sde.geometry.Constraint` block
of k components (values ``(..., k)``, gradients ``(..., k, n, m)``), listed
by index arrays in ``np.triu_indices`` order for pairs; each component is a
contiguous row-wise sum, bit-equal to the scalar constraint it stands for.
A handle has at most two blocks, and rows with a non-finite entry never
reach them through ``on_manifold``.
"""

from __future__ import annotations

import numpy as np

from ..geometry import Constraint


def orthogonality_constraints(
    shape: tuple[int, int],
    rows: tuple[int, int] | None = None,
    cols: tuple[int, int] | None = None,
    target: float = 1.0,
) -> Constraint:
    """The block (B^T B - target I)_{ab} = 0, a <= b, on a block B of the matrix.

    ``rows``/``cols`` select B (defaults: everything).  Analytic gradients
    and second derivatives: the constraints are quadratic.
    """
    n, m = shape
    r0, r1 = rows if rows is not None else (0, n)
    c0, c1 = cols if cols is not None else (0, m)
    ia, ib = np.triu_indices(c1 - c0)
    comp = np.arange(ia.size)
    targets = np.where(ia == ib, target, 0.0)

    def pairs(x, y):
        # (..., k, r1 - r0) column products x_a * y_b, contiguous rows
        xt = np.swapaxes(x[..., r0:r1, c0:c1], -1, -2)
        yt = np.swapaxes(y[..., r0:r1, c0:c1], -1, -2)
        return np.take(xt, ia, axis=-2) * np.take(yt, ib, axis=-2)

    def value(x):
        return np.sum(pairs(x, x), axis=-1) - targets

    def grad(x):
        bt = np.swapaxes(x[..., r0:r1, c0:c1], -1, -2)
        gt = np.zeros(np.shape(x)[:-2] + (ia.size, m, n))
        gt[..., comp, c0 + ia, r0:r1] = bt[..., ib, :]
        gt[..., comp, c0 + ib, r0:r1] += bt[..., ia, :]
        return np.swapaxes(gt, -1, -2)

    def hess(x, u, v):
        return np.sum(pairs(u, v), axis=-1) + np.sum(pairs(v, u), axis=-1)

    return Constraint(value=value, grad=grad, hess=hess)


def _linear(value, coeffs) -> Constraint:
    """A block of linear constraints with gradients ``coeffs``, (k, n, m)."""
    k = coeffs.shape[0]

    def grad(x):
        return np.broadcast_to(coeffs, np.shape(x)[:-2] + coeffs.shape)

    def hess(x, u, v):
        return np.zeros(np.broadcast(u, v).shape[:-2] + (k,))

    return Constraint(value=value, grad=grad, hess=hess)


def fixed_entry_constraints(
    shape: tuple[int, int], entries: list[tuple[int, int, float]]
) -> Constraint:
    """The block x_ij = target over ``entries`` (zero Hessian)."""
    i, j, target = map(np.array, zip(*entries))
    coeffs = np.zeros((i.size,) + tuple(shape))
    coeffs[np.arange(i.size), i, j] = 1.0
    return _linear(lambda x: x[..., i, j] - target, coeffs)


def symmetry_constraints(n: int) -> Constraint:
    """The block x_ab = x_ba, a < b (zero Hessian)."""
    a, b = np.triu_indices(n, 1)
    coeffs = np.zeros((a.size, n, n))
    coeffs[np.arange(a.size), a, b] = 1.0
    coeffs[np.arange(a.size), b, a] = -1.0
    return _linear(lambda x: x[..., a, b] - x[..., b, a], coeffs)
