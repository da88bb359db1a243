"""The round sphere |x| = radius in R^n, points stored as n x 1 matrices."""

from __future__ import annotations

import numpy as np

from .._checks import require_integer, require_real
from ..geometry import ManifoldHandle, TubularRetraction
from ..linalg import ambient_identity, frobenius_norm, mT
from ..rng import RngStream
from ._constraints import orthogonality_constraints

_MIN_NORM = 1e-12


def make_sphere(n: int, radius: float = 1.0) -> ManifoldHandle:
    require_integer("n", n)
    require_real("radius", radius)
    if n < 2:
        raise ValueError(f"sphere needs ambient dimension >= 2, got n={n}")
    if not (np.isfinite(radius) and radius > 0.0):
        raise ValueError(f"sphere radius must be positive and finite, got {radius}")
    r2 = radius * radius

    def project(x, w):
        return w - x @ (mT(x) @ w) / r2

    def christoffel(x, u, v):
        return x @ (mT(u) @ v) / r2

    def rescale(q):
        s = frobenius_norm(q)
        ok = s > _MIN_NORM
        return radius * q / np.where(ok, s, 1.0)[..., None, None], ok

    tubular = TubularRetraction(mapping=rescale, differential=project)

    drift_coeff = -(n - 1) / (2.0 * r2)

    def random_point(rng: RngStream):
        g = rng.normal((n, 1))
        while float(frobenius_norm(g)) < 1e-6:
            g = rng.normal((n, 1))
        return radius * g / float(frobenius_norm(g))

    def default_point():
        e1 = np.zeros((n, 1))
        e1[0, 0] = radius
        return e1

    return ManifoldHandle(
        name=f"sphere({n})" if radius == 1.0 else f"sphere({n},r={radius:g})",
        shape=(n, 1),
        dim=n - 1,
        metric=ambient_identity,
        metric_inv=ambient_identity,
        project=project,
        christoffel=christoffel,
        sigma=project,
        tubular=tubular,
        ito_drift=lambda x: drift_coeff * x,
        strat_drift=lambda x: np.zeros_like(x),
        random_point=random_point,
        default_point=default_point,
        constraints=(orthogonality_constraints((n, 1), target=r2),),
        compact=True,
        params={"n": n, "radius": radius},
    )
