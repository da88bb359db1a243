"""Grassmann manifold Gr(n, p) of p-planes in R^n.

Points are represented by orthonormal bases Y in R^{n x p} (Y^T Y = I);
the geometry acts on the horizontal space {w : Y^T w = 0}, so all
simulated dynamics are invariant under the choice of basis.  Functionals
are evaluated through the projector Y Y^T, which is a faithful embedding
of the quotient.
"""

from __future__ import annotations

import numpy as np

from ..geometry import ManifoldHandle, TubularRetraction
from ..linalg import mT, polar_domain, polar_fused, polar_orth, sym
from ._constraints import orthogonality_constraints


def make_grassmann(n: int, p: int) -> ManifoldHandle:
    if not (1 <= p <= n):
        raise ValueError(f"need 1 <= p <= n, got n={n}, p={p}")

    def project(y, w):
        # horizontal projection: kill every component along the columns of y
        return w - y @ (mT(y) @ w)

    def identity(y, w):
        return np.broadcast_to(w, np.broadcast_shapes(y.shape, w.shape)).copy()

    def christoffel(y, u, v):
        # restriction of y sym(u^T v); already symmetric in (u, v)
        return y @ sym(mT(u) @ v)

    tubular = TubularRetraction(
        mapping=polar_orth,
        # differential of the polar factor at an orthonormal point
        differential=lambda y, w: w - y @ sym(mT(y) @ w),
        domain=polar_domain,
        fused=polar_fused,
    )

    coeff = -(n - p) / 2.0

    def ito_drift(y):
        return coeff * y

    def strat_drift(y):
        return np.zeros_like(y)

    def random_point(rng):
        return polar_orth(rng.normal((n, p)))

    return ManifoldHandle(
        name=f"grassmann({n},{p})",
        shape=(n, p),
        dim=p * (n - p),
        metric=identity,
        metric_inv=identity,
        project=project,
        christoffel=christoffel,
        sigma=identity,
        tubular=tubular,
        ito_drift=ito_drift,
        strat_drift=strat_drift,
        random_point=random_point,
        default_point=lambda: np.eye(n, p),
        constraints=orthogonality_constraints((n, p)),
        compact=True,
        cost_point=lambda y: y @ mT(y),
        params={"n": n, "p": p},
    )
