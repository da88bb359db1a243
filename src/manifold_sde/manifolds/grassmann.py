"""Grassmann manifold Gr(n, p) of p-planes in R^n, as a quotient of Stiefel.

Points are represented by orthonormal bases Y in R^{n x p} (Y^T Y = I), so
the handle is the embedded-metric Stiefel handle St(n, p) with the geometry
restricted to the horizontal space {w : Y^T w = 0}: the Christoffel function
y sym(u^T v), the polar retraction, the constraints and the points are
Stiefel's.  All simulated dynamics are invariant under the choice of basis.
Functionals are evaluated through the projector Y Y^T, which is a faithful
embedding of the quotient.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ..geometry import ManifoldHandle
from ..linalg import ambient_identity, mT
from .stiefel import make_stiefel


def make_grassmann(n: int, p: int) -> ManifoldHandle:
    coeff = -(n - p) / 2.0

    def horizontal(y, w):
        # kill every component along the columns of y
        return w - y @ (mT(y) @ w)

    return replace(
        make_stiefel(n, p),
        name=f"grassmann({n},{p})",
        dim=p * (n - p),
        metric=ambient_identity,
        metric_inv=ambient_identity,
        sigma=horizontal,
        project=horizontal,
        ito_drift=lambda y: coeff * y,
        # a copied y^T: ``y @ mT(y)`` takes numpy's per-matrix syrk path
        cost_point=lambda y: y @ np.ascontiguousarray(mT(y)),
        params={"n": n, "p": p},
    )
