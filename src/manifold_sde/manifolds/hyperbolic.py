"""Hyperbolic space as the Poincare upper half-space {x in R^n : x_n > 0}.

Open submanifold (no constraints); the metric is the conformal rescaling
g(x) = I / x_n^2, so sigma(x) = x_n I.
"""

from __future__ import annotations

import numpy as np

from .._checks import require_integer
from ..geometry import ManifoldHandle, TubularRetraction
from ..linalg import ambient_identity
from ..rng import RngStream


def make_hyperbolic(n: int) -> ManifoldHandle:
    require_integer("n", n)
    if n < 2:
        raise ValueError(f"hyperbolic needs dimension >= 2, got n={n}")
    e_last = np.zeros((n, 1))
    e_last[n - 1, 0] = 1.0

    def last(x):
        return x[..., n - 1 :, :]

    def metric(x, w):
        return w / last(x) ** 2

    def metric_inv(x, w):
        return w * last(x) ** 2

    def christoffel(x, u, v):
        dot = np.sum(u * v, axis=(-2, -1))[..., None, None]
        return -(last(u) * v + last(v) * u - dot * e_last) / last(x)

    def scale_by_height(x, w):
        return w * last(x)

    tubular = TubularRetraction(
        mapping=lambda q: (np.asarray(q, dtype=float), q[..., n - 1, 0] > 1e-12),
        differential=lambda x, w: np.asarray(w, dtype=float),
    )

    def ito_drift(x):
        return -(n - 2) / 2.0 * last(x) * e_last

    def strat_drift(x):
        return -(n - 1) / 2.0 * last(x) * e_last

    def random_point(rng: RngStream):
        g = rng.normal((n, 1))
        g[n - 1, 0] = abs(g[n - 1, 0]) + 0.5
        return g

    return ManifoldHandle(
        name=f"hyperbolic({n})",
        shape=(n, 1),
        dim=n,
        metric=metric,
        metric_inv=metric_inv,
        project=ambient_identity,
        christoffel=christoffel,
        sigma=scale_by_height,
        tubular=tubular,
        ito_drift=ito_drift,
        strat_drift=strat_drift,
        random_point=random_point,
        default_point=lambda: e_last.copy(),
        constraints=(),
        compact=False,
        params={"n": n},
    )
