"""Stiefel manifold St(n, p) = {Y in R^{n x p} : Y^T Y = I_p}.

The metric is a two-parameter family: with K0 the projection onto the
component perpendicular to the columns of Y and K1 the projection onto
the Y-skew component,

    <xi, eta>_Y = alpha0 <K0 xi, K0 eta> + alpha1 <K1 xi, K1 eta>.

alpha0 = alpha1 = 1 is the embedded (Euclidean) metric; alpha0 = 1,
alpha1 = 1/2 is the canonical metric.
"""

from __future__ import annotations

import numpy as np

from ..geometry import ManifoldHandle, TubularRetraction
from ..linalg import mT, polar_domain, polar_fused, polar_orth, skew, sym
from ._constraints import orthogonality_constraints


def _split(y, w):
    """Decompose an ambient matrix at Y into (perp, skew, sym) components.

    w = perp + Y skew(Y^T w) + Y sym(Y^T w); the first two span the
    tangent space, the last the normal space.
    """
    ytw = mT(y) @ w
    perp = w - y @ ytw
    return perp, y @ skew(ytw), y @ sym(ytw)


def make_stiefel(n: int, p: int, alpha0: float = 1.0, alpha1: float = 1.0) -> ManifoldHandle:
    if not (1 <= p <= n):
        raise ValueError(f"need 1 <= p <= n, got n={n}, p={p}")
    if alpha0 <= 0 or alpha1 <= 0:
        raise ValueError("metric weights alpha0, alpha1 must be positive")
    a0, a1 = float(alpha0), float(alpha1)

    def project(y, w):
        return w - y @ sym(mT(y) @ w)

    def metric(y, w):
        perp, sk, nor = _split(y, w)
        return a0 * perp + a1 * sk + nor

    def metric_inv(y, w):
        perp, sk, nor = _split(y, w)
        return perp / a0 + sk / a1 + nor

    def sigma(y, w):
        perp, sk, nor = _split(y, w)
        return perp / np.sqrt(a0) + sk / np.sqrt(a1) + nor

    def christoffel(y, u, v):
        gam = y @ sym(mT(u) @ v)
        if a0 != a1:
            uvt = sym(u @ mT(v))
            k0 = uvt @ y - y @ (mT(y) @ (uvt @ y))
            gam = gam + (2.0 * (a0 - a1) / a0) * k0
        return gam

    tubular = TubularRetraction(
        mapping=polar_fused,
        differential=project,
        domain=polar_domain,
    )

    drift_coeff = -((n - p) / (2.0 * a0) + (p - 1) / (4.0 * a1))

    def ito_drift(y):
        return drift_coeff * y

    def strat_drift(y):
        return np.zeros_like(y)

    def random_point(rng):
        return polar_orth(rng.normal((n, p)))

    return ManifoldHandle(
        name=f"stiefel({n},{p})",
        shape=(n, p),
        dim=n * p - p * (p + 1) // 2,
        metric=metric,
        metric_inv=metric_inv,
        project=project,
        christoffel=christoffel,
        sigma=sigma,
        tubular=tubular,
        ito_drift=ito_drift,
        strat_drift=strat_drift,
        random_point=random_point,
        default_point=lambda: np.eye(n, p),
        constraints=orthogonality_constraints((n, p)),
        compact=True,
        params={"n": n, "p": p, "alpha0": a0, "alpha1": a1},
    )
