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

from .._checks import require_integer, require_real
from ..geometry import ManifoldHandle, TubularRetraction
from ..linalg import mT, polar_fused, polar_orth, skew, sym
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
    require_integer("n", n)
    require_integer("p", p)
    require_real("alpha0", alpha0)
    require_real("alpha1", alpha1)
    if not (1 <= p <= n):
        raise ValueError(f"need 1 <= p <= n, got n={n}, p={p}")
    if not all(np.isfinite(a) and a > 0 for a in (alpha0, alpha1)):
        raise ValueError(f"metric weights alpha0, alpha1 must be positive and finite, "
                         f"got {alpha0}, {alpha1}")
    a0, a1 = float(alpha0), float(alpha1)

    def project(y, w):
        return w - y @ sym(mT(y) @ w)

    def metric(y, w):
        perp, sk, nor = _split(y, w)
        return a0 * perp + a1 * sk + nor

    def metric_inv(y, w):
        perp, sk, nor = _split(y, w)
        return perp / a0 + sk / a1 + nor

    s, k = 1.0 / np.sqrt(a0), 1.0 / np.sqrt(a1)

    def sigma(y, w):
        # Pi(y) (s perp + k y skew(c) + y sym(c)), c = y^T w, formed directly:
        # with A = -s c + k skew(c) + sym(c) the factor is s w + y A, and
        # y^T (s w + y A) = s c + (y^T y) A
        # (a copied y^T: ``mT(y) @ y`` takes numpy's per-matrix syrk path)
        yt = np.ascontiguousarray(mT(y))
        c = yt @ w
        a = -s * c + k * skew(c) + sym(c)
        return s * w + y @ (a - sym(s * c + (yt @ y) @ a))

    def christoffel(y, u, v):
        # the transposed operands are copied: with v is u, ``mT(u) @ v`` (a view
        # of the same array) takes numpy's per-matrix syrk path, 3-5x slower
        gam = y @ sym(np.ascontiguousarray(mT(u)) @ v)
        if a0 != a1:
            uvt = sym(u @ np.ascontiguousarray(mT(v)))
            k0 = uvt @ y - y @ (mT(y) @ (uvt @ y))
            gam = gam + (2.0 * (a0 - a1) / a0) * k0
        return gam

    tubular = TubularRetraction(mapping=polar_fused, differential=project)

    drift_coeff = -((n - p) / (2.0 * a0) + (p - 1) / (4.0 * a1))

    def ito_drift(y):
        return drift_coeff * y

    def strat_drift(y):
        return np.zeros_like(y)

    def random_point(rng):
        return polar_orth(rng.normal((n, p)))

    # at the embedded metric A vanishes and sigma is the projection
    embedded = a0 == a1 == 1.0

    return ManifoldHandle(
        name=f"stiefel({n},{p})",
        shape=(n, p),
        dim=n * p - p * (p + 1) // 2,
        metric=metric,
        metric_inv=metric_inv,
        project=project,
        christoffel=christoffel,
        sigma=project if embedded else sigma,
        tubular=tubular,
        ito_drift=ito_drift,
        strat_drift=strat_drift,
        random_point=random_point,
        default_point=lambda: np.eye(n, p),
        constraints=(orthogonality_constraints((n, p)),),
        params={"n": n, "p": p, "alpha0": a0, "alpha1": a1},
    )
