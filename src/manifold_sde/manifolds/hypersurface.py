"""Homogeneous hypersurface sum_i d_i x_i^p = 1 in R^n (even p, d_i > 0).

A compact level set with the induced Euclidean metric.  Its interest is the
cheap *rescale* tubular map q -> q / (sum d_i q_i^p)^{1/p}: exact thanks to
homogeneity, but a projection along the ray rather than the orthogonal one,
so its tangent retraction ``first_order_retraction(handle)``, rescale(x + v),
is only first-order accurate (r'' = -(c''(v, v)/p) x, not -Gamma(x; v, v))
and exercises the drift adjustment that keeps retraction-based stepping
consistent.  p = 2 with d_i = 1/rho^2 recovers the sphere of radius rho.

Points are (n, 1) column matrices.
"""

from __future__ import annotations

import numpy as np

from .._checks import require_integer
from ..geometry import Constraint, ManifoldHandle, TubularRetraction
from ..linalg import ambient_identity, mT

_MIN_LEVEL = 1e-12


def make_hypersurface(n: int, p: int = 4, d: np.ndarray | None = None) -> ManifoldHandle:
    require_integer("n", n)
    require_integer("p", p)
    if n < 2:
        raise ValueError(f"need ambient dimension >= 2, got {n}")
    if p < 2 or p % 2 != 0:
        raise ValueError(f"exponent p must be even and >= 2, got {p}")
    d = np.ones(n) if d is None else np.asarray(d, dtype=float)
    if d.shape != (n,) or not np.all(np.isfinite(d) & (d > 0)):
        raise ValueError("d must be a length-n vector of positive finite weights")
    dcol = d.reshape(n, 1)

    def level(x):
        # sum_i d_i x_i^p, batched over leading axes
        return np.sum(dcol * x**p, axis=(-2, -1))

    def cgrad(x):
        return p * dcol * x ** (p - 1)

    def chess_diag(x):
        return p * (p - 1) * dcol * x ** (p - 2)

    def chess(x, u, v):
        return np.sum(chess_diag(x) * u * v, axis=(-2, -1))

    def project(x, w):
        g = cgrad(x)
        g2 = np.sum(g * g, axis=(-2, -1))[..., None, None]
        return w - g * (mT(g) @ w) / g2

    def christoffel(x, u, v):
        g = cgrad(x)
        g2 = np.sum(g * g, axis=(-2, -1))
        return (chess(x, u, v) / g2)[..., None, None] * g

    def rescale(q):
        s = level(q)
        ok = s > _MIN_LEVEL
        return q * (np.where(ok, s, 1.0) ** (-1.0 / p))[..., None, None], ok

    tubular = TubularRetraction(
        mapping=rescale,
        # dpsi(w) = w - x (c'(x)^T w) / p at on-manifold x: a projection onto
        # the tangent space along the ray direction, not the orthogonal one
        differential=lambda x, w: w - x @ (mT(cgrad(x)) @ w) / p,
    )

    def ito_drift(x):
        g = cgrad(x)
        g2 = np.sum(g * g, axis=(-2, -1))
        kappa = chess_diag(x)
        tr_full = np.sum(kappa, axis=(-2, -1))
        tr_tan = tr_full - np.sum(kappa * g * g, axis=(-2, -1)) / g2
        return -0.5 * (tr_tan / g2)[..., None, None] * g

    def strat_drift(x):
        # isometric embedding whose sigma is the orthogonal projection:
        # projected Stratonovich noise needs no drift
        return np.zeros(np.shape(x))

    constraint = Constraint(
        value=lambda x: (level(x) - 1.0)[..., None],
        grad=lambda x: cgrad(x)[..., None, :, :],
        hess=lambda x, u, v: chess(x, u, v)[..., None],
    )

    def random_point(rng):
        return rescale(rng.normal((n, 1)))[0]

    return ManifoldHandle(
        name=f"hypersurface({n},p={p})",
        shape=(n, 1),
        dim=n - 1,
        metric=ambient_identity,
        metric_inv=ambient_identity,
        project=project,
        christoffel=christoffel,
        sigma=project,
        tubular=tubular,
        ito_drift=ito_drift,
        strat_drift=strat_drift,
        random_point=random_point,
        default_point=lambda: np.eye(n, 1) * d[0] ** (-1.0 / p),
        constraints=(constraint,),
        params={"n": n, "p": p, "d": tuple(float(v) for v in d)},
    )

