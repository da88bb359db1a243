"""Symmetric positive-definite matrices with the affine-invariant metric.

g(x) w = x^{-1} w x^{-1}; the diffusion factor is sigma(x) w = x^{1/2} w x^{1/2}.
The Stratonovich drift uses the closed form through the eigenvalues of x.
"""

from __future__ import annotations

import numpy as np

from ..geometry import ManifoldHandle, TubularRetraction
from ..linalg import sym, sym_eig
from ..rng import RngStream
from ._constraints import symmetry_constraints


def _strat_correction(x: np.ndarray) -> np.ndarray:
    """S(x) = -V diag(b_i^2 (1/4 + sum_j b_j / (2 (b_i + b_j)))) V^T for x = V diag(b^2) V^T."""
    def coeff(d):
        beta = np.sqrt(np.maximum(d, 0.0))
        pair = beta[..., None, :] / (beta[..., :, None] + beta[..., None, :])
        return beta**2 * (0.25 + 0.5 * np.sum(pair, axis=-1))

    return -sym_eig(x).apply(coeff)


def make_spd(n: int) -> ManifoldHandle:
    if n < 1:
        raise ValueError(f"spd needs n >= 1, got {n}")

    def metric(x, w):
        xinv = np.linalg.inv(x)
        return xinv @ w @ xinv

    def metric_inv(x, w):
        return x @ w @ x

    def project(x, w):
        return sym(np.broadcast_to(w, np.broadcast(x, w).shape).astype(float))

    def christoffel(x, u, v):
        # -sym(u x^{-1} v), symmetrized in (u, v) so the bilinear extension
        # off the symmetric subspace is symmetric too; Gamma(x; v, v) solves once
        xinv_u = np.linalg.solve(x, u)
        xinv_v = xinv_u if v is u else np.linalg.solve(x, v)
        return -0.5 * (sym(u @ xinv_v) + sym(v @ xinv_u))

    def sqrt_conjugate(x, w):
        s = sym_eig(x).apply(np.sqrt)
        return s @ w @ s

    def min_eig(q):
        return np.linalg.eigvalsh(sym(q))[..., 0]

    tubular = TubularRetraction(
        mapping=lambda q: sym(q),
        differential=lambda x, w: sym(w),
        domain=lambda q: min_eig(q) > 1e-10,
    )

    def ito_drift(x):
        return (n + 1) / 4.0 * x

    def strat_drift(x):
        return _strat_correction(x) + (n + 1) / 4.0 * x

    def random_point(rng: RngStream):
        a = 0.6 * rng.normal((n, n))
        return a @ a.T + 0.25 * np.eye(n)

    return ManifoldHandle(
        name=f"spd({n})",
        shape=(n, n),
        dim=n * (n + 1) // 2,
        metric=metric,
        metric_inv=metric_inv,
        project=project,
        christoffel=christoffel,
        sigma=sqrt_conjugate,
        tubular=tubular,
        ito_drift=ito_drift,
        strat_drift=strat_drift,
        random_point=random_point,
        default_point=lambda: np.eye(n),
        constraints=symmetry_constraints(n),
        in_domain=tubular.domain,
        compact=False,
        params={"N": n},
    )
