"""Symmetric positive-definite matrices with the affine-invariant metric.

g(x) w = x^{-1} w x^{-1}; the diffusion factor is sigma(x) w = x^{1/2} w x^{1/2}.
The Stratonovich drift uses the closed form through the eigenvalues of x.
sigma and the drift read one eigendecomposition: the handle keeps the last
one with a copy of its input, and reuses it for an input with the same bits
(a Stratonovich step asks for both at the same x).

The domain is lambda_min(sym q) > 1e-10.  A row is accepted outright when an
LDL^T elimination of s - (1e-10 + m) I, m = 1e-12 max(1, max|s|), has only
positive pivots.  A completed elimination is exact for a matrix within about
n^2 eps max|s| of the one factored (the Cholesky backward-error bound;
Higham, Accuracy and Stability of Numerical Algorithms, 2002, ch. 10), so
lambda_min(s) exceeds 1e-10 + m less that amount; ``eigvalsh`` is backward
stable to the same order, so with m far above both it accepts the row too.
The rows the elimination does not certify, and batches under
``_CERTIFY_ROWS`` rows, go to ``eigvalsh``, so every decision is the one
``eigvalsh`` makes.
"""

from __future__ import annotations

import numpy as np

from ..geometry import ManifoldHandle, TubularRetraction
from ..linalg import SymEigDecomposition, ambient_identity, sym, sym_eig
from ..rng import RngStream
from ._constraints import symmetry_constraints

# the domain test: lambda_min(sym q) > _MIN_EIGENVALUE
_MIN_EIGENVALUE = 1e-10
# the certificate's margin per unit of max(1, max|s|)
_MARGIN = 1e-12
# below this many rows one eigvalsh call is cheaper than the elimination
# (spd(3) on a 2-core host: about 1.1 us per row against 22 us plus 0.2 us per row)
_CERTIFY_ROWS = 32


def _strat_correction(eig: SymEigDecomposition) -> np.ndarray:
    """S(x) = -V diag(b_i^2 (1/4 + sum_j b_j / (2 (b_i + b_j)))) V^T for x = V diag(b^2) V^T."""
    def coeff(d):
        beta = np.sqrt(np.maximum(d, 0.0))
        pair = beta[..., None, :] / (beta[..., :, None] + beta[..., None, :])
        return beta**2 * (0.25 + 0.5 * np.sum(pair, axis=-1))

    return -eig.apply(coeff)


def _certified_positive(s: np.ndarray) -> np.ndarray:
    """Rows (n x n matrices along one batch axis) whose LDL^T elimination of
    s - (1e-10 + m) I has only positive pivots; see the module docstring."""
    n = s.shape[-1]
    level = _MIN_EIGENVALUE + _MARGIN * np.maximum(1.0, np.abs(s).max(axis=(1, 2)))
    a = s - level[:, None, None] * np.eye(n)
    # a non-finite row gives a NaN or -inf pivot, which is not positive; a
    # row with a non-positive pivot is already decided, whatever follows it
    with np.errstate(all="ignore"):
        ok = a[:, 0, 0] > 0.0
        for k in range(n - 1):
            col = a[:, k + 1:, k] / a[:, k, k, None]
            a[:, k + 1:, k + 1:] -= col[:, :, None] * a[:, k, None, k + 1:]
            ok &= a[:, k + 1, k + 1] > 0.0
    return ok


def _positive(s: np.ndarray) -> np.ndarray:
    """lambda_min(s) > 1e-10 for symmetric s, exactly as ``eigvalsh`` decides it."""
    rows = s.reshape((-1,) + s.shape[-2:])
    if rows.shape[0] < _CERTIFY_ROWS:
        ok = np.linalg.eigvalsh(rows)[:, 0] > _MIN_EIGENVALUE
    else:
        ok = _certified_positive(rows)
        rest = ~ok
        if rest.any():
            ok[rest] = np.linalg.eigvalsh(rows[rest])[:, 0] > _MIN_EIGENVALUE
    return ok.reshape(s.shape[:-2])[()]


def make_spd(N: int) -> ManifoldHandle:
    if N < 1:
        raise ValueError(f"spd needs N >= 1, got {N}")

    last = None  # (copy of the input, its decomposition)

    def eig(x):
        nonlocal last
        x = np.asarray(x, dtype=float)
        # compared bit for bit: -0.0 == 0.0, but eigh may factor them differently
        if last is not None and np.array_equal(last[0].view(np.uint64), x.view(np.uint64)):
            return last[1]
        decomposition = sym_eig(x)
        last = (x.copy(), decomposition)
        return decomposition

    def metric(x, w):
        xinv = np.linalg.inv(x)
        return xinv @ w @ xinv

    def metric_inv(x, w):
        return x @ w @ x

    def project(x, w):
        return sym(ambient_identity(x, w))

    def christoffel(x, u, v):
        # -sym(u x^{-1} v), symmetrized in (u, v) so the bilinear extension
        # off the symmetric subspace is symmetric too; Gamma(x; v, v) solves once
        xinv_u = np.linalg.solve(x, u)
        xinv_v = xinv_u if v is u else np.linalg.solve(x, v)
        return -0.5 * (sym(u @ xinv_v) + sym(v @ xinv_u))

    def sqrt_conjugate(x, w):
        s = eig(x).apply(np.sqrt)
        return s @ w @ s

    def mapping(q):
        s = sym(q)
        return s, _positive(s)

    tubular = TubularRetraction(
        mapping=mapping,
        differential=lambda x, w: sym(w),
        domain=lambda q: _positive(sym(q)),
    )

    def ito_drift(x):
        return (N + 1) / 4.0 * x

    def strat_drift(x):
        return _strat_correction(eig(x)) + (N + 1) / 4.0 * x

    def random_point(rng: RngStream):
        a = 0.6 * rng.normal((N, N))
        return a @ a.T + 0.25 * np.eye(N)

    return ManifoldHandle(
        name=f"spd({N})",
        shape=(N, N),
        dim=N * (N + 1) // 2,
        metric=metric,
        metric_inv=metric_inv,
        project=project,
        christoffel=christoffel,
        sigma=sqrt_conjugate,
        tubular=tubular,
        ito_drift=ito_drift,
        strat_drift=strat_drift,
        random_point=random_point,
        default_point=lambda: np.eye(N),
        constraints=symmetry_constraints(N),
        in_domain=tubular.domain,
        compact=False,
        params={"N": N},
    )
