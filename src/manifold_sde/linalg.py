"""Dense linear-algebra primitives shared by the geometry and simulation layers.

Everything here works on float64 arrays and broadcasts over leading batch
dimensions; matrices live in the two trailing axes.  The routines are thin,
checked wrappers around LAPACK via numpy -- the point of the module is a
single place where shape and symmetry preconditions are enforced and
reported with useful errors instead of garbage output downstream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class ShapeError(ValueError):
    """Input does not have the required matrix shape."""


class AsymmetricInputError(ValueError):
    """A routine requiring a symmetric matrix got a visibly asymmetric one."""


def mT(a: np.ndarray) -> np.ndarray:
    """Transpose of the trailing two axes (batched matrix transpose)."""
    return np.swapaxes(a, -1, -2)


def sym(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + mT(a))


def skew(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a - mT(a))


def frobenius_inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Trace inner product <a, b> = sum_ij a_ij b_ij, batched over leading axes."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return np.sum(a * b, axis=(-2, -1))


def frobenius_norm(a: np.ndarray) -> np.ndarray:
    return np.sqrt(frobenius_inner(a, a))


def _require_square(a: np.ndarray, who: str) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ShapeError(f"{who}: expected square matrices, got shape {a.shape}")
    return a


def _require_symmetric(a: np.ndarray, who: str, rel_tol: float = 1e-10) -> np.ndarray:
    a = _require_square(a, who)
    scale = np.max(np.abs(a)) if a.size else 0.0
    asymmetry = np.max(np.abs(a - mT(a))) if a.size else 0.0
    if asymmetry > rel_tol * max(scale, 1e-300):
        raise AsymmetricInputError(
            f"{who}: matrix asymmetry {asymmetry:.3e} exceeds {rel_tol:.1e} * scale"
        )
    return a


@dataclass(frozen=True)
class SymEigDecomposition:
    """Eigendecomposition of a symmetric matrix: ``vectors @ diag(values) @ vectors.T``.

    ``values`` are ascending; both fields broadcast over any batch axes of the
    input.
    """

    values: np.ndarray
    vectors: np.ndarray

    def apply(self, f) -> np.ndarray:
        """Assemble ``V f(d) V^T`` for a scalar function ``f`` of the eigenvalues."""
        fd = f(self.values)
        return np.einsum("...ik,...k,...jk->...ij", self.vectors, fd, self.vectors)


def sym_eig(a: np.ndarray, rel_tol: float = 1e-10) -> SymEigDecomposition:
    """Eigendecomposition of a symmetric matrix, with a symmetry precheck."""
    a = _require_symmetric(a, "sym_eig", rel_tol)
    values, vectors = np.linalg.eigh(a)
    return SymEigDecomposition(values=values, vectors=vectors)


def polar_svd(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal polar factor and singular values of n x p matrices (n >= p).

    Returns ``(u @ vt, s)`` from one thin SVD: the minimizer of ||q - a||_F
    over matrices with orthonormal columns, plus the descending singular
    values that tell how well that factor is conditioned.  The factor is
    unique only for full-rank input.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-2] < a.shape[-1]:
        raise ShapeError(f"polar_svd: need n >= p matrices, got shape {a.shape}")
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    return u @ vt, s


def polar_orth(a: np.ndarray) -> np.ndarray:
    """Orthonormal polar factor ``u @ vt`` of :func:`polar_svd`."""
    return polar_svd(a)[0]


def _well_conditioned(s: np.ndarray) -> np.ndarray:
    return s[..., -1] > 1e-8 * np.maximum(s[..., 0], 1.0)


def polar_domain(a: np.ndarray) -> np.ndarray:
    """Domain of the polar retraction: s_min > 1e-8 * max(s_max, 1), read off
    the singular values alone."""
    return _well_conditioned(np.linalg.svd(a, compute_uv=False))


def polar_fused(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(polar_orth(a), polar_domain(a))`` from the one SVD of :func:`polar_svd`."""
    point, s = polar_svd(a)
    return point, _well_conditioned(s)


def matrix_exp(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring with a Taylor series.

    Batched over leading axes.  The argument is scaled by 2^-s so its max
    row-sum norm is below 1/2, the series is summed to machine precision,
    and the result is squared back s times.
    """
    a = _require_square(np.asarray(a, dtype=float), "matrix_exp")
    norm = np.max(np.sum(np.abs(a), axis=-1), axis=-1)
    max_norm = float(np.max(norm)) if norm.size else 0.0
    s = max(0, int(np.ceil(np.log2(max_norm / 0.5))) if max_norm > 0.5 else 0)
    b = a / (2.0**s)
    eye = np.broadcast_to(np.eye(a.shape[-1]), a.shape)
    result = eye.copy()
    term = eye.copy()
    for k in range(1, 30):
        term = term @ b / k
        result = result + term
        if float(np.max(np.abs(term))) < 1e-17 * max(1.0, float(np.max(np.abs(result)))):
            break
    for _ in range(s):
        result = result @ result
    return result
