"""Dense linear-algebra primitives shared by the geometry and simulation layers.

Everything here works on float64 arrays and broadcasts over leading batch
dimensions; matrices live in the two trailing axes.  The routines are thin,
checked wrappers around LAPACK via numpy -- the point of the module is a
single place where shape and symmetry preconditions are enforced and
reported with useful errors instead of garbage output downstream.  The
polar routines pick the factorisation per matrix: one ``eigh`` of the Gram
matrix where its eigenvalues certify the result, the SVD everywhere else.
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


def ambient_identity(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The identity operator on ambient matrices: w broadcast to the batch of
    x, as a fresh float array."""
    return np.broadcast_to(w, np.broadcast_shapes(np.shape(x), np.shape(w))).astype(float)


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
        return (self.vectors * f(self.values)[..., None, :]) @ mT(self.vectors)


def sym_eig(a: np.ndarray) -> SymEigDecomposition:
    """Eigendecomposition of a symmetric matrix, with a symmetry precheck."""
    a = _require_symmetric(a, "sym_eig")
    values, vectors = np.linalg.eigh(a)
    return SymEigDecomposition(values=values, vectors=vectors)


# Rows whose Gram matrix g = a^T a has lambda_min > _GRAM_SAFE * max(lambda_max, 1)
# take the polar factor a g^{-1/2} from one eigh of g.  The bound certifies
# s_min > 0.1 * max(s_max, 1), far inside the domain threshold 1e-8 of
# _well_conditioned, and caps kappa(a)^2 at 100, so the Gram-form error
# (of order kappa^2 * eps; Higham, Functions of Matrices, 2008, ch. 8) stays
# near 100 eps.  Every other row (zero, rank-deficient, non-finite or near
# the threshold) goes through the SVD and is decided exactly as by it.
_GRAM_SAFE = 1e-2


def _polar_rows(a: np.ndarray, who: str) -> np.ndarray:
    """n x p matrices (n >= p) stacked along one batch axis."""
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-2] < a.shape[-1]:
        raise ShapeError(f"{who}: need n >= p matrices, got shape {a.shape}")
    return a.reshape((-1,) + a.shape[-2:])


def _gram_eigh(rows: np.ndarray, vectors: bool):
    """``(values, vectors or None, safe)`` of the Gram matrices rows^T rows."""
    g = mT(rows) @ rows
    finite = np.all(np.isfinite(g), axis=(-2, -1))
    g[~finite] = np.eye(g.shape[-1])  # eigh raises on them; the SVD decides them
    if vectors:
        lam, v = np.linalg.eigh(g)
    else:
        lam, v = np.linalg.eigvalsh(g), None
    safe = finite & (lam[:, 0] > _GRAM_SAFE * np.maximum(lam[:, -1], 1.0))
    return lam, v, safe


def _well_conditioned(s: np.ndarray) -> np.ndarray:
    return s[..., -1] > 1e-8 * np.maximum(s[..., 0], 1.0)


def polar_fused(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal polar factor of n x p matrices (n >= p) and the domain test
    s_min > 1e-8 * max(s_max, 1), from one factorisation per row.

    The factor is the minimizer of ||q - a||_F over matrices with
    orthonormal columns, unique only for full-rank input.  Well-conditioned
    rows (see ``_GRAM_SAFE``) read it off one ``eigh`` of a^T a as
    a V diag(lambda^{-1/2}) V^T and pass the test by the bound that selects
    them; every other row takes ``u @ vt`` and the test from one thin SVD.
    """
    rows = _polar_rows(a, "polar_fused")
    lam, v, ok = _gram_eigh(rows, vectors=True)
    unsafe = ~ok
    lam[unsafe] = 1.0  # placeholder: the SVD below overwrites these rows
    point = rows @ ((v / np.sqrt(lam)[:, None, :]) @ mT(v))
    if np.any(unsafe):
        u, s, vt = np.linalg.svd(rows[unsafe], full_matrices=False)
        point[unsafe] = u @ vt
        ok[unsafe] = _well_conditioned(s)
    return point.reshape(np.shape(a)), ok.reshape(np.shape(a)[:-2])


def polar_orth(a: np.ndarray) -> np.ndarray:
    """Orthonormal polar factor of :func:`polar_fused`."""
    return polar_fused(a)[0]


def polar_domain(a: np.ndarray) -> np.ndarray:
    """Domain of the polar retraction, the test of :func:`polar_fused`, read
    off the eigenvalues of a^T a, or the singular values where those do not
    certify it."""
    rows = _polar_rows(a, "polar_domain")
    _, _, ok = _gram_eigh(rows, vectors=False)
    unsafe = ~ok
    if np.any(unsafe):
        ok[unsafe] = _well_conditioned(np.linalg.svd(rows[unsafe], compute_uv=False))
    return ok.reshape(np.shape(a)[:-2])


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
