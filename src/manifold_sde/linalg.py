"""Dense linear-algebra primitives shared by the geometry and simulation layers.

Everything here works on float64 arrays and broadcasts over leading batch
dimensions; matrices live in the two trailing axes.  Shape and symmetry
preconditions are enforced here and reported with useful errors instead of
garbage output downstream.  The polar routines certify each matrix from its
Gram matrix and then iterate (Newton-Schulz) or take the SVD; none of them
calls ``eigh``, and :func:`polar_fused` returns the polar retraction's domain
flag with the factor from that one pass.  In the same way :func:`so_inv`
inverts matrices near SO(n) by the 3 x 3 adjugate or Schulz steps from x^T
on the rows it certifies, and by LAPACK on the rest.  Both iterations run
through one per-row loop, ``_certified_iteration``.  :func:`reuse_last` lets
a handle factor a point once however many of its callables ask for it.
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


def reuse_last(factor):
    """``factor`` (a function of one array) that remembers its last call.

    The wrapper keeps a copy of its last input and the result, and returns
    that same result for an input of the same shape and the same bits.  Bits
    are compared as uint64, so -0.0 and 0.0 differ: a factorisation may treat
    them differently.  Callers must not write into the result.
    """
    last = None  # (copy of the input, its result)

    def wrapper(x):
        nonlocal last
        x = np.asarray(x, dtype=float)
        if last is not None and np.array_equal(last[0].view(np.uint64), x.view(np.uint64)):
            return last[1]
        result = factor(x)
        last = (x.copy(), result)
        return result

    return wrapper


def sym_eig(a: np.ndarray) -> SymEigDecomposition:
    """Eigendecomposition of a symmetric matrix, with a symmetry precheck."""
    a = _require_symmetric(a, "sym_eig")
    values, vectors = np.linalg.eigh(a)
    return SymEigDecomposition(values=values, vectors=vectors)


# Rows with ||I - a^T a||_F <= _GRAM_CERTIFIED pass the domain test without a
# factorisation: every eigenvalue of the Gram matrix then lies in [1/2, 3/2],
# so s_min^2 >= 1/2 and s_max^2 <= 3/2, far inside the test
# s_min > 1e-8 max(s_max, 1).  Their polar factor is the limit of the Newton-Schulz
# iteration x <- x + x (I - x^T x) / 2 (Higham, Functions of Matrices, 2008,
# ch. 8), which converges quadratically from that bound.
_GRAM_CERTIFIED = 0.5

# One Newton-Schulz step maps the gap g = ||I - x^T x||_F to at most
# (3 g^2 + g^3) / 4, so a row whose gap exceeds k of these values (the
# preimages of 1e-16 under that map, rounded down) is below 1e-16 after k
# steps.  The count depends on the row alone, never on its batch.
_NEWTON_SCHULZ_GAPS = np.array(
    [1e-16, 1.15470e-8, 1.24078e-4, 1.28348e-2, 0.128110, 0.388861, 0.652571]
)


def _certified_iteration(x, r, residual, gap, certified, gaps):
    """``(x, ok)`` after the iteration x <- x + x r on rows along one axis,
    with ``ok = gap <= certified``.

    The first r is given and every later one is ``residual(x)``.  An ``ok``
    row takes as many steps as its own gap needs (``searchsorted(gaps,
    gap)``), so its bits never depend on its batch; any other row takes none
    and is the caller's to overwrite.  The steps that every row takes run on
    the whole batch, and a row that has taken its steps keeps its bits,
    -0.0 included.
    """
    ok = gap <= certified
    steps = np.where(ok, np.searchsorted(gaps, gap), 0)
    common = steps.min() if steps.size else 0
    with np.errstate(all="ignore"):  # non-finite uncertified rows
        for k in range(steps.max(initial=0)):
            if k:
                r = residual(x)
            step = x + x @ r
            x = step if k < common else np.where((steps > k)[:, None, None], step, x)
    return x, ok


def polar_fused(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal polar factor of n x p matrices (n >= p) and the domain test
    s_min > 1e-8 * max(s_max, 1), from one Gram product per row.

    The factor is the minimizer of ||q - a||_F over matrices with
    orthonormal columns, unique only for full-rank input.  A row with
    ||I - a^T a||_F <= 1/2 passes the test by that bound and takes as many
    Newton-Schulz steps as its own gap needs (see ``_NEWTON_SCHULZ_GAPS``),
    the first from the Gram matrix of the test; every other finite row takes
    ``u @ vt`` and the test from one thin SVD.  A non-finite row fails the
    test, with a NaN point, and never reaches LAPACK.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-2] < a.shape[-1]:
        raise ShapeError(f"polar_fused: need n >= p matrices, got shape {a.shape}")
    rows = a.reshape((-1,) + a.shape[-2:])
    eye = np.eye(rows.shape[-1])
    # e = I - x^T x with x^T copied first: ``mT(x) @ x`` (a view of the same
    # array) takes numpy's per-matrix syrk path, 2-3x slower here; a
    # non-finite or overflowing row gets a NaN or inf gap
    with np.errstate(all="ignore"):
        e = eye - np.ascontiguousarray(mT(rows)) @ rows
        gap = np.sqrt(np.sum(e * e, axis=(-2, -1)))
    # the step is x + x (e / 2), with the halving (exact) folded into the
    # Gram product: (I - x^T x) / 2 = I / 2 - (x^T / 2) x, where x^T / 2 is
    # a new array, so the product stays off the syrk path
    half_eye = 0.5 * eye
    x, ok = _certified_iteration(rows, 0.5 * e, lambda x: half_eye - (0.5 * mT(x)) @ x,
                                 gap, _GRAM_CERTIFIED, _NEWTON_SCHULZ_GAPS)
    if ok.all():
        point = x.copy() if x is rows else x  # no step taken: never a view of a
    else:
        point = np.where(ok[:, None, None], x, np.nan)
        svd_rows = ~ok & np.all(np.isfinite(rows), axis=(-2, -1))
        if np.any(svd_rows):
            u, s, vt = np.linalg.svd(rows[svd_rows], full_matrices=False)
            point[svd_rows] = u @ vt
            ok[svd_rows] = s[:, -1] > 1e-8 * np.maximum(s[:, 0], 1.0)
    return point.reshape(a.shape), ok.reshape(a.shape[:-2])


def polar_orth(a: np.ndarray) -> np.ndarray:
    """Orthonormal polar factor of :func:`polar_fused`: NaN on a non-finite
    row."""
    return polar_fused(a)[0]


# Entry k of the row-major 3 x 3 adjugate is f[P] f[Q] - f[R] f[S], f the
# row-major entries of the matrix; the rows here are P, Q, R, S.
_ADJUGATE_3 = np.array([
    [4, 2, 1, 5, 0, 2, 3, 1, 0],
    [8, 7, 5, 6, 8, 3, 7, 6, 4],
    [5, 1, 2, 3, 2, 0, 4, 0, 1],
    [7, 8, 4, 8, 6, 5, 6, 7, 3],
])

# A 3 x 3 row with ||x||_F^3 <= 8 |det x| has cond_2(x) <= 8: s_max^3 <=
# ||x||_F^3 and |det x| <= s_max^2 s_min.  The floor on ||x||_F^2 keeps det x
# normal.
_ADJUGATE_COND = 8.0
_ADJUGATE_FLOOR = 1e-200

# Rows with g = ||I - x x^T||_F <= _SCHULZ_CERTIFIED invert by the Schulz
# iteration X <- X + X (I - x X) from X = x^T (Higham, Functions of
# Matrices, 2008, sec. 7.3).  Its residual I - x X maps g to at most g^2, so
# a row whose gap exceeds k of these values (the preimages of 1e-16) is below
# 1e-16 after k steps.  Past the cap LAPACK is faster than the extra steps.
_SCHULZ_CERTIFIED = 1e-2
_SCHULZ_GAPS = np.array([1e-16, 1e-8, 1e-4])


def _adjugate_inv(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(adj(x) / det x, certified)`` for 3 x 3 rows."""
    f = rows.reshape(-1, 9)
    g = f[:, _ADJUGATE_3]
    with np.errstate(all="ignore"):  # uncertified rows are overwritten
        adj = g[:, 0] * g[:, 1] - g[:, 2] * g[:, 3]
        det = np.einsum("ij,ij->i", f[:, :3], adj[:, ::3])  # along the first row
        norm2 = np.einsum("ij,ij->i", f, f)
        # false on a NaN ratio: a non-finite, overflowing or singular row
        ok = (norm2 * np.sqrt(norm2) / np.abs(det) <= _ADJUGATE_COND) \
            & (norm2 >= _ADJUGATE_FLOOR)
        return (adj / det[:, None]).reshape(rows.shape), ok


def _schulz_inv(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(Schulz iterate from x^T, certified)`` for n x n rows."""
    xinv = mT(rows).copy()  # C order, off the syrk path, never a view of x
    eye = np.eye(rows.shape[-1])
    with np.errstate(all="ignore"):  # uncertified rows are overwritten
        e = eye - rows @ xinv
        gap = frobenius_norm(e)
    return _certified_iteration(xinv, e, lambda xinv: eye - rows @ xinv,
                                gap, _SCHULZ_CERTIFIED, _SCHULZ_GAPS)


def so_inv(x: np.ndarray) -> np.ndarray:
    """x^{-1} for square matrices near SO(n), without LAPACK on certified rows.

    A 3 x 3 row with ||x||_F^3 <= 8 |det x| (so cond_2(x) <= 8) takes its
    adjugate over its determinant.  Any other size takes Schulz steps from
    x^T where g = ||I - x x^T||_F <= 1e-2, as many as its own gap needs to
    bring the residual below 1e-16 (see ``_SCHULZ_GAPS``), so a row's bits
    never depend on its batch.  Every other row (uncertified, non-finite or
    singular) takes ``np.linalg.inv`` on those rows alone, which raises
    ``LinAlgError`` on a singular one.
    """
    a = _require_square(x, "so_inv")
    rows = a.reshape((-1,) + a.shape[-2:])
    xinv, ok = (_adjugate_inv if a.shape[-1] == 3 else _schulz_inv)(rows)
    if not ok.all():
        xinv[~ok] = np.linalg.inv(rows[~ok])
    return xinv.reshape(a.shape)


def matrix_exp(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring with a Taylor series.

    Batched over leading axes.  Each matrix is scaled by its own 2^-s so its
    max row-sum norm is below 1/2, its series is summed until its own term
    falls below machine precision, and it is squared back s times, so its
    bits never depend on its batch.
    """
    a = _require_square(np.asarray(a, dtype=float), "matrix_exp")
    norm = np.max(np.sum(np.abs(a), axis=-1), axis=-1)
    s = np.ceil(np.log2(np.fmax(norm, 0.5) / 0.5))
    b = a / (2.0 ** s)[..., None, None]
    eye = np.broadcast_to(np.eye(a.shape[-1]), a.shape)
    result = eye.copy()
    term = eye.copy()
    active = np.ones(norm.shape, dtype=bool)
    for k in range(1, 30):
        term = term @ b / k
        result = np.where(active[..., None, None], result + term, result)
        active &= ~(np.max(np.abs(term), axis=(-2, -1))
                    < 1e-17 * np.maximum(1.0, np.max(np.abs(result), axis=(-2, -1))))
        if not active.any():
            break
    for i in range(int(s.max(initial=0))):
        result = np.where((s > i)[..., None, None], result @ result, result)
    return result
