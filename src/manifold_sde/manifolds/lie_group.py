"""Matrix Lie groups with left-invariant metrics.

Five kinds:

- ``gl+``: invertible N x N matrices with positive determinant (open set),
- ``sl``:  determinant one,
- ``so``:  special orthogonal,
- ``se``:  special Euclidean group of R^N (rotation block + translation
           column inside (N+1) x (N+1) matrices, last row (0, ..., 0, 1)),
- ``aff``: affine group of R^N (invertible block + translation column,
           same (N+1) x (N+1) embedding).

Each group comes from one construction.  Its algebra g has a
Frobenius-orthonormal basis {e_k}, sliced from the ambient basis of the
matrix space.  The metric at a point x is the left translate of an inner
product on g: <xi, eta>_x = <x^{-1} xi, I(x^{-1} eta)>_F.  The coefficient
operator I is the identity by default, or a random SPD matrix in the basis
{e_k} drawn from ``metric_seed``, and it is the identity on the Frobenius
complement of g, so every callable extends smoothly off the group, which
the integrators rely on.  With {f_k} a metric-orthonormal basis of g the
Brownian drifts are x (sum_k f_k f_k - S) / 2 (Ito) and -x S / 2
(Stratonovich), S = sum_k I^{-1} P_g [I f_k, f_k^T].

``project``, ``metric`` and ``christoffel`` start from x^{-1}; a handle
inverts each point once and hands the inverse to all three
(:func:`~manifold_sde.linalg.reuse_last`).  ``sigma`` needs no inverse: its
value x mix(P_g w, I^{-1/2}) lies in x g for every invertible x, so it is
tangent without a projection, and the projected Euler and Heun steps of a
Brownian SDE never invert x.  On so(N) the inverse is
:func:`~manifold_sde.linalg.so_inv`, which takes the 3 x 3 adjugate or Schulz
steps from x^T on the rows it certifies and LAPACK on the rest; the other
kinds call ``np.linalg.inv``.  With the bi-invariant metric on
so(N) the Levi-Civita connection is nabla_X Y = [X, Y] / 2 (Milnor,
Curvatures of left invariant metrics on Lie groups, Adv. Math. 21, 1976),
so the bracket term of the Christoffel function vanishes and is not formed.
"""

from __future__ import annotations

import numpy as np

from .. import linalg
from .._checks import require_integer
from ..geometry import Constraint, ManifoldHandle, TubularRetraction, ambient_basis
from ..linalg import (
    ambient_identity,
    matrix_exp,
    mT,
    polar_fused,
    polar_orth,
    reuse_last,
    skew,
    sym_eig,
)
from ..rng import RngStream
from ._constraints import fixed_entry_constraints, orthogonality_constraints

LIE_KINDS = ("gl+", "sl", "so", "se", "aff")

# gl+, sl and aff proposals are mapped where the determinant (of the
# invertible block) exceeds this
_MIN_DET = 1e-12


def random_spd_coeff(k: int, seed: int) -> np.ndarray:
    """A random SPD k x k coefficient matrix with spectrum in [1/2, 2]."""
    rng = RngStream(seed=seed, stream_id=0)
    q = polar_orth(rng.normal((k, k)) + 3.0 * np.eye(k))
    vals = 0.5 + 1.5 * rng.uniform((k,))
    return (q * vals) @ mT(q)


def _algebra_basis(kind: str, size: int) -> np.ndarray:
    """Frobenius-orthonormal basis of the algebra, shape (k, size, size).

    The order is fixed: it decides what ``metric_seed`` and ``random_point``
    produce.  gl+ and aff take the elementary matrices E_ij row by row (aff
    only those off the last row); sl the off-diagonal E_ij and then the
    traceless diagonals; so and se the (E_ij - E_ji) / sqrt(2), i < j, of
    the rotation block, se then the translation column.
    """
    e = ambient_basis((size, size)).reshape(size, size, size, size)
    m = size - 1
    if kind == "gl+":
        return e.reshape(-1, size, size)
    if kind == "aff":
        return e[:m].reshape(-1, size, size)
    if kind == "sl":
        diag = e[range(size), range(size)]
        ms = np.arange(1.0, size)[:, None, None]
        traceless = (np.cumsum(diag, axis=0)[:-1] - ms * diag[1:]) / np.sqrt(ms * (ms + 1.0))
        return np.concatenate([e[~np.eye(size, dtype=bool)], traceless])
    rot = size if kind == "so" else m
    i, j = np.triu_indices(rot, 1)
    skews = (e[i, j] - e[j, i]) * (1.0 / np.sqrt(2.0))
    return skews if kind == "so" else np.concatenate([skews, e[range(m), m]])


def _trace(x: np.ndarray) -> np.ndarray:
    return np.trace(x, axis1=-2, axis2=-1)


def _unit_det_constraint() -> Constraint:
    def value(x):
        return (np.linalg.det(x) - 1.0)[..., None]

    def grad(x):
        return (np.linalg.det(x)[..., None, None] * mT(np.linalg.inv(x)))[..., None, :, :]

    def hess(x, u, v):
        xinv = np.linalg.inv(x)
        xiu, xiv = xinv @ u, xinv @ v
        return (np.linalg.det(x) * (_trace(xiu) * _trace(xiv) - _trace(xiu @ xiv)))[..., None]

    return Constraint(value=value, grad=grad, hess=hess)


def _embedding(kind: str, n: int, project):
    """``(tubular, constraints)`` of one kind in n x n matrices.

    ``project`` is the group's tangent projection, which is the differential
    of the tubular map at a group point for every kind but gl+, whose map is
    the identity.  The map's flag (the determinant test, and on so and se
    the polar factor's) is the kind's only domain test.
    """
    if kind == "sl":
        def rescale(q):
            q = np.asarray(q, dtype=float)
            d = np.linalg.det(q)
            ok = d > _MIN_DET
            return q * (np.where(ok, d, 1.0) ** (-1.0 / n))[..., None, None], ok

        tubular = TubularRetraction(mapping=rescale, differential=project)
        return tubular, (_unit_det_constraint(),)

    # so and gl+ map the whole matrix; se and aff map the leading m x m block,
    # keep the translation column and reset the last row.  so and se take the
    # block's polar factor where det > 0; gl+ and aff keep the block where
    # det > _MIN_DET.
    affine = kind in ("se", "aff")
    polar = kind in ("so", "se")
    m = n - 1 if affine else n
    min_det = 0.0 if polar else _MIN_DET

    def mapping(q):
        q = np.asarray(q, dtype=float)
        block = q[..., :m, :m]
        ok = np.linalg.det(block) > min_det
        if polar:
            block, polar_ok = polar_fused(block)
            ok = polar_ok & ok
        if not affine:
            return block, ok
        out = np.zeros(q.shape)
        out[..., :m, :m] = block
        out[..., :m, m:] = q[..., :m, m:]
        out[..., m, m] = 1.0
        return out, ok

    constraints = (orthogonality_constraints((n, n), rows=(0, m), cols=(0, m)),) if polar else ()
    if affine:
        last_row = [(m, j, 0.0) for j in range(m)] + [(m, m, 1.0)]
        constraints += (fixed_entry_constraints((n, n), last_row),)
    differential = ambient_identity if kind == "gl+" else project
    tubular = TubularRetraction(mapping=mapping, differential=differential)
    return tubular, constraints


def make_lie_group(kind: str, N: int, metric_seed: int | None = None) -> ManifoldHandle:
    """Group manifold of the given kind with group parameter ``N``.

    For ``gl+``/``sl``/``so`` the matrices are N x N; ``se``/``aff`` are the
    rigid-motion/affine groups of R^N, embedded as (N+1) x (N+1) matrices.
    ``metric_seed`` draws a random well-conditioned SPD coefficient matrix;
    the default is the Frobenius (bi-invariant where possible) metric.
    """
    if kind not in LIE_KINDS:
        raise ValueError(f"unknown group kind {kind!r}; expected one of {LIE_KINDS}")
    require_integer("N", N)
    if metric_seed is not None:
        require_integer("metric_seed", metric_seed)
    min_n = 1 if kind in ("gl+", "se", "aff") else 2
    if N < min_n:
        raise ValueError(f"{kind} needs N >= {min_n}, got {N}")
    size = N + 1 if kind in ("se", "aff") else N
    basis = _algebra_basis(kind, size)
    k = len(basis)

    def coords(w):
        return np.einsum("kij,...ij->...k", basis, w)

    def embed(c):
        return np.einsum("...k,kij->...ij", c, basis)

    def algebra_project(w):
        # skew(w) is embed(coords(w)) in the so(N) basis
        return skew(w) if kind == "so" else embed(coords(w))

    def mix(w, mat):
        """I-type operator: ``mat`` on the algebra coordinates, identity off g."""
        if mat is None:
            return np.asarray(w, dtype=float)
        c = coords(w)
        return w - embed(c) + embed(c @ mat)

    if metric_seed is None:
        coeff = coeff_inv = coeff_inv_sqrt = None
        frame = basis
    else:
        coeff = random_spd_coeff(k, metric_seed)
        dec = sym_eig(coeff)
        coeff_inv = dec.apply(lambda d: 1.0 / d)
        coeff_inv_sqrt = dec.apply(lambda d: d**-0.5)
        frame = np.einsum("ab,aij->bij", coeff_inv_sqrt, basis)

    # the drift constants from the metric-orthonormal frame {f_k}
    ito_term = np.einsum("kab,kbc->ac", frame, frame)
    lf = mix(frame, coeff)
    bracket = np.einsum("kab,kcb->ac", lf, frame) - np.einsum("kba,kbc->ac", frame, lf)
    strat_term = mix(algebra_project(bracket), coeff_inv)
    ito_const = 0.5 * (ito_term - strat_term)
    strat_const = -0.5 * strat_term

    # x^{-1} once per point, then products: a broadcast solve would factor x
    # again for every right-hand side (every ambient basis element), and one
    # step asks for the inverse of the same x in metric, christoffel and the
    # retraction's differential.  so inverts through linalg.so_inv,
    # the other kinds through np.linalg.inv; both are looked up per call, so a
    # wrapped routine sees every inversion.
    inverse = reuse_last(lambda x: linalg.so_inv(x) if kind == "so" else np.linalg.inv(x))

    def project(x, w):
        return x @ algebra_project(inverse(x) @ w)

    def metric(x, w):
        xinv = inverse(x)
        return mT(xinv) @ mix(xinv @ w, coeff)

    def metric_inv(x, w):
        return x @ mix(mT(x) @ w, coeff_inv)

    def sigma(x, w):
        # in x g for every invertible x, where project(x, .) is the identity:
        # tangent as it stands, so no step inverts x for its noise
        return x @ mix(algebra_project(w), coeff_inv_sqrt)

    # With the bi-invariant metric on so(N) the bracket below has the form
    # (P - Q) + (P^T - Q^T), which numpy forms from the same products in the
    # same order, so it is symmetric bit for bit and its skew part is +0:
    # dropping it changes at most the sign of an exact zero.
    bi_invariant = kind == "so" and metric_seed is None

    def christoffel(x, u, v):
        xinv = inverse(x)
        a = xinv @ u
        b = a if v is u else xinv @ v
        # u @ a + u @ a = 2 (u @ a) exactly, so Gamma(x; u, u) forms one product
        first = -(u @ a) if v is u else -0.5 * (u @ b + v @ a)
        if bi_invariant:
            return first
        la = mix(a, coeff)
        lb = mix(b, coeff)
        bracket = (la @ mT(b) - mT(b) @ la) + (lb @ mT(a) - mT(a) @ lb)
        return first + 0.5 * (x @ mix(algebra_project(bracket), coeff_inv))

    tubular, constraints = _embedding(kind, size, project)

    return ManifoldHandle(
        name=f"{kind}({N})",
        shape=(size, size),
        dim=k,
        metric=metric,
        metric_inv=metric_inv,
        project=project,
        christoffel=christoffel,
        sigma=sigma,
        tubular=tubular,
        ito_drift=lambda x: x @ ito_const,
        strat_drift=lambda x: x @ strat_const,
        random_point=lambda rng: matrix_exp(embed(0.35 * rng.normal((k,)))),
        default_point=lambda: np.eye(size),
        constraints=constraints,
        compact=kind == "so",
        params={"kind": kind, "N": N, "metric_seed": metric_seed},
    )
