"""Matrix Lie groups with left-invariant metrics.

Five kinds:

- ``gl+``: invertible N x N matrices with positive determinant (open set),
- ``sl``:  determinant one,
- ``so``:  special orthogonal,
- ``se``:  special Euclidean group of R^N (rotation block + translation
           column inside (N+1) x (N+1) matrices, last row (0, ..., 0, 1)),
- ``aff``: affine group of R^N (invertible block + translation column,
           same (N+1) x (N+1) embedding).

The metric at a point x is the left translate of an inner product on the
Lie algebra g: <xi, eta>_x = <x^{-1} xi, I(x^{-1} eta)>_F, where the
coefficient operator I is symmetric positive definite on g (identity by
default).  All geometry callables extend smoothly off the group, which the
integrators rely on.
"""

from __future__ import annotations

import numpy as np

from ..geometry import Constraint, ManifoldHandle, TubularRetraction
from ..linalg import matrix_exp, mT, polar_domain, polar_fused, polar_orth, skew, sym_eig
from ..rng import RngStream
from ._constraints import fixed_entry_constraints, orthogonality_constraints

LIE_KINDS = ("gl+", "sl", "so", "se", "aff")

# gl+, sl and aff proposals are mapped where the determinant (of the
# invertible block) exceeds this
_MIN_DET = 1e-12


# ---------------------------------------------------------------------------
# Frobenius-orthonormal algebra bases (deterministic orderings)


def _basis_gl(n: int) -> np.ndarray:
    return np.eye(n * n).reshape(n * n, n, n)


def _basis_so(n: int) -> np.ndarray:
    out = []
    root = 1.0 / np.sqrt(2.0)
    for i in range(n):
        for j in range(i + 1, n):
            e = np.zeros((n, n))
            e[i, j] = root
            e[j, i] = -root
            out.append(e)
    return np.array(out).reshape(-1, n, n)


def _basis_sl(n: int) -> np.ndarray:
    out = []
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            e = np.zeros((n, n))
            e[i, j] = 1.0
            out.append(e)
    for m in range(1, n):
        e = np.zeros((n, n))
        e[range(m), range(m)] = 1.0
        e[m, m] = -float(m)
        out.append(e / np.sqrt(m * (m + 1.0)))
    return np.array(out)


def _basis_se(n: int) -> np.ndarray:
    m = n - 1
    out = []
    for small in _basis_so(m):
        e = np.zeros((n, n))
        e[:m, :m] = small
        out.append(e)
    for i in range(m):
        e = np.zeros((n, n))
        e[i, m] = 1.0
        out.append(e)
    return np.array(out)


def _basis_aff(n: int) -> np.ndarray:
    m = n - 1
    out = []
    for i in range(m):
        for j in range(n):
            e = np.zeros((n, n))
            e[i, j] = 1.0
            out.append(e)
    return np.array(out)


_BASIS_BUILDERS = {
    "gl+": _basis_gl,
    "sl": _basis_sl,
    "so": _basis_so,
    "se": _basis_se,
    "aff": _basis_aff,
}


# ---------------------------------------------------------------------------
# algebra + metric container


class LieStructure:
    """Algebra basis, metric coefficients, and the derived drift constants.

    ``basis`` is a Frobenius-orthonormal basis of the algebra, shape
    (k, n, n).  ``coeff`` holds the metric coefficients in that basis
    (None means the Frobenius metric).  The operator acts as the identity
    on the Frobenius-orthogonal complement of the algebra, so every
    callable below is defined on all ambient matrices.
    """

    def __init__(self, kind: str, n: int, basis: np.ndarray, coeff: np.ndarray | None = None):
        self.kind = kind
        self.n = n
        self.basis = np.asarray(basis, dtype=float)
        self.k = self.basis.shape[0]
        if coeff is None:
            self.coeff = None
            self.coeff_inv = None
            self.coeff_inv_sqrt = None
            self._frame = self.basis
        else:
            coeff = np.asarray(coeff, dtype=float)
            if coeff.shape != (self.k, self.k):
                raise ValueError(
                    f"coefficient matrix must be ({self.k}, {self.k}) for {kind}({n}), "
                    f"got {coeff.shape}"
                )
            dec = sym_eig(coeff)
            if np.any(dec.values <= 0.0):
                raise ValueError("metric coefficient matrix must be positive definite")
            self.coeff = coeff
            self.coeff_inv = dec.apply(lambda d: 1.0 / d)
            self.coeff_inv_sqrt = dec.apply(lambda d: d**-0.5)
            self._frame = np.einsum("ab,aij->bij", self.coeff_inv_sqrt, self.basis)
        self.ito_term, self.strat_term = self._drift_terms()

    # -- coordinates --------------------------------------------------------

    def coords(self, w: np.ndarray) -> np.ndarray:
        """Frobenius coordinates of the algebra component, shape (..., k)."""
        return np.einsum("kij,...ij->...k", self.basis, w)

    def embed(self, c: np.ndarray) -> np.ndarray:
        return np.einsum("...k,kij->...ij", c, self.basis)

    def algebra_project(self, w: np.ndarray) -> np.ndarray:
        if self.kind == "so":
            # embed(coords(w)) in the Frobenius-orthonormal so(n) basis
            return skew(w)
        return self.embed(self.coords(w))

    def _mix(self, w: np.ndarray, mat: np.ndarray | None) -> np.ndarray:
        if mat is None:
            return np.asarray(w, dtype=float)
        c = self.coords(w)
        return w - self.embed(c) + self.embed(c @ mat)

    def apply_metric(self, w: np.ndarray) -> np.ndarray:
        return self._mix(w, self.coeff)

    def apply_metric_inv(self, w: np.ndarray) -> np.ndarray:
        return self._mix(w, self.coeff_inv)

    def apply_metric_inv_sqrt(self, w: np.ndarray) -> np.ndarray:
        return self._mix(w, self.coeff_inv_sqrt)

    # -- drift constants -----------------------------------------------------

    def _drift_terms(self) -> tuple[np.ndarray, np.ndarray]:
        """The two constant matrices behind the Brownian drifts.

        With {f_k} a metric-orthonormal algebra basis:
          ito_term  = sum_k f_k f_k
          strat_term = sum_k I^{-1} P_g [I f_k, f_k^T]
        and the standard drifts are x (ito_term - strat_term) / 2 (Ito) and
        -x strat_term / 2 (Stratonovich).
        """
        f = self._frame
        ito = np.einsum("kab,kbc->ac", f, f)
        lf = self.apply_metric(f)
        bracket = np.einsum("kab,kcb->ac", lf, f) - np.einsum("kba,kbc->ac", f, lf)
        strat = self.apply_metric_inv(self.algebra_project(bracket))
        return ito, strat


def random_spd_coeff(k: int, seed: int, spread: float = 2.0) -> np.ndarray:
    """A random SPD coefficient matrix with spectrum in [1/spread, spread]."""
    if spread <= 1.0:
        raise ValueError("spread must exceed 1")
    rng = RngStream(seed=seed, stream_id=0)
    q = polar_orth(rng.normal((k, k)) + 3.0 * np.eye(k))
    vals = 1.0 / spread + (spread - 1.0 / spread) * rng.uniform((k,))
    return (q * vals) @ mT(q)


# ---------------------------------------------------------------------------
# per-kind embeddings


def _det(x: np.ndarray) -> np.ndarray:
    return np.linalg.det(x)


def _trace(x: np.ndarray) -> np.ndarray:
    return np.trace(x, axis1=-2, axis2=-1)


def _unit_det_constraint(n: int) -> Constraint:
    def value(x):
        return _det(x) - 1.0

    def grad(x):
        return _det(x)[..., None, None] * mT(np.linalg.inv(x))

    def hess(x, u, v):
        xiu = np.linalg.solve(x, u)
        xiv = np.linalg.solve(x, v)
        return _det(x) * (_trace(xiu) * _trace(xiv) - _trace(xiu @ xiv))

    return Constraint(value=value, grad=grad, hess=hess)


def _kind_embedding(kind: str, n: int, project):
    """Tubular retraction, constraints, domain test, compactness for one kind.

    ``project`` is the group's tangent projection, which is the differential
    of every kind's tubular map at a group point (gl+ uses the identity).
    """
    m = n - 1

    def block(q):
        return q[..., :m, :m]

    def positive_det(q):
        return _det(q) > _MIN_DET

    if kind == "gl+":
        tubular = TubularRetraction(
            mapping=lambda q: (np.array(q, dtype=float), positive_det(q)),
            differential=lambda x, w: np.asarray(w, dtype=float),
            domain=positive_det,
        )
        return tubular, (), positive_det, False

    if kind == "sl":
        def mapping(q):
            q = np.asarray(q, dtype=float)
            d = _det(q)
            ok = d > _MIN_DET
            return q * (np.where(ok, d, 1.0) ** (-1.0 / n))[..., None, None], ok

        tubular = TubularRetraction(
            mapping=mapping, differential=project, domain=positive_det
        )
        return tubular, (_unit_det_constraint(n),), None, False

    if kind == "so":
        def mapping(q):
            point, ok = polar_fused(q)
            return point, ok & (_det(q) > 0)

        tubular = TubularRetraction(
            mapping=mapping,
            differential=project,
            domain=lambda q: polar_domain(q) & (_det(q) > 0),
        )
        return (
            tubular,
            orthogonality_constraints((n, n)),
            (lambda x: _det(x) > 0),
            True,
        )

    if kind == "se":
        def assemble(q, rot):
            out = np.zeros(q.shape)
            out[..., :m, :m] = rot
            out[..., :m, m:] = q[..., :m, m:]
            out[..., m, m] = 1.0
            return out

        def mapping(q):
            b = block(q)
            rot, ok = polar_fused(b)
            return assemble(q, rot), ok & (_det(b) > 0)

        def domain(q):
            b = block(q)
            return polar_domain(b) & (_det(b) > 0)

        constraints = orthogonality_constraints((n, n), rows=(0, m), cols=(0, m))
        constraints += fixed_entry_constraints(
            (n, n), [(m, j, 0.0) for j in range(m)] + [(m, m, 1.0)]
        )
        tubular = TubularRetraction(mapping=mapping, differential=project, domain=domain)
        return tubular, constraints, (lambda x: _det(block(x)) > 0), False

    if kind == "aff":
        def mapping(q):
            q = np.asarray(q, dtype=float)
            out = np.zeros(q.shape)
            out[..., :m, :] = q[..., :m, :]
            out[..., m, m] = 1.0
            return out, positive_det(block(q))

        constraints = fixed_entry_constraints(
            (n, n), [(m, j, 0.0) for j in range(m)] + [(m, m, 1.0)]
        )
        tubular = TubularRetraction(
            mapping=mapping, differential=project, domain=lambda q: positive_det(block(q))
        )
        return tubular, constraints, tubular.domain, False

    raise ValueError(f"unknown group kind {kind!r}; expected one of {LIE_KINDS}")


# ---------------------------------------------------------------------------
# handle


def make_lie_group(
    kind: str,
    n: int,
    coeff: np.ndarray | None = None,
    metric_seed: int | None = None,
) -> ManifoldHandle:
    """Group manifold of the given kind with group parameter ``n``.

    For ``gl+``/``sl``/``so`` the matrices are n x n; ``se``/``aff`` are the
    rigid-motion/affine groups of R^n, embedded as (n+1) x (n+1) matrices.

    ``coeff`` fixes the metric coefficients in the algebra basis;
    ``metric_seed`` draws a random well-conditioned SPD coefficient matrix
    instead.  Both default to the Frobenius (bi-invariant where possible)
    metric.
    """
    if kind not in LIE_KINDS:
        raise ValueError(f"unknown group kind {kind!r}; expected one of {LIE_KINDS}")
    min_n = 1 if kind in ("gl+", "se", "aff") else 2
    if n < min_n:
        raise ValueError(f"{kind} needs parameter n >= {min_n}, got {n}")
    size = n + 1 if kind in ("se", "aff") else n

    basis = _BASIS_BUILDERS[kind](size)
    if coeff is not None and metric_seed is not None:
        raise ValueError("give either coeff or metric_seed, not both")
    if coeff is None and metric_seed is not None:
        coeff = random_spd_coeff(basis.shape[0], metric_seed)
    structure = LieStructure(kind, size, basis, coeff)

    # x^{-1} once per call, then products: a broadcast solve would factor x
    # again for every right-hand side (every ambient basis element)
    def project(x, w):
        return x @ structure.algebra_project(np.linalg.inv(x) @ w)

    def metric(x, w):
        xinv = np.linalg.inv(x)
        return mT(xinv) @ structure.apply_metric(xinv @ w)

    def metric_inv(x, w):
        return x @ structure.apply_metric_inv(mT(x) @ w)

    def sigma(x, w):
        return x @ structure.apply_metric_inv_sqrt(structure.algebra_project(w))

    def christoffel(x, u, v):
        xinv = np.linalg.inv(x)
        a = xinv @ u
        b = a if v is u else xinv @ v
        first = -0.5 * (u @ b + v @ a)
        la = structure.apply_metric(a)
        lb = structure.apply_metric(b)
        bracket = (la @ mT(b) - mT(b) @ la) + (lb @ mT(a) - mT(a) @ lb)
        second = x @ structure.apply_metric_inv(structure.algebra_project(bracket))
        return first + 0.5 * second

    tubular, constraints, in_domain, compact = _kind_embedding(kind, size, project)

    it, st = structure.ito_term, structure.strat_term
    ito_const = 0.5 * (it - st)
    strat_const = -0.5 * st

    def ito_drift(x):
        return x @ ito_const

    def strat_drift(x):
        return x @ strat_const

    def random_point(rng: RngStream):
        return matrix_exp(structure.embed(0.35 * rng.normal((structure.k,))))

    return ManifoldHandle(
        name=f"{kind}({n})",
        shape=(size, size),
        dim=structure.k,
        metric=metric,
        metric_inv=metric_inv,
        project=project,
        christoffel=christoffel,
        sigma=sigma,
        tubular=tubular,
        ito_drift=ito_drift,
        strat_drift=strat_drift,
        random_point=random_point,
        default_point=lambda: np.eye(size),
        constraints=constraints,
        in_domain=in_domain,
        compact=compact,
        params={"kind": kind, "N": n, "metric_seed": metric_seed},
    )
