"""Symmetric positive-definite matrices with the affine-invariant metric.

g(x) w = x^{-1} w x^{-1}; the diffusion factor is sigma(x) w = sym(x^{1/2} w x^{1/2}),
which is x^{1/2} w x^{1/2} on symmetric noise.
The Stratonovich drift is S(x) + (N + 1) x / 4, S a spectral function of x
(see ``_strat_correction``).  sigma and the drift read one factor of x
through :func:`~manifold_sde.linalg.reuse_last`, which returns the last one
again for an input with the same bits (a Stratonovich step asks for both at
the same x).

The exponential map of the metric is x^{1/2} exp(x^{-1/2} v x^{-1/2}) x^{1/2}
(Pennec, Fillard & Ayache, IJCV 66, 2006).  ``exponential`` takes x^{1/2}
from that factor and x^{-1/2} = x^{1/2} x^{-1} from the metric's inverse,
both already formed at x by the walk's normalization, and one ``eigh`` of
the symmetric middle factor.

On spd(3) a row whose eigenvalues lie in [1e-100, 1e100] within a ratio
``_CLOSED_FORM_COND`` takes x^{1/2} and S(x) from its eigenvalues alone, with
no eigenvectors and no LAPACK: the eigenvalues from the trigonometric form
(Smith, Comm. ACM 4, 1961), then, with b = sqrt(lambda) and I_1, I_2, I_3 the
elementary symmetric polynomials of b and D = I_1 I_2 - I_3 > 0,
Cayley-Hamilton on U = x^{1/2} gives

    U = (-x^2 + (I_1^2 - I_2) x + I_1 I_3 I) / D,
    S = -(x / 2 + ((I_1 I_3 + I_2^2) U - I_3 x - I_2 I_3 I) / (2 D)).

Every other row (non-finite, indefinite, worse conditioned or out of that
range), and every row of spd(N) for N != 3, takes ``eigh`` on those rows
alone, so it keeps the bits of the eigendecomposition route.

The domain is lambda_min(sym q) > 1e-10.  A row is accepted outright when an
LDL^T elimination of s - (1e-10 + m) I, m = 1e-12 max(1, max|s|), has only
positive pivots.  A completed elimination is exact for a matrix within about
n^2 eps max|s| of the one factored (the Cholesky backward-error bound;
Higham, Accuracy and Stability of Numerical Algorithms, 2002, ch. 10), so
lambda_min(s) exceeds 1e-10 + m less that amount; ``eigvalsh`` is backward
stable to the same order, so with m far above both it accepts the row too.
The rows the elimination does not certify go to ``eigvalsh``, so every
decision is the one ``eigvalsh`` makes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._checks import require_integer
from ..geometry import ManifoldHandle, TubularRetraction
from ..linalg import (
    SymEigDecomposition,
    _require_symmetric,
    ambient_identity,
    mT,
    reuse_last,
    sym,
)
from ..rng import RngStream
from ._constraints import symmetry_constraints

# the domain test: lambda_min(sym q) > _MIN_EIGENVALUE
_MIN_EIGENVALUE = 1e-10
# the certificate's margin per unit of max(1, max|s|)
_MARGIN = 1e-12
# the closed form's error grows with cond(x): against a 40-digit reference,
# x^{1/2} is within about 11 ulps of max|x^{1/2}| at cond 64 (eigh: 8),
# 17 at 100 and 1000 at 1e3 (eigh: 20)
_CLOSED_FORM_COND = 64.0
# keeps x^2 and the powers of b normal numbers (1e-160 I would lose digits)
_CLOSED_FORM_RANGE = (1e-100, 1e100)


def _strat_correction(eig: SymEigDecomposition) -> np.ndarray:
    """S(x) = -V diag(b_i^2 (1/4 + sum_j b_j / (2 (b_i + b_j)))) V^T for x = V diag(b^2) V^T."""
    def coeff(d):
        beta = np.sqrt(np.maximum(d, 0.0))
        pair = beta[..., None, :] / (beta[..., :, None] + beta[..., None, :])
        return beta**2 * (0.25 + 0.5 * np.sum(pair, axis=-1))

    return -eig.apply(coeff)


# phi + these angles gives lambda_0 <= lambda_1 <= lambda_2 in _eigenvalues3
_THIRDS = np.array([[2.0], [4.0], [0.0]]) * np.pi / 3.0


def _eigenvalues3(rows: np.ndarray) -> np.ndarray:
    """Eigenvalues of symmetric 3x3 rows, ascending along the first axis of
    the (3, rows) result, by the trigonometric form
    lambda_k = q + 2 p cos(phi + 2 pi k / 3); reads the lower triangle, as
    ``eigh`` does."""
    a00, a11, a22 = rows[:, 0, 0], rows[:, 1, 1], rows[:, 2, 2]
    a10, a20, a21 = rows[:, 1, 0], rows[:, 2, 0], rows[:, 2, 1]
    q = (a00 + a11 + a22) / 3.0
    d0, d1, d2 = a00 - q, a11 - q, a22 - q
    p = np.sqrt((d0 * d0 + d1 * d1 + d2 * d2 + 2.0 * (a10 * a10 + a20 * a20 + a21 * a21)) / 6.0)
    # det(x - q I) / (2 p^3) is cos(3 phi); p = 0 is x = q I
    det = d0 * (d1 * d2 - a21 * a21) - a10 * (a10 * d2 - a21 * a20) + a20 * (a10 * a21 - d1 * a20)
    r = np.where(p > 0.0, det / (2.0 * p * p * p), 0.0)
    phi = np.arccos(np.clip(r, -1.0, 1.0)) / 3.0
    return q + (2.0 * p) * np.cos(phi + _THIRDS)


def _add_to_diagonal(a: np.ndarray, c: np.ndarray) -> np.ndarray:
    """a + c I for a stack of square matrices a, in place."""
    np.einsum("nii->ni", a)[...] += c[:, None]
    return a


@dataclass(frozen=True)
class _SqrtFactor:
    """x^{1/2} for a stack of points (``root``, in the shape of x), and what
    S(x) reads: on the rows that took the closed form, the weights
    (I_1 I_3 + I_2^2, I_3, I_2 I_3) / (2 D); on the ``rest``, their ``eig``."""

    rows: np.ndarray
    root: np.ndarray
    weights: tuple[np.ndarray, np.ndarray, np.ndarray] | None
    rest: np.ndarray
    eig: SymEigDecomposition | None

    def correction(self) -> np.ndarray:
        """S(x), in the shape of x."""
        with np.errstate(all="ignore"):  # as in _sqrt_factor
            if self.weights is None:
                s = np.empty_like(self.rows)
            else:
                w_root, w_x, w_eye = self.weights
                s = ((w_x - 0.5)[:, None, None] * self.rows
                     - w_root[:, None, None] * self.root.reshape(self.rows.shape))
                _add_to_diagonal(s, w_eye)
            if self.eig is not None:
                s[self.rest] = _strat_correction(self.eig)
        return s.reshape(self.root.shape)


def _sqrt_factor(x: np.ndarray) -> _SqrtFactor:
    """x^{1/2} of symmetric x, after ``sym_eig``'s symmetry check on all of x:
    from the closed form on the 3x3 rows it certifies, from ``eigh`` on the
    others (see the module docstring).  An indefinite row gets NaN entries,
    without a warning.  A non-finite row goes to ``eigh``, which raises
    ``LinAlgError`` on an all-NaN row, so callers pass finite rows only."""
    weights = None
    with np.errstate(all="ignore"):  # the closed form's uncertified rows are replaced
        x = _require_symmetric(x, "sym_eig")
        rows = x.reshape((-1,) + x.shape[-2:])
        if x.shape[-1] == 3:
            lam = _eigenvalues3(rows)
            square = rows @ rows
            low, high = _CLOSED_FORM_RANGE
            # tr(x^2) = sum_ij x_ij x_ji is finite only if every entry is
            rest = ~(np.isfinite(np.einsum("nii->n", square)) & (lam[0] >= low)
                     & (lam[2] <= np.minimum(_CLOSED_FORM_COND * lam[0], high)))
            b0, b1, b2 = np.sqrt(lam)
            i1 = b0 + b1 + b2
            i2 = b0 * b1 + (b0 + b1) * b2
            i3 = b0 * b1 * b2
            i13 = i1 * i3
            d = i1 * i2 - i3
            root = _add_to_diagonal((i1 * i1 - i2)[:, None, None] * rows - square, i13)
            root /= d[:, None, None]
            half = 0.5 / d
            weights = ((i13 + i2 * i2) * half, i3 * half, i2 * i3 * half)
        else:
            rest = np.ones(rows.shape[0], dtype=bool)
            root = np.empty_like(rows)
        eig = None
        if rest.any():
            eig = SymEigDecomposition(*np.linalg.eigh(rows[rest]))
            root[rest] = eig.apply(np.sqrt)
    return _SqrtFactor(rows, root.reshape(x.shape), weights, rest, eig)


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
    ok = _certified_positive(rows)
    if not ok.all():
        ok[~ok] = np.linalg.eigvalsh(rows[~ok])[:, 0] > _MIN_EIGENVALUE
    return ok.reshape(s.shape[:-2])[()]


def make_spd(N: int) -> ManifoldHandle:
    require_integer("N", N)
    if N < 1:
        raise ValueError(f"spd needs N >= 1, got {N}")

    factor = reuse_last(_sqrt_factor)
    # x^{-1} once per point for metric and christoffel; np.linalg.inv is
    # looked up per call, so a wrapped routine sees every inversion
    inverse = reuse_last(lambda x: np.linalg.inv(x))

    def metric(x, w):
        xinv = inverse(x)
        return xinv @ w @ xinv

    def metric_inv(x, w):
        return x @ w @ x

    def project(x, w):
        return sym(ambient_identity(x, w))

    def christoffel(x, u, v):
        # -sym(u x^{-1} v), symmetrized in (u, v) so the bilinear extension
        # off the symmetric subspace is symmetric too; Gamma(x; v, v) forms
        # one product, since s + s = 2 s exactly
        xinv = inverse(x)
        a = xinv @ u
        if v is u:
            return -sym(u @ a)
        return -0.5 * (sym(u @ (xinv @ v)) + sym(v @ a))

    def sqrt_conjugate(x, w):
        s = factor(x).root
        return sym(s @ w @ s)

    def exponential(x, v):
        root = factor(x).root
        root_inv = root @ inverse(x)
        w = sym(root_inv @ v @ root_inv)
        vals, vecs = np.linalg.eigh(w)
        middle = (vecs * np.exp(vals)[..., None, :]) @ np.ascontiguousarray(mT(vecs))
        return root @ middle @ root

    def mapping(q):
        s = sym(q)
        return s, _positive(s)

    def ito_drift(x):
        return (N + 1) / 4.0 * x

    def strat_drift(x):
        return factor(x).correction() + (N + 1) / 4.0 * x

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
        tubular=TubularRetraction(mapping=mapping, differential=lambda x, w: sym(w)),
        ito_drift=ito_drift,
        strat_drift=strat_drift,
        random_point=random_point,
        default_point=lambda: np.eye(N),
        constraints=(symmetry_constraints(N),),
        exponential=exponential,
        compact=False,
        params={"N": N},
    )
