"""Symmetric positive-definite matrices with the affine-invariant metric.

g(x) w = x^{-1} w x^{-1}; the diffusion factor is sigma(x) w = sym(x^{1/2} w x^{1/2}),
which is x^{1/2} w x^{1/2} on symmetric noise.
The Stratonovich drift is S(x) + (N + 1) x / 4, S a spectral function of x
(see ``_strat_correction``).  One factor of x, ``_sqrt_factor``, serves
every callable that reads x: sigma, the drift, the metric, the Christoffel
symbol and the exponential map take it through
:func:`~manifold_sde.linalg.reuse_last`, which returns the last one again
for an input with the same bits (a step asks for it several times at the
same x).  The factor holds x^{1/2}; x^{-1/2}, x^{-1} = x^{-1/2} x^{-1/2} and
S(x) are formed from it when first asked for, so spd never calls
``np.linalg.inv``.

The exponential map of the metric is x^{1/2} exp(x^{-1/2} v x^{-1/2}) x^{1/2}
(Pennec, Fillard & Ayache, IJCV 66, 2006).

On spd(3) a row whose eigenvalues lie in [1e-100, 1e100] within a ratio
``_CLOSED_FORM_COND`` takes x^{1/2}, x^{-1/2} and S(x) from its eigenvalues
alone, with no eigenvectors and no LAPACK: the eigenvalues from the
trigonometric form (Smith, Comm. ACM 4, 1961), then, with b = sqrt(lambda)
and I_1, I_2, I_3 the elementary symmetric polynomials of b and
D = I_1 I_2 - I_3 > 0, Cayley-Hamilton on U = x^{1/2} gives

    U = (-x^2 + (I_1^2 - I_2) x + I_1 I_3 I) / D,
    U^{-1} = (x - I_1 U + I_2 I) / I_3,
    S = -(x / 2 + ((I_1 I_3 + I_2^2) U - I_3 x - I_2 I_3 I) / (2 D)).

Every other row (non-finite, indefinite, worse conditioned or out of that
range), and every row of spd(N) for N != 3, takes ``eigh`` on those rows
alone, so it keeps the bits of the eigendecomposition route.

The middle factor exp(w), w = sym(x^{-1/2} v x^{-1/2}), is on spd(3) the
Newton interpolant of exp at the eigenvalues mu_0 <= mu_1 <= mu_2 of w
(Higham, Functions of Matrices, 2008, ch. 1):

    exp(w) = e^{mu_0} I + f[mu_0, mu_1] (w - mu_0 I)
             + f[mu_0, mu_1, mu_2] (w - mu_0 I)(w - mu_1 I),

with f[a, b] = e^a expm1(b - a) / (b - a), free of cancellation, and the
second difference divided by the whole spread mu_2 - mu_0.  A row takes it
when that spread lies in ``_EXP_SPREAD``: below it the second difference
would cancel, above it the eigenvalue error of the trigonometric form,
amplified by the spread, would show.  Every other row, and every row of
spd(N) for N != 3, takes ``eigh`` on those rows alone.

The domain is lambda_min(sym q) > 1e-10.  On spd(3) a row is accepted
outright when the LDL^T elimination of s - (1e-10 + m) I, m = 1e-12
max(1, max|s|), written out in closed form, has only positive pivots.  A
completed elimination is exact for a matrix within about n^2 eps max|s| of
the one factored (the Cholesky backward-error bound; Higham, Accuracy and
Stability of Numerical Algorithms, 2002, ch. 10), so lambda_min(s) exceeds
1e-10 + m less that amount; ``eigvalsh`` is backward stable to the same
order, so with m far above both it accepts the row too.  The rows the
elimination does not certify, and every row of spd(N) for N != 3, go to
``eigvalsh``, so every decision is the one ``eigvalsh`` makes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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
# the eigenvalue spreads mu_2 - mu_0 of w whose exp(w) takes the closed form
_EXP_SPREAD = (1e-3, 16.0)
# flat indices of the entries of a 3 x 3 row: its lower triangle x00, x11,
# x22, x10, x20, x21 (all that eigh reads), then x01, x02, x12
_ENTRIES3 = np.array([0, 4, 8, 3, 6, 7, 1, 2, 5])


def _strat_correction(eig: SymEigDecomposition) -> np.ndarray:
    """S(x) = -V diag(b_i^2 (1/4 + sum_j b_j / (2 (b_i + b_j)))) V^T for x = V diag(b^2) V^T."""
    def coeff(d):
        beta = np.sqrt(np.maximum(d, 0.0))
        pair = beta[..., None, :] / (beta[..., :, None] + beta[..., None, :])
        return beta**2 * (0.25 + 0.5 * np.sum(pair, axis=-1))

    return -eig.apply(coeff)


def _entries3(rows: np.ndarray) -> np.ndarray:
    """The entries ``_ENTRIES3`` of 3x3 rows, as a (9, rows) array."""
    return rows.reshape(-1, 9).T[_ENTRIES3]


# phi + these angles gives lambda_0 <= lambda_1 <= lambda_2 in _eigenvalues3
_THIRDS = np.array([[2.0], [4.0], [0.0]]) * np.pi / 3.0


def _eigenvalues3(entries: np.ndarray) -> np.ndarray:
    """Eigenvalues of symmetric 3x3 rows given by their ``_entries3``,
    ascending along the first axis of the (3, rows) result, by the
    trigonometric form lambda_k = q + 2 p cos(phi + 2 pi k / 3); reads the
    lower triangle, as ``eigh`` does.  A row with a non-finite entry there
    has a NaN or infinite eigenvalue."""
    a00, a11, a22, a10, a20, a21 = entries[:6]
    q = (a00 + a11 + a22) / 3.0
    d0, d1, d2 = d = entries[:3] - q
    dd0, dd1, dd2 = d * d
    o10, o20, o21 = entries[3:6] * entries[3:6]
    p = np.sqrt((dd0 + dd1 + dd2 + 2.0 * (o10 + o20 + o21)) / 6.0)
    # det(x - q I) / (2 p^3) is cos(3 phi); p = 0 is x = q I, whose NaN
    # quotient fmin turns into 1, and any phi gives lambda = q there
    det = d0 * (d1 * d2 - o21) - a10 * (a10 * d2 - a21 * a20) + a20 * (a10 * a21 - d1 * a20)
    two_p = 2.0 * p
    phi = np.arccos(np.fmax(np.fmin(det / (two_p * p * p), 1.0), -1.0)) / 3.0
    return q + two_p * np.cos(phi + _THIRDS)


def _add_to_diagonal(a: np.ndarray, c: np.ndarray) -> np.ndarray:
    """a + c I for a stack of square matrices a, in place."""
    np.einsum("nii->ni", a)[...] += c[:, None]
    return a


@dataclass(frozen=True)
class _SqrtFactor:
    """x^{1/2} for a stack of points (``root``, in the shape of x), and what
    x^{-1/2}, x^{-1} and S(x) read: on the rows that took the closed form,
    the invariants (I_1, I_2, I_3, D) of sqrt(lambda); on the ``rest``, their
    ``eig``.  Those three are formed on first use."""

    rows: np.ndarray
    root: np.ndarray
    invariants: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None
    rest: np.ndarray
    eig: SymEigDecomposition | None

    def _assemble(self, closed, spectral) -> np.ndarray:
        """``closed(*invariants)`` on the closed-form rows and
        ``spectral(eig)`` on the rest, in the shape of x."""
        with np.errstate(all="ignore"):  # as in _sqrt_factor
            out = np.empty_like(self.rows) if self.invariants is None else closed(*self.invariants)
            if self.eig is not None:
                out[self.rest] = spectral(self.eig)
        return out.reshape(self.root.shape)

    @cached_property
    def root_inv(self) -> np.ndarray:
        """x^{-1/2}, in the shape of x."""
        def closed(i1, i2, i3, d):
            u_inv = self.rows - i1[:, None, None] * self.root.reshape(self.rows.shape)
            u_inv = _add_to_diagonal(u_inv, i2)
            u_inv /= i3[:, None, None]
            return u_inv

        return self._assemble(closed, lambda eig: eig.apply(lambda lam: 1.0 / np.sqrt(lam)))

    @cached_property
    def inverse(self) -> np.ndarray:
        """x^{-1} = x^{-1/2} x^{-1/2}, in the shape of x."""
        return self.root_inv @ self.root_inv

    def correction(self) -> np.ndarray:
        """S(x), in the shape of x."""
        def closed(i1, i2, i3, d):
            half = 0.5 / d
            w_root, w_x, w_eye = (i1 * i3 + i2 * i2) * half, i3 * half, i2 * i3 * half
            s = ((w_x - 0.5)[:, None, None] * self.rows
                 - w_root[:, None, None] * self.root.reshape(self.rows.shape))
            return _add_to_diagonal(s, w_eye)

        return self._assemble(closed, _strat_correction)


def _sqrt_factor(x: np.ndarray) -> _SqrtFactor:
    """x^{1/2} of symmetric x, after ``sym_eig``'s symmetry check on all of x:
    from the closed form on the 3x3 rows it certifies, from ``eigh`` on the
    others (see the module docstring).  An indefinite row gets NaN entries,
    without a warning.  A non-finite row goes to ``eigh``, which raises
    ``LinAlgError`` on an all-NaN row, so callers pass finite rows only."""
    invariants = None
    with np.errstate(all="ignore"):  # the closed form's uncertified rows are replaced
        x = np.asarray(x, dtype=float)
        if x.shape[-2:] == (3, 3):
            rows = x.reshape(-1, 3, 3)
            entries = _entries3(rows)
            # an exactly symmetric x needs no tolerance check, and its
            # non-finite rows have a non-finite eigenvalue
            exact = (entries[3:6] == entries[6:]).all()
            if not exact:
                _require_symmetric(x, "sym_eig")
            lam = _eigenvalues3(entries)
            low, high = _CLOSED_FORM_RANGE
            rest = ~((lam[0] >= low) & (lam[2] <= np.minimum(_CLOSED_FORM_COND * lam[0], high)))
            if not exact:
                rest |= ~np.isfinite(entries).all(axis=0)
            square = rows @ rows
            b0, b1, b2 = np.sqrt(lam)
            i1 = b0 + b1 + b2
            i2 = b0 * b1 + (b0 + b1) * b2
            i3 = b0 * b1 * b2
            d = i1 * i2 - i3
            root = _add_to_diagonal((i1 * i1 - i2)[:, None, None] * rows - square, i1 * i3)
            root /= d[:, None, None]
            invariants = (i1, i2, i3, d)
        else:
            x = _require_symmetric(x, "sym_eig")
            rows = x.reshape((-1,) + x.shape[-2:])
            rest = np.ones(rows.shape[0], dtype=bool)
            root = np.empty_like(rows)
        eig = None
        if rest.any():
            eig = SymEigDecomposition(*np.linalg.eigh(rows[rest]))
            root[rest] = eig.apply(np.sqrt)
    return _SqrtFactor(rows, root.reshape(x.shape), invariants, rest, eig)


def _exp3(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """exp of symmetric 3x3 rows by the Newton form of the module docstring,
    and the rows whose spread lies outside ``_EXP_SPREAD``, whose entries in
    the result are not their exp."""
    with np.errstate(all="ignore"):  # the rows outside the spread are replaced
        mu = _eigenvalues3(_entries3(rows))
        spread = mu[2] - mu[0]
        low, high = _EXP_SPREAD
        rest = ~((spread >= low) & (spread <= high))
        gaps = mu[1:] - mu[:2]
        e = np.exp(mu[:2])
        # f[mu_0, mu_1] and f[mu_1, mu_2]; a zero gap is the derivative e^a
        first = e * np.where(gaps > 0.0, np.expm1(gaps) / gaps, 1.0)
        second = (first[1] - first[0]) / spread
        # e^{mu_0} I + (f[mu_0, mu_1] - f[mu_0, mu_1, mu_2] gap_0) z
        # + f[mu_0, mu_1, mu_2] z^2, z = w - mu_0 I
        z = _add_to_diagonal(rows.copy(), -mu[0])
        out = (first[0] - second * gaps[0])[:, None, None] * z
        out += second[:, None, None] * (z @ z)
        return _add_to_diagonal(out, e[0]), rest


def _expm_sym(w: np.ndarray) -> np.ndarray:
    """exp(w) of exactly symmetric w, in closed form on the 3x3 rows whose
    spread allows it and from ``eigh`` on the others."""
    rows = w.reshape((-1,) + w.shape[-2:])
    if w.shape[-1] == 3:
        out, rest = _exp3(rows)
    else:
        out, rest = np.empty_like(rows), np.ones(rows.shape[0], dtype=bool)
    if rest.any():
        vals, vecs = np.linalg.eigh(rows[rest])
        out[rest] = (vecs * np.exp(vals)[..., None, :]) @ np.ascontiguousarray(mT(vecs))
    return out.reshape(w.shape)


def _certified_positive(s: np.ndarray) -> np.ndarray:
    """Rows (3 x 3 matrices along one batch axis) whose LDL^T elimination of
    s - (1e-10 + m) I has only positive pivots; see the module docstring."""
    # a non-finite row gives a NaN or -inf pivot, which is not positive; a
    # row with a non-positive pivot is already decided, whatever follows it
    with np.errstate(all="ignore"):
        entries = _entries3(s)[:6]
        level = _MIN_EIGENVALUE + _MARGIN * np.maximum(1.0, np.abs(entries).max(axis=0))
        (p0, a11, a22), (a10, a20, a21) = entries[:3] - level, entries[3:]
        l10, l20 = entries[3:5] / p0
        p1 = a11 - l10 * a10
        a21 = a21 - l20 * a10
        p2 = (a22 - l20 * a20) - (a21 / p1) * a21
        # np.minimum keeps a NaN pivot
        return np.minimum(np.minimum(p0, p1), p2) > 0.0


def _positive(s: np.ndarray) -> np.ndarray:
    """lambda_min(s) > 1e-10 for symmetric s, exactly as ``eigvalsh`` decides it."""
    rows = s.reshape((-1,) + s.shape[-2:])
    if s.shape[-1] == 3:
        ok = _certified_positive(rows)
    else:
        ok = np.zeros(rows.shape[0], dtype=bool)
    if not ok.all():
        ok[~ok] = np.linalg.eigvalsh(rows[~ok])[:, 0] > _MIN_EIGENVALUE
    return ok.reshape(s.shape[:-2])[()]


def make_spd(N: int) -> ManifoldHandle:
    require_integer("N", N)
    if N < 1:
        raise ValueError(f"spd needs N >= 1, got {N}")

    factor = reuse_last(_sqrt_factor)

    def metric(x, w):
        # x^{-1/2} (x^{-1/2} w x^{-1/2}) x^{-1/2}: the walk's length <u, g u>
        # then loses digits like cond(x), where x^{-1} w x^{-1} loses them
        # like cond(x)^2 (non-positive past cond 1e10)
        root_inv = factor(x).root_inv
        return root_inv @ (root_inv @ w @ root_inv) @ root_inv

    def metric_inv(x, w):
        return x @ w @ x

    def project(x, w):
        return sym(ambient_identity(x, w))

    def christoffel(x, u, v):
        # -sym(u x^{-1} v), symmetrized in (u, v) so the bilinear extension
        # off the symmetric subspace is symmetric too; Gamma(x; v, v) forms
        # one product, since s + s = 2 s exactly
        xinv = factor(x).inverse
        a = xinv @ u
        if v is u:
            return -sym(u @ a)
        return -0.5 * (sym(u @ (xinv @ v)) + sym(v @ a))

    def sqrt_conjugate(x, w):
        s = factor(x).root
        return sym(s @ w @ s)

    def exponential(x, v):
        f = factor(x)
        w = sym(f.root_inv @ v @ f.root_inv)
        return f.root @ _expm_sym(w) @ f.root

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
        params={"N": N},
    )
