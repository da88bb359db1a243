"""Geometry surface shared by all manifold families.

A manifold embedded in a matrix space E = R^{n x m} is described by a
:class:`ManifoldHandle`: a bundle of closed-form callables (metric, metric
inverse, tangent projection, Christoffel function, diffusion factor sigma,
constraint residuals, tubular retraction, Brownian drifts) plus shape and
dimension metadata.  Every callable broadcasts over leading batch axes, so the
same handle serves both pointwise checks and vectorized path simulation.

On top of a handle this module provides the generic machinery that does not
depend on the family: consistency checks (projection, metric compatibility),
ambient-basis formulas for the Brownian drift and the Laplace-Beltrami
operator, second-order-tangent residuals for invariance testing, tangent
frames with metric-dual partners, and the construction of second-order
retractions from tubular ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

import numpy as np

from ._checks import require_positive_finite
from .linalg import frobenius_inner, frobenius_norm
from .rng import RngStream

_EPS = np.finfo(float).eps


class OffManifoldError(ValueError):
    """A point is non-finite, violates the constraints or leaves the tubular domain."""


class FrameConditionError(RuntimeError):
    """Projected ambient basis is too degenerate to build a tangent frame."""


# ---------------------------------------------------------------------------
# basic types


@dataclass(frozen=True)
class Constraint:
    """A block of k scalar constraints c_1, ..., c_k: E -> R, evaluated in one call.

    Each block states one embedding condition (orthogonality, a fixed last
    row, symmetry, a level set).  ``value`` maps ``(..., n, m)`` to
    ``(..., k)``, ``grad`` returns the ambient gradient matrices
    ``(..., k, n, m)`` and ``hess(x, u, v)`` the second derivatives
    c_i''(x)[u, v], ``(..., k)``.  A handle carries at most two blocks.
    """

    value: Callable[[np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray], np.ndarray]
    hess: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]


def finite_rows(q: np.ndarray) -> np.ndarray:
    """Per-row flag: every entry of the trailing matrix is finite."""
    return np.isfinite(q).all(axis=(-2, -1))


def freeze_rows(q: np.ndarray, x: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Rows of ``q`` where ``keep`` holds, the matching rows of ``x`` elsewhere."""
    if np.all(keep):
        return q
    return np.where(keep[..., None, None], q, np.broadcast_to(x, q.shape))


@dataclass(frozen=True)
class TubularRetraction:
    """E-tubular retraction pi: nearest-point style map from a neighborhood
    of the manifold onto it, together with that neighborhood.

    ``mapping(q) -> (point, in_domain)`` is the one tubular map: it sends
    ambient points to manifold points and flags the rows where the map is
    defined, from one evaluation (the polar families certify a row from
    q^T q and iterate from it, or take one SVD for the other rows; the
    rescaling families compute their divisor once).  Its point must be
    finite on every finite row of q, inside the domain or not.
    ``differential`` is the derivative of the map at on-manifold points.
    The flag of ``mapping`` is the package's only domain test: every step
    rejects through it, and :meth:`ManifoldHandle.on_manifold` reads it.
    No family sets ``domain``; the field stays only because
    ``perfbench/tracing.py`` passes it to ``dataclasses.replace``.
    Callers go through :meth:`retract`, which holds the one domain rule: a
    proposal row that is non-finite, flagged on input or outside the domain
    comes back as the matching row of the base point x, bit for bit, and is
    flagged in ``ok``.
    """

    mapping: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
    differential: Callable[[np.ndarray, np.ndarray], np.ndarray]
    domain: Callable[[np.ndarray], np.ndarray] | None = None

    def retract(
        self, q: np.ndarray, x: np.ndarray, ok: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(pi(q), ok)`` on the accepted rows, x on the rejected ones, from
        one ``mapping`` call."""
        # non-finite and flagged rows reach ``mapping`` as x, so its result
        # is finite; rows it flags are then replaced by x as well
        ok = finite_rows(q) if ok is None else finite_rows(q) & ok
        point, in_domain = self.mapping(freeze_rows(q, x, ok))
        ok = ok & in_domain
        return freeze_rows(point, x, ok), ok


@dataclass(frozen=True)
class TangentRetraction:
    """Tangent-vector retraction r(x, v) with optional second derivative.

    ``retract`` returns ``(r(x, v), ok)`` from one call.  A row whose step
    is non-finite or leaves the domain comes back as x, bit for bit, with
    ``ok`` False, and every row of the point is final; the retractions built
    here get that from :meth:`TubularRetraction.retract`, the one place a
    row is rejected.  ``second_derivative(x, v)`` is the quadratic term
    r''(x)[v, v] = d^2/dt^2 r(x, tv)|_0.  Every retraction the package builds
    sets it in closed form; it is absent only on a retraction built
    elsewhere, for which a finite-difference evaluation is used.  For a
    second-order retraction it equals -Gamma(x; v, v), and ``second_order``
    declares it, which lets the retractive Euler scheme skip its (then
    vanishing) drift adjustment for Brownian SDEs.
    """

    retract: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]
    second_derivative: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    second_order: bool = False


@dataclass(frozen=True)
class SecondOrderTangent:
    """Second-order tangent data (A, M): drift vector plus symmetric diffusion operator.

    ``m_apply`` applies M to ambient matrices and must broadcast over leading
    axes.  The pair is tangent to the constraint set when, for every scalar
    constraint c, ``tr(c'' M) + c'(A) = 0`` and ``c' M = 0``; see
    :func:`soo_residual`.
    """

    a: np.ndarray
    m_apply: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class SdeSpec:
    """An ambient-space SDE dX = mu dt + sigma(X) dW in Ito or Stratonovich form.

    ``sigma`` maps a noise increment of shape ``noise_shape`` to an ambient
    matrix.  ``diffusion`` records the generator scale c (generator = c *
    Laplace-Beltrami) when the SDE was built as a Riemannian Brownian motion;
    it is ``None`` for hand-rolled SDEs.  A non-None value declares the SDE
    Brownian: the geodesic walks read c from it, and ``retractive-em`` relies
    on it to skip the drift adjustment of a second-order retraction.
    """

    form: str
    drift: Callable[[np.ndarray, float], np.ndarray]
    sigma: Callable[[np.ndarray, np.ndarray, float], np.ndarray]
    noise_shape: tuple[int, ...]
    diffusion: float | None = None

    def __post_init__(self) -> None:
        if self.form not in ("ito", "stratonovich"):
            raise ValueError(f"SdeSpec.form must be 'ito' or 'stratonovich', got {self.form!r}")


@dataclass(frozen=True)
class ManifoldHandle:
    """Closed-form geometry of one embedded matrix manifold.

    All callables take points/vectors of shape ``(..., n, m)`` and broadcast
    over the leading axes.  ``christoffel`` is the bilinear extension of the
    Christoffel function: symmetric in its two vector arguments and smooth in
    a neighborhood of the manifold.  ``sigma`` is the diffusion factor: it
    maps ambient noise into T_xM, with sigma sigma^T = Pi(x) g(x)^{-1}, and
    off M (Heun predictors, RK4 stage points) it is the smooth extension
    Pi(x) sigma_E(x) of the family's ambient factor sigma_E, which each
    family forms directly (on the groups sigma_E is already tangent).
    ``ito_drift`` / ``strat_drift`` are the standard-speed Brownian drifts
    (generator = Laplace-Beltrami / 2).  ``constraints`` holds at most two
    :class:`Constraint` blocks (se has its rotation block and its last row)
    and is empty on the open families.

    ``exponential(x, v)``, where set, is the closed-form exponential map of
    the metric at points of M and tangent v, a plain map like
    ``christoffel``: it rejects nothing, and ``rk4-geodesic`` hands its
    point to the tubular retraction.  so(N) without ``metric_seed`` and spd
    set it; on every other handle it is ``None``.  It is the geodesic of
    ``metric`` and ``christoffel``, so a copy that replaces either of them
    must reset it to ``None``.

    :meth:`on_manifold` accepts a row when the tubular map's flag accepts it
    (one :meth:`TubularRetraction.retract` call against ``default_point()``;
    a non-finite row is off M there) and its constraint residual is at most
    ``tol``.  No family sets ``in_domain`` and nothing reads it; the field
    stays only because ``perfbench/tracing.py`` passes it to the constructor.
    """

    name: str
    shape: tuple[int, int]
    dim: int
    metric: Callable[[np.ndarray, np.ndarray], np.ndarray]
    metric_inv: Callable[[np.ndarray, np.ndarray], np.ndarray]
    project: Callable[[np.ndarray, np.ndarray], np.ndarray]
    christoffel: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    sigma: Callable[[np.ndarray, np.ndarray], np.ndarray]
    tubular: TubularRetraction
    ito_drift: Callable[[np.ndarray], np.ndarray]
    strat_drift: Callable[[np.ndarray], np.ndarray]
    random_point: Callable[[RngStream], np.ndarray]
    default_point: Callable[[], np.ndarray]
    constraints: tuple[Constraint, ...] = ()
    exponential: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    in_domain: Callable[[np.ndarray], np.ndarray] | None = None
    cost_point: Callable[[np.ndarray], np.ndarray] | None = None
    params: Mapping[str, Any] = field(default_factory=dict)

    # -- conveniences -------------------------------------------------------

    def constraint_residual(self, x: np.ndarray) -> np.ndarray:
        """Largest |c_i(x)| over the constraint components, shape ``(...)``."""
        x = np.asarray(x, dtype=float)
        if not self.constraints:
            return np.zeros(x.shape[:-2])
        vals = np.concatenate([c.value(x) for c in self.constraints], axis=-1)
        return np.max(np.abs(vals), axis=-1, initial=0.0)

    def on_manifold(self, x: np.ndarray, tol: float = 1e-9) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        base = self.default_point()
        _, ok = self.tubular.retract(x, base)
        return ok & (self.constraint_residual(freeze_rows(x, base, ok)) <= tol)

    def random_tangent(self, rng: RngStream, x: np.ndarray) -> np.ndarray:
        return self.project(x, rng.normal(np.shape(x)))

    @property
    def family(self) -> str:
        """The family of the handle: its name up to the first parenthesis
        (``so`` for ``so(3)``), as ``make_manifold`` spells it."""
        return self.name.split("(")[0]

    def functional_point(self, x: np.ndarray) -> np.ndarray:
        """Representation cost functionals act on (identity unless overridden)."""
        if self.cost_point is None:
            return x
        return self.cost_point(x)


def require_on_manifold(handle: ManifoldHandle, x: np.ndarray, tol: float = 1e-9) -> None:
    """Raise :class:`OffManifoldError` naming the failed rule unless every row
    of ``x`` is on M: a non-finite entry, a constraint residual above
    ``tol``, or a row outside the tubular map's domain, checked in that
    order."""
    x = np.asarray(x, dtype=float)
    if np.all(handle.on_manifold(x, tol)):
        return
    if not np.all(finite_rows(x)):
        raise OffManifoldError(f"{handle.name}: point has a non-finite entry")
    worst = float(np.max(handle.constraint_residual(x)))
    if not worst <= tol:
        raise OffManifoldError(
            f"{handle.name}: point is off-manifold (max constraint residual "
            f"{worst:.3e} exceeds tolerance {tol:.1e})"
        )
    raise OffManifoldError(f"{handle.name}: point lies outside the tubular map's domain")


# ---------------------------------------------------------------------------
# ambient basis


def ambient_basis(shape: tuple[int, int]) -> np.ndarray:
    """Standard basis of R^{n x m} stacked as an ``(n*m, n, m)`` array."""
    n, m = shape
    return np.eye(n * m).reshape(n * m, n, m)


# ---------------------------------------------------------------------------
# consistency checks


@dataclass(frozen=True)
class ProjectionReport:
    max_idempotency: float
    max_asymmetry: float


def check_projection(
    handle: ManifoldHandle,
    x: np.ndarray,
    trials: int = 10,
    rng: RngStream | None = None,
) -> ProjectionReport:
    """Check that Pi(x) is idempotent and Pi g^{-1} is self-adjoint at ``x``.

    Draws ``trials`` unit-norm ambient directions; the reported numbers are
    the worst-case residuals over the draws (NaN if any residual is NaN).
    """
    require_on_manifold(handle, x)
    rng = rng if rng is not None else RngStream(0, 0)
    n, m = handle.shape
    max_idem = 0.0
    max_asym = 0.0
    for _ in range(trials):
        w = rng.normal((n, m))
        w /= frobenius_norm(w)
        pw = handle.project(x, w)
        max_idem = float(np.maximum(max_idem, frobenius_norm(handle.project(x, pw) - pw)))
        w2 = rng.normal((n, m))
        w2 /= frobenius_norm(w2)
        lhs = frobenius_inner(w2, handle.project(x, handle.metric_inv(x, w)))
        rhs = frobenius_inner(w, handle.project(x, handle.metric_inv(x, w2)))
        max_asym = float(np.maximum(max_asym, abs(lhs - rhs)))
    return ProjectionReport(max_idempotency=max_idem, max_asymmetry=max_asym)


def check_metric_compatibility(
    handle: ManifoldHandle,
    x: np.ndarray,
    trials: int = 10,
    rng: RngStream | None = None,
) -> float:
    """Finite-difference metric-compatibility residual of the connection.

    For tangent fields Y(y) = Pi(y) w extended by projection and a tangent
    direction xi, compares d/dt <Y, Y>_g along x + t xi against
    2 <Y, D_xi Y + Gamma(xi, Y)>_g, by central differences with step 1e-5.
    Returns the worst residual over draws (NaN if any residual is NaN).
    """
    rng = rng if rng is not None else RngStream(0, 0)
    n, m = handle.shape
    step = 1e-5
    worst = 0.0
    for _ in range(trials):
        w = rng.normal((n, m))
        w /= frobenius_norm(w)
        xi = handle.project(x, rng.normal((n, m)))
        nxi = float(frobenius_norm(xi))
        if nxi < 1e-12:
            continue
        xi = xi / nxi

        def field(y):
            return handle.project(y, w)

        def sq_norm(y):
            fy = field(y)
            return float(frobenius_inner(fy, handle.metric(y, fy)))

        xp = x + step * xi
        xm = x - step * xi
        lhs = (sq_norm(xp) - sq_norm(xm)) / (2.0 * step)
        dy = (field(xp) - field(xm)) / (2.0 * step)
        y0 = field(x)
        nabla = dy + handle.christoffel(x, xi, y0)
        rhs = 2.0 * float(frobenius_inner(y0, handle.metric(x, nabla)))
        worst = float(np.maximum(worst, abs(lhs - rhs)))
    return worst


# ---------------------------------------------------------------------------
# Brownian drifts and the Laplacian, via the ambient basis


def laplace_drift_vector(handle: ManifoldHandle, x: np.ndarray) -> np.ndarray:
    """-sum_i Gamma(x; e_i, Pi g^{-1} e_i) over the standard ambient basis."""
    basis = ambient_basis(handle.shape)
    if np.ndim(x) > 2:
        basis = basis.reshape((basis.shape[0],) + (1,) * (np.ndim(x) - 2) + handle.shape)
    w = handle.project(x, handle.metric_inv(x, basis))
    return -np.sum(handle.christoffel(x, basis, w), axis=0)


def brownian_ito_drift(handle: ManifoldHandle, x: np.ndarray) -> np.ndarray:
    """Ito drift of standard Brownian motion: -1/2 sum_i Gamma(x; e_i, Pi g^{-1} e_i).

    This is the generic ambient-basis evaluation; handles also carry the
    closed-form equivalent as ``handle.ito_drift``, and the two must agree.
    """
    require_on_manifold(handle, x)
    return 0.5 * laplace_drift_vector(handle, x)


def laplace_beltrami(
    handle: ManifoldHandle,
    x: np.ndarray,
    egrad: np.ndarray,
    ehess: Callable[[np.ndarray], np.ndarray],
) -> float:
    """Laplace-Beltrami operator applied to a function given by ambient derivatives.

    ``egrad`` is the ambient gradient matrix at ``x``; ``ehess`` applies the
    ambient Hessian to matrices (and must broadcast over a stacked basis).
    Evaluates egrad . (-sum_i Gamma(e_i, Pi g^{-1} e_i)) +
    sum_i <e_i, Pi g^{-1} ehess(e_i)>.
    """
    require_on_manifold(handle, x)
    drift_vec = laplace_drift_vector(handle, x)
    basis = ambient_basis(handle.shape)
    hbasis = ehess(basis)
    trace = np.sum(frobenius_inner(basis, handle.project(x, handle.metric_inv(x, hbasis))))
    return float(frobenius_inner(egrad, drift_vec) + trace)


def soo_residual(handle: ManifoldHandle, x: np.ndarray, sot: SecondOrderTangent) -> float:
    """Worst violation of the second-order tangency conditions at ``x``.

    For each scalar constraint c the pair (A, M) must satisfy
    tr(c''(x) M) + c'(x) A = 0 and c'(x) M = 0; the residual is the max of
    |tr(c'' M) + c' A| and |M grad c|_F over constraint components (0 when
    there are none, NaN if any term is NaN).  Each block takes one ``hess``
    call over the ambient basis, one ``grad`` and one ``m_apply`` call.
    """
    basis = ambient_basis(handle.shape)
    mb = sot.m_apply(basis)
    worst = 0.0
    for c in handle.constraints:
        tr = np.sum(c.hess(x, basis, mb), axis=0)
        grad = c.grad(x)
        lin = frobenius_inner(grad, sot.a)
        cross = frobenius_norm(sot.m_apply(grad))
        worst = float(np.max(np.concatenate([[worst], np.abs(tr + lin), cross])))
    return worst


def brownian_soo(
    handle: ManifoldHandle, x: np.ndarray, diffusion: float = 0.5
) -> SecondOrderTangent:
    """The second-order tangent pair (2 mu, sigma sigma^T) of Brownian motion."""
    c2 = 2.0 * diffusion

    def m_apply(w):
        return c2 * handle.project(x, handle.metric_inv(x, w))

    return SecondOrderTangent(a=2.0 * c2 * handle.ito_drift(x), m_apply=m_apply)


# ---------------------------------------------------------------------------
# tangent frames


def dual_tangent_frame(handle: ManifoldHandle, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A tangent frame plus its metric-dual partner at ``x``.

    Projects the ambient basis, diagonalizes the Gram matrix under the
    g-pairing and keeps the top ``dim`` directions, normalized so that
    <v_i, g v_j> = delta_ij.  The frame is then self-dual; the dual list is
    returned separately to keep call sites honest about which slot pairs with
    which.
    """
    basis = ambient_basis(handle.shape)
    cand = handle.project(x, basis)
    gc = handle.metric(x, cand)
    gram = np.einsum("aij,bij->ab", cand, gc)
    vals, vecs = np.linalg.eigh(gram)
    d = handle.dim
    if d > gram.shape[0]:
        raise FrameConditionError(
            f"{handle.name}: dim {d} exceeds ambient dimension {gram.shape[0]}"
        )
    kept = vals[-d:]
    vmax = float(vals[-1])
    if vmax <= 0.0 or float(kept[0]) < 1e-8 * vmax:
        raise FrameConditionError(
            f"{handle.name}: frame condition {vmax / max(float(kept[0]), 1e-300):.3e} "
            "exceeds 1e8"
        )
    if d < gram.shape[0] and float(vals[-d - 1]) > 1e-6 * vmax:
        # spillover mass outside the tangent space means dim metadata is wrong
        raise FrameConditionError(
            f"{handle.name}: projected basis spans more than dim={d} directions"
        )
    coeff = vecs[:, -d:] / np.sqrt(kept)
    frame = np.einsum("ak,aij->kij", coeff, cand)
    gframe = handle.metric(x, frame)
    gram_check = np.einsum("aij,bij->ab", frame, gframe)
    if float(np.max(np.abs(gram_check - np.eye(d)))) > 1e-10:
        raise FrameConditionError(f"{handle.name}: frame failed dual-pairing verification")
    return frame, frame.copy()


# ---------------------------------------------------------------------------
# retractions


def second_order_retraction(handle: ManifoldHandle) -> TangentRetraction:
    """Build the curvature-corrected tangent retraction from the handle's tubular one.

    r(x, v) = pi(x + v - 1/2 pi'(x) Gamma(x; v, v)).  Its second derivative
    at zero is -Gamma(x; v, w), which is what makes the retraction
    second-order and kills the drift adjustment for Brownian increments.
    Each call forms Gamma(x; v, v) and the proposal once.
    """
    tub = handle.tubular

    def retract(x, v):
        return tub.retract(x + v - 0.5 * tub.differential(x, handle.christoffel(x, v, v)), x)

    def second(x, v):
        return -handle.christoffel(x, v, v)

    return TangentRetraction(retract=retract, second_derivative=second, second_order=True)


def first_order_retraction(handle: ManifoldHandle) -> TangentRetraction:
    """The naive tangent retraction r(x, v) = pi(x + v).

    Its quadratic term is pi'(x) Gamma(x; v, v) - Gamma(x; v, v).  The curve
    c(t) = pi(x + tv) on M has c'' = pi''(x)[v, v], which pi'(x) annihilates
    (differentiate pi(pi(q)) = pi(q) twice at q = x), while c'' + Gamma(x; v, v)
    is tangent, where pi'(x) is the identity; so pi'(x) Gamma = c'' + Gamma.
    """
    tub = handle.tubular

    def second(x, v):
        gamma = handle.christoffel(x, v, v)
        return tub.differential(x, gamma) - gamma

    return TangentRetraction(retract=lambda x, v: tub.retract(x + v, x), second_derivative=second)


def retraction_second_derivative(
    retraction: TangentRetraction, x: np.ndarray, v: np.ndarray
) -> np.ndarray:
    """r''(x)[v, v]: the closed form, or, on a retraction built outside the
    package, a symmetric second difference along v/|v| with step
    eps^(1/4) (1 + |x|_F), each row's step from its own x."""
    if retraction.second_derivative is not None:
        return retraction.second_derivative(x, v)
    v = np.asarray(v, dtype=float)
    nv = np.maximum(frobenius_norm(v), 1e-300)[..., None, None]
    u = v / nv
    h = (_EPS ** 0.25 * (1.0 + frobenius_norm(x)))[..., None, None]
    xb = np.broadcast_to(x, u.shape) if u.ndim > np.ndim(x) else x
    plus = retraction.retract(xb, h * u)[0]
    minus = retraction.retract(xb, -h * u)[0]
    second = (plus - 2.0 * xb + minus) / (h * h)
    return second * nv * nv


# ---------------------------------------------------------------------------
# Brownian SDE construction


def brownian_sde(
    handle: ManifoldHandle,
    form: str = "ito",
    diffusion: float = 0.5,
) -> SdeSpec:
    """The Riemannian Brownian motion on ``handle`` with generator c * Laplacian.

    ``diffusion`` is the generator scale c; the classical Brownian motion
    (generator Laplacian/2) is c = 1/2.  Drift and noise scale as 2c and
    sqrt(2c).  The noise has the ambient shape; ``handle.sigma`` is already
    tangent-valued, so it is only scaled.
    """
    require_positive_finite("diffusion", diffusion)
    c2 = 2.0 * diffusion
    root = float(np.sqrt(c2))

    if form == "ito":
        def drift(x, t):
            return c2 * handle.ito_drift(x)
    else:
        def drift(x, t):
            return c2 * handle.strat_drift(x)

    def sigma(x, dw, t):
        return root * handle.sigma(x, dw)

    return SdeSpec(form=form, drift=drift, sigma=sigma, noise_shape=handle.shape,
                   diffusion=diffusion)
