"""One-step schemes that keep SDE paths on an embedded matrix manifold.

Five schemes, selected by string id:

- ``ito-em``:        projected Euler-Maruyama on the Ito form,
- ``strat-heun``:    projected Euler-Heun predictor/corrector (Stratonovich),
- ``geodesic-walk``: normalized geodesic random walk through a second-order
                     tangent retraction,
- ``retractive-em``: Euler-Maruyama through a tangent retraction, drift
                     adjusted by the retraction's second-order term (the
                     adjustment vanishes, and is skipped, for a Brownian SDE
                     and a second-order retraction),
- ``rk4-geodesic``:  the geodesic walk through the exponential map: the
                     handle's closed form where it has one (so(N) without
                     ``metric_seed``, spd), elsewhere projected Runge-Kutta
                     passes over the geodesic equation.

The projected and retractive schemes consume componentwise-truncated Gaussian
increments, clamped at A_h = sqrt(2 r |ln h|), which keeps intermediate
points inside the retraction domain with overwhelming probability.  The
geodesic schemes normalize the move length, so they use the raw increments.

Steppers are pure functions of (state, increment) and broadcast over leading
batch axes.  Every scheme reaches the manifold through one domain-checked
call: the projected schemes, each RK4 pass and the closed-form exponential
map through ``TubularRetraction.retract``, the retraction schemes through
``TangentRetraction.retract`` (which for the second-order retraction forms
Gamma(x; v, v) once per step).  The Heun predictor is an ambient point that
sigma is evaluated at, never retracted or tested.  Only the proposal's call
rejects: a row whose proposal is non-finite or leaves the retraction domain
comes back as its previous state, bit for bit, flagged in ``StepResult.ok``,
and every row of a step's result is final.  The caller decides whether to
resample flagged rows (the simulation harness retries a few times, each
attempt from a stream of its own, before giving up).  ``make_stepper``
holds the per-scheme rules in one table: the SDE form consumed, whether the
move is a normalized walk (raw increments, generator scale required) and the
tangent retraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from operator import attrgetter
from typing import Callable

import numpy as np

from .geometry import (
    ManifoldHandle,
    SdeSpec,
    TangentRetraction,
    brownian_sde,
    finite_rows,
    freeze_rows,
    retraction_second_derivative,
    second_order_retraction,
)

# RK4 steps per exponential map in ``rk4-geodesic``
RK4_SUBSTEPS = 2


class IntegratorParameterError(ValueError):
    pass


class StepFailureError(RuntimeError):
    """A path could not complete a step inside the retraction domain.

    ``step`` and ``path`` locate the failure when the raiser knows them (the
    simulation harness always sets both).
    """

    def __init__(self, message: str, step: int | None = None, path: int | None = None):
        super().__init__(message)
        self.step = step
        self.path = path


class DivergenceError(RuntimeError):
    """Nothing raises it; it stays only because ``perfbench/run.py`` still
    imports it."""


# ---------------------------------------------------------------------------
# increments


def truncation_bound(h: float, r: float = 1.0) -> float:
    """The clamp level A_h = sqrt(2 r |ln h|) for step size h in (0, 1)."""
    if not 0.0 < h < 1.0:
        raise IntegratorParameterError(
            f"truncation needs a step size in (0, 1), got h={h}"
        )
    check_truncation_parameter(r)
    return math.sqrt(2.0 * r * abs(math.log(h)))


def check_truncation_parameter(r: float) -> None:
    """Raise :class:`IntegratorParameterError` unless r is finite and >= 1."""
    if not (math.isfinite(r) and r >= 1.0):
        raise IntegratorParameterError(
            f"truncation parameter r must be finite and >= 1, got {r}"
        )


@dataclass(frozen=True)
class WienerIncrement:
    """Raw and clamped standard-normal draws for one time step."""

    raw: np.ndarray
    truncated: np.ndarray
    h: float
    r: float


# ---------------------------------------------------------------------------
# step results


@dataclass(frozen=True)
class StepResult:
    """Next state plus the per-row domain flag.

    ``ok`` flags batch rows whose proposal stayed inside the retraction
    domain; failed rows carry the previous state, bit for bit.  Every row of
    ``state`` is final: a caller may take the array whole.
    """

    state: np.ndarray
    ok: np.ndarray


# ---------------------------------------------------------------------------
# projected Euler schemes
#
# Every step rule takes (handle, sde, retraction, x, t, h, zeta), zeta being
# the increment ``make_stepper`` selected for it; the projected schemes have
# no tangent retraction and ignore that argument.


def step_ito_projected(handle, sde, retraction, x, t, h, zeta) -> StepResult:
    """pi(x + h mu + sqrt(h) sigma zeta) on the Ito form."""
    x = np.asarray(x, dtype=float)
    q = x + h * sde.drift(x, t) + math.sqrt(h) * sde.sigma(x, zeta, t)
    return StepResult(*handle.tubular.retract(q, x))


def step_stratonovich_heun_projected(handle, sde, retraction, x, t, h, zeta) -> StepResult:
    """Predictor/corrector: pi(x + h mu_S + sqrt(h)/2 (sigma(x) + sigma(pred)) zeta).

    The predictor pred = x + sqrt(h) sigma(x) zeta is an ambient point: sigma
    is evaluated there as it stands, through its smooth extension off M, and
    only the proposal is retracted.  A non-finite predictor row is evaluated
    at x instead, so sigma never sees it; its proposal is non-finite as well
    and is rejected.
    """
    x = np.asarray(x, dtype=float)
    rooth = math.sqrt(h)
    # the drift right after sigma at the same x, so a handle can reuse a
    # factorisation of x between them
    s0 = sde.sigma(x, zeta, t)
    mu = sde.drift(x, t)
    pred = x + rooth * s0
    s1 = sde.sigma(freeze_rows(pred, x, finite_rows(pred)), zeta, t)
    q = x + h * mu + 0.5 * rooth * (s0 + s1)
    return StepResult(*handle.tubular.retract(q, x))


# ---------------------------------------------------------------------------
# retraction-based schemes


def _noise_basis(sde: SdeSpec, batch_ndim: int) -> np.ndarray:
    size = int(np.prod(sde.noise_shape))
    return np.eye(size).reshape((size,) + (1,) * batch_ndim + tuple(sde.noise_shape))


def mu_retraction_adjusted(sde, retraction, x, t) -> np.ndarray:
    """mu minus half the sum of r''(x; sigma w_j, sigma w_j) over noise axes.

    The adjustment puts the one-step mean of a retracted Euler step back on
    the SDE's drift.  For Brownian SDEs with a second-order retraction it
    vanishes identically (r'' = -Gamma cancels the Brownian drift), so
    :func:`step_retractive_em` does not call it in that case.
    """
    x = np.asarray(x, dtype=float)
    basis = _noise_basis(sde, x.ndim - 2)
    fields = sde.sigma(x, basis, t)
    second = retraction_second_derivative(retraction, x, fields)
    return sde.drift(x, t) - 0.5 * np.sum(second, axis=0)


def step_retractive_em(handle, sde, retraction, x, t, h, zeta) -> StepResult:
    """r(x, h mu_r + sqrt(h) sigma zeta) through a tangent retraction.

    When the retraction is second-order and the SDE Brownian (``diffusion``
    set), mu_r is zero and the step is r(x, sqrt(h) sigma zeta); otherwise
    mu_r comes from :func:`mu_retraction_adjusted`.
    """
    x = np.asarray(x, dtype=float)
    v = math.sqrt(h) * sde.sigma(x, zeta, t)
    if not (retraction.second_order and sde.diffusion is not None):
        v = h * mu_retraction_adjusted(sde, retraction, x, t) + v
    return StepResult(*retraction.retract(x, v))


def _normalized_move(handle, sde, x, raw, t, length2):
    """Rescale sigma(x) xi to squared metric length ``length2`` (rowwise); a
    row of zero or non-finite length becomes a NaN move, which is rejected."""
    u = sde.sigma(x, raw, t)
    norm2 = np.sum(u * handle.metric(x, u), axis=(-2, -1))
    good = np.isfinite(norm2) & (norm2 > 0.0)
    scale = np.sqrt(length2 / np.where(good, norm2, 1.0))
    return np.where(good[..., None, None], scale[..., None, None] * u, np.nan)


def step_geodesic_walk(handle, sde, retraction, x, t, h, xi) -> StepResult:
    """Geodesic random walk: r(x, v) with v = sigma xi rescaled to metric
    length sqrt(2 c h d), d = dim of the manifold, c the generator scale.

    The move length is fixed by the normalization, so ``xi`` is the raw
    (untruncated) increment.  A zero noise vector (probability zero) is
    flagged for resampling.
    """
    x = np.asarray(x, dtype=float)
    length2 = 2.0 * sde.diffusion * float(h) * handle.dim
    v = _normalized_move(handle, sde, x, xi, t, length2)
    return StepResult(*retraction.retract(x, v))


# ---------------------------------------------------------------------------
# geodesic equation by Runge-Kutta


def _geodesic_field(handle, x, v):
    return v, -handle.christoffel(x, v, v)


def _rk4_geodesic_masked(handle, x, v, T, steps):
    """Classical RK4 on d/dt (x, v) = (v, -Gamma(x; v, v)) over [0, T] in
    ``steps`` passes, each pulled back by the tubular retraction with the
    velocity re-projected; returns ``(point, velocity, ok)``.

    A row whose pass turns non-finite, leaves the retraction domain or
    passes the velocity cap 1e6 max(1, |v0|) is flagged and held at x.
    """
    hstep = float(T) / int(steps)
    # the blow-up cap is per row, so a row's flag does not depend on its batch
    vcap = 1e6 * np.maximum(1.0, np.sqrt(np.sum(v * v, axis=(-2, -1))))
    ok = np.ones(np.broadcast(x, v).shape[:-2], dtype=bool)
    x0 = x = np.broadcast_to(x, np.broadcast(x, v).shape).astype(float)
    v = np.broadcast_to(v, x.shape).astype(float)
    for _ in range(int(steps)):
        k1x, k1v = _geodesic_field(handle, x, v)
        k2x, k2v = _geodesic_field(handle, x + 0.5 * hstep * k1x, v + 0.5 * hstep * k1v)
        k3x, k3v = _geodesic_field(handle, x + 0.5 * hstep * k2x, v + 0.5 * hstep * k2v)
        k4x, k4v = _geodesic_field(handle, x + hstep * k3x, v + hstep * k3v)
        xn = x + (hstep / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        vn = v + (hstep / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        # a flagged row is held at its start point by the tubular call
        ok = ok & finite_rows(vn) & (np.sqrt(np.sum(vn * vn, axis=(-2, -1))) <= vcap)
        x, ok = handle.tubular.retract(xn, x0, ok)
        v = handle.project(x, freeze_rows(vn, v, ok))
    return x, v, ok


def exponential_retraction(handle: ManifoldHandle) -> TangentRetraction:
    """The exponential map as a tangent retraction: ``handle.exponential``
    where it is set, else ``RK4_SUBSTEPS`` projected RK4 steps over [0, 1].

    The closed form sees a non-finite v row as zero, and the tubular
    retraction brings that row back as x with ``ok`` False; an RK4 row whose
    pass turns non-finite, leaves the retraction domain or passes the
    velocity cap comes back as x with ``ok`` False as well.  A geodesic has
    no acceleration, so r'' = -Gamma(x; v, v), the second-order retraction's
    term, which this one shares.
    """
    exponential = handle.exponential
    if exponential is None:
        def retract(x, v):
            point, _, ok = _rk4_geodesic_masked(handle, x, v, 1.0, RK4_SUBSTEPS)
            return point, ok
    else:
        def retract(x, v):
            ok = finite_rows(v)
            return handle.tubular.retract(exponential(x, freeze_rows(v, 0.0, ok)), x, ok)

    return replace(second_order_retraction(handle), retract=retract)


# ---------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class Stepper:
    """An integrator bound to one handle and SDE, ready to advance paths.

    ``noise_shape`` is the shape of one row's increment; ``uses_truncation``
    says whether ``step`` reads the clamped increment (else the raw one).
    """

    step: Callable[[np.ndarray, float, float, WienerIncrement], StepResult]
    noise_shape: tuple
    uses_truncation: bool


# id -> (SDE form, normalized walk, step rule, tangent retraction built from
# the handle, whether the caller's ``retraction`` replaces it).  A walk fixes
# its move length, so it reads the raw increment and needs the SDE's
# generator scale; the other schemes read the clamped one.
_SCHEMES = {
    "ito-em": ("ito", False, step_ito_projected, None, False),
    "strat-heun": ("stratonovich", False, step_stratonovich_heun_projected, None, False),
    "geodesic-walk": ("ito", True, step_geodesic_walk, second_order_retraction, True),
    "retractive-em": ("ito", False, step_retractive_em, second_order_retraction, True),
    "rk4-geodesic": ("ito", True, step_geodesic_walk, exponential_retraction, False),
}

INTEGRATOR_IDS = tuple(_SCHEMES)
# the schemes that read the clamped increment, whose bound needs h in (0, 1)
TRUNCATED_IDS = tuple(i for i, (_, walk, *_) in _SCHEMES.items() if not walk)


def check_integrator_id(integrator_id: str) -> None:
    """Raise :class:`IntegratorParameterError` unless the id names a scheme."""
    if integrator_id not in _SCHEMES:
        raise IntegratorParameterError(
            f"unknown integrator {integrator_id!r}; valid ids: {', '.join(INTEGRATOR_IDS)}"
        )


def make_stepper(
    handle: ManifoldHandle,
    integrator_id: str,
    sde: SdeSpec | None = None,
    diffusion: float = 0.5,
    retraction: TangentRetraction | None = None,
) -> Stepper:
    """Bind an integrator id to a handle and (by default Brownian) SDE.

    ``retraction`` replaces the second-order retraction of ``geodesic-walk``
    and ``retractive-em``; any other scheme refuses it
    (``IntegratorParameterError``), since it would not read it.
    """
    check_integrator_id(integrator_id)
    form, walk, rule, build_retraction, replaceable = _SCHEMES[integrator_id]
    if retraction is not None and not replaceable:
        takers = ", ".join(i for i, (*_, takes) in _SCHEMES.items() if takes)
        raise IntegratorParameterError(f"{integrator_id} takes no retraction; only {takers} do")
    if sde is None:
        sde = brownian_sde(handle, form=form, diffusion=diffusion)
    elif sde.form != form:
        raise IntegratorParameterError(
            f"{integrator_id} consumes a {form}-form SDE, got {sde.form}"
        )
    if walk and sde.diffusion is None:
        raise IntegratorParameterError(
            f"{integrator_id} needs a Brownian SDE carrying its generator scale"
        )
    if retraction is None and build_retraction is not None:
        retraction = build_retraction(handle)
    noise = attrgetter("raw" if walk else "truncated")

    def step(x, t, h, inc):
        return rule(handle, sde, retraction, x, t, h, noise(inc))

    return Stepper(step=step, noise_shape=tuple(sde.noise_shape), uses_truncation=not walk)
