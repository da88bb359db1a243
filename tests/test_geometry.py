import dataclasses

import numpy as np
import pytest

from batteries import GEOMETRY_BATTERY, SPOT_BATTERY, SPOT_IDS, count_linalg
from manifold_sde import (
    OffManifoldError,
    SdeSpec,
    TangentRetraction,
    brownian_sde,
    brownian_soo,
    dual_tangent_frame,
    first_order_retraction,
    laplace_beltrami,
    laplace_drift_vector,
    make_manifold,
    second_order_retraction,
    soo_residual,
)
from manifold_sde.geometry import (
    FrameConditionError,
    ManifoldHandle,
    ambient_basis,
    brownian_ito_drift,
    check_metric_compatibility,
    check_projection,
    require_on_manifold,
    retraction_second_derivative,
)
from manifold_sde.linalg import frobenius_inner, frobenius_norm, mT
from manifold_sde.manifolds import make_hypersurface
from manifold_sde.rng import RngStream


@pytest.fixture(scope="module")
def so3():
    return make_manifold("so", N=3)


@pytest.fixture(scope="module")
def sphere3():
    return make_manifold("sphere", n=3)


def brownian_strat_drift(handle: ManifoldHandle, x: np.ndarray) -> np.ndarray:
    """Stratonovich drift -1/2 sum_i nabla_{Pi sigma e_i}(Pi sigma e_i).

    The oracle for ``handle.strat_drift``: the directional derivative of each
    field y -> Pi(y) sigma(y) e_i is taken by central differences along its
    own direction, with step sqrt(eps) * (1 + |x|_F), then corrected by the
    Christoffel term.
    """
    require_on_manifold(handle, x)
    basis = ambient_basis(handle.shape)
    u = handle.project(x, handle.sigma(x, basis))
    norms = frobenius_norm(u)
    safe = np.maximum(norms, 1e-300)[..., None, None]
    h = float(np.sqrt(np.finfo(float).eps) * (1.0 + np.max(frobenius_norm(x)))) / safe
    xb = np.broadcast_to(x, u.shape)
    fp = handle.project(xb + h * u, handle.sigma(xb + h * u, basis))
    fm = handle.project(xb - h * u, handle.sigma(xb - h * u, basis))
    d_term = (fp - fm) / (2.0 * h)
    d_term = np.where((norms > 1e-14)[..., None, None], d_term, 0.0)
    gamma_term = handle.christoffel(x, u, u)
    return -0.5 * np.sum(d_term + gamma_term, axis=0)


def test_require_on_manifold_rejects_off_points(sphere3):
    with pytest.raises(OffManifoldError):
        require_on_manifold(sphere3, 2.0 * sphere3.default_point())


def test_laplace_drift_is_twice_ito(so3):
    rng = RngStream(0, 0)
    x = so3.random_point(rng)
    assert frobenius_norm(laplace_drift_vector(so3, x) - 2.0 * brownian_ito_drift(so3, x)) < 1e-12


def test_trace_sum_insensitive_to_basis_projection(so3):
    """sum_b Gamma(e_b, Pi g^-1 e_b) equals sum_b Gamma(Pi e_b, Pi g^-1 e_b).

    The second slot is already tangent, so the bilinear extension off the
    tangent space in the first slot must not change the trace.
    """
    rng = RngStream(1, 0)
    x = so3.random_point(rng)
    basis = ambient_basis(so3.shape)
    w = so3.project(x, so3.metric_inv(x, basis))
    raw = np.sum(so3.christoffel(x, basis, w), axis=0)
    proj = np.sum(so3.christoffel(x, so3.project(x, basis), w), axis=0)
    assert frobenius_norm(raw - proj) < 1e-10


def test_noise_covariance_matches_inverse_metric(so3):
    # sum_k <a, sigma e_k><b, sigma e_k> = 2c <a, Pi g^-1 b>
    rng = RngStream(2, 0)
    x = so3.random_point(rng)
    c = 0.7
    sde = brownian_sde(so3, form="ito", diffusion=c)
    basis = ambient_basis(so3.shape)
    cols = sde.sigma(x, basis, 0.0)
    a = rng.normal(so3.shape)
    b = rng.normal(so3.shape)
    lhs = float(np.sum(frobenius_inner(a, cols) * frobenius_inner(b, cols)))
    rhs = 2.0 * c * float(frobenius_inner(a, so3.project(x, so3.metric_inv(x, b))))
    assert abs(lhs - rhs) < 1e-10


def test_dual_frame_reconstructs_projection(so3):
    rng = RngStream(3, 0)
    x = so3.random_point(rng)
    frame, dual = dual_tangent_frame(so3, x)
    w = rng.normal(so3.shape)
    coeff = frobenius_inner(dual, so3.metric(x, w[None]))
    recon = np.sum(frame * coeff[:, None, None], axis=0)
    assert frobenius_norm(recon - so3.project(x, w)) < 1e-9


@pytest.mark.parametrize("dim,message", [
    (10, "dim 10 exceeds ambient dimension 9"),
    (4, "frame condition"),
    (2, "projected basis spans more than dim=2 directions"),
])
def test_dual_frame_refuses_a_wrong_dim(so3, dim, message):
    handle = dataclasses.replace(so3, dim=dim)
    with pytest.raises(FrameConditionError, match=message):
        dual_tangent_frame(handle, so3.default_point())


def test_sphere_laplacian_of_coordinate():
    # f = x_1 has egrad e_1, zero Hessian; Delta f = -(n-1) x_1 on the unit sphere
    handle = make_manifold("sphere", n=3)
    x = np.zeros((3, 1))
    x[0, 0] = 1.0
    val = laplace_beltrami(handle, x, np.array([[1.0], [0.0], [0.0]]),
                           lambda w: np.zeros_like(w))
    assert abs(val - (-2.0)) < 1e-12


def test_laplacian_quadratic_cost(so3):
    """Quadratic cost f = <x, B x> + <g0, x> with exact ambient derivatives."""
    rng = RngStream(4, 0)
    x = so3.random_point(rng)
    b = rng.normal((3, 3))
    g0 = rng.normal((3, 3))

    egrad = b @ x + b.T @ x + g0
    val = laplace_beltrami(so3, x, egrad, lambda w: b @ w + b.T @ w)

    # compare with the intrinsic frame-sum at the same point
    frame, dual = dual_tangent_frame(so3, x)
    hess = np.einsum("kij,kij->", frame, b @ dual + np.swapaxes(b, -1, -2) @ dual)
    gamma = float(np.sum(egrad * so3.christoffel(x, frame, dual)))
    assert abs(val - (hess - gamma)) < 1e-8 * max(1.0, abs(val))


def test_brownian_sde_forms_and_scaling(so3):
    rng = RngStream(5, 0)
    x = so3.random_point(rng)
    ito = brownian_sde(so3, form="ito", diffusion=0.5)
    ito2 = brownian_sde(so3, form="ito", diffusion=1.0)
    assert frobenius_norm(ito2.drift(x, 0.0) - 2.0 * ito.drift(x, 0.0)) < 1e-12
    assert ito.form == "ito" and ito.diffusion == 0.5
    strat = brownian_sde(so3, form="stratonovich", diffusion=0.5)
    # unimodular group: vanishing Stratonovich drift
    assert frobenius_norm(strat.drift(x, 0.0)) < 1e-10
    w = rng.normal(so3.shape)
    # noise columns live in the tangent space
    col = ito.sigma(x, w, 0.0)
    assert frobenius_norm(so3.project(x, col) - col) < 1e-12


def test_sde_spec_rejects_unknown_form():
    with pytest.raises(ValueError):
        SdeSpec(form="milstein", drift=lambda x, t: x, sigma=lambda x, w, t: w,
                noise_shape=(2, 2))


def test_strat_drift_finite_difference_consistency(so3):
    # 2c * standard strat drift must equal the ito drift minus the sigma correction;
    # for a unimodular group the strat drift vanishes while ito does not.
    rng = RngStream(6, 0)
    x = so3.random_point(rng)
    assert frobenius_norm(so3.strat_drift(x)) < 1e-12
    assert frobenius_norm(brownian_strat_drift(so3, x) - so3.strat_drift(x)) < 1e-6
    assert frobenius_norm(so3.ito_drift(x) + 0.5 * x) < 1e-12


STRAT_DRIFT_BATTERY = GEOMETRY_BATTERY + [
    ("hypersurface-3-p4", lambda: make_hypersurface(3, p=4)),
    ("so-3-seed-4", lambda: make_manifold("so", N=3, metric_seed=4)),
    ("spd-2", lambda: make_manifold("spd", N=2)),
    ("spd-4", lambda: make_manifold("spd", N=4)),
]


@pytest.mark.parametrize("name,build", STRAT_DRIFT_BATTERY,
                         ids=[name for name, _ in STRAT_DRIFT_BATTERY])
def test_strat_drift_matches_the_finite_difference_on_every_family(name, build):
    handle = build()
    rng = RngStream(66, 0)
    for _ in range(5):
        x = handle.random_point(rng)
        assert frobenius_norm(brownian_strat_drift(handle, x) - handle.strat_drift(x)) < 1e-6


def test_second_order_retraction_reduces_to_rescaling_on_sphere(sphere3):
    # Pi(x) Gamma(x; v, v) = 0 on the sphere, so the corrected map is plain rescaling
    rng = RngStream(7, 0)
    x = sphere3.random_point(rng)
    v = sphere3.random_tangent(rng, x)
    r = second_order_retraction(sphere3)
    expected = (x + v) / np.linalg.norm(x + v)
    assert frobenius_norm(r.retract(x, v)[0] - expected) < 1e-14


def test_retraction_first_and_second_derivatives(so3):
    rng = RngStream(8, 0)
    x = so3.random_point(rng)
    v = so3.random_tangent(rng, x)
    r = second_order_retraction(so3)

    def point(w):
        return r.retract(x, w)[0]

    assert frobenius_norm(point(np.zeros_like(v)) - x) < 1e-14
    t = 1e-6
    first = (point(t * v) - point(-t * v)) / (2 * t)
    assert frobenius_norm(first - v) < 1e-7
    t = 1e-4
    second = (point(t * v) - 2 * x + point(-t * v)) / t**2
    assert frobenius_norm(second - (-so3.christoffel(x, v, v))) < 1e-5


def _domain_then_mapping(tub, q, x, ok):
    """The domain rule spelled out: freeze non-finite and flagged rows at x,
    map, and put x back on every row the map's own flag rejects."""
    ok = ok & np.isfinite(q).all(axis=(-2, -1))
    point, in_domain = tub.mapping(np.where(ok[..., None, None], q, x))
    ok = ok & in_domain
    return np.where(ok[..., None, None], point, x), ok


# every family's tubular retraction; the rescalings (sphere, hypersurface)
# and the polar factor on Stiefel and Grassmann are defined on every
# proposal a large move makes, the others are not
TUBULAR_FAMILIES = [
    ("so", lambda: make_manifold("so", N=3)),
    ("se", lambda: make_manifold("se", N=3)),
    ("sl", lambda: make_manifold("sl", N=3)),
    ("stiefel", lambda: make_manifold("stiefel", n=5, p=3)),
    ("grassmann", lambda: make_manifold("grassmann", n=5, p=2)),
    ("sphere", lambda: make_manifold("sphere", n=3)),
    ("hyperbolic", lambda: make_manifold("hyperbolic", n=3)),
    ("gl+", lambda: make_manifold("gl+", N=2)),
    ("aff", lambda: make_manifold("aff", N=3)),
    ("spd", lambda: make_manifold("spd", N=3)),
    ("hypersurface", lambda: make_hypersurface(n=3, p=4)),
]
DEFINED_ON_LARGE_MOVES = ("stiefel", "grassmann", "sphere", "hypersurface")


@pytest.mark.parametrize("name,build", TUBULAR_FAMILIES, ids=[n for n, _ in TUBULAR_FAMILIES])
def test_one_call_retraction_matches_domain_then_mapping(name, build):
    handle = build()
    tub = handle.tubular
    rng = RngStream(12, 0)
    x = np.stack([handle.random_point(rng) for _ in range(64)])
    v = 3.0 * rng.normal(x.shape)  # large moves
    v[5, 0, 0] = np.nan
    state, ok = second_order_retraction(handle).retract(x, v)
    q = x + v - 0.5 * tub.differential(x, handle.christoffel(x, v, v))
    state_ref, ok_ref = _domain_then_mapping(tub, q, x, np.ones(64, dtype=bool))
    outside = ~ok & np.isfinite(q).all(axis=(-2, -1))
    assert ok.any() and not ok[5]
    assert outside.any() != (name in DEFINED_ON_LARGE_MOVES)
    np.testing.assert_array_equal(ok, ok_ref)
    np.testing.assert_array_equal(state, state_ref)
    np.testing.assert_array_equal(state[~ok], x[~ok])

    # rows flagged on input, a NaN row and a zero row (outside every domain)
    q[9] = np.nan
    q[11] = 0.0
    flagged = np.ones(64, dtype=bool)
    flagged[[3, 9, 20]] = False
    q_in = q.copy()
    state, ok = tub.retract(q, x, flagged)
    state_ref, ok_ref = _domain_then_mapping(tub, q, x, flagged)
    assert not ok[[3, 5, 9, 11, 20]].any()
    np.testing.assert_array_equal(ok, ok_ref)
    np.testing.assert_array_equal(state, state_ref)
    np.testing.assert_array_equal(q, q_in)

    # on the finite rows, zero row included: the map's point is finite, and
    # retract (whose only rejected rows are then outside the domain) leaves
    # its input as it was
    finite = np.isfinite(q).all(axis=(-2, -1))
    q, x = q[finite], x[finite]
    assert np.isfinite(tub.mapping(q)[0]).all()
    q_in = q.copy()
    _, ok = tub.retract(q, x)
    assert not ok.all()
    np.testing.assert_array_equal(q, q_in)


@pytest.mark.parametrize("name,build", TUBULAR_FAMILIES, ids=[n for n, _ in TUBULAR_FAMILIES])
def test_retract_maps_once_and_leaves_rejected_rows_at_x(name, build):
    handle = build()
    tub = handle.tubular
    calls = []

    def mapping(q):
        calls.append(1)
        return tub.mapping(q)

    counted = dataclasses.replace(tub, mapping=mapping)
    rng = RngStream(17, 0)
    x = np.stack([handle.random_point(rng) for _ in range(8)])
    q = x + 0.01 * handle.project(x, rng.normal(x.shape))
    _, ok = counted.retract(q, x)
    assert ok.all() and len(calls) == 1

    # a NaN row, the zero row (outside every domain), an infinite row and a
    # row flagged on input
    q[1, 0, 0] = np.nan
    q[2] = 0.0
    q[3, -1, -1] = np.inf
    flagged = np.ones(8, dtype=bool)
    flagged[4] = False
    state, ok = counted.retract(q, x, flagged)
    np.testing.assert_array_equal(ok, [True, False, False, False, False, True, True, True])
    assert state[~ok].tobytes() == x[~ok].tobytes()
    assert len(calls) == 2


def _proposals_with_rejected_rows(handle):
    """Eight base points and proposals near them; rows 1 and 3 are
    non-finite and row 2 (the zero matrix) lies outside the domain."""
    rng = RngStream(14, 0)
    x = np.stack([handle.random_point(rng) for _ in range(8)])
    q = x + 0.1 * handle.project(x, rng.normal(x.shape))
    q[1, 0, 0] = np.nan
    q[2] = 0.0
    q[3, -1, -1] = np.inf
    assert not handle.tubular.mapping(q[2])[1]
    return x, q


@pytest.mark.parametrize("name,build", SPOT_BATTERY, ids=SPOT_IDS)
def test_tubular_admit_and_retract_reject_bad_rows(name, build):
    handle = build()
    tub = handle.tubular
    x, q = _proposals_with_rejected_rows(handle)
    flagged = np.ones(8, dtype=bool)
    flagged[4] = False
    expected = np.array([True, False, False, False, False, True, True, True])

    state, ok = tub.retract(q, x, flagged)
    np.testing.assert_array_equal(ok, expected)
    np.testing.assert_array_equal(state[ok], tub.mapping(q[ok])[0])
    np.testing.assert_array_equal(state[~ok], x[~ok])

    _, ok = tub.retract(q, x)  # no input flags: only row 4 changes
    expected[4] = True
    np.testing.assert_array_equal(ok, expected)


@pytest.mark.parametrize("name,build", SPOT_BATTERY, ids=SPOT_IDS)
def test_second_order_retraction_flags_nonfinite_step(name, build):
    handle = build()
    rng = RngStream(15, 0)
    x = np.stack([handle.random_point(rng) for _ in range(4)])
    v = 0.1 * handle.project(x, rng.normal(x.shape))
    v[2] = np.nan
    state, ok = second_order_retraction(handle).retract(x, v)
    np.testing.assert_array_equal(ok, [True, True, False, True])
    np.testing.assert_array_equal(state[2], x[2])
    assert np.all(np.isfinite(state))


POLAR_FAMILIES = [
    ("so-3", lambda: make_manifold("so", N=3)),
    ("so-8", lambda: make_manifold("so", N=8)),
    ("se-3", lambda: make_manifold("se", N=3)),
    ("stiefel-5-3", lambda: make_manifold("stiefel", n=5, p=3)),
    ("grassmann-5-2", lambda: make_manifold("grassmann", n=5, p=2)),
]


def _rotation(rng, k):
    q, _ = np.linalg.qr(rng.normal(size=(k, k)))
    q[:, 0] *= np.sign(np.linalg.det(q))
    return q


@pytest.mark.parametrize("name,build", POLAR_FAMILIES, ids=[n for n, _ in POLAR_FAMILIES])
def test_polar_retraction_sends_only_unsafe_rows_to_the_svd(name, build, monkeypatch):
    handle = build()
    tub = handle.tubular
    is_se = name.startswith("se")

    def block(q):  # the matrices the polar factor acts on
        return q[..., :-1, :-1] if is_se else q

    rng = RngStream(16, 0)
    x = np.stack([handle.random_point(rng) for _ in range(8)])
    near = x + 0.1 * handle.project(x, rng.normal(x.shape))
    # zero, rank-deficient, and s_min just above and just below the domain
    # threshold 1e-8 * max(s_max, 1) = 1e-8
    n, p = block(x).shape[-2:]
    gen = np.random.default_rng(16)
    ones = np.ones(p - 1)
    bad = near[:4].copy()
    for i, s in enumerate([np.zeros(p), np.r_[ones, 0.0],
                           np.r_[ones, 1.0001e-8], np.r_[ones, 0.9999e-8]]):
        block(bad)[i] = _rotation(gen, n)[:, :p] @ (s[:, None] * _rotation(gen, p))
    q = np.concatenate([near[:4], bad, near[4:]])
    unsafe = np.zeros(len(q), dtype=bool)
    unsafe[4:8] = True

    # the SVD rule: values-only SVD, plus det > 0 on so/se
    s_ref = np.linalg.svd(block(q), compute_uv=False)
    expected = s_ref[:, -1] > 1e-8 * np.maximum(s_ref[:, 0], 1.0)
    if name.startswith(("so", "se")):
        expected &= np.linalg.det(block(q)) > 0
    np.testing.assert_array_equal(expected[4:8], [False, False, True, False])

    # so the near rows take the iteration, and only the others reach the SVD
    gap = frobenius_norm(np.eye(p) - mT(block(near)) @ block(near))
    assert np.all(gap <= 0.5)

    calls = []
    svd = np.linalg.svd

    def counting_svd(a, *args, **kwargs):
        calls.append(np.array(a, copy=True))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    eigh_calls = count_linalg(monkeypatch, "eigh", "eigvalsh")
    tub.mapping(near)
    assert calls == []
    assert eigh_calls == {"eigh": 0, "eigvalsh": 0}

    np.testing.assert_array_equal(tub.mapping(q)[1], expected)
    assert len(calls) == 1
    for rows in calls:
        np.testing.assert_array_equal(rows, block(q)[unsafe])


def test_retraction_second_derivative_closed_vs_fd(so3):
    rng = RngStream(9, 0)
    x = so3.random_point(rng)
    v = so3.random_tangent(rng, x)
    r = second_order_retraction(so3)
    closed = retraction_second_derivative(r, x, v)
    fd = retraction_second_derivative(TangentRetraction(retract=r.retract), x, v)
    assert frobenius_norm(closed - fd) < 1e-5
    assert frobenius_norm(closed - (-so3.christoffel(x, v, v))) < 1e-12


def test_fd_second_derivative_rows_do_not_depend_on_their_batch(so3):
    # each row's difference step comes from its own |x|_F
    rng = RngStream(12, 0)
    x = so3.random_point(rng)
    v = so3.random_tangent(rng, x)
    r = TangentRetraction(retract=first_order_retraction(so3).retract)
    batched = retraction_second_derivative(r, np.stack([x, 3.0 * x]), np.stack([v, v]))
    for alone in (retraction_second_derivative(r, x, v),
                  retraction_second_derivative(r, x[None], v[None])[0]):
        np.testing.assert_array_equal(alone.view(np.uint64), batched[0].view(np.uint64))


def test_first_order_retraction_tangency(so3):
    rng = RngStream(10, 0)
    x = so3.random_point(rng)
    v = so3.random_tangent(rng, x)
    r = first_order_retraction(so3)
    t = 1e-6
    first = (r.retract(x, t * v)[0] - r.retract(x, -t * v)[0]) / (2 * t)
    assert frobenius_norm(first - v) < 1e-7


def test_tubular_differential_is_projection_on_tangent(so3):
    rng = RngStream(11, 0)
    x = so3.random_point(rng)
    v = so3.random_tangent(rng, x)
    d = so3.tubular.differential(x, v)
    assert frobenius_norm(d - v) < 1e-7


def test_functional_point_grassmann_projector():
    gr = make_manifold("grassmann", n=5, p=3)
    y = gr.random_point(RngStream(12, 0))
    proj = gr.functional_point(y)
    assert proj.shape[-2:] == (5, 5)
    assert frobenius_norm(proj - proj @ proj) < 1e-12
    assert frobenius_norm(proj - np.swapaxes(proj, -1, -2)) < 1e-13
    # non-quotient families pass through unchanged
    so3 = make_manifold("so", N=3)
    x = so3.random_point(RngStream(12, 1))
    assert np.array_equal(so3.functional_point(x), x)


def test_brownian_soo_residual_zero_on_battery(so3, sphere3):
    for handle in (so3, sphere3):
        x = handle.random_point(RngStream(13, 0))
        assert soo_residual(handle, x, brownian_soo(handle, x)) < 1e-8


def test_geometry_checks_report_a_nan_residual_as_nan(sphere3):
    # a NaN residual fails a check; a running max(worst, nan) would keep worst
    def nan_operator(x, w):
        return np.full(np.broadcast_shapes(np.shape(x), np.shape(w)), np.nan)

    broken = dataclasses.replace(sphere3, metric=nan_operator, metric_inv=nan_operator,
                                 sigma=nan_operator)
    x = sphere3.random_point(RngStream(14, 0))
    assert np.isnan(check_projection(broken, x, trials=3).max_asymmetry)
    assert np.isnan(check_metric_compatibility(broken, x, trials=3))
    assert np.isnan(soo_residual(broken, x, brownian_soo(broken, x)))
