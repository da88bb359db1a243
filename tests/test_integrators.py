import dataclasses
import math

import numpy as np
import pytest

from batteries import (IDS, GEOMETRY_BATTERY, SPOT_BATTERY, SPOT_IDS, count_linalg,
                       counted_tubular, record_inv)
from manifold_sde import (
    INTEGRATOR_IDS,
    IntegratorParameterError,
    brownian_sde,
    first_order_retraction,
    integrators,
    linalg,
    make_manifold,
    make_stepper,
    mu_retraction_adjusted,
    second_order_retraction,
    truncation_bound,
)
from manifold_sde.geometry import SdeSpec, TangentRetraction, retraction_second_derivative
from manifold_sde.integrators import WienerIncrement
from manifold_sde.linalg import frobenius_norm, mT, matrix_exp, polar_orth, skew, sym
from manifold_sde.manifolds import lie_group, spd
from manifold_sde.manifolds.hypersurface import make_hypersurface
from manifold_sde.rng import RngStream


@pytest.fixture(scope="module")
def sphere3():
    return make_manifold("sphere", n=3)


@pytest.fixture(scope="module")
def so3():
    return make_manifold("so", N=3)


# ---------------------------------------------------------------------------
# increment truncation


def truncated_increment(rng: RngStream, k, h: float) -> WienerIncrement:
    """Draw i.i.d. standard normals of shape ``k`` and clamp them at +-A_h."""
    shape = (k,) if isinstance(k, int) else tuple(k)
    bound = truncation_bound(h)
    raw = rng.normal(shape)
    return WienerIncrement(raw=raw, truncated=np.clip(raw, -bound, bound), h=float(h), r=1.0)


def test_truncation_bound_value():
    assert truncation_bound(math.exp(-2.0)) == pytest.approx(2.0, abs=1e-15)


@pytest.mark.parametrize("h", [0.0, 1.0, 1.5, -0.1, float("nan")])
def test_truncation_bound_rejects_bad_parameters(h):
    with pytest.raises(IntegratorParameterError):
        truncation_bound(h)


def test_truncated_increment_clamps_at_bound():
    h = math.exp(-2.0)
    inc = truncated_increment(RngStream(20, 0), (2000,), h)
    assert truncation_bound(inc.h) == pytest.approx(2.0, abs=1e-15)
    assert inc.h == h
    np.testing.assert_array_equal(inc.truncated, np.clip(inc.raw, -2.0, 2.0))
    assert np.any(np.abs(inc.raw) > 2.0)          # some draws do get clamped
    assert np.max(np.abs(inc.truncated)) <= 2.0
    # arithmetic of the clamp itself
    np.testing.assert_array_equal(
        np.clip(np.array([3.0, 1.0, -5.0]), -2.0, 2.0), [2.0, 1.0, -2.0])


def test_truncated_increment_is_unbiased():
    inc = truncated_increment(RngStream(21, 0), (1_000_000,), math.exp(-2.0))
    mean = float(np.mean(inc.truncated))
    stderr = float(np.std(inc.truncated) / 1000.0)
    assert abs(mean) < 5.0 * stderr


# ---------------------------------------------------------------------------
# one-step behavior


@pytest.mark.parametrize("integrator_id", INTEGRATOR_IDS)
@pytest.mark.parametrize("family", ["sphere", "so", "spd"])
def test_steps_stay_on_manifold(integrator_id, family):
    handle = make_manifold(family, **({"n": 3} if family == "sphere" else {"N": 3}))
    stepper = make_stepper(handle, integrator_id)
    rng = RngStream(22, 0)
    x = np.stack([handle.random_point(rng) for _ in range(20)])
    h = 0.01
    for k in range(10):
        inc = truncated_increment(rng, (20,) + stepper.noise_shape, h)
        result = stepper.step(x, k * h, h, inc)
        assert bool(np.all(result.ok))
        assert np.max(handle.constraint_residual(result.state)) < 1e-9
        assert bool(np.all(handle.on_manifold(result.state, tol=1e-8)))
        x = result.state


def test_nan_increment_freezes_its_row(sphere3):
    stepper = make_stepper(sphere3, "ito-em")
    rng = RngStream(23, 0)
    x = np.stack([sphere3.random_point(rng) for _ in range(3)])
    z = rng.normal((3, 3, 1))
    z[1, 0, 0] = np.nan
    inc = WienerIncrement(raw=z, truncated=z, h=0.01, r=1.0)
    result = stepper.step(x, 0.0, 0.01, inc)
    np.testing.assert_array_equal(result.ok, [True, False, True])
    np.testing.assert_array_equal(result.state[1], x[1])
    assert bool(np.all(sphere3.on_manifold(result.state[[0, 2]], tol=1e-9)))


def test_sphere_euler_step_with_zero_noise_returns_start(sphere3):
    # the radial Euler drift is rescaled away exactly
    stepper = make_stepper(sphere3, "ito-em")
    x = sphere3.random_point(RngStream(24, 0))
    z = np.zeros((3, 1))
    inc = WienerIncrement(raw=z, truncated=z, h=0.05, r=1.0)
    result = stepper.step(x, 0.0, 0.05, inc)
    assert result.ok
    assert float(np.max(np.abs(result.state - x))) < 1e-15


def test_so3_single_step_orthogonality(so3):
    stepper = make_stepper(so3, "ito-em")
    x = so3.random_point(RngStream(25, 0))
    inc = truncated_increment(RngStream(25, 1), (3, 3), 0.01)
    result = stepper.step(x, 0.0, 0.01, inc)
    assert frobenius_norm(mT(result.state) @ result.state - np.eye(3)) < 1e-12


def test_stepper_is_deterministic(so3):
    stepper = make_stepper(so3, "strat-heun")
    x = so3.random_point(RngStream(26, 0))
    inc = truncated_increment(RngStream(26, 1), (3, 3), 0.02)
    a = stepper.step(x, 0.0, 0.02, inc)
    b = stepper.step(x, 0.0, 0.02, inc)
    np.testing.assert_array_equal(a.state, b.state)


@pytest.mark.parametrize("integrator_id", INTEGRATOR_IDS)
@pytest.mark.parametrize("name,build", GEOMETRY_BATTERY, ids=IDS)
def test_step_does_not_write_its_input(name, build, integrator_id):
    # the harness hands a stepper its whole state array, not a copy, and
    # takes the result whole: a flagged row must be its input row, bit for bit
    handle = build()
    stepper = make_stepper(handle, integrator_id)
    walk = not stepper.uses_truncation
    rng = RngStream(46, 0)
    x = np.stack([handle.random_point(rng) for _ in range(6)])
    before = x.copy()
    x.setflags(write=False)
    for h in (0.2, 0.95):
        raw = 4.0 * rng.normal((6,) + stepper.noise_shape)
        raw[2] = np.nan
        raw[4] = 0.0  # a walk has no direction to move in
        bound = truncation_bound(h)
        inc = WienerIncrement(raw=raw, truncated=np.clip(raw, -bound, bound), h=h, r=1.0)
        out = stepper.step(x, 0.0, h, inc)
        assert not out.ok[2]
        assert not (walk and out.ok[4])
        np.testing.assert_array_equal(out.state[~out.ok], x[~out.ok])
        np.testing.assert_array_equal(x, before)


# ---------------------------------------------------------------------------
# geodesic integration


def test_rk4_geodesic_reaches_sphere_antipode(sphere3):
    x = np.array([[1.0], [0.0], [0.0]])
    v = np.array([[0.0], [1.0], [0.0]])
    point, velocity, ok = integrators._rk4_geodesic_masked(sphere3, x, v, math.pi, 100)
    assert ok
    assert frobenius_norm(point + x) < 1e-6
    assert frobenius_norm(velocity + v) < 1e-6


def test_rk4_geodesic_matches_group_exponential(so3):
    rng = RngStream(27, 0)
    x = so3.random_point(rng)
    v = so3.random_tangent(rng, x)
    point, _, ok = integrators._rk4_geodesic_masked(so3, x, v, 1.0, 100)
    assert ok
    assert frobenius_norm(point - x @ matrix_exp(mT(x) @ v)) < 1e-6


def test_rk4_geodesic_zero_velocity_is_stationary(sphere3):
    x = sphere3.random_point(RngStream(28, 0))
    point, velocity, ok = integrators._rk4_geodesic_masked(sphere3, x, np.zeros((3, 1)), 1.0, 10)
    assert ok
    np.testing.assert_array_equal(point, x)
    assert frobenius_norm(velocity) == 0.0


def test_rk4_geodesic_reports_blowup():
    hyp = make_manifold("hyperbolic", n=2)
    x = np.array([[0.0], [1.0]])
    v = np.array([[0.0], [20.0]])  # runs to infinity; ambient speed grows like e^{20t}
    point, _, ok = integrators._rk4_geodesic_masked(hyp, x, v, 1.0, 50)
    assert not ok
    np.testing.assert_array_equal(point, x)


def test_rk4_velocity_cap_is_per_row():
    # a row's flag must not depend on the other rows in its batch
    hyp = make_manifold("hyperbolic", n=2)
    x = np.array([[0.0], [1.0]])
    v = np.array([[0.0], [14.0]])
    _, _, alone = integrators._rk4_geodesic_masked(hyp, x, v, 1.0, 50)
    batch = np.stack([v, np.array([[0.0], [-50.0]])])
    point, _, together = integrators._rk4_geodesic_masked(hyp, x, batch, 1.0, 50)
    assert together[0] == alone
    # row 1 passes 28 passes before the cap flags it, and comes back as x
    assert not together[1]
    np.testing.assert_array_equal(point[1], x)


@pytest.mark.parametrize("name,build", SPOT_BATTERY, ids=SPOT_IDS)
def test_rk4_walk_step_matches_standalone_exponential_map(name, build):
    # the rk4-geodesic step is the exponential map of the walk's normalized move
    handle = build()
    stepper = make_stepper(handle, "rk4-geodesic")
    rng = RngStream(47, 0)
    x = np.stack([handle.random_point(rng) for _ in range(6)])
    raw = rng.normal((6,) + stepper.noise_shape)
    raw[4] = np.nan
    h = 0.05
    out = stepper.step(x, 0.0, h, WienerIncrement(raw=raw, truncated=raw, h=h, r=1.0))
    np.testing.assert_array_equal(out.ok, [True, True, True, True, False, True])
    sde = brownian_sde(handle, form="ito")
    v = integrators._normalized_move(handle, sde, x, raw, 0.0, 2.0 * 0.5 * h * handle.dim)
    x, v = x[out.ok], v[out.ok]
    if handle.exponential is None:
        point, _, ok = integrators._rk4_geodesic_masked(handle, x, v, 1.0,
                                                        integrators.RK4_SUBSTEPS)
    else:
        point, ok = handle.tubular.retract(handle.exponential(x, v), x)
    assert ok.all()
    np.testing.assert_array_equal(out.state[out.ok], point)


# ---------------------------------------------------------------------------
# closed-form exponential maps

CLOSED_FORM = [("so", {"N": 2}), ("so", {"N": 3}), ("so", {"N": 8}),
               ("spd", {"N": 2}), ("spd", {"N": 3})]
CLOSED_FORM_IDS = ["so-2", "so-3", "so-8", "spd-2", "spd-3"]


def _walk_moves(handle, seed, batch=16, h=0.01):
    """Random points and the geodesic walk's moves from them at step h."""
    rng = RngStream(seed, 0)
    x = np.stack([handle.random_point(rng) for _ in range(batch)])
    raw = rng.normal((batch,) + handle.shape)
    sde = brownian_sde(handle, form="ito")
    return x, integrators._normalized_move(handle, sde, x, raw, 0.0, h * handle.dim)


@pytest.mark.parametrize("family,params", CLOSED_FORM, ids=CLOSED_FORM_IDS)
def test_exponential_matches_a_fine_rk4(family, params):
    handle = make_manifold(family, **params)
    x, v = _walk_moves(handle, 60)
    point, _, ok = integrators._rk4_geodesic_masked(handle, x, v, 1.0, 200)
    assert ok.all()
    assert np.max(np.abs(handle.exponential(x, v) - point)) <= 1e-12


@pytest.mark.parametrize("family,params", CLOSED_FORM, ids=CLOSED_FORM_IDS)
def test_exponential_row_alone_has_its_batch_bits(family, params):
    handle = make_manifold(family, **params)
    x, v = _walk_moves(handle, 61, h=0.2)
    batch = handle.exponential(x, v)
    for k in range(len(x)):
        np.testing.assert_array_equal(handle.exponential(x[k:k + 1], v[k:k + 1]),
                                      batch[k:k + 1])
        np.testing.assert_array_equal(handle.exponential(x[k], v[k]), batch[k])


@pytest.mark.parametrize("family,params", CLOSED_FORM, ids=CLOSED_FORM_IDS)
def test_exponential_retraction_rejects_a_nan_move_as_its_start(family, params):
    handle = make_manifold(family, **params)
    x, v = _walk_moves(handle, 62)
    retraction = integrators.exponential_retraction(handle)
    clean, clean_ok = retraction.retract(x, v)
    v[3, 0, -1] = np.nan
    v[5] = np.nan
    point, ok = retraction.retract(x, v)
    assert clean_ok.all()
    np.testing.assert_array_equal(np.flatnonzero(~ok), [3, 5])
    assert point[[3, 5]].tobytes() == x[[3, 5]].tobytes()
    np.testing.assert_array_equal(point[ok], clean[ok])


@pytest.mark.parametrize("t2", [1e-12, 1e-9, 9.999999e-9, np.nextafter(1e-8, 0.0), 1e-8,
                                1.0000001e-8, 1e-7, 1e-4, 0.25])
def test_rodrigues_matches_matrix_exp_across_the_taylor_switch(t2):
    axes = RngStream(63, 0).normal((8, 3))
    axes *= np.sqrt(t2 / np.sum(axes * axes, axis=1))[:, None]
    w = np.zeros((8, 3, 3))
    w[:, 2, 1], w[:, 0, 2], w[:, 1, 0] = axes.T
    w = w - mT(w)
    assert np.max(np.abs(lie_group._rodrigues(w) - matrix_exp(w))) <= 1e-15


@pytest.mark.parametrize("family,params", CLOSED_FORM, ids=CLOSED_FORM_IDS)
def test_closed_form_walk_stays_on_the_manifold(family, params):
    # the steps are not re-drawn, and none is flagged: on spd(3) the
    # eigenvalues spread apart to cond 8e13, where a move's metric length,
    # read through x^{-1/2} (x^{-1/2} u x^{-1/2}) x^{-1/2}, keeps its leading
    # digits (through x^{-1} u x^{-1} it rounded to <= 0 past cond 3e11)
    handle = make_manifold(family, **params)
    stepper = make_stepper(handle, "rk4-geodesic")
    rng = RngStream(64, 0)
    x = np.stack([handle.random_point(rng) for _ in range(4)])
    for _ in range(2000):
        raw = rng.normal((4,) + stepper.noise_shape)
        out = stepper.step(x, 0.0, 0.01, WienerIncrement(raw=raw, truncated=raw, h=0.01, r=1.0))
        assert out.ok.all()
        x = out.state
    assert np.max(handle.constraint_residual(x)) <= 1e-12
    assert handle.on_manifold(x).all()


@pytest.mark.parametrize("family,params", CLOSED_FORM, ids=CLOSED_FORM_IDS)
def test_closed_form_rk4_step_forms_no_christoffel(family, params):
    # the closed form reads no connection, and its point is accepted by the
    # one tubular call of the step
    handle, calls = counted_tubular(make_manifold(family, **params))
    christoffel = []

    def counted(x, u, v):
        christoffel.append(1)
        return handle.christoffel(x, u, v)

    stepper = make_stepper(dataclasses.replace(handle, christoffel=counted), "rk4-geodesic")
    assert _one_step(stepper, handle, 65).ok.all()
    assert christoffel == [] and calls["mapping"] == 1


@pytest.mark.parametrize("family,params", [
    ("so", {"N": 3, "metric_seed": 4}), ("gl+", {"N": 2}), ("sl", {"N": 3}),
    ("se", {"N": 3}), ("aff", {"N": 3}), ("stiefel", {"n": 5, "p": 3}),
    ("grassmann", {"n": 5, "p": 2}), ("hyperbolic", {"n": 3}), ("sphere", {"n": 3}),
], ids=lambda p: p if isinstance(p, str) else "-".join(map(str, p.values())))
def test_no_closed_form_exponential_elsewhere(family, params):
    assert make_manifold(family, **params).exponential is None


# ---------------------------------------------------------------------------
# geodesic random walk


def test_walk_flags_degenerate_noise(sphere3):
    # a zero noise vector has no direction; its rows stay where they were,
    # bit for bit, off the basis points where r(x, 0) = x holds exactly
    stepper = make_stepper(sphere3, "geodesic-walk")
    rng = RngStream(33, 0)
    x = np.stack([sphere3.random_point(rng) for _ in range(8)])
    raw = RngStream(33, 1).normal((8, 3, 1))
    raw[::2] = 0.0
    inc = WienerIncrement(raw=raw, truncated=raw, h=0.01, r=1.0)
    result = stepper.step(x, 0.0, 0.01, inc)
    np.testing.assert_array_equal(result.ok, [False, True] * 4)
    np.testing.assert_array_equal(result.state[::2], x[::2])


@pytest.mark.parametrize("diffusion,message", [
    (math.nan, "positive and finite"), (math.inf, "positive and finite"),
    (0.0, "positive and finite"), (-0.5, "positive and finite"),
    (True, "a real number"), ("0.5", "a real number"),
], ids=["nan", "inf", "zero", "negative", "bool", "str"])
@pytest.mark.parametrize("entry", ["brownian_sde", "make_stepper"])
def test_diffusion_is_checked_as_the_config_checks_it(sphere3, entry, diffusion, message):
    build = {"brownian_sde": lambda: brownian_sde(sphere3, form="ito", diffusion=diffusion),
             "make_stepper": lambda: make_stepper(sphere3, "ito-em", diffusion=diffusion)}
    with pytest.raises(ValueError, match=f"^diffusion must be {message}"):
        build[entry]()


def test_walk_moves_by_fixed_metric_length(sphere3):
    diffusion = 0.7
    stepper = make_stepper(
        sphere3, "geodesic-walk", sde=brownian_sde(sphere3, form="ito", diffusion=diffusion))
    x = sphere3.random_point(RngStream(30, 0))
    h = 1e-4
    z = RngStream(30, 1).normal((64, 3, 1))
    inc = WienerIncrement(raw=z, truncated=z, h=h, r=1.0)
    result = stepper.step(np.broadcast_to(x, (64, 3, 1)), 0.0, h, inc)
    expected = math.sqrt(2.0 * diffusion * h * sphere3.dim)
    dist = np.arccos(np.clip(np.sum(result.state * x, axis=(-2, -1)), -1.0, 1.0))
    assert float(np.max(np.abs(dist - expected))) < 1e-3 * expected


def test_walk_direction_uniform_on_tangent_circle(sphere3):
    # chi-square on 12 angular bins, 10^4 draws; dof 11, alpha = 0.001
    sde = brownian_sde(sphere3, form="ito", diffusion=0.5)
    x = np.array([[1.0], [0.0], [0.0]])
    z = RngStream(31, 0).normal((10_000, 3, 1))
    u = sde.sigma(x, z, 0.0)
    angles = np.arctan2(u[:, 2, 0], u[:, 1, 0])
    counts, _ = np.histogram(angles, bins=12, range=(-math.pi, math.pi))
    expected = 10_000 / 12.0
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    assert chi2 < 31.264


# ---------------------------------------------------------------------------
# stepper construction


def test_make_stepper_rejects_unknown_id(sphere3):
    with pytest.raises(IntegratorParameterError, match="ito-em"):
        make_stepper(sphere3, "milstein")


def test_make_stepper_rejects_form_mismatch(sphere3):
    strat = brownian_sde(sphere3, form="stratonovich")
    with pytest.raises(IntegratorParameterError, match="ito"):
        make_stepper(sphere3, "ito-em", sde=strat)


@pytest.mark.parametrize("integrator", ["ito-em", "strat-heun", "rk4-geodesic"])
def test_make_stepper_refuses_a_retraction_it_would_not_read(sphere3, integrator):
    with pytest.raises(IntegratorParameterError,
                       match=f"{integrator} takes no retraction; only geodesic-walk, "
                             "retractive-em do"):
        make_stepper(sphere3, integrator, retraction=second_order_retraction(sphere3))


def test_walk_requires_generator_scale(sphere3):
    sde = brownian_sde(sphere3, form="ito")
    anonymous = SdeSpec(
        form="ito", drift=sde.drift, sigma=sde.sigma,
        noise_shape=sde.noise_shape, diffusion=None)
    with pytest.raises(IntegratorParameterError, match="generator scale"):
        make_stepper(sphere3, "geodesic-walk", sde=anonymous)


def test_truncation_usage_flags(sphere3):
    expected = {
        "ito-em": True,
        "strat-heun": True,
        "retractive-em": True,
        "geodesic-walk": False,
        "rk4-geodesic": False,
    }
    for integrator_id, flag in expected.items():
        assert make_stepper(sphere3, integrator_id).uses_truncation is flag


@pytest.mark.parametrize("integrator_id", INTEGRATOR_IDS)
def test_stepper_reads_the_increment_its_flag_names(so3, integrator_id):
    # the harness passes truncated = raw to the walks, so only a step test
    # can tell which field a scheme reads: the other one is NaN here
    stepper = make_stepper(so3, integrator_id)
    rng = RngStream(48, 0)
    x = np.stack([so3.random_point(rng) for _ in range(4)])
    z = rng.normal((4,) + stepper.noise_shape)
    nan = np.full_like(z, np.nan)
    if stepper.uses_truncation:
        inc = WienerIncrement(raw=nan, truncated=z, h=0.01, r=1.0)
    else:
        inc = WienerIncrement(raw=z, truncated=nan, h=0.01, r=1.0)
    assert stepper.step(x, 0.0, 0.01, inc).ok.all()


# ---------------------------------------------------------------------------
# retraction-adjusted drift


@pytest.mark.parametrize("name,build", SPOT_BATTERY, ids=SPOT_IDS)
def test_adjusted_drift_vanishes_for_second_order_retraction(name, build):
    handle = build()
    x = handle.random_point(RngStream(32, 0))
    sde = brownian_sde(handle, form="ito")
    mu_r = mu_retraction_adjusted(sde, second_order_retraction(handle), x, 0.0)
    assert frobenius_norm(mu_r) < 1e-12


# the battery plus a handle whose tubular map is not the orthogonal projection
FIRST_ORDER_BATTERY = GEOMETRY_BATTERY + [
    ("hypersurface-3-p4", lambda: make_hypersurface(n=3, p=4)),
]
FIRST_ORDER_IDS = [name for name, _ in FIRST_ORDER_BATTERY]


@pytest.mark.parametrize("name,build", FIRST_ORDER_BATTERY, ids=FIRST_ORDER_IDS)
def test_adjusted_drift_is_tangent_for_naive_retraction(name, build):
    handle = build()
    x = handle.random_point(RngStream(33, 0))
    sde = brownian_sde(handle, form="ito")
    mu_r = mu_retraction_adjusted(sde, first_order_retraction(handle), x, 0.0)
    assert frobenius_norm(mu_r - handle.project(x, mu_r)) < 1e-12


def test_sphere_rescaling_needs_no_adjustment(sphere3):
    x = sphere3.random_point(RngStream(34, 0))
    sde = brownian_sde(sphere3, form="ito", diffusion=0.4)
    mu_r = mu_retraction_adjusted(sde, second_order_retraction(sphere3), x, 0.0)
    assert frobenius_norm(mu_r) < 1e-12


def test_hypersurface_rescale_adjustment_formula():
    # r(x, v) = rescale(x + v) on sum_i d_i x_i^p = 1:
    # mu_r = mu + (p - 1)/2 * sum_j sum_i d_i x_i^{p-2} (sigma w_j)_i^2 * x
    p = 4
    handle = make_hypersurface(n=3, p=p)
    x = handle.random_point(RngStream(35, 0))
    sde = brownian_sde(handle, form="ito")
    mu_r = mu_retraction_adjusted(sde, first_order_retraction(handle), x, 0.0)

    basis = np.eye(3).reshape(3, 3, 1)
    fields = sde.sigma(x, basis, 0.0)
    d = np.asarray(handle.params["d"]).reshape(3, 1)
    coef = 0.5 * (p - 1) * np.sum(d * x ** (p - 2) * fields**2)
    expected = sde.drift(x, 0.0) + coef * x
    assert frobenius_norm(mu_r - expected) < 1e-12
    assert frobenius_norm(mu_r - handle.project(x, mu_r)) < 1e-12
    assert frobenius_norm(mu_r) > 1e-3  # the adjustment is genuinely nonzero


def _fd_second_derivative(retraction, x, v):
    """r''(x)[v, v] by the central second difference of ``retract`` alone."""
    return retraction_second_derivative(TangentRetraction(retract=retraction.retract), x, v)


@pytest.mark.parametrize("name,build", FIRST_ORDER_BATTERY, ids=FIRST_ORDER_IDS)
def test_first_order_second_derivative_matches_its_finite_difference(name, build):
    # r''(x)[v, v] = pi'(x) Gamma(x; v, v) - Gamma(x; v, v) for r = pi(x + v)
    handle = build()
    rng = RngStream(36, 0)
    x = handle.random_point(rng)
    v = handle.random_tangent(rng, x)
    r = first_order_retraction(handle)
    assert frobenius_norm(r.second_derivative(x, v) - _fd_second_derivative(r, x, v)) < 1e-5


@pytest.mark.parametrize("name,build", FIRST_ORDER_BATTERY, ids=FIRST_ORDER_IDS)
def test_first_order_adjusted_drift_is_the_tubular_differential_of_the_drift(name, build):
    # mu - 1/2 sum_j (pi' Gamma_j - Gamma_j) = pi'(x) mu, since sum_j Gamma_j = -2 mu
    handle = build()
    x = handle.random_point(RngStream(37, 0))
    sde = brownian_sde(handle, form="ito", diffusion=0.4)
    mu_r = mu_retraction_adjusted(sde, first_order_retraction(handle), x, 0.0)
    expected = handle.tubular.differential(x, sde.drift(x, 0.0))
    assert frobenius_norm(mu_r - expected) < 1e-12


# ---------------------------------------------------------------------------
# skipping the vanishing adjustment; one Gamma(x; v, v) per retraction step


def _one_step(stepper, handle, seed, batch=4, h=0.01):
    rng = RngStream(seed, 0)
    x = np.stack([handle.random_point(rng) for _ in range(batch)])
    inc = truncated_increment(rng, (batch,) + stepper.noise_shape, h)
    return stepper.step(x, 0.0, h, inc)


@pytest.fixture
def adjust_calls(monkeypatch):
    calls = []
    real = integrators.mu_retraction_adjusted

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(integrators, "mu_retraction_adjusted", counted)
    return calls


@pytest.mark.parametrize("family,params", [("so", {"N": 3}), ("sphere", {"n": 3})])
def test_retractive_em_skips_vanishing_adjustment(adjust_calls, family, params):
    handle = make_manifold(family, **params)
    _one_step(make_stepper(handle, "retractive-em"), handle, 40)
    assert len(adjust_calls) == 0


def _first_order_so3():
    handle = make_manifold("so", N=3)
    return handle, {"retraction": first_order_retraction(handle)}


def _rescale_hypersurface():
    handle = make_hypersurface(n=3, p=4)
    return handle, {"retraction": first_order_retraction(handle)}


def _non_brownian_so3():
    handle = make_manifold("so", N=3)
    sde = dataclasses.replace(brownian_sde(handle, form="ito"), diffusion=None)
    return handle, {"sde": sde}


@pytest.mark.parametrize("build", [_first_order_so3, _rescale_hypersurface, _non_brownian_so3],
                         ids=["first-order", "hypersurface-rescale", "diffusion-none"])
def test_retractive_em_keeps_adjustment_otherwise(adjust_calls, build):
    handle, kwargs = build()
    _one_step(make_stepper(handle, "retractive-em", **kwargs), handle, 41)
    assert len(adjust_calls) >= 1


@pytest.mark.parametrize("family,params,closed_form",
                         [("so", {"N": 3}, True), ("sphere", {"n": 3}, False)],
                         ids=["so-3-closed-form", "sphere-3-rk4"])
def test_exponential_retraction_is_second_order(adjust_calls, family, params, closed_form):
    handle = make_manifold(family, **params)
    assert (handle.exponential is not None) == closed_form
    rng = RngStream(38, 0)
    x = handle.random_point(rng)
    v = handle.random_tangent(rng, x)
    r = integrators.exponential_retraction(handle)
    assert r.second_order
    np.testing.assert_array_equal(r.second_derivative(x, v), -handle.christoffel(x, v, v))
    assert frobenius_norm(r.second_derivative(x, v) - _fd_second_derivative(r, x, v)) < 1e-5
    _one_step(make_stepper(handle, "retractive-em", retraction=r), handle, 39)
    assert len(adjust_calls) == 0


@pytest.mark.parametrize("name,build", SPOT_BATTERY, ids=SPOT_IDS)
def test_skipped_adjustment_matches_adjusted_step(name, build):
    handle = build()
    sde = brownian_sde(handle, form="ito")
    undeclared = dataclasses.replace(sde, diffusion=None)  # forces the adjusted path
    skipped = _one_step(make_stepper(handle, "retractive-em", sde=sde), handle, 42, batch=8)
    adjusted = _one_step(make_stepper(handle, "retractive-em", sde=undeclared), handle, 42,
                         batch=8)
    np.testing.assert_array_equal(skipped.ok, adjusted.ok)
    assert np.max(frobenius_norm(skipped.state - adjusted.state)) < 1e-12


@pytest.mark.parametrize("integrator_id", ["retractive-em", "geodesic-walk"])
@pytest.mark.parametrize("name,build", SPOT_BATTERY, ids=SPOT_IDS)
def test_one_christoffel_call_per_retraction_step(name, build, integrator_id):
    handle = build()
    calls = []

    def christoffel(x, u, v):
        calls.append(1)
        return handle.christoffel(x, u, v)

    counted = dataclasses.replace(handle, christoffel=christoffel)
    _one_step(make_stepper(counted, integrator_id), counted, 43)
    assert len(calls) == 1


@pytest.mark.parametrize("family,params", [("so", {"N": 3}), ("stiefel", {"n": 5, "p": 3})],
                         ids=["so", "stiefel"])
def test_polar_retraction_factors_each_proposal_once(family, params):
    handle, calls = counted_tubular(make_manifold(family, **params))
    rng = RngStream(44, 0)
    x = np.stack([handle.random_point(rng) for _ in range(16)])
    q = x + 0.1 * rng.normal(x.shape)
    _, ok = handle.tubular.retract(q, x)
    assert ok.all()
    assert calls == {"mapping": 1, "domain": 0}
    q[3] = np.nan  # one rejected row: left at x, with no second call
    state, ok = handle.tubular.retract(q, x)
    assert not ok[3]
    np.testing.assert_array_equal(state[3], x[3])
    assert calls == {"mapping": 2, "domain": 0}


def test_first_order_retractive_em_step_skips_domain_test():
    # the step factors its proposal once; the drift adjustment reads the
    # closed-form second derivative and maps nothing
    handle, calls = counted_tubular(make_manifold("so", N=3))
    stepper = make_stepper(handle, "retractive-em",
                           retraction=first_order_retraction(handle))
    _one_step(stepper, handle, 45)
    assert calls == {"mapping": 1, "domain": 0}


@pytest.mark.parametrize("name,build", GEOMETRY_BATTERY, ids=IDS)
def test_strat_heun_maps_only_the_proposal(name, build):
    # the predictor is an ambient point: no domain test, no map of its own
    handle, calls = counted_tubular(build())
    _one_step(make_stepper(handle, "strat-heun"), handle, 54, batch=8)
    assert calls == {"mapping": 1, "domain": 0}


def _heun_predictors(handle, stepper, seed, batch, h):
    """Base points, an increment at step h, and the Heun predictors
    x + sqrt(h) sigma(x) zeta of that increment."""
    rng = RngStream(seed, 0)
    x = np.stack([handle.random_point(rng) for _ in range(batch)])
    inc = truncated_increment(rng, (batch,) + stepper.noise_shape, h)
    sde = brownian_sde(handle, form="stratonovich")
    return x, inc, x + math.sqrt(h) * sde.sigma(x, inc.truncated, 0.0)


def test_strat_heun_accepts_a_proposal_whose_predictor_left_the_domain():
    # on aff(3) sigma is x (.), smooth on all of E: a predictor with
    # det <= 1e-12 is still a point to evaluate it at
    handle = make_manifold("aff", N=3)
    stepper = make_stepper(handle, "strat-heun")
    x, inc, pred = _heun_predictors(handle, stepper, 53, 256, 0.3)
    outside = np.linalg.det(pred[:, :3, :3]) <= 1e-12
    assert outside.any()
    out = stepper.step(x, 0.0, 0.3, inc)
    assert out.ok[outside].all()
    assert handle.on_manifold(out.state[outside]).all()


def test_strat_heun_rejects_an_indefinite_spd_predictor_through_its_proposal():
    # sigma is evaluated at every predictor as it stands; at an indefinite
    # one it is NaN, so the proposal is rejected and the row stays at x
    handle = make_manifold("spd", N=3)
    seen = []

    def sigma(x, w):
        seen.append(np.array(x, copy=True))
        return handle.sigma(x, w)

    counted = dataclasses.replace(handle, sigma=sigma)
    stepper = make_stepper(counted, "strat-heun")
    x, inc, pred = _heun_predictors(handle, stepper, 53, 256, 0.2)
    indefinite = np.linalg.eigvalsh(pred)[:, 0] < 0.0
    assert indefinite.any()
    seen.clear()
    out = stepper.step(x, 0.0, 0.2, inc)
    assert len(seen) == 2
    np.testing.assert_array_equal(seen[1], pred)
    assert not out.ok[indefinite].any()
    assert out.state[indefinite].tobytes() == x[indefinite].tobytes()


@pytest.mark.parametrize("integrator", ["ito-em", "strat-heun"])
def test_spd_step_factors_each_point_once(monkeypatch, integrator):
    # sigma and the Stratonovich drift take near-identity rows from their
    # eigenvalues in closed form, and the domain test certifies them, so
    # neither calls eigh or eigvalsh
    calls = count_linalg(monkeypatch, "eigh", "eigvalsh")
    handle = make_manifold("spd", N=3)
    stepper = make_stepper(handle, integrator)
    rng = RngStream(46, 0)
    x = np.eye(3) + 0.01 * sym(rng.normal((64, 3, 3)))
    out = stepper.step(x, 0.0, 0.01, truncated_increment(rng, (64, 3, 3), 0.01))
    assert out.ok.all()
    assert calls == {"eigh": 0, "eigvalsh": 0}


# x^{-1} per step on so(N): metric, christoffel and the retraction's
# differential share the inverse of x, and rk4-geodesic's closed-form
# exponential needs none beyond the metric's.  sigma is tangent without a
# projection, so the projected Euler and Heun steps invert nothing.
@pytest.mark.parametrize("integrator_id,first,then", [
    ("ito-em", 0, 0), ("strat-heun", 0, 0), ("geodesic-walk", 1, 1),
    ("retractive-em", 1, 1), ("rk4-geodesic", 1, 1),
])
@pytest.mark.parametrize("N", [3, 8])
def test_group_step_inverts_each_point_once(monkeypatch, N, integrator_id, first, then):
    handle = make_manifold("so", N=N)
    stepper = make_stepper(handle, integrator_id)
    rng = RngStream(47, 0)
    x = np.stack([handle.random_point(rng) for _ in range(16)])
    incs = [truncated_increment(rng, (16,) + stepper.noise_shape, 0.01) for _ in range(2)]
    # patched after the handle is built
    calls = count_linalg(monkeypatch, "so_inv", module=linalg)
    lapack = record_inv(monkeypatch)
    out = stepper.step(x, 0.0, 0.01, incs[0])
    assert out.ok.all()
    assert calls["so_inv"] == first
    out = stepper.step(out.state, 0.01, 0.01, incs[1])
    assert out.ok.all()
    assert calls["so_inv"] == first + then
    # every so(3) row and every accepted so(8) point is certified
    assert lapack == []


# one factor per point per step on spd: sigma, metric, christoffel and the
# closed-form exponential share it, and x^{-1} comes from it; nothing
# inverts or solves
@pytest.mark.parametrize("integrator_id,per_step", [
    ("geodesic-walk", 1), ("retractive-em", 1), ("rk4-geodesic", 1),
])
def test_spd_step_inverts_each_point_once(monkeypatch, integrator_id, per_step):
    seen = []
    real = spd._sqrt_factor

    def recording(x):
        seen.append(np.array(x, copy=True))
        return real(x)

    # patched before the handle is built, which wraps it in reuse_last
    monkeypatch.setattr(spd, "_sqrt_factor", recording)
    handle = make_manifold("spd", N=3)
    stepper = make_stepper(handle, integrator_id)
    rng = RngStream(52, 0)
    x = np.stack([handle.random_point(rng) for _ in range(16)])
    incs = [truncated_increment(rng, (16,) + stepper.noise_shape, 0.01) for _ in range(2)]
    calls = count_linalg(monkeypatch, "inv", "solve")
    out = stepper.step(x, 0.0, 0.01, incs[0])
    assert out.ok.all()
    assert len(seen) == per_step
    out = stepper.step(out.state, 0.01, 0.01, incs[1])
    assert out.ok.all()
    assert len(seen) == 2 * per_step
    assert calls == {"inv": 0, "solve": 0}
    # no point is factored twice
    assert len({a.tobytes() for a in seen}) == len(seen)


def _recording_lapack(monkeypatch):
    """Patch the LAPACK routines an spd step could reach to record the
    shape of each argument; returns the live list of (name, shape)."""
    seen = []
    for name in ("inv", "solve", "eigh", "eigvalsh"):
        def recording(a, *args, real=getattr(np.linalg, name), name=name, **kwargs):
            seen.append((name, np.shape(a)))
            return real(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, recording)
    return seen


@pytest.mark.parametrize("integrator_id", INTEGRATOR_IDS)
def test_spd3_step_reaches_lapack_only_on_an_uncertified_row(monkeypatch, integrator_id):
    # certified points (cond < 4) and walk moves of spread inside the
    # exponential's margin: sigma, the drifts, x^{-1}, exp and the domain
    # test all take their closed forms.  One point of cond 100 takes eigh
    # for its factor (and its Heun predictor's) alone.
    handle = make_manifold("spd", N=3)
    stepper = make_stepper(handle, integrator_id)
    rng = RngStream(55, 0)

    def certified():
        q, _ = np.linalg.qr(rng.normal((3, 3)))
        return sym(q @ np.diag(4.0 ** rng.uniform(3)) @ q.T)

    x = np.stack([certified() for _ in range(16)])
    inc = truncated_increment(rng, (16,) + stepper.noise_shape, 0.01)
    seen = _recording_lapack(monkeypatch)
    out = stepper.step(x, 0.0, 0.01, inc)
    assert out.ok.all()
    assert seen == []
    q, _ = np.linalg.qr(rng.normal((3, 3)))
    x[9] = sym(q @ np.diag([1.0, 3.0, 100.0]) @ q.T)
    mixed = stepper.step(x, 0.0, 0.01, inc)
    assert mixed.ok.all()
    assert seen and all(name == "eigh" and shape == (1, 3, 3) for name, shape in seen)
    np.testing.assert_array_equal(np.delete(mixed.state, 9, axis=0),
                                  np.delete(out.state, 9, axis=0))


@pytest.mark.parametrize("integrator_id", ["ito-em", "strat-heun"])
@pytest.mark.parametrize("family,params", [
    ("so", {"N": 3}), ("so", {"N": 8}), ("stiefel", {"n": 5, "p": 3}),
    ("stiefel", {"n": 5, "p": 3, "alpha0": 1.0, "alpha1": 0.5}),
], ids=["so-3", "so-8", "stiefel-5-3", "stiefel-5-3-canonical"])
def test_brownian_projected_step_does_not_project_sigma(family, params, integrator_id):
    # sigma is tangent-valued: the Euler and Heun steps of a Brownian SDE
    # never call the handle's projection
    calls = {"project": 0}
    handle = make_manifold(family, **params)

    def counted(x, w):
        calls["project"] += 1
        return handle.project(x, w)

    stepper = make_stepper(dataclasses.replace(handle, project=counted), integrator_id)
    rng = RngStream(51, 0)
    x = np.stack([handle.random_point(rng) for _ in range(16)])
    out = stepper.step(x, 0.0, 0.01, truncated_increment(rng, (16,) + stepper.noise_shape, 0.01))
    assert out.ok.all()
    assert calls == {"project": 0}


@pytest.mark.parametrize("family,params", [("so", {"N": 3}), ("stiefel", {"n": 5, "p": 3})],
                         ids=["so", "stiefel"])
def test_strat_heun_predictor_domain_test_needs_no_factorisation(monkeypatch, family, params):
    # the predictor's near-orthonormal rows pass the Gram certificate
    handle = make_manifold(family, **params)
    stepper = make_stepper(handle, "strat-heun")
    rng = RngStream(48, 0)
    x = np.stack([handle.random_point(rng) for _ in range(64)])
    inc = truncated_increment(rng, (64,) + stepper.noise_shape, 0.01)
    calls = count_linalg(monkeypatch, "eigvalsh", "svd")
    out = stepper.step(x, 0.0, 0.01, inc)
    assert out.ok.all()
    assert calls == {"eigvalsh": 0, "svd": 0}


@pytest.mark.parametrize("integrator_id", ["ito-em", "strat-heun", "retractive-em"])
@pytest.mark.parametrize("family,params", [
    ("so", {"N": 3}), ("so", {"N": 8}), ("se", {"N": 3}), ("stiefel", {"n": 5, "p": 3}),
    ("grassmann", {"n": 5, "p": 2}),
], ids=["so-3", "so-8", "se-3", "stiefel-5-3", "grassmann-5-2"])
def test_polar_step_makes_no_factorisation(monkeypatch, family, params, integrator_id):
    # the proposals pass the Gram certificate and take Newton-Schulz steps
    handle = make_manifold(family, **params)
    stepper = make_stepper(handle, integrator_id)
    rng = RngStream(50, 0)
    x = np.stack([handle.random_point(rng) for _ in range(64)])
    inc = truncated_increment(rng, (64,) + stepper.noise_shape, 0.01)
    calls = count_linalg(monkeypatch, "eigh", "eigvalsh", "svd")
    out = stepper.step(x, 0.0, 0.01, inc)
    assert out.ok.all()
    assert calls == {"eigh": 0, "eigvalsh": 0, "svd": 0}


def test_group_inverse_follows_its_input_bits(monkeypatch):
    handle = make_manifold("so", N=3)
    rng = RngStream(49, 0)
    x = np.stack([handle.random_point(rng) for _ in range(4)])
    w = rng.normal(x.shape)
    calls = count_linalg(monkeypatch, "so_inv", module=linalg)
    handle.project(x, w)
    handle.project(x.copy(), w)  # same bits, another array: reused
    assert calls["so_inv"] == 1
    x[1] = handle.random_point(rng)  # the same array, written in place
    np.testing.assert_array_equal(handle.project(x, w), x @ skew(linalg.so_inv(x) @ w))
    assert calls["so_inv"] == 3  # the handle's miss plus the reference
    # -0.0 == 0.0, but a factorisation may tell them apart: a miss
    eye = np.eye(3)
    handle.project(eye, w)
    eye[0, 1] = -0.0
    handle.project(eye, w)
    assert calls["so_inv"] == 5


def test_stiefel_polar_retraction_closed_form():
    # polar_orth(Y + v - ((a0 - a1)/a0) (v - Y Y^T v) v^T Y) agrees with the
    # curvature-corrected retraction to third order in the step
    for alpha1 in (0.5, 1.0):
        handle = make_manifold("stiefel", n=5, p=3, alpha0=1.0, alpha1=alpha1)
        rng = RngStream(36, 0)
        y = handle.random_point(rng)
        xi = handle.random_tangent(rng, y)
        v = 1e-3 * xi / frobenius_norm(xi)
        closed = polar_orth(y + v - (1.0 - alpha1) * (v - y @ (mT(y) @ v)) @ (mT(v) @ y))
        generic, _ = second_order_retraction(handle).retract(y, v)
        assert frobenius_norm(closed - generic) < 1e-7
