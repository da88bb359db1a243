import numpy as np
import pytest

from manifold_sde import COST_IDS, make_cost, make_manifold
from manifold_sde.costs import sphere_angle


@pytest.fixture(scope="module")
def sphere3():
    return make_manifold("sphere", n=3, radius=3.0)


def test_registry_lists_every_id(sphere3):
    # every id builds on the 2-sphere but the two defined off spheres only
    where = {"log_det_sq": make_manifold("spd", N=3),
             "log_height_sq": make_manifold("hyperbolic", n=3)}
    assert len(COST_IDS) == 9
    for cost_id in COST_IDS:
        cost = make_cost(cost_id, where.get(cost_id, sphere3))
        assert cost.name == cost_id


def test_unknown_id_error_names_the_alternatives(sphere3):
    with pytest.raises(ValueError, match="sum_abs"):
        make_cost("energy", sphere3)


def test_angle_costs_are_sphere_only():
    so3 = make_manifold("so", N=3)
    with pytest.raises(ValueError, match="sphere"):
        make_cost("phi_5_2", so3)
    with pytest.raises(ValueError, match="sphere"):
        make_cost("phi_32_52", so3)


@pytest.mark.parametrize("cost_id,family,params", [
    ("log_det_sq", "so", dict(N=3)),
    ("log_det_sq", "sl", dict(N=3)),
    ("log_det_sq", "hyperbolic", dict(n=3)),
    ("log_height_sq", "spd", dict(N=3)),
    ("log_height_sq", "sphere", dict(n=3)),
])
def test_exact_law_costs_are_rejected_off_their_families(cost_id, family, params):
    with pytest.raises(ValueError, match=f"cost '{cost_id}' is defined on .* only"):
        make_cost(cost_id, make_manifold(family, **params))


def test_exact_law_cost_values():
    x = np.diag([np.e, np.e, 1.0])[None]
    for family in ("spd", "gl+"):
        cost = make_cost("log_det_sq", make_manifold(family, N=3))
        assert cost.running is None and cost.terminal(x, 0.0)[0] == pytest.approx(4.0)
    height = make_cost("log_height_sq", make_manifold("hyperbolic", n=3))
    assert height.terminal(np.array([[[5.0], [-2.0], [np.exp(-3.0)]]]), 0.0)[0] == pytest.approx(9.0)


def test_sphere_angle_handles_radius(sphere3):
    phi = sphere_angle(sphere3, sphere3.default_point())
    x0 = sphere3.default_point()
    assert phi(x0) == 0.0
    assert phi(-x0) == pytest.approx(np.pi)
    # orthogonal point: angle pi/2 regardless of radius
    perp = np.zeros((3, 1))
    perp[1, 0] = 3.0
    assert phi(perp) == pytest.approx(np.pi / 2)


def test_angle_cost_values(sphere3):
    cost = make_cost("phi_32_52", sphere3)
    x0 = sphere3.default_point()
    val = cost.terminal(-x0[None], 2.0)
    assert val[0] == pytest.approx(np.pi**1.5 + np.pi**2.5)
    assert cost.running is None


def test_abs11_is_squared():
    spd = make_manifold("spd", N=3)
    cost = make_cost("abs11", spd)
    x = np.diag([-1.5, 1.0, 1.0])[None]
    assert cost.terminal(x, 0.0)[0] == pytest.approx(2.25)


def test_matrix_sum_costs():
    so3 = make_manifold("so", N=3)
    x = np.eye(3)[None]
    assert make_cost("sum_abs", so3).terminal(x, 0.0)[0] == pytest.approx(3.0)
    assert make_cost("exp_half_sum", so3).terminal(x, 0.0)[0] == pytest.approx(np.exp(1.5))
    assert make_cost("inv_sqrt_sum", so3).terminal(x, 0.0)[0] == pytest.approx(0.5)


def test_spd_running_cost_parts():
    spd = make_manifold("spd", N=3)
    cost = make_cost("spd_running", spd)
    x = np.diag([2.0, 1.0, 1.0])[None]
    assert cost.running(x, 0.3)[0] == pytest.approx(2.0)
    assert cost.terminal(x, 0.5)[0] == pytest.approx(2.0)
    # the running part clips negatives, the terminal part takes magnitude
    y = np.diag([-2.0, 1.0, 1.0])[None]
    assert cost.running(y, 0.3)[0] == 0.0
    assert cost.terminal(y, 0.5)[0] == pytest.approx(2.0)


def test_costs_see_grassmann_points_as_projectors():
    gr = make_manifold("grassmann", n=5, p=3)
    from manifold_sde.rng import RngStream
    y = gr.random_point(RngStream(60, 0))
    pts = gr.functional_point(y[None])
    # projector, not the (n, p) frame
    assert pts.shape == (1, 5, 5)
    np.testing.assert_allclose(pts[0], pts[0].T, atol=1e-12)
    np.testing.assert_allclose(pts[0] @ pts[0], pts[0], atol=1e-12)
    val = make_cost("sum_abs", gr).terminal(pts, 0.0)[0]
    assert val == pytest.approx(float(np.sum(np.abs(y @ y.T))))
