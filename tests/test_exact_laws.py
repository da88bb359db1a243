"""The exact laws of log det on spd and gl+ and of log height on hyperbolic
space, against the geometry that implies them and against simulation."""

import numpy as np
import pytest

from manifold_sde import (
    SimulationConfig,
    compare_methods,
    laplace_beltrami,
    make_cost,
    make_manifold,
    oracles,
)
from manifold_sde.linalg import mT
from manifold_sde.rng import RngStream


def _log_det(x):
    """Ambient gradient of log det at x, and its Hessian acting on directions."""
    inv_t = mT(np.linalg.inv(x))
    return inv_t, lambda v: -inv_t @ mT(v) @ inv_t


def _log_height(x):
    """Ambient gradient of log x_n at x, and its Hessian acting on directions."""
    e_last = np.zeros_like(x)
    e_last[-1, 0] = 1.0
    return e_last / x[-1, 0], lambda v: -v[..., -1:, :] * e_last / x[-1, 0] ** 2


# family, parameters, cost id, the function's ambient derivatives, its
# Laplace-Beltrami value and |grad|^2, constant on the whole manifold
CONSTANT_LAWS = [
    ("spd", dict(N=2), "log_det_sq", _log_det, 0.0, 2.0),
    ("spd", dict(N=3), "log_det_sq", _log_det, 0.0, 3.0),
    ("gl+", dict(N=3), "log_det_sq", _log_det, 0.0, 3.0),
    ("gl+", dict(N=3, metric_seed=4), "log_det_sq", _log_det, 0.0, 2.828251),
    ("hyperbolic", dict(n=2), "log_height_sq", _log_height, -1.0, 1.0),
    ("hyperbolic", dict(n=3), "log_height_sq", _log_height, -2.0, 1.0),
]


@pytest.mark.parametrize("family,params,cost_id,derivatives,laplacian,grad_sq", CONSTANT_LAWS,
                         ids=[f"{row[0]}-{'-'.join(map(str, row[1].values()))}"
                              for row in CONSTANT_LAWS])
def test_exact_law_functions_have_a_constant_laplacian_and_gradient(
        family, params, cost_id, derivatives, laplacian, grad_sq):
    handle = make_manifold(family, **params)
    rng = RngStream(7, 0)
    for _ in range(5):
        x = handle.random_point(rng)
        egrad, ehess = derivatives(x)
        assert laplace_beltrami(handle, x, egrad, ehess) == pytest.approx(laplacian, abs=1e-10)
        norm_sq = float(np.sum(egrad * handle.project(x, handle.metric_inv(x, egrad))))
        assert norm_sq == pytest.approx(grad_sq, abs=1e-6)
    # f(x0) = 0, so f(X_T) ~ N(laplacian c T, 2 c grad_sq T) gives E[f^2]
    T, c = 1.5, 0.3
    want = (laplacian * c * T) ** 2 + 2.0 * c * grad_sq * T
    assert oracles.exact_mean(handle, cost_id, T, c) == pytest.approx(want, rel=1e-6)


@pytest.mark.parametrize("family,params,cost_id", [
    ("so", dict(N=3), "log_det_sq"),
    ("sl", dict(N=3), "log_det_sq"),
    ("spd", dict(N=3), "log_height_sq"),
    ("spd", dict(N=3), "sum_abs"),
    ("hyperbolic", dict(n=3), "sum_abs"),
])
def test_exact_mean_is_none_without_a_closed_form(family, params, cost_id):
    assert oracles.exact_mean(make_manifold(family, **params), cost_id, 1.0, 0.5) is None


@pytest.mark.parametrize("family,params,cost_id", [
    ("spd", dict(N=3), "log_det_sq"),
    ("gl+", dict(N=3, metric_seed=4), "log_det_sq"),
    ("hyperbolic", dict(n=3), "log_height_sq"),
], ids=["spd-3", "gl+-3-seed-4", "hyperbolic-3"])
def test_compare_grid_matches_the_exact_law(family, params, cost_id):
    """Each compared scheme's E[f^2] at T = 1, diffusion 0.5 and h = 1/40
    against its exact value (3, 2.828 and 2), within 4 stderr plus 0.25 for
    the O(h) bias.

    At this h, 4000 paths and seeds 11-13 the biases measured up to -0.215
    (spd strat-heun and retractive-em), +0.249 (spd ito-em) and +0.205
    (hyperbolic ito-em); 4 stderr is 0.15-0.29.  A diffusion 21% off (a
    10% error in sigma) put every family's worst cell 0.29 or more beyond
    4 stderr at those seeds, so outside the band.
    """
    handle = make_manifold(family, **params)
    cfg = SimulationConfig(T=1.0, n_div=40, n_path=4000, seed=11)
    exact = oracles.exact_mean(handle, cost_id, cfg.T, cfg.diffusion)
    table = compare_methods(cfg, handle, make_cost(cost_id, handle), n_divs=(40,),
                            reference=exact)
    assert [row.reference for row in table.rows] == [exact] * 4
    for row in table.rows:
        assert row.gap == abs(row.samples.mean - exact)
        assert row.gap <= 4.0 * row.samples.stderr + 0.25, (row.label, row.samples.mean, exact)
