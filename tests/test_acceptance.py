"""End-to-end acceptance runs, one test per criterion.

Under ``pytest -v`` every criterion reports exactly one pass/fail line.
Tolerances appear as literals next to the quantities they bound.  The
heavier Monte Carlo criteria (4, 5, 6, 8) take a few minutes combined.
"""

import numpy as np
import pytest

from batteries import GEOMETRY_BATTERY
from manifold_sde import (
    SimulationConfig,
    brownian_sde,
    brownian_soo,
    check_metric_compatibility,
    check_projection,
    compare_methods,
    heat_expectation_s2,
    heat_expectation_s3,
    laplace_beltrami,
    laplacian_frame_oracle,
    make_cost,
    make_manifold,
    mu_retraction_adjusted,
    second_order_retraction,
    simulate,
    soo_residual,
)
from manifold_sde.geometry import TangentRetraction, brownian_ito_drift, retraction_second_derivative
from manifold_sde.linalg import frobenius_norm
from manifold_sde.rng import RngStream


def test_criterion_1_geometry_suite():
    """Projection, Christoffel, metric, diffusion-pair and drift checks at
    10 random points on every family in the battery."""
    for name, build in GEOMETRY_BATTERY:
        handle = build()
        rng = RngStream(1001, 0)
        for _ in range(10):
            x = handle.random_point(rng)

            report = check_projection(handle, x, trials=10, rng=rng)
            assert report.max_idempotency < 1e-9, (name, "projection idempotency")
            assert report.max_asymmetry < 1e-9, (name, "projection self-adjointness")

            xi = handle.random_tangent(rng, x)
            eta = handle.random_tangent(rng, x)
            gamma_sym = frobenius_norm(
                handle.christoffel(x, xi, eta) - handle.christoffel(x, eta, xi))
            assert gamma_sym < 1e-10, (name, "christoffel symmetry")

            compat = check_metric_compatibility(handle, x, trials=10, rng=rng)
            assert compat < 1e-5, (name, "metric compatibility")

            assert soo_residual(handle, x, brownian_soo(handle, x)) < 1e-8, (
                name, "second-order tangency")

            drift_gap = frobenius_norm(handle.ito_drift(x) - brownian_ito_drift(handle, x))
            assert drift_gap < 1e-9, (name, "closed-form vs generic drift")


def test_criterion_2_drift_constants():
    """Closed-form Brownian drift coefficients, and vanishing Stratonovich
    drift on the unimodular families."""
    coefficient_cases = [
        (make_manifold("so", N=3), -0.5),
        (make_manifold("sl", N=3), 1.0 / 3.0),
        (make_manifold("gl+", N=2), 0.5),
        (make_manifold("spd", N=3), 1.0),
        (make_manifold("stiefel", n=5, p=3, alpha0=1.0, alpha1=1.0), -1.5),
        (make_manifold("grassmann", n=5, p=3), -1.0),
    ]
    for handle, coeff in coefficient_cases:
        for k in range(5):
            x = handle.random_point(RngStream(1002, k))
            gap = frobenius_norm(handle.ito_drift(x) - coeff * x)
            assert gap < 1e-14, (handle.name, coeff)

    for handle in (
        make_manifold("so", N=3),
        make_manifold("sl", N=3),
        make_manifold("se", N=3),
        make_manifold("gl+", N=2),
        make_manifold("grassmann", n=5, p=3),
    ):
        x = handle.random_point(RngStream(1003, 0))
        assert frobenius_norm(handle.strat_drift(x)) < 1e-10, handle.name


def test_criterion_3_laplacian_cross_check():
    """laplace_beltrami against the frame-based evaluation on 5 random
    quadratic costs per family."""
    for name, build in GEOMETRY_BATTERY:
        handle = build()
        rng = RngStream(1004, 0)
        x = handle.random_point(rng)
        for _ in range(5):
            b = rng.normal(handle.shape)

            def ehess(v, b=b):
                return 2.0 * np.sum(b * v, axis=(-2, -1))[..., None, None] * b

            egrad = 2.0 * float(np.sum(b * x)) * b
            main = laplace_beltrami(handle, x, egrad, ehess)
            frame = laplacian_frame_oracle(handle, x, egrad, ehess)
            rel = abs(main - frame) / max(1.0, abs(main))
            assert rel < 1e-6, (name, main, frame)


def test_criterion_4_heat_kernel_reproduction():
    """Spectral-series references and Monte Carlo agreement for spheres:
    1000 paths x 1000 divisions, generator scale 0.4, radius 3, T = 2."""
    s2 = make_manifold("sphere", n=3, radius=3.0)
    oracle_s2 = heat_expectation_s2(lambda p: p**2.5, T=2.0, diffusion=0.4, radius=3.0)
    assert abs(oracle_s2 - 0.299) < 5e-4, oracle_s2

    cfg = SimulationConfig(T=2.0, n_div=1000, n_path=1000, seed=2024, diffusion=0.4)
    mean_s2 = simulate(cfg, s2, cost=make_cost("phi_5_2", s2)).mean
    assert 0.27 <= mean_s2 <= 0.31, mean_s2

    s3 = make_manifold("sphere", n=4, radius=3.0)
    oracle_s3 = heat_expectation_s3(lambda p: p**1.5 + p**2.5, T=2.0, diffusion=0.4, radius=3.0)
    assert abs(oracle_s3 - 1.02) <= 0.01, oracle_s3
    mean_s3 = simulate(cfg, s3, cost=make_cost("phi_32_52", s3)).mean
    assert 1.00 <= mean_s3 <= 1.10, mean_s3


def test_criterion_5_uniform_limit_reproduction():
    """Long-run means (T = 40, 1000 paths x 700 divisions) against the
    closed-form uniform values on the compact families."""
    cfg = SimulationConfig(T=40.0, n_div=700, n_path=1000, seed=17)
    runs = [
        (make_manifold("so", N=3), "sum_abs", 4.500, 0.10),
        (make_manifold("sphere", n=5), "abs11", 0.200, 0.015),
        (make_manifold("stiefel", n=5, p=3, alpha0=1.0, alpha1=0.8), "sum_abs", 5.625, 0.10),
        (make_manifold("grassmann", n=5, p=3), "sum_abs", 6.39, 0.15),
    ]
    for handle, cost_id, target, tol in runs:
        mean = simulate(cfg, handle, cost=make_cost(cost_id, handle)).mean
        assert abs(mean - target) <= tol, (handle.name, cost_id, mean, target)


@pytest.fixture(scope="module")
def cross_scheme_tables():
    cfg = SimulationConfig(T=0.5, n_div=700, n_path=1000, seed=7)
    jobs = {
        "so3": (make_manifold("so", N=3), "sum_abs"),
        "spd3": (make_manifold("spd", N=3), "spd_running"),
        "st53": (make_manifold("stiefel", n=5, p=3, alpha0=1.0, alpha1=1.0), "sum_abs"),
    }
    tables = {}
    for key, (handle, cost_id) in jobs.items():
        tables[key] = compare_methods(
            cfg, handle, make_cost(cost_id, handle), n_divs=(700,))
    return tables


def test_criterion_6_cross_scheme_agreement(cross_scheme_tables):
    """All four stepping schemes agree pairwise within three combined
    standard errors at T = 0.5, 1000 paths x 700 divisions."""
    for key, table in cross_scheme_tables.items():
        assert len(table.cells) == 4
        assert table.consistent, (
            key, table.worst_pair, table.worst_gap, table.worst_allowance)


def test_criterion_6_spd_with_intermediate_cost_value(cross_scheme_tables):
    """Running-plus-terminal functional on the positive-definite cone at
    T = 0.5 against its closed form 2 e^{1/2} - 1 ~= 2.2974.

    The accumulated quantity is E[int_0^T max(X_11, 0) ds + |X_11(T)|],
    with the running part integrated over [0, T] (not averaged).  X_11 > 0
    on the cone, so max(X_11, 0) = |X_11| = X_11, and the SPD Brownian
    drift is exactly +x (criterion 2), so E[X_11(t)] = e^t from X(0) = I.
    Hence the expectation is (e^{1/2} - 1) + e^{1/2} = 2 e^{1/2} - 1.

    Tolerance: four standard errors, plus 0.01 for the Euler discretisation
    bias at n_div = 700 (about -0.04 measured at n_div = 50, O(h) scaling
    gives about 0.003 here).  A former reference band of 1.30 +- 0.03 lay
    below this functional's lower bound of 1.5, which holds for every
    positive drift scale, so no correct program could meet it.
    """
    cell = cross_scheme_tables["spd3"].cell("ito-em", 700)
    reference = 2 * np.e**0.5 - 1
    z = (cell.mean - reference) / cell.stderr
    assert abs(cell.mean - reference) <= 4 * cell.stderr + 0.01, (
        f"measured {cell.mean:.4f} (stderr {cell.stderr:.4f}, z = {z:+.2f}) "
        f"against the closed form 2e^(1/2) - 1 = {reference:.4f}"
    )


def test_criterion_7_retraction_suite():
    """Second-derivative correctness of the curvature-corrected retraction,
    tangency of the adjusted drift, and exact cancellation for the sphere
    rescaling."""
    for name, build in GEOMETRY_BATTERY:
        handle = build()
        rng = RngStream(1005, 0)
        x = handle.random_point(rng)
        v = handle.random_tangent(rng, x)

        ret = second_order_retraction(handle)
        blind = TangentRetraction(retract=ret.retract)
        fd_gap = frobenius_norm(
            retraction_second_derivative(blind, x, v) + handle.christoffel(x, v, v))
        assert fd_gap < 1e-5, (name, "retraction second derivative")

        sde = brownian_sde(handle, form="ito")
        mu_r = mu_retraction_adjusted(sde, ret, x, 0.0)
        if handle.constraints:
            # per component: a sum over a whole block could cancel
            tangency = max(
                float(np.max(np.abs(np.sum(c.grad(x) * mu_r, axis=(-2, -1)))))
                for c in handle.constraints)
        else:
            tangency = float(frobenius_norm(mu_r - handle.project(x, mu_r)))
        assert tangency < 1e-8, (name, "adjusted drift tangency")

    sphere = make_manifold("sphere", n=3)
    x = sphere.random_point(RngStream(1006, 0))
    sde = brownian_sde(sphere, form="ito", diffusion=0.4)
    mu_r = mu_retraction_adjusted(sde, second_order_retraction(sphere), x, 0.0)
    assert frobenius_norm(mu_r) < 1e-12, "sphere rescaling adjustment"


def test_criterion_8_weak_error_refinement():
    """Monotone weak-error refinement against the spectral reference.

    Full convergence-rate estimation (weak order 3/2, mean-square order 1)
    and exact long-run tables for the non-compact families are excluded at
    this scale; the check here is that refining 100 -> 400 divisions
    shrinks the weak error of the sphere run at 10^5 paths.
    """
    sphere = make_manifold("sphere", n=3, radius=3.0)
    cost = make_cost("phi_5_2", sphere)
    reference = heat_expectation_s2(lambda p: p**2.5, T=2.0, diffusion=0.4, radius=3.0)
    errors = {}
    for n_div in (100, 400):
        cfg = SimulationConfig(T=2.0, n_div=n_div, n_path=100_000, seed=29,
                               diffusion=0.4, path_chunk=25_000)
        errors[n_div] = simulate(cfg, sphere, cost=cost).mean - reference
    assert abs(errors[100]) > abs(errors[400]), errors
