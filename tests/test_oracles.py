import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from batteries import SPOT_BATTERY, SPOT_IDS
from manifold_sde import (
    HeatKernelParameterError,
    SampleSet,
    heat_expectation_s2,
    heat_expectation_s3,
    heat_kernel_values,
    laplace_beltrami,
    laplacian_frame_oracle,
    make_manifold,
    oracles,
    sample_uniform,
    uniform_cost_estimate,
)
from manifold_sde.linalg import frobenius_norm, mT
from manifold_sde.oracles import QuadratureError
from manifold_sde.rng import RngStream


def phi_52(phi):
    return phi**2.5


def phi_32_52(phi):
    return phi**1.5 + phi**2.5


def sum_abs(pts):
    return np.sum(np.abs(pts), axis=(-2, -1))


# ---------------------------------------------------------------------------
# spectral heat-kernel expectations


def test_s2_reference_value():
    value = heat_expectation_s2(phi_52, T=2.0, diffusion=0.4, radius=3.0)
    assert abs(value - 0.2994138521285984) < 1e-9


def test_s3_reference_value():
    value = heat_expectation_s3(phi_32_52, T=2.0, diffusion=0.4, radius=3.0)
    assert abs(value - 1.0239171515416223) < 1e-9


def test_density_normalization():
    one = lambda phi: np.ones_like(phi)
    assert abs(heat_expectation_s2(one, T=2.0, diffusion=0.4, radius=3.0) - 1.0) < 1e-9
    assert abs(heat_expectation_s3(one, T=2.0, diffusion=0.4, radius=3.0) - 1.0) < 1e-9


def test_long_time_limit_is_uniform_average():
    xg, wg = leggauss(400)
    phi = 0.5 * np.pi * (xg + 1.0)
    w = 0.5 * np.pi * wg
    unif2 = float(np.sum(phi_52(phi) * np.sin(phi) / 2.0 * w))
    unif3 = float(np.sum(phi_32_52(phi) * (2.0 / np.pi) * np.sin(phi) ** 2 * w))
    assert abs(heat_expectation_s2(phi_52, T=1e4) - unif2) < 1e-8
    assert abs(heat_expectation_s3(phi_32_52, T=1e4) - unif3) < 1e-8


@pytest.mark.parametrize("kwargs", [
    dict(T=1e-4, diffusion=0.5),   # tau = 5e-5, below the series floor
    dict(T=0.0),
    dict(T=-1.0),
    dict(T=1.0, diffusion=0.0),
    dict(T=1.0, radius=-2.0),
])
def test_heat_kernel_parameter_errors(kwargs):
    with pytest.raises(HeatKernelParameterError):
        heat_expectation_s2(phi_52, **kwargs)


def test_heat_kernel_values_positive_at_series_floor():
    grid = np.linspace(1e-6, np.pi - 1e-6, 2000)
    for tag in ("s2", "s3"):
        dens = heat_kernel_values(tag, grid, T=2e-4, diffusion=0.5)
        assert float(np.min(dens)) >= -1e-12


def _s3_expectation_summed_wide(cost, T, diffusion, radius):
    """heat_expectation_s3 with the series summed in long double at every tau."""
    tau = diffusion * T / radius**2
    ls = np.arange(oracles._series_order(tau) + 1, dtype=float)
    weights = (ls + 1.0) / (2.0 * np.pi**2) * np.exp(-ls * (ls + 2.0) * tau)

    def integrand(phi):
        sphi = np.where(np.abs(np.sin(phi)) < 1e-14, 1e-14, np.sin(phi))
        args = np.outer(phi.astype(np.longdouble), (ls + 1.0).astype(np.longdouble))
        dens = np.asarray(np.sin(args) @ weights.astype(np.longdouble), dtype=float) / sphi
        return cost(phi) * dens * 4.0 * np.pi * np.sin(phi) ** 2

    return oracles._refined_integral(integrand)


@pytest.mark.parametrize("T,diffusion,radius", [(2.0, 0.4, 3.0), (2e-3, 0.5, 1.0)],
                         ids=["reference-config", "tau-1e-3"])
def test_s3_expectation_matches_the_long_double_sum(T, diffusion, radius):
    for cost in (phi_32_52, phi_52):
        want = _s3_expectation_summed_wide(cost, T, diffusion, radius)
        assert abs(heat_expectation_s3(cost, T, diffusion, radius) - want) <= 1e-15


@pytest.mark.parametrize("T,diffusion,radius", [(2.0, 0.4, 3.0), (2e-3, 0.5, 1.0)],
                         ids=["reference-config", "tau-1e-3"])
def test_s3_kernel_takes_its_limits_at_the_poles(T, diffusion, radius):
    # sin((l+1) phi)/sin(phi) tends to l+1 at phi = 0 and (l+1)(-1)^l at pi
    tau = diffusion * T / radius**2
    ls = np.arange(oracles._series_order(tau) + 1, dtype=float)
    weights = (ls + 1.0) / (2.0 * np.pi**2) * np.exp(-ls * (ls + 2.0) * tau)
    at_zero, near_zero, near_pi, at_pi = heat_kernel_values(
        "s3", [0.0, 1e-9, np.pi - 1e-9, np.pi], T, diffusion, radius)
    assert at_zero == pytest.approx(float((ls + 1.0) @ weights), rel=1e-12)
    assert at_zero == pytest.approx(near_zero, rel=1e-12)
    assert abs(at_pi - near_pi) <= 1e-15


def test_heat_kernel_values_unknown_tag():
    with pytest.raises(HeatKernelParameterError):
        heat_kernel_values("s4", [0.5], T=1.0)


# ---------------------------------------------------------------------------
# direct uniform samplers


def test_uniform_sphere_samples_have_exact_radius():
    handle = make_manifold("sphere", n=4, radius=3.0)
    pts = sample_uniform(handle, RngStream(50, 0), 200)
    norms = np.linalg.norm(pts[..., 0], axis=-1)
    np.testing.assert_allclose(norms, 3.0, rtol=0.0, atol=1e-12)


def test_uniform_rotation_samples_are_special_orthogonal():
    handle = make_manifold("so", N=3)
    q = sample_uniform(handle, RngStream(51, 0), 200)
    assert float(np.max(frobenius_norm(mT(q) @ q - np.eye(3)))) < 1e-12
    np.testing.assert_allclose(np.linalg.det(q), 1.0, rtol=0.0, atol=1e-12)


def test_uniform_stiefel_samples_are_orthonormal():
    handle = make_manifold("stiefel", n=5, p=3, alpha0=1.0, alpha1=0.8)
    y = sample_uniform(handle, RngStream(52, 0), 200)
    assert float(np.max(frobenius_norm(mT(y) @ y - np.eye(3)))) < 1e-12


def test_a_cost_the_quadrature_cannot_resolve_is_a_named_error():
    # the step at phi = 1 moves the refined value by about 9e-6
    with pytest.raises(QuadratureError, match="quadrature refinement moved the value"):
        heat_expectation_s2(lambda phi: (phi > 1.0).astype(float), T=2.0, diffusion=0.4,
                            radius=3.0)


def test_no_direct_sampler_for_noncompact_families():
    hyp = make_manifold("hyperbolic", n=2)
    with pytest.raises(ValueError, match="uniform sampler"):
        sample_uniform(hyp, RngStream(53, 0), 4)


def test_uniform_moments_match_closed_forms():
    s4 = make_manifold("sphere", n=5)
    so3 = make_manifold("so", N=3)
    st = make_manifold("stiefel", n=5, p=3, alpha0=1.0, alpha1=0.8)
    gr = make_manifold("grassmann", n=5, p=3)
    x11sq = lambda pts: np.abs(pts[..., 0, 0]) ** 2
    mean = uniform_cost_estimate(s4, x11sq, RngStream(900, 0)).mean
    assert abs(mean - 0.2) < 0.005           # E[x_1^2] = 1/n on S^{n-1}
    mean = uniform_cost_estimate(so3, x11sq, RngStream(901, 0)).mean
    assert abs(mean - 1.0 / 3.0) < 0.006     # first column is uniform on S^2
    mean = uniform_cost_estimate(so3, sum_abs, RngStream(902, 0)).mean
    assert abs(mean - 4.500) < 0.006
    mean = uniform_cost_estimate(st, sum_abs, RngStream(903, 0)).mean
    assert abs(mean - 5.625) < 0.006
    mean = uniform_cost_estimate(gr, sum_abs, RngStream(904, 0)).mean
    assert abs(mean - 6.389) < 0.010


@pytest.mark.parametrize("n_sample", [0, -1, True, 2.5])
def test_uniform_estimate_checks_its_sample_count_first(n_sample, monkeypatch):
    draws = []
    monkeypatch.setattr(oracles, "sample_uniform", lambda *args: draws.append(args))
    so3 = make_manifold("so", N=3)
    with pytest.raises(ValueError, match="n_sample must be a positive integer"):
        uniform_cost_estimate(so3, lambda x: x[..., 0, 0], RngStream(5, 0), n_sample=n_sample)
    assert draws == []


def test_uniform_estimate_stderr_ignores_a_constant_offset():
    # the estimate keeps its values: a constant offset moves no spread
    so3 = make_manifold("so", N=3)
    plain = uniform_cost_estimate(so3, lambda x: x[..., 0, 0], RngStream(5, 0))
    shifted = uniform_cost_estimate(so3, lambda x: 1e8 + x[..., 0, 0], RngStream(5, 0))
    np.testing.assert_array_equal(shifted.samples, 1e8 + plain.samples)
    assert shifted.stderr == SampleSet(shifted.samples).stderr
    assert abs(shifted.stderr - plain.stderr) < 1e-6 * plain.stderr
    assert abs(plain.stderr - np.sqrt(1.0 / 3.0 / 1e5)) < 0.02 * plain.stderr


def test_rotation_samples_are_left_invariant():
    so3 = make_manifold("so", N=3)
    q = sample_uniform(so3, RngStream(905, 0), 40_000)
    r = sample_uniform(so3, RngStream(906, 0), 1)[0]
    a, b = sum_abs(q), sum_abs(r @ q)
    gap = abs(float(a.mean()) - float(b.mean()))
    allow = 3.0 * float(np.hypot(a.std(ddof=1), b.std(ddof=1))) / 200.0
    assert gap < allow


# ---------------------------------------------------------------------------
# frame-based Laplacian cross-check


@pytest.mark.parametrize("name,build", SPOT_BATTERY, ids=SPOT_IDS)
def test_frame_oracle_matches_trace_laplacian(name, build):
    handle = build()
    rng = RngStream(54, 0)
    x = handle.random_point(rng)
    b = rng.normal(handle.shape)

    def egrad_at(pt):
        return 2.0 * float(np.sum(b * pt)) * b

    def ehess(v):
        return 2.0 * np.sum(b * v, axis=(-2, -1))[..., None, None] * b

    main = laplace_beltrami(handle, x, egrad_at(x), ehess)
    frame = laplacian_frame_oracle(handle, x, egrad_at(x), ehess)
    assert abs(main - frame) < 1e-6 * max(1.0, abs(main))


def test_quadrature_nodes_are_computed_once_and_read_only(monkeypatch):
    first = oracles._composite_gauss(oracles._NODES, panels=16)
    again = oracles._composite_gauss(oracles._NODES, panels=16)
    assert again[0] is first[0] and again[1] is first[1]
    for array in first:
        with pytest.raises(ValueError):
            array[0] = 1.0
    cached = [heat_expectation_s2(phi_52, 0.3), heat_expectation_s3(phi_32_52, 2.0, 0.4, 3.0),
              heat_expectation_s3(phi_52, 2e-3)]
    # the uncached route: every call solves leggauss's eigenproblem again
    monkeypatch.setattr(oracles, "_composite_gauss", oracles._composite_gauss.__wrapped__)
    uncached = [heat_expectation_s2(phi_52, 0.3), heat_expectation_s3(phi_32_52, 2.0, 0.4, 3.0),
                heat_expectation_s3(phi_52, 2e-3)]
    assert cached == uncached


@pytest.mark.parametrize("tag", ["s2", "s3"])
def test_heat_kernel_values_keep_the_shape_of_phi(tag):
    grid = np.linspace(0.0, np.pi, 6)
    flat = heat_kernel_values(tag, grid, T=1.0)
    assert flat.shape == (6,)
    square = heat_kernel_values(tag, grid.reshape(2, 3), T=1.0)
    assert square.shape == (2, 3)
    # the S^3 sums are a matrix product, whose rounding may depend on its shape
    np.testing.assert_allclose(square.ravel(), flat, rtol=1e-13)
    for k, phi in enumerate(grid):
        value = heat_kernel_values(tag, phi, T=1.0)
        assert np.shape(value) == ()
        assert value == pytest.approx(flat[k], rel=1e-13)
