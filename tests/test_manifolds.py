import hashlib
import re

import numpy as np
import pytest

from batteries import GEOMETRY_BATTERY, IDS, count_linalg, counted_tubular
from manifold_sde import (
    MANIFOLD_NAMES,
    check_metric_compatibility,
    check_projection,
    make_manifold,
)
from manifold_sde.geometry import (
    OffManifoldError,
    ambient_basis,
    brownian_ito_drift,
    require_on_manifold,
)
from manifold_sde.linalg import (
    AsymmetricInputError,
    SymEigDecomposition,
    frobenius_norm,
    matrix_exp,
    mT,
    skew,
    so_inv,
    sym,
    sym_eig,
)
from manifold_sde.manifolds.hypersurface import make_hypersurface
from manifold_sde.manifolds.lie_group import LIE_KINDS, make_lie_group, random_spd_coeff
from manifold_sde.manifolds import spd
from manifold_sde.manifolds.spd import _sqrt_factor, _strat_correction
from manifold_sde.rng import RngStream


@pytest.mark.parametrize("name,build", GEOMETRY_BATTERY, ids=IDS)
def test_family_invariants(name, build):
    """Projection, Christoffel symmetry, metric compatibility and noise algebra."""
    handle = build()
    rng = RngStream(101, 0)
    for _ in range(3):
        x = handle.random_point(rng)
        assert handle.on_manifold(x, tol=1e-9)

        report = check_projection(handle, x, trials=4, rng=rng)
        assert report.max_idempotency < 1e-9
        assert report.max_asymmetry < 1e-9

        xi = handle.random_tangent(rng, x)
        eta = handle.random_tangent(rng, x)
        assert frobenius_norm(
            handle.christoffel(x, xi, eta) - handle.christoffel(x, eta, xi)) < 1e-10

        assert check_metric_compatibility(handle, x, trials=3, rng=rng) < 1e-5

        # metric and its inverse cancel on tangent vectors
        assert frobenius_norm(
            handle.project(x, handle.metric_inv(x, handle.metric(x, xi))) - xi) < 1e-9

        # closed-form drift equals the generic Christoffel trace
        assert frobenius_norm(handle.ito_drift(x) - brownian_ito_drift(handle, x)) < 1e-9


@pytest.mark.parametrize("name,build", GEOMETRY_BATTERY, ids=IDS)
def test_sigma_factorizes_inverse_metric(name, build):
    # sigma sigma^T inverts the metric: Pi sigma sigma^T g xi = xi on tangents,
    # with sigma sigma^T w = sum_i sigma(e_i) <sigma(e_i), w> over the ambient basis
    handle = build()
    rng = RngStream(102, 0)
    x = handle.random_point(rng)
    xi = handle.random_tangent(rng, x)
    columns = handle.sigma(x, ambient_basis(handle.shape))
    weights = np.sum(columns * handle.metric(x, xi), axis=(-2, -1))
    recovered = handle.project(x, np.einsum("i,i...->...", weights, columns))
    assert frobenius_norm(recovered - xi) < 1e-10


@pytest.mark.parametrize("name,build", GEOMETRY_BATTERY, ids=IDS)
def test_geometry_never_solves(monkeypatch, name, build):
    # every x^{-1} comes from one inversion per point, then products
    handle = build()
    rng = RngStream(57, 0)
    x = handle.random_point(rng)
    u = handle.random_tangent(rng, x)
    v = handle.random_tangent(rng, x)

    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.solve called")

    monkeypatch.setattr(np.linalg, "solve", refuse)
    handle.metric(x, u)
    handle.christoffel(x, u, v)
    for c in handle.constraints:
        c.hess(x, u, v)


# the battery plus the one handle built outside make_manifold
CONSTRAINT_BATTERY = GEOMETRY_BATTERY + [
    ("hypersurface-3-4", lambda: make_hypersurface(3, p=4)),
]
CONSTRAINT_IDS = [name for name, _ in CONSTRAINT_BATTERY]


@pytest.mark.parametrize("name,build", CONSTRAINT_BATTERY, ids=CONSTRAINT_IDS)
def test_non_finite_rows_are_off_manifold(name, build):
    # decided before any family code sees the row: no warning, no exception
    handle = build()
    x = handle.random_point(RngStream(58, 0))
    batch = np.stack([x] + [np.full_like(x, bad) for bad in (np.nan, np.inf, -np.inf)])
    expected = [True, False, False, False]
    np.testing.assert_array_equal(handle.on_manifold(batch), expected)
    with pytest.raises(OffManifoldError):
        require_on_manifold(handle, batch[1])


@pytest.mark.parametrize("name,build", CONSTRAINT_BATTERY, ids=CONSTRAINT_IDS)
def test_on_manifold_reads_the_tubular_map_once(name, build):
    # the map's flag is the only domain test: one mapping call per batch
    handle, calls = counted_tubular(build())
    rng = RngStream(58, 0)
    x = handle.random_point(rng)
    batch = np.stack([x, x + 0.1 * rng.normal(x.shape), -x, np.zeros_like(x),
                      np.full_like(x, np.nan)])
    handle.on_manifold(batch)
    assert calls == {"mapping": 1, "domain": 0}


def test_require_on_manifold_names_the_failed_rule():
    gl, so = make_manifold("gl+", N=2), make_manifold("so", N=3)
    reflection = np.diag([1.0, -1.0])
    assert gl.constraint_residual(reflection) == 0.0
    with pytest.raises(OffManifoldError, match="outside the tubular map's domain"):
        require_on_manifold(gl, reflection)
    with pytest.raises(OffManifoldError,
                       match=r"residual 1\.000e-06 exceeds tolerance 1\.0e-09"):
        require_on_manifold(so, np.eye(3) + 1e-6 * np.eye(3, k=1))
    for handle in (gl, so):
        with pytest.raises(OffManifoldError, match="non-finite entry"):
            require_on_manifold(handle, np.full(handle.shape, np.nan))


@pytest.mark.parametrize("name,build", CONSTRAINT_BATTERY, ids=CONSTRAINT_IDS)
def test_constraint_blocks_match_finite_differences(name, build):
    # grad against central differences of value, hess against central
    # differences of <grad, v>, component by component
    handle = build()
    assert len(handle.constraints) <= 2
    rng = RngStream(59, 0)
    x = handle.random_point(rng)
    h = 1e-5
    for c in handle.constraints:
        k = c.value(x).shape[-1]
        grad = c.grad(x)
        assert grad.shape == (k,) + handle.shape
        for _ in range(3):
            u, v = rng.normal(x.shape), rng.normal(x.shape)
            fd_grad = (c.value(x + h * u) - c.value(x - h * u)) / (2.0 * h)
            exact = np.sum(grad * u, axis=(-2, -1))
            np.testing.assert_allclose(fd_grad, exact, rtol=1e-6,
                                       atol=1e-6 * (1.0 + np.max(np.abs(exact))))
            fd_hess = np.sum((c.grad(x + h * u) - c.grad(x - h * u)) * v,
                             axis=(-2, -1)) / (2.0 * h)
            exact = c.hess(x, u, v)
            assert exact.shape == (k,)
            np.testing.assert_allclose(fd_hess, exact, rtol=1e-6,
                                       atol=1e-6 * (1.0 + np.max(np.abs(exact))))


# the battery plus a hypersurface and groups with a non-bi-invariant metric
SIGMA_BATTERY = CONSTRAINT_BATTERY + [
    ("so-3-seeded", lambda: make_manifold("so", N=3, metric_seed=4)),
    ("sl-3-seeded", lambda: make_manifold("sl", N=3, metric_seed=4)),
    ("se-3-seeded", lambda: make_manifold("se", N=3, metric_seed=4)),
]


def _ambient_sigma(handle, x, w):
    """The ambient diffusion factor the projection was applied to before
    sigma was tangent-valued (unchanged on the groups and hyperbolic space)."""
    family = handle.name.split("(")[0]
    if family == "stiefel":
        c = mT(x) @ w
        a0, a1 = handle.params["alpha0"], handle.params["alpha1"]
        return (w - x @ c) / np.sqrt(a0) + x @ skew(c) / np.sqrt(a1) + x @ sym(c)
    if family == "spd":
        root = sym_eig(x).apply(np.sqrt)
        return root @ w @ root
    if family in ("sphere", "hypersurface", "grassmann"):
        return w + np.zeros_like(x)
    return handle.sigma(x, w)


@pytest.mark.parametrize("name,build", SIGMA_BATTERY, ids=[row[0] for row in SIGMA_BATTERY])
def test_sigma_is_tangent_valued(name, build):
    # on M sigma needs no projection; off M (Heun predictors, RK4 stage
    # points) it is Pi(x) applied to the family's ambient factor
    handle = build()
    rng = RngStream(125, 0)
    x = np.stack([handle.random_point(rng) for _ in range(4)])
    w = rng.normal(x.shape)
    s = handle.sigma(x, w)
    assert np.all(frobenius_norm(handle.project(x, s) - s) <= 1e-12 * frobenius_norm(s))
    xi = handle.project(x, rng.normal(x.shape))
    y = x + 0.05 * xi / frobenius_norm(xi)[:, None, None]
    ref = handle.project(y, _ambient_sigma(handle, y, w))
    assert np.all(frobenius_norm(handle.sigma(y, w) - ref) <= 1e-12 * frobenius_norm(ref))


# ---------------------------------------------------------------------------
# closed-form facts per family


def test_sphere_christoffel_and_drift():
    handle = make_manifold("sphere", n=4, radius=2.0)
    rng = RngStream(103, 0)
    x = handle.random_point(rng)
    xi = handle.random_tangent(rng, x)
    eta = handle.random_tangent(rng, x)
    expected = x * float(np.sum(xi * eta)) / 4.0
    assert frobenius_norm(handle.christoffel(x, xi, eta) - expected) < 1e-12
    assert frobenius_norm(handle.ito_drift(x) - (-(4 - 1) / (2 * 4.0)) * x) < 1e-12


def test_hyperbolic_christoffel_example():
    # upper half-plane: Gamma((0,1); e1, e1) = +e2
    handle = make_manifold("hyperbolic", n=2)
    x = np.array([[0.0], [1.0]])
    e1 = np.array([[1.0], [0.0]])
    gamma = handle.christoffel(x, e1, e1)
    assert frobenius_norm(gamma - np.array([[0.0], [1.0]])) < 1e-13


def test_drift_constants_exact():
    cases = [
        (make_manifold("so", N=3), -0.5),
        (make_manifold("sl", N=3), 1.0 / 3.0),
        (make_manifold("gl+", N=2), 0.5),
        (make_manifold("spd", N=3), 1.0),
        (make_manifold("stiefel", n=5, p=3, alpha0=1.0, alpha1=1.0), -1.5),
        (make_manifold("grassmann", n=5, p=3), -1.0),
    ]
    for handle, coeff in cases:
        x = handle.random_point(RngStream(104, 0))
        assert frobenius_norm(handle.ito_drift(x) - coeff * x) < 1e-10, handle.name


def test_stratonovich_drift_vanishes_on_unimodular_families():
    for handle in (
        make_manifold("so", N=3),
        make_manifold("sl", N=3),
        make_manifold("se", N=3),
        make_manifold("gl+", N=2),
        make_manifold("grassmann", n=5, p=3),
    ):
        x = handle.random_point(RngStream(105, 0))
        assert frobenius_norm(handle.strat_drift(x)) < 1e-10, handle.name


def test_spd_stratonovich_drift_at_identity():
    handle = make_manifold("spd", N=3)
    assert frobenius_norm(handle.strat_drift(np.eye(3))) < 1e-12


def test_left_invariance_of_group_christoffel():
    handle = make_manifold("so", N=3, metric_seed=9)
    rng = RngStream(106, 0)
    x = handle.random_point(rng)
    xi = handle.random_tangent(rng, x)
    eta = handle.random_tangent(rng, x)
    xinv = mT(x)
    translated = x @ handle.christoffel(np.eye(3), xinv @ xi, xinv @ eta)
    assert frobenius_norm(handle.christoffel(x, xi, eta) - translated) < 1e-10


def _solve_forms(handle):
    """project, metric and christoffel of a group handle with broadcast solves.

    At the identity the handle's maps reduce exactly to the algebra maps:
    P(w) = project(I, w), I(w) = metric(I, w), I^{-1}(w) = metric_inv(I, w).
    """
    eye = np.eye(handle.shape[0])

    def alg(w):
        return handle.project(eye, w)

    def lmet(w):
        return handle.metric(eye, w)

    def project(x, w):
        return x @ alg(np.linalg.solve(x, w))

    def metric(x, w):
        return np.linalg.solve(mT(x), lmet(np.linalg.solve(x, w)))

    def christoffel(x, u, v):
        a = np.linalg.solve(x, u)
        b = np.linalg.solve(x, v)
        la, lb = lmet(a), lmet(b)
        bracket = (la @ mT(b) - mT(b) @ la) + (lb @ mT(a) - mT(a) @ lb)
        return -0.5 * (u @ b + v @ a) + 0.5 * x @ handle.metric_inv(eye, alg(bracket))

    return project, metric, christoffel


@pytest.mark.parametrize("kind,n", [("gl+", 2), ("sl", 3), ("so", 3), ("se", 3), ("aff", 3)])
def test_group_inverse_forms_match_solve_forms(kind, n):
    """x^{-1} formed once per call agrees with a broadcast solve per right-hand side."""
    handle = make_manifold(kind, N=n, metric_seed=4)
    project, metric, christoffel = _solve_forms(handle)
    rng = RngStream(113, 0)
    x = np.stack([handle.random_point(rng) for _ in range(6)])
    v = handle.project(x, rng.normal(x.shape))
    # an RK4 stage point of the geodesic equation, off the group
    hs = 0.5
    xs = x + 0.5 * hs * v
    vs = v - 0.5 * hs * handle.christoffel(x, v, v)
    w = vs + rng.normal(x.shape)
    basis = ambient_basis(handle.shape)[:, None]

    def close(new, ref):
        err = frobenius_norm(new - ref)
        return bool(np.all(err <= 1e-12 * frobenius_norm(ref)))

    assert close(handle.project(xs, w), project(xs, w))
    assert close(handle.project(xs, basis), project(xs, basis))
    assert close(handle.metric(xs, w), metric(xs, w))
    assert close(handle.metric(xs, basis), metric(xs, basis))
    assert close(handle.christoffel(xs, vs, vs), christoffel(xs, vs, vs))
    assert close(handle.christoffel(xs, vs, w), christoffel(xs, vs, w))
    sigma = handle.sigma(xs, basis)
    assert close(handle.christoffel(xs, sigma, sigma), christoffel(xs, sigma, sigma))


@pytest.mark.parametrize("N", range(2, 9))
def test_so_christoffel_drops_only_a_zero_bracket(N):
    """The bi-invariant so(N) handle leaves out a bracket term that is +0 bit for bit."""

    def full(x, u, v):  # the formula of the other group handles, with I = id
        xinv = so_inv(x)
        a = xinv @ u
        b = a if v is u else xinv @ v
        bracket = (a @ mT(b) - mT(b) @ a) + (b @ mT(a) - mT(a) @ b)
        return -0.5 * (u @ b + v @ a) + 0.5 * (x @ skew(bracket))

    handle = make_manifold("so", N=N)
    seeded = make_manifold("so", N=N, metric_seed=4)
    rng = RngStream(120, 0)
    x = np.stack([handle.random_point(rng) for _ in range(8)])
    u = rng.normal(x.shape)
    v = handle.project(x, rng.normal(x.shape))
    # on the group, and off it as RK4 stage points are
    for point in (x, x + 0.05 * rng.normal(x.shape)):
        for uu, vv in ((u, v), (v, v), (u, u)):
            assert np.array_equal(handle.christoffel(point, uu, vv), full(point, uu, vv))
        # with a metric_seed the bracket term is kept, and it is not zero
        # except on the abelian so(2)
        xinv = np.linalg.inv(point)
        first = -0.5 * (u @ (xinv @ v) + v @ (xinv @ u))
        gap = np.max(np.abs(seeded.christoffel(point, u, v) - first))
        assert gap > 1e-3 if N > 2 else gap < 1e-12


# sha256 over every output of the group handles, per kind, for N = 1..4 where
# the kind exists and metric_seed None and 4.  First recorded before the group
# module was rewritten as one construction, so it pinned that rewrite bit for
# bit; re-recorded when the polar factor moved to Newton-Schulz steps, the
# so digest again when so(N) inverted through linalg.so_inv, and the sl
# digest when its constraint Hessian took products with one x^{-1} instead
# of two solves (a rounding change only); all but gl+ again when the digest
# fed ``on_manifold`` in place of the domain flag alone, whose constants the
# handles from before that change give too, so no handle output moved.
LIE_GROUP_DIGESTS = {
    "gl+": "c7072dd9a70a69835f458379ca086fa6fb89f72d39f221a36b756fa05ac21959",
    "sl": "adb3de5a8e5595a9e11e59b69d4517bdd26b2fb4c73d8b98aeda51824a918a63",
    "so": "7868c53a1e056b1b136752cf48224b222c1741807c102232e16ee173488a88d5",
    "se": "1e16560bac3e44f7aa4a29814f0036a57c0f61f4d8ee6fbb373a9065ad01a0fb",
    "aff": "cdef611bcaceb7ceb3303fd72181a74ccecbc1412f13f415cb0f51e9afada873",
}


def _feeder(digest):
    def feed(*arrays):
        for a in arrays:
            a = np.ascontiguousarray(a)
            digest.update(repr((a.dtype.str, a.shape)).encode())
            digest.update(a.tobytes())
    return feed


def _feed_constraints(feed, handle, q, x, u, v, compact):
    """Feed each constraint component in order, as the per-entry constraints
    the digests were recorded with, then the metadata with the component
    count.  ``compact`` is the flag the handles carried when the digests were
    recorded (True on so and Grassmann, False on the other groups)."""
    count = 0
    for c in handle.constraints:
        value, grad, hess = c.value(q), c.grad(x), c.hess(x, u, v)
        for k in range(value.shape[-1]):
            feed(value[..., k], grad[..., k, :, :], hess[..., k])
        count += value.shape[-1]
    feed(np.array([handle.dim, compact, count]))


def _lie_group_digest(kind):
    digest = hashlib.sha256()
    feed = _feeder(digest)
    for n in range(1 if kind in ("gl+", "se", "aff") else 2, 5):
        for seed in (None, 4):
            handle = make_manifold(kind, N=n, metric_seed=seed)
            rng = RngStream(118, 0)
            x = np.stack([handle.random_point(rng) for _ in range(3)])
            u = rng.normal(x.shape)
            v = rng.normal(x.shape)
            # near, reflected (det < 0 for odd sizes) and zero proposals
            q = np.concatenate([x + 0.1 * u, -x[:1], np.zeros_like(x[:1])])
            base = np.concatenate([x, x[:2]])
            # NaN rows only reach retract, which sends them back as x
            bad = np.concatenate([q, np.full_like(x[:1], np.nan)])
            feed(x, handle.project(x, u), handle.metric(x, u), handle.metric_inv(x, u),
                 handle.sigma(x, u), handle.christoffel(x, u, v),
                 handle.christoffel(x, u, u), handle.ito_drift(x), handle.strat_drift(x),
                 *handle.tubular.mapping(q), handle.tubular.mapping(q)[1],
                 handle.tubular.differential(x, u), handle.on_manifold(q),
                 *handle.tubular.retract(bad, np.concatenate([base, x[:1]])))
            _feed_constraints(feed, handle, q, x, u, v, kind == "so")
    return digest.hexdigest()


@pytest.mark.parametrize("kind", LIE_KINDS)
def test_lie_group_handles_are_pinned(kind):
    assert _lie_group_digest(kind) == LIE_GROUP_DIGESTS[kind]


# the same over every Grassmann handle output for (n, p) in (2, 1), (4, 2),
# (5, 3) and (4, 4), first recorded before Grassmann was rebuilt on the Stiefel
# handle, re-recorded with the pins above, again when sigma became the
# horizontal projection and again when the digest fed ``on_manifold``
GRASSMANN_DIGEST = "6cd8bd32815a619b6402681261ed54d554d964cf22cd9fb59e628da74cdc3e68"


def test_grassmann_handle_is_pinned():
    digest = hashlib.sha256()
    feed = _feeder(digest)
    for n, p in ((2, 1), (4, 2), (5, 3), (4, 4)):
        handle = make_manifold("grassmann", n=n, p=p)
        rng = RngStream(119, 0)
        x = np.stack([handle.random_point(rng) for _ in range(3)])
        u = rng.normal(x.shape)
        v = rng.normal(x.shape)
        q = np.concatenate([x + 0.1 * u, np.zeros_like(x[:1])])
        bad = np.concatenate([q, np.full_like(x[:1], np.nan)])
        feed(x, handle.project(x, u), handle.metric(x, u), handle.metric_inv(x, u),
             handle.sigma(x, u), handle.christoffel(x, u, v), handle.christoffel(x, u, u),
             handle.ito_drift(x), handle.strat_drift(x),
             *handle.tubular.mapping(q), handle.tubular.mapping(q)[1],
             handle.tubular.differential(x, u), handle.on_manifold(q),
             *handle.tubular.retract(bad, np.concatenate([x, x[:2]])),
             handle.functional_point(x), handle.default_point())
        _feed_constraints(feed, handle, q, x, u, v, True)
        digest.update(repr((handle.name, sorted(handle.params.items()))).encode())
    assert digest.hexdigest() == GRASSMANN_DIGEST


def test_two_metric_seeds_differ_but_both_valid():
    a = make_manifold("so", N=3, metric_seed=1)
    b = make_manifold("so", N=3, metric_seed=2)
    x = a.random_point(RngStream(107, 0))
    assert frobenius_norm(a.ito_drift(x) - b.ito_drift(x)) > 1e-4
    for handle in (a, b):
        report = check_projection(handle, x, trials=4, rng=RngStream(107, 1))
        assert report.max_idempotency < 1e-9 and report.max_asymmetry < 1e-9


def test_random_spd_coeff_condition_capped():
    for seed in range(5):
        coeff = random_spd_coeff(6, seed=seed)
        vals = np.linalg.eigvalsh(coeff)
        assert vals.min() > 0
        assert vals.max() / vals.min() <= 10.0


def test_stiefel_single_column_matches_sphere():
    st = make_manifold("stiefel", n=4, p=1, alpha0=1.0, alpha1=0.5)
    sph = make_manifold("sphere", n=4)
    x = sph.random_point(RngStream(108, 0))
    assert frobenius_norm(st.ito_drift(x) - sph.ito_drift(x)) < 1e-12
    w = RngStream(108, 1).normal((4, 1))
    assert frobenius_norm(st.project(x, w) - sph.project(x, w)) < 1e-12


def test_se3_point_structure():
    handle = make_manifold("se", N=3)
    x = handle.random_point(RngStream(109, 0))
    assert x.shape == (4, 4)
    rot = x[:3, :3]
    assert frobenius_norm(mT(rot) @ rot - np.eye(3)) < 1e-10
    assert np.allclose(x[3], [0.0, 0.0, 0.0, 1.0], atol=1e-12)
    # ito drift contracts only the rotation block; translations are flat
    drift = handle.ito_drift(x)
    j = np.diag([1.0, 1.0, 1.0, 0.0])
    assert frobenius_norm(drift - (-0.5) * x @ j) < 1e-10


def test_aff3_strat_drift_block():
    handle = make_manifold("aff", N=3)
    x = handle.random_point(RngStream(110, 0))
    j = np.diag([1.0, 1.0, 1.0, 0.0])
    assert frobenius_norm(handle.strat_drift(x) - (-0.5) * x @ j) < 1e-10


def test_sl_tubular_differential_example():
    # pi'(x) omega = omega - (1/N) Tr(A^-1 omega) A for the det-rescaling map
    handle = make_manifold("sl", N=3)
    rng = RngStream(111, 0)
    a = handle.random_point(rng)
    omega = rng.normal((3, 3))
    t = 1e-6
    pi = handle.tubular.mapping
    fd = (pi(a + t * omega)[0] - pi(a - t * omega)[0]) / (2 * t)
    expected = omega - np.trace(np.linalg.solve(a, omega)) / 3.0 * a
    assert frobenius_norm(fd - expected) < 1e-6
    assert frobenius_norm(handle.tubular.differential(a, omega) - expected) < 1e-12


def test_grassmann_horizontal_space_kills_vertical_directions():
    gr = make_manifold("grassmann", n=5, p=3)
    y = gr.random_point(RngStream(112, 0))
    a = RngStream(112, 1).normal((3, 3))
    vertical = y @ (a - a.T)
    assert frobenius_norm(gr.project(y, vertical)) < 1e-12


def test_grassmann_agrees_with_isotropic_stiefel_on_horizontal_vectors():
    gr = make_manifold("grassmann", n=5, p=3)
    st = make_manifold("stiefel", n=5, p=3, alpha0=1.0, alpha1=1.0)
    rng = RngStream(113, 0)
    y = gr.random_point(rng)
    xi = gr.random_tangent(rng, y)
    eta = gr.random_tangent(rng, y)
    # horizontal vectors are Stiefel-tangent; the lifted metric pairs them equally
    gi = np.sum(xi * gr.metric(y, eta))
    si = np.sum(xi * st.metric(y, eta))
    assert abs(gi - si) < 1e-12


def test_basis_contraction_identity():
    # sum_ij E_ij C^T E_ij = C for the elementary matrix frame
    rng = RngStream(114, 0)
    c = rng.normal((3, 3))
    total = np.zeros((3, 3))
    for i in range(3):
        for j in range(3):
            e = np.zeros((3, 3))
            e[i, j] = 1.0
            total += e @ c.T @ e
    assert frobenius_norm(total - c) < 1e-14


@pytest.mark.parametrize("name,build", [
    ("seed", lambda: RngStream(1.5, 0)),
    ("seed", lambda: RngStream(True, 0)),
    ("stream_id", lambda: RngStream(1, 2.0)),
    ("metric_seed", lambda: make_manifold("so", N=3, metric_seed=1.5)),
    ("N", lambda: make_manifold("gl+", N=True)),
    ("N", lambda: make_manifold("so", N=2.5)),
    ("N", lambda: make_manifold("spd", N=3.0)),
    ("p", lambda: make_manifold("stiefel", n=5, p=3.0)),
    ("n", lambda: make_manifold("grassmann", n="5", p=2)),
    ("n", lambda: make_manifold("sphere", n=np.True_)),
    ("n", lambda: make_manifold("hyperbolic", n=2.0)),
    ("p", lambda: make_hypersurface(3, p=4.0)),
    ("radius", lambda: make_manifold("sphere", n=3, radius=True)),
    ("alpha0", lambda: make_manifold("stiefel", n=5, p=3, alpha0=True)),
    ("alpha1", lambda: make_manifold("stiefel", n=5, p=3, alpha1="1")),
], ids=["rng-float-seed", "rng-bool-seed", "rng-float-stream", "so-float-metric-seed",
        "gl-bool-N", "so-float-N", "spd-float-N", "stiefel-float-p", "grassmann-str-n",
        "sphere-numpy-bool-n", "hyperbolic-float-n", "hypersurface-float-p",
        "sphere-bool-radius", "stiefel-bool-alpha0", "stiefel-str-alpha1"])
def test_integer_inputs_must_be_integers(name, build):
    # a ValueError naming the parameter, not a silent conversion or a TypeError
    with pytest.raises(ValueError, match=f"^{name} must be "):
        build()


def test_integer_inputs_take_numpy_integers():
    np.testing.assert_array_equal(RngStream(np.int64(7), np.uint32(2)).normal(5),
                                  RngStream(7, 2).normal(5))
    for family, params in (
        ("so", dict(N=np.int64(3), metric_seed=np.int32(4))),
        ("spd", dict(N=np.uint8(3))),
        ("stiefel", dict(n=np.int64(5), p=np.int16(3), alpha1=np.float32(0.5))),
        ("sphere", dict(n=np.int64(3), radius=np.float64(2.0))),
    ):
        wide = make_manifold(family, **params)
        plain = make_manifold(family, **{k: v.item() for k, v in params.items()})
        x = plain.random_point(RngStream(3, 0))
        assert wide.name == plain.name
        np.testing.assert_array_equal(wide.ito_drift(x), plain.ito_drift(x))


def test_gl_positive_det_domain():
    handle = make_manifold("gl+", N=2)
    assert handle.on_manifold(np.eye(2))
    assert not handle.on_manifold(np.diag([1.0, -1.0]))


def test_hypersurface_family_constraint():
    handle = make_hypersurface(n=3, p=4)
    rng = RngStream(115, 0)
    x = handle.random_point(rng)
    assert handle.on_manifold(x, tol=1e-9)
    xi = handle.random_tangent(rng, x)
    eta = handle.random_tangent(rng, x)
    assert frobenius_norm(
        handle.christoffel(x, xi, eta) - handle.christoffel(x, eta, xi)) < 1e-10


def test_manifold_registry_rejects_unknown():
    assert "sphere" in MANIFOLD_NAMES
    with pytest.raises((KeyError, ValueError)):
        make_manifold("torus", n=2)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("build", [
    lambda bad: make_manifold("sphere", n=3, radius=bad),
    lambda bad: make_manifold("stiefel", n=5, p=3, alpha0=bad),
    lambda bad: make_manifold("stiefel", n=5, p=3, alpha1=bad),
    lambda bad: make_hypersurface(3, d=[1.0, bad, 1.0]),
], ids=["sphere-radius", "stiefel-alpha0", "stiefel-alpha1", "hypersurface-d"])
def test_family_parameters_must_be_finite(build, bad):
    with pytest.raises(ValueError, match="finite"):
        build(bad)


@pytest.mark.parametrize("build,message", [
    (lambda: make_manifold("sphere", n=1), "sphere needs ambient dimension >= 2, got n=1"),
    (lambda: make_manifold("hyperbolic", n=1), "hyperbolic needs dimension >= 2, got n=1"),
    (lambda: make_hypersurface(1), "need ambient dimension >= 2, got 1"),
    (lambda: make_hypersurface(3, p=3), "exponent p must be even and >= 2, got 3"),
    (lambda: make_manifold("stiefel", n=3, p=4), "need 1 <= p <= n, got n=3, p=4"),
    (lambda: make_lie_group("su", 3), "unknown group kind 'su'"),
    (lambda: make_manifold("so", N=1), "so needs N >= 2, got 1"),
    (lambda: make_manifold("spd", N=0), "spd needs N >= 1, got 0"),
], ids=["sphere-n-1", "hyperbolic-n-1", "hypersurface-n-1", "hypersurface-p-3",
        "stiefel-p-above-n", "group-kind", "so-N-1", "spd-N-0"])
def test_family_sizes_out_of_range_are_refused(build, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build()


def test_group_points_exponentials_consistent():
    handle = make_manifold("so", N=3)
    rng = RngStream(116, 0)
    x = handle.random_point(rng)
    v = handle.random_tangent(rng, x)
    # one-parameter subgroup through x stays on the group
    y = x @ matrix_exp(mT(x) @ v)
    assert handle.on_manifold(y, tol=1e-9)


def test_spd_points_and_sym_tangents():
    handle = make_manifold("spd", N=3)
    rng = RngStream(117, 0)
    x = handle.random_point(rng)
    assert np.min(np.linalg.eigvalsh(sym(x))) > 0
    xi = handle.random_tangent(rng, x)
    assert frobenius_norm(xi - mT(xi)) < 1e-12


def _spd_rows_near_the_domain_edge(N=3):
    """65 symmetric N x N rows whose smallest eigenvalue sits on, just above
    or just below the domain threshold 1e-10, or clearly inside or outside
    it; each also scaled by 1e8, plus the zero matrix."""
    rng = RngStream(118, 0)
    rows = []
    for lam in (1e-10 * (1 + 1e-6), 1e-10 * (1 - 1e-6), 1e-10, 0.0, -1e-3, 1e-9, 1e-11, 1.0):
        diag = np.diag([lam, *np.arange(1.0, N)])
        rows.append(diag)
        for _ in range(3):
            q, _ = np.linalg.qr(rng.normal((N, N)))
            rows.append(q @ diag @ q.T)
    rows += [1e8 * r for r in rows]
    rows.append(np.zeros((N, N)))
    return sym(np.stack(rows))


def test_spd_domain_certificate_decides_as_eigvalsh():
    from manifold_sde.manifolds.spd import _certified_positive

    mapping = make_manifold("spd", N=3).tubular.mapping

    def domain(s):
        return mapping(s)[1]

    s = _spd_rows_near_the_domain_edge()
    expected = np.linalg.eigvalsh(s)[:, 0] > 1e-10
    certified = _certified_positive(s)
    assert certified.any() and not certified.all()
    assert not np.any(certified & ~expected)  # a certified row is accepted
    np.testing.assert_array_equal(domain(s), expected)
    np.testing.assert_array_equal(domain(s[:64].reshape(8, 8, 3, 3)), expected[:64].reshape(8, 8))
    for row, want in zip(s, expected):  # unbatched
        got = domain(row)
        assert np.ndim(got) == 0 and got == want
    # every batch size takes the certificate, around the former 32-row fork too
    for n in (1, 2, 31, 32, 33):
        np.testing.assert_array_equal(domain(s[:n]), expected[:n])
        np.testing.assert_array_equal(domain(s[-n:]), expected[-n:])
    # a NaN row is eigvalsh's to decide, alone or in a batch
    nan_row = np.full((1, 3, 3), np.nan)
    for rows in (nan_row, np.concatenate([s[:32], nan_row])):
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.eigvalsh(rows)
        with pytest.raises(np.linalg.LinAlgError):
            domain(rows)


@pytest.mark.parametrize("N", [2, 4])
def test_spd_domain_off_three_decides_as_eigvalsh(N):
    # no certificate off N = 3: every row is eigvalsh's to decide
    mapping = make_manifold("spd", N=N).tubular.mapping
    s = _spd_rows_near_the_domain_edge(N)
    expected = np.linalg.eigvalsh(s)[:, 0] > 1e-10
    assert expected.any() and not expected.all()
    np.testing.assert_array_equal(mapping(s)[1], expected)
    np.testing.assert_array_equal(mapping(s[:64].reshape(8, 8, N, N))[1],
                                  expected[:64].reshape(8, 8))
    for row, want in zip(s, expected):  # unbatched
        got = mapping(row)[1]
        assert np.ndim(got) == 0 and got == want


def test_spd_eigendecomposition_is_reused_only_for_the_same_bits():
    handle, fresh = make_manifold("spd", N=3), make_manifold("spd", N=3)
    rng = RngStream(119, 0)
    x = np.stack([handle.random_point(rng) for _ in range(4)])
    w = sym(rng.normal((4, 3, 3)))
    before = handle.sigma(x, w)
    assert handle.strat_drift(x).tobytes() == fresh.strat_drift(x).tobytes()
    x[1, 0, 0] += 0.5  # the same array, changed in place
    after = handle.sigma(x, w)
    assert after.tobytes() == fresh.sigma(x, w).tobytes()
    assert not np.array_equal(after[1], before[1])
    np.testing.assert_array_equal(after[[0, 2, 3]], before[[0, 2, 3]])


def _rotated_spd(rng, eigenvalues):
    """q diag(eigenvalues) q^T for a random rotation q."""
    q, _ = np.linalg.qr(rng.normal((3, 3)))
    return sym(q @ np.diag(eigenvalues) @ q.T)


def _eigh_route(x):
    """x^{1/2} and S(x) from ``sym_eig``, the route the closed form replaces."""
    with np.errstate(invalid="ignore"):
        dec = sym_eig(x)
        return dec.apply(np.sqrt), _strat_correction(dec)


def _ulps(a, ref):
    """Rowwise max |a - ref| in units of eps max |ref|."""
    scale = np.finfo(float).eps * np.max(np.abs(ref), axis=(-2, -1))
    return np.max(np.abs(a - ref), axis=(-2, -1)) / scale


def _uncertified_spd3_rows(rng):
    """3x3 rows the closed form leaves to eigh: too badly conditioned,
    indefinite, singular, out of range, or not finite (a NaN in the upper
    triangle alone is invisible to eigh, which reads the lower one)."""
    rows = [_rotated_spd(rng, (1.0, 2.0, 64.5)), np.diag([1.0, 1.0, 64.01]),
            _rotated_spd(rng, (1.0, 10.0, 1e4)), _rotated_spd(rng, (-1.0, 1.0, 2.0)),
            np.diag([0.0, 1.0, 2.0]), _rotated_spd(rng, (1e-120, 2e-120, 3e-120)),
            _rotated_spd(rng, (1e120, 2e120, 3e120)), 1e-160 * np.eye(3), 1e160 * np.eye(3)]
    for i, j, value in [(1, 0, np.nan), (0, 2, np.nan), (1, 1, np.inf), (2, 2, -np.inf)]:
        row = np.eye(3)
        row[i, j] = value
        rows.append(row)
    return rows


def test_spd_closed_form_is_within_64_ulps_of_eigh():
    rng = RngStream(120, 0)
    spectra = [(c, c, c) for c in (1.0, 2.5, 1e-3, 7e4)]
    spectra += [(1.0, 1.0, 2.0), (1.0, 2.0, 2.0), (1.0, 1.0, 63.99), (1.0, 63.99, 63.99),
                (0.5, 4.0, 0.5 * 63.99), (1e-90, 3e-90, 5e-89), (1e90, 3e90, 5e91)]
    spectra += [tuple(63.0 ** rng.uniform(3)) for _ in range(40)]
    x = np.stack([np.diag(s) for s in spectra] + [_rotated_spd(rng, s) for s in spectra])
    factor = _sqrt_factor(x)
    assert not factor.rest.any()  # every row took the closed form
    root, correction = _eigh_route(x)
    assert _ulps(factor.root, root).max() <= 64
    assert _ulps(factor.correction(), correction).max() <= 64


def test_spd_uncertified_rows_keep_the_eigh_bits():
    rng = RngStream(121, 0)
    x = np.stack(_uncertified_spd3_rows(rng))
    factor = _sqrt_factor(x)
    assert factor.rest.all()
    root, correction = _eigh_route(x)
    assert factor.root.tobytes() == root.tobytes()
    assert factor.correction().tobytes() == correction.tobytes()
    for n in (2, 4):  # spd(N), N != 3, takes eigh on every row
        a = rng.normal((8, n, n))
        y = sym(a @ mT(a)) + 0.1 * np.eye(n)
        factor = _sqrt_factor(y)
        root, correction = _eigh_route(y)
        assert factor.root.tobytes() == root.tobytes()
        assert factor.correction().tobytes() == correction.tobytes()


def test_spd_sqrt_rows_do_not_depend_on_their_batch():
    # pytest turns a RuntimeWarning into an error, so the non-finite,
    # indefinite and singular rows also show that none is raised
    rng = RngStream(122, 0)
    rows = _uncertified_spd3_rows(rng)
    rows += [_rotated_spd(rng, 60.0 ** rng.uniform(3)) for _ in range(22)]
    batch = np.stack([rows[i] for i in np.argsort(rng.uniform(len(rows)))])
    factor = _sqrt_factor(batch)
    assert factor.rest.any() and not factor.rest.all()
    root, correction = factor.root, factor.correction()
    for i, row in enumerate(batch):
        for alone in (row, row[None]):
            single = _sqrt_factor(alone)
            assert single.root.shape == alone.shape
            assert single.root.tobytes() == root[i].tobytes()
            assert single.correction().tobytes() == correction[i].tobytes()
    tail = _sqrt_factor(batch[5:].reshape(3, 10, 3, 3))
    assert tail.root.shape == (3, 10, 3, 3)
    assert tail.root.tobytes() == root[5:].tobytes()
    assert tail.correction().tobytes() == correction[5:].tobytes()
    handle = make_manifold("spd", N=3)
    w = sym(rng.normal(batch.shape))
    assert handle.sigma(batch, w).tobytes() == sym(root @ w @ root).tobytes()
    assert handle.strat_drift(batch).tobytes() == (correction + batch).tobytes()


def test_spd_strat_coefficient_reduces_to_the_closed_form_polynomial():
    # g_i = b_i^2 (1/4 + sum_j b_j / (2 (b_i + b_j))), reduced with the
    # characteristic polynomial of x^{1/2}
    rng = RngStream(123, 0)
    b = np.exp(rng.normal((200, 3)))
    eye = np.broadcast_to(np.eye(3), (200, 3, 3))
    g = -np.diagonal(_strat_correction(SymEigDecomposition(b**2, eye)), axis1=1, axis2=2)
    b0, b1, b2 = b.T
    i1, i2, i3 = b0 + b1 + b2, b0 * b1 + b0 * b2 + b1 * b2, b0 * b1 * b2
    d = i1 * i2 - i3
    np.testing.assert_allclose(d, (b0 + b1) * (b0 + b2) * (b1 + b2), rtol=1e-14)
    poly = b**2 / 2 + (((i1 * i3 + i2**2) / (2 * d))[:, None] * b
                       - (i3 / (2 * d))[:, None] * b**2 - (i2 * i3 / (2 * d))[:, None])
    np.testing.assert_allclose(poly, g, rtol=1e-13)


def _eigh_inverse_routes(x):
    """x^{-1/2} from ``sym_eig`` and x^{-1} from ``np.linalg.inv``, the routes
    the factor's closed forms replace."""
    return sym_eig(x).apply(lambda lam: 1.0 / np.sqrt(lam)), np.linalg.inv(x)


@pytest.mark.parametrize("cond,bound", [(4.0, 64), (64.0, 1024)])
def test_spd_inverse_from_the_factor_is_within_bound_ulps_of_inv(cond, bound):
    # x^{-1/2} = (x - I_1 x^{1/2} + I_2 I) / I_3 and x^{-1} its square, on
    # rows of condition number below ``cond``, among them near-double
    # eigenvalues at either end; the bound is about twice the worst of 4200
    # such rows (14 and 20 ulps below cond 4, 313 and 542 below cond 64:
    # the trigonometric eigenvalues' error grows with cond)
    rng = RngStream(125, 0)
    top = 0.999 * cond
    spectra = [(1.0, 1.0, top), (1.0, top, top), (1.0, 1.0 + 1e-9, top), (1.0, top - 1e-7, top)]
    spectra += [tuple(np.exp(10.0 * rng.uniform() - 5.0) * cond ** rng.uniform(3))
                for _ in range(60)]
    x = np.stack([_rotated_spd(rng, s) for s in spectra])
    factor = _sqrt_factor(x)
    assert not factor.rest.any()
    root_inv, inverse = _eigh_inverse_routes(x)
    assert _ulps(factor.root_inv, root_inv).max() <= bound
    assert _ulps(factor.inverse, inverse).max() <= bound
    np.testing.assert_array_equal(factor.inverse, factor.root_inv @ factor.root_inv)


def test_spd_uncertified_rows_take_their_inverse_from_eigh():
    rng = RngStream(126, 0)
    x = np.stack(_uncertified_spd3_rows(rng)[:3])  # cond 64.5, 64.01 and 1e4
    factor = _sqrt_factor(x)
    assert factor.rest.all()
    root_inv = sym_eig(x).apply(lambda lam: 1.0 / np.sqrt(lam))
    assert factor.root_inv.tobytes() == root_inv.tobytes()
    assert factor.inverse.tobytes() == (root_inv @ root_inv).tobytes()


def _spread_rows(rng, spreads):
    """Symmetric 3x3 rows with eigenvalues m, m + t s, m + s for each spread
    s, a random m in [-3, 3] and t in {0, 1e-9, 1/2, 1 - 1e-9, 1}."""
    rows = []
    for s in spreads:
        for t in (0.0, 1e-9, 0.5, 1.0 - 1e-9, 1.0):
            m = 6.0 * rng.uniform() - 3.0
            rows.append(_rotated_spd(rng, (m, m + t * s, m + s)))
    return np.stack(rows)


def _eigh_exp(w):
    vals, vecs = np.linalg.eigh(w)
    return (vecs * np.exp(vals)[..., None, :]) @ mT(vecs)


def test_spd_closed_form_exp_matches_eigh_inside_its_spread():
    # the closed form is within 128 ulps of max|exp(w)| of the eigh route on
    # spreads in [1e-3, 16] (worst of 3500 rows: 68, at spread 16); outside,
    # eigh runs on those rows alone and gives its own bits
    low, high = spd._EXP_SPREAD
    rng = RngStream(127, 0)
    inside = [low * 1.001, 0.01, 0.3, 1.0, 4.0, 8.0, high * 0.999]
    outside = [0.0, 1e-9, low * 0.99, high * 1.01, 40.0]
    w = _spread_rows(rng, inside + outside)
    spread = np.ptp(np.linalg.eigvalsh(w), axis=-1)
    closed = (spread > low * 1.0005) & (spread < high * 0.9995)
    assert closed.sum() == 5 * len(inside)
    _, rest = spd._exp3(w)
    np.testing.assert_array_equal(rest, ~closed)
    got = spd._expm_sym(w)
    assert _ulps(got[closed], _eigh_exp(w[closed])).max() <= 128
    assert got[~closed].tobytes() == _eigh_exp(w[~closed]).tobytes()


def test_spd_inverse_and_exponential_rows_do_not_depend_on_their_batch():
    rng = RngStream(128, 0)
    rows = _uncertified_spd3_rows(rng)[:3] + [_rotated_spd(rng, 60.0 ** rng.uniform(3))
                                                for _ in range(13)]
    order = np.argsort(rng.uniform(len(rows)))
    x = np.stack([rows[i] for i in order])
    w = _spread_rows(rng, [spd._EXP_SPREAD[0] * 0.5, 0.5, 2.0, 40.0])[:16]
    v = sym(mT(_sqrt_factor(x).root) @ w @ _sqrt_factor(x).root)
    factor = _sqrt_factor(x)
    assert factor.rest.any() and not factor.rest.all()
    handle = make_manifold("spd", N=3)
    moved = handle.exponential(x, v)
    exp_w = spd._expm_sym(w)
    assert spd._exp3(w)[1].any() and not spd._exp3(w)[1].all()
    for i in range(len(x)):
        for alone in (x[i], x[i:i + 1]):
            single = _sqrt_factor(alone)
            assert single.root_inv.shape == single.inverse.shape == alone.shape
            assert single.root_inv.tobytes() == factor.root_inv[i].tobytes()
            assert single.inverse.tobytes() == factor.inverse[i].tobytes()
        assert spd._expm_sym(w[i]).tobytes() == exp_w[i].tobytes()
        assert handle.exponential(x[i], v[i]).tobytes() == moved[i].tobytes()
        assert handle.exponential(x[i:i + 1], v[i:i + 1]).tobytes() == moved[i:i + 1].tobytes()


def test_spd_never_calls_inv(monkeypatch):
    # metric, christoffel and the exponential map read x^{-1} and x^{-1/2}
    # from the factor, on spd(2) and spd(4) (eigh rows) as on spd(3)
    rng = RngStream(129, 0)
    cases = []
    for n in (2, 3, 4):
        handle = make_manifold("spd", N=n)
        x = np.stack([handle.random_point(rng) for _ in range(8)])
        cases.append((handle, x, sym(rng.normal((8, n, n))), np.linalg.inv(x)))
    calls = count_linalg(monkeypatch, "inv", "solve")
    for handle, x, v, xinv in cases:
        np.testing.assert_allclose(handle.metric(x, v), xinv @ v @ xinv, rtol=1e-11, atol=1e-11)
        handle.christoffel(x, v, v)
        handle.exponential(x, 0.1 * v)
    assert calls == {"inv": 0, "solve": 0}


def test_spd_sigma_sends_only_the_uncertified_row_to_eigh(monkeypatch):
    handle = make_manifold("spd", N=3)
    rng = RngStream(124, 0)
    x = np.stack([_rotated_spd(rng, (1.0, 2.0, 3.0)) for _ in range(15)]
                 + [_rotated_spd(rng, (1.0, 2.0, 100.0))])
    w = sym(rng.normal((16, 3, 3)))
    rows_factored = []
    real = np.linalg.eigh

    def counted(a, *args, **kwargs):
        rows_factored.append(np.shape(a)[:-2])
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    handle.sigma(x, w)
    handle.strat_drift(x)  # the same x: the factor is reused
    assert rows_factored == [(1,)]
    x[0] *= 2.0
    handle.sigma(x, w)
    assert rows_factored == [(1,), (1,)]


def test_spd_sigma_keeps_the_symmetry_check():
    handle = make_manifold("spd", N=3)
    x = 2.0 * np.eye(3)
    x[0, 1] += 1e-6
    with pytest.raises(AsymmetricInputError):
        handle.sigma(x, np.eye(3))
    with pytest.raises(AsymmetricInputError):
        handle.strat_drift(x)
