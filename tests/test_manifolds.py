import hashlib

import numpy as np
import pytest

from batteries import GEOMETRY_BATTERY, IDS
from manifold_sde import (
    MANIFOLD_NAMES,
    check_metric_compatibility,
    check_projection,
    make_manifold,
)
from manifold_sde.geometry import ambient_basis, brownian_ito_drift
from manifold_sde.linalg import frobenius_norm, matrix_exp, mT, sym
from manifold_sde.manifolds.hypersurface import make_hypersurface
from manifold_sde.manifolds.lie_group import LIE_KINDS, random_spd_coeff
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


# sha256 over every output of the group handles, per kind, for N = 1..4 where
# the kind exists and metric_seed None and 4.  Recorded before the group
# module was rewritten as one construction, so it pins that rewrite bit for bit.
LIE_GROUP_DIGESTS = {
    "gl+": "0c02d01471f5d9ebc2f5ec5c6680da5300188b4e2b50470a93a3be8624bfa398",
    "sl": "5e85ef24543d2b59013e3b845f9ee4a8bb6132bbd1398e7972f37cb034714468",
    "so": "a88170cb559e8c406b471da0346ce28bda04690c40494d5795a87b305a0cbfe5",
    "se": "b4cc0a08fe37e5b808e12cd82f5cdb23ebb6c4682501166fe29c3d4b722226b1",
    "aff": "2b7036a570128fb4890d8d93af8416fd2270e8d6aa89133538d3b550599c8124",
}


def _feeder(digest):
    def feed(*arrays):
        for a in arrays:
            a = np.ascontiguousarray(a)
            digest.update(repr((a.dtype.str, a.shape)).encode())
            digest.update(a.tobytes())
    return feed


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
                 *handle.tubular.mapping(q), handle.tubular.domain(q),
                 handle.tubular.differential(x, u), handle.domain_ok(q),
                 *handle.tubular.retract(bad, np.concatenate([base, x[:1]])))
            for c in handle.constraints:
                feed(c.value(q), c.grad(x), c.hess(x, u, v))
            feed(np.array([handle.dim, handle.compact, len(handle.constraints)]))
    return digest.hexdigest()


@pytest.mark.parametrize("kind", LIE_KINDS)
def test_lie_group_handles_are_pinned(kind):
    assert _lie_group_digest(kind) == LIE_GROUP_DIGESTS[kind]


# the same over every Grassmann handle output for (n, p) in (2, 1), (4, 2),
# (5, 3) and (4, 4), recorded before Grassmann was rebuilt on the Stiefel handle
GRASSMANN_DIGEST = "7ff73e4d92bda118ed2b3594aacbd3427962c8276bbbffdd84d21f82f9fc75fc"


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
             *handle.tubular.mapping(q), handle.tubular.domain(q),
             handle.tubular.differential(x, u), handle.domain_ok(q),
             *handle.tubular.retract(bad, np.concatenate([x, x[:2]])),
             handle.functional_point(x), handle.default_point())
        for c in handle.constraints:
            feed(c.value(q), c.grad(x), c.hess(x, u, v))
        feed(np.array([handle.dim, handle.compact, len(handle.constraints)]))
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


def test_gl_positive_det_domain():
    handle = make_manifold("gl+", N=2)
    assert handle.domain_ok(np.eye(2))
    assert not handle.domain_ok(np.diag([1.0, -1.0]))


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


def _spd_rows_near_the_domain_edge():
    """65 symmetric 3x3 rows whose smallest eigenvalue sits on, just above or
    just below the domain threshold 1e-10, or clearly inside or outside it;
    each also scaled by 1e8, plus the zero matrix."""
    rng = RngStream(118, 0)
    rows = []
    for lam in (1e-10 * (1 + 1e-6), 1e-10 * (1 - 1e-6), 1e-10, 0.0, -1e-3, 1e-9, 1e-11, 1.0):
        diag = np.diag([lam, 1.0, 2.0])
        rows.append(diag)
        for _ in range(3):
            q, _ = np.linalg.qr(rng.normal((3, 3)))
            rows.append(q @ diag @ q.T)
    rows += [1e8 * r for r in rows]
    rows.append(np.zeros((3, 3)))
    return sym(np.stack(rows))


def test_spd_domain_certificate_decides_as_eigvalsh():
    from manifold_sde.manifolds.spd import _CERTIFY_ROWS, _certified_positive

    domain = make_manifold("spd", N=3).tubular.domain
    s = _spd_rows_near_the_domain_edge()
    assert s.shape[0] >= _CERTIFY_ROWS  # large enough to take the certificate
    expected = np.linalg.eigvalsh(s)[:, 0] > 1e-10
    certified = _certified_positive(s)
    assert certified.any() and not certified.all()
    assert not np.any(certified & ~expected)  # a certified row is accepted
    np.testing.assert_array_equal(domain(s), expected)
    np.testing.assert_array_equal(domain(s[:64].reshape(8, 8, 3, 3)), expected[:64].reshape(8, 8))
    for row, want in zip(s, expected):  # unbatched
        got = domain(row)
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
