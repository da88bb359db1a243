import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from batteries import count_linalg
from manifold_sde.linalg import (
    _NEWTON_SCHULZ_GAPS,
    frobenius_inner,
    frobenius_norm,
    mT,
    matrix_exp,
    ShapeError,
    polar_fused,
    polar_orth,
    skew,
    so_inv,
    sym,
    sym_eig,
)


def small_matrices(n, lo=-3.0, hi=3.0):
    return st.lists(
        st.floats(min_value=lo, max_value=hi, allow_nan=False, width=32),
        min_size=n * n, max_size=n * n,
    ).map(lambda v: np.array(v, dtype=float).reshape(n, n))


def test_sym_skew_decompose():
    a = np.arange(9.0).reshape(3, 3)
    assert np.allclose(sym(a) + skew(a), a)
    assert np.allclose(sym(a), mT(sym(a)))
    assert np.allclose(skew(a), -mT(skew(a)))


def test_frobenius_inner_matches_trace():
    rng = np.random.default_rng(0)
    a, b = rng.normal(size=(2, 4, 3))
    assert np.isclose(frobenius_inner(a, b), np.trace(a.T @ b))
    assert np.isclose(frobenius_norm(a) ** 2, frobenius_inner(a, a))


def test_polar_orth_properties():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(5, 3))
    q = polar_orth(a)
    assert np.allclose(q.T @ q, np.eye(3), atol=1e-12)
    # the polar factor is the nearest point in Frobenius norm: Y^T A symmetric PSD
    s = q.T @ a
    assert np.allclose(s, s.T, atol=1e-12)
    assert np.min(np.linalg.eigvalsh(sym(s))) > 0
    # idempotence on its image
    assert np.allclose(polar_orth(q), q, atol=1e-13)


@pytest.mark.parametrize("shape", [(3, 3), (8, 8), (4, 4), (5, 3), (5, 2)])
def test_polar_svd_matches_polar_orth_and_values_only_svd(shape):
    # polar_fused must agree with the separate polar_orth and the values-only
    # SVD rule, and its Newton-Schulz factor with the SVD polar factor
    rng = np.random.default_rng(3)
    a = rng.normal(size=(64,) + shape)
    # near the manifold, as retraction proposals are
    a[:16] = [_orthonormal(rng, *shape) + 0.02 * rng.normal(size=shape) for _ in range(16)]
    a[16] *= 1e-9
    point, in_domain = polar_fused(a)
    np.testing.assert_array_equal(point, polar_orth(a))
    s_ref = np.linalg.svd(a, compute_uv=False)
    np.testing.assert_array_equal(in_domain, s_ref[:, -1] > 1e-8 * np.maximum(s_ref[:, 0], 1.0))
    assert not in_domain[16]
    # rows with ||I - a^T a||_F <= 1/2 take the iteration: allow 100 ulps of 1
    certified = frobenius_norm(np.eye(shape[1]) - mT(a) @ a) <= 0.5
    assert np.sum(certified) >= 8
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    err = np.max(np.abs(point - u @ vt), axis=(-2, -1))
    assert np.all(err[certified] <= 100 * np.finfo(float).eps)


def _orthonormal(rng, n, p):
    return np.linalg.qr(rng.normal(size=(n, n)))[0][:, :p]


def _with_gram_gap(rng, n, p, t):
    """An n x p matrix q with ||I - q^T q||_F = t."""
    s = np.sqrt(1.0 - t / np.sqrt(p))
    return _orthonormal(rng, n, p) @ (s * _orthonormal(rng, p, p))


@pytest.mark.parametrize("shape", [(3, 3), (5, 3), (8, 8)])
def test_polar_domain_certificate_keeps_every_decision(shape, monkeypatch):
    n, p = shape
    rng = np.random.default_rng(6)
    edge = [_with_gram_gap(rng, n, p, 0.5 * (1.0 + d)) for d in (-1e-9, 1e-9)]
    reflection = _orthonormal(rng, n, p) * np.r_[-1.0, np.ones(p - 1)]
    rank_deficient = _orthonormal(rng, n, p) * np.r_[np.ones(p - 1), 0.0]
    near = [_orthonormal(rng, n, p) + 0.01 * rng.normal(size=shape) for _ in range(4)]
    rows = np.stack(edge + [reflection, np.zeros(shape), rank_deficient] + near)
    bad = np.stack([rows[-1]] * 4)
    for i, value in enumerate([np.nan, np.inf, -np.inf, 1e200]):
        bad[i, 0, -1] = value
    rows = np.concatenate([rows, bad])

    # the SVD rule s_min > 1e-8 max(s_max, 1), and False on a non-finite row
    finite = np.all(np.isfinite(rows), axis=(-2, -1))
    expected = np.zeros(len(rows), dtype=bool)
    s = np.linalg.svd(rows[finite], compute_uv=False)
    expected[finite] = s[:, -1] > 1e-8 * np.maximum(s[:, 0], 1.0)
    np.testing.assert_array_equal(expected[:5], [True, True, True, False, False])
    np.testing.assert_array_equal(polar_fused(rows)[1], expected)
    assert polar_fused(rows[0])[1] == expected[0] and polar_fused(rows[1])[1] == expected[1]

    # the certificate holds up to ||I - q^T q||_F = 1/2: then no factorisation
    calls = count_linalg(monkeypatch, "eigvalsh", "svd")
    assert polar_fused(rows[[0, 2, 5, 6, 7, 8]])[1].all()
    assert calls == {"eigvalsh": 0, "svd": 0}
    assert polar_fused(rows[1])[1]
    assert calls == {"eigvalsh": 0, "svd": 1}


def _gap_preimage(target):
    """The g with (3 g^2 + g^3) / 4 = target, by bisection."""
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if (3.0 * mid**2 + mid**3) / 4.0 <= target else (lo, mid)
    return lo


def test_newton_schulz_gap_table_follows_the_gap_map():
    exact = [1e-16]
    while len(exact) < len(_NEWTON_SCHULZ_GAPS):
        exact.append(_gap_preimage(exact[-1]))
    # rounded down, so no row is counted a step short
    assert np.all(_NEWTON_SCHULZ_GAPS <= exact)
    np.testing.assert_allclose(_NEWTON_SCHULZ_GAPS, exact, rtol=1e-5)
    assert _NEWTON_SCHULZ_GAPS[-2] < 0.5 < _NEWTON_SCHULZ_GAPS[-1]
    # the map bounds one step: E' = (3 E^2 + E^3) / 4 for E = I - x^T x
    rng = np.random.default_rng(8)
    for g in (1e-3, 0.1, 0.5):
        e = sym(rng.normal(size=(100, 4, 4)))
        e *= (g / frobenius_norm(e))[:, None, None]
        step = (3.0 * e @ e + e @ e @ e) / 4.0
        assert np.all(frobenius_norm(step) <= (3.0 * g**2 + g**3) / 4.0 * (1 + 1e-12))


def _polar_test_rows(rng, n, p):
    """Rows at the certificate's edge, near-orthonormal rows across the step
    counts, an orthonormal row and the identity block with a -0.0 entry (no
    step)."""
    edge = [_with_gram_gap(rng, n, p, 0.5 * (1.0 + d)) for d in (-1e-9, 1e-9)]
    near = [_orthonormal(rng, n, p) + scale / np.sqrt(n * p) * rng.normal(size=(n, p))
            for scale in (1e-12, 1e-6, 1e-3, 0.01, 0.05, 0.15)]
    eye = np.eye(n, p)
    eye[-1, 0] = -0.0
    return np.stack(edge + near + [_orthonormal(rng, n, p), eye])


def _step_counts(rows):
    """Newton-Schulz steps each row needs, from the gap map alone."""
    counts = []
    for g in frobenius_norm(np.eye(rows.shape[-1]) - mT(rows) @ rows):
        k = 0
        while g > 1e-16:
            g, k = (3.0 * g**2 + g**3) / 4.0, k + 1
        counts.append(k)
    return np.array(counts)


POLAR_SHAPES = [(3, 3), (5, 3), (8, 8), (5, 2)]


@pytest.mark.parametrize("shape", POLAR_SHAPES)
def test_newton_schulz_polar_factor_matches_the_svd(shape):
    rng = np.random.default_rng(9)
    rows = _polar_test_rows(rng, *shape)
    point, ok = polar_fused(rows)
    assert ok.all()
    eps = np.finfo(float).eps
    u, _, vt = np.linalg.svd(rows, full_matrices=False)
    assert np.max(np.abs(point - u @ vt)) <= 32 * eps
    certified = frobenius_norm(np.eye(shape[1]) - mT(rows) @ rows) <= 0.5
    np.testing.assert_array_equal(certified, np.arange(len(rows)) != 1)
    q = point[certified].astype(np.longdouble)
    assert np.max(np.abs(mT(q) @ q - np.eye(shape[1]))) <= 4 * eps
    # the identity takes no step and keeps its bits
    np.testing.assert_array_equal(point[-1].view(np.uint64), rows[-1].view(np.uint64))


@pytest.mark.parametrize("shape", POLAR_SHAPES)
def test_polar_rows_do_not_depend_on_their_batch(shape):
    rng = np.random.default_rng(10)
    rows = _polar_test_rows(rng, *shape)
    bad = np.stack([rows[3]] * 4)
    for i, value in enumerate([np.nan, np.inf, -np.inf, 1e200]):
        bad[i, 0, -1] = value
    rows = np.concatenate([rows, np.zeros((1,) + shape), bad])
    assert len(set(_step_counts(rows[:10]))) >= 4
    point, ok = polar_fused(rows)
    for i, row in enumerate(rows):
        for alone in (polar_fused(row), polar_fused(row[None])):
            np.testing.assert_array_equal(alone[0].reshape(shape).view(np.uint64),
                                          point[i].view(np.uint64))
            assert alone[1].item() == ok[i]


def test_polar_routines_keep_nonfinite_rows_from_lapack(capfd, monkeypatch):
    rng = np.random.default_rng(11)
    rows = np.stack([_orthonormal(rng, 5, 3) + 0.01 * rng.normal(size=(5, 3))
                     for _ in range(7)])
    rows[2] = rng.normal(size=(5, 3))  # an SVD row
    for i, value in enumerate([np.nan, np.inf, -np.inf], start=3):
        rows[i, 0, -1] = value
    rows[-1, 1, 0] = 1e200  # finite, but its Gram matrix overflows
    seen = []
    svd = np.linalg.svd

    def recording_svd(a, *args, **kwargs):
        seen.append(np.array(a, copy=True))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    point, ok = polar_fused(rows)
    np.testing.assert_array_equal(polar_orth(rows), point)
    np.testing.assert_array_equal(ok, [True, True, True, False, False, False, False])
    assert np.all(np.isnan(point[3:6]))
    assert np.all(np.isfinite(point[[0, 1, 2, 6]]))
    assert len(seen) == 2 and all(np.isfinite(a).all() for a in seen)
    assert capfd.readouterr().err == ""


def _with_cond_ratio(rng, r):
    """A 3 x 3 row with ||x||_F^3 = 8 r |det x|: u diag(1, 1, t) v^T, where
    (2 + t^2)^{3/2} / (8 t) = r (decreasing on (0, 1)), by bisection."""
    lo, hi = 1e-3, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if (2.0 + mid**2) ** 1.5 / (8.0 * mid) > r else (lo, mid)
    return _orthonormal(rng, 3, 3) @ np.diag([1.0, 1.0, lo]) @ _orthonormal(rng, 3, 3).T


def _schulz(x, k):
    """k Schulz steps X <- X + X (I - x X) from X = x^T, written out."""
    xinv = mT(x).copy()
    for _ in range(k):
        xinv = xinv + xinv @ (np.eye(x.shape[-1]) - x @ xinv)
    return xinv


def _so_gap(x):
    return frobenius_norm(np.eye(x.shape[-1]) - x @ mT(x).copy())


def test_so_inv_certificates_take_the_expected_rule(monkeypatch):
    rng = np.random.default_rng(12)
    calls = count_linalg(monkeypatch, "inv")
    # 3 x 3: the adjugate while ||x||_F^3 <= 8 |det x|, LAPACK past it
    inside, outside = (_with_cond_ratio(rng, 1.0 + d)[None] for d in (-1e-6, 1e-6))
    so_inv(inside)
    assert calls["inv"] == 0
    np.testing.assert_array_equal(so_inv(outside), np.linalg.inv(outside))
    assert calls["inv"] == 2  # the routine's and the reference's
    # 8 x 8: one Schulz step more past each preimage of 1e-16 under g -> g^2,
    # LAPACK past the cap; an exactly orthogonal row takes no step
    signed_permutation = np.eye(8)[rng.permutation(8)] * rng.choice([-1.0, 1.0], 8)
    assert _so_gap(signed_permutation) == 0.0
    np.testing.assert_array_equal(so_inv(signed_permutation), signed_permutation.T)
    for g, steps in [(1e-8, 1), (1e-4, 2), (1e-2, 3)]:
        for d, k in [(-1e-6, steps), (1e-6, steps + 1)]:
            x = _with_gram_gap(rng, 8, 8, g * (1.0 + d))[None]
            assert (_so_gap(x) > g) == (d > 0)
            expected = _schulz(x, k) if k <= 3 else np.linalg.inv(x)
            np.testing.assert_array_equal(so_inv(x), expected)
            assert not np.array_equal(expected, _schulz(x, k - 1))
    assert calls["inv"] == 4


def test_so_inv_matches_lapack_on_certified_rows(monkeypatch):
    rng = np.random.default_rng(13)
    cond = [_with_cond_ratio(rng, r) for r in np.linspace(0.66, 0.999, 32)]
    near = [_orthonormal(rng, 3, 3) + 0.1 * rng.normal(size=(3, 3)) for _ in range(32)]
    batches = [np.stack(cond + near)]
    for n in (2, 4, 8):
        batches.append(np.stack([_with_gram_gap(rng, n, n, g)
                                 for g in np.geomspace(1e-14, 9e-3, 48)]))
    calls = count_linalg(monkeypatch, "inv")
    results = [so_inv(rows) for rows in batches]
    assert calls["inv"] == 0
    # within 8 ulps of the row's largest entry
    for rows, xinv in zip(batches, results):
        ref = np.linalg.inv(rows)
        err = np.max(np.abs(xinv - ref), axis=(-2, -1))
        assert np.all(err <= 8 * np.finfo(float).eps * np.max(np.abs(ref), axis=(-2, -1)))


def _mixed_so_rows(rng, n):
    """64 rows: certified ones across the rules, uncertified finite ones, and
    last non-finite, overflowing and tiny ones."""
    if n == 3:
        good = [_with_cond_ratio(rng, r) for r in np.linspace(0.7, 0.99, 24)]
    else:
        good = [_with_gram_gap(rng, n, n, g) for g in np.geomspace(1e-12, 9e-3, 24)]
    far = [rng.normal(size=(n, n)) for _ in range(15)]
    near = [_orthonormal(rng, n, n) + 0.02 * rng.normal(size=(n, n)) for _ in range(16)]
    # at 1e-103 det x would be subnormal
    bad = np.stack([good[0]] * 7 + [1e200 * good[0], 1e-103 * good[0]])
    for i, value in enumerate([np.nan, np.inf, -np.inf, 1e200, np.nan, np.inf, -np.inf]):
        bad[i, i % n, -1] = value
    return np.concatenate([np.stack(good + far + near), bad])


@pytest.mark.parametrize("n", [3, 8])
def test_so_inv_rows_do_not_depend_on_their_batch(n):
    rng = np.random.default_rng(14)
    rows = _mixed_so_rows(rng, n)
    xinv = so_inv(rows)
    order = rng.permutation(64)
    shuffled = np.empty_like(xinv)
    shuffled[order] = so_inv(rows[order])
    for i, row in enumerate(rows):
        for other in (so_inv(row), so_inv(row[None])[0], shuffled[i]):
            np.testing.assert_array_equal(other.view(np.uint64), xinv[i].view(np.uint64))


@pytest.mark.parametrize("n", [3, 8])
def test_so_inv_sends_nonfinite_and_singular_rows_to_lapack(n):
    rng = np.random.default_rng(15)
    rows = _mixed_so_rows(rng, n)[-9:]
    # as np.linalg.inv leaves them, and with no RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        xinv = so_inv(rows)
    np.testing.assert_array_equal(xinv, np.linalg.inv(rows))
    assert np.all(np.isfinite(xinv[[3, 7, 8]]))
    # a singular row raises, as np.linalg.inv does on the whole batch
    singular = np.concatenate([rows[3:4], np.zeros((1, n, n)), np.ones((1, n, n))])
    for rows in (singular, singular[1:2], singular[2:]):
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.inv(rows)
        with pytest.raises(np.linalg.LinAlgError):
            so_inv(rows)


@pytest.mark.parametrize("routine,shape,message", [
    (so_inv, (2, 3), "so_inv: expected square matrices, got shape (2, 3)"),
    (polar_fused, (4, 2, 3), "polar_fused: need n >= p matrices, got shape (4, 2, 3)"),
], ids=["so_inv-2x3", "polar_fused-n-below-p"])
def test_shape_errors_name_the_routine(routine, shape, message):
    with pytest.raises(ShapeError, match=re.escape(message)):
        routine(np.ones(shape))


def test_matrix_exp_nilpotent_and_rotation():
    n = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert np.allclose(matrix_exp(n), [[1.0, 1.0], [0.0, 1.0]], atol=1e-15)
    th = 0.7
    j = np.array([[0.0, -th], [th, 0.0]])
    rot = [[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]]
    assert np.allclose(matrix_exp(j), rot, atol=1e-14)


@settings(max_examples=25, deadline=None)
@given(small_matrices(3))
def test_matrix_exp_inverse_property(a):
    a = 0.3 * a
    prod = matrix_exp(a) @ matrix_exp(-a)
    assert np.allclose(prod, np.eye(3), atol=1e-9)


def test_matrix_exp_batched_matches_loop():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(6, 3, 3))
    batched = matrix_exp(a)
    for k in range(6):
        assert np.allclose(batched[k], matrix_exp(a[k]), atol=1e-12)


def test_matrix_exp_rows_do_not_depend_on_their_batch():
    # each matrix takes its own scaling exponent and its own stopping test
    rng = np.random.default_rng(0)
    a = 0.3 * rng.normal(size=(3, 3))
    b = 5.0 * rng.normal(size=(3, 3))
    batched = matrix_exp(np.stack([a, b]))
    for k, m in enumerate((a, b)):
        for alone in (matrix_exp(m), matrix_exp(m[None])[0]):
            np.testing.assert_array_equal(alone.view(np.uint64), batched[k].view(np.uint64))


def test_sym_eig_reconstruction():
    rng = np.random.default_rng(5)
    a = sym(rng.normal(size=(4, 4)))
    dec = sym_eig(a)
    recon = (dec.vectors * dec.values[..., None, :]) @ mT(dec.vectors)
    assert np.allclose(recon, a, atol=1e-12)
