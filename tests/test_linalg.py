import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from batteries import count_linalg
from manifold_sde.linalg import (
    frobenius_inner,
    frobenius_norm,
    mT,
    matrix_exp,
    polar_domain,
    polar_fused,
    polar_orth,
    skew,
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
    # polar_fused must agree with the separate polar_orth and values-only
    # polar_domain, and its Gram-form factor with the SVD polar factor
    rng = np.random.default_rng(3)
    a = rng.normal(size=(64,) + shape)
    a[:16] += 3.0 * np.eye(*shape)  # near the manifold, as retraction proposals are
    a[16] *= 1e-9
    point, in_domain = polar_fused(a)
    np.testing.assert_array_equal(point, polar_orth(a))
    np.testing.assert_array_equal(in_domain, polar_domain(a))
    assert not in_domain[16]
    # rows with s_min > 0.1 * max(s_max, 1) take the Gram route, whose error
    # grows like kappa^2 * eps with kappa^2 < 100 there: allow 100 ulps of 1
    # (29 seen on 3 x 3)
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    gram_rows = s[:, -1] > 0.1 * np.maximum(s[:, 0], 1.0)
    assert np.sum(gram_rows) >= 8
    err = np.max(np.abs(point - u @ vt), axis=(-2, -1))
    assert np.all(err[gram_rows] <= 100 * np.finfo(float).eps)


def _orthonormal(rng, n, p):
    return np.linalg.qr(rng.normal(size=(n, n)))[0][:, :p]


@pytest.mark.parametrize("shape", [(3, 3), (5, 3), (8, 8)])
def test_polar_domain_certificate_keeps_every_decision(shape, monkeypatch):
    n, p = shape
    rng = np.random.default_rng(6)

    def with_gram_gap(t):  # ||I - q^T q||_F = t
        s = np.sqrt(1.0 - t / np.sqrt(p))
        return _orthonormal(rng, n, p) @ (s * _orthonormal(rng, p, p))

    edge = [with_gram_gap(0.5 * (1.0 - 1e-9)), with_gram_gap(0.5 * (1.0 + 1e-9))]
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
    np.testing.assert_array_equal(polar_domain(rows), expected)
    assert polar_domain(rows[0]) == expected[0] and polar_domain(rows[1]) == expected[1]

    # the certificate holds up to ||I - q^T q||_F = 1/2: then no factorisation
    calls = count_linalg(monkeypatch, "eigvalsh", "svd")
    assert polar_domain(rows[[0, 2, 5, 6, 7, 8]]).all()
    assert calls == {"eigvalsh": 0, "svd": 0}
    assert polar_domain(rows[1])
    assert calls == {"eigvalsh": 1, "svd": 0}


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


def test_sym_eig_reconstruction():
    rng = np.random.default_rng(5)
    a = sym(rng.normal(size=(4, 4)))
    dec = sym_eig(a)
    recon = (dec.vectors * dec.values[..., None, :]) @ mT(dec.vectors)
    assert np.allclose(recon, a, atol=1e-12)
