import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from manifold_sde.linalg import (
    frobenius_inner,
    frobenius_norm,
    mT,
    matrix_exp,
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
