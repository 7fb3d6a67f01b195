"""SVD rank rule and sign convention, eigenvalue/direct-norm/LAPACK oracles, truncation."""

import numpy as np
import pytest

from rosita_mini import factorization as F
from rosita_mini.tensor import ShapeError
from support import reconstruct, reconstruction_error


def test_svd_diagonal():
    res = F.svd(np.diag([3.0, 2.0, 1.0]))
    np.testing.assert_allclose(res.sigma, [3.0, 2.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(reconstruct(res), np.diag([3.0, 2.0, 1.0]), atol=1e-12)


def test_svd_rank_one():
    u = np.array([1.0, 2.0, 2.0])
    v = np.array([3.0, 4.0])
    res = F.svd(np.outer(u, v))
    expected = np.linalg.norm(u) * np.linalg.norm(v)
    assert abs(res.sigma[0] - expected) < 1e-10
    np.testing.assert_allclose(res.sigma[1:], 0.0, atol=1e-10)
    np.testing.assert_allclose(reconstruct(res), np.outer(u, v), atol=1e-10)
    # orthonormal even with a zero singular value
    np.testing.assert_allclose(res.U.T @ res.U, np.eye(2), atol=1e-10)


def test_svd_random_orthonormal_and_sigma_oracle():
    rng = np.random.default_rng(42)
    w = rng.normal(size=(50, 20))
    res = F.svd(w)
    np.testing.assert_allclose(res.U.T @ res.U, np.eye(20), atol=1e-10)
    np.testing.assert_allclose(res.V @ res.V.T, np.eye(20), atol=1e-10)
    assert np.linalg.norm(w - reconstruct(res)) <= 1e-8
    assert (np.diff(res.sigma) <= 1e-12).all()
    # independent oracle: eigenvalues of the Gram matrix W^T W
    eig = np.sort(np.linalg.eigvalsh(w.T @ w))[::-1]
    np.testing.assert_allclose(res.sigma, np.sqrt(np.maximum(eig, 0.0)), atol=1e-6)


def test_svd_wide_matrix():
    rng = np.random.default_rng(3)
    w = rng.normal(size=(8, 30))
    res = F.svd(w)
    assert res.U.shape == (8, 8) and res.V.shape == (8, 30)
    np.testing.assert_allclose(res.U.T @ res.U, np.eye(8), atol=1e-10)
    np.testing.assert_allclose(res.V @ res.V.T, np.eye(8), atol=1e-10)
    assert np.linalg.norm(w - reconstruct(res)) <= 1e-8


def test_svd_sign_convention_reproducible():
    rng = np.random.default_rng(9)
    w = rng.normal(size=(12, 5))
    a, b = F.svd(w), F.svd(w.copy())
    np.testing.assert_array_equal(a.U, b.U)
    np.testing.assert_array_equal(a.V, b.V)
    for c in range(5):
        first_nz = np.nonzero(np.abs(a.U[:, c]) > 1e-9)[0][0]
        assert a.U[first_nz, c] > 0


def test_svd_rejects_nonfinite():
    with pytest.raises(ValueError):
        F.svd(np.array([[1.0, np.inf], [0.0, 1.0]]))


def assert_matches_lapack(w, res, r=None, tol=1e-12):
    """The stated tolerance against np.linalg.svd: sigma within tol * sigma_1,
    orthonormal factors to tol, and the rank-r truncation error equal to the
    Eckart-Young optimum to tol relative."""
    k = min(w.shape)
    oracle = np.linalg.svd(w, compute_uv=False)
    assert np.abs(res.sigma - oracle).max() <= tol * oracle[0]
    np.testing.assert_allclose(res.U.T @ res.U, np.eye(k), rtol=0, atol=tol)
    np.testing.assert_allclose(res.V @ res.V.T, np.eye(k), rtol=0, atol=tol)
    if r is not None:
        optimum = np.sqrt((oracle[r:] ** 2).sum())
        err = reconstruction_error(w, *F.truncate(res, r))
        assert abs(err - optimum) <= tol * optimum


def test_svd_bench_shape_matches_lapack():
    # the one_step_svd embedding: 4006 words x d_X 64 at init scale
    w = np.random.default_rng(11).normal(0.0, 0.02, size=(4006, 64))
    assert_matches_lapack(w, F.svd(w), r=10)


def test_svd_odd_column_count():
    w = np.random.default_rng(12).normal(size=(40, 7))
    assert_matches_lapack(w, F.svd(w), r=3)


def test_svd_rank_deficient_tall_completes_u():
    rng = np.random.default_rng(14)
    w = rng.normal(size=(60, 3)) @ rng.normal(size=(3, 8))
    res = F.svd(w)
    assert_matches_lapack(w, res)
    np.testing.assert_array_equal(res.sigma[3:], 0.0)
    assert np.linalg.norm(w - reconstruct(res)) <= 1e-11 * np.linalg.norm(w)


def test_svd_exactly_orthogonal_columns():
    # a permuted diagonal: singular values and reconstruction are exact
    w = np.zeros((6, 4))
    w[[0, 2, 3, 5], [2, 0, 3, 1]] = [1.0, 4.0, 2.0, 3.0]
    res = F.svd(w)
    np.testing.assert_array_equal(res.sigma, [4.0, 3.0, 2.0, 1.0])
    np.testing.assert_array_equal(reconstruct(res), w)


def test_svd_equal_norm_columns_rotate():
    # two columns of equal norm that are not orthogonal
    w = np.array([[1.0, 0.6], [0.0, 0.8]])
    assert_matches_lapack(w, F.svd(w), r=1)


def test_truncate_full_rank_reconstructs():
    rng = np.random.default_rng(1)
    w = rng.normal(size=(20, 10))
    res = F.svd(w)
    e_u, e_v = F.truncate(res, 10)
    assert np.linalg.norm(w - e_u @ e_v) <= 1e-8


def test_truncate_diag_drops_smallest():
    w = np.diag([3.0, 2.0, 1.0])
    e_u, e_v = F.truncate(F.svd(w), 2)
    assert abs(reconstruction_error(w, e_u, e_v) - 1.0) <= 1e-10


def test_truncate_eckart_young():
    rng = np.random.default_rng(8)
    w = rng.normal(size=(30, 12))
    res = F.svd(w)
    for r in (1, 4, 9, 12):
        e_u, e_v = F.truncate(res, r)
        err = reconstruction_error(w, e_u, e_v)
        # direct norm of the dropped tail
        expect = np.sqrt((res.sigma[r:] ** 2).sum())
        assert abs(err - expect) <= 1e-8


def test_truncate_error_monotone_in_rank():
    rng = np.random.default_rng(13)
    w = rng.normal(size=(25, 9))
    res = F.svd(w)
    errs = [reconstruction_error(w, *F.truncate(res, r)) for r in range(1, 10)]
    assert all(errs[i + 1] <= errs[i] + 1e-12 for i in range(len(errs) - 1))


def test_truncate_rank_out_of_range():
    res = F.svd(np.eye(3))
    with pytest.raises(ValueError):
        F.truncate(res, 0)
    with pytest.raises(ValueError):
        F.truncate(res, 4)


def test_truncate_sqrt_sigma_absorption():
    w = np.diag([4.0, 1.0])
    e_u, e_v = F.truncate(F.svd(w), 2)
    # columns of E_U and rows of E_V both carry sqrt(sigma)
    np.testing.assert_allclose(np.linalg.norm(e_u, axis=0), [2.0, 1.0], atol=1e-10)
    np.testing.assert_allclose(np.linalg.norm(e_v, axis=1), [2.0, 1.0], atol=1e-10)


def test_svd_idempotent_on_sigma():
    rng = np.random.default_rng(21)
    w = rng.normal(size=(15, 6))
    first = F.svd(w)
    second = F.svd(reconstruct(first))
    np.testing.assert_allclose(first.sigma, second.sigma, atol=1e-8)


def test_reconstruction_error_exact_factors():
    rng = np.random.default_rng(2)
    e_u = rng.normal(size=(10, 4))
    e_v = rng.normal(size=(4, 6))
    w = e_u @ e_v
    assert reconstruction_error(w, e_u, e_v) <= 1e-10


def test_reconstruction_error_zero_factor_gives_norm():
    rng = np.random.default_rng(4)
    w = rng.normal(size=(7, 5))
    err = reconstruction_error(w, np.zeros((7, 3)), np.zeros((3, 5)))
    # elementwise sum-of-squares oracle
    assert abs(err - np.sqrt((w * w).sum())) < 1e-12


def test_reconstruction_error_random_cross_check():
    rng = np.random.default_rng(5)
    w = rng.normal(size=(6, 6))
    e_u = rng.normal(size=(6, 2))
    e_v = rng.normal(size=(2, 6))
    diff = w - e_u @ e_v
    oracle = np.sqrt(sum(diff[i, j] ** 2 for i in range(6) for j in range(6)))
    assert abs(reconstruction_error(w, e_u, e_v) - oracle) < 1e-12


def test_reconstruction_error_shape_mismatch():
    with pytest.raises(ShapeError):
        reconstruction_error(np.zeros((3, 3)), np.zeros((3, 2)), np.zeros((3, 3)))
