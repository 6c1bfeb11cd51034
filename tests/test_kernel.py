import math

import numpy as np
import pytest

import robustcoreset as rc
from robustcoreset import kernel
from robustcoreset.kernel import fold_kernels, load_precomputed

import oracles


def test_bandwidth_single_column():
    X = np.array([[0.0, 1.0], [2.0, 1.0]])
    assert rc.bandwidth_heuristic(X) == pytest.approx(1.0)


def test_bandwidth_two_columns():
    X = np.array([[0.0, 0.0, 1.0], [2.0, 2.0, 1.0]])
    assert rc.bandwidth_heuristic(X) == pytest.approx(2.0)


def test_bandwidth_constant_raises():
    X = np.ones((4, 3))
    with pytest.raises(ValueError):
        rc.bandwidth_heuristic(X)


def test_rbf_unit_diagonal():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((15, 4))
    K = rc.gram(X, X, 2.0)
    np.testing.assert_array_equal(np.diag(K), np.ones(15))


def test_rbf_single_pair():
    K = rc.gram(np.array([[0.0]]), np.array([[2.0]]), 1.0)
    assert K[0, 0] == pytest.approx(math.exp(-4.0), rel=1e-12)


def test_linear_dot():
    K = rc.gram(np.array([[1.0, 2.0]]), np.array([[3.0, -1.0]]))
    assert K[0, 0] == pytest.approx(1.0)


def test_gram_dimension_mismatch():
    with pytest.raises(ValueError):
        rc.gram(np.ones((2, 3)), np.ones((2, 4)))


def test_self_gram_psd_and_symmetric():
    rng = np.random.default_rng(1)
    for trial in range(5):
        X = rng.standard_normal((20, 3)) * rng.uniform(0.5, 3.0)
        for h in (1.7, None):
            K = rc.gram(X, X, h)
            assert np.abs(K - K.T).max() <= 1e-12
            eig = np.linalg.eigvalsh(K)
            assert eig[0] >= -1e-8 * max(eig[-1], 1.0)


def test_cross_gram_transpose_exact():
    rng = np.random.default_rng(2)
    X1 = rng.standard_normal((7, 5))
    X2 = rng.standard_normal((11, 5))
    for h in (1.3, None):
        K12 = rc.gram(X1, X2, h)
        K21 = rc.gram(X2, X1, h)
        assert np.array_equal(K12, K21.T)


def test_gram_has_the_whole_array_expressions_bytes():
    # the rbf kernel is built in place, a block of rows at a time, with
    # each entry taking the whole-array expression's operations in its
    # order: the same bytes for rbf and linear, self- and cross-Gram, with
    # fewer rows than a block, a block's and more, bandwidth given or taken
    # by the heuristic
    rng = np.random.default_rng(12)
    rows = kernel._BLOCK_ROWS
    for n in (1, rows - 1, rows, rows + 1, 2 * rows + 5):
        X = np.hstack([rng.standard_normal((n, 5)) * rng.uniform(0.3, 3.0),
                       np.ones((n, 1))])
        Y = np.hstack([rng.standard_normal((37, 5)), np.ones((37, 1))])
        for h in (None, 0.8, rc.bandwidth_heuristic(np.vstack([X, Y]))):
            for X1, X2 in ((X, X), (X, X.copy()), (X, Y), (Y, X)):
                assert rc.gram(X1, X2, h).tobytes() == \
                    oracles.gram_whole(X1, X2, h).tobytes(), (n, h)


def test_rbf_self_gram_holds_one_block_above_its_result(peak_bytes):
    # the one product X X' becomes the kernel in place, so the call holds
    # the result and a block of rows; the whole-array expression held three
    # n x n arrays at once
    n = 1500
    X = np.random.default_rng(13).standard_normal((n, 8))
    assert peak_bytes(rc.gram, X, X, 4.0) <= 1.25 * 8 * n * n
    assert peak_bytes(oracles.gram_whole, X, X, 4.0) >= 2.5 * 8 * n * n


def test_kernel_kind_and_bandwidth_validation():
    X = np.ones((3, 2))
    with pytest.raises(ValueError, match="poly"):
        fold_kernels(X, "poly", None, [0, 1], [2])
    for bandwidth in (-1.0, 0.0):
        with pytest.raises(ValueError, match="bandwidth"):
            rc.gram(X, X, bandwidth)


def test_fold_kernels_precomputed_slices_match_computed():
    # a precomputed fold takes its training block, its training-by-
    # validation block and its validation feature norms from the full Gram
    rng = np.random.default_rng(3)
    X = np.hstack([rng.standard_normal((9, 3)), np.ones((9, 1))])
    tr_idx, va_idx = np.array([0, 2, 3, 5, 6, 8]), np.array([1, 4, 7])
    for kind, h in (("rbf", 1.7), ("linear", None)):
        computed = fold_kernels(X, kind, h, tr_idx, va_idx)
        sliced = fold_kernels(rc.gram(X, X, h), "precomputed", None, tr_idx,
                              va_idx)
        for a, b in zip(computed, sliced):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)
    # the rbf heuristic reads the training rows only
    K, _, norms = fold_kernels(X, "rbf", None, tr_idx, va_idx)
    np.testing.assert_array_equal(
        K, rc.gram(X[tr_idx], X[tr_idx], rc.bandwidth_heuristic(X[tr_idx])))
    np.testing.assert_array_equal(norms, np.ones(3))
    # linear feature norms are the rows' Euclidean norms
    _, _, norms = fold_kernels(X, "linear", None, tr_idx, va_idx)
    np.testing.assert_allclose(norms, np.linalg.norm(X[va_idx], axis=1),
                               rtol=1e-15)


def test_load_precomputed(tmp_path):
    K = np.array([[1.0, 0.25], [0.25, 1.0]])
    path = tmp_path / "k.csv"
    np.savetxt(path, K, delimiter=",")
    np.testing.assert_allclose(load_precomputed(path, 2), K)
    bad_inputs = [
        (np.ones((2, 3)), 2),                        # not square
        (np.eye(2), 3),                              # fewer rows than the data
        (np.eye(4), 3),                              # more rows than the data
        (np.array([[1.0, 0.25], [0.3, 1.0]]), 2),    # not symmetric
        (np.array([[1.0, 1.3], [1.3, 1.0]]), 2),     # min eigenvalue -0.3
        (np.array([[1.0, np.nan], [np.nan, 1.0]]), 2),
    ]
    for k, (bad_K, n) in enumerate(bad_inputs):
        bad = tmp_path / f"bad{k}.csv"
        np.savetxt(bad, bad_K, delimiter=",")
        with pytest.raises(ValueError):
            load_precomputed(bad, n)


def test_precomputed_diagonal_below_zero_gives_a_zero_norm(tmp_path):
    # min eigenvalue -1e-12 is within load_precomputed's PSD tolerance; the
    # validation row's feature norm is clipped to 0.0, not sqrt'd to NaN
    path = tmp_path / "k.csv"
    np.savetxt(path, np.array([[1.0, 0.0], [0.0, -1e-12]]), delimiter=",")
    K = load_precomputed(path, 2)
    assert K[1, 1] < 0.0
    _, _, norms = fold_kernels(K, "precomputed", None, np.array([0]),
                               np.array([1]))
    assert norms.tolist() == [0.0]
