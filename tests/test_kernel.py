import math

import numpy as np
import pytest

import robustcoreset as rc
from robustcoreset.kernel import load_precomputed


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
    K = rc.gram(X, X, rc.KernelSpec("rbf", 2.0))
    np.testing.assert_array_equal(np.diag(K), np.ones(15))


def test_rbf_single_pair():
    K = rc.gram(np.array([[0.0]]), np.array([[2.0]]), rc.KernelSpec("rbf", 1.0))
    assert K[0, 0] == pytest.approx(math.exp(-4.0), rel=1e-12)


def test_linear_dot():
    K = rc.gram(np.array([[1.0, 2.0]]), np.array([[3.0, -1.0]]),
                rc.KernelSpec("linear"))
    assert K[0, 0] == pytest.approx(1.0)


def test_gram_dimension_mismatch():
    with pytest.raises(ValueError):
        rc.gram(np.ones((2, 3)), np.ones((2, 4)), rc.KernelSpec("linear"))


def test_rbf_needs_bandwidth():
    with pytest.raises(ValueError):
        rc.gram(np.ones((2, 2)), np.ones((2, 2)), rc.KernelSpec("rbf"))


def test_self_gram_psd_and_symmetric():
    rng = np.random.default_rng(1)
    for trial in range(5):
        X = rng.standard_normal((20, 3)) * rng.uniform(0.5, 3.0)
        for spec in (rc.KernelSpec("rbf", 1.7), rc.KernelSpec("linear")):
            K = rc.gram(X, X, spec)
            assert np.abs(K - K.T).max() <= 1e-12
            eig = np.linalg.eigvalsh(K)
            assert eig[0] >= -1e-8 * max(eig[-1], 1.0)


def test_cross_gram_transpose_exact():
    rng = np.random.default_rng(2)
    X1 = rng.standard_normal((7, 5))
    X2 = rng.standard_normal((11, 5))
    for spec in (rc.KernelSpec("rbf", 1.3), rc.KernelSpec("linear")):
        K12 = rc.gram(X1, X2, spec)
        K21 = rc.gram(X2, X1, spec)
        assert np.array_equal(K12, K21.T)


def test_kernel_spec_validation():
    with pytest.raises(ValueError):
        rc.KernelSpec("poly")
    with pytest.raises(ValueError):
        rc.KernelSpec("rbf", -1.0)


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
