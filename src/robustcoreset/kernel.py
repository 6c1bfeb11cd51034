"""Kernel matrices; the only module that knows the kernel kinds (``KINDS``).

"rbf" is exp(-||x - x'||^2 / bandwidth), by default with the pooled-variance
bandwidth d' * Var(X) (d' excludes the intercept column; the reciprocal of
sklearn's ``gamma='scale'``), "linear" is x . x', and "precomputed" is a
validated Gram matrix (``load_precomputed``) whose rows stand in for the
features.  ``check_rows`` rejects rows no fold can build a kernel from, and
``fold_kernels`` gives one fold's kernel arrays and feature norms.
"""

import numpy as np

__all__ = ["KINDS", "bandwidth_heuristic", "gram", "check_rows",
           "fold_kernels", "load_precomputed"]

KINDS = ("rbf", "linear", "precomputed")


def bandwidth_heuristic(X: np.ndarray) -> float:
    """Pooled-variance RBF bandwidth: d' * Var over non-intercept entries.

    ``X`` is expected to carry the intercept in its last column; it is
    excluded from both the column count and the variance pool.  Raises on
    constant (zero-variance) data.
    """
    X = np.asarray(X, dtype=float)
    if X.size == 0:
        raise ValueError("empty feature matrix")
    body = X[:, :-1]
    if body.shape[1] == 0:
        raise ValueError("no non-intercept columns")
    var = float(body.var())
    if var <= 0.0:
        raise ValueError("zero variance: degenerate feature matrix")
    return body.shape[1] * var


_BLOCK_ROWS = 128  # rows of the rbf kernel transformed per pass


def gram(X1, X2, bandwidth: float | None = None) -> np.ndarray:
    """Kernel matrix between the rows of X1 and X2: RBF at ``bandwidth``,
    linear when it is None.  The rbf path uses ||a-b||^2 = ||a||^2 + ||b||^2
    - 2 a.b with tiny negatives clamped to zero, so a self-Gram has an exact
    unit diagonal.  It turns the one product X1 X2' into the kernel in
    place, ``_BLOCK_ROWS`` rows at a time, so it holds the result and one
    block on top; each entry takes the same operations in the same order
    as the whole-array expression exp(-max(d2, 0) / bandwidth)."""
    X1 = np.asarray(X1, dtype=float)
    X2 = np.asarray(X2, dtype=float)
    if X1.ndim != 2 or X2.ndim != 2 or X1.shape[1] != X2.shape[1]:
        raise ValueError("feature dimension mismatch")
    if bandwidth is None:
        return X1 @ X2.T
    if not bandwidth > 0:
        raise ValueError("rbf bandwidth must be positive")
    sq1 = np.einsum("ij,ij->i", X1, X1)
    sq2 = np.einsum("ij,ij->i", X2, X2)
    same = X1 is X2 or (X1.shape == X2.shape and np.array_equal(X1, X2))
    K = X1 @ X2.T
    sums = np.empty((min(_BLOCK_ROWS, K.shape[0]), K.shape[1]))
    for start in range(0, K.shape[0], _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        block = K[rows]
        part = sums[:len(block)]
        np.multiply(block, 2.0, out=block)
        np.add(sq1[rows, None], sq2, out=part)
        np.subtract(part, block, out=block)  # squared distances d2
        np.maximum(block, 0.0, out=block)
        if same:
            np.fill_diagonal(block[:, rows], 0.0)
        np.negative(block, out=block)
        np.divide(block, bandwidth, out=block)
        np.exp(block, out=block)
    return K


def check_rows(X, kind: str, bandwidth: float | None):
    """Reject the rows ``X`` of a whole dataset when no fold could build its
    kernel from them: rbf without a bandwidth takes the heuristic on each
    fold's training rows, which fails on every fold when the data has no
    non-intercept column or no variance at all."""
    if kind == "rbf" and bandwidth is None:
        bandwidth_heuristic(X)


def fold_kernels(X, kind: str, bandwidth: float | None, tr_idx, va_idx):
    """Training Gram, training-by-validation Gram and validation feature
    norms sqrt(max(k(x, x), 0)) of one fold of the rows ``X`` (kernel rows
    for "precomputed"); rbf without a bandwidth takes the heuristic on the
    training rows."""
    if kind == "precomputed":
        return (X[np.ix_(tr_idx, tr_idx)], X[np.ix_(tr_idx, va_idx)],
                np.sqrt(np.clip(np.diag(X)[va_idx], 0.0, None)))
    X_tr, X_va = X[tr_idx], X[va_idx]
    if kind == "rbf":
        h = bandwidth_heuristic(X_tr) if bandwidth is None else bandwidth
        return gram(X_tr, X_tr, h), gram(X_tr, X_va, h), np.ones(len(va_idx))
    if kind == "linear":
        return (gram(X_tr, X_tr), gram(X_tr, X_va),
                np.sqrt(np.einsum("ij,ij->i", X_va, X_va)))
    raise ValueError(f"unknown kernel kind {kind!r}")


def load_precomputed(path, n: int) -> np.ndarray:
    """Read a header-free, row-major CSV kernel matrix for n instances.

    The bound needs a valid kernel: the matrix must be n x n, finite,
    symmetric and positive semidefinite (min eigenvalue >= -1e-8 *
    max(1, max eigenvalue)), since the ball maximization puts its maximum
    on the boundary only for a PSD quadratic.  Anything else raises
    ValueError.
    """
    K = np.loadtxt(path, delimiter=",", ndmin=2)
    if K.shape != (n, n):
        raise ValueError(f"precomputed kernel must be {n}x{n} for {n} rows, "
                         f"got {K.shape[0]}x{K.shape[1]}")
    if (not np.isfinite(K).all()
            or np.abs(K - K.T).max() > 1e-8 * max(1.0, np.abs(K).max())):
        raise ValueError("precomputed kernel is not a finite symmetric matrix")
    eig = np.linalg.eigvalsh(K)
    if eig[0] < -1e-8 * max(1.0, eig[-1]):
        raise ValueError(f"precomputed kernel is not positive semidefinite "
                         f"(min eigenvalue {eig[0]:.3g})")
    return K
