"""Dataset ingestion, cross-validation splits and weight-ball radii.

Datasets are dense feature matrices with a trailing constant-1 intercept
column and labels in {-1, +1}.  Files are read and written in the sparse
LIBSVM text format (``<label> <index>:<value> ...`` with 1-based, strictly
increasing indices per line).
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Dataset",
    "SplitPlan",
    "ParseError",
    "SplitError",
    "parse_libsvm",
    "to_libsvm",
    "cv_split",
    "shift_radius",
    "gaussian_task",
]

_MAX_SPLIT_ATTEMPTS = 100


class ParseError(ValueError):
    """Malformed LIBSVM input; message carries the 1-based line number."""


class SplitError(RuntimeError):
    """No class-balanced cross-validation split found within the retry budget."""


@dataclass(frozen=True)
class Dataset:
    """Labeled feature matrix. ``features`` includes the intercept column.

    ``d`` counts the intercept, so a file with maximum feature index 3
    yields ``d == 4``.
    """

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        X = np.asarray(self.features, dtype=float)
        y = np.asarray(self.labels)
        if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
            raise ValueError("features must be n x d with one label per row")
        if not np.isfinite(X).all():
            raise ValueError("features contain non-finite entries")
        if not np.isin(y, (-1, 1)).all():
            raise ValueError("labels must be -1 or +1")
        object.__setattr__(self, "features", X)
        object.__setattr__(self, "labels", y.astype(int))

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    @property
    def n_plus(self) -> int:
        return int(np.sum(self.labels == 1))

    def subset(self, indices) -> "Dataset":
        idx = np.asarray(indices, dtype=int)
        return Dataset(self.features[idx], self.labels[idx])

    @staticmethod
    def from_arrays(X, y) -> "Dataset":
        """Build a Dataset from raw features (no intercept yet) and labels."""
        X = np.asarray(X, dtype=float)
        ones = np.ones((X.shape[0], 1))
        return Dataset(np.hstack([X, ones]), np.asarray(y))


@dataclass(frozen=True)
class SplitPlan:
    """Fold assignment for k-fold cross-validation (train:validation 4:1)."""

    assignments: np.ndarray

    def val_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignments == fold)

    def train_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignments != fold)


def _parse_line(line: str, lineno: int):
    parts = line.split()
    try:
        label = float(parts[0])
    except ValueError:
        raise ParseError(f"line {lineno}: bad label {parts[0]!r}") from None
    pairs = []
    prev = 0
    for tok in parts[1:]:
        idx_s, sep, val_s = tok.partition(":")
        if not sep:
            raise ParseError(f"line {lineno}: expected index:value, got {tok!r}")
        try:
            idx = int(idx_s)
            val = float(val_s)
        except ValueError:
            raise ParseError(f"line {lineno}: bad token {tok!r}") from None
        if idx < 1:
            raise ParseError(f"line {lineno}: index {idx} is not 1-based")
        if idx == prev:
            raise ParseError(f"line {lineno}: duplicate index {idx}")
        if idx < prev:
            raise ParseError(f"line {lineno}: indices not increasing at {idx}")
        prev = idx
        pairs.append((idx, val))
    return parts[0], label, pairs


def _map_labels(raw_tokens, values):
    """Map raw labels onto {-1, +1}.

    Labels already in {-1, +1} keep their sign, {0, 1} maps 0 to -1; any
    other pair of labels is binarized with the lexicographically smaller
    raw token becoming -1.
    """
    distinct = sorted(set(values))
    if set(distinct) <= {-1.0, 1.0}:
        return np.array([int(v) for v in values])
    if set(distinct) <= {0.0, 1.0}:
        return np.array([1 if v == 1.0 else -1 for v in values])
    raw_distinct = sorted(set(raw_tokens))
    if len(raw_distinct) > 2:
        raise ParseError(f"more than two distinct labels: {raw_distinct}")
    neg = raw_distinct[0]
    return np.array([-1 if tok == neg else 1 for tok in raw_tokens])


def parse_libsvm(text: str) -> Dataset:
    """Parse LIBSVM-format text into a dense Dataset with intercept column.

    Raises ParseError on malformed tokens, duplicate or non-increasing
    indices (with the offending line number), and on empty input.
    """
    raw_tokens, values, rows = [], [], []
    max_idx = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        tok, label, pairs = _parse_line(line, lineno)
        raw_tokens.append(tok)
        values.append(label)
        rows.append(pairs)
        if pairs:
            max_idx = max(max_idx, pairs[-1][0])
    if not rows:
        raise ParseError("empty input")
    n = len(rows)
    X = np.zeros((n, max_idx + 1))
    X[:, -1] = 1.0
    for i, pairs in enumerate(rows):
        for idx, val in pairs:
            X[i, idx - 1] = val
    y = _map_labels(raw_tokens, values)
    return Dataset(X, y)


def to_libsvm(ds: Dataset) -> str:
    """Serialize a Dataset back to LIBSVM text (intercept column dropped).

    Zero entries are omitted; float values use repr so a parse round-trip
    reproduces the matrix bit-for-bit.
    """
    lines = []
    X = ds.features[:, :-1]
    for i in range(ds.n):
        fields = ["+1" if ds.labels[i] > 0 else "-1"]
        for j in np.flatnonzero(X[i] != 0.0):
            fields.append(f"{j + 1}:{float(X[i, j])!r}")
        lines.append(" ".join(fields))
    return "\n".join(lines) + "\n"


def cv_split(ds: Dataset, folds: int = 5, seed: int = 0) -> SplitPlan:
    """Deterministic k-fold split with both classes in every training portion.

    Fold sizes differ by at most one.  Reshuffles up to
    ``_MAX_SPLIT_ATTEMPTS`` times when a training portion would lose a
    class, then raises SplitError.
    """
    if folds < 2:
        raise ValueError("folds must be at least 2")
    if ds.n < folds:
        raise ValueError("fewer instances than folds")
    rng = np.random.default_rng(seed)
    for _ in range(_MAX_SPLIT_ATTEMPTS):
        perm = rng.permutation(ds.n)
        assignments = np.empty(ds.n, dtype=int)
        for k, chunk in enumerate(np.array_split(perm, folds)):
            assignments[chunk] = k
        ok = True
        for k in range(folds):
            y_tr = ds.labels[assignments != k]
            if not ((y_tr == 1).any() and (y_tr == -1).any()):
                ok = False
                break
        if ok:
            return SplitPlan(assignments)
    raise SplitError(f"no class-balanced split in {_MAX_SPLIT_ATTEMPTS} attempts")


def shift_radius(n_plus: int, a: float) -> float:
    """Ball radius for a positive-class weight shift from 1 to ``a``.

    Returns sqrt(n_plus) * |a - 1|; used for the training ball radius and,
    with the validation split's positive count, for the validation ball.
    """
    if n_plus < 1:
        raise ValueError("n_plus must be at least 1")
    if a <= 0:
        raise ValueError("shift factor must be positive")
    return float(np.sqrt(n_plus) * abs(a - 1.0))


def gaussian_task(n: int, d: int, seed: int = 0, separation: float = 2.0,
                  n_plus: int | None = None) -> Dataset:
    """Two-class Gaussian blobs, handy for tests and offline demos.

    Class means sit at +/- separation/2 along a random unit direction.
    """
    if n_plus is None:
        n_plus = n // 2
    if not 0 < n_plus < n:
        raise ValueError("n_plus must be strictly between 0 and n")
    rng = np.random.default_rng(seed)
    direction = rng.standard_normal(d)
    direction /= np.linalg.norm(direction)
    y = np.concatenate([np.ones(n_plus, dtype=int), -np.ones(n - n_plus, dtype=int)])
    X = rng.standard_normal((n, d)) + np.outer(y, direction) * (separation / 2.0)
    perm = rng.permutation(n)
    return Dataset.from_arrays(X[perm], y[perm])
