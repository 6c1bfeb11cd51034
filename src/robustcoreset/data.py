"""Dataset ingestion, cross-validation splits and weight-ball radii.

Datasets are dense feature matrices with a trailing constant-1 intercept
column and labels in {-1, +1}.  Files are read and written in the sparse
LIBSVM text format (``<label> <index>:<value> ...`` with 1-based, strictly
increasing indices per line).
"""

from array import array
from dataclasses import dataclass
from math import isfinite

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


def _plain(text: str) -> bool:
    """No digit separator and no non-ASCII character: int() and float()
    also read ``1_0`` and any Unicode digits, which the format's numbers
    (C's strtol and strtod) do not."""
    return "_" not in text and text.isascii()


def _parse_line(line: str, lineno: int, cols: array, vals: array):
    """Check one nonblank line and append each entry's index and value to
    ``cols`` and ``vals``; return its label and its largest index (0 when
    it stores no entry)."""
    parts = line.split()
    try:
        label = float(parts[0])
    except ValueError:
        raise ParseError(f"line {lineno}: bad label {parts[0]!r}") from None
    plain = _plain(line)  # most lines; then no token needs the check
    if not plain and not _plain(parts[0]):
        raise ParseError(f"line {lineno}: bad label {parts[0]!r}")
    if not isfinite(label):
        raise ParseError(f"line {lineno}: label {parts[0]!r} is not finite")
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
        if not plain and not _plain(tok):
            raise ParseError(f"line {lineno}: bad token {tok!r}")
        if not isfinite(val):
            raise ParseError(f"line {lineno}: value {val_s!r} is not finite")
        if idx <= prev:  # prev >= 0, so this also catches idx < 1
            if idx < 1:
                raise ParseError(f"line {lineno}: index {idx} is not 1-based")
            if idx == prev:
                raise ParseError(f"line {lineno}: duplicate index {idx}")
            raise ParseError(f"line {lineno}: indices not increasing at {idx}")
        prev = idx
        try:
            cols.append(idx)
        except OverflowError:
            raise ParseError(f"line {lineno}: index {idx} is too large") from None
        vals.append(val)
    return label, prev


def _map_labels(values):
    """Map label values onto {-1, +1}: of two distinct values the larger
    is +1 ({-1, +1} and {0, 1} keep their meaning); a lone value is +1
    only when it is 1."""
    distinct = sorted(set(values))
    if len(distinct) > 2:
        raise ParseError(f"more than two distinct labels: {distinct}")
    positive = distinct[1] if len(distinct) == 2 else 1.0
    return np.where(np.array(values) == positive, 1, -1)


def parse_libsvm(text: str) -> Dataset:
    """Parse LIBSVM-format text into a dense Dataset with intercept column.

    Raises ParseError on malformed labels and tokens (a number with a
    digit separator or a non-ASCII digit among them), non-finite labels
    or values, duplicate or non-increasing indices (with the offending
    line number), and on empty input.  Lines are numbered as ``str.splitlines`` splits
    them.  The entries are kept in two typed buffers (16 bytes each) until
    the dense matrix is built, so no Python object per entry outlives its
    line.
    """
    labels = []
    cols, vals, counts = array("q"), array("d"), array("q")
    max_idx = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        start = len(cols)
        label, last = _parse_line(line, lineno, cols, vals)
        labels.append(label)
        counts.append(len(cols) - start)
        max_idx = max(max_idx, last)
    if not labels:
        raise ParseError("empty input")
    n, d = len(labels), max_idx + 1
    X = np.zeros((n, d))
    X[:, -1] = 1.0
    # each entry's flat position row * d + index - 1, built in the index
    # buffer itself
    flat = np.frombuffer(cols, dtype=np.int64)
    flat += np.repeat(np.arange(n) * d - 1, np.frombuffer(counts, dtype=np.int64))
    X.reshape(-1)[flat] = np.frombuffer(vals)
    return Dataset(X, _map_labels(labels))


def to_libsvm(ds: Dataset) -> str:
    """Serialize a Dataset back to LIBSVM text (intercept column dropped).

    Entries of +0.0 are omitted, -0.0 is written, and the last column's
    index is written once (on the first row) when no row stores it; float
    values use repr, so a parse round-trip reproduces the matrix, its shape
    included, bit-for-bit.
    """
    X = ds.features[:, :-1]
    stored = (X != 0.0) | np.signbit(X)
    lines = []
    for i in range(ds.n):
        fields = ["+1" if ds.labels[i] > 0 else "-1"]
        for j in np.flatnonzero(stored[i]):
            fields.append(f"{j + 1}:{float(X[i, j])!r}")
        lines.append(" ".join(fields))
    if X.shape[1] and not stored[:, -1].any():
        lines[0] += f" {X.shape[1]}:0.0"
    return "\n".join(lines) + "\n"


def cv_split(ds: Dataset, folds: int = 5, seed: int = 0) -> SplitPlan:
    """Deterministic k-fold split with both classes in every training portion.

    Fold sizes differ by at most one.  A class with fewer than two
    instances is a ValueError, as no split keeps it in every training
    portion.  Reshuffles up to ``_MAX_SPLIT_ATTEMPTS`` times when a
    training portion would lose a class, then raises SplitError.
    """
    if folds < 2:
        raise ValueError("folds must be at least 2")
    if ds.n < folds:
        raise ValueError("fewer instances than folds")
    for label in (1, -1):
        if (count := int(np.sum(ds.labels == label))) < 2:
            raise ValueError(f"class {label:+d} has {count} instance(s); a "
                             "split needs at least 2 of each class")
    rng = np.random.default_rng(seed)
    for _ in range(_MAX_SPLIT_ATTEMPTS):
        perm = rng.permutation(ds.n)
        assignments = np.empty(ds.n, dtype=int)
        for k, chunk in enumerate(np.array_split(perm, folds)):
            assignments[chunk] = k
        y_tr = (ds.labels[assignments != k] for k in range(folds))
        if all((y == 1).any() and (y == -1).any() for y in y_tr):
            return SplitPlan(assignments)
    raise SplitError(f"no class-balanced split in {_MAX_SPLIT_ATTEMPTS} attempts")


def shift_radius(n_plus: int, a: float) -> float:
    """Ball radius for a positive-class weight shift from 1 to ``a``.

    Returns sqrt(n_plus) * |a - 1|; used for the training ball radius and,
    with the validation split's positive count, for the validation ball.
    """
    if n_plus < 1:
        raise ValueError("n_plus must be at least 1")
    if not a > 0:
        raise ValueError("shift factor must be positive")
    return float(np.sqrt(n_plus) * abs(a - 1.0))


def gaussian_task(n: int, d: int, seed: int = 0, separation: float = 2.0,
                  n_plus: int | None = None) -> Dataset:
    """Two-class Gaussian blobs, handy for tests and offline demos.

    Class means sit at +/- separation/2 along a random unit direction.
    """
    if d < 1:
        raise ValueError("d must be at least 1")
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
