"""Benchmark tables for tests: real LIBSVM files when available, otherwise
deterministic surrogates with the same (n, n_plus, d) signature.

Real files are looked up in $ROBUSTCORESET_DATA, ./data, or the repo-level
data/ directory, each under its table name (``heart``, ``splice``, ...).
Nothing in the repository downloads them: copy the LIBSVM-format files
there by hand to test on the real tables.
"""

import os
from pathlib import Path

import numpy as np

import robustcoreset as rc

# name -> (n, n_plus, raw feature count)
TABLE_SHAPES = {
    "australian": (690, 307, 14),
    "breast-cancer": (683, 239, 10),
    "heart": (270, 120, 13),
    "ionosphere": (351, 225, 34),
    "splice": (1000, 517, 60),
}

_SURROGATE_SEEDS = {name: 1000 + i for i, name in enumerate(sorted(TABLE_SHAPES))}


def _search_dirs():
    dirs = []
    env = os.environ.get("ROBUSTCORESET_DATA")
    if env:
        dirs.append(Path(env))
    dirs.append(Path.cwd() / "data")
    dirs.append(Path(__file__).resolve().parent.parent / "data")
    return dirs


# duplicate share / quantization mimic each dataset's character (the real
# breast-cancer file is an integer grid with heavy row duplication)
_SURROGATE_STYLE = {
    "australian": dict(sep=1.3, spread=0.9, dup_frac=0.125, out_frac=1 / 16,
                       flip=0.03, quantize=None),
    "breast-cancer": dict(sep=1.7, spread=0.8, dup_frac=0.4, out_frac=1 / 24,
                          flip=0.02, quantize=10),
    "heart": dict(sep=1.1, spread=1.0, dup_frac=0.1, out_frac=1 / 16,
                  flip=0.04, quantize=None),
    "ionosphere": dict(sep=1.3, spread=0.9, dup_frac=0.1, out_frac=1 / 16,
                       flip=0.03, quantize=None),
    "splice": dict(sep=1.0, spread=1.0, dup_frac=0.1, out_frac=1 / 20,
                   flip=0.04, quantize=None),
}


def _surrogate(name):
    """Structured stand-in: per-class cluster mixtures, near-duplicate rows,
    a sprinkle of mislabeled far-out points and label noise.  Matches the
    real dataset's (n, n_plus, d) but not its content."""
    n, n_plus, d_raw = TABLE_SHAPES[name]
    style = _SURROGATE_STYLE[name]
    seed = _SURROGATE_SEEDS[name]
    rng = np.random.default_rng(seed)
    counts = {1: n_plus, -1: n - n_plus}
    X_rows, y_rows = [], []
    for label, count in counts.items():
        centers = rng.standard_normal((3, d_raw)) * 1.2
        centers += label * style["sep"] / np.sqrt(d_raw)
        weights = np.array([0.6, 0.3, 0.1])
        assign = rng.choice(3, size=count, p=weights)
        pts = centers[assign] + rng.standard_normal((count, d_raw)) * style["spread"]
        X_rows.append(pts)
        y_rows.append(np.full(count, label))
    X = np.vstack(X_rows)
    y = np.concatenate(y_rows)
    dup = rng.choice(n, size=int(n * style["dup_frac"]), replace=False)
    targets = rng.choice(n, size=dup.size, replace=True)
    X[dup] = X[targets] + rng.standard_normal((dup.size, d_raw)) * 0.02
    y[dup] = y[targets]
    outliers = rng.choice(n, size=max(4, int(n * style["out_frac"])),
                          replace=False)
    X[outliers] += rng.standard_normal((outliers.size, d_raw)) * 6.0
    y[outliers] = -y[outliers]
    flips = rng.random(n) < style["flip"]
    y[flips] = -y[flips]
    # rebalance to the exact positive count after noise
    pos_excess = int(np.sum(y == 1)) - n_plus
    if pos_excess > 0:
        idx = rng.choice(np.flatnonzero(y == 1), size=pos_excess, replace=False)
        y[idx] = -1
    elif pos_excess < 0:
        idx = rng.choice(np.flatnonzero(y == -1), size=-pos_excess, replace=False)
        y[idx] = 1
    if style["quantize"]:
        lo, hi = X.min(axis=0), X.max(axis=0)
        grid = np.round((X - lo) / (hi - lo) * (style["quantize"] - 1)) + 1.0
        X = grid
        scales = np.ones(d_raw)
    else:
        scales = 10.0 ** rng.uniform(-0.5, 1.0, size=d_raw)
    perm = rng.permutation(n)
    return rc.Dataset.from_arrays(X[perm] * scales, y[perm])


def load_table_dataset(name):
    """Returns (dataset, source) with source in {"libsvm", "surrogate"}."""
    for directory in _search_dirs():
        path = directory / name
        if path.is_file():
            ds = rc.parse_libsvm(path.read_text())
            return ds, "libsvm"
    return _surrogate(name), "surrogate"
