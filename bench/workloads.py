"""Workload definitions and the seeded data generator for the sweep benchmark.

Each workload is one ``robustcoreset sweep`` invocation on a generated
LIBSVM file.  The generator mirrors the structured table surrogates used
by the test suite (per-class cluster mixtures, near-duplicate rows,
flipped far-out points, label noise, per-column scales) at a given
(n, n_plus, d) shape.  It is self-contained on purpose: the program under
test only ever sees the written file, so a change to the package cannot
change the benchmark's inputs.
"""

from dataclasses import dataclass

import numpy as np

FOLDS = 5

# name -> (n, n_plus, raw feature count) of the table each shape imitates
SHAPES = {
    "heart": (270, 120, 13),
    "splice": (1000, 517, 60),
    "australian": (690, 307, 14),
}

_STYLE = {
    "heart": dict(sep=1.1, spread=1.0, dup_frac=0.1, out_frac=1 / 16, flip=0.04),
    "splice": dict(sep=1.0, spread=1.0, dup_frac=0.1, out_frac=1 / 20, flip=0.04),
    "australian": dict(sep=1.3, spread=0.9, dup_frac=0.125, out_frac=1 / 16,
                       flip=0.03),
}


@dataclass(frozen=True)
class Workload:
    """One timed sweep: data shape and size plus the sweep's CLI options."""

    name: str
    shape: str
    n: int
    loss: str
    lambda_rule: str
    algorithm: str
    methods: tuple
    removal_grid: tuple
    why: str

    def sweep_args(self, dataset, output_dir) -> list:
        return ["sweep", "--dataset", str(dataset), "--loss", self.loss,
                "--lambda-rule", self.lambda_rule, "--algorithm", self.algorithm,
                "--folds", str(FOLDS), "--methods", ",".join(self.methods),
                "--removal-grid", ",".join(f"{f:g}" for f in self.removal_grid),
                "--output-dir", str(output_dir)]


ALL_METHODS = ("robust", "random", "herding", "kcenter", "margin")

# Sizes keep one sweep at a few seconds on a 2-core host, so a run of
# BENCHMARK.json's run_seconds takes a median over several sweeps.
WORKLOADS = {w.name: w for w in (
    Workload("exact-small", "heart", 100, "hinge", "n*10^-1.5", "0",
             ("robust", "random"), (0.05, 0.1),
             "default auto rule picks exact greedy at small n; thousands of "
             "small ball maximizations dominate"),
    Workload("fixedw-large", "splice", 500, "logistic", "n*10^-1.5", "2",
             ALL_METHODS, (0.1, 0.3, 0.5),
             "few large ball solves, many logistic retrains, the Python "
             "fixed-w loop and every baseline"),
    # Not timed: the hinge trainer misses its gap tolerance at the small
    # lambdas of the cv-best grid on some seeds, and the lambda it picks
    # swings one sweep between about 5 s and 16 s.  Kept to reproduce
    # that and to trace lambda_cv.
    Workload("cvbest-train", "australian", 345, "hinge", "cv-best", "2",
             ("robust", "random"), (0.5,),
             "small-lambda hinge training and lambda_cv dominate; "
             "selection is nearly free"),
)}


def generate(shape: str, n: int, seed: int):
    """Features (n x d) and +/-1 labels in the style of ``shape``, scaled to
    ``n`` rows with the table's positive share.  Same seed, same data.

    The distribution (cluster centres, column scales) is fixed per shape;
    the seed draws the sample.  Different seeds thus give statistically
    alike inputs, which keeps run-to-run cost differences down to sampling
    noise instead of a new problem geometry per seed.
    """
    n_table, n_plus_table, d = SHAPES[shape]
    style = _STYLE[shape]
    n_plus = int(round(n * n_plus_table / n_table))
    shape_id = sorted(SHAPES).index(shape)
    geometry = np.random.default_rng([shape_id])
    centers = {label: geometry.standard_normal((3, d)) * 1.2
               + label * style["sep"] / np.sqrt(d) for label in (1, -1)}
    scales = 10.0 ** geometry.uniform(-0.5, 1.0, size=d)
    rng = np.random.default_rng([shape_id, seed])
    X_rows, y_rows = [], []
    for label, count in ((1, n_plus), (-1, n - n_plus)):
        assign = rng.choice(3, size=count, p=[0.6, 0.3, 0.1])
        X_rows.append(centers[label][assign]
                      + rng.standard_normal((count, d)) * style["spread"])
        y_rows.append(np.full(count, label))
    X = np.vstack(X_rows)
    y = np.concatenate(y_rows)
    dup = rng.choice(n, size=int(n * style["dup_frac"]), replace=False)
    targets = rng.choice(n, size=dup.size, replace=True)
    X[dup] = X[targets] + rng.standard_normal((dup.size, d)) * 0.02
    y[dup] = y[targets]
    outliers = rng.choice(n, size=max(4, int(n * style["out_frac"])), replace=False)
    X[outliers] += rng.standard_normal((outliers.size, d)) * 6.0
    y[outliers] = -y[outliers]
    flips = rng.random(n) < style["flip"]
    y[flips] = -y[flips]
    # restore the exact positive count after the label noise
    excess = int(np.sum(y == 1)) - n_plus
    if excess:
        src = 1 if excess > 0 else -1
        idx = rng.choice(np.flatnonzero(y == src), size=abs(excess), replace=False)
        y[idx] = -src
    X = X * scales
    perm = rng.permutation(n)
    return X[perm], y[perm]


def libsvm_text(X, y) -> str:
    """LIBSVM lines with 1-based indices; zeros omitted, floats by repr."""
    lines = []
    for row, label in zip(X, y):
        fields = ["+1" if label > 0 else "-1"]
        fields += [f"{j + 1}:{float(row[j])!r}" for j in np.flatnonzero(row != 0.0)]
        lines.append(" ".join(fields))
    return "\n".join(lines) + "\n"
