"""Experiment harness: fold-wise selection sweeps with certified bounds.

One sweep, per fold of a k-fold split: train the reference model, build
the gap quadratic, produce coresets for every requested method and
retained size, retrain on each coreset with uniform weights, score the
worst-case weighted validation accuracy over the validation weight ball,
and attach the certified lower bound.  Rows land in ``report.csv`` /
``report.json``.

The regularization strength is quoted in sum-form units as a rule ("n",
"n*10^-1.5", "n*10^-3", a numeric literal, or "cv-best", which
``lambda_cv`` turns into one of the others).  The rule travels to each
fold, and each fold resolves it at its own training size, so the lambda
a fold reports is the one it trained with.  Retraining on a coreset keeps
the reference model's strength.
"""

import csv
import functools
import json
import math
import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import bound, select
from .data import Dataset, cv_split, parse_libsvm, shift_radius
from .erm import LOGISTIC, decision_scores, evaluate_gap, train
from .kernel import KernelSpec, bandwidth_heuristic, gram, load_precomputed

__all__ = [
    "ExperimentConfig",
    "FoldContext",
    "RunReport",
    "ROBUST_METHOD",
    "ALL_METHODS",
    "DEFAULT_LAMBDA_GRID",
    "resolve_lambda_rule",
    "lambda_cv",
    "evaluate_worst_case_accuracy",
    "load_dataset",
    "load_inputs",
    "min_max_scaled",
    "resolve_lambda",
    "prepare_fold",
    "run_selection",
    "retrained_accuracy",
    "certify_coreset",
    "run_experiment",
]

ROBUST_METHOD = "robust"
ALL_METHODS = (ROBUST_METHOD,) + select.BASELINE_METHODS
DEFAULT_LAMBDA_GRID = ("n*10^-3", "n*10^-2", "n*10^-1.5", "n*10^-1", "n")

CSV_COLUMNS = ("fold", "method", "m", "fraction_removed", "wc_accuracy",
               "certified_lb", "dg_max", "wall_ms", "status")


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: str
    loss: str = LOGISTIC
    kernel: str = "rbf"
    bandwidth: float | None = None
    kernel_file: str | None = None
    lambda_rule: str = "cv-best"
    a: float = 1.05
    q_factor: float | None = None
    folds: int = 5
    methods: tuple = (ROBUST_METHOD, "random")
    removal_grid: tuple = (0.1, 0.3, 0.5)
    seed: int = 0
    algorithm: int = 0
    preserve_classes: bool = False
    min_max_scale: bool = False
    output_dir: str | None = None
    timing: bool = False

    def __post_init__(self):
        if self.lambda_rule.strip() != "cv-best":
            resolve_lambda_rule(self.lambda_rule, 1)
        for frac in self.removal_grid:
            if not 0.0 <= frac < 1.0:
                raise ValueError(f"removal fraction {frac} outside [0, 1)")
        if not self.methods:
            raise ValueError("--methods lists no method")
        for m in self.methods:
            if m not in ALL_METHODS:
                raise ValueError(f"unknown method {m!r}")
        if self.algorithm not in (0, 1, 2, 3):
            raise ValueError("algorithm must be 0 (auto), 1, 2 or 3")
        if self.a <= 0:
            raise ValueError("shift factor a must be positive")
        if self.q_factor is not None and self.q_factor <= 0:
            raise ValueError("--q-factor must be positive")
        if self.bandwidth is not None and self.bandwidth <= 0:
            raise ValueError("--bandwidth must be positive")
        if self.bandwidth is not None and self.kernel != "rbf":
            raise ValueError("--bandwidth is read only with --kernel rbf, "
                             f"not {self.kernel!r}")
        if self.kernel == "precomputed" and self.kernel_file is None:
            raise ValueError("--kernel precomputed needs --kernel-file")
        if self.kernel != "precomputed" and self.kernel_file is not None:
            raise ValueError("--kernel-file is read only with --kernel "
                             f"precomputed, not {self.kernel!r}")

    @property
    def q_shift(self) -> float:
        return self.a if self.q_factor is None else self.q_factor

    def removal_counts(self, n_tr: int) -> list:
        """Removals per grid fraction, min(round(f*n_tr), n_tr - 1); the
        sweep rows and the single-fold CLI commands share this rule."""
        return [min(int(round(f * n_tr)), n_tr - 1) for f in self.removal_grid]


def min_max_scaled(ds: Dataset) -> Dataset:
    """Scale non-intercept columns to [0, 1]; constant columns collapse to 0."""
    X = ds.features[:, :-1]
    lo = X.min(axis=0)
    span = X.max(axis=0) - lo
    span[span == 0.0] = 1.0
    return Dataset.from_arrays((X - lo) / span, ds.labels)


def load_dataset(path, min_max: bool = False) -> Dataset:
    ds = parse_libsvm(Path(path).read_text())
    return min_max_scaled(ds) if min_max else ds


def load_inputs(config: ExperimentConfig):
    """The dataset and, for the precomputed kernel, its validated Gram
    matrix over all rows (None otherwise); read once per command."""
    ds = load_dataset(config.dataset, config.min_max_scale)
    K_full = (load_precomputed(config.kernel_file, ds.n)
              if config.kernel == "precomputed" else None)
    return ds, K_full


_RULE_RE = re.compile(r"^n(\*10\^(?P<exp>-?\d+(\.\d+)?))?$")


def resolve_lambda_rule(rule: str, n: int) -> float:
    """Sum-form lambda from a rule string and the training-set size.

    Accepts "n", "n*10^<exp>" (e.g. "n*10^-1.5"), or a positive numeric
    literal.  "cv-best" is resolved by the caller via ``lambda_cv``.
    """
    rule = rule.strip()
    m = _RULE_RE.match(rule)
    if m:
        exp = float(m.group("exp")) if m.group("exp") else 0.0
        return n * 10.0 ** exp
    try:
        value = float(rule)
    except ValueError:
        raise ValueError(f"unrecognized lambda rule {rule!r}") from None
    if value <= 0:
        raise ValueError("explicit lambda must be positive")
    return value


def _fold(ds: Dataset, config: ExperimentConfig, plan, fold: int, K_full):
    """Training indices, training and validation parts, training Gram,
    training-by-validation Gram and validation diagonal of one fold."""
    tr_idx, va_idx = plan.train_indices(fold), plan.val_indices(fold)
    tr, va = ds.subset(tr_idx), ds.subset(va_idx)
    if config.kernel == "precomputed":
        return (tr_idx, tr, va, K_full[np.ix_(tr_idx, tr_idx)],
                K_full[np.ix_(tr_idx, va_idx)], np.diag(K_full)[va_idx])
    if config.kernel == "rbf":
        spec = KernelSpec("rbf", bandwidth_heuristic(tr.features)
                          if config.bandwidth is None else config.bandwidth)
        kdiag = np.ones(va.n)
    else:
        spec = KernelSpec("linear")
        kdiag = np.einsum("ij,ij->i", va.features, va.features)
    return (tr_idx, tr, va, gram(tr.features, tr.features, spec),
            gram(tr.features, va.features, spec), kdiag)


def lambda_cv(ds: Dataset, grid, config: ExperimentConfig, K_full) -> str:
    """Grid rule maximizing mean unweighted validation accuracy over the
    config's folds, each fold resolving every rule at its own training
    size; ties break toward the smaller lambda at ``ds.n``.  ``K_full`` is
    the precomputed Gram matrix from ``load_inputs`` (None otherwise)."""
    grid = sorted(grid, key=lambda rule: resolve_lambda_rule(rule, ds.n))
    if not grid:
        raise ValueError("empty lambda grid")
    plan = cv_split(ds, config.folds, config.seed)
    accs = [[] for _ in grid]
    for k in range(config.folds):
        _, tr, va, K, Kx, _ = _fold(ds, config, plan, k, K_full)
        for rule, fold_accs in zip(grid, accs):
            model = train(K, tr.labels, resolve_lambda_rule(rule, tr.n),
                          kind=config.loss)
            scores = decision_scores(model, Kx)
            fold_accs.append(float(np.mean(va.labels * scores > 0)))
    means = [float(np.mean(fold_accs)) for fold_accs in accs]
    return grid[means.index(max(means))]


def evaluate_worst_case_accuracy(model, K_val_cross, y_val, Q: float) -> float:
    """Weighted validation accuracy minimized over the validation ball.

    Uses the closed-form minimum of the correctness-indicator mass; a
    zero score counts as incorrect.
    """
    y_val = np.asarray(y_val, dtype=float)
    correct = (y_val * decision_scores(model, K_val_cross) > 0).astype(float)
    value = bound.min_weighted_indicator(correct, Q).value
    return min(1.0, max(0.0, value / y_val.size))


class ValidationSet(NamedTuple):
    """Validation side of a fold: cross-Gram, kernel diagonal, labels."""
    K_cross: np.ndarray
    k_diag: np.ndarray
    y: np.ndarray


@dataclass
class FoldContext:
    """Everything a fold needs: data, kernels, radii, model and quadratic;
    the validation side is kept in ``valset`` only."""

    fold: int
    tr_idx: np.ndarray
    y_tr: np.ndarray
    K: np.ndarray
    S: float
    Q: float
    model: object
    form_cert: bound.QuadraticGapForm
    valset: ValidationSet

    @functools.cached_property
    def full_ball(self) -> bound.BallMax:
        """The full set's ball maximum and worst-case weight; one ball
        solve, on first use."""
        return bound.maximize_on_ball(self.form_cert, np.ones(self.form_cert.n),
                                      self.S)

    @property
    def weights_may_be_negative(self) -> bool:
        """The training ball ||w - 1|| <= S holds a negative weight iff S > 1."""
        return self.S > 1.0


def resolve_lambda(config: ExperimentConfig, ds: Dataset, K_full) -> str:
    """The config's lambda rule; for "cv-best", the ``lambda_cv`` pick
    over ``DEFAULT_LAMBDA_GRID``.  Each fold resolves it at its own size."""
    rule = config.lambda_rule.strip()
    if rule == "cv-best":
        return lambda_cv(ds, DEFAULT_LAMBDA_GRID, config, K_full)
    return rule


def prepare_fold(ds: Dataset, config: ExperimentConfig, fold: int,
                 rule: str, K_full) -> FoldContext:
    """Split, kernels, radii, reference model and gap quadratic of one
    fold; ``rule`` and ``K_full`` come from ``resolve_lambda`` and
    ``load_inputs``, and the rule is resolved at the fold's training size."""
    if not 0 <= fold < config.folds:
        raise ValueError(f"--fold {fold} outside [0, {config.folds})")
    tr_idx, tr, va, K, Kx, kdiag = _fold(
        ds, config, cv_split(ds, config.folds, config.seed), fold, K_full)
    model = train(K, tr.labels, resolve_lambda_rule(rule, tr.n),
                  kind=config.loss)
    # A positive-class shift moves no weight of a validation part without
    # positives: its ball is the single point w = 1.
    Q = shift_radius(va.n_plus, config.q_shift) if va.n_plus else 0.0
    return FoldContext(fold=fold, tr_idx=tr_idx, y_tr=tr.labels, K=K,
                       S=shift_radius(tr.n_plus, config.a), Q=Q, model=model,
                       form_cert=bound.quadratic_form(model),
                       valset=ValidationSet(Kx, kdiag, va.labels))


def run_selection(ctx: FoldContext, config: ExperimentConfig, method: str,
                  n_del: int) -> select.SelectionTrace:
    """The method's trace on one fold; its seed depends only on the run
    seed, the fold and the method, so every entry point picks the same
    coreset."""
    seed = int(np.random.SeedSequence(
        [config.seed, ctx.fold, ALL_METHODS.index(method)]).generate_state(1)[0])
    if method == ROBUST_METHOD:
        algorithm = config.algorithm or (1 if len(ctx.y_tr) <= 400 else 2)
        fn = {1: select.greedy_exact, 2: select.greedy_fixed_w,
              3: select.greedy_oneshot}[algorithm]
        ball = ctx.S if algorithm == 1 else ctx.full_ball.w_star
        return fn(ctx.form_cert, ctx.y_tr, ball, n_del,
                  preserve_classes=config.preserve_classes, seed=seed)
    return select.baseline_select(method, ctx.K, ctx.y_tr, ctx.model, n_del,
                                  seed, preserve_classes=config.preserve_classes)


def retrained_accuracy(ctx: FoldContext, config: ExperimentConfig, v) -> float:
    """Retrain on the kept mask ``v`` with uniform weights at the reference
    model's lambda and score its worst-case validation accuracy."""
    sub_model = train(ctx.K, ctx.y_tr, ctx.model.lam_abs, v=v, kind=config.loss)
    return evaluate_worst_case_accuracy(sub_model, ctx.valset.K_cross,
                                        ctx.valset.y, ctx.Q)


def certify_coreset(ctx: FoldContext, v) -> bound.BoundReport:
    """Certificate of the kept mask ``v`` against the fold's reference
    model; a mask that keeps every instance reuses the full-set solve."""
    ball = (ctx.full_ball if np.all(v)
            else bound.maximize_on_ball(ctx.form_cert, v, ctx.S))
    val = ctx.valset
    return bound.certificate(ctx.model, ball, ctx.Q, val.K_cross, val.k_diag,
                             val.y)


@dataclass
class RunReport:
    lambda_rule: str
    rows: list = field(default_factory=list)
    aggregates: dict = field(default_factory=dict)
    gap_diagnostics: list = field(default_factory=list)


def _gap_diagnostics(ctx: FoldContext):
    """Gap quadratic at the full set and at the worst-case weight, next to
    the direct duality gap at that weight; logged per fold."""
    ones, w_worst = np.ones(ctx.form_cert.n), ctx.full_ball.w_star
    return {
        "fold": ctx.fold,
        "lambda": ctx.model.lam_abs,
        "q_exact_full": ctx.form_cert.value(ones),
        "q_exact_worst_w": ctx.form_cert.value(w_worst),
        "direct_gap_worst_w": evaluate_gap(ctx.model, ones, w_worst).gap,
        "S": ctx.S,
        "weights_may_be_negative": ctx.weights_may_be_negative,
    }


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.10g}"
    return str(x)


def _write_reports(config: ExperimentConfig, report: RunReport):
    if config.output_dir is None:
        return
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "report.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for row in report.rows:
            writer.writerow([_fmt(row[col]) for col in CSV_COLUMNS])
    payload = {
        "config": {k: (list(v) if isinstance(v, tuple) else v)
                   for k, v in vars(config).items()},
        "lambda": report.lambda_rule,
        "rows": report.rows,
        "aggregates": report.aggregates,
        "gap_diagnostics": report.gap_diagnostics,
    }
    with open(out / "report.json", "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _aggregate(rows):
    groups = {}
    for row in rows:
        if row["status"] != "ok":
            continue
        groups.setdefault((row["method"], row["fraction_removed"]), []).append(row)
    agg = {}
    for (method, frac), grp in sorted(groups.items(), key=lambda kv: (kv[0][0], kv[0][1])):
        wc = np.array([r["wc_accuracy"] for r in grp])
        lb = np.array([r["certified_lb"] for r in grp])
        agg.setdefault(method, {})[f"{frac:.10g}"] = {
            "folds": len(grp),
            "wc_accuracy_mean": float(wc.mean()),
            "wc_accuracy_std": float(wc.std()),
            "certified_lb_mean": float(lb.mean()),
            "certified_lb_std": float(lb.std()),
        }
    return agg


def run_experiment(config: ExperimentConfig) -> RunReport:
    """Full sweep; writes report.csv / report.json when output_dir is set.

    On error, rows computed so far are flushed with a trailing status row
    before the exception propagates.
    """
    ds, K_full = load_inputs(config)
    rule = resolve_lambda(config, ds, K_full)
    report = RunReport(lambda_rule=rule)
    try:
        for fold in range(config.folds):
            ctx = prepare_fold(ds, config, fold, rule, K_full)
            report.gap_diagnostics.append(_gap_diagnostics(ctx))
            n_del_grid = config.removal_counts(len(ctx.y_tr))
            for method in config.methods:
                trace = run_selection(ctx, config, method,
                                      max(n_del_grid, default=0))
                for frac, n_del in zip(config.removal_grid, n_del_grid):
                    t0 = time.perf_counter()
                    v = trace.kept_mask(n_del)
                    wc_acc = retrained_accuracy(ctx, config, v)
                    cert = certify_coreset(ctx, v)
                    wall_ms = (time.perf_counter() - t0) * 1e3 if config.timing else 0.0
                    report.rows.append(dict(
                        fold=fold, method=method, m=int(v.sum()),
                        fraction_removed=float(frac), wc_accuracy=wc_acc,
                        certified_lb=1.0 - cert.ub, dg_max=cert.dg_max,
                        wall_ms=wall_ms, status="ok"))
    except Exception as exc:
        report.rows.append({
            "fold": -1, "method": "-", "m": 0, "fraction_removed": math.nan,
            "wc_accuracy": math.nan, "certified_lb": math.nan,
            "dg_max": math.nan, "wall_ms": 0.0,
            "status": f"error: {exc}",
        })
        raise
    finally:
        report.aggregates = _aggregate(report.rows)
        _write_reports(config, report)
    return report
