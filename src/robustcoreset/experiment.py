"""Experiment harness: fold-wise selection sweeps with certified bounds.

One sweep, per fold of a k-fold split: train the reference model, build
the gap quadratic, produce coresets for every requested method and
retained size, retrain on each coreset with uniform weights, score the
worst-case weighted validation accuracy over the validation weight ball,
and attach the certified lower bound.  Rows land in ``report.csv`` /
``report.json``.

The regularization strength is quoted in sum-form units as a rule ("n",
"n*10^-1.5", "n*10^-3", a numeric literal, or "cv-best", which
``lambda_cv`` turns into one of the others on the run's own split, drawn
once by ``start_run``).  Each fold resolves the rule at its own training
size, so the lambda a fold reports is the one it trained with.
Retraining on a coreset keeps the reference model's strength.

Each fold is built as one ``FoldContext`` per rule (``_fold``), and
``start_run``'s ``folds`` hands it over once: "cv-best" keeps
``lambda_cv``'s winner of each fold until it is taken.
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
from .erm import LOGISTIC, LOSSES, decision_scores, train
from .kernel import KINDS, check_rows, fold_kernels, load_precomputed

__all__ = [
    "ExperimentConfig",
    "FoldContext",
    "RunReport",
    "ROBUST_METHOD",
    "ALL_METHODS",
    "ALGORITHMS",
    "EXACT_MAX_N_TR",
    "DEFAULT_LAMBDA_GRID",
    "resolve_lambda_rule",
    "lambda_cv",
    "evaluate_worst_case_accuracy",
    "load_dataset",
    "load_inputs",
    "min_max_scaled",
    "start_run",
    "prepare_fold",
    "run_selection",
    "retrained_accuracy",
    "certify_coreset",
    "run_experiment",
]

ROBUST_METHOD = "robust"
ALL_METHODS = (ROBUST_METHOD,) + select.BASELINE_METHODS
DEFAULT_LAMBDA_GRID = ("n*10^-3", "n*10^-2", "n*10^-1.5", "n*10^-1", "n")
ALGORITHMS = (0, 1, 2, 3)  # auto, exact, fixed-w, one-shot greedy
EXACT_MAX_N_TR = 400  # auto runs exact greedy up to this fold training size

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
        if self.loss not in LOSSES:
            raise ValueError(f"--loss {self.loss!r} is not one of {LOSSES}")
        if self.kernel not in KINDS:
            raise ValueError(f"--kernel {self.kernel!r} is not one of {KINDS}")
        if self.lambda_rule.strip() != "cv-best":
            resolve_lambda_rule(self.lambda_rule, 1)
        for frac in self.removal_grid:
            if not 0.0 <= frac < 1.0:
                raise ValueError(f"removal fraction {frac} outside [0, 1)")
        for m in self.methods:
            if m not in ALL_METHODS:
                raise ValueError(f"unknown method {m!r}")
        for option, entries in (("--methods", self.methods),
                                ("--removal-grid", self.removal_grid)):
            if not entries or len(set(entries)) < len(entries):
                raise ValueError(f"{option} lists no entry or a repeated one")
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"--algorithm must be one of {ALGORITHMS}")
        for option, value in (("--a", self.a), ("--q-factor", self.q_factor),
                              ("--bandwidth", self.bandwidth)):
            if value is not None and not 0 < value < math.inf:
                raise ValueError(f"{option} {value} is not finite and positive")
        if self.folds < 2:
            raise ValueError(f"--folds {self.folds} is below 2")
        if self.seed < 0:
            raise ValueError(f"--seed {self.seed} is negative")
        if self.bandwidth is not None and self.kernel != "rbf":
            raise ValueError("--bandwidth is read only with --kernel rbf, "
                             f"not {self.kernel!r}")
        if (self.kernel == "precomputed") != (self.kernel_file is not None):
            raise ValueError("--kernel precomputed needs --kernel-file, and "
                             "no other --kernel reads one")
        if self.min_max_scale and self.kernel == "precomputed":
            raise ValueError("--min-max-scale scales features, which "
                             "--kernel precomputed does not read")

    @property
    def q_shift(self) -> float:
        return self.a if self.q_factor is None else self.q_factor

    def check_fold(self, fold: int):
        """Reject a fold outside [0, folds), before any lambda is resolved."""
        if not 0 <= fold < self.folds:
            raise ValueError(f"--fold {fold} outside [0, {self.folds})")

    def removal_counts(self, n_tr: int) -> list:
        """Removals per grid fraction, min(round(f*n_tr), n_tr - 1), or
        n_tr - 2 with ``preserve_classes`` (every training part holds both
        classes); the sweep rows and the single-fold CLI commands share
        this rule."""
        cap = n_tr - (2 if self.preserve_classes else 1)
        return [min(int(round(f * n_tr)), cap) for f in self.removal_grid]


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


def load_inputs(config: ExperimentConfig) -> Dataset:
    """The config's dataset, read once per command.  With a kernel file
    (``--kernel precomputed``) the validated kernel rows are the features,
    as in scikit-learn's ``kernel="precomputed"``."""
    ds = load_dataset(config.dataset, config.min_max_scale)
    if config.kernel_file is None:
        return ds
    return Dataset(load_precomputed(config.kernel_file, ds.n), ds.labels)


_RULE_RE = re.compile(r"^n(\*10\^(?P<exp>-?\d+(\.\d+)?))?$")


def resolve_lambda_rule(rule: str, n: int) -> float:
    """Sum-form lambda from a rule string and the training-set size.

    Accepts "n", "n*10^<exp>" (e.g. "n*10^-1.5"), or a numeric literal
    giving a finite positive value; ``lambda_cv`` resolves "cv-best".
    """
    rule = rule.strip()
    m = _RULE_RE.match(rule)
    try:
        value = n * 10.0 ** float(m.group("exp") or 0.0) if m else float(rule)
    except OverflowError:
        value = math.inf
    except ValueError:
        raise ValueError(f"unrecognized lambda rule {rule!r}") from None
    if not 0 < value < math.inf:
        raise ValueError(f"lambda rule {rule!r} gives {value} at n={n}, "
                         "not a finite positive number")
    return value


def _fold(ds: Dataset, config: ExperimentConfig, plan, fold: int, rules):
    """One ``FoldContext`` per rule, in the rules' order: all share the
    fold's kernels, radii and labels; each has its rule's reference model
    and that model's validation margins y f(x)."""
    tr_idx, va_idx = plan.train_indices(fold), plan.val_indices(fold)
    y_tr, y_va = ds.labels[tr_idx], ds.labels[va_idx]
    K, Kx, norms = fold_kernels(ds.features, config.kernel, config.bandwidth,
                                tr_idx, va_idx)
    S = shift_radius(int(np.sum(y_tr == 1)), config.a)
    # A positive-class shift moves no weight of a validation part without
    # positives: its ball is the single point w = 1.
    n_plus_va = int(np.sum(y_va == 1))
    Q = shift_radius(n_plus_va, config.q_shift) if n_plus_va else 0.0
    algorithm = config.algorithm or (1 if len(y_tr) <= EXACT_MAX_N_TR else 2)
    models = [train(K, y_tr, resolve_lambda_rule(rule, len(y_tr)),
                    kind=config.loss) for rule in rules]
    return [FoldContext(fold=fold, tr_idx=tr_idx, y_tr=y_tr, K=K, S=S, Q=Q,
                        model=model, valset=ValidationSet(
                            Kx, y_va, norms, y_va * decision_scores(model, Kx)),
                        algorithm=algorithm)
            for model in models]


def lambda_cv(ds: Dataset, plan, grid, config: ExperimentConfig):
    """(rule, records): the grid rule maximizing mean unweighted validation
    accuracy over the config's folds of ``plan``, each resolving every rule
    at its own training size (ties break toward the smaller lambda at n),
    and each fold's ``FoldContext`` at that rule, from ``_fold``.  A
    rule's lambda is a n ("n*10^x") or b (a literal): two rules that agree
    at n = 1 and 2 agree at every n and count as a repeated entry."""
    grid = sorted((rule.strip() for rule in grid),
                  key=lambda rule: resolve_lambda_rule(rule, ds.n))
    same = {tuple(resolve_lambda_rule(r, n) for n in (1, 2)) for r in grid}
    if not grid or len(same) < len(grid):
        raise ValueError("--grid lists no entry or a repeated one")
    built = [_fold(ds, config, plan, k, grid) for k in range(config.folds)]
    means = [float(np.mean([
        bound.worst_case_accuracy(ctxs[j].valset.margins > 0, 0.0)
        for ctxs in built])) for j in range(len(grid))]
    best = means.index(max(means))
    return grid[best], [ctxs[best] for ctxs in built]


def evaluate_worst_case_accuracy(model, K_val_cross, y_val, Q: float) -> float:
    """Weighted validation accuracy minimized over the validation ball
    (``bound.worst_case_accuracy``); a zero score counts as incorrect."""
    scores = decision_scores(model, K_val_cross)
    return bound.worst_case_accuracy(np.multiply(y_val, scores) > 0, Q)


class ValidationSet(NamedTuple):
    """Validation side of a fold: cross-Gram, labels, norms and margins."""
    K_cross: np.ndarray
    y: np.ndarray
    norms: np.ndarray
    margins: np.ndarray


@dataclass
class FoldContext:
    """A fold at one lambda rule, built by ``_fold`` only: data, kernels,
    radii and reference model, the validation side in ``valset`` only, and
    the robust selector's ``algorithm`` (1 exact, 2 fixed-w, 3 one-shot)."""

    fold: int
    tr_idx: np.ndarray
    y_tr: np.ndarray
    K: np.ndarray
    S: float
    Q: float
    model: object
    valset: ValidationSet
    algorithm: int

    @functools.cached_property
    def form_cert(self) -> bound.QuadraticGapForm:
        """The reference model's gap quadratic, on first use."""
        return bound.quadratic_form(self.model)

    @property
    def weights_may_be_negative(self) -> list:
        """Names of the balls that hold a negative weight: the training ball
        ||w - 1|| <= S iff S > 1, the validation ball ||w' - 1|| <= Q with
        sum(w') = n' iff Q > sqrt(n' / (n' - 1)).  Such a ball is flagged,
        not rejected: the minima over it run over a superset of the weight
        distributions, so they stay lower bounds."""
        n_va = self.valset.y.size
        return [ball for ball, negative in (
            ("training", self.S > 1.0),
            ("validation", n_va > 1 and self.Q > math.sqrt(n_va / (n_va - 1))))
            if negative]


def start_run(config: ExperimentConfig, grid=DEFAULT_LAMBDA_GRID):
    """(rule, folds), settled before any report exists: make the output
    directory, read the inputs once, check that a kernel can be built from
    them and a fixed rule at ``ds.n`` (no fold is larger), split once and,
    for "cv-best", pick the rule from ``grid`` on that split.  ``folds(k)``
    hands over fold k's ``FoldContext`` at the rule and drops its own hold:
    ``lambda_cv``'s record the first time, else a new ``_fold``."""
    if config.output_dir is not None:
        try:
            Path(config.output_dir).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ValueError(f"--output-dir {config.output_dir!r} cannot be "
                             f"created: {exc}") from exc
    ds = load_inputs(config)
    check_rows(ds.features, config.kernel, config.bandwidth)
    rule, built = config.lambda_rule.strip(), [None] * config.folds
    if rule != "cv-best":
        resolve_lambda_rule(rule, ds.n)
    plan = cv_split(ds, config.folds, config.seed)
    if rule == "cv-best":
        rule, built = lambda_cv(ds, plan, grid, config)

    def folds(k: int) -> FoldContext:
        ctx, built[k] = built[k], None
        return ctx if ctx is not None else _fold(ds, config, plan, k, [rule])[0]
    return rule, folds


def prepare_fold(config: ExperimentConfig, fold: int, folds) -> FoldContext:
    """The ``FoldContext`` of one fold, from ``start_run``'s ``folds``."""
    config.check_fold(fold)
    return folds(fold)


def run_selection(ctx: FoldContext, config: ExperimentConfig, method: str,
                  n_del: int) -> select.SelectionTrace:
    """The method's trace on one fold; a baseline's seed depends only on
    the run seed, the fold and the method, so every entry point picks the
    same coreset."""
    if method == ROBUST_METHOD:
        # every selector starts from the full-set solve; exact greedy's
        # first removal reads its step, which no fold holds
        form, ones = ctx.form_cert, np.ones(len(ctx.y_tr))
        step = (bound.spectral_step(form, ones)
                if ctx.algorithm == 1 and ctx.S > 0 else None)
        ball = bound.maximize_on_ball(form, ones, ctx.S, step)
        if ctx.algorithm == 1:
            return select.greedy_exact(form, ctx.y_tr, ctx.S, n_del,
                                       preserve_classes=config.preserve_classes,
                                       spectrum=step)
        fn = {2: select.greedy_fixed_w, 3: select.greedy_oneshot}[ctx.algorithm]
        return fn(form, ctx.y_tr, ball.w_star, n_del,
                  preserve_classes=config.preserve_classes)
    seed = int(np.random.SeedSequence(
        [config.seed, ctx.fold, ALL_METHODS.index(method)]).generate_state(1)[0])
    return select.baseline_select(method, ctx.K, ctx.y_tr, ctx.model, n_del,
                                  seed, preserve_classes=config.preserve_classes)


def retrained_accuracy(ctx: FoldContext, v) -> float:
    """Retrain on the kept mask ``v`` with uniform weights at the reference
    model's lambda and loss and score its worst-case validation accuracy."""
    sub_model = train(ctx.K, ctx.y_tr, ctx.model.lam_abs, v=v, kind=ctx.model.loss)
    return evaluate_worst_case_accuracy(sub_model, ctx.valset.K_cross,
                                        ctx.valset.y, ctx.Q)


def certify_coreset(ctx: FoldContext, v) -> bound.BoundReport:
    """Certificate of the kept 0/1 mask ``v`` against the fold's reference
    model.  The ball solve reads the form's memo when the fold has solved
    v's kept live set before (the full set's, for a mask that drops only
    dead instances).  Any other mask entry raises ValueError."""
    ball = bound.maximize_on_ball(ctx.form_cert, v, ctx.S)
    return bound.certificate(ball, ctx.model.lam_abs, ctx.Q,
                             ctx.valset.margins, ctx.valset.norms)


@dataclass
class RunReport:
    lambda_rule: str
    rows: list = field(default_factory=list)
    aggregates: dict = field(default_factory=dict)
    gap_diagnostics: list = field(default_factory=list)


def _gap_diagnostics(ctx: FoldContext):
    """Gap quadratic at the full set and at the worst-case weight, the
    training and validation ball radii and the balls that reach negative
    weights; logged per fold."""
    form, ones = ctx.form_cert, np.ones(len(ctx.y_tr))
    return {
        "fold": ctx.fold,
        "lambda": ctx.model.lam_abs,
        "q_exact_full": form.value(ones),
        "q_exact_worst_w": form.value(
            bound.maximize_on_ball(form, ones, ctx.S).w_star),
        "S": ctx.S,
        "Q": ctx.Q,
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
    with open(out / "report.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for row in report.rows:
            writer.writerow([_fmt(row[col]) for col in CSV_COLUMNS])
    payload = {
        "config": vars(config),
        "lambda": report.lambda_rule,
        # JSON has no NaN: an error row's undefined numbers are null
        "rows": [{k: None if isinstance(x, float) and math.isnan(x) else x
                  for k, x in row.items()} for row in report.rows],
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

    ``start_run`` settles the inputs, the split and the lambda rule
    before any report exists, so a bad one writes none.  A fold selects
    every coreset before its diagnostics and rows, which so read the robust
    selector's full-set solve.  On a later error, rows computed so far are
    flushed with a trailing status row before the exception propagates.
    """
    rule, folds = start_run(config)
    report = RunReport(lambda_rule=rule)
    try:
        for fold in range(config.folds):
            ctx = prepare_fold(config, fold, folds)
            n_del_grid = config.removal_counts(len(ctx.y_tr))
            traces = [run_selection(ctx, config, method, max(n_del_grid))
                      for method in config.methods]
            report.gap_diagnostics.append(_gap_diagnostics(ctx))
            for method, trace in zip(config.methods, traces):
                for frac, n_del in zip(config.removal_grid, n_del_grid):
                    t0 = time.perf_counter()
                    v = trace.kept_mask(n_del)
                    wc_acc = retrained_accuracy(ctx, v)
                    cert = certify_coreset(ctx, v)
                    wall_ms = (time.perf_counter() - t0) * 1e3 if config.timing else 0.0
                    report.rows.append(dict(
                        fold=fold, method=method, m=int(v.sum()),
                        fraction_removed=float(frac), wc_accuracy=wc_acc,
                        certified_lb=1.0 - cert.ub, dg_max=cert.ball.dg_max,
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
