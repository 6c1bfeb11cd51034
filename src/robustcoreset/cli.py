"""Command-line interface.

Subcommands: ``select`` (pick a coreset on one fold), ``certify`` (bound
report for a coreset), ``evaluate`` (retrain + worst-case weighted
validation accuracy), ``sweep`` (full experiment grid to CSV/JSON),
``lambda-cv`` (cross-validated regularization pick) and ``synth``
(generate a LIBSVM-format demo dataset).

Exit codes: 0 on success, 2 on configuration errors, 3 on numerical
failures.
"""

import functools
import json
import sys
from pathlib import Path

import click
import numpy as np

from . import bound, select as select_mod
from .data import ParseError, SplitError, gaussian_task, to_libsvm
from .erm import TrainingError, train
from .experiment import (ALL_METHODS, ExperimentConfig, evaluate_worst_case_accuracy,
                         default_lambda_grid, lambda_cv, load_dataset,
                         prepare_fold, run_experiment, run_selection)

_NUMERICAL = (TrainingError, bound.BallMaximizationError, SplitError,
              np.linalg.LinAlgError, FloatingPointError)


def _guard(fn):
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (ParseError, ValueError) as exc:
            raise click.UsageError(str(exc)) from exc
        except _NUMERICAL as exc:
            click.echo(f"numerical failure: {exc}", err=True)
            sys.exit(3)
    return wrapped


def _common(fn):
    opts = [
        click.option("--dataset", required=True, type=click.Path(exists=True),
                     help="LIBSVM-format data file."),
        click.option("--loss", type=click.Choice(["logistic", "hinge"]),
                     default="logistic", show_default=True),
        click.option("--kernel", type=click.Choice(["rbf", "linear", "precomputed"]),
                     default="rbf", show_default=True),
        click.option("--bandwidth", type=float, default=None,
                     help="RBF bandwidth; defaults to the pooled-variance heuristic."),
        click.option("--kernel-file", type=click.Path(exists=True), default=None,
                     help="Symmetric PSD CSV matrix over all rows of "
                          "--dataset, for --kernel precomputed."),
        click.option("--lambda-rule", default="cv-best", show_default=True,
                     help="'n', 'n*10^-1.5', 'n*10^-3', a number, or 'cv-best'."),
        click.option("--a", type=float, default=1.05, show_default=True,
                     help="Training-side shift factor; sets S."),
        click.option("--q-factor", type=float, default=None,
                     help="Validation-side shift factor; defaults to --a."),
        click.option("--folds", type=int, default=5, show_default=True),
        click.option("--seed", type=int, default=0, show_default=True),
        click.option("--algorithm", type=click.Choice(["0", "1", "2", "3"]),
                     default="0", show_default=True,
                     help="Greedy variant; 0 picks 1 for n<=400, else 2."),
        click.option("--preserve-classes", is_flag=True,
                     help="Never remove the last instance of a class."),
        click.option("--min-max-scale", is_flag=True,
                     help="Scale features to [0,1] before splitting."),
    ]
    for opt in reversed(opts):
        fn = opt(fn)
    return fn


def _config(kwargs, **extra) -> ExperimentConfig:
    return ExperimentConfig(
        dataset=kwargs["dataset"], loss=kwargs["loss"], kernel=kwargs["kernel"],
        bandwidth=kwargs["bandwidth"], kernel_file=kwargs["kernel_file"],
        lambda_rule=kwargs["lambda_rule"], a=kwargs["a"],
        q_factor=kwargs["q_factor"], folds=kwargs["folds"],
        seed=kwargs["seed"], algorithm=int(kwargs["algorithm"]),
        preserve_classes=kwargs["preserve_classes"],
        min_max_scale=kwargs["min_max_scale"], **extra)


def _fold_context(kwargs, fold):
    config = _config(kwargs)
    ds = load_dataset(config.dataset, config.min_max_scale)
    ctx = prepare_fold(ds, config, fold)
    if ctx.S > 1.0:
        click.echo(f"warning: training ball radius S={ctx.S:.4g} exceeds 1; "
                   "weights may leave the nonnegative orthant", err=True)
    return config, ctx


def _n_del(keep_fraction, n_tr):
    if not 0.0 < keep_fraction <= 1.0:
        raise click.UsageError("--keep-fraction must be in (0, 1]")
    return n_tr - max(1, int(round(keep_fraction * n_tr)))


@click.group()
def main():
    """Coreset selection with certified worst-case validation error."""


@main.command("select")
@_common
@click.option("--method", type=click.Choice(ALL_METHODS), default="robust",
              show_default=True)
@click.option("--keep-fraction", type=float, default=0.5, show_default=True)
@click.option("--fold", type=int, default=0, show_default=True)
@click.option("--output-dir", type=click.Path(), default=".", show_default=True)
@_guard
def select_cmd(method, keep_fraction, fold, output_dir, **kwargs):
    """Select a coreset on one fold; writes trace JSON and kept indices."""
    config, ctx = _fold_context(kwargs, fold)
    n_tr = len(ctx.y_tr)
    trace = run_selection(ctx, config, method, _n_del(keep_fraction, n_tr))
    kept_local = trace.kept_indices()
    kept_original = ctx.tr_idx[kept_local]
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    payload = trace.to_dict()
    payload["fold"] = fold
    payload["train_index_map"] = ctx.tr_idx.tolist()
    payload["kept_original_indices"] = kept_original.tolist()
    (out / "trace.json").write_text(json.dumps(payload, indent=2) + "\n")
    (out / "selected_indices.txt").write_text(
        "".join(f"{i}\n" for i in kept_original))
    click.echo(f"kept {kept_local.size}/{n_tr} training instances "
               f"(fold {fold}, method {method}); wrote {out / 'trace.json'}")


def _coreset_mask(ctx, config, method, keep_fraction, indices_file):
    n_tr = len(ctx.y_tr)
    if indices_file:
        kept_original = np.loadtxt(indices_file, dtype=int, ndmin=1)
        pos = {orig: local for local, orig in enumerate(ctx.tr_idx)}
        missing = [int(i) for i in kept_original if int(i) not in pos]
        if missing:
            raise click.UsageError(
                f"indices not in this fold's training part: {missing[:5]}")
        v = np.zeros(n_tr)
        v[[pos[int(i)] for i in kept_original]] = 1.0
        return v
    return run_selection(ctx, config, method,
                         _n_del(keep_fraction, n_tr)).kept_mask()


@main.command("certify")
@_common
@click.option("--method", type=click.Choice(ALL_METHODS), default="robust",
              show_default=True)
@click.option("--keep-fraction", type=float, default=0.5, show_default=True)
@click.option("--fold", type=int, default=0, show_default=True)
@click.option("--indices", type=click.Path(exists=True), default=None,
              help="File of kept original indices (one per line).")
@click.option("--output-dir", type=click.Path(), default=".", show_default=True)
@_guard
def certify_cmd(method, keep_fraction, fold, indices, output_dir, **kwargs):
    """Certificate (radius, zeta, error bound) for a coreset."""
    config, ctx = _fold_context(kwargs, fold)
    v = _coreset_mask(ctx, config, method, keep_fraction, indices)
    report = bound.certificate(ctx.model, ctx.form_cert, v, ctx.S, ctx.Q,
                               ctx.K_cross, ctx.k_diag, ctx.y_va, ctx.lam_abs)
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    payload = report.to_dict()
    payload.update(fold=fold, method=method, S=ctx.S, Q=ctx.Q,
                   m=int(v.sum()), n_train=len(ctx.y_tr),
                   certified_lb=1.0 - report.ub, lam=ctx.lam_abs)
    (out / "bound_report.json").write_text(json.dumps(payload, indent=2) + "\n")
    click.echo(f"dg_max={report.dg_max:.6g} radius={report.radius:.6g} "
               f"certified={report.counts.surely_correct}/{len(report.zeta)} "
               f"error_ub={report.ub:.6g}")


@main.command("evaluate")
@_common
@click.option("--method", type=click.Choice(ALL_METHODS), default="robust",
              show_default=True)
@click.option("--keep-fraction", type=float, default=0.5, show_default=True)
@click.option("--fold", type=int, default=0, show_default=True)
@click.option("--indices", type=click.Path(exists=True), default=None)
@_guard
def evaluate_cmd(method, keep_fraction, fold, indices, **kwargs):
    """Retrain on a coreset and print worst-case weighted validation accuracy."""
    config, ctx = _fold_context(kwargs, fold)
    v = _coreset_mask(ctx, config, method, keep_fraction, indices)
    kept = np.flatnonzero(v > 0)
    sub_model = train(ctx.K[np.ix_(kept, kept)], ctx.y_tr[kept],
                      lam=ctx.lam_abs / kept.size, kind=config.loss,
                      tol=config.tol)
    wc = evaluate_worst_case_accuracy(sub_model, ctx.K_cross[kept, :],
                                      ctx.y_va, ctx.Q)
    click.echo(json.dumps({"fold": fold, "method": method, "m": int(kept.size),
                           "wc_accuracy": wc, "Q": ctx.Q}, indent=2))


@main.command("sweep")
@_common
@click.option("--methods", default="robust,random", show_default=True,
              help="Comma-separated method list.")
@click.option("--removal-grid", default="0.1,0.3,0.5", show_default=True,
              help="Comma-separated removed fractions in [0, 1).")
@click.option("--timing/--no-timing", default=False, show_default=True,
              help="Record wall times (breaks byte-identical reruns).")
@click.option("--output-dir", type=click.Path(), default=".", show_default=True)
@_guard
def sweep_cmd(methods, removal_grid, timing, output_dir, **kwargs):
    """Fold x method x retained-size sweep; writes report.csv / report.json."""
    config = _config(
        kwargs,
        methods=tuple(m.strip() for m in methods.split(",") if m.strip()),
        removal_grid=tuple(float(f) for f in removal_grid.split(",")),
        output_dir=output_dir, timing=timing)
    report = run_experiment(config)
    click.echo(f"lambda={report.lam_abs:.10g}; {len(report.rows)} rows -> "
               f"{Path(output_dir) / 'report.csv'}")
    for method, per_frac in sorted(report.aggregates.items()):
        for frac, agg in sorted(per_frac.items(), key=lambda kv: float(kv[0])):
            click.echo(f"  {method:12s} removed={float(frac):4.2f} "
                       f"wc_acc={agg['wc_accuracy_mean']:.4f}"
                       f"+-{agg['wc_accuracy_std']:.4f} "
                       f"certified_lb={agg['certified_lb_mean']:.4f}")


@main.command("lambda-cv")
@_common
@click.option("--grid", default=None,
              help="Comma-separated lambda values; defaults to the n*10^e grid.")
@_guard
def lambda_cv_cmd(grid, **kwargs):
    """Print the cross-validated regularization strength."""
    config = _config(kwargs)
    ds = load_dataset(config.dataset, config.min_max_scale)
    if grid:
        values = [float(x) for x in grid.split(",")]
    else:
        values = default_lambda_grid(ds.n - ds.n // config.folds)
    best = lambda_cv(ds, values, config.folds, config.seed, loss=config.loss,
                     config=config, tol=config.tol)
    click.echo(f"{best:.10g}")


@main.command("synth")
@click.option("--n", type=int, default=200, show_default=True)
@click.option("--d", type=int, default=5, show_default=True)
@click.option("--n-plus", type=int, default=None)
@click.option("--separation", type=float, default=2.0, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(), required=True)
@_guard
def synth_cmd(n, d, n_plus, separation, seed, out):
    """Write a two-class Gaussian dataset in LIBSVM format."""
    ds = gaussian_task(n, d, seed=seed, separation=separation, n_plus=n_plus)
    Path(out).write_text(to_libsvm(ds))
    click.echo(f"wrote {out}: n={ds.n} n_plus={ds.n_plus} d={ds.d}")


if __name__ == "__main__":
    main()
