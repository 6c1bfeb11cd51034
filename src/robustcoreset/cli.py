"""Command-line interface.

Subcommands: ``select`` (pick a coreset on one fold), ``certify`` (bound
report for a coreset), ``evaluate`` (retrain + worst-case weighted
validation accuracy), ``sweep`` (full experiment grid to CSV/JSON),
``lambda-cv`` (cross-validated regularization pick) and ``synth``
(generate a LIBSVM-format demo dataset).

Every command but ``synth`` starts with ``experiment.start_run`` (make
``--output-dir``, read the inputs once, split once, settle the lambda
rule on that split); ``lambda-cv`` is that start under "cv-best" with its
own ``--grid``, so it prints the rule ``sweep`` reports.  Each fold sizes
the rule at its training size.
``select``, ``certify`` and ``evaluate`` build a fold, size the coreset
(``--removal-fraction``) and score it through the same ``experiment``
calls as ``sweep``, so they match its rows; trace ``gaps`` are the
selector's objective, and bounds come from ``certify``.

Exit codes: 0 on success, 2 on a bad option or input file, 3 on numerical
failures, and 1 only when an output file cannot be written.

Each command runs on one thread of the OpenBLAS in numpy's wheel, and
gives the process its previous count back when it ends, unless
``OPENBLAS_NUM_THREADS``, ``GOTO_NUM_THREADS`` or ``OMP_NUM_THREADS`` is > 0.
"""

import contextlib
import ctypes
import functools
import json
import os
import re
import sys
from pathlib import Path

import click
import numpy as np

from . import bound
from .data import ParseError, SplitError, gaussian_task, to_libsvm
from .erm import LOSSES, TrainingError
from .experiment import (ALGORITHMS, ALL_METHODS, DEFAULT_LAMBDA_GRID,
                         EXACT_MAX_N_TR, ROBUST_METHOD, ExperimentConfig,
                         certify_coreset, prepare_fold, retrained_accuracy,
                         run_experiment, run_selection, start_run)
from .kernel import KINDS

_DEFAULT = ExperimentConfig(dataset="")  # the one source of option defaults

_NUMERICAL = (TrainingError, bound.BallMaximizationError, SplitError,
              np.linalg.LinAlgError, FloatingPointError)


# read by OpenBLAS when numpy is imported; a count set there stands
_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _atoi(text: str) -> int:
    """C atoi of text, as OpenBLAS reads a thread count (0 or below: its
    default): the integer after leading whitespace, else 0."""
    match = re.match(r"[ \t\n\v\f\r]*([+-]?[0-9]+)", text)
    return int(match.group(1)) if match else 0


@functools.cache
def _openblas_threads():
    """(get, set) of the thread count of the OpenBLAS that numpy's wheel
    bundles (in numpy.libs/ beside the package, or numpy/.dylibs/), or None
    for any other BLAS.  numpy >= 2 names them scipy_openblas_*, the
    1.24-1.26 wheels openblas_*, both with the 64_ suffix."""
    pkg = Path(np.__file__).resolve().parent
    for lib in sorted([*pkg.parent.glob("numpy.libs/*openblas*"),
                       *pkg.glob(".dylibs/*openblas*")]):
        handle = ctypes.CDLL(str(lib))
        for prefix in ("scipy_openblas", "openblas"):
            get = getattr(handle, f"{prefix}_get_num_threads64_", None)
            set_ = getattr(handle, f"{prefix}_set_num_threads64_", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block on one OpenBLAS thread, whose many small eigh and
    matrix products cost a second thread more CPU time than they save,
    and restore the count after; a count from the environment stands."""
    control = (None if any(_atoi(os.environ.get(name, "")) > 0
                           for name in _THREAD_ENV)
               else _openblas_threads())
    if control is None:
        yield
        return
    get, set_ = control
    previous = get()
    set_(1)
    try:
        yield
    finally:
        set_(previous)


def _guard(fn):
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        with _one_blas_thread():
            try:
                return fn(*args, **kwargs)
            except (ParseError, ValueError) as exc:
                raise click.UsageError(str(exc)) from exc
            except _NUMERICAL as exc:
                click.echo(f"numerical failure: {exc}", err=True)
                sys.exit(3)
    return wrapped


def _options(*opts):
    def apply(fn):
        for opt in reversed(opts):
            fn = opt(fn)
        return fn
    return apply


# the data, kernel and split: every command that reads data
_data_options = _options(
    click.option("--dataset", required=True, type=click.Path(exists=True),
                 help="LIBSVM-format data file."),
    click.option("--loss", type=click.Choice(LOSSES), default=_DEFAULT.loss),
    click.option("--kernel", type=click.Choice(KINDS), default=_DEFAULT.kernel),
    click.option("--bandwidth", type=float, default=_DEFAULT.bandwidth,
                 help="RBF bandwidth; defaults to the pooled-variance heuristic."),
    click.option("--kernel-file", type=click.Path(exists=True),
                 default=_DEFAULT.kernel_file,
                 help="Symmetric PSD CSV matrix over all rows of "
                      "--dataset, for --kernel precomputed."),
    click.option("--folds", type=int, default=_DEFAULT.folds),
    click.option("--seed", type=int, default=_DEFAULT.seed),
    click.option("--min-max-scale", is_flag=True,
                 help="Scale features to [0,1] before splitting."))

# the run on that data: every command but lambda-cv
_run_options = _options(
    click.option("--lambda-rule", default=_DEFAULT.lambda_rule,
                 help="'n', 'n*10^-1.5', 'n*10^-3', a number, or 'cv-best'; "
                      "n is each fold's training size."),
    click.option("--a", type=float, default=_DEFAULT.a,
                 help="Training-side shift factor; sets S."),
    click.option("--q-factor", type=float, default=_DEFAULT.q_factor,
                 help="Validation-side shift factor; defaults to --a."),
    click.option("--algorithm", type=click.Choice(ALGORITHMS),
                 default=_DEFAULT.algorithm,
                 help="Greedy variant; 0 picks 1 when the fold's training "
                      f"size n_tr <= {EXACT_MAX_N_TR}, else 2."),
    click.option("--preserve-classes", is_flag=True,
                 help="Never remove the last instance of a class."))

_common = _options(_data_options, _run_options)

_fold_options = _options(
    click.option("--method", type=click.Choice(ALL_METHODS), default=ROBUST_METHOD),
    click.option("--removal-fraction", type=float, default=0.5,
                 help="Fraction of the fold's training instances to remove, "
                      "in [0, 1); like a --removal-grid entry of sweep, it "
                      "removes min(round(f*n_tr), n_tr - 1), or at most "
                      "n_tr - 2 with --preserve-classes."),
    click.option("--fold", type=int, default=0))

_indices = click.option(
    "--indices", type=click.Path(exists=True), default=None,
    help="File of kept original indices, one per line, each at most once; "
         "replaces selection, so method is reported as null.")


def _warn_if_negative_weights(S, Q, weights_may_be_negative):
    limits = {"training": ("S", S, "1"),
              "validation": ("Q", Q, "sqrt(n'/(n'-1))")}
    for ball in weights_may_be_negative:
        name, value, limit = limits[ball]
        click.echo(f"warning: {ball} ball radius {name}={value:.4g} exceeds "
                   f"{limit}; weights may leave the nonnegative orthant",
                   err=True)


def _fold_context(kwargs, fold, removal_fraction, output_dir=None):
    config = ExperimentConfig(**kwargs, removal_grid=(removal_fraction,),
                              output_dir=output_dir)
    config.check_fold(fold)
    ds, plan, rule, folds = start_run(config)
    ctx = prepare_fold(ds, config, fold, rule, plan, folds)
    _warn_if_negative_weights(ctx.S, ctx.Q, ctx.weights_may_be_negative)
    return config, ctx


def _selection(ctx, config, method):
    (n_del,) = config.removal_counts(len(ctx.y_tr))
    return run_selection(ctx, config, method, n_del)


@click.group(context_settings={"show_default": True})
def main():
    """Coreset selection with certified worst-case validation error."""


@main.command("select")
@_common
@_fold_options
@click.option("--output-dir", type=click.Path(), default=".")
@_guard
def select_cmd(method, removal_fraction, fold, output_dir, **kwargs):
    """Select a coreset on one fold; writes trace JSON and kept indices."""
    config, ctx = _fold_context(kwargs, fold, removal_fraction, output_dir)
    trace = _selection(ctx, config, method)
    kept_local = trace.kept_indices()
    kept_original = ctx.tr_idx[kept_local]
    out = Path(output_dir)
    payload = {**trace.to_dict(), "fold": fold,
               "train_index_map": ctx.tr_idx.tolist(),
               "kept_original_indices": kept_original.tolist()}
    (out / "trace.json").write_text(json.dumps(payload, indent=2) + "\n")
    (out / "selected_indices.txt").write_text(
        "".join(f"{i}\n" for i in kept_original))
    click.echo(f"kept {kept_local.size}/{len(ctx.y_tr)} training instances "
               f"(fold {fold}, method {method}); wrote {out / 'trace.json'}")


def _coreset_mask(ctx, config, method, indices_file):
    if not indices_file:
        return _selection(ctx, config, method).kept_mask(), method
    kept_original = [int(tok) for tok in Path(indices_file).read_text().split()]
    if not kept_original:
        raise click.UsageError("--indices lists no instances")
    if len(set(kept_original)) < len(kept_original):
        raise click.UsageError("--indices lists an instance more than once")
    pos = {orig: local for local, orig in enumerate(ctx.tr_idx)}
    missing = [i for i in kept_original if i not in pos]
    if missing:
        raise click.UsageError(
            f"indices not in this fold's training part: {missing[:5]}")
    v = np.zeros(len(ctx.y_tr))
    v[[pos[i] for i in kept_original]] = 1.0
    return v, None


@main.command("certify")
@_common
@_fold_options
@_indices
@click.option("--output-dir", type=click.Path(), default=".")
@_guard
def certify_cmd(method, removal_fraction, fold, indices, output_dir, **kwargs):
    """Certificate (radius, zeta, error bound) for a coreset."""
    config, ctx = _fold_context(kwargs, fold, removal_fraction, output_dir)
    v, method = _coreset_mask(ctx, config, method, indices)
    report = certify_coreset(ctx, v)
    out = Path(output_dir)
    payload = report.to_dict()
    payload.update(fold=fold, method=method, S=ctx.S, Q=ctx.Q,
                   m=int(v.sum()), n_train=len(ctx.y_tr),
                   certified_lb=1.0 - report.ub, lam=ctx.model.lam_abs)
    (out / "bound_report.json").write_text(json.dumps(payload, indent=2) + "\n")
    click.echo(f"dg_max={report.ball.dg_max:.6g} radius={report.radius:.6g} "
               f"certified={report.counts.surely_correct}/{len(report.zeta)} "
               f"error_ub={report.ub:.6g}")


@main.command("evaluate")
@_common
@_fold_options
@_indices
@_guard
def evaluate_cmd(method, removal_fraction, fold, indices, **kwargs):
    """Retrain on a coreset and print worst-case weighted validation accuracy."""
    config, ctx = _fold_context(kwargs, fold, removal_fraction)
    v, method = _coreset_mask(ctx, config, method, indices)
    wc = retrained_accuracy(ctx, v)
    click.echo(json.dumps({"fold": fold, "method": method, "m": int(v.sum()),
                           "wc_accuracy": wc, "Q": ctx.Q}, indent=2))


@main.command("sweep")
@_common
@click.option("--methods", default=",".join(_DEFAULT.methods),
              help="Comma-separated method list.")
@click.option("--removal-grid", default=",".join(map(str, _DEFAULT.removal_grid)),
              help="Comma-separated removed fractions in [0, 1).")
@click.option("--timing/--no-timing", default=_DEFAULT.timing,
              help="Record wall times (breaks byte-identical reruns).")
@click.option("--output-dir", type=click.Path(), default=".")
@_guard
def sweep_cmd(methods, removal_grid, timing, output_dir, **kwargs):
    """Fold x method x retained-size sweep; writes report.csv / report.json."""
    config = ExperimentConfig(
        **kwargs,
        methods=tuple(m.strip() for m in methods.split(",") if m.strip()),
        removal_grid=tuple(float(f) for f in removal_grid.split(",")),
        output_dir=output_dir, timing=timing)
    report = run_experiment(config)
    for diag in report.gap_diagnostics:
        _warn_if_negative_weights(diag["S"], diag["Q"],
                                  diag["weights_may_be_negative"])
    click.echo(f"lambda={report.lambda_rule}; {len(report.rows)} rows -> "
               f"{Path(output_dir) / 'report.csv'}")
    for method, per_frac in sorted(report.aggregates.items()):
        for frac, agg in sorted(per_frac.items(), key=lambda kv: float(kv[0])):
            click.echo(f"  {method:12s} removed={float(frac):4.2f} "
                       f"wc_acc={agg['wc_accuracy_mean']:.4f}"
                       f"+-{agg['wc_accuracy_std']:.4f} "
                       f"certified_lb={agg['certified_lb_mean']:.4f}")


@main.command("lambda-cv")
@_data_options
@click.option("--grid", default=",".join(DEFAULT_LAMBDA_GRID),
              help="Comma-separated lambda rules (as for --lambda-rule, "
                   "without cv-best).  Prints the winning rule.")
@_guard
def lambda_cv_cmd(grid, **kwargs):
    """Print the cross-validated lambda rule, usable as --lambda-rule."""
    _, _, rule, _ = start_run(ExperimentConfig(**kwargs, lambda_rule="cv-best"),
                              grid.split(","))
    click.echo(rule)


@main.command("synth")
@click.option("--n", type=int, default=200)
@click.option("--d", type=int, default=5)
@click.option("--n-plus", type=int, default=None)
@click.option("--separation", type=float, default=2.0)
@click.option("--seed", type=int, default=0)
@click.option("--out", type=click.Path(), required=True)
@_guard
def synth_cmd(n, d, n_plus, separation, seed, out):
    """Write a two-class Gaussian dataset in LIBSVM format."""
    ds = gaussian_task(n, d, seed=seed, separation=separation, n_plus=n_plus)
    Path(out).write_text(to_libsvm(ds))
    click.echo(f"wrote {out}: n={ds.n} n_plus={ds.n_plus} d={ds.d}")


if __name__ == "__main__":
    main()
