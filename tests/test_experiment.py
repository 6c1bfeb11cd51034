import gc
import json
import math
import weakref
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import robustcoreset as rc
from robustcoreset import bound, select
from robustcoreset.cli import main as cli_main
from robustcoreset.experiment import (DEFAULT_LAMBDA_GRID, ExperimentConfig,
                                      certify_coreset, load_dataset, load_inputs,
                                      min_max_scaled, prepare_fold,
                                      resolve_lambda_rule, retrained_accuracy,
                                      run_experiment, run_selection, start_run)

import oracles
from table_data import load_table_dataset


def dummy_model(scores):
    n = len(scores)
    K = np.eye(1)
    return rc.Model(alpha=np.array([1.0]), lam_abs=1.0, loss=rc.HINGE,
                    gram_ref=K, certified_gap=0.0, y=np.array([1.0]),
                    rep_coef=np.array([1.0]), train_scores=np.array([0.0]))


def wc_accuracy_from_scores(scores, y_val, Q):
    model = dummy_model(scores)
    K_cross = np.asarray(scores, dtype=float)[None, :]
    return rc.evaluate_worst_case_accuracy(model, K_cross, y_val, Q)


def test_worst_case_accuracy_all_correct_no_shift():
    assert wc_accuracy_from_scores([0.5, 1.0, 2.0], np.ones(3), 0.0) == 1.0


def test_worst_case_accuracy_all_wrong():
    assert wc_accuracy_from_scores([-1.0, -2.0], np.ones(2), 0.7) == 0.0


def test_worst_case_accuracy_half_correct():
    val = wc_accuracy_from_scores([1.0, 1.0, -1.0, -1.0], np.ones(4), 1.0)
    assert val == pytest.approx((2.0 - 1.0) / 4.0)
    assert val == pytest.approx(0.25)


def test_resolve_lambda_rule():
    assert resolve_lambda_rule("n", 552) == 552.0
    assert resolve_lambda_rule("n*10^-1.5", 552) == pytest.approx(552 * 10 ** -1.5)
    assert resolve_lambda_rule("n*10^-3", 552) == pytest.approx(0.552)
    assert resolve_lambda_rule("1.5", 552) == 1.5
    with pytest.raises(ValueError):
        resolve_lambda_rule("best", 552)
    # a rule must give a finite positive lambda at the n it is resolved at
    for rule, n in (("-2", 552), ("0", 552), ("nan", 552), ("inf", 552),
                    ("1e400", 552), ("n*10^400", 1), ("n*10^-400", 552),
                    ("n*10^307", 552)):
        with pytest.raises(ValueError, match="lambda rule"):
            resolve_lambda_rule(rule, n)
    assert resolve_lambda_rule("n*10^307", 1) == 1e307


def test_default_lambda_grid():
    grid = [resolve_lambda_rule(rule, 100) for rule in DEFAULT_LAMBDA_GRID]
    assert grid[0] == pytest.approx(0.1)
    assert grid[-1] == pytest.approx(100.0)
    assert grid == sorted(grid)


def cv_config(folds, seed):
    return ExperimentConfig(dataset="<in-memory>", folds=folds, seed=seed)


def test_lambda_cv_single_element():
    ds = rc.gaussian_task(40, 3, seed=0)
    rule, _ = rc.lambda_cv(ds, rc.cv_split(ds, 4, 0), ["2.5"], cv_config(4, 0))
    assert rule == "2.5"


def test_lambda_cv_prefers_better_lambda():
    ds = rc.gaussian_task(80, 3, seed=1, separation=4.0)
    grid = ["n*10^-3", "n"]
    plan = rc.cv_split(ds, 4, 0)
    best, _ = rc.lambda_cv(ds, plan, grid, cv_config(4, 0))
    accs = {}
    for rule in grid:
        fold_accs = []
        for k in range(4):
            tr, va = plan.train_indices(k), plan.val_indices(k)
            X_tr, X_va = ds.features[tr], ds.features[va]
            h = rc.bandwidth_heuristic(X_tr)
            K = rc.gram(X_tr, X_tr, h)
            Kx = rc.gram(X_tr, X_va, h)
            model = rc.train(K, ds.labels[tr],
                             resolve_lambda_rule(rule, tr.size),
                             kind=rc.LOGISTIC)
            fold_accs.append(float(np.mean(
                ds.labels[va] * rc.decision_scores(model, Kx) > 0)))
        accs[rule] = np.mean(fold_accs)
    assert best == max(grid, key=lambda rule: (
        accs[rule], -resolve_lambda_rule(rule, ds.n)))


def test_lambda_cv_deterministic():
    ds = rc.gaussian_task(50, 3, seed=2)
    grid = ["5.0", "n*10^-3"]
    config = cv_config(5, 7)
    plan = rc.cv_split(ds, 5, 7)
    assert (rc.lambda_cv(ds, plan, grid, config)[0]
            == rc.lambda_cv(ds, plan, grid, config)[0])


def test_min_max_scaled():
    ds = rc.Dataset.from_arrays(np.array([[0.0, 5.0], [10.0, 5.0]]), [1, -1])
    scaled = min_max_scaled(ds)
    np.testing.assert_allclose(scaled.features[:, 0], [0.0, 1.0])
    np.testing.assert_allclose(scaled.features[:, 1], [0.0, 0.0])
    np.testing.assert_array_equal(scaled.features[:, -1], 1.0)


@pytest.fixture(scope="module")
def synth_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "synth.svm"
    ds = rc.gaussian_task(90, 4, seed=21, separation=2.5)
    path.write_text(rc.to_libsvm(ds))
    return str(path)


def test_run_experiment_row_count(synth_file, tmp_path):
    config = ExperimentConfig(dataset=synth_file, lambda_rule="2.0", a=1.5,
                              methods=("random",), removal_grid=(0.5,),
                              folds=2, seed=0, output_dir=str(tmp_path))
    report = run_experiment(config)
    assert len(report.rows) == 2
    # S = sqrt(n_plus) * 0.5 > 1: the training ball reaches negative
    # weights, and so does the validation ball, Q = sqrt(n_plus') * 0.5
    # above sqrt(45 / 44)
    assert [d["weights_may_be_negative"] for d in report.gap_diagnostics] == [
        ["training", "validation"]] * 2
    assert all(d["S"] > 1.0 for d in report.gap_diagnostics)
    assert all(set(d) == {"fold", "lambda", "q_exact_full", "q_exact_worst_w",
                          "S", "Q", "weights_may_be_negative"}
               for d in report.gap_diagnostics)
    lines = (tmp_path / "report.csv").read_text().splitlines()
    assert len(lines) == 3
    assert lines[0] == ("fold,method,m,fraction_removed,wc_accuracy,"
                        "certified_lb,dg_max,wall_ms,status")


def test_run_experiment_soundness_and_sanity(synth_file):
    config = ExperimentConfig(dataset=synth_file, lambda_rule="4.0",
                              loss=rc.HINGE,
                              methods=("robust", "random", "margin"),
                              removal_grid=(0.0, 0.3, 0.5), folds=3, seed=1,
                              algorithm=3)
    report = run_experiment(config)
    assert len(report.rows) == 3 * 3 * 3
    by_fold_frac0 = {}
    for row in report.rows:
        assert row["status"] == "ok"
        if row["method"] == "robust":
            assert row["certified_lb"] <= row["wc_accuracy"] + 1e-6
        if row["fraction_removed"] == 0.0:
            by_fold_frac0.setdefault(row["fold"], set()).add(
                round(row["wc_accuracy"], 12))
    for fold, values in by_fold_frac0.items():
        assert len(values) == 1
    assert report.gap_diagnostics and "q_exact_full" in report.gap_diagnostics[0]
    for diag in report.gap_diagnostics:
        assert diag["S"] < 1.0 and diag["weights_may_be_negative"] == []


def test_run_experiment_deterministic_csv(synth_file, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        config = ExperimentConfig(dataset=synth_file, lambda_rule="3.0",
                                  methods=("robust", "random"),
                                  removal_grid=(0.2, 0.4), folds=2, seed=5,
                                  algorithm=2, output_dir=str(out))
        run_experiment(config)
    assert (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()
    j1 = json.loads((out1 / "report.json").read_text())
    assert set(j1) == {"config", "lambda", "rows", "aggregates",
                       "gap_diagnostics"}


def test_run_experiment_method_rows_independent_of_method_list(synth_file):
    rows = {}
    for methods in (("random",), ("robust", "random")):
        config = ExperimentConfig(dataset=synth_file, lambda_rule="2.0",
                                  methods=methods, removal_grid=(0.3, 0.5),
                                  folds=2, seed=3, algorithm=2)
        rows[methods] = [r for r in run_experiment(config).rows
                         if r["method"] == "random"]
    assert rows[("random",)] and rows[("random",)] == rows[("robust", "random")]


@pytest.mark.parametrize("loss", ["hinge", "logistic"])
def test_direct_gap_matches_quadratic_at_worst_weight(synth_file, loss):
    # both are the sum-form gap at the fold's own lambda
    config = ExperimentConfig(dataset=synth_file, loss=loss,
                              lambda_rule="n*10^-1.5", a=1.2,
                              methods=("random",), removal_grid=(0.5,),
                              folds=3, seed=3)
    ds, plan, rule, folds = start_run(config)
    for fold in range(config.folds):
        ctx = prepare_fold(ds, config, fold, rule, plan, folds)
        model, w_worst = ctx.model, ctx.full_ball.w_star
        q = ctx.form_cert.value(w_worst)
        direct = oracles.sum_form_gap(ctx.K.tolist(), model.y.tolist(),
                                      model.alpha.tolist(), model.lam_abs,
                                      model.train_scores.tolist(), loss,
                                      w_worst.tolist())
        assert abs(direct - q) <= 1e-9 * max(1.0, abs(q))


def test_config_validation(synth_file):
    with pytest.raises(ValueError):
        ExperimentConfig(dataset=synth_file, removal_grid=(1.0,))
    with pytest.raises(ValueError):
        ExperimentConfig(dataset=synth_file, methods=("grand",))
    with pytest.raises(ValueError):
        ExperimentConfig(dataset=synth_file, lambda_rule="nope")
    # options the run would ignore, only trip over inside a fold, or turn
    # into rows that look valid (a NaN shift factor certifies everything)
    for bad, option in ((dict(bandwidth=0.0), "--bandwidth"),
                        (dict(bandwidth=math.nan), "--bandwidth"),
                        (dict(bandwidth=math.inf), "--bandwidth"),
                        (dict(kernel="linear", bandwidth=5.0), "--bandwidth"),
                        (dict(q_factor=-1.0), "--q-factor"),
                        (dict(q_factor=0.0), "--q-factor"),
                        (dict(q_factor=math.nan), "--q-factor"),
                        (dict(a=0.0), "--a"),
                        (dict(a=math.nan), "--a"),
                        (dict(a=math.inf), "--a"),
                        (dict(folds=1), "--folds"),
                        (dict(folds=0), "--folds"),
                        (dict(seed=-1), "--seed"),
                        (dict(algorithm=4), "--algorithm"),
                        (dict(lambda_rule="nan"), "lambda rule"),
                        (dict(lambda_rule="inf"), "lambda rule"),
                        (dict(lambda_rule="n*10^400"), "lambda rule"),
                        (dict(methods=()), "--methods"),
                        (dict(methods=("robust", "robust")), "--methods"),
                        (dict(removal_grid=(0.1, 0.1)), "--removal-grid"),
                        (dict(removal_grid=()), "--removal-grid"),
                        (dict(kernel="poly"), "--kernel"),
                        (dict(loss="foo"), "--loss")):
        with pytest.raises(ValueError, match=option):
            ExperimentConfig(dataset=synth_file, **bad)


def test_cli_synth_and_sweep(tmp_path):
    runner = CliRunner()
    data = tmp_path / "task.svm"
    res = runner.invoke(cli_main, ["synth", "--n", "80", "--d", "3",
                                   "--seed", "4", "--out", str(data)])
    assert res.exit_code == 0, res.output
    out = tmp_path / "run"
    res = runner.invoke(cli_main, [
        "sweep", "--dataset", str(data), "--lambda-rule", "2.0",
        "--methods", "robust,random", "--removal-grid", "0.3,0.5",
        "--folds", "2", "--seed", "0", "--algorithm", "3",
        "--output-dir", str(out)])
    assert res.exit_code == 0, res.output
    assert (out / "report.csv").exists() and (out / "report.json").exists()
    assert "certified_lb" in res.output


def test_cli_defaults_are_the_config_defaults(tmp_path):
    # the CLI restates no default: a sweep given only its paths runs the
    # config's own defaults
    runner = CliRunner()
    data, out = tmp_path / "task.svm", tmp_path / "run"
    runner.invoke(cli_main, ["synth", "--n", "30", "--d", "2", "--seed", "1",
                             "--out", str(data)])
    res = runner.invoke(cli_main, ["sweep", "--dataset", str(data),
                                   "--output-dir", str(out)])
    assert res.exit_code == 0, res.output
    config = json.loads((out / "report.json").read_text())["config"]
    expected = vars(ExperimentConfig(dataset=str(data), output_dir=str(out)))
    assert config == json.loads(json.dumps(expected))


def test_cli_sweep_warns_once_per_fold_with_s_above_one(tmp_path):
    # 20 positives in 60 rows: each fold trains on about 16, so a = 1.6
    # gives S = sqrt(16) * 0.6 > 1 and a = 1.05 gives S = 0.2; the
    # validation parts hold 12 rows, so the validation ball (Q from the
    # same factor) reaches negative weights where Q > sqrt(12 / 11)
    runner = CliRunner()
    data = tmp_path / "task.svm"
    runner.invoke(cli_main, ["synth", "--n", "60", "--n-plus", "20",
                             "--seed", "2", "--out", str(data)])
    limits = {"training": ("S", "1"), "validation": ("Q", "sqrt(n'/(n'-1))")}
    for a, flagged in (("1.6", 5), ("1.05", 0)):
        out = tmp_path / a
        res = runner.invoke(cli_main, [
            "sweep", "--dataset", str(data), "--lambda-rule", "n",
            "--methods", "random", "--removal-grid", "0.1", "--a", a,
            "--output-dir", str(out)])
        assert res.exit_code == 0, res.output
        diags = json.loads((out / "report.json").read_text())["gap_diagnostics"]
        for d in diags:
            assert d["weights_may_be_negative"] == [
                ball for ball, negative in (
                    ("training", d["S"] > 1.0),
                    ("validation", d["Q"] > math.sqrt(12 / 11))) if negative]
        warnings = [f"warning: {ball} ball radius {name}={d[name]:.4g} exceeds "
                    f"{limit}; weights may leave the nonnegative orthant"
                    for d in diags for ball in d["weights_may_be_negative"]
                    for name, limit in [limits[ball]]]
        assert sum("training" in d["weights_may_be_negative"]
                   for d in diags) == flagged
        assert res.stderr.splitlines() == warnings
        assert "warning" not in res.stdout


def test_cli_sweep_flags_validation_ball_with_negative_weights(tmp_path):
    # Q = sqrt(n_plus') * 2 is 8.5 to 9.6 on the 40-row validation parts,
    # far above sqrt(40 / 39), while S stays near 0.3: the validation ball
    # alone reaches negative weights.  It is flagged and the sweep runs.
    runner = CliRunner()
    data, out = tmp_path / "task.svm", tmp_path / "out"
    runner.invoke(cli_main, ["synth", "--n", "120", "--seed", "1",
                             "--out", str(data)])
    res = runner.invoke(cli_main, [
        "sweep", "--dataset", str(data), "--lambda-rule", "n", "--folds", "3",
        "--q-factor", "3", "--output-dir", str(out)])
    assert res.exit_code == 0, res.output
    diags = json.loads((out / "report.json").read_text())["gap_diagnostics"]
    assert [d["weights_may_be_negative"] for d in diags] == [["validation"]] * 3
    for d in diags:
        assert d["S"] < 1.0 and d["Q"] > math.sqrt(40 / 39)
        # the ball's smallest weight, 1 - Q sqrt((n' - 1) / n'), is negative
        assert 1.0 - d["Q"] * math.sqrt(39 / 40) < 0.0
    assert res.stderr.splitlines() == [
        f"warning: validation ball radius Q={d['Q']:.4g} exceeds "
        "sqrt(n'/(n'-1)); weights may leave the nonnegative orthant"
        for d in diags]


def test_preserve_classes_caps_removals_below_two_kept(tmp_path):
    # every training part holds both classes, so at most n_tr - 2 removals
    # keep one of each; a fraction that rounds to n_tr - 1 takes that cap
    for preserve, cap in ((False, 79), (True, 78)):
        config = ExperimentConfig(dataset="<in-memory>", removal_grid=(0.5, 0.99),
                                  preserve_classes=preserve)
        assert config.removal_counts(80) == [40, cap]
    runner = CliRunner()
    data, out = tmp_path / "task.svm", tmp_path / "out"
    runner.invoke(cli_main, ["synth", "--n", "120", "--seed", "1",
                             "--out", str(data)])
    common = ["--dataset", str(data), "--lambda-rule", "n", "--folds", "3",
              "--preserve-classes"]
    res = runner.invoke(cli_main, [
        "sweep", *common, "--algorithm", "2", "--removal-grid", "0.5,0.99",
        "--output-dir", str(out)])
    assert res.exit_code == 0, res.output
    rows = json.loads((out / "report.json").read_text())["rows"]
    assert len(rows) == 3 * 2 * 2
    assert all(row["status"] == "ok" for row in rows)
    assert sorted({row["m"] for row in rows}) == [2, 40]
    res = runner.invoke(cli_main, [
        "certify", *common, "--removal-fraction", "0.99",
        "--output-dir", str(tmp_path / "certify")])
    assert res.exit_code == 0, res.output
    payload = json.loads((tmp_path / "certify" / "bound_report.json").read_text())
    assert payload["m"] == 2


def test_cv_best_builds_each_fold_once(uneven_file, tmp_path, monkeypatch):
    # lambda_cv builds each fold's kernels and trains its reference model at
    # every grid rule; the sweep reuses both, and lambda-cv is the same start
    import robustcoreset.experiment as experiment
    fold_kernels, train = experiment.fold_kernels, experiment.train
    kernel_calls, reference_trainings, splits = [], [], []

    def counting_fold_kernels(*args):
        kernel_calls.append(args)
        return fold_kernels(*args)

    def counting_train(*args, **kwargs):
        if kwargs.get("v") is None:
            reference_trainings.append(args)
        return train(*args, **kwargs)

    def counting_split(*args):
        splits.append(args)
        return rc.cv_split(*args)

    monkeypatch.setattr(experiment, "fold_kernels", counting_fold_kernels)
    monkeypatch.setattr(experiment, "train", counting_train)
    monkeypatch.setattr(experiment, "cv_split", counting_split)
    runner = CliRunner()
    common = ["--dataset", uneven_file, "--folds", "3", "--seed", "1"]
    res = runner.invoke(cli_main, [
        "sweep", *common, "--lambda-rule", "cv-best", "--methods", "random",
        "--removal-grid", "0.5", "--output-dir", str(tmp_path)])
    assert res.exit_code == 0, res.output
    assert len(kernel_calls) == 3
    assert len(reference_trainings) == 3 * len(DEFAULT_LAMBDA_GRID)
    assert len(splits) == 1
    splits.clear()
    res = runner.invoke(cli_main, ["lambda-cv", *common])
    assert res.exit_code == 0, res.output
    assert len(splits) == 1
    report = json.loads((tmp_path / "report.json").read_text())
    assert res.output.strip() == report["lambda"]


def test_cli_select_certify_evaluate(tmp_path):
    runner = CliRunner()
    data = tmp_path / "task.svm"
    runner.invoke(cli_main, ["synth", "--n", "60", "--d", "3", "--seed", "9",
                             "--out", str(data)])
    out = tmp_path / "sel"
    res = runner.invoke(cli_main, [
        "select", "--dataset", str(data), "--lambda-rule", "2.0",
        "--method", "robust", "--algorithm", "2", "--removal-fraction", "0.4",
        "--folds", "3", "--output-dir", str(out)])
    assert res.exit_code == 0, res.output
    indices = out / "selected_indices.txt"
    assert indices.exists()
    trace = json.loads((out / "trace.json").read_text())
    assert len(trace["kept_original_indices"]) == len(
        indices.read_text().split())

    res = runner.invoke(cli_main, [
        "certify", "--dataset", str(data), "--lambda-rule", "2.0",
        "--folds", "3", "--indices", str(indices), "--output-dir",
        str(tmp_path / "cert")])
    assert res.exit_code == 0, res.output
    payload = json.loads((tmp_path / "cert" / "bound_report.json").read_text())
    assert 0.0 <= payload["ub"] <= 1.0
    assert payload["certified_lb"] == pytest.approx(1.0 - payload["ub"])
    # an --indices coreset is not attributed to the --method default
    assert payload["method"] is None

    res = runner.invoke(cli_main, [
        "evaluate", "--dataset", str(data), "--lambda-rule", "2.0",
        "--folds", "3", "--indices", str(indices)])
    assert res.exit_code == 0, res.output
    result = json.loads(res.output)
    assert 0.0 <= result["wc_accuracy"] <= 1.0
    assert result["method"] is None


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_cli_trace_json_is_strict(tmp_path):
    runner = CliRunner()
    data = tmp_path / "task.svm"
    runner.invoke(cli_main, ["synth", "--n", "60", "--d", "3", "--seed", "9",
                             "--out", str(data)])
    for method, algorithm in (("random", "0"), ("robust", "2")):
        out = tmp_path / method
        res = runner.invoke(cli_main, [
            "select", "--dataset", str(data), "--lambda-rule", "2.0",
            "--method", method, "--algorithm", algorithm,
            "--removal-fraction", "0.4", "--folds", "3",
            "--output-dir", str(out)])
        assert res.exit_code == 0, res.output
        trace = json.loads((out / "trace.json").read_text(),
                           parse_constant=_reject_constant)
        assert "per_step" not in trace
        assert trace["removal_order"]
        if method == "robust":
            assert len(trace["gaps"]) == len(trace["removal_order"])
            assert trace["seed"] is None  # a robust selector draws nothing
        else:
            assert trace["gaps"] == []
            assert isinstance(trace["seed"], int)


def test_one_full_set_ball_solve_per_fold(synth_file, monkeypatch):
    # the 0.0 rows keep every instance and certify with the fold's solve;
    # every fold of the run shares one split, which cv-best picks on too
    import robustcoreset.experiment as experiment
    config = ExperimentConfig(dataset=synth_file, lambda_rule="2.0",
                              methods=("robust", "random"),
                              removal_grid=(0.0, 0.3, 0.5), folds=2, seed=3,
                              algorithm=2)
    full_set_solves, splits = [], []
    orig = bound.maximize_on_ball

    def counting(form, v, S, *args, **kwargs):
        if np.all(np.asarray(v) == 1.0):
            full_set_solves.append(form.n)
        return orig(form, v, S, *args, **kwargs)

    def counting_split(*args):
        splits.append(args)
        return rc.cv_split(*args)

    monkeypatch.setattr(bound, "maximize_on_ball", counting)
    monkeypatch.setattr(experiment, "cv_split", counting_split)
    run_experiment(config)
    assert len(full_set_solves) == config.folds
    assert len(splits) == 1
    splits.clear()
    run_experiment(ExperimentConfig(dataset=synth_file, lambda_rule="cv-best",
                                    methods=("random",), removal_grid=(0.5,),
                                    folds=2, seed=3))
    assert [args[1:] for args in splits] == [(2, 3)]
    monkeypatch.undo()
    # the selectors must not zero the cached worst-case weight in place
    for algorithm in (2, 3):
        cfg = ExperimentConfig(dataset=synth_file, lambda_rule="2.0",
                               folds=2, algorithm=algorithm)
        ds = load_inputs(cfg)
        ctx = prepare_fold(ds, cfg, 0, "2.0", rc.cv_split(ds, 2, cfg.seed))
        run_selection(ctx, cfg, "robust", 20)
        fresh = bound.maximize_on_ball(ctx.form_cert, np.ones(len(ctx.y_tr)),
                                       ctx.S).w_star
        np.testing.assert_array_equal(ctx.full_ball.w_star, fresh)


@pytest.mark.parametrize("algorithm", [1, 2])
def test_certificates_build_no_w_star(synth_file, monkeypatch, algorithm):
    # a sweep row reads a certificate's ub and dg_max, never its w_star:
    # the only maximizer built is each fold's full-set one, which the gap
    # diagnostics (and the fixed-w selector) read
    lift, built = bound._lift, []

    def counting_lift(*args):
        built.append(args[0])
        return lift(*args)

    monkeypatch.setattr(bound, "_lift", counting_lift)
    config = ExperimentConfig(dataset=synth_file, lambda_rule="2.0",
                              methods=("robust", "random"),
                              removal_grid=(0.0, 0.3, 0.5), folds=3, seed=3,
                              algorithm=algorithm)
    report = run_experiment(config)
    assert len(report.rows) == 18
    assert len(built) == config.folds


def test_cv_best_prepare_fold_returns_lambda_cvs_record(synth_file,
                                                       monkeypatch):
    # lambda_cv builds each fold once, one record per grid rule, and
    # prepare_fold hands on the winning rule's record itself
    import robustcoreset.experiment as experiment
    fold, built = experiment._fold, []

    def recording_fold(*args):
        built.append(fold(*args))
        return built[-1]

    monkeypatch.setattr(experiment, "_fold", recording_fold)
    config = ExperimentConfig(dataset=synth_file, folds=3, seed=3)
    ds, plan, rule, folds = start_run(config)
    assert [len(ctxs) for ctxs in built] == [len(DEFAULT_LAMBDA_GRID)] * 3
    for k, ctxs in enumerate(built):
        ctx = prepare_fold(ds, config, k, rule, plan, folds)
        assert ctx is folds[k]
        assert [c is ctx for c in ctxs].count(True) == 1
        assert ctx.fold == k
        assert ctx.model.lam_abs == resolve_lambda_rule(rule, len(ctx.y_tr))
    assert len(built) == config.folds


def test_cv_best_sweep_builds_one_quadratic_per_fold(synth_file,
                                                     monkeypatch):
    # the records of the grid rules that lose build no gap quadratic
    quadratic_form, built = bound.quadratic_form, []

    def counting_quadratic_form(model):
        built.append(model.lam_abs)
        return quadratic_form(model)

    monkeypatch.setattr(bound, "quadratic_form", counting_quadratic_form)
    config = ExperimentConfig(dataset=synth_file, methods=("robust", "random"),
                              removal_grid=(0.0, 0.3), folds=3, seed=3)
    report = run_experiment(config)
    assert len(report.rows) == 12
    assert len(built) == config.folds


def dead_drop_config(synth_file):
    # hinge at lambda 2.0: 23-27 of each fold's 60 training instances are
    # dead (alpha_i = 0 and no loss), and exact greedy removes 12 of them
    return ExperimentConfig(dataset=synth_file, loss="hinge",
                            lambda_rule="2.0", methods=("robust",),
                            removal_grid=(0.1, 0.2), folds=3, seed=3,
                            algorithm=1)


def test_certificates_of_the_live_set_take_no_spectral_step(synth_file,
                                                            monkeypatch):
    # a kept set that holds every live instance reads the fold's full-set
    # solve: its certificate takes no spectral step of its own
    import robustcoreset.experiment as experiment
    config = dead_drop_config(synth_file)
    ds = load_inputs(config)
    plan = rc.cv_split(ds, config.folds, config.seed)
    for fold in range(config.folds):
        ctx = prepare_fold(ds, config, fold, "2.0", plan)
        trace = run_selection(ctx, config, "robust",
                              max(config.removal_counts(len(ctx.y_tr))))
        assert not ctx.form_cert.live[trace.removal_order].any()
    step, certify_coreset = bound.spectral_step, experiment.certify_coreset
    own_steps, certificate_steps, certifying = [], [], []

    def counting_step(form, v, *reuse):
        if certifying:
            certificate_steps.append(v)
        if not reuse:
            own_steps.append(v)
        return step(form, v, *reuse)

    def flagged_certify(*args):
        certifying.append(True)
        try:
            return certify_coreset(*args)
        finally:
            certifying.pop()

    monkeypatch.setattr(bound, "spectral_step", counting_step)
    monkeypatch.setattr(experiment, "certify_coreset", flagged_certify)
    report = run_experiment(config)
    assert len(report.rows) == 6
    assert certificate_steps == []
    assert len(own_steps) == config.folds
    assert all(np.all(v == 1.0) for v in own_steps)


@pytest.mark.parametrize("algorithm", [1, 2])
def test_exact_greedy_starts_from_the_full_sets_spectral_step(
        synth_file, monkeypatch, algorithm):
    # the full-set solve and exact greedy's first removal solve the same
    # set: on an exact-greedy fold they share one eigendecomposition, which
    # the fold hands to the selection and which is freed when it ends, with
    # the removal order and gaps of a selection that takes its own; a
    # fixed-w fold keeps no eigenvectors
    config = ExperimentConfig(dataset=synth_file, loss="hinge",
                              lambda_rule="2.0", methods=("robust",),
                              folds=3, seed=3, algorithm=algorithm)
    ds = load_inputs(config)
    plan = rc.cv_split(ds, config.folds, config.seed)
    eigh, sizes = np.linalg.eigh, []
    step, steps = bound.spectral_step, []

    def counting_eigh(a):
        sizes.append(a.shape[0])
        return eigh(a)

    def recording_step(*args):
        spectrum = step(*args)
        steps.append(weakref.ref(spectrum))
        return spectrum

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    monkeypatch.setattr(bound, "spectral_step", recording_step)
    for fold in range(config.folds):
        ctx = prepare_fold(ds, config, fold, "2.0", plan)
        n_del = max(config.removal_counts(len(ctx.y_tr)))
        sizes.clear()
        ctx.full_ball
        assert sizes == [int(ctx.form_cert.live.sum())]
        if algorithm == 2:
            gc.collect()
            assert ctx._full_step is None and steps[-1]() is None
            continue
        full = weakref.ref(ctx._full_step)
        assert full() is steps[-1]() and ctx.S in full()._own
        sizes.clear()
        trace = run_selection(ctx, config, "robust", n_del)
        shared = len(sizes)
        gc.collect()
        assert ctx._full_step is None and full() is None
        sizes.clear()
        fresh = select.greedy_exact(ctx.form_cert, ctx.y_tr, ctx.S, n_del)
        assert len(sizes) == shared + 1
        assert trace.removal_order == fresh.removal_order
        assert np.array(trace.gaps).tobytes() == np.array(fresh.gaps).tobytes()


def dead_drop_cli(command, synth_file, *options):
    """``command`` on fold 0 of ``dead_drop_config``'s data and split;
    at --removal-fraction 0.2 robust selection drops only dead instances."""
    return CliRunner().invoke(cli_main, [
        command, "--dataset", synth_file, "--loss", "hinge", "--lambda-rule",
        "2.0", "--folds", "3", "--seed", "3", *options])


def test_cli_robust_certify_eigendecomposes_the_full_set_once(
        synth_file, tmp_path, monkeypatch):
    # the selection starts from the fold's full-set solve and its step,
    # and a certificate of dead drops reads that solve: one eigh in all
    config = dead_drop_config(synth_file)
    ds = load_inputs(config)
    ctx = prepare_fold(ds, config, 0, "2.0",
                       rc.cv_split(ds, config.folds, config.seed))
    eigh, sizes = np.linalg.eigh, []

    def counting_eigh(a):
        sizes.append(a.shape[0])
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    res = dead_drop_cli("certify", synth_file, "--algorithm", "1",
                        "--removal-fraction", "0.2", "--output-dir",
                        str(tmp_path))
    assert res.exit_code == 0, res.output
    assert sizes == [int(ctx.form_cert.live.sum())]


@pytest.mark.parametrize("command", ["select", "certify", "evaluate"])
def test_cli_robust_commands_leave_no_spectral_step_on_the_fold(
        synth_file, tmp_path, monkeypatch, command):
    # whatever reads an exact-greedy fold after its selection, the fold
    # holds no spectral step once the selection is done
    import robustcoreset.cli as cli
    prepare, folds = cli.prepare_fold, []
    step, steps = bound.spectral_step, []

    def recording_prepare(*args):
        folds.append(prepare(*args))
        return folds[-1]

    def recording_step(*args):
        spectrum = step(*args)
        steps.append(weakref.ref(spectrum))
        return spectrum

    monkeypatch.setattr(cli, "prepare_fold", recording_prepare)
    monkeypatch.setattr(bound, "spectral_step", recording_step)
    output = [] if command == "evaluate" else ["--output-dir", str(tmp_path)]
    res = dead_drop_cli(command, synth_file, "--algorithm", "1",
                        "--removal-fraction", "0.2", *output)
    assert res.exit_code == 0, res.output
    gc.collect()
    assert len(folds) == 1 and folds[0]._full_step is None
    assert steps and all(ref() is None for ref in steps)


@pytest.mark.parametrize("algorithm", [1, 2, 3])
def test_cli_select_writes_a_fresh_selections_trace(synth_file, tmp_path,
                                                    algorithm):
    # select starts from the fold's full-set solve; its trace.json has the
    # bytes of a selection that solves the full set on its own
    res = dead_drop_cli("select", synth_file, "--algorithm", str(algorithm),
                        "--removal-fraction", "0.6", "--output-dir",
                        str(tmp_path))
    assert res.exit_code == 0, res.output
    config = dead_drop_config(synth_file)
    ds = load_inputs(config)
    ctx = prepare_fold(ds, config, 0, "2.0",
                       rc.cv_split(ds, config.folds, config.seed))
    form, n = ctx.form_cert, len(ctx.y_tr)
    n_del = int(round(0.6 * n))
    if algorithm == 1:
        fresh = select.greedy_exact(form, ctx.y_tr, ctx.S, n_del)
    else:
        w_star = bound.maximize_on_ball(form, np.ones(n), ctx.S).w_star
        fresh = {2: select.greedy_fixed_w, 3: select.greedy_oneshot}[
            algorithm](form, ctx.y_tr, w_star, n_del)
    assert form.live[fresh.removal_order].any()
    payload = {**fresh.to_dict(), "fold": 0,
               "train_index_map": ctx.tr_idx.tolist(),
               "kept_original_indices":
                   ctx.tr_idx[fresh.kept_indices()].tolist()}
    assert ((tmp_path / "trace.json").read_text()
            == json.dumps(payload, indent=2) + "\n")


@pytest.mark.parametrize("loss", ["hinge", "logistic"])
def test_all_kept_score_is_the_reference_models_bit_for_bit(synth_file,
                                                            loss):
    # training on every instance gives the reference model's bits, so a
    # 0.0 row reports the reference model's own score
    config = ExperimentConfig(dataset=synth_file, loss=loss,
                              lambda_rule="2.0", folds=3, seed=3)
    ds = load_inputs(config)
    plan = rc.cv_split(ds, config.folds, config.seed)
    for fold in range(config.folds):
        ctx = prepare_fold(ds, config, fold, "2.0", plan)
        ones = np.ones(len(ctx.y_tr))
        model = rc.train(ctx.K, ctx.y_tr, ctx.model.lam_abs, v=ones,
                         kind=loss)
        for name in ("alpha", "rep_coef", "train_scores"):
            assert (getattr(model, name).tobytes()
                    == getattr(ctx.model, name).tobytes())
        reference = bound.worst_case_accuracy(ctx.valset.margins > 0, ctx.Q)
        assert 0.0 < reference < 1.0
        assert retrained_accuracy(ctx, ones).hex() == reference.hex()


def test_fixed_w_keeps_the_full_sets_certificate_over_dead_removals(
        synth_file):
    # fixed-w removes the fold's dead set first, and no dead removal moves
    # the certificate: at every count up to the dead count it is the full
    # set's, bit for bit, and a fresh solve of the kept set agrees
    config = ExperimentConfig(dataset=synth_file, loss="hinge",
                              lambda_rule="2.0", methods=("robust",),
                              folds=3, seed=3, algorithm=2)
    ds = load_inputs(config)
    plan = rc.cv_split(ds, config.folds, config.seed)
    for fold in range(config.folds):
        ctx = prepare_fold(ds, config, fold, "2.0", plan)
        n = len(ctx.y_tr)
        dead = np.flatnonzero(~ctx.form_cert.live).tolist()
        assert dead
        trace = run_selection(ctx, config, "robust", len(dead))
        assert trace.removal_order == dead
        full = certify_coreset(ctx, np.ones(n))
        for n_del in range(len(dead) + 1):
            v = trace.kept_mask(n_del)
            cert = certify_coreset(ctx, v)
            assert cert.ball is ctx.full_ball
            assert (cert.ub, cert.zeta.tolist()) == (full.ub,
                                                    full.zeta.tolist())
            assert rc.maximize_on_ball(ctx.form_cert, v, ctx.S).dg_max == \
                ctx.full_ball.dg_max


def test_paper_size_breast_cancer_cell(tmp_path):
    # one cell of the paper's table at its own size (breast-cancer, n 683,
    # hinge, auto algorithm: fixed-w at 546 training rows): the certified
    # bound holds in every row, and the robust selector's mean bound is
    # at least random's
    ds, _ = load_table_dataset("breast-cancer")
    path = tmp_path / "breast-cancer.svm"
    path.write_text(rc.to_libsvm(ds))
    report = run_experiment(ExperimentConfig(
        dataset=str(path), loss="hinge", lambda_rule="n*10^-1.5", folds=5,
        methods=("robust", "random"), removal_grid=(0.1,)))
    assert len(report.rows) == 10
    for row in report.rows:
        assert row["status"] == "ok"
        assert row["certified_lb"] <= row["wc_accuracy"] + 1e-6
    lb = {method: report.aggregates[method]["0.1"]["certified_lb_mean"]
          for method in ("robust", "random")}
    assert lb["robust"] >= lb["random"], lb


def test_cli_certify_of_dead_drops_writes_a_fresh_solves_bytes(
        synth_file, tmp_path, monkeypatch):
    # dropping only dead instances, certify reads the full-set solve and
    # writes the bytes that a fresh ball solve of the kept set gives
    import robustcoreset.cli as cli
    config = dead_drop_config(synth_file)
    ds = load_inputs(config)
    ctx = prepare_fold(ds, config, 0, "2.0",
                       rc.cv_split(ds, config.folds, config.seed))
    dead = np.flatnonzero(~ctx.form_cert.live)
    assert dead.size >= 2
    indices = tmp_path / "kept.txt"
    indices.write_text("".join(f"{i}\n"
                               for i in np.delete(ctx.tr_idx, dead[::2])))
    maximize_on_ball, masks = bound.maximize_on_ball, []

    def recording_maximize(form, v, S, *args):
        masks.append(np.asarray(v).copy())
        return maximize_on_ball(form, v, S, *args)

    def fresh_certificate(ctx, v):
        ball = bound.maximize_on_ball(ctx.form_cert, v, ctx.S)
        return bound.certificate(ball, ctx.model.lam_abs, ctx.Q,
                                 ctx.valset.margins, ctx.valset.norms)

    monkeypatch.setattr(bound, "maximize_on_ball", recording_maximize)
    common = ["certify", "--dataset", synth_file, "--loss", "hinge",
              "--lambda-rule", "2.0", "--folds", "3", "--seed", "3",
              "--indices", str(indices)]
    res = CliRunner().invoke(cli_main, [*common, "--output-dir",
                                        str(tmp_path / "read")])
    assert res.exit_code == 0, res.output
    assert len(masks) == 1 and np.all(masks[0] == 1.0)
    monkeypatch.setattr(cli, "certify_coreset", fresh_certificate)
    res = CliRunner().invoke(cli_main, [*common, "--output-dir",
                                        str(tmp_path / "fresh")])
    assert res.exit_code == 0, res.output
    assert len(masks) == 2 and masks[1].sum() == len(ctx.y_tr) - len(dead[::2])
    assert ((tmp_path / "read" / "bound_report.json").read_bytes()
            == (tmp_path / "fresh" / "bound_report.json").read_bytes())


def test_certify_coreset_rejects_a_mask_outside_0_1(synth_file):
    # a fractional mask whose nonzero entries cover the live set is no
    # full-set coreset: it is rejected, as maximize_on_ball rejects it
    config = dead_drop_config(synth_file)
    ds = load_inputs(config)
    ctx = prepare_fold(ds, config, 0, "2.0",
                       rc.cv_split(ds, config.folds, config.seed))
    n = len(ctx.y_tr)
    dead = np.flatnonzero(~ctx.form_cert.live)
    for v in (np.full(n, 0.5), np.where(ctx.form_cert.live, 1.0, 2.0),
              np.where(np.arange(n) == dead[0], np.nan, 1.0)):
        with pytest.raises(ValueError, match="0/1"):
            certify_coreset(ctx, v)
    assert certify_coreset(ctx, np.ones(n)).ball is ctx.full_ball


@pytest.mark.parametrize("loss", ["hinge", "logistic"])
@pytest.mark.parametrize("method", ["robust", "random"])
def test_cli_certify_matches_sweep_row(tmp_path, loss, method):
    runner = CliRunner()
    # n_tr = 40 and 45 on fold 0; at the odd size round(0.5 * 45) = 22
    # removals must hold for the CLI as for the sweep row.  The third input
    # has 5 positives in 36 rows: at 0.9 removed, every method would keep a
    # single class on fold 0 without --preserve-classes
    inputs = (("60", [], [], [method], "0.5"),
              ("68", [], [], [method], "0.5"),
              ("36", ["--n-plus", "5"], ["--preserve-classes"],
               [method] if method == "robust" else ["herding", "kcenter",
                                                    "margin"], "0.9"))
    for n, synth_options, options, methods, fraction in inputs:
        work = tmp_path / n
        data = work / "task.svm"
        work.mkdir()
        runner.invoke(cli_main, ["synth", "--n", n, "--d", "3", *synth_options,
                                 "--seed", "9", "--out", str(data)])
        labels = load_dataset(str(data)).labels
        common = ["--dataset", str(data), "--loss", loss, "--lambda-rule",
                  "2.0", "--folds", "3", "--seed", "4", *options]
        res = runner.invoke(cli_main, ["sweep", *common,
                                       "--methods", ",".join(methods),
                                       "--removal-grid", fraction,
                                       "--output-dir", str(work / "sweep")])
        assert res.exit_code == 0, res.output
        rows = json.loads((work / "sweep" / "report.json").read_text())["rows"]
        for m in methods:
            row = next(r for r in rows if r["fold"] == 0 and r["method"] == m)
            res = runner.invoke(cli_main, ["select", *common, "--method", m,
                                           "--removal-fraction", fraction,
                                           "--output-dir", str(work / m)])
            assert res.exit_code == 0, res.output
            indices = work / m / "selected_indices.txt"
            kept = [int(i) for i in indices.read_text().split()]
            assert set(labels[kept]) == {-1.0, 1.0}, (n, m)
            res = runner.invoke(cli_main, [
                "certify", *common, "--indices", str(indices),
                "--output-dir", str(work / m / "cert")])
            assert res.exit_code == 0, res.output
            cert = json.loads((work / m / "cert" / "bound_report.json")
                              .read_text())
            assert cert["m"] == row["m"], (n, m)
            assert cert["certified_lb"] == pytest.approx(row["certified_lb"],
                                                         abs=1e-9)
            assert cert["dg_max"] == pytest.approx(row["dg_max"], abs=1e-9)
            # the certificate reports the maximizer of its own ball solve
            config = ExperimentConfig(dataset=str(data), loss=loss,
                                      lambda_rule="2.0", folds=3, seed=4)
            ds = load_inputs(config)
            ctx = prepare_fold(ds, config, 0, "2.0", rc.cv_split(ds, 3, 4))
            v = np.isin(ctx.tr_idx, kept).astype(float)
            assert cert["w_star"] == bound.maximize_on_ball(
                ctx.form_cert, v, ctx.S).w_star.tolist(), (n, m)


def test_cli_precomputed_cv_best_reads_kernel_once(tmp_path, monkeypatch):
    import robustcoreset.experiment as experiment
    load, calls = experiment.load_precomputed, []

    def counting_load(path, n):
        calls.append(path)
        return load(path, n)

    monkeypatch.setattr(experiment, "load_precomputed", counting_load)
    ds = rc.gaussian_task(45, 3, seed=5, separation=2.5)
    data, kernel_file = tmp_path / "task.svm", tmp_path / "gram.csv"
    data.write_text(rc.to_libsvm(ds))
    h = rc.bandwidth_heuristic(ds.features)
    np.savetxt(kernel_file, rc.gram(ds.features, ds.features, h),
               delimiter=",")
    common = ["--dataset", str(data), "--kernel", "precomputed",
              "--kernel-file", str(kernel_file), "--lambda-rule", "cv-best",
              "--folds", "3"]
    runner = CliRunner()
    for command in (["sweep", "--methods", "random", "--removal-grid", "0.5"],
                    ["certify", "--method", "random"]):
        calls.clear()
        res = runner.invoke(cli_main, [*command, *common,
                                       "--output-dir", str(tmp_path / "out")])
        assert res.exit_code == 0, res.output
        assert calls == [str(kernel_file)], command[0]


def test_cli_lambda_cv(tmp_path, monkeypatch):
    import robustcoreset.experiment as experiment
    runner = CliRunner()
    data = tmp_path / "task.svm"
    runner.invoke(cli_main, ["synth", "--n", "50", "--d", "3", "--seed", "2",
                             "--out", str(data)])
    res = runner.invoke(cli_main, [
        "lambda-cv", "--dataset", str(data), "--folds", "3",
        "--grid", "0.5,5.0"])
    assert res.exit_code == 0, res.output
    assert res.output.strip() in ("0.5", "5.0")
    # a repeated rule, once stripped, or two rules of one canonical form
    # (the same lambda at every n) exit 2 before any fold is built
    built = []
    monkeypatch.setattr(experiment, "fold_kernels",
                        lambda *args: built.append(args))
    for grid in ("n,n", "n, n", "0.5,5.0,0.5", "n,n*10^0", "n*10^-0,n",
                 "n*10^-1,n*10^-1.0", "n*10^-1.5,n*10^-1.50", "2,2.0,n",
                 "0.5,5e-1"):
        res = runner.invoke(cli_main, [
            "lambda-cv", "--dataset", str(data), "--folds", "3",
            "--grid", grid])
        assert res.exit_code == 2, (grid, res.output)
        assert "--grid" in res.output, (grid, res.output)
    assert built == []


def test_cli_lambda_cv_rejects_run_options(tmp_path):
    # lambda-cv reads the data options and --grid only; an option of the
    # run it does not make is a usage error, not ignored
    runner = CliRunner()
    data = tmp_path / "task.svm"
    runner.invoke(cli_main, ["synth", "--n", "60", "--seed", "1",
                             "--out", str(data)])
    for option in (["--lambda-rule", "5.0"], ["--a", "1.6"],
                   ["--q-factor", "2"], ["--algorithm", "3"],
                   ["--preserve-classes"]):
        res = runner.invoke(cli_main, ["lambda-cv", "--dataset", str(data),
                                       "--folds", "3", *option])
        assert res.exit_code == 2, (option, res.output)
        assert option[0] in res.output, (option, res.output)


@pytest.fixture(scope="module")
def uneven_file(tmp_path_factory):
    # 68 rows over 3 folds: the training parts hold 45, 45 and 46 rows
    path = tmp_path_factory.mktemp("uneven") / "synth.svm"
    res = CliRunner().invoke(cli_main, ["synth", "--n", "68", "--seed", "9",
                                        "--out", str(path)])
    assert res.exit_code == 0, res.output
    return str(path)


def test_cli_certify_lambda_is_fold_size(uneven_file, tmp_path):
    runner = CliRunner()
    for fold, n_tr in enumerate((45, 45, 46)):
        out = tmp_path / str(fold)
        res = runner.invoke(cli_main, [
            "certify", "--dataset", uneven_file, "--lambda-rule", "n",
            "--folds", "3", "--fold", str(fold), "--method", "random",
            "--output-dir", str(out)])
        assert res.exit_code == 0, res.output
        payload = json.loads((out / "bound_report.json").read_text())
        assert payload["n_train"] == n_tr
        assert payload["lam"] == n_tr


def test_sweep_reports_rule_and_fold_lambda(uneven_file, tmp_path):
    res = CliRunner().invoke(cli_main, [
        "sweep", "--dataset", uneven_file, "--lambda-rule", "n", "--folds",
        "3", "--methods", "random", "--removal-grid", "0.0",
        "--output-dir", str(tmp_path)])
    assert res.exit_code == 0, res.output
    assert "lambda=n;" in res.output
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["lambda"] == "n"
    # nothing is removed at 0.0, so each row's m is its fold's n_tr
    n_tr = {row["fold"]: row["m"] for row in report["rows"]}
    assert sorted(n_tr.values()) == [45, 45, 46]
    assert [d["lambda"] for d in report["gap_diagnostics"]] == [
        n_tr[d["fold"]] for d in report["gap_diagnostics"]]


def test_sweep_fold_without_validation_positives(tmp_path):
    # cv_split does not stratify: fold 2 gets none of the 4 positives, so
    # its validation ball is the point w = 1 and wc_accuracy is plain
    runner = CliRunner()
    data = tmp_path / "few_plus.svm"
    res = runner.invoke(cli_main, ["synth", "--n", "40", "--d", "3",
                                   "--n-plus", "4", "--seed", "9",
                                   "--out", str(data)])
    assert res.exit_code == 0, res.output
    res = runner.invoke(cli_main, [
        "sweep", "--dataset", str(data), "--folds", "3", "--seed", "4",
        "--lambda-rule", "n", "--output-dir", str(tmp_path / "out")])
    assert res.exit_code == 0, res.output
    rows = json.loads((tmp_path / "out" / "report.json").read_text())["rows"]
    assert len(rows) == 3 * 2 * 3
    assert all(row["status"] == "ok" for row in rows)
    config = ExperimentConfig(dataset=str(data), folds=3, seed=4,
                              lambda_rule="n")
    ds = load_inputs(config)
    ctx = prepare_fold(ds, config, 2, "n", rc.cv_split(ds, 3, 4))
    assert (ctx.valset.y == -1).all() and ctx.Q == 0.0
    for method in config.methods:
        n_dels = config.removal_counts(len(ctx.y_tr))
        trace = run_selection(ctx, config, method, max(n_dels))
        for frac, n_del in zip(config.removal_grid, n_dels):
            kept = np.flatnonzero(trace.kept_mask(n_del))
            model = rc.train(ctx.K[np.ix_(kept, kept)], ctx.y_tr[kept],
                             ctx.model.lam_abs, kind=config.loss)
            scores = rc.decision_scores(model, ctx.valset.K_cross[kept, :])
            plain = float(np.mean(ctx.valset.y * scores > 0))
            (row,) = [r for r in rows if (r["fold"], r["method"],
                                          r["fraction_removed"]) == (2, method, frac)]
            assert row["wc_accuracy"] == pytest.approx(plain, abs=1e-12)


def test_lambda_cv_rule_reproduces_cv_best(uneven_file, tmp_path):
    runner = CliRunner()
    common = ["--dataset", uneven_file, "--folds", "3", "--seed", "1"]
    res = runner.invoke(cli_main, ["lambda-cv", *common])
    assert res.exit_code == 0, res.output
    rule = res.output.strip()
    assert rule in DEFAULT_LAMBDA_GRID
    reports = []
    for name, lambda_rule in (("picked", rule), ("cv", "cv-best")):
        res = runner.invoke(cli_main, [
            "sweep", *common, "--lambda-rule", lambda_rule,
            "--methods", "robust,random", "--algorithm", "2",
            "--removal-grid", "0.3,0.5", "--output-dir", str(tmp_path / name)])
        assert res.exit_code == 0, res.output
        assert f"lambda={rule};" in res.output
        reports.append((tmp_path / name / "report.csv").read_bytes())
    assert reports[0] == reports[1]


def test_cli_config_error_exit_code(tmp_path):
    runner = CliRunner()
    data = tmp_path / "task.svm"
    runner.invoke(cli_main, ["synth", "--n", "30", "--d", "2", "--seed", "1",
                             "--out", str(data)])
    res = runner.invoke(cli_main, [
        "sweep", "--dataset", str(data), "--lambda-rule", "nope",
        "--output-dir", str(tmp_path / "nope")])
    assert res.exit_code == 2
    assert not (tmp_path / "nope" / "report.csv").exists()
    res = runner.invoke(cli_main, ["sweep", "--dataset", str(tmp_path / "no")])
    assert res.exit_code == 2
    # a dataset needs a feature
    res = runner.invoke(cli_main, ["synth", "--d", "0", "--out",
                                   str(tmp_path / "d0.svm")])
    assert res.exit_code == 2 and "d must be at least 1" in res.output
    assert not (tmp_path / "d0.svm").exists()
    # every bad number exits before a report exists, with the option named
    for options in (["--bandwidth", "0"], ["--kernel", "linear", "--bandwidth", "5"],
                    ["--q-factor", "-1"], ["--methods", ""], ["--a", "nan"],
                    ["--a", "inf"], ["--q-factor", "nan"], ["--bandwidth", "nan"],
                    ["--folds", "0"], ["--folds", "1"], ["--seed", "-1"],
                    ["--methods", "robust,robust"],
                    ["--removal-grid", "0.1,0.1"]):
        out = tmp_path / "ignored"
        res = runner.invoke(cli_main, [
            "sweep", "--dataset", str(data), "--lambda-rule", "1.0", *options,
            "--output-dir", str(out)])
        assert res.exit_code == 2, (options, res.output)
        assert options[-2] in res.output, (options, res.output)
        assert not (out / "report.csv").exists(), options
    # more folds than rows: the split fails before any report exists
    res = runner.invoke(cli_main, [
        "sweep", "--dataset", str(data), "--lambda-rule", "n", "--folds",
        "100", "--output-dir", str(out)])
    assert res.exit_code == 2, res.output
    assert "fewer instances than folds" in res.output, res.output
    assert not (out / "report.csv").exists()
    assert not (out / "report.json").exists()
    # a class with one instance leaves the training part of the fold that
    # validates on it without that class, so no split exists; a labels-only
    # or constant file gives the rbf bandwidth heuristic nothing to measure
    lone, labels_only = tmp_path / "lone.svm", tmp_path / "labels.svm"
    constant = tmp_path / "constant.svm"
    lone.write_text("-1 1:1\n" + "".join(f"+1 1:{v}\n" for v in range(2, 7)))
    labels_only.write_text("+1\n-1\n" * 3)
    constant.write_text("+1 1:2\n-1 1:2\n" * 3)
    for bad, message in ((lone, "class -1 has 1 instance"),
                         (labels_only, "no non-intercept columns"),
                         (constant, "zero variance")):
        res = runner.invoke(cli_main, [
            "sweep", "--dataset", str(bad), "--folds", "2", "--lambda-rule",
            "n", "--output-dir", str(tmp_path / bad.stem)])
        assert res.exit_code == 2, (bad.name, res.output)
        assert message in res.output, (bad.name, res.output)
        assert not (tmp_path / bad.stem / "report.csv").exists(), bad.name
        assert not (tmp_path / bad.stem / "report.json").exists(), bad.name
    # a given bandwidth needs no feature
    res = runner.invoke(cli_main, [
        "sweep", "--dataset", str(labels_only), "--folds", "2",
        "--lambda-rule", "n", "--bandwidth", "1.0", "--output-dir",
        str(tmp_path / "bandwidth")])
    assert res.exit_code == 0, res.output
    assert (tmp_path / "bandwidth" / "report.csv").exists()
    # n*10^307 is finite at n = 1 but overflows at this dataset's n = 30
    for rule in ("nan", "inf", "n*10^400", "n*10^307"):
        res = runner.invoke(cli_main, [
            "sweep", "--dataset", str(data), "--lambda-rule", rule,
            "--output-dir", str(out)])
        assert res.exit_code == 2, (rule, res.output)
        assert "lambda rule" in res.output, (rule, res.output)
        assert not (out / "report.csv").exists(), rule
    non_psd = np.eye(30)
    non_psd[0, 1] = non_psd[1, 0] = 1.3
    asymmetric = np.eye(30)
    asymmetric[0, 1] = 0.5
    for k, bad_K in enumerate([np.eye(25), np.eye(35), asymmetric, non_psd]):
        kernel_file = tmp_path / f"k{k}.csv"
        np.savetxt(kernel_file, bad_K, delimiter=",")
        res = runner.invoke(cli_main, [
            "sweep", "--dataset", str(data), "--lambda-rule", "1.0",
            "--kernel", "precomputed", "--kernel-file", str(kernel_file),
            "--output-dir", str(tmp_path / "out")])
        assert res.exit_code == 2, (k, res.output)
    # --min-max-scale scales features, which a precomputed kernel replaces
    np.savetxt(tmp_path / "eye.csv", np.eye(30), delimiter=",")
    res = runner.invoke(cli_main, [
        "sweep", "--dataset", str(data), "--lambda-rule", "1.0",
        "--kernel", "precomputed", "--kernel-file", str(tmp_path / "eye.csv"),
        "--min-max-scale", "--output-dir", str(tmp_path / "scaled")])
    assert res.exit_code == 2, res.output
    assert "--min-max-scale" in res.output, res.output
    assert not (tmp_path / "scaled" / "report.csv").exists()
    # a kernel file without the precomputed kernel, and the reverse
    for options in (["--kernel-file", str(kernel_file)],
                    ["--kernel", "precomputed"]):
        res = runner.invoke(cli_main, [
            "certify", "--dataset", str(data), "--lambda-rule", "1.0",
            *options, "--output-dir", str(tmp_path / "out")])
        assert res.exit_code == 2, (options, res.output)
        assert "--kernel-file" in res.output, (options, res.output)
    for command in ("select", "certify", "evaluate"):
        for fold in ("5", "-1"):
            out = ["--output-dir", str(tmp_path / "fold")] * (command != "evaluate")
            res = runner.invoke(cli_main, [
                command, "--dataset", str(data), "--lambda-rule", "1.0",
                "--fold", fold, *out])
            assert res.exit_code == 2, (command, fold, res.output)
            assert "--fold" in res.output, (command, fold, res.output)
    assert not (tmp_path / "fold").exists()
    plan = rc.cv_split(load_dataset(str(data)), 5, 0)
    fold0_train, fold0_val = plan.train_indices(0), plan.val_indices(0)
    empty, repeated = tmp_path / "empty.txt", tmp_path / "repeated.txt"
    outside = tmp_path / "outside.txt"
    empty.write_text("")
    repeated.write_text("".join(f"{i}\n" for i in list(fold0_train[:3]) * 2))
    outside.write_text(f"{fold0_val[0]}\n")
    for command in ("certify", "evaluate"):
        for indices in (empty, repeated, outside):
            res = runner.invoke(cli_main, [
                command, "--dataset", str(data), "--lambda-rule", "1.0",
                "--indices", str(indices)], catch_exceptions=False)
            assert res.exit_code == 2, (command, indices.name, res.output)


def test_cli_rejects_fold_before_lambda_cv(tmp_path, monkeypatch):
    # under the default cv-best rule a bad --fold must exit before the
    # lambda grid is cross-validated
    import robustcoreset.experiment as experiment
    lambda_cv, calls = experiment.lambda_cv, []

    def counting_lambda_cv(*args, **kwargs):
        calls.append(args)
        return lambda_cv(*args, **kwargs)

    monkeypatch.setattr(experiment, "lambda_cv", counting_lambda_cv)
    runner = CliRunner()
    data = tmp_path / "task.svm"
    runner.invoke(cli_main, ["synth", "--n", "40", "--d", "2", "--seed", "1",
                             "--out", str(data)])
    for command in ("select", "certify", "evaluate"):
        out = ["--output-dir", str(tmp_path / "out")] * (command != "evaluate")
        res = runner.invoke(cli_main, [command, "--dataset", str(data),
                                       "--fold", "5", *out])
        assert res.exit_code == 2, (command, res.output)
        assert "--fold" in res.output, (command, res.output)
    assert calls == []


@pytest.mark.parametrize("command", ["select", "certify", "sweep"])
def test_cli_uncreatable_output_dir_fails_before_any_work(tmp_path,
                                                          monkeypatch, command):
    # an --output-dir that is an existing file exits 2 before the data is
    # read, not with a traceback after the run
    import robustcoreset.experiment as experiment
    runner = CliRunner()
    data = tmp_path / "task.svm"
    runner.invoke(cli_main, ["synth", "--n", "40", "--d", "2", "--seed", "1",
                             "--out", str(data)])
    reads = []

    def counting_load_inputs(*args):
        reads.append(args)
        return load_inputs(*args)

    monkeypatch.setattr(experiment, "load_inputs", counting_load_inputs)
    res = runner.invoke(cli_main, [
        command, "--dataset", str(data), "--lambda-rule", "1.0",
        "--output-dir", str(data)])
    assert res.exit_code == 2, res.output
    assert "--output-dir" in res.output, res.output
    assert reads == []


@pytest.mark.parametrize("loss", ["hinge", "logistic"])
def test_precomputed_kernel_matches_computed(tmp_path, loss):
    # the precomputed folds must slice the rows and columns the computed
    # kernels are built from, on uneven folds (25, 25 and 26 training rows)
    runner = CliRunner()
    data = str(tmp_path / "task.svm")
    res = runner.invoke(cli_main, ["synth", "--n", "38", "--seed", "9",
                                   "--out", data])
    assert res.exit_code == 0, res.output
    X = load_dataset(data).features
    d2 = ((X[:, None, :] - X[None, :, :]) ** 2).sum(axis=-1)
    grams = {"rbf": (np.exp(-d2 / 3.0),
                     ["--kernel", "rbf", "--bandwidth", "3"]),
             "linear": (X @ X.T, ["--kernel", "linear"])}
    for kind, (K, options) in grams.items():
        kernel_file = tmp_path / f"{kind}.csv"
        np.savetxt(kernel_file, K, delimiter=",", fmt="%.17g")
        rows = []
        for name, kernel_options in (
                ("computed", options),
                ("precomputed", ["--kernel", "precomputed",
                                 "--kernel-file", str(kernel_file)])):
            out = tmp_path / kind / name
            res = runner.invoke(cli_main, [
                "sweep", "--dataset", data, "--loss", loss,
                "--lambda-rule", "n*10^-1", "--folds", "3",
                "--methods", "robust,random", "--removal-grid", "0.0,0.3,0.5",
                *kernel_options, "--output-dir", str(out)])
            assert res.exit_code == 0, res.output
            rows.append(json.loads((out / "report.json").read_text())["rows"])
        computed, precomputed = rows
        assert len(computed) == len(precomputed) == 3 * 2 * 3
        for a, b in zip(computed, precomputed):
            for key in ("fold", "method", "m", "fraction_removed", "status"):
                assert a[key] == b[key], (kind, key, a, b)
            for key in ("wc_accuracy", "certified_lb", "dg_max"):
                assert b[key] == pytest.approx(a[key], rel=0, abs=1e-9), (
                    kind, key, a, b)


def test_cli_numerical_error_exit_code(tmp_path, monkeypatch):
    # a split search that hits its retry cap is a numerical failure; two
    # instances per class admit a split, so only the cap can miss one
    import robustcoreset.data as data_module
    monkeypatch.setattr(data_module, "_MAX_SPLIT_ATTEMPTS", 0)
    runner = CliRunner()
    data = tmp_path / "task.svm"
    lines = [f"+1 1:{v}" for v in (1.0, 2.0)] + [
        f"-1 1:{v}" for v in (3.0, 4.0, 5.0)]
    data.write_text("\n".join(lines) + "\n")
    res = runner.invoke(cli_main, [
        "evaluate", "--dataset", str(data), "--lambda-rule", "1.0",
        "--folds", "5"])
    assert res.exit_code == 3, res.output
    assert "numerical failure" in res.output


def test_cli_sweep_error_mid_run_keeps_earlier_rows(synth_file, tmp_path,
                                                    monkeypatch):
    # fold 1's reference training fails: the report keeps fold 0's rows and
    # one error row, the aggregates count only the ok rows, and sweep exits 3
    import robustcoreset.experiment as experiment
    from robustcoreset.erm import TrainingError
    train, reference_fits = experiment.train, []

    def failing_train(*args, **kwargs):
        if "v" not in kwargs:  # a reference fit, not a coreset retrain
            reference_fits.append(args)
            if len(reference_fits) == 2:
                raise TrainingError("no convergence on fold 1")
        return train(*args, **kwargs)

    monkeypatch.setattr(experiment, "train", failing_train)
    res = CliRunner().invoke(cli_main, [
        "sweep", "--dataset", synth_file, "--lambda-rule", "2.0",
        "--folds", "3", "--methods", "robust,random",
        "--removal-grid", "0.1,0.3", "--output-dir", str(tmp_path)])
    assert res.exit_code == 3, res.output
    assert "no convergence on fold 1" in res.output
    lines = (tmp_path / "report.csv").read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    assert [row[0] for row in rows] == ["0"] * 4 + ["-1"]
    assert [row[-1] for row in rows[:4]] == ["ok"] * 4
    assert rows[-1][-1] == "error: no convergence on fold 1"
    assert rows[-1][3:7] == ["nan"] * 4  # report.csv keeps its nan cells
    # report.json stays JSON: the error row's undefined numbers are null
    report = json.loads((tmp_path / "report.json").read_text(),
                        parse_constant=_reject_constant)
    error_row = report["rows"][-1]
    assert [error_row[k] for k in ("fraction_removed", "wc_accuracy",
                                   "certified_lb", "dg_max")] == [None] * 4
    assert sorted(report["aggregates"]) == ["random", "robust"]
    for method, per_frac in report["aggregates"].items():
        assert sorted(per_frac) == ["0.1", "0.3"]
        for frac, agg in per_frac.items():
            (row,) = [r for r in report["rows"] if r["method"] == method
                      and r["fraction_removed"] == float(frac)]
            assert agg["folds"] == 1
            assert agg["wc_accuracy_mean"] == row["wc_accuracy"]
            assert agg["certified_lb_mean"] == row["certified_lb"]


def test_cli_sweep_timing_changes_only_wall_ms(synth_file, tmp_path):
    # --timing fills wall_ms of every ok row; every other column is the
    # untimed run's, and without it wall_ms is 0.0
    reports = {}
    for flag in ("--timing", "--no-timing"):
        out = tmp_path / flag
        res = CliRunner().invoke(cli_main, [
            "sweep", "--dataset", synth_file, "--lambda-rule", "2.0",
            "--folds", "3", "--methods", "robust,random",
            "--removal-grid", "0,0.3", flag, "--output-dir", str(out)])
        assert res.exit_code == 0, res.output
        reports[flag] = json.loads((out / "report.json").read_text())
    timed, untimed = reports["--timing"], reports["--no-timing"]
    assert timed["config"]["timing"] and not untimed["config"]["timing"]
    assert len(timed["rows"]) == len(untimed["rows"]) == 12
    for a, b in zip(timed["rows"], untimed["rows"]):
        assert a["status"] == b["status"] == "ok"
        assert a["wall_ms"] > 0.0 and b["wall_ms"] == 0.0
        assert {**a, "wall_ms": 0.0} == b
    assert timed["aggregates"] == untimed["aggregates"]


def reference_scores(synth_file, out_dir, monkeypatch, rule):
    """(references, scored) of a 3-fold robust and random sweep at
    ``rule``: the reference models trained and, per validation scoring of
    one of them, its cross-Gram's shape."""
    import robustcoreset.experiment as experiment
    train, references, scored = experiment.train, [], []

    def recording_train(*args, **kwargs):
        model = train(*args, **kwargs)
        if kwargs.get("v") is None:
            references.append(model)
        return model

    def counting_scores(model, K_cross):
        if any(model is ref for ref in references):
            scored.append(K_cross.shape)
        return rc.decision_scores(model, K_cross)

    monkeypatch.setattr(experiment, "train", recording_train)
    for module in (rc.erm, rc.bound, rc.experiment, rc.select, rc.cli):
        if hasattr(module, "decision_scores"):
            monkeypatch.setattr(module, "decision_scores", counting_scores)
    res = CliRunner().invoke(cli_main, [
        "sweep", "--dataset", synth_file, "--lambda-rule", rule,
        "--folds", "3", "--methods", "robust,random",
        "--removal-grid", "0,0.1,0.3", "--output-dir", str(out_dir)])
    assert res.exit_code == 0, res.output
    return references, scored


def test_reference_margins_computed_once_per_fold(synth_file, tmp_path,
                                                  monkeypatch):
    # under a fixed lambda rule each fold scores its reference model on the
    # validation part once, however many rows certify against it
    references, scored = reference_scores(synth_file, tmp_path, monkeypatch,
                                          "2.0")
    assert len(references) == 3
    assert len(scored) == 3


def test_cv_best_scores_each_grid_model_once(synth_file, tmp_path,
                                             monkeypatch):
    # under cv-best each fold scores each grid rule's model once:
    # lambda_cv's margins of the winning rule are the certificate's
    references, scored = reference_scores(synth_file, tmp_path, monkeypatch,
                                          "cv-best")
    assert len(references) == 3 * len(DEFAULT_LAMBDA_GRID)
    assert len(scored) == 3 * len(DEFAULT_LAMBDA_GRID)


@pytest.fixture
def two_blas_threads(monkeypatch):
    """The OpenBLAS thread count getter, with the count at two and no count
    in the environment; skips where numpy's BLAS has no control the CLI
    finds."""
    import robustcoreset.cli as cli
    control = cli._openblas_threads()
    if control is None:
        pytest.skip("numpy's BLAS is not the OpenBLAS of its wheel")
    for name in cli._THREAD_ENV:
        monkeypatch.delenv(name, raising=False)
    get, set_ = control
    before = get()
    set_(2)
    yield get
    set_(before)


def blas_sweep(synth_file, out_dir, *options):
    return CliRunner().invoke(cli_main, [
        "sweep", "--dataset", synth_file, "--lambda-rule", "2.0",
        "--folds", "3", "--seed", "3", "--methods", "robust,random",
        "--removal-grid", "0.1", *options, "--output-dir", str(out_dir)])


@pytest.fixture
def blas_counts(monkeypatch, two_blas_threads):
    """The OpenBLAS thread counts that the CLI's run_experiment calls see."""
    import robustcoreset.cli as cli
    counts = []

    def recording_run(config):
        counts.append(two_blas_threads())
        return run_experiment(config)

    monkeypatch.setattr(cli, "run_experiment", recording_run)
    return counts


def test_cli_commands_run_on_one_blas_thread(synth_file, tmp_path,
                                             monkeypatch, two_blas_threads,
                                             blas_counts):
    # a command runs on one OpenBLAS thread and gives the process its
    # count back however it ends: exit 0, 2 (bad option) or 3 (numerical)
    import robustcoreset.cli as cli
    from robustcoreset.erm import TrainingError
    res = blas_sweep(synth_file, tmp_path / "ok")
    assert res.exit_code == 0, res.output
    assert blas_counts == [1] and two_blas_threads() == 2
    res = blas_sweep(synth_file, tmp_path / "bad", "--a", "nan")
    assert res.exit_code == 2, res.output
    assert two_blas_threads() == 2

    def failing_run(config):
        blas_counts.append(two_blas_threads())
        raise TrainingError("no convergence")

    monkeypatch.setattr(cli, "run_experiment", failing_run)
    res = blas_sweep(synth_file, tmp_path / "failed")
    assert res.exit_code == 3, res.output
    assert blas_counts == [1, 1] and two_blas_threads() == 2


@pytest.mark.parametrize("name", ["OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                                  "OMP_NUM_THREADS"])
def test_cli_keeps_a_blas_thread_count_from_the_environment(
        synth_file, tmp_path, monkeypatch, two_blas_threads, blas_counts,
        name):
    monkeypatch.setenv(name, "2")
    res = blas_sweep(synth_file, tmp_path)
    assert res.exit_code == 0, res.output
    assert blas_counts == [2] and two_blas_threads() == 2


@pytest.mark.parametrize("value", ["", "0", "abc"])
@pytest.mark.parametrize("name", ["OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                                  "OMP_NUM_THREADS"])
def test_cli_ignores_a_blas_thread_count_openblas_reads_as_none(
        synth_file, tmp_path, monkeypatch, two_blas_threads, blas_counts,
        name, value):
    # OpenBLAS reads a count as C atoi does and takes one of 0 or below as
    # none, so it runs its default threads; the CLI then pins one
    monkeypatch.setenv(name, value)
    res = blas_sweep(synth_file, tmp_path)
    assert res.exit_code == 0, res.output
    assert blas_counts == [1] and two_blas_threads() == 2


def test_blas_thread_count_is_read_as_c_atoi():
    import robustcoreset.cli as cli
    assert [cli._atoi(text) for text in ("7", " \t+3x", "-2", "x3", "")] == \
        [7, 3, -2, 0, 0]


def test_cli_without_blas_control_writes_the_same_report(synth_file, tmp_path,
                                                         monkeypatch):
    # where no OpenBLAS control is found the command runs on the process's
    # count; the report's bytes do not depend on it
    import robustcoreset.cli as cli
    res = blas_sweep(synth_file, tmp_path / "pinned")
    assert res.exit_code == 0, res.output
    monkeypatch.setattr(cli, "_openblas_threads", lambda: None)
    res = blas_sweep(synth_file, tmp_path / "unpinned")
    assert res.exit_code == 0, res.output
    assert ((tmp_path / "pinned" / "report.csv").read_bytes()
            == (tmp_path / "unpinned" / "report.csv").read_bytes())
