import json
import math
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import robustcoreset as rc
from robustcoreset import bound
from robustcoreset.cli import main as cli_main
from robustcoreset.experiment import (DEFAULT_LAMBDA_GRID, ExperimentConfig,
                                      load_dataset, load_inputs,
                                      min_max_scaled, prepare_fold,
                                      resolve_lambda_rule, run_experiment,
                                      run_selection)


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
    with pytest.raises(ValueError):
        resolve_lambda_rule("-2", 552)


def test_default_lambda_grid():
    grid = [resolve_lambda_rule(rule, 100) for rule in DEFAULT_LAMBDA_GRID]
    assert grid[0] == pytest.approx(0.1)
    assert grid[-1] == pytest.approx(100.0)
    assert grid == sorted(grid)


def cv_config(folds, seed):
    return ExperimentConfig(dataset="<in-memory>", folds=folds, seed=seed)


def test_lambda_cv_single_element():
    ds = rc.gaussian_task(40, 3, seed=0)
    assert rc.lambda_cv(ds, ["2.5"], cv_config(4, 0), None) == "2.5"


def test_lambda_cv_prefers_better_lambda():
    ds = rc.gaussian_task(80, 3, seed=1, separation=4.0)
    grid = ["n*10^-3", "n"]
    best = rc.lambda_cv(ds, grid, cv_config(4, 0), None)
    accs = {}
    plan = rc.cv_split(ds, 4, 0)
    for rule in grid:
        fold_accs = []
        for k in range(4):
            tr = ds.subset(plan.train_indices(k))
            va = ds.subset(plan.val_indices(k))
            spec = rc.KernelSpec("rbf", rc.bandwidth_heuristic(tr.features))
            K = rc.gram(tr.features, tr.features, spec)
            Kx = rc.gram(tr.features, va.features, spec)
            model = rc.train(K, tr.labels, resolve_lambda_rule(rule, tr.n),
                             kind=rc.LOGISTIC)
            fold_accs.append(float(np.mean(
                va.labels * rc.decision_scores(model, Kx) > 0)))
        accs[rule] = np.mean(fold_accs)
    assert best == max(grid, key=lambda rule: (
        accs[rule], -resolve_lambda_rule(rule, ds.n)))


def test_lambda_cv_deterministic():
    ds = rc.gaussian_task(50, 3, seed=2)
    grid = ["5.0", "n*10^-3"]
    config = cv_config(5, 7)
    assert rc.lambda_cv(ds, grid, config, None) == rc.lambda_cv(ds, grid, config, None)


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
    # S = sqrt(n_plus) * 0.5 > 1: the training ball reaches negative weights
    assert [d["weights_may_be_negative"] for d in report.gap_diagnostics] == [True] * 2
    assert all(d["S"] > 1.0 for d in report.gap_diagnostics)
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
        assert diag["S"] < 1.0 and diag["weights_may_be_negative"] is False


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
    for diag in run_experiment(config).gap_diagnostics:
        q = diag["q_exact_worst_w"]
        assert abs(diag["direct_gap_worst_w"] - q) <= 1e-9 * max(1.0, abs(q))


def test_config_validation(synth_file):
    with pytest.raises(ValueError):
        ExperimentConfig(dataset=synth_file, removal_grid=(1.0,))
    with pytest.raises(ValueError):
        ExperimentConfig(dataset=synth_file, methods=("grand",))
    with pytest.raises(ValueError):
        ExperimentConfig(dataset=synth_file, algorithm=4)
    with pytest.raises(ValueError):
        ExperimentConfig(dataset=synth_file, lambda_rule="nope")
    # options the run would ignore or only trip over inside a fold
    for bad, option in ((dict(bandwidth=0.0), "--bandwidth"),
                        (dict(kernel="linear", bandwidth=5.0), "--bandwidth"),
                        (dict(q_factor=-1.0), "--q-factor"),
                        (dict(q_factor=0.0), "--q-factor"),
                        (dict(methods=()), "--methods")):
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
        else:
            assert trace["gaps"] == []


def test_one_full_set_ball_solve_per_fold(synth_file, monkeypatch):
    # the 0.0 rows keep every instance and certify with the fold's solve
    config = ExperimentConfig(dataset=synth_file, lambda_rule="2.0",
                              methods=("robust", "random"),
                              removal_grid=(0.0, 0.3, 0.5), folds=2, seed=3,
                              algorithm=2)
    full_set_solves = []
    orig = bound.maximize_on_ball

    def counting(form, v, S, *args, **kwargs):
        if np.all(np.asarray(v) == 1.0):
            full_set_solves.append(form.n)
        return orig(form, v, S, *args, **kwargs)

    monkeypatch.setattr(bound, "maximize_on_ball", counting)
    run_experiment(config)
    assert len(full_set_solves) == config.folds
    monkeypatch.undo()
    # the selectors must not zero the cached worst-case weight in place
    for algorithm in (2, 3):
        cfg = ExperimentConfig(dataset=synth_file, lambda_rule="2.0",
                               folds=2, algorithm=algorithm)
        ds, K_full = load_inputs(cfg)
        ctx = prepare_fold(ds, cfg, 0, "2.0", K_full)
        run_selection(ctx, cfg, "robust", 20)
        fresh = bound.maximize_on_ball(ctx.form_cert, np.ones(len(ctx.y_tr)),
                                       ctx.S).w_star
        np.testing.assert_array_equal(ctx.full_ball.w_star, fresh)


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
    spec = rc.KernelSpec("rbf", rc.bandwidth_heuristic(ds.features))
    np.savetxt(kernel_file, rc.gram(ds.features, ds.features, spec),
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


def test_cli_lambda_cv(tmp_path):
    runner = CliRunner()
    data = tmp_path / "task.svm"
    runner.invoke(cli_main, ["synth", "--n", "50", "--d", "3", "--seed", "2",
                             "--out", str(data)])
    res = runner.invoke(cli_main, [
        "lambda-cv", "--dataset", str(data), "--folds", "3",
        "--grid", "0.5,5.0"])
    assert res.exit_code == 0, res.output
    assert res.output.strip() in ("0.5", "5.0")


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
    ds, K_full = load_inputs(config)
    ctx = prepare_fold(ds, config, 2, "n", K_full)
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
    for options in (["--bandwidth", "0"], ["--kernel", "linear", "--bandwidth", "5"],
                    ["--q-factor", "-1"], ["--methods", ""]):
        out = tmp_path / "ignored"
        res = runner.invoke(cli_main, [
            "sweep", "--dataset", str(data), "--lambda-rule", "1.0", *options,
            "--output-dir", str(out)])
        assert res.exit_code == 2, (options, res.output)
        assert options[-2] in res.output, (options, res.output)
        assert not (out / "report.csv").exists(), options
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
    fold0_train = rc.cv_split(load_dataset(str(data)), 5, 0).train_indices(0)
    empty, repeated = tmp_path / "empty.txt", tmp_path / "repeated.txt"
    empty.write_text("")
    repeated.write_text("".join(f"{i}\n" for i in list(fold0_train[:3]) * 2))
    for command in ("certify", "evaluate"):
        for indices in (empty, repeated):
            res = runner.invoke(cli_main, [
                command, "--dataset", str(data), "--lambda-rule", "1.0",
                "--indices", str(indices)], catch_exceptions=False)
            assert res.exit_code == 2, (command, indices.name, res.output)


def test_cli_numerical_error_exit_code(tmp_path):
    runner = CliRunner()
    data = tmp_path / "bad.svm"
    lines = ["+1 1:1"] + [f"-1 1:{v}" for v in (2.0, 3.0, 4.0, 5.0)]
    data.write_text("\n".join(lines) + "\n")
    res = runner.invoke(cli_main, [
        "evaluate", "--dataset", str(data), "--lambda-rule", "1.0",
        "--folds", "5"])
    assert res.exit_code == 3
