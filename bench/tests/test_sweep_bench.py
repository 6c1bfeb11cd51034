"""Tests of the sweep benchmark itself: metric names and units, the
correctness check, seeding and the layer tracer.

Run from the repository root:  python3 -m pytest -q bench/tests
"""

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
REPO = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(REPO / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((REPO / "BENCHMARK.json").read_text())

TINY = workloads.Workload("tiny", "heart", 40, "hinge", "n*10^-1.5", "0",
                          ("robust", "random"), (0.05, 0.1), "test only")
TINY_ROWS = workloads.FOLDS * 2 * 2


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setitem(run.WORKLOADS, "tiny", TINY)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "MIN_SWEEPS", 1)


def _run(*args):
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.main(["--workload", "tiny", "--seconds", "0", *args])
    assert code == 0
    info, result = (json.loads(line) for line in out.getvalue().splitlines()[-2:])
    return info, result


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_tiny_run_emits_every_metric_with_its_unit(tiny, trace, section):
    info, result = _run("--seed", "3", "--trace", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, info["problems"]
    assert result["attempted"] == TINY_ROWS * (1 + int(trace))
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert len(info["report_csv_sha256"]) == 64


def test_other_seed_changes_inputs_not_metric_set(tiny):
    X1, y1 = workloads.generate("heart", 40, 1)
    X1b, y1b = workloads.generate("heart", 40, 1)
    X2, _ = workloads.generate("heart", 40, 2)
    assert np.array_equal(X1, X1b) and np.array_equal(y1, y1b)
    assert not np.array_equal(X1, X2)
    info1, res1 = _run("--seed", "1")
    info2, res2 = _run("--seed", "2")
    assert info1["report_csv_sha256"] != info2["report_csv_sha256"]
    assert res1["metrics"].keys() == res2["metrics"].keys()


@pytest.fixture
def two_sweeps(tmp_path):
    import robustcoreset.cli
    data = tmp_path / "data.libsvm"
    data.write_text(workloads.libsvm_text(*workloads.generate("heart", 40, 5)))
    sweeps = []
    for i in range(2):
        out = tmp_path / f"s{i}"
        sweeps.append(run.run_sweep(robustcoreset.cli.main,
                                    TINY.sweep_args(data, out), out))
    return sweeps


def test_check_passes_clean_sweeps(two_sweeps):
    problems, attempted, failed = run.check_sweeps(TINY, two_sweeps)
    assert problems == [] and failed == 0
    assert attempted == 2 * TINY_ROWS


def test_check_trips_on_failed_row(two_sweeps):
    two_sweeps[1].rows[3] = dict(two_sweeps[1].rows[3], status="error: doctored")
    problems, _, failed = run.check_sweeps(TINY, two_sweeps)
    assert failed == 1 and problems


def test_check_counts_rows_never_reached(two_sweeps):
    two_sweeps[0].rows = two_sweeps[0].rows[:4]
    two_sweeps[0].error = "exit code 3"
    problems, _, failed = run.check_sweeps(TINY, two_sweeps)
    assert failed == TINY_ROWS - 4 and problems


def test_check_trips_on_changed_hash(two_sweeps):
    two_sweeps[1] = replace(two_sweeps[1], sha256="0" * 64)
    problems, _, failed = run.check_sweeps(TINY, two_sweeps)
    assert failed == 0 and any("hash" in p for p in problems)


def test_check_trips_on_bound_above_accuracy(two_sweeps):
    row = two_sweeps[0].rows[0]
    two_sweeps[0].rows[0] = dict(row, certified_lb=row["wc_accuracy"] + 1e-3)
    problems, _, _ = run.check_sweeps(TINY, two_sweeps)
    assert any("certified_lb" in p for p in problems)


def test_tracer_patches_every_binding_and_restores():
    import robustcoreset.cli  # noqa: F401  (loads every module of the package)
    modules = [m for name, m in sys.modules.items() if name.startswith("robustcoreset")]
    originals = {}
    for qualname in tracing.TRACED_NAMES:
        layer, fname = qualname.split(".")
        originals[qualname] = getattr(sys.modules[f"robustcoreset.{layer}"], fname)
    bindings = [(m, a) for m in modules for a, v in vars(m).items()
                if any(v is f for f in originals.values())]
    assert len(bindings) > len(originals)  # re-exports exist, e.g. erm/experiment/cli.train
    with tracing.Tracer():
        for mod, attr in bindings:
            assert all(getattr(mod, attr) is not f for f in originals.values()), \
                f"{mod.__name__}.{attr} left unpatched"
    for mod, attr in bindings:
        assert any(getattr(mod, attr) is f for f in originals.values())


def test_self_times_add_up_to_root_span(tmp_path):
    import robustcoreset.cli
    data = tmp_path / "data.libsvm"
    data.write_text(workloads.libsvm_text(*workloads.generate("heart", 40, 5)))
    tracer = tracing.Tracer()
    sweep = run.run_sweep(robustcoreset.cli.main, TINY.sweep_args(data, tmp_path),
                          tmp_path, tracer)
    assert sweep.error == ""
    layers = tracing.summarize(tracer.spans)
    total = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    assert total == pytest.approx(tracing.root_span_s(tracer.spans), abs=1e-9)
    # exact greedy at n_tr=32 with 3 removals: one solve per remaining candidate
    assert layers["select.greedy_exact.solves_per_removal"] == pytest.approx(
        sum(32 - k for k in range(3)) / 3)
    assert layers["bound.maximize_on_ball.calls"] > 0
    assert layers["bound.maximize_on_ball.n3"] > 0


def test_bare_directory_fails_without_result(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload",
                           "exact-small", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
