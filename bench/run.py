"""Sweep benchmark for ``robustcoreset``.

Runs ``robustcoreset sweep`` in-process through ``robustcoreset.cli.main``
on a LIBSVM file generated from ``--seed``, repeatedly for ``--seconds``,
checks every sweep's output and prints one JSON result as the last line
of standard output.

    python3 bench/run.py --workload exact-small --seed 1 --seconds 55 --trace 0

``--trace 0`` reports the end-to-end metrics of untraced sweeps.
``--trace 1`` alternates untraced and traced sweeps and reports per-layer
calls and self seconds (see ``tracing.py``).  The package is imported
from ``src/`` next to this directory; without it the script exits with
code 2 and prints no result.
"""

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracing import ROOT as ROOT_SPAN, Tracer, root_span_s, summarize
from workloads import FOLDS, WORKLOADS, generate, libsvm_text

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
SRC = REPO / "src"
WORK = REPO / ".bench_work"

SETUP_REPEATS = 9
MIN_SWEEPS = 3
LIMIT_S = 120.0
LB_SLACK = 1e-6
SPAN_SLACK_S = 1e-6

# Cold start as a user pays it: a fresh interpreter imports the CLI and
# parses the workload file.  Prints the two durations in seconds.
_SETUP_SNIPPET = """
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import robustcoreset.cli
from robustcoreset.experiment import load_dataset
t1 = time.perf_counter()
load_dataset(sys.argv[2])
print(t1 - t0, time.perf_counter() - t1)
"""


@dataclass
class Sweep:
    """Outcome of one sweep: timings, report rows and the report.csv hash."""

    wall_s: float
    cpu_s: float
    traced: bool
    rows: list = field(default_factory=list)
    sha256: str = ""
    error: str = ""
    spans: list = field(default_factory=list)


def run_sweep(cli_main, args, out_dir: Path, tracer: Tracer | None = None) -> Sweep:
    """One ``sweep`` command from argument parsing to report.json written."""
    error = ""
    with contextlib.ExitStack() as stack:
        stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
        if tracer is not None:
            stack.enter_context(tracer)
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            cli_main(args, standalone_mode=False)
        except SystemExit as exc:
            error = f"exit code {exc.code}"
        except Exception as exc:  # a failed sweep is reported, not fatal
            error = f"{type(exc).__name__}: {exc}"
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    sweep = Sweep(wall_s=wall, cpu_s=cpu, traced=tracer is not None, error=error,
                  spans=tracer.spans if tracer is not None else [])
    csv_path, json_path = out_dir / "report.csv", out_dir / "report.json"
    if csv_path.is_file():
        sweep.sha256 = hashlib.sha256(csv_path.read_bytes()).hexdigest()
    if json_path.is_file():
        sweep.rows = json.loads(json_path.read_text())["rows"]
    return sweep


def run_sweeps(cli_main, workload, dataset: Path, work: Path, seconds: float,
               trace: bool) -> list:
    """Sweeps until the next one would likely end past ``seconds`` and there
    are MIN_SWEEPS of each kind; under ``trace`` every second sweep is
    traced.  No sweep starts when it would likely end past LIMIT_S, so a
    slowed host still finishes in time, and a failed sweep ends the run."""
    sweeps = []
    start = time.perf_counter()
    while True:
        out_dir = work / f"sweep{len(sweeps)}"
        tracer = Tracer() if trace and len(sweeps) % 2 == 1 else None
        sweep = run_sweep(cli_main, workload.sweep_args(dataset, out_dir), out_dir,
                          tracer)
        sweeps.append(sweep)
        shutil.rmtree(out_dir, ignore_errors=True)
        ends_at = time.perf_counter() - start + max(s.wall_s for s in sweeps[-2:])
        enough = len(sweeps) >= MIN_SWEEPS * (1 + trace) and ends_at > seconds
        if sweep.error or enough or (len(sweeps) > trace and ends_at > LIMIT_S):
            return sweeps


def check_sweeps(workload, sweeps) -> tuple:
    """(problems, attempted, failed) over all sweeps of one run.

    Every expected (fold, method, fraction) row must be present with
    status ok, every certified lower bound must sit below the worst-case
    accuracy it certifies, and report.csv must hash the same in every
    sweep, traced or not.  Rows a sweep never reached count as failed.
    """
    expected = {(fold, method, float(frac))
                for fold in range(FOLDS)
                for method in workload.methods for frac in workload.removal_grid}
    problems, failed = [], 0
    for i, sweep in enumerate(sweeps):
        if sweep.error:
            problems.append(f"sweep {i}: {sweep.error}")
        ok = [r for r in sweep.rows if r["status"] == "ok"]
        keys = {(r["fold"], r["method"], float(r["fraction_removed"])) for r in ok}
        failed += len(expected - keys)
        if keys != expected or len(sweep.rows) != len(expected):
            problems.append(f"sweep {i}: {len(ok)} ok rows of {len(sweep.rows)}, "
                            f"expected {len(expected)}")
        for r in ok:
            if not r["certified_lb"] <= r["wc_accuracy"] + LB_SLACK:
                problems.append(f"sweep {i}: certified_lb {r['certified_lb']} above "
                                f"wc_accuracy {r['wc_accuracy']} in {r['fold']}/"
                                f"{r['method']}/{r['fraction_removed']}")
        if sweep.traced:
            total = sum(v for k, v in summarize(sweep.spans).items()
                        if k.endswith(".self_s"))
            if abs(root_span_s(sweep.spans) - total) > SPAN_SLACK_S:
                problems.append(f"sweep {i}: self times sum to {total} s, "
                                f"{ROOT_SPAN} spans {root_span_s(sweep.spans)} s")
    hashes = {sweep.sha256 for sweep in sweeps}
    if "" in hashes:
        problems.append("report.csv missing")
    elif len(hashes) != 1:
        problems.append(f"report.csv hashes differ between sweeps: {sorted(hashes)}")
    return problems, len(expected) * len(sweeps), failed


def robust_means(rows) -> dict:
    robust = [r for r in rows if r["method"] == "robust" and r["status"] == "ok"]
    return {key: statistics.fmean(r[key] for r in robust)
            for key in ("certified_lb", "wc_accuracy")} if robust else {}


def measure_setup(dataset: Path) -> list:
    """Cold import plus file parse, in fresh interpreters, SETUP_REPEATS times."""
    samples = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", _SETUP_SNIPPET, str(SRC),
                              str(dataset)], capture_output=True, text=True,
                             check=True, timeout=120)
        import_s, parse_s = map(float, out.stdout.split())
        samples.append((import_s, parse_s))
    return samples


def environment(seed: int) -> dict:
    import numpy as np
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(np),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def _blas_threads(np):
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end_metrics(untraced, setup, rows) -> dict:
    means = robust_means(rows)
    return {
        "sweep_s": _metric(statistics.median(s.wall_s for s in untraced), "s"),
        "cpu_s": _metric(statistics.median(s.cpu_s for s in untraced), "s"),
        "setup_s": _metric(statistics.median(a + b for a, b in setup), "s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                               / 1024.0, "MB"),
        "wc_accuracy_robust": _metric(means.get("wc_accuracy", 0.0), "ratio"),
    }


def per_layer_metrics(untraced, traced) -> dict:
    layers = [summarize(s.spans) for s in traced] or [summarize([])]
    out = {}
    for key in layers[0]:
        unit = ("ratio" if key.endswith("_per_removal")
                else "s" if key.endswith("_s") else "count")
        out[key] = _metric(statistics.median(layer[key] for layer in layers), unit)
    traced_s = statistics.median([s.wall_s for s in traced] or [0.0])
    out["trace.sweep_s"] = _metric(traced_s, "s")
    out["trace.overhead_s"] = _metric(
        traced_s - statistics.median(s.wall_s for s in untraced), "s")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args(argv)

    if not (SRC / "robustcoreset" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import robustcoreset.cli
    if Path(robustcoreset.cli.__file__).resolve().parent.parent != SRC:
        print("error: robustcoreset imported from outside src/", file=sys.stderr)
        return 2

    workload = WORKLOADS[opts.workload]
    work = WORK / f"{workload.name}-{opts.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        dataset = work / "data.libsvm"
        dataset.write_text(libsvm_text(*generate(workload.shape, workload.n, opts.seed)))
        setup = measure_setup(dataset)
        sweeps = run_sweeps(robustcoreset.cli.main, workload, dataset, work,
                            opts.seconds, bool(opts.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    problems, attempted, failed = check_sweeps(workload, sweeps)
    untraced = [s for s in sweeps if not s.traced]
    traced = [s for s in sweeps if s.traced]
    rows = sweeps[0].rows
    if opts.trace:
        metrics = per_layer_metrics(untraced, traced)
    else:
        metrics = end_to_end_metrics(untraced, setup, rows)
    info = {
        "workload": workload.name,
        "sweeps": len(untraced),
        "traced_sweeps": len(traced),
        "report_csv_sha256": sweeps[0].sha256,
        "certified_lb_robust": robust_means(rows).get("certified_lb"),
        "error_rate": failed / attempted,
        "sweep_s_samples": [round(s.wall_s, 4) for s in untraced],
        "environment": environment(opts.seed),
        "problems": problems,
    }
    print(json.dumps(info))
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
