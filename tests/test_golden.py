"""Golden outputs: one sweep of each benchmark workload, on the file
``bench/workloads.py`` generates at a seed, writes a ``report.csv`` with
the recorded SHA-256.  A change that keeps the output keeps every hash.

The hashes were recorded with numpy 2.4.6 and its wheel's scipy-openblas
0.3.31.188.0 on x86_64; another numpy or BLAS may move last bits, so the
tests skip there and say so.
"""

import hashlib
import importlib.util
import platform
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from robustcoreset.cli import main as cli_main

RECORDED = ("2.4.6", "scipy-openblas", "0.3.31.188.0", "x86_64")


def _setup() -> tuple:
    if np.__version__ != RECORDED[0]:
        return np.__version__, "", "", platform.machine()
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (np.__version__, blas.get("name", ""), blas.get("version", ""),
            platform.machine())


pytestmark = pytest.mark.skipif(
    _setup() != RECORDED,
    reason="report.csv hashes recorded with numpy {} and {} {} on {}; this "
           "is numpy {} with {!r} {!r} on {}".format(*RECORDED, *_setup()))


@pytest.fixture(scope="module")
def workloads():
    """``bench/workloads.py``, imported from its file."""
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


GOLDEN = {
    ("exact-small", 401):
        "975afc71962492f501c1d885e18f9737cc57eb05dc669a05c13225faf5112417",
    ("exact-small", 402):
        "13b7975f20b4cef386871a2550f241a51b586281389c2f9c5e95ea052d696447",
    ("exact-small", 403):
        "f9d6400166422df58244f50ff447d93e0a76869c50bbf399655f9bc5ddfe237a",
    ("fixedw-large", 401):
        "562af82d251565c34435b2afecb565ca09eeda775d07d7a923391b3c23351837",
    ("fixedw-large", 402):
        "422d48a08bf1700489a709da9d3567b9931173908120ea9de203077f02d490ed",
    ("cvbest-train", 401):
        "6e46a20734177b4604ef0bd0f7791e49f48b390033b31b5ede354e74c0e120a7",
}


@pytest.mark.parametrize("name, seed", list(GOLDEN),
                         ids=[f"{name}-{seed}" for name, seed in GOLDEN])
def test_workload_report_csv_is_golden(workloads, tmp_path, name, seed):
    workload = workloads.WORKLOADS[name]
    dataset = tmp_path / "data.svm"
    dataset.write_text(workloads.libsvm_text(
        *workloads.generate(workload.shape, workload.n, seed)))
    out = tmp_path / "out"
    res = CliRunner().invoke(cli_main, workload.sweep_args(dataset, out))
    assert res.exit_code == 0, res.output
    assert hashlib.sha256((out / "report.csv").read_bytes()).hexdigest() == \
        GOLDEN[name, seed]
