import sys
import tracemalloc
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import robustcoreset as rc


@pytest.fixture(scope="session")
def rbf_task():
    """Small two-class RBF task: (dataset, Gram matrix, lam_abs)."""
    ds = rc.gaussian_task(60, 4, seed=7, separation=2.5)
    h = rc.bandwidth_heuristic(ds.features)
    K = rc.gram(ds.features, ds.features, h)
    return ds, K, 5.0


@pytest.fixture(scope="session")
def hinge_model(rbf_task):
    ds, K, lam_abs = rbf_task
    return rc.train(K, ds.labels, lam_abs, kind=rc.HINGE, tol=1e-10)


@pytest.fixture(scope="session")
def logistic_model(rbf_task):
    ds, K, lam_abs = rbf_task
    return rc.train(K, ds.labels, lam_abs, kind=rc.LOGISTIC, tol=1e-10)


@pytest.fixture
def peak_bytes():
    """``peak_bytes(fn, *args, **kwargs)``: the most bytes that numpy and
    Python held at once during the call, above what they held before it
    (tracemalloc)."""
    def measure(fn, *args, **kwargs):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            fn(*args, **kwargs)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
    return measure
