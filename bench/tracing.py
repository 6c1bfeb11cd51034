"""Span tracing of the package's layers, installed from outside the package.

``Tracer`` wraps each public function listed in ``TRACED`` and rebinds the
wrapper at every module attribute of the package that holds the original
function object, so a call is traced however it is reached: ``train`` is
bound in ``erm``, ``experiment`` and ``cli``; ``maximize_on_ball`` is
looked up as ``bound.maximize_on_ball`` from ``select`` and
``experiment`` and as a global inside ``bound``.

Spans (name, start, end, parent, amount) are kept in memory.  A span's
self time is its duration minus the durations of its direct children;
because every traced call nests inside ``experiment.run_experiment``, the
self times of one sweep add up to that span's duration.
"""

import functools
import importlib
import sys
from time import perf_counter

import numpy as np

PACKAGE = "robustcoreset"

TRACED = {
    "data": ("parse_libsvm", "cv_split"),
    "kernel": ("gram",),
    "erm": ("train",),
    "bound": ("quadratic_form", "maximize_on_ball", "certificate", "certify"),
    "select": ("greedy_exact", "greedy_fixed_w", "greedy_oneshot",
               "baseline_select"),
    "experiment": ("lambda_cv", "prepare_fold", "run_selection",
                   "evaluate_worst_case_accuracy", "run_experiment"),
}

TRACED_NAMES = tuple(f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns)

BALL = "bound.maximize_on_ball"
EXACT = "select.greedy_exact"
ROOT = "experiment.run_experiment"


def _active_size(args, kwargs, result):
    # maximize_on_ball(form, v, S): the eigh runs on the active block only,
    # and not at all when S == 0 or nothing is active
    v = kwargs.get("v", args[1] if len(args) > 1 else None)
    S = kwargs.get("S", args[2] if len(args) > 2 else None)
    return int(np.count_nonzero(v)) if S else 0


def _removals(args, kwargs, result):
    return len(result.removal_order)


# per-span amount recorded next to the timing, for the derived metrics
_AMOUNT = {BALL: _active_size, EXACT: _removals}


class Tracer:
    """Context manager that traces the package's layers while installed."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patched = []

    def __enter__(self):
        modules = [m for name, m in list(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for qualname in TRACED_NAMES:
            layer, fname = qualname.split(".")
            orig = getattr(importlib.import_module(f"{PACKAGE}.{layer}"), fname)
            wrapper = self._wrap(qualname, orig)
            for mod in modules:
                for attr in [a for a, val in vars(mod).items() if val is orig]:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, orig))
        return self

    def __exit__(self, *exc):
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()
        return False

    def _wrap(self, name, fn):
        spans, stack, amount_of = self.spans, self._stack, _AMOUNT.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            amount = 0
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if amount_of is not None:
                    amount = amount_of(args, kwargs, result)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, amount)

        return traced


def summarize(spans) -> dict:
    """Per-function calls and self seconds plus the derived counts."""
    child_s = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_s[parent] += end - start
    out = {}
    for name in TRACED_NAMES:
        out[f"{name}.calls"] = 0
        out[f"{name}.self_s"] = 0.0
    n3 = solves = removals = 0
    for i, (name, start, end, parent, amount) in enumerate(spans):
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += (end - start) - child_s[i]
        if name == BALL:
            n3 += amount ** 3
            if _has_ancestor(spans, parent, EXACT):
                solves += 1
        elif name == EXACT:
            removals += amount
    out[f"{BALL}.n3"] = n3
    out[f"{EXACT}.solves_per_removal"] = solves / removals if removals else 0.0
    return out


def root_span_s(spans) -> float:
    """Total duration of the top-level ``run_experiment`` spans."""
    return sum(end - start for name, start, end, parent, _ in spans
               if name == ROOT and parent < 0)


def _has_ancestor(spans, idx, name) -> bool:
    while idx >= 0:
        if spans[idx][0] == name:
            return True
        idx = spans[idx][3]
    return False
