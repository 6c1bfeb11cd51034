"""Coreset selection: orderings, one class-guarded filter, one greedy loop.

Every selector removes n_del training instances in some order:

* the baselines (``baseline_select``) and ``greedy_oneshot`` compute a
  removal order up front -- random permutation, margin (largest |score|
  first), the reverse of a k-center-greedy or kernel-herding keep order,
  or the single-removal gap at the fixed worst-case weight -- and pass it
  through ``_filtered_removals``, which skips an instance whose removal
  would empty its class when classes are preserved;
* ``greedy_exact`` and ``greedy_fixed_w`` run ``_greedy``, which removes
  the eligible instance with the smallest score one step at a time.  The
  exact scorer re-maximizes the gap over the weight ball per candidate;
  the fixed-w scorer evaluates the quadratic at the full-set worst-case
  weight ``w_worst`` for all candidates in one numpy expression.

Selectors only select: a robust trace keeps the gap its scorer gave each
removal, which is no bound (fixed-w and one-shot score one feasible weight,
below the ball maximum); bounds come from ``bound.certificate``.
"""

from dataclasses import dataclass, field

import numpy as np

from . import bound
from .erm import Model

__all__ = [
    "SelectionTrace",
    "greedy_exact",
    "greedy_fixed_w",
    "greedy_oneshot",
    "baseline_select",
    "BASELINE_METHODS",
]

BASELINE_METHODS = ("random", "herding", "kcenter", "margin")


@dataclass
class SelectionTrace:
    """Ordered removals; ``gaps`` has the robust scorer's gap per removal."""

    method: str
    seed: int
    n: int
    removal_order: list = field(default_factory=list)
    gaps: list = field(default_factory=list)

    @property
    def n_del(self) -> int:
        return len(self.removal_order)

    def kept_mask(self, n_del: int | None = None) -> np.ndarray:
        """Binary mask after the first ``n_del`` removals (all by default)."""
        if n_del is None:
            n_del = self.n_del
        if not 0 <= n_del <= self.n_del:
            raise ValueError("n_del outside the recorded trace")
        v = np.ones(self.n)
        v[self.removal_order[:n_del]] = 0.0
        return v

    def kept_indices(self, n_del: int | None = None) -> np.ndarray:
        return np.flatnonzero(self.kept_mask(n_del) > 0)

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "seed": self.seed,
            "n": self.n,
            "removal_order": [int(i) for i in self.removal_order],
            "gaps": [float(g) for g in self.gaps],
        }


def _check_budget(n, n_del):
    if not 0 <= n_del < n:
        raise ValueError(f"n_del must be in [0, n), got {n_del} for n={n}")


def _filtered_removals(order, n_del, y, preserve_classes):
    """The first n_del indices of ``order``, skipping any whose removal would
    empty its class when ``preserve_classes`` is set."""
    counts = {1: int(np.sum(y > 0)), -1: int(np.sum(y <= 0))}
    removal = []
    for i in order:
        if len(removal) == n_del:
            break
        key = 1 if y[i] > 0 else -1
        if preserve_classes and counts[key] <= 1:
            continue
        counts[key] -= 1
        removal.append(int(i))
    if len(removal) < n_del:
        raise ValueError("class preservation exhausted the candidate pool")
    return removal


def _greedy(method, scores, y, n_del, preserve_classes, seed, on_remove=None):
    """Remove n_del instances one at a time, each the eligible candidate with
    the smallest ``scores(candidates, kept_mask)`` (ties to the smallest
    index); ``on_remove(i)`` updates the scorer's state after a removal."""
    y = np.asarray(y)
    pos = y > 0
    v = np.ones(y.shape[0])
    trace = SelectionTrace(method=method, seed=seed, n=y.shape[0])
    for _ in range(n_del):
        cand = np.flatnonzero(v > 0)
        if preserve_classes:
            n_pos = int(np.count_nonzero(pos[cand]))
            cand = cand[np.where(pos[cand], n_pos > 1, cand.size - n_pos > 1)]
        if cand.size == 0:
            raise ValueError("no removable candidate left")
        values = scores(cand, v)
        k = int(np.argmin(values))
        best_i = int(cand[k])
        v[best_i] = 0.0
        if on_remove is not None:
            on_remove(best_i)
        trace.removal_order.append(best_i)
        trace.gaps.append(values[k])
    return trace


def greedy_exact(form, y, S, n_del, *, preserve_classes: bool = False,
                 seed: int = 0) -> SelectionTrace:
    """Remove one instance at a time, re-solving the ball maximization for
    every candidate and keeping the removal with the smallest worst-case
    gap (ties to the smallest index)."""
    _check_budget(form.n, n_del)

    def scores(cand, v):
        out = np.empty(cand.size)
        for k, i in enumerate(cand):
            v[i] = 0.0
            out[k] = bound.maximize_on_ball(form, v, S).dg_max
            v[i] = 1.0
        return out

    return _greedy("robust-exact", scores, y, n_del, preserve_classes, seed)


class _QuadState:
    """The gap quadratic at a fixed weight ``z`` (the full-set worst case),
    evaluated incrementally under coordinate zeroing of a private copy."""

    def __init__(self, form, z):
        self.form = form
        self.z = np.array(z, dtype=float)
        self.Az = form.A @ self.z
        self.A_diag = np.diag(form.A)
        self.value = float(self.z @ self.Az + form.b @ self.z + form.c)

    def removal_value(self, i):
        """Value after zeroing coordinate i; ``i`` may be an index array."""
        zi = self.z[i]
        return self.value - 2.0 * zi * self.Az[i] + zi * zi * self.A_diag[i] \
            - self.form.b[i] * zi

    def remove(self, i):
        self.value = self.removal_value(i)
        zi = self.z[i]
        if zi != 0.0:
            self.Az -= self.form.A[:, i] * zi
            self.z[i] = 0.0


def greedy_fixed_w(form, y, w_worst, n_del, *, preserve_classes: bool = False,
                   seed: int = 0) -> SelectionTrace:
    """Greedy removals scored by the quadratic at the full-set worst-case
    weight ``w_worst``, held fixed and re-evaluated per step."""
    _check_budget(form.n, n_del)
    state = _QuadState(form, w_worst)
    return _greedy("robust-fixed-w", lambda cand, v: state.removal_value(cand),
                   y, n_del, preserve_classes, seed, on_remove=state.remove)


def greedy_oneshot(form, y, w_worst, n_del, *, preserve_classes: bool = False,
                   seed: int = 0) -> SelectionTrace:
    """Rank every instance once by its single-removal gap at the fixed
    worst-case weight and drop the n_del smallest in one pass."""
    n = form.n
    _check_budget(n, n_del)
    state = _QuadState(form, w_worst)
    ranking = np.argsort(state.removal_value(np.arange(n)), kind="stable")
    trace = SelectionTrace(method="robust-oneshot", seed=seed, n=n)
    trace.removal_order = _filtered_removals(ranking, n_del, np.asarray(y),
                                             preserve_classes)
    for i in trace.removal_order:
        state.remove(i)
        trace.gaps.append(state.value)
    return trace


def _kcenter_order(K):
    n = K.shape[0]
    diag = np.diag(K)
    centrality = diag - 2.0 * K.mean(axis=1)
    order = [int(np.argmin(centrality))]
    d2 = diag + diag[order[0]] - 2.0 * K[:, order[0]]
    d2[order[0]] = -np.inf
    for _ in range(n - 1):
        nxt = int(np.argmax(d2))
        order.append(nxt)
        d2 = np.minimum(d2, diag + diag[nxt] - 2.0 * K[:, nxt])
        d2[nxt] = -np.inf
    return order


def _herding_order(K):
    n = K.shape[0]
    diag = np.diag(K)
    s = K.mean(axis=1)
    order = []
    t = np.zeros(n)
    ss = 0.0
    s_kept = 0.0
    taken = np.zeros(n, dtype=bool)
    for k in range(n):
        # distance of the candidate-augmented kept mean to the full mean,
        # scaled by (k+1)^2 and with the constant ||mean||^2 term dropped
        obj = (ss + 2.0 * t + diag) - 2.0 * (k + 1) * (s_kept + s)
        obj[taken] = np.inf
        pick = int(np.argmin(obj))
        order.append(pick)
        taken[pick] = True
        ss += 2.0 * t[pick] + diag[pick]
        t = t + K[:, pick]
        s_kept += s[pick]
    return order


def _baseline_order(method, K, model_ref, seed):
    """Removal order of a baseline, first removal first."""
    if method == "random":
        return np.random.default_rng(seed).permutation(K.shape[0])
    if method == "margin":
        if model_ref is None:
            raise ValueError("margin baseline needs the reference model")
        return np.argsort(-np.abs(model_ref.train_scores), kind="stable")
    if method == "kcenter":
        return reversed(_kcenter_order(K))
    if method == "herding":
        return reversed(_herding_order(K))
    raise ValueError(f"unknown baseline method {method!r}")


def baseline_select(method: str, K, y, model_ref: Model | None, n_del: int,
                    seed: int = 0, *, preserve_classes: bool = False) -> SelectionTrace:
    """Reference selectors: random, margin, kcenter, herding.

    margin removes the instances farthest from the decision boundary
    first (largest |score|), so the kept set hugs the margin; kcenter and
    herding build keep-orders in kernel feature space and drop the most
    redundant points first.
    """
    K = np.asarray(K, dtype=float)
    n = K.shape[0]
    _check_budget(n, n_del)
    order = _baseline_order(method, K, model_ref, seed)
    trace = SelectionTrace(method=method, seed=seed, n=n)
    trace.removal_order = _filtered_removals(order, n_del, np.asarray(y),
                                             preserve_classes)
    return trace
