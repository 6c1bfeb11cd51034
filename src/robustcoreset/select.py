"""Coreset selection: one removal loop, three kinds of scorer.

Every selector runs ``_greedy``, which removes n_del training instances one
at a time, each the eligible instance with the smallest score (an
instance is ineligible when its removal would empty its class and classes
are preserved).  The selectors differ only in the score:

* the ball re-solve (``greedy_exact``): each candidate's worst-case gap,
  re-maximized over the weight ball;
* the fixed weight (``greedy_fixed_w``, ``greedy_oneshot``): the gap
  quadratic at the full-set worst-case weight ``w_worst``, re-evaluated
  per step for fixed-w and taken once from the full set for one-shot,
  dead instances first (for hinge, the non-support vectors);
* a fixed order (``baseline_select``): the rank in a random permutation,
  margin (largest |score| first), or the reverse of a k-center-greedy or
  kernel-herding keep order.

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
    seed: int | None
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

    def kept_indices(self) -> np.ndarray:
        return np.flatnonzero(self.kept_mask() > 0)

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "seed": self.seed,
            "n": self.n,
            "removal_order": [int(i) for i in self.removal_order],
            "gaps": [float(g) for g in self.gaps],
        }


def _greedy(method, y, n_del, scores, remove=None, *,
            preserve_classes=False, seed=None):
    """Remove n_del instances one at a time, each the eligible candidate with
    the smallest ``scores(candidates, kept_mask)`` (ties to the smallest
    index).  ``remove(i, score)`` updates the scorer's state after a removal
    and returns the gap to record; without it the trace records no gaps."""
    y = np.asarray(y)
    n = y.shape[0]
    if not 0 <= n_del < n:
        raise ValueError(f"n_del must be in [0, n), got {n_del} for n={n}")
    pos = y > 0
    v = np.ones(n)
    trace = SelectionTrace(method=method, seed=seed, n=n)
    for _ in range(n_del):
        cand = np.flatnonzero(v > 0)
        if preserve_classes:
            n_pos = int(np.count_nonzero(pos[cand]))
            cand = cand[np.where(pos[cand], n_pos > 1, cand.size - n_pos > 1)]
        if cand.size == 0:
            raise ValueError("class preservation exhausted the candidate pool")
        values = scores(cand, v)
        k = int(np.argmin(values))
        i = int(cand[k])
        v[i] = 0.0
        trace.removal_order.append(i)
        if remove is not None:
            trace.gaps.append(remove(i, values[k]))
    return trace


def greedy_exact(form, y, S, n_del, *, preserve_classes: bool = False,
                 spectrum: bound.Spectrum | None = None) -> SelectionTrace:
    """Remove one instance at a time, re-solving the ball maximization for
    every candidate and keeping the removal with the smallest worst-case
    gap (ties to the smallest index).

    Each removal takes one spectral step (``bound.spectral_step``) of the
    current kept set and every candidate's solve reuses it: a live
    candidate's solve is the bordered secular step without its coordinate,
    and an inert one's is the current set's own solve, so every inert
    candidate scores the current maximum exactly.  Removing an inert
    instance leaves the solved set as it was, and ``spectral_step`` hands
    the step back unchanged.  The form memoizes the kept set's own solve
    and the step, from the first live candidate on, the bordered solves of
    all its live candidates, taken in one array pass; each candidate's
    ``bound.maximize_on_ball`` call reads its entry back.  So each step
    solves once, however many removals it serves.  No step is taken when
    S = 0, where every solve is a plain evaluation of q.  A given
    ``spectrum`` (the caller's full-set step, say) serves the first removal
    when it solves that kept set."""

    def scores(cand, v):
        nonlocal spectrum
        spectrum = bound.spectral_step(form, v, spectrum) if S > 0 else None
        out = np.empty(cand.size)
        for k, i in enumerate(cand):
            v[i] = 0.0
            out[k] = bound.maximize_on_ball(form, v, S, spectrum).dg_max
            v[i] = 1.0
        return out

    return _greedy("robust-exact", y, n_del, scores, lambda i, score: score,
                   preserve_classes=preserve_classes)


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

    def score(self, cand):
        """``removal_value`` of each candidate, a dead one's (``form.live``
        false) at -inf: removing it leaves q and this state as they were,
        so dead candidates go first, in index order."""
        return np.where(self.form.live[cand], self.removal_value(cand),
                        -np.inf)

    def remove(self, i, score=None):
        """Zero coordinate i and return the new value (``score`` unused)."""
        self.value = self.removal_value(i)
        zi = self.z[i]
        if zi != 0.0:
            self.Az -= self.form.A[:, i] * zi
            self.z[i] = 0.0
        return self.value


def greedy_fixed_w(form, y, w_worst, n_del, *,
                   preserve_classes: bool = False) -> SelectionTrace:
    """Greedy removals scored by the quadratic at the full-set worst-case
    weight ``w_worst``, held fixed and re-evaluated per step; dead
    instances go first (``_QuadState.score``)."""
    state = _QuadState(form, w_worst)
    return _greedy("robust-fixed-w", y, n_del,
                   lambda cand, v: state.score(cand), state.remove,
                   preserve_classes=preserve_classes)


def greedy_oneshot(form, y, w_worst, n_del, *,
                   preserve_classes: bool = False) -> SelectionTrace:
    """Rank every instance once by its single-removal gap at the fixed
    worst-case weight, dead ones first, and drop the n_del smallest in one
    pass; the trace records the fixed-weight value of each kept set."""
    state = _QuadState(form, w_worst)
    single = state.score(np.arange(form.n))
    return _greedy("robust-oneshot", y, n_del, lambda cand, v: single[cand],
                   state.remove, preserve_classes=preserve_classes)


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
        return _kcenter_order(K)[::-1]
    if method == "herding":
        return _herding_order(K)[::-1]
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
    order = _baseline_order(method, K, model_ref, seed)
    rank = np.empty(K.shape[0], dtype=int)
    rank[order] = np.arange(K.shape[0])
    return _greedy(method, y, n_del, lambda cand, v: rank[cand],
                   preserve_classes=preserve_classes, seed=seed)
