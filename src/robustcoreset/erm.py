"""Weighted L2-regularized kernel classifiers trained in the dual.

Every objective here is the sum form.  For a 0/1 mask v, weights w and the
regularization strength lam (``lam_abs``, the one unit the package uses),
the primal is

    P(beta) = sum_i v_i w_i loss(y_i, f(x_i; beta)) + (lam/2) ||beta||^2

and the matching dual over alpha in [0, 1]^n is

    D(alpha) = -sum_i v_i w_i loss*(-alpha_i) - (1/(2 lam)) z' K z,
               z = v * w * y * alpha.

The optimum satisfies the representer identity beta = Phi' z / lam, so
decision scores are (1/lam) sum_i v_i w_i y_i alpha_i K(x_i, x).
Training is dual coordinate ascent: exact clipped updates for the hinge
loss, safeguarded 1-D Newton for the logistic loss, stopping once the
duality gap per unit weight, (P - D) / E with E = sum_i v_i w_i, falls
below ``tol``.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LOGISTIC",
    "HINGE",
    "LOSSES",
    "Model",
    "TrainingError",
    "check_mask",
    "loss_eval",
    "conjugate_eval",
    "train",
    "decision_scores",
]

LOGISTIC = "logistic"
HINGE = "hinge"
LOSSES = (LOGISTIC, HINGE)


class TrainingError(RuntimeError):
    """Solver failed to certify the requested gap; carries ``best_gap``."""

    def __init__(self, message, best_gap=None):
        super().__init__(message)
        self.best_gap = best_gap


def _check_kind(kind):
    if kind not in LOSSES:
        raise ValueError(f"unknown loss kind {kind!r}")


def check_mask(v, n: int) -> np.ndarray:
    """The kept mask (v = 1) of a 0/1 mask v over n instances as booleans;
    a wrong length or an entry outside {0, 1} raises ValueError."""
    v = np.asarray(v, dtype=float)
    if v.shape != (n,):
        raise ValueError("mask length mismatch")
    kept = v != 0.0
    if np.count_nonzero(v != kept):
        raise ValueError("v must be a 0/1 mask")
    return kept


def loss_eval(kind: str, y, scores) -> np.ndarray:
    """Elementwise loss; logistic uses the overflow-safe logaddexp form."""
    _check_kind(kind)
    m = y * scores
    if kind == HINGE:
        return np.maximum(0.0, 1.0 - m)
    return np.logaddexp(0.0, -m)


def conjugate_eval(kind: str, alpha) -> np.ndarray:
    """Elementwise convex conjugate loss*(-alpha) on its domain [0, 1];
    callers keep alpha there (the dual is -inf outside it)."""
    _check_kind(kind)
    if kind == HINGE:
        return -alpha
    a = np.clip(alpha, 0.0, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        val = np.where(a > 0.0, a * np.log(np.where(a > 0.0, a, 1.0)), 0.0)
        val = val + np.where(a < 1.0, (1.0 - a) * np.log(np.where(a < 1.0, 1.0 - a, 1.0)), 0.0)
    return val


@dataclass(frozen=True)
class Model:
    """Trained classifier: dual variables plus representer coefficients.

    ``rep_coef`` is v*w*y*alpha/lam_abs; scores of new points are
    K_cross.T @ rep_coef.  ``gram_ref`` keeps the training self-Gram, from
    which ``bound.quadratic_form`` builds the gap under new (v, w).
    ``certified_gap`` is the final duality gap per unit weight, the
    quantity ``tol`` bounds.
    """

    alpha: np.ndarray
    lam_abs: float
    loss: str
    gram_ref: np.ndarray
    certified_gap: float
    y: np.ndarray
    rep_coef: np.ndarray
    train_scores: np.ndarray

    @property
    def n(self) -> int:
        return self.alpha.shape[0]


_A_MIN = 1e-15
_A_MAX = 1.0 - 1e-15


def _logistic_coord_root(q0, s, a0):
    """Root of log(a/(1-a)) + q0 + s*(a - a0) on (0, 1), Newton + bisection."""
    lo, hi = 0.0, 1.0
    a = a0
    for _ in range(80):
        h = math.log(a / (1.0 - a)) + q0 + s * (a - a0)
        if -1e-13 < h < 1e-13:
            break
        if h > 0.0:
            hi = a
        else:
            lo = a
        step = h / (1.0 / (a * (1.0 - a)) + s)
        a_new = a - step
        if not lo < a_new < hi:
            a_new = 0.5 * (lo + hi)
        if a_new < _A_MIN:
            a_new = _A_MIN
        elif a_new > _A_MAX:
            a_new = _A_MAX
        if -1e-16 < a_new - a < 1e-16:
            a = a_new
            break
        a = a_new
    return a


def _max_passes(n_active: int) -> int:
    """Pass cap of ``train``: 1000 passes, or more up to 4e6 updates."""
    return max(1000, int(math.ceil(4_000_000 / n_active)))


def train(K, y, lam_abs: float, *, v=None, w=None, kind: str = LOGISTIC,
          tol: float = 1e-8) -> Model:
    """Fit the dual of the weighted sum-form problem at strength ``lam_abs``
    until the duality gap per unit weight is <= tol.

    Cyclic coordinate ascent, deterministic.  Raises TrainingError (with
    the best gap reached) when the pass cap ``_max_passes`` is hit,
    ValueError for a mask v that ``check_mask`` rejects (a weight belongs
    in w), an empty active set, or weights w of the wrong length or with a
    kept entry that is not finite and positive.
    """
    _check_kind(kind)
    K = np.asarray(K, dtype=float)
    y = np.asarray(y, dtype=float)
    n = K.shape[0]
    if K.shape != (n, n) or y.shape != (n,):
        raise ValueError("K must be n x n with matching labels")
    w = np.ones(n) if w is None else np.asarray(w, dtype=float)
    if w.shape != (n,):
        raise ValueError("weight length mismatch")
    if not lam_abs > 0:
        raise ValueError("lam_abs must be positive")
    if not tol > 0:
        raise ValueError("tol must be positive")
    act = np.arange(n) if v is None else np.flatnonzero(check_mask(v, n))
    if act.size == 0:
        raise ValueError("empty active set")
    wa = w[act]
    if not ((wa > 0.0) & (wa < math.inf)).all():
        raise ValueError("active weights must be finite and positive")
    ya = y[act]
    # K itself when every instance is active, unless its layout differs
    # from the copy's: a gemv's bits depend on the layout
    Ka = (K if act.size == n and K.flags.c_contiguous
          else K[np.ix_(act, act)])
    E = float(wa.sum())
    max_passes = _max_passes(act.size)

    a = np.full(act.size, 0.5 if kind == LOGISTIC else 0.0)
    z = wa * ya * a
    yf = ya * (Ka @ z) / lam_abs

    def current_gap():
        # P - D = sum w (loss + loss*) + lam ||beta||^2, and
        # lam ||beta||^2 = z' K z / lam = z' f
        f = yf * ya
        losses = loss_eval(kind, ya, f) + conjugate_eval(kind, a)
        return (float(wa @ losses) + float(z @ f)) / E

    # Same bits as a numpy-scalar loop: YK[j] is ya * Ka[:, j] entry by
    # entry, Python floats round alike, comparisons clip as min/max would.
    # A memoryview of a float64 array reads an entry as the Python float
    # float(yf[j]) gives and stores a float as it is, so a and z stay
    # current in place.  YK[j] * step, with the 0-d array step holding
    # dz / lam_abs, rounds as YK[j] * (dz / lam_abs) does but converts no
    # Python float.  The views, step and YK's row list are built once.
    YK = list(np.multiply(Ka.T, ya, order="C"))
    yf_m, a_m, z_m = memoryview(yf), memoryview(a), memoryview(z)
    w_l, y_l = wa.tolist(), ya.tolist()
    s_l = [wj * d / lam_abs for wj, d in zip(w_l, np.diag(Ka).tolist())]
    a_l = a.tolist()
    step = np.empty(())
    hinge = kind == HINGE
    best_gap = math.inf
    for sweep in range(max_passes):
        for j, sj in enumerate(s_l):
            aj = a_l[j]
            if hinge:
                if sj > 0.0:
                    a_new = aj + (1.0 - yf_m[j]) / sj
                    if not a_new > 0.0:
                        a_new = 0.0
                    elif not a_new < 1.0:
                        a_new = 1.0
                else:
                    a_new = 1.0 if yf_m[j] < 1.0 else 0.0
            else:
                a_new = _logistic_coord_root(yf_m[j], sj, aj)
            delta = a_new - aj
            if delta != 0.0:
                a_l[j] = a_m[j] = a_new
                dz = w_l[j] * y_l[j] * delta
                z_m[j] += dz
                step[()] = dz / lam_abs
                yf += YK[j] * step
        if (sweep + 1) % 64 == 0:
            yf = ya * (Ka @ z) / lam_abs
            yf_m = memoryview(yf)
        gap = current_gap()
        best_gap = min(best_gap, gap)
        if gap <= tol:
            break
    else:
        raise TrainingError(
            f"duality gap {best_gap:.3e} above tol {tol:.1e} "
            f"after {max_passes} passes", best_gap=best_gap)

    alpha = np.zeros(n)
    alpha[act] = a
    rep_coef = np.zeros(n)
    rep_coef[act] = z / lam_abs
    return Model(alpha=alpha, lam_abs=lam_abs, loss=kind, gram_ref=K,
                 certified_gap=gap, y=y.astype(float), rep_coef=rep_coef,
                 train_scores=K @ rep_coef)


def decision_scores(model: Model, K_cross) -> np.ndarray:
    """Scores of query points given the training-to-query Gram (n x m)."""
    K_cross = np.asarray(K_cross, dtype=float)
    if K_cross.ndim != 2 or K_cross.shape[0] != model.n:
        raise ValueError("cross-Gram must have one row per training instance")
    return K_cross.T @ model.rep_coef
