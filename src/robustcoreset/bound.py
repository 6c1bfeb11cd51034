"""Certified worst-case validation error bounds for coreset candidates.

Pipeline, for a reference model trained on all instances with uniform
weights:

1. The duality gap of the perturbed problem, as a function of the kept
   mask v and training weights w, is the convex quadratic

       q(v*w) = (v*w)' A (v*w) + b' (v*w) + c,
       A = diag(alpha*y) K diag(alpha*y) / (2 lam),
       b_i = loss(y_i, score_i) + loss*(-alpha_i),
       c = (alpha*y)' K (alpha*y) / (2 lam),

   where lam is the regularization strength of the sum-form objective
   (``Model.lam_abs``) and loss* is the convex conjugate; with that
   pairing q is the exact sum-form duality gap and q(all-ones) vanishes
   at the reference optimum.  The paper publishes b_i = loss_i - alpha_i,
   which is the same for the hinge loss (loss*(-a) = -a on [0, 1]) but not
   for logistic, where loss*(-a) = a log a + (1 - a) log(1 - a).  There
   the published q(1) does not vanish: on a 150-row ``synth`` task
   (logistic, lam = 2, fold 0 of 5) it is 31.5 against 3.2e-7 for the
   exact form.  It would inflate every gap and radius, so it is not used.
2. ``maximize_on_ball`` maximizes q over the weight ball ||w - 1|| <= S
   (an eigenvalue problem plus a secular-equation root find).  It reports
   the secular dual value, which by weak duality bounds the maximum from
   above at any multiplier past the top eigenvalue, so the gap it reports
   is never low, however early the root find stops (Moré & Sorensen 1983).
3. The maximal gap gives a parameter-ball radius R = sqrt(2 dg / lam);
   every retrained optimum stays within R of the reference coefficients.
4. Validation points whose score interval stays positive are certified
   correct (zeta); minimizing the certified weight mass over the
   validation ball has a closed form, yielding the error upper bound.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .erm import Model, conjugate_eval, decision_scores, loss_eval

__all__ = [
    "QuadraticGapForm",
    "BallMax",
    "Counts",
    "WeightedIndicatorMin",
    "BoundReport",
    "BallMaximizationError",
    "quadratic_form",
    "maximize_on_ball",
    "radius",
    "certify",
    "min_weighted_indicator",
    "worst_case_error_ub",
    "certificate",
]


_EPS = float(np.finfo(float).eps)
_MAX_BISECT = 200


class BallMaximizationError(RuntimeError):
    """Eigendecomposition or secular root bracketing failed."""


@dataclass(frozen=True)
class QuadraticGapForm:
    """Quadratic surrogate of the duality gap in the combined vector v*w."""

    A: np.ndarray
    b: np.ndarray
    c: float

    @property
    def n(self) -> int:
        return self.b.shape[0]

    def value(self, vw) -> float:
        vw = np.asarray(vw, dtype=float)
        return float(vw @ (self.A @ vw) + self.b @ vw + self.c)

    def reduced(self, active):
        """Restrict to active coordinates and recenter at w = 1.

        Returns (At, g, const) with q = u' At u + g' u + const for
        u = w_active - 1.
        """
        At = self.A[np.ix_(active, active)]
        bt = self.b[active]
        g = 2.0 * At.sum(axis=1) + bt
        const = float(At.sum() + bt.sum() + self.c)
        return At, g, const


def quadratic_form(model_ref: Model) -> QuadraticGapForm:
    """Build (A, b, c) from the reference dual solution, its Gram matrix,
    labels and strength; the reference is trained with unit weights.

    The linear coefficient is loss_i + loss*(-alpha_i), which makes q(v*w)
    the exact sum-form duality gap for both losses; for hinge it equals
    the published loss_i - alpha_i.
    """
    K, y, lam = model_ref.gram_ref, model_ref.y, model_ref.lam_abs
    s = model_ref.alpha * y
    A = (K * np.outer(s, s)) / (2.0 * lam)
    losses = loss_eval(model_ref.loss, y, model_ref.train_scores)
    b = losses + conjugate_eval(model_ref.loss, model_ref.alpha)
    c = float(s @ (K @ s)) / (2.0 * lam)
    return QuadraticGapForm(A=A, b=b, c=c)


@dataclass(frozen=True)
class BallMax:
    """Result of maximizing the gap quadratic over the training weight ball."""

    w_star: np.ndarray
    dg_max: float
    mu: float
    hard_case: bool
    u_norm: float
    kkt_residual: float


def maximize_on_ball(form: QuadraticGapForm, v, S: float) -> BallMax:
    """Maximize q(v*w) over ||w - 1|| <= S with removed coordinates at w=1.

    On the active subspace the problem is max u'Au + g'u over ||u|| <= S
    with A PSD, so the maximum sits on the boundary.  With A = V diag(lam) V'
    and gamma = V'g/2, every mu > lambda_max(A) gives the Lagrangian dual
    value D(mu) = const + mu S^2 + sum_k gamma_k^2 / (mu - lam_k), an upper
    bound on the maximum by weak duality that is tight where |u(mu)| = S,
    u(mu) = V (gamma / (mu - lam)).  Bisection on that secular equation
    keeps a right end mu with |u(mu)| <= S, and dg_max = D(mu) there, so it
    bounds the maximum wherever the bisection stops.  In the hard case (g
    almost orthogonal to the leading eigenspace) |u| < S just above
    lambda_max, and mu stays there.  w_star is u(mu) with its
    leading-eigenvector coefficient stretched, sign kept, onto the sphere.
    """
    if S < 0:
        raise ValueError("S must be nonnegative")
    v = np.asarray(v, dtype=float)
    n = form.n
    if v.shape != (n,):
        raise ValueError("mask length mismatch")
    w_star = np.ones(n)
    active = v != 0.0
    if S == 0.0 or not active.any():
        return BallMax(w_star=w_star, dg_max=form.value(v * w_star),
                       mu=0.0, hard_case=False, u_norm=0.0, kkt_residual=0.0)

    At, g, const = form.reduced(active)
    try:
        eigval, V = np.linalg.eigh(At)
    except np.linalg.LinAlgError as exc:
        raise BallMaximizationError(f"eigendecomposition failed: {exc}") from exc
    lam1 = float(eigval[-1])
    gamma = V.T @ (g / 2.0)
    gnorm = float(np.linalg.norm(g))

    buf = np.empty_like(gamma)

    def norm_sq_at(mu):
        # sum((gamma / (mu - eigval))**2) in one reused buffer; callers
        # hold np.errstate(divide="ignore", over="ignore").
        np.subtract(mu, eigval, out=buf)
        np.divide(gamma, buf, out=buf)
        np.multiply(buf, buf, out=buf)
        return float(buf.sum())

    delta = 1e-14 * (1.0 + abs(lam1))
    lo = lam1 + delta
    S2 = S * S
    with np.errstate(divide="ignore", over="ignore"):
        hard = norm_sq_at(lo) < S2
    a_hi = lo
    if not hard:
        a_lo, a_hi = lo, lam1 + gnorm / (2.0 * S) + delta
        with np.errstate(divide="ignore", over="ignore"):
            if norm_sq_at(a_hi) > S2:
                raise BallMaximizationError(
                    f"secular bracket failed: |u({a_hi:.6g})| > S={S:.6g}")
            for _ in range(_MAX_BISECT):
                mu = 0.5 * (a_lo + a_hi)
                if norm_sq_at(mu) >= S2:
                    a_lo = mu
                else:
                    a_hi = mu
                if a_hi - a_lo <= 4.0 * _EPS * max(1.0, abs(a_hi)):
                    break

    coef = gamma / (a_hi - eigval)  # u(a_hi) in the eigenbasis, |coef| <= S
    value = const + a_hi * S2 + float(gamma @ coef)
    rest = float(coef[:-1] @ coef[:-1])
    coef[-1] = math.copysign(math.sqrt(max(S2 - rest, 0.0)), coef[-1])
    u = V @ coef
    resid = float(np.linalg.norm(2.0 * (At @ u) + g - 2.0 * a_hi * u))
    w_star[active] = 1.0 + u
    return BallMax(w_star=w_star, dg_max=value, mu=a_hi, hard_case=hard,
                   u_norm=float(np.linalg.norm(u)), kkt_residual=resid)


def radius(dg_max: float, lam: float) -> float:
    """Parameter-ball radius sqrt((2/lam) * dg); tiny negative dg clamps to 0."""
    if lam <= 0:
        raise ValueError("lam must be positive")
    if dg_max < -1e-10:
        raise ValueError(f"negative gap {dg_max} beyond tolerance")
    return math.sqrt(2.0 * max(dg_max, 0.0) / lam)


class Counts(NamedTuple):
    surely_correct: int
    surely_incorrect: int
    unknown: int


def certify(model_ref: Model, K_val_cross, k_val_diag, y_val, R: float):
    """Per-validation-instance certificates under a radius-R parameter ball.

    zeta_i = 1 iff the whole ball classifies instance i correctly
    (strict inequality; zero endpoints count as unknown).
    """
    y_val = np.asarray(y_val, dtype=float)
    margins = y_val * decision_scores(model_ref, K_val_cross)
    half = np.sqrt(np.clip(np.asarray(k_val_diag, dtype=float), 0.0, None)) * R
    lo = margins - half
    hi = margins + half
    zeta = (lo > 0.0).astype(int)
    incorrect = int(np.sum(hi < 0.0))
    correct = int(zeta.sum())
    counts = Counts(correct, incorrect, y_val.size - correct - incorrect)
    return zeta, counts


class WeightedIndicatorMin(NamedTuple):
    value: float
    w_prime_star: np.ndarray


def min_weighted_indicator(zeta, Q: float) -> WeightedIndicatorMin:
    """Minimize zeta' w' over ||w' - 1|| <= Q with sum(w') fixed at n'.

    Closed form: total - Q * sqrt(||zeta||^2 - total^2/n'); the minimizer
    tilts weight away from certified instances while keeping the total
    mass constant.  A zero radicand (all-equal zeta) leaves w' = 1.
    """
    if Q < 0:
        raise ValueError("Q must be nonnegative")
    zeta = np.asarray(zeta, dtype=float)
    n_val = zeta.shape[0]
    if n_val < 1:
        raise ValueError("need at least one validation instance")
    total = float(zeta.sum())
    radicand = float(zeta @ zeta) - total * total / n_val
    radicand = max(radicand, 0.0)
    if radicand == 0.0 or Q == 0.0:
        return WeightedIndicatorMin(total, np.ones(n_val))
    rad = math.sqrt(radicand)
    w = 1.0 - (Q / rad) * (zeta - total / n_val)
    return WeightedIndicatorMin(total - Q * rad, w)


def worst_case_error_ub(zeta, Q: float) -> float:
    """Upper bound on the weighted validation error over the validation ball."""
    zeta = np.asarray(zeta, dtype=float)
    value = min_weighted_indicator(zeta, Q).value
    return min(1.0, max(0.0, 1.0 - value / zeta.shape[0]))


@dataclass(frozen=True)
class BoundReport:
    """Certificate for one candidate coreset."""

    dg_max: float
    w_star: np.ndarray
    radius: float
    zeta: np.ndarray
    counts: Counts
    ub: float

    def to_dict(self) -> dict:
        return {
            "dg_max": self.dg_max,
            "radius": self.radius,
            "ub": self.ub,
            "counts": {
                "surely_correct": self.counts.surely_correct,
                "surely_incorrect": self.counts.surely_incorrect,
                "unknown": self.counts.unknown,
            },
            "zeta": self.zeta.astype(int).tolist(),
            "w_star": self.w_star.tolist(),
        }


def certificate(model_ref: Model, ball: BallMax, Q: float, K_val_cross,
                k_val_diag, y_val) -> BoundReport:
    """Bound pipeline from a kept mask's ball maximum: radius, zeta, ub."""
    R = radius(ball.dg_max, model_ref.lam_abs)
    zeta, counts = certify(model_ref, K_val_cross, k_val_diag, y_val, R)
    ub = worst_case_error_ub(zeta, Q)
    return BoundReport(dg_max=ball.dg_max, w_star=ball.w_star, radius=R,
                       zeta=zeta, counts=counts, ub=ub)
