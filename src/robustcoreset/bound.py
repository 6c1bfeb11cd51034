"""Certified worst-case validation error bounds for coreset candidates.

Pipeline, for a reference model trained on all instances with uniform
weights:

1. The duality gap of the perturbed problem, as a function of the 0/1
   kept mask v and training weights w, is the convex quadratic

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
   in two steps.  The spectral step (``spectral_step``) eigendecomposes the
   block of A over the kept live coordinates: a dead coordinate
   (``QuadraticGapForm.live`` false: a zero row of A and b_i = 0, for
   hinge an instance with alpha_i = 0 and zero loss) leaves q unchanged.
   The secular step finds the root of the secular equation by safeguarded
   Newton steps on 1/|u(mu)| - 1/S from the left end of its bracket and
   secant steps for the right end, and stops once the dual value at the
   right end is within rounding of its minimum (Gander, Golub & von Matt
   1989).  It reports that secular dual value, which by weak duality
   bounds the maximum from above at any multiplier past the top
   eigenvalue, so the gap it reports is never low, however early the root
   find stops (Moré & Sorensen 1983).  One spectral step also serves the
   kept set less any one coordinate: that is a trust-region problem on a
   subspace of the same eigenbasis, whose secular function costs O(m) per
   evaluation (Golub 1973), so exact greedy takes one eigendecomposition
   per removal, not one per candidate.  The root find is written over
   arrays of independent problems, each row taking the steps a search
   over that problem alone would take: the kept set's own step is one
   row, and the first request for the kept set less any coordinate solves
   the bordered steps of every coordinate of the set as one batch.  The
   gap form keeps each own step by radius S and solved set, a spectrum
   its batch by S, so each runs once however many callers (a fold's
   selector, diagnostics and certificates; exact greedy's candidates at
   every removal a step serves) read it.  w_star, built only when read,
   is its solved set's own maximizer.
3. The maximal gap gives a parameter-ball radius R = sqrt(2 dg / lam);
   every retrained optimum stays within R of the reference coefficients.
4. A validation point whose reference margin y f(x) exceeds R ||phi(x)||
   is certified correct (zeta).  One less ``worst_case_accuracy`` of zeta,
   the least weighted mean of that 0/1 indicator over the validation
   ball, is the error upper bound.
"""

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .erm import Model, check_mask, conjugate_eval, loss_eval

__all__ = [
    "QuadraticGapForm",
    "BallMax",
    "Spectrum",
    "Counts",
    "BoundReport",
    "BallMaximizationError",
    "quadratic_form",
    "spectral_step",
    "maximize_on_ball",
    "radius",
    "certify",
    "worst_case_accuracy",
    "certificate",
]


_EPS = float(np.finfo(float).eps)
_MAX_STEPS = 200
_TOL = 4.0 * _EPS
_QUIET = dict(divide="ignore", over="ignore", invalid="ignore")


class BallMaximizationError(RuntimeError):
    """Eigendecomposition or secular root bracketing failed."""


@dataclass(frozen=True)
class QuadraticGapForm:
    """Quadratic surrogate of the duality gap in the combined vector v*w.
    ``_own`` memoizes the own-set secular step of every solved set
    ``maximize_on_ball`` solves, keyed by (S, the solved mask's bytes)."""

    A: np.ndarray
    b: np.ndarray
    c: float
    _own: dict = field(default_factory=dict, init=False, repr=False,
                       compare=False)

    @functools.cached_property
    def live(self) -> np.ndarray:
        """Mask of the coordinates q depends on.  A dead coordinate, with a
        zero row of A (A is symmetric) and b_i = 0, leaves q unchanged at
        any weight; for hinge it is an instance with alpha_i = 0 and zero
        loss."""
        return (self.A != 0.0).any(axis=1) | (self.b != 0.0)

    @property
    def n(self) -> int:
        return self.b.shape[0]

    def solved(self, v) -> np.ndarray:
        """The coordinates a ball solve of the 0/1 mask v moves: kept
        (v = 1) and live; ``check_mask`` rejects any other mask."""
        return check_mask(v, self.n) & self.live

    def value(self, vw) -> float:
        vw = np.asarray(vw, dtype=float)
        return float(vw @ (self.A @ vw) + self.b @ vw + self.c)

    def reduced(self, active):
        """Restrict to the coordinates of the boolean mask ``active`` and
        recenter at w = 1.

        Returns (At, g, const) with q = u' At u + g' u + const for
        u = w_active - 1.  When every coordinate is active and A has the
        copy's layout, At is a read-only view of A, not a copy.
        """
        if active.all() and self.A.flags.c_contiguous:
            At = self.A.view()
            At.flags.writeable = False
        else:
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
    """Result of maximizing the gap quadratic over the training weight ball;
    the maximizer ``w_star`` is built on its first read by ``_build``."""

    dg_max: float
    mu: float
    hard_case: bool
    _build: Callable[[], np.ndarray] = field(repr=False, compare=False)

    @functools.cached_property
    def w_star(self) -> np.ndarray:
        return self._build()


@dataclass(frozen=True)
class Spectrum:
    """Spectral step of a kept mask under the gap quadratic ``form``: the
    mask ``solved`` of its kept live coordinates, their reduced problem
    (At, g, const) from ``QuadraticGapForm.reduced`` and
    At = V diag(eigval) V' with gamma = V'g/2.  By radius S, ``_bordered``
    memoizes the secular step of ``solved`` less each of its coordinates,
    filled by ``maximize_on_ball`` on first use, which reads a
    coordinate's batch row at its ``_position`` in ``solved``."""

    solved: np.ndarray
    eigval: np.ndarray
    V: np.ndarray
    gamma: np.ndarray
    g: np.ndarray
    const: float
    form: QuadraticGapForm = field(repr=False, compare=False)
    _bordered: dict = field(default_factory=dict, init=False, repr=False,
                            compare=False)

    @functools.cached_property
    def _position(self) -> np.ndarray:
        return np.cumsum(self.solved) - 1


def spectral_step(form: QuadraticGapForm, v,
                  reuse: Spectrum | None = None) -> Spectrum:
    """Reduce q to the kept live coordinates of the 0/1 mask v and
    eigendecompose that block, the one O(m^3) part of a ball solve;
    ``reuse`` is returned as it is when it already solves that set (an
    empty one included).  Any other mask entry, or a ``reuse`` taken of
    another form, raises ValueError."""
    solved = form.solved(v)
    if reuse is not None and reuse.form is not form:
        raise ValueError("spectrum is of another gap form")
    if reuse is not None and np.array_equal(reuse.solved, solved):
        return reuse
    At, g, const = form.reduced(solved)
    try:
        eigval, V = np.linalg.eigh(At)
    except np.linalg.LinAlgError as exc:
        raise BallMaximizationError(f"eigendecomposition failed: {exc}") from exc
    return Spectrum(solved=solved, eigval=eigval, V=V, gamma=V.T @ (g / 2.0),
                    g=g, const=const, form=form)


def _rowdot(a, b):
    """Row-wise dot products of two (k, n) arrays.  Each is a (1, n) by
    (n, 1) matmul, which runs the same BLAS dot as the 1-D product
    a[j] @ b[j], so every row has that product's bits."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _secular_root(secular, lo, hi, S: float, const):
    """(mu, hard), one entry per row: the multiplier where |u(mu)| = S,
    searched in [lo, hi].

    Every row is its own problem: lo, hi and const hold one entry per row,
    and ``secular(mu, rows)`` returns |u(mu)|^2 and -d|u|^2/dmu / 2 of the
    given rows, each at its own mu.  A row with |u(lo)| < S (the hard case)
    keeps mu at lo.  Otherwise its bracket keeps |u(lo)| >= S >= |u(hi)|:
    each step tries a Newton step on the concave, increasing
    h(mu) = 1/|u(mu)| - 1/S from lo, then the secant of h through both ends
    (in exact arithmetic a new left and a new right end); a candidate inside
    the bracket moves the end its |u| says, and a step where none lands
    inside bisects.  A row stops once D'(hi) (hi - lo), which bounds
    D(hi) - min D, is within rounding of D, when its bracket cannot be
    split, or at the step cap, and returns its right end.  The rows share
    the steps but not the decisions: each takes the steps, in the order, a
    search over that row alone would take.
    """
    S2 = S * S
    lo, hi = lo.copy(), hi.copy()
    nsq_lo, slope_lo = secular(lo, np.arange(lo.size))
    hard = nsq_lo < S2
    rows = np.flatnonzero(~hard)
    nsq_hi = np.empty_like(lo)
    nsq_hi[rows] = secular(hi[rows], rows)[0]
    # |u(hi)| = S but for rounding: widen the bracket once
    wide = rows[nsq_hi[rows] > S2]
    if wide.size:
        hi[wide] = lo[wide] + 2.0 * (hi[wide] - lo[wide])
        nsq_hi[wide] = secular(hi[wide], wide)[0]
    if (nsq_hi[rows] > S2).any():
        raise BallMaximizationError(
            f"secular bracket failed: |u| > S={S:.6g} at its right end")

    def probe(mu, rows):
        # evaluate each row's mu if strictly inside its bracket and move the
        # end its |u| says; False where mu is outside (or nan)
        inside = (lo[rows] < mu) & (mu < hi[rows])
        at, mu = rows[inside], mu[inside]
        if at.size:
            nsq, slope = secular(mu, at)
            left = nsq >= S2
            lo[at[left]], nsq_lo[at[left]] = mu[left], nsq[left]
            slope_lo[at[left]] = slope[left]
            hi[at[~left]], nsq_hi[at[~left]] = mu[~left], nsq[~left]
        return inside

    for _ in range(_MAX_STEPS):
        lo_r, hi_r = lo[rows], hi[rows]
        rows = rows[~((S2 - nsq_hi[rows]) * (hi_r - lo_r) <= _TOL * np.fmax(
            1.0, np.abs(const[rows]) + hi_r * S2))]
        if not rows.size:
            break
        nsq = nsq_lo[rows]
        moved = probe(lo[rows] + nsq / slope_lo[rows] * (np.sqrt(nsq) / S
                                                         - 1.0), rows)
        lo_r, hi_r = lo[rows], hi[rows]
        norm_lo, norm_hi = np.sqrt(nsq_lo[rows]), np.sqrt(nsq_hi[rows])
        moved |= probe(lo_r + (hi_r - lo_r) * norm_hi * (norm_lo - S)
                       / (S * (norm_lo - norm_hi)), rows)
        # bisect where neither landed inside; a row that cannot stops
        still = rows[~moved]
        moved[~moved] = probe(0.5 * (lo[still] + hi[still]), still)
        rows = rows[moved]
    return np.where(hard, lo, hi), hard


def _own_secular(spec: Spectrum, S: float):
    """Secular step on the spectrum's own solved set: (mu, hard, D(mu), u)
    with D(mu) = const + mu S^2 + sum gamma^2 / (mu - lam)."""
    eigval, gamma = spec.eigval, spec.gamma

    def secular(mu, rows):
        dist = mu[:, None] - eigval
        sq = (gamma / dist) ** 2
        return sq.sum(axis=1), (sq / dist).sum(axis=1)

    lam1 = float(eigval[-1])
    delta = 1e-14 * (1.0 + abs(lam1))
    gnorm = float(np.linalg.norm(spec.g))
    (mu,), (hard,) = _secular_root(
        secular, np.array([lam1 + delta]),
        np.array([lam1 + gnorm / (2.0 * S) + delta]), S,
        np.array([spec.const]))
    S2 = S * S
    coef = gamma / (mu - eigval)  # u(mu) in the eigenbasis, |coef| <= S
    value = spec.const + mu * S2 + float(gamma @ coef)
    rest = float(coef[:-1] @ coef[:-1])
    coef[-1] = math.copysign(math.sqrt(max(S2 - rest, 0.0)), coef[-1])
    return mu, hard, value, spec.V @ coef


def _shrunk_top(eigval: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Top eigenvalue theta of diag(eigval) on the subspace r'z = 0, one per
    row of r: the root of sum r^2 / (x - eigval) in [eigval[-2], eigval[-1]]
    (Golub 1973), bisected to full precision keeping the right end, where
    the sum is not positive.  theta = eigval[-1] when the row's last entry
    is 0 or the top eigenvalue repeats."""
    r2 = r * r
    lo = np.full(r.shape[0], float(eigval[-2]))
    hi = np.full(r.shape[0], float(eigval[-1]))
    rows = np.arange(r.shape[0])
    for _ in range(_MAX_STEPS):
        mid = 0.5 * (lo[rows] + hi[rows])
        inside = (lo[rows] < mid) & (mid < hi[rows])
        rows, mid = rows[inside], mid[inside]
        if not rows.size:
            break
        right = (r2[rows] / (mid[:, None] - eigval)).sum(axis=1) <= 0.0
        hi[rows[right]] = mid[right]
        lo[rows[~right]] = mid[~right]
    return hi


def _bordered_batch(spec: Spectrum, S: float):
    """Secular step of the spectrum's solved set less each of its
    coordinates, from the same eigenpairs, all rows in one array pass:
    (mu, hard, D(mu)), row p for the p-th coordinate.

    With p the position of coordinate i in the solved set and r = V[p, :],
    pinning w_i = 1 leaves max u'At u + g_i'u + const_i over ||u|| <= S,
    u_p = 0, where g_i = g - 2 At e_p, V'g_i/2 = gamma - eigval * r and
    const_i = const - g_p + At_pp.  For d = mu - eigval and mu above theta,
    the top eigenvalue of the shrunk block, the constraint's multiplier is
    nu = sum(gamma_i r / d) / sum(r^2 / d); with pv = gamma_i - nu r,
    u(mu) = V (pv / d), |u|^2 = sum (pv / d)^2,
    -d|u|^2/dmu / 2 = sum pv^2/d^3 - sum(pv r / d^2)^2 / sum(r^2 / d), and
    the dual value D_i(mu) = const_i + mu S^2 + sum pv^2 / d bounds the
    maximum from above.  The top eigenpair's terms are evaluated with its
    1/d multiplied out, as they cancel where mu nears eigval[-1].  The
    root lies above eigval[-1] unless |u| < S just past it; then the row's
    search restarts at theta (``_shrunk_top``).  Both brackets reach
    |g_i| / (2 S) past their left end.  Each row's secular function costs
    O(m) (Golub 1973), so the batch costs O(m^2) per step of the search.
    """
    eigval, V = spec.eigval, spec.V
    index = np.flatnonzero(spec.solved)
    gamma = spec.gamma - eigval * V  # row p: V'g_i/2
    const = spec.const - spec.g + spec.form.A[index, index]
    # the other eigenpairs' eigenvalues, r and gamma, then the top one's
    lam, rr, gg = eigval[:-1], V[:, :-1], gamma[:, :-1]
    lam_m, r_m, g_m = eigval[-1], V[:, -1], gamma[:, -1]

    def solution(mu, rows):
        # nu, z = pv / d on the other eigenpairs and z_m on the top one,
        # with den = d_m sum(r^2 / d)
        r, gr, rm, gm = rr[rows], gg[rows], r_m[rows], g_m[rows]
        d, d_m = mu[:, None] - lam, mu - lam_m
        rd = r / d
        a, c = _rowdot(gr, rd), _rowdot(r, rd)
        den = rm * rm + c * d_m
        nu = (gm * rm + a * d_m) / den
        return nu, (gr - nu[:, None] * r) / d, (gm * c - rm * a) / den, d, \
            d_m, rd, c, den

    def secular(mu, rows):
        _, z, z_m, d, d_m, rd, c, den = solution(mu, rows)
        rm = r_m[rows]
        t = _rowdot(z, rd)
        return (_rowdot(z, z) + z_m * z_m,
                _rowdot(z / d, z) + (z_m * z_m * c - 2.0 * z_m * rm * t
                                     - t * t * d_m) / den)

    delta = 1e-14 * (1.0 + abs(float(lam_m)))
    width = np.sqrt(_rowdot(gamma, gamma)) / S
    lo = np.full(eigval.size, float(lam_m) + delta)
    mu, hard = _secular_root(secular, lo, lo + width, S, const)
    again = np.flatnonzero(hard)
    if again.size:
        lo = _shrunk_top(eigval, V[again]) + delta
        mu[again], hard[again] = _secular_root(
            lambda mu, rows: secular(mu, again[rows]), lo, lo + width[again],
            S, const[again])
    nu, z, _, d, d_m, *_ = solution(mu, np.arange(eigval.size))
    # sum pv^2 / d is stationary in nu, so nu's rounding moves it least
    value = const + mu * S * S + (_rowdot(z * d, z)
                                  + (g_m - nu * r_m) ** 2 / d_m)
    return mu, hard, value


def maximize_on_ball(form: QuadraticGapForm, v, S: float,
                     spectrum: Spectrum | None = None) -> BallMax:
    """Maximize q(v*w) over ||w - 1|| <= S with removed coordinates at w=1.

    v is a 0/1 mask; any other entry raises ValueError.  The solve runs
    over the kept live coordinates only: dead ones (``form.live``) do not
    move q and keep w = 1.  There the problem is
    max u'Au + g'u over ||u|| <= S with A PSD, so the maximum sits on the
    boundary.  With A = V diag(lam) V' and gamma = V'g/2, every
    mu > lambda_max(A) gives the Lagrangian dual value
    D(mu) = const + mu S^2 + sum_k gamma_k^2 / (mu - lam_k), an upper bound
    on the maximum by weak duality; D is convex with D' = S^2 - |u(mu)|^2,
    u(mu) = V (gamma / (mu - lam)), so it is tight where |u(mu)| = S.
    ``_secular_root`` finds that root by safeguarded Newton and secant steps
    (Moré & Sorensen 1983, Gander, Golub & von Matt 1989) and dg_max is
    D at the right end of its bracket, a bound wherever it stops.  In the
    hard case (g almost orthogonal to the leading eigenspace) |u| < S just
    above lambda_max, and mu stays there.  w_star is u(mu) with its
    leading-eigenvector coefficient stretched, sign kept, onto the sphere.

    ``spectrum``, a ``spectral_step(form, v0)``, replaces the solve's own
    spectral step.  Its solved set must be v's, which gives a fresh solve's
    result bit for bit, or v's plus one coordinate i (v is v0 less a
    candidate i).  Then dg_max, mu and hard_case are the bordered secular
    step's with w_i = 1 from v0's eigenpairs.  Any other mask, or a
    spectrum of another form, raises ValueError.  The form memoizes the
    own-set step by S and solved set, the spectrum the bordered steps of
    its whole solved set by S (one ``_bordered_batch``), so a later call
    reads its entry back.  Each call's result builds its own w_star on
    first read and keeps no eigenvectors: a bordered one takes a fresh
    solve's of its solved set, so every spectrum given yields the same
    bits.
    """
    if not S >= 0:
        raise ValueError("S must be nonnegative")
    solved = form.solved(v)
    removed = ()  # once checked, the one the spectrum solves and v does not
    if spectrum is not None:
        if spectrum.form is not form:
            raise ValueError("spectrum is of another gap form")
        removed = (spectrum.solved ^ solved).nonzero()[0]
        if len(removed) > 1 or (len(removed) and solved[removed[0]]):
            raise ValueError("spectrum's solved set is neither v's nor v's "
                             "plus one coordinate")
    if S == 0.0 or not np.count_nonzero(solved):
        return BallMax(form.value(v), 0.0, False,
                       functools.partial(_lift, form.n, solved, 0.0))
    if not len(removed):
        key = (S, solved.tobytes())
        if key not in form._own:
            with np.errstate(**_QUIET):
                form._own[key] = _own_secular(
                    spectral_step(form, v, spectrum), S)
        mu, hard, value, u = form._own[key]
        # binds n, not the form, so that a result held past its fold (a
        # sweep's last certificate) keeps no form alive
        return BallMax(float(value), float(mu), bool(hard),
                       functools.partial(_lift, form.n, solved, u))
    if S not in spectrum._bordered:
        with np.errstate(**_QUIET):
            spectrum._bordered[S] = _bordered_batch(spectrum, S)
    mu, hard, value = spectrum._bordered[S]
    p = int(spectrum._position[removed[0]])
    return BallMax(float(value[p]), float(mu[p]), bool(hard[p]),
                   lambda: maximize_on_ball(form, solved, S).w_star)


def _lift(n: int, solved, u) -> np.ndarray:
    """w_star, 1 + u on the solved coordinates and 1 elsewhere."""
    w_star = np.ones(n)
    w_star[solved] = 1.0 + u
    return w_star


def radius(dg_max: float, lam: float) -> float:
    """Parameter-ball radius sqrt((2/lam) * dg); tiny negative dg clamps to 0."""
    if not lam > 0:
        raise ValueError("lam must be positive")
    if dg_max < -1e-10:
        raise ValueError(f"negative gap {dg_max} beyond tolerance")
    return math.sqrt(2.0 * max(dg_max, 0.0) / lam)


class Counts(NamedTuple):
    surely_correct: int
    surely_incorrect: int
    unknown: int


def certify(margins: np.ndarray, norms: np.ndarray, R: float):
    """Per-validation-instance certificates under a radius-R parameter ball,
    from the arrays of reference margins y f(x) and feature norms
    ||phi(x)||: zeta_i = 1 iff the whole ball classifies instance i
    correctly (strict inequality; zero endpoints count as unknown)."""
    half = norms * R
    zeta = (margins - half > 0.0).astype(int)
    incorrect = int(np.sum(margins + half < 0.0))
    correct = int(zeta.sum())
    counts = Counts(correct, incorrect, margins.size - correct - incorrect)
    return zeta, counts


def worst_case_accuracy(indicator, Q: float) -> float:
    """Mean of a 0/1 ``indicator`` over the n' validation instances,
    minimized over the validation ball ||w' - 1|| <= Q with sum(w') = n'
    and clipped to [0, 1]: a model's worst-case accuracy from its correct
    predictions, the certified bound from zeta.

    Closed form: with total = sum(indicator), the least weighted sum is
    total - Q * sqrt(||indicator||^2 - total^2/n'), reached by tilting
    weight away from the counted instances while keeping the total mass.
    """
    if not Q >= 0:
        raise ValueError("Q must be nonnegative")
    indicator = np.asarray(indicator, dtype=float)
    n_val = indicator.shape[0]
    if n_val < 1:
        raise ValueError("need at least one validation instance")
    total = float(indicator.sum())
    radicand = max(float(indicator @ indicator) - total * total / n_val, 0.0)
    value = total - Q * math.sqrt(radicand)
    return min(1.0, max(0.0, value / n_val))


@dataclass(frozen=True)
class BoundReport:
    """Certificate for one candidate coreset, with the ball maximum it
    certifies."""

    ball: BallMax
    radius: float
    zeta: np.ndarray
    counts: Counts
    ub: float

    def to_dict(self) -> dict:
        return {
            "dg_max": self.ball.dg_max,
            "radius": self.radius,
            "ub": self.ub,
            "counts": {
                "surely_correct": self.counts.surely_correct,
                "surely_incorrect": self.counts.surely_incorrect,
                "unknown": self.counts.unknown,
            },
            "zeta": self.zeta.astype(int).tolist(),
            "w_star": self.ball.w_star.tolist(),
        }


def certificate(ball: BallMax, lam: float, Q: float, margins,
                norms) -> BoundReport:
    """Radius at the reference ``lam``, zeta and ub of a ball maximum."""
    R = radius(ball.dg_max, lam)
    zeta, counts = certify(margins, norms, R)
    ub = 1.0 - worst_case_accuracy(zeta, Q)
    return BoundReport(ball=ball, radius=R, zeta=zeta, counts=counts, ub=ub)
