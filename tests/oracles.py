"""Independent reference implementations used as test oracles.

Everything in here is deliberately written as straight-line loop code (or
brute-force search) and must stay independent of the library's vectorized
paths it is used to check.
"""

import math

import numpy as np


def loss_value(kind, y, score):
    m = y * score
    if kind == "hinge":
        return max(0.0, 1.0 - m)
    if m > 35.0:
        return math.exp(-m)
    return math.log(1.0 + math.exp(-m))


def conj_value(kind, a):
    if a < 0.0 or a > 1.0:
        return math.inf
    if kind == "hinge":
        return -a
    out = 0.0
    if 0.0 < a < 1.0:
        out = a * math.log(a) + (1.0 - a) * math.log(1.0 - a)
    return out


def primal_value(K, y, v, w, lam, kind, coef):
    """Normalized primal objective, element-by-element."""
    n = len(y)
    E = sum(v[i] * w[i] for i in range(n))
    loss_sum = 0.0
    for i in range(n):
        f_i = sum(K[i][j] * coef[j] for j in range(n))
        loss_sum += v[i] * w[i] * loss_value(kind, y[i], f_i)
    reg = 0.0
    for i in range(n):
        for j in range(n):
            reg += coef[i] * K[i][j] * coef[j]
    return loss_sum / E + 0.5 * lam * reg


def dual_value(K, y, v, w, lam, kind, alpha):
    """Normalized dual objective, element-by-element."""
    n = len(y)
    E = sum(v[i] * w[i] for i in range(n))
    conj_sum = 0.0
    for i in range(n):
        conj_sum += v[i] * w[i] * conj_value(kind, alpha[i])
    quad = 0.0
    for i in range(n):
        for j in range(n):
            quad += (v[i] * w[i] * y[i] * alpha[i]) * K[i][j] * \
                (v[j] * w[j] * y[j] * alpha[j])
    return -conj_sum / E - quad / (2.0 * lam * E * E)


def sum_form_gap(K, y, alpha, lam_abs, scores, kind, vw):
    """Sum-form duality gap expansion at the reference solution.

    P - D with unnormalized objectives, using the representer
    beta = sum_i z_i phi_i / lam_abs, z = vw_ref * y * alpha at the
    reference (all-ones) state.
    """
    n = len(y)
    loss_conj = 0.0
    for i in range(n):
        loss_conj += vw[i] * (loss_value(kind, y[i], scores[i]) +
                              conj_value(kind, alpha[i]))
    z_ref = [y[i] * alpha[i] for i in range(n)]
    ref_quad = 0.0
    for i in range(n):
        for j in range(n):
            ref_quad += z_ref[i] * K[i][j] * z_ref[j]
    z = [vw[i] * y[i] * alpha[i] for i in range(n)]
    pert_quad = 0.0
    for i in range(n):
        for j in range(n):
            pert_quad += z[i] * K[i][j] * z[j]
    return loss_conj + ref_quad / (2.0 * lam_abs) + pert_quad / (2.0 * lam_abs)


def quad_value(A, b, c, vw):
    """Loop expansion of vw'A vw + b'vw + c."""
    n = len(b)
    total = c
    for i in range(n):
        total += b[i] * vw[i]
        for j in range(n):
            total += vw[i] * A[i][j] * vw[j]
    return total


def ball_max_oracle(At, g, const, S, n_samples=200_000, seed=0,
                    polish_iters=4000):
    """Monte Carlo over the boundary sphere plus projected-gradient polish."""
    rng = np.random.default_rng(seed)
    dim = len(g)
    best_u, best_val = np.zeros(dim), const
    for start in range(0, n_samples, 100_000):
        count = min(100_000, n_samples - start)
        U = rng.standard_normal((count, dim))
        U *= S / np.linalg.norm(U, axis=1, keepdims=True)
        vals = np.einsum("ij,jk,ik->i", U, At, U) + U @ g + const
        k = int(np.argmax(vals))
        if vals[k] > best_val:
            best_val, best_u = float(vals[k]), U[k].copy()
    u = best_u.copy()
    if np.linalg.norm(u) == 0.0:
        u = np.ones(dim) * S / math.sqrt(dim)
    step = 0.5 * S / (np.linalg.norm(g) + np.linalg.norm(At) * S + 1e-12)
    for _ in range(polish_iters):
        grad = 2.0 * At @ u + g
        cand = u + step * grad
        norm = np.linalg.norm(cand)
        if norm > 0:
            cand *= S / norm
        if float(cand @ At @ cand + g @ cand) >= float(u @ At @ u + g @ u):
            u = cand
        else:
            step *= 0.5
            if step < 1e-18:
                break
    polished = float(u @ At @ u + g @ u + const)
    return max(best_val, polished), u


def ball_max_bisect(At, g, const, S):
    """Secular dual bound of max u'At u + g'u + const over ||u|| <= S by
    plain bisection, the solver's method before its Newton root find.

    Halves the bracket [lambda_max + delta, lambda_max + |g|/(2S) + delta]
    until it is 4 eps wide (relative) or after 200 halvings, keeping the
    right end with |u(mu)| <= S, and returns the dual value D(mu) there; in
    the hard case (|u| < S already just above lambda_max) mu stays at the
    left end.
    """
    eigval, V = np.linalg.eigh(At)
    gamma = V.T @ (g / 2.0)
    lam1 = float(eigval[-1])
    eps = float(np.finfo(float).eps)

    def norm_sq(mu):
        with np.errstate(over="ignore"):
            return float(np.sum((gamma / (mu - eigval)) ** 2))

    delta = 1e-14 * (1.0 + abs(lam1))
    lo = hi = lam1 + delta
    if norm_sq(lo) >= S * S:
        hi = lam1 + float(np.linalg.norm(g)) / (2.0 * S) + delta
        for _ in range(200):
            mu = 0.5 * (lo + hi)
            if norm_sq(mu) >= S * S:
                lo = mu
            else:
                hi = mu
            if hi - lo <= 4.0 * eps * max(1.0, abs(hi)):
                break
    return const + hi * S * S + float(np.sum(gamma ** 2 / (hi - eigval)))


def min_indicator_oracle(zeta, Q, iters=20_000, seed=0, n_samples=20_000):
    """Minimize zeta'w over the sphere-cap {||w-1||<=Q, sum w = n}.

    Projected gradient descent plus random boundary sampling.
    """
    zeta = np.asarray(zeta, dtype=float)
    n = zeta.shape[0]
    rng = np.random.default_rng(seed)

    def project(w):
        u = w - 1.0
        u = u - u.sum() / n
        norm = np.linalg.norm(u)
        if norm > Q:
            u *= Q / norm
        return 1.0 + u

    w = project(np.ones(n))
    step = Q / (np.linalg.norm(zeta) + 1.0)
    best = float(zeta @ w)
    for _ in range(iters):
        w = project(w - step * zeta)
        best = min(best, float(zeta @ w))
    if Q > 0:
        U = rng.standard_normal((n_samples, n))
        U -= U.mean(axis=1, keepdims=True)
        norms = np.linalg.norm(U, axis=1, keepdims=True)
        norms[norms == 0.0] = 1.0
        W = 1.0 + Q * U / norms
        best = min(best, float((W @ zeta).min()))
    return best


def grid_max_dual_2d(K, y, lam, kind, steps=400):
    """Brute-force grid search of the 2-variable dual problem."""
    best, best_alpha = -math.inf, None
    for i in range(steps + 1):
        for j in range(steps + 1):
            alpha = [i / steps, j / steps]
            val = dual_value(K, y, [1, 1], [1, 1], lam, kind, alpha)
            if val > best:
                best, best_alpha = val, alpha
    return best_alpha, best


def memo_free(form):
    """The gap form ``form`` again, with an empty solve memo: a ball solve
    on it starts afresh, sharing no entry with one made on ``form``."""
    return type(form)(form.A, form.b, form.c)


def greedy_exact_fresh(maximize, form, y, S, n_del, preserve_classes=False):
    """Exact greedy (Algorithm 1) as straight-line code: each step scores
    every kept candidate by a fresh ``maximize(form, v, S)`` solve, on a
    ``memo_free`` copy of the form, and removes the smallest score, ties to
    the smallest index; with ``preserve_classes`` the last kept instance of
    a class is skipped.
    Returns the removal order and the winning scores."""
    n = len(y)
    v = np.ones(n)
    order, gaps = [], []
    for _ in range(n_del):
        best_i, best = None, math.inf
        for i in range(n):
            if v[i] == 0.0:
                continue
            if preserve_classes and sum(
                    1 for j in range(n) if v[j] != 0.0 and y[j] == y[i]) == 1:
                continue
            v[i] = 0.0
            score = maximize(memo_free(form), v, S).dg_max
            v[i] = 1.0
            if score < best:
                best_i, best = i, score
        v[best_i] = 0.0
        order.append(best_i)
        gaps.append(best)
    return order, gaps


_EPS = float(np.finfo(float).eps)


def secular_root(secular, lo, hi, S, const):
    """(mu, hard): the ball solver's safeguarded root find for one problem,
    as scalar code; raises ValueError when the bracket fails.

    ``secular(mu)`` returns |u(mu)|^2 and -d|u|^2/dmu / 2.  Each step tries
    a Newton step on 1/|u| - 1/S from the left end, then the secant through
    both ends, and bisects when neither lands inside the bracket; it stops
    once D'(hi) (hi - lo) is within rounding of D, when the bracket cannot
    be split, or after 200 steps, and returns the right end.
    """
    S2 = S * S
    nsq_lo, slope_lo = secular(lo)
    if nsq_lo < S2:
        return lo, True
    nsq_hi, _ = secular(hi)
    if nsq_hi > S2:
        hi = lo + 2.0 * (hi - lo)
        nsq_hi, _ = secular(hi)
    if nsq_hi > S2:
        raise ValueError("secular bracket failed")

    def probe(mu):
        nonlocal lo, nsq_lo, slope_lo, hi, nsq_hi
        if not lo < mu < hi:
            return False
        nsq, slope = secular(mu)
        if nsq >= S2:
            lo, nsq_lo, slope_lo = mu, nsq, slope
        else:
            hi, nsq_hi = mu, nsq
        return True

    for _ in range(200):
        if (S2 - nsq_hi) * (hi - lo) <= 4.0 * _EPS * max(1.0, abs(const)
                                                          + hi * S2):
            break
        moved = probe(lo + nsq_lo / slope_lo * (np.sqrt(nsq_lo) / S - 1.0))
        norm_lo, norm_hi = np.sqrt(nsq_lo), np.sqrt(nsq_hi)
        moved |= probe(lo + (hi - lo) * norm_hi * (norm_lo - S)
                       / (S * (norm_lo - norm_hi)))
        if not moved and not probe(0.5 * (lo + hi)):
            break
    return hi, False


def own_secular(spec, S):
    """Secular step on a spectrum's own solved set, one problem as scalar
    code: (mu, hard, D(mu), coef), coef = u(mu) in the eigenbasis with its
    top entry stretched onto the sphere."""
    eigval, gamma = spec.eigval, spec.gamma

    def secular(mu):
        dist = mu - eigval
        sq = (gamma / dist) ** 2
        return sq.sum(), (sq / dist).sum()

    lam1 = float(eigval[-1])
    delta = 1e-14 * (1.0 + abs(lam1))
    gnorm = float(np.linalg.norm(spec.g))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        mu, hard = secular_root(secular, lam1 + delta,
                                lam1 + gnorm / (2.0 * S) + delta, S,
                                spec.const)
        S2 = S * S
        coef = gamma / (mu - eigval)
        value = spec.const + mu * S2 + float(gamma @ coef)
    rest = float(coef[:-1] @ coef[:-1])
    coef[-1] = math.copysign(math.sqrt(max(S2 - rest, 0.0)), coef[-1])
    return mu, hard, value, coef


def shrunk_top(eigval, r):
    """Top eigenvalue of diag(eigval) on the subspace r'z = 0, bisected in
    [eigval[-2], eigval[-1]] to full precision, keeping the right end."""
    r2 = r * r
    lo, hi = float(eigval[-2]), float(eigval[-1])
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if (r2 / (mid - eigval)).sum() <= 0.0:
            hi = mid
        else:
            lo = mid
    return hi


def bordered_secular(spec, form, i, S):
    """Secular step of a spectrum's solved set less coordinate i, one
    problem as scalar code: (mu, hard, D_i(mu)), for p the position of i in
    the solved set.

    With r = V[p, :], the bordered problem has V'g_i/2 = gamma - eigval r
    and const_i = const - g_p + A_ii; for d = mu - eigval, the constraint's
    multiplier is nu = sum(gamma_i r / d) / sum(r^2 / d) and u(mu) =
    V((gamma_i - nu r) / d).  The top eigenpair's terms are evaluated with
    its 1/d multiplied out.  When |u| < S just past the top eigenvalue, the
    search restarts at the top eigenvalue of the shrunk block.
    """
    p = int(np.count_nonzero(spec.solved[:i]))
    eigval, r = spec.eigval, spec.V[p]
    gamma = spec.gamma - eigval * r
    const = spec.const - float(spec.g[p]) + float(form.A[i, i])
    lam, rr, gg = eigval[:-1], r[:-1], gamma[:-1]
    lam_m, r_m, g_m = eigval[-1], r[-1], gamma[-1]

    def solution(mu):
        d, d_m = mu - lam, mu - lam_m
        rd = rr / d
        a, c = gg @ rd, rr @ rd
        den = r_m * r_m + c * d_m
        nu = (g_m * r_m + a * d_m) / den
        return nu, (gg - nu * rr) / d, (g_m * c - r_m * a) / den, d, d_m, rd, \
            c, den

    def secular(mu):
        _, z, z_m, d, d_m, rd, c, den = solution(mu)
        t = z @ rd
        return (z @ z + z_m * z_m,
                (z / d) @ z + (z_m * z_m * c - 2.0 * z_m * r_m * t
                               - t * t * d_m) / den)

    delta = 1e-14 * (1.0 + abs(float(lam_m)))
    width = float(np.linalg.norm(gamma)) / S
    lo = float(lam_m) + delta
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        mu, hard = secular_root(secular, lo, lo + width, S, const)
        if hard:
            lo = shrunk_top(eigval, r) + delta
            mu, hard = secular_root(secular, lo, lo + width, S, const)
        nu, z, _, d, d_m, *_ = solution(mu)
        value = const + mu * S * S + float((z * d) @ z
                                           + (g_m - nu * r_m) ** 2 / d_m)
    return mu, hard, value


def eager_w_star(form, spectrum, S):
    """w_star of an own-set ``maximize_on_ball(form, v, S, spectrum)``
    built eagerly from the form's memoized u of the spectrum's solved set,
    in the operations the solver used when it built one on every call:
    1 + u on the solved coordinates and 1 elsewhere."""
    w_star = np.ones(form.n)
    w_star[spectrum.solved] = 1.0 + form._own[S, spectrum.solved.tobytes()][3]
    return w_star


def parse_libsvm_tuples(text):
    """LIBSVM text to (features with intercept column, labels in {-1, +1}),
    keeping every stored entry as an (index, value) tuple until the matrix
    is built, entry by entry.  This was the library's reader before it
    moved to typed buffers; it also carries the two checks added with
    them (a digit separator or non-ASCII character in a label or token,
    and a non-finite value).  Raises the library's ParseError with the
    same messages."""
    from robustcoreset.data import ParseError

    values, rows = [], []
    max_idx = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split()
        try:
            label = float(parts[0])
        except ValueError:
            raise ParseError(f"line {lineno}: bad label {parts[0]!r}") from None
        if "_" in parts[0] or not parts[0].isascii():
            raise ParseError(f"line {lineno}: bad label {parts[0]!r}")
        if not math.isfinite(label):
            raise ParseError(f"line {lineno}: label {parts[0]!r} is not finite")
        pairs = []
        prev = 0
        for tok in parts[1:]:
            idx_s, sep, val_s = tok.partition(":")
            if not sep:
                raise ParseError(f"line {lineno}: expected index:value, got {tok!r}")
            try:
                idx = int(idx_s)
                val = float(val_s)
            except ValueError:
                raise ParseError(f"line {lineno}: bad token {tok!r}") from None
            if "_" in tok or not tok.isascii():
                raise ParseError(f"line {lineno}: bad token {tok!r}")
            if not math.isfinite(val):
                raise ParseError(f"line {lineno}: value {val_s!r} is not finite")
            if idx < 1:
                raise ParseError(f"line {lineno}: index {idx} is not 1-based")
            if idx == prev:
                raise ParseError(f"line {lineno}: duplicate index {idx}")
            if idx < prev:
                raise ParseError(f"line {lineno}: indices not increasing at {idx}")
            prev = idx
            pairs.append((idx, val))
        values.append(label)
        rows.append(pairs)
        if pairs:
            max_idx = max(max_idx, pairs[-1][0])
    if not rows:
        raise ParseError("empty input")
    X = np.zeros((len(rows), max_idx + 1))
    X[:, -1] = 1.0
    for i, pairs in enumerate(rows):
        for idx, val in pairs:
            X[i, idx - 1] = val
    distinct = sorted(set(values))
    if len(distinct) > 2:
        raise ParseError(f"more than two distinct labels: {distinct}")
    positive = distinct[1] if len(distinct) == 2 else 1.0
    y = np.array([1 if value == positive else -1 for value in values])
    return X, y


def reference_logistic_root(q0, s, a0):
    lo, hi = 0.0, 1.0
    a = min(max(float(a0), 1e-15), 1.0 - 1e-15)
    for _ in range(80):
        h = math.log(a / (1.0 - a)) + q0 + s * (a - a0)
        if abs(h) < 1e-13:
            break
        if h > 0.0:
            hi = a
        else:
            lo = a
        step = h / (1.0 / (a * (1.0 - a)) + s)
        a_new = a - step
        if not lo < a_new < hi:
            a_new = 0.5 * (lo + hi)
        a_new = min(max(a_new, 1e-15), 1.0 - 1e-15)
        if abs(a_new - a) < 1e-16:
            a = a_new
            break
        a = a_new
    return a


def reference_train(K, y, lam_abs, v, w, kind, tol=1e-8, max_passes=1000):
    """Plain numpy coordinate loop that ``erm.train`` must match bit for
    bit: (alpha, rep_coef, certified_gap), or TrainingError with its best
    gap.  It trains on the copy K[np.ix_(act, act)], C-ordered whatever K's
    layout, as ``erm.train`` did on every call before it read an
    all-active C-ordered K in place."""
    from robustcoreset.erm import (HINGE, LOGISTIC, TrainingError,
                                   conjugate_eval, loss_eval)

    act = np.flatnonzero(v != 0.0)
    wa, ya, Ka = w[act], y[act], K[np.ix_(act, act)]
    E = float(wa.sum())
    a = np.full(act.size, 0.5 if kind == LOGISTIC else 0.0)
    z = wa * ya * a
    yf = ya * (Ka @ z) / lam_abs

    def current_gap():
        f = yf * ya
        losses = loss_eval(kind, ya, f) + conjugate_eval(kind, a)
        return (float(wa @ losses) + float(z @ f)) / E

    diag = np.diag(Ka).copy()
    best_gap = math.inf
    for sweep in range(max_passes):
        for j in range(act.size):
            cj = wa[j]
            sj = cj * diag[j] / lam_abs
            if kind == HINGE:
                if sj > 0.0:
                    a_new = min(1.0, max(0.0, a[j] + (1.0 - yf[j]) / sj))
                else:
                    a_new = 1.0 if yf[j] < 1.0 else 0.0
            else:
                a_new = reference_logistic_root(yf[j], sj, a[j])
            delta = a_new - a[j]
            if delta != 0.0:
                a[j] = a_new
                dz = cj * ya[j] * delta
                z[j] += dz
                yf += ya * Ka[:, j] * (dz / lam_abs)
        if (sweep + 1) % 64 == 0:
            yf = ya * (Ka @ z) / lam_abs
        gap = current_gap()
        best_gap = min(best_gap, gap)
        if gap <= tol:
            break
    else:
        raise TrainingError("pass cap", best_gap=best_gap)
    alpha = np.zeros(len(y))
    alpha[act] = a
    rep_coef = np.zeros(len(y))
    rep_coef[act] = z / lam_abs
    return alpha, rep_coef, gap


def gram_whole(X1, X2, bandwidth=None):
    """``kernel.gram`` as one whole-array expression, the library's code
    before it built the rbf kernel in place: each temporary is a new
    n1 x n2 array, so it peaks at three of them."""
    X1 = np.asarray(X1, dtype=float)
    X2 = np.asarray(X2, dtype=float)
    if bandwidth is None:
        return X1 @ X2.T
    sq1 = np.einsum("ij,ij->i", X1, X1)
    sq2 = np.einsum("ij,ij->i", X2, X2)
    d2 = sq1[:, None] + sq2[None, :] - 2.0 * (X1 @ X2.T)
    np.maximum(d2, 0.0, out=d2)
    if X1 is X2 or (X1.shape == X2.shape and np.array_equal(X1, X2)):
        np.fill_diagonal(d2, 0.0)
    return np.exp(-d2 / bandwidth)
