import math
import warnings

import numpy as np
import pytest

import robustcoreset as rc
from robustcoreset.bound import BallMax

import oracles


def dummy_model(alpha, y, K, scores, kind=rc.HINGE):
    alpha = np.asarray(alpha, dtype=float)
    y = np.asarray(y, dtype=float)
    n = alpha.size
    return rc.Model(alpha=alpha, lam_abs=1.0, loss=kind,
                    gram_ref=np.asarray(K, float), certified_gap=0.0, y=y,
                    rep_coef=np.zeros(n), train_scores=np.asarray(scores, float))


def test_quadratic_form_single_point():
    K = np.array([[1.0]])
    model = dummy_model([0.5], [1.0], K, [0.0])
    form = rc.quadratic_form(model)
    assert form.A[0, 0] == pytest.approx(0.125)
    assert form.c == pytest.approx(0.125)


def test_quadratic_form_hinge_margin_b():
    K = np.eye(2)
    y = np.array([1.0, -1.0])
    scores = np.array([1.0, -1.0])  # both exactly on the margin, loss 0
    model = dummy_model([1.0, 1.0], y, K, scores, kind=rc.HINGE)
    form = rc.quadratic_form(model)
    np.testing.assert_allclose(form.b, [-1.0, -1.0])


def test_quadratic_form_matches_loop_expansion():
    rng = np.random.default_rng(31)
    X = rng.standard_normal((3, 2))
    y = np.array([1.0, -1.0, 1.0])
    K = rc.gram(X, X, rc.KernelSpec("rbf", 1.0))
    lam_abs = 1.2
    model = rc.train(K, y, lam_abs, kind=rc.HINGE, tol=1e-12)
    form = rc.quadratic_form(model)
    ones = np.ones(3)
    loop = oracles.quad_value(form.A.tolist(), form.b.tolist(), form.c, ones)
    assert form.value(ones) == pytest.approx(loop, abs=1e-10)
    gap_expansion = oracles.sum_form_gap(K.tolist(), y.tolist(),
                                         model.alpha.tolist(), lam_abs,
                                         model.train_scores.tolist(),
                                         "hinge", ones.tolist())
    assert form.value(ones) == pytest.approx(gap_expansion, abs=1e-8)
    vw = np.array([1.1, 0.0, 0.8])
    gap_expansion = oracles.sum_form_gap(K.tolist(), y.tolist(),
                                         model.alpha.tolist(), lam_abs,
                                         model.train_scores.tolist(),
                                         "hinge", vw.tolist())
    assert form.value(vw) == pytest.approx(gap_expansion, abs=1e-8)


def test_quadratic_form_exact_conjugate_is_sum_form_gap():
    rng = np.random.default_rng(37)
    X = rng.standard_normal((5, 3))
    y = np.array([1.0, -1.0, 1.0, 1.0, -1.0])
    K = rc.gram(X, X, rc.KernelSpec("rbf", 2.0))
    lam_abs = 2.0
    model = rc.train(K, y, lam_abs, kind=rc.LOGISTIC, tol=1e-12)
    form = rc.quadratic_form(model)
    assert form.value(np.ones(5)) == pytest.approx(0.0, abs=5 * 5 * 1e-12)
    vw = np.array([1.2, 0.7, 0.0, 1.0, 0.9])
    expansion = oracles.sum_form_gap(K.tolist(), y.tolist(),
                                     model.alpha.tolist(), lam_abs,
                                     model.train_scores.tolist(),
                                     "logistic", vw.tolist())
    assert form.value(vw) == pytest.approx(expansion, abs=1e-8)


def test_quadratic_form_A_is_psd(hinge_model):
    form = rc.quadratic_form(hinge_model)
    np.testing.assert_allclose(form.A, form.A.T, atol=1e-14)
    eig = np.linalg.eigvalsh(form.A)
    assert eig[0] >= -1e-8 * max(eig[-1], 1.0)


def identity_form(dim):
    return rc.QuadraticGapForm(A=np.eye(dim), b=np.zeros(dim), c=0.0)


def test_maximize_identity_example():
    res = rc.maximize_on_ball(identity_form(2), np.ones(2), 1.0)
    assert res.dg_max == pytest.approx(3.0 + 2.0 * math.sqrt(2.0), rel=1e-9)
    np.testing.assert_allclose(res.w_star,
                               (1.0 + 1.0 / math.sqrt(2.0)) * np.ones(2),
                               atol=1e-9)


def test_maximize_degenerate_ball(hinge_model, rbf_task):
    ds, _, _ = rbf_task
    form = rc.quadratic_form(hinge_model)
    v = np.ones(ds.n)
    res = rc.maximize_on_ball(form, v, 0.0)
    np.testing.assert_array_equal(res.w_star, np.ones(ds.n))
    assert res.dg_max == pytest.approx(form.value(v))


def random_psd_form(rng, dim, with_linear=True):
    M = rng.standard_normal((dim, dim))
    A = M @ M.T / dim
    b = rng.standard_normal(dim) if with_linear else np.zeros(dim)
    return rc.QuadraticGapForm(A=A, b=b, c=float(rng.standard_normal()))


def test_maximize_matches_sampling_and_polish():
    rng = np.random.default_rng(41)
    form = random_psd_form(rng, 4)
    S = 0.7
    v = np.ones(4)
    res = rc.maximize_on_ball(form, v, S)
    At, g, const = form.reduced(np.ones(4, dtype=bool))
    best, _ = oracles.ball_max_oracle(At, g, const, S, n_samples=1_000_000,
                                      seed=1, polish_iters=20_000)
    assert res.dg_max >= best - 1e-3  # sampling can only undershoot
    assert abs(res.dg_max - best) <= 1e-3
    assert res.dg_max >= best - 1e-8 or abs(res.dg_max - best) <= 1e-8
    assert res.kkt_residual <= 1e-8


def test_maximize_inactive_pinned_to_one():
    rng = np.random.default_rng(43)
    form = random_psd_form(rng, 6)
    v = np.array([1.0, 0.0, 1.0, 1.0, 0.0, 1.0])
    S = 0.5
    res = rc.maximize_on_ball(form, v, S)
    assert res.w_star[1] == 1.0 and res.w_star[4] == 1.0
    active = v.astype(bool)
    At, g, const = form.reduced(active)
    best, _ = oracles.ball_max_oracle(At, g, const, S, n_samples=400_000,
                                      seed=3, polish_iters=20_000)
    assert res.dg_max == pytest.approx(best, abs=1e-6)
    assert res.dg_max >= best - 1e-9


def _form_with_reduced_g(A, g):
    """Form whose reduced linear term at the full mask is exactly g."""
    return rc.QuadraticGapForm(A=A, b=g - 2.0 * A.sum(axis=1), c=0.0)


def test_maximizer_validity_invariants():
    rng = np.random.default_rng(47)
    cases = []
    for trial in range(8):
        dim = int(rng.integers(2, 6))
        cases.append((random_psd_form(rng, dim), np.ones(dim),
                      float(rng.uniform(0.1, 1.5))))
    A = np.diag([3.0, 1.0, 0.5])
    for g, S in [((0.0, 0.2, -0.1), 1.0), ((0.0, 0.2, -0.1), 30.0),
                 ((1e-7, 0.2, -0.1), 1.0), ((-1e-11, 0.2, -0.1), 2.0)]:
        cases.append((_form_with_reduced_g(A, np.array(g)), np.ones(3), S))
    # repeated top eigenvalue with g outside its eigenspace: hard case
    cases.append((_form_with_reduced_g(np.diag([2.0, 2.0, 1.0]),
                                       np.array([0.0, 0.0, 0.3])),
                  np.ones(3), 1.5))
    for S in (0.5, 5.0, 30.0):
        dim = int(rng.integers(4, 8))
        v = np.ones(dim)
        v[rng.choice(dim, size=2, replace=False)] = 0.0
        cases.append((random_psd_form(rng, dim), v, S))
        cases.append((random_psd_form(rng, dim), np.ones(dim), S))
    for form, v, S in cases:
        res = rc.maximize_on_ball(form, v, S)
        active = v != 0.0
        assert np.linalg.norm(res.w_star - 1.0) <= S + 1e-9
        assert np.all(res.w_star[~active] == 1.0)
        assert res.u_norm == pytest.approx(S, rel=1e-12)
        q = form.value(v * res.w_star)
        assert res.dg_max >= q - 1e-12 * max(1.0, abs(q))
        m = int(active.sum())
        U = rng.standard_normal((10_000, m))
        radii = rng.uniform(0, 1, (10_000, 1)) ** (1.0 / m)
        U = U / np.linalg.norm(U, axis=1, keepdims=True) * radii * S
        W = np.zeros((10_000, form.n))
        W[:, active] = 1.0 + U
        vals = np.einsum("ij,jk,ik->i", W, form.A, W) + W @ form.b + form.c
        assert res.dg_max >= vals.max() - 1e-9


def test_maximize_near_hard_reaches_the_bound():
    # g almost orthogonal to the leading eigenvector: the secular root
    # sits within rounding of lambda_max, where |u(mu)| is steepest
    A = np.diag([3.0, 1.0, 0.5])
    S = 1.0
    u_rest = np.array([0.1 / (3.0 - 1.0), -0.05 / (3.0 - 0.5)])
    tau = math.sqrt(S * S - float(u_rest @ u_rest))
    for eps in (1e-6, 1e-7, 1e-8, 1e-9, 1e-10, 1e-11, 1e-12):
        form = _form_with_reduced_g(A, np.array([eps, 0.2, -0.1]))
        # feasible: the hard-case point, filled along e1 toward sign(eps)
        q = form.value(1.0 + np.concatenate([[tau], u_rest]))
        res = rc.maximize_on_ball(form, np.ones(3), S)
        assert res.dg_max >= q - 1e-12 * max(1.0, abs(q)), eps
        assert res.u_norm == pytest.approx(S, rel=1e-12, abs=1e-12), eps


def test_maximize_hard_case():
    A = np.diag([2.0, 1.0])
    b = np.array([0.0, 0.2])
    # u-space linear term g = 2 A 1 + b has zero component along the
    # leading eigenvector only if we cancel it; build g directly instead
    form = rc.QuadraticGapForm(A=A, b=b - 2.0 * A.sum(axis=1) * 0 , c=0.0)
    # construct explicit reduced problem: g must be orthogonal to e1
    g_target = np.array([0.0, 0.2])
    b_needed = g_target - 2.0 * A.sum(axis=1)
    form = rc.QuadraticGapForm(A=A, b=b_needed, c=0.0)
    S = 1.0
    res = rc.maximize_on_ball(form, np.ones(2), S)
    assert res.hard_case
    # stationary analysis: mu = lambda_max = 2, u2 = 0.1/(2-1), tau fills norm
    u2 = 0.1 / (2.0 - 1.0)
    tau = math.sqrt(S * S - u2 * u2)
    At, g, const = form.reduced(np.ones(2, dtype=bool))
    expected = const + tau * tau * 2.0 + u2 * u2 * 1.0 + g_target[1] * u2
    assert res.dg_max == pytest.approx(expected, rel=1e-12)
    best, _ = oracles.ball_max_oracle(At, g, const, S, n_samples=400_000,
                                      seed=5, polish_iters=30_000)
    assert res.dg_max >= best - 1e-7


def test_maximize_raises_no_floating_point_warning():
    # exact hard, near-hard, normal and S = 0: one np.errstate per phase
    # must still cover every division and square
    A = np.diag([3.0, 1.0, 0.5])
    rng = np.random.default_rng(53)
    cases = [
        (_form_with_reduced_g(A, np.array([0.0, 0.2, -0.1])), 1.0, True),
        (_form_with_reduced_g(A, np.array([1e-12, 0.2, -0.1])), 1.0, False),
        (random_psd_form(rng, 7), 0.8, False),
        (random_psd_form(rng, 7), 0.0, False),
        # the hard-case probe squares a ratio past the float range
        (_form_with_reduced_g(A, np.array([1e150, 0.2, -0.1])), 1.0, False),
    ]
    for form, S, hard in cases:
        v = np.ones(form.n)
        plain = rc.maximize_on_ball(form, v, S)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            strict = rc.maximize_on_ball(form, v, S)
        assert plain.hard_case == strict.hard_case == hard
        assert strict.w_star.tobytes() == plain.w_star.tobytes()
        assert (strict.dg_max, strict.mu, strict.u_norm, strict.kkt_residual) == \
            (plain.dg_max, plain.mu, plain.u_norm, plain.kkt_residual)


def test_maximize_pure_linear_form():
    form = rc.QuadraticGapForm(A=np.zeros((3, 3)),
                               b=np.array([3.0, 0.0, -4.0]), c=1.0)
    res = rc.maximize_on_ball(form, np.ones(3), 2.0)
    # q = b'w + c, maximized at w = 1 + S b/||b||
    assert res.dg_max == pytest.approx(1.0 + (3.0 - 4.0) + 2.0 * 5.0, rel=1e-10)
    assert res.kkt_residual <= 1e-10


def test_radius_values():
    assert rc.radius(0.0, 1.0) == 0.0
    assert rc.radius(1.0, 2.0) == pytest.approx(1.0)
    assert rc.radius(4.0, 0.5) == pytest.approx(4.0)
    assert rc.radius(-5e-11, 1.0) == 0.0
    with pytest.raises(ValueError):
        rc.radius(-1e-9, 1.0)
    with pytest.raises(ValueError):
        rc.radius(1.0, 0.0)


def test_certify_three_point_example():
    K = np.array([[1.0]])
    model = dummy_model([1.0], [1.0], K, [0.0])
    object.__setattr__(model, "rep_coef", np.array([1.0]))
    K_cross = np.array([[0.5, -0.5, 0.1]])
    y_val = np.array([1.0, 1.0, 1.0])
    zeta, counts = rc.certify(model, K_cross, np.ones(3), y_val, 0.2)
    np.testing.assert_array_equal(zeta, [1, 0, 0])
    assert counts == (1, 1, 1)


def test_certify_degenerate_radius():
    K = np.array([[1.0]])
    model = dummy_model([1.0], [1.0], K, [0.0])
    object.__setattr__(model, "rep_coef", np.array([1.0]))
    K_cross = np.array([[0.5, -0.5, 0.1]])
    y_val = np.array([1.0, 1.0, 1.0])
    zeta, counts = rc.certify(model, K_cross, np.ones(3), y_val, 0.0)
    np.testing.assert_array_equal(zeta, [1, 0, 1])
    assert counts.unknown == 0
    zeta, counts = rc.certify(model, K_cross, np.ones(3), y_val, 100.0)
    assert zeta.sum() == 0 and counts.unknown == 3


def test_min_weighted_indicator_all_certified():
    value, w = rc.min_weighted_indicator(np.ones(6), 3.0)
    assert value == pytest.approx(6.0)
    np.testing.assert_array_equal(w, np.ones(6))


def test_min_weighted_indicator_all_zero():
    value, _ = rc.min_weighted_indicator(np.zeros(4), 1.0)
    assert value == pytest.approx(0.0)


def test_min_weighted_indicator_single_one():
    value, w = rc.min_weighted_indicator(np.array([1.0, 0, 0, 0]), 1.0)
    assert value == pytest.approx(1.0 - math.sqrt(3.0) / 2.0, abs=1e-12)
    assert value == pytest.approx(0.1339745962, abs=1e-9)
    assert w.sum() == pytest.approx(4.0, abs=1e-12)
    assert np.linalg.norm(w - 1.0) == pytest.approx(1.0, abs=1e-12)
    oracle = oracles.min_indicator_oracle(np.array([1.0, 0, 0, 0]), 1.0)
    assert value == pytest.approx(oracle, abs=1e-6)


def test_min_weighted_indicator_matches_oracle_random():
    rng = np.random.default_rng(53)
    for trial in range(10):
        n = int(rng.integers(3, 12))
        zeta = (rng.random(n) < 0.5).astype(float)
        Q = float(rng.uniform(0.0, 2.0))
        value, w = rc.min_weighted_indicator(zeta, Q)
        oracle = oracles.min_indicator_oracle(zeta, Q, seed=trial)
        assert value == pytest.approx(oracle, abs=1e-6)
        assert value <= float(zeta @ w) + 1e-9
        assert w.sum() == pytest.approx(n, abs=1e-9)


def test_worst_case_error_ub_values():
    assert rc.worst_case_error_ub(np.ones(7), 1.3) == 0.0
    assert rc.worst_case_error_ub(np.zeros(7), 1.3) == 1.0
    ub = rc.worst_case_error_ub(np.array([1.0, 0, 0, 0]), 1.0)
    assert ub == pytest.approx(1.0 - 0.1339745962 / 4.0, abs=1e-9)
    assert ub == pytest.approx(0.966506, abs=1e-6)


def test_ub_monotone_in_R_and_Q():
    rng = np.random.default_rng(61)
    K = np.array([[1.0]])
    model = dummy_model([1.0], [1.0], K, [0.0])
    object.__setattr__(model, "rep_coef", np.array([1.0]))
    scores = rng.uniform(-1, 1, 25)
    K_cross = scores[None, :]
    y_val = np.ones(25)
    prev_ub = -1.0
    for R in np.linspace(0.0, 1.5, 12):
        zeta, _ = rc.certify(model, K_cross, np.ones(25), y_val, R)
        ub = rc.worst_case_error_ub(zeta, 0.4)
        assert ub >= prev_ub - 1e-12
        prev_ub = ub
    zeta, _ = rc.certify(model, K_cross, np.ones(25), y_val, 0.3)
    prev = -1.0
    for Q in np.linspace(0.0, 2.0, 15):
        ub = rc.worst_case_error_ub(zeta, Q)
        assert ub >= prev - 1e-12
        prev = Q and ub


def rkhs_distance(K, coef_a, coef_b):
    diff = coef_a - coef_b
    return math.sqrt(max(float(diff @ (K @ diff)), 0.0))


@pytest.mark.parametrize("kind", [rc.HINGE, rc.LOGISTIC])
def test_ball_containment_and_certificate_soundness(rbf_task, kind):
    """Retrained coefficients stay inside the certified radius, and every
    certified validation point is classified correctly after retraining."""
    ds, K, lam_abs = rbf_task
    n = ds.n
    model = rc.train(K, ds.labels, lam_abs, kind=kind, tol=1e-10)
    form = rc.quadratic_form(model)
    S = rc.shift_radius(ds.n_plus, 1.05)
    rng = np.random.default_rng(67)

    va = rc.gaussian_task(30, ds.d - 1, seed=101, separation=2.5)
    spec = rc.KernelSpec("rbf", rc.bandwidth_heuristic(ds.features))
    K_cross = rc.gram(ds.features, va.features, spec)
    kdiag = np.ones(va.n)
    Q = rc.shift_radius(va.n_plus, 1.05)

    for trial in range(12):
        v = np.ones(n)
        removed = rng.choice(n, size=n // 5, replace=False)
        v[removed] = 0.0
        direction = rng.standard_normal(n)
        direction /= np.linalg.norm(direction)
        w = 1.0 + direction * rng.uniform(0, S)
        assert np.linalg.norm(w - 1.0) <= S + 1e-12

        res = rc.maximize_on_ball(form, v, S)
        R = rc.radius(res.dg_max, lam_abs)
        retrained = rc.train(K, ds.labels, lam_abs, v=v, w=w, kind=kind,
                             tol=1e-11)
        dist = rkhs_distance(K, retrained.rep_coef, model.rep_coef)
        assert dist <= R + 1e-6

        # the direct gap at this very w certifies the same retrain
        direct = rc.evaluate_gap(model, v, w)
        assert dist <= math.sqrt(2.0 * max(direct.gap, 0.0) / lam_abs) + 1e-6

        zeta, _ = rc.certify(model, K_cross, kdiag, va.labels, R)
        margins = va.labels * rc.decision_scores(retrained, K_cross)
        assert np.all(margins[zeta == 1] > 0)

        ub = rc.worst_case_error_ub(zeta, Q)
        correct = (margins > 0).astype(float)
        realized = 1.0 - rc.min_weighted_indicator(correct, Q).value / va.n
        assert realized <= ub + 1e-6


def test_certificate_pipeline_report(rbf_task, hinge_model):
    ds, K, lam_abs = rbf_task
    form = rc.quadratic_form(hinge_model)
    va = rc.gaussian_task(20, ds.d - 1, seed=5)
    spec = rc.KernelSpec("rbf", rc.bandwidth_heuristic(ds.features))
    K_cross = rc.gram(ds.features, va.features, spec)
    v = np.ones(ds.n)
    v[:6] = 0.0
    ball = rc.maximize_on_ball(form, v, 0.4)
    report = rc.certificate(hinge_model, ball, 0.3, K_cross, np.ones(va.n),
                            va.labels)
    d = report.to_dict()
    assert set(d) == {"dg_max", "radius", "ub", "counts", "zeta", "w_star"}
    assert sum(d["counts"].values()) == va.n
    assert d["counts"]["surely_correct"] == int(report.zeta.sum())
    assert 0.0 <= d["ub"] <= 1.0
    assert report.radius == pytest.approx(
        math.sqrt(2.0 * report.dg_max / lam_abs))
