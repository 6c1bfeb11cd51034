import gc
import math
import warnings
import weakref

import numpy as np
import pytest

import robustcoreset as rc
from robustcoreset import bound

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
    K = rc.gram(X, X, 1.0)
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
    K = rc.gram(X, X, 2.0)
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


def ball_residuals(form, v, res):
    """|u| and the KKT residual |2 At u + g - 2 mu u| of a ball solve over
    the kept coordinates, from its w_star and mu."""
    active = np.asarray(v) != 0.0
    At, g, _ = form.reduced(active)
    u = res.w_star[active] - 1.0
    kkt = np.linalg.norm(2.0 * (At @ u) + g - 2.0 * res.mu * u)
    return float(np.linalg.norm(u)), float(kkt)


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
    assert ball_residuals(form, v, res)[1] <= 1e-8


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


def test_reduced_all_kept_block_is_a_read_only_view(peak_bytes):
    # with every coordinate kept the block is A itself, read-only and not
    # copied (O(n) allocated); the reduced problem has the copy's bytes, and
    # a Fortran-ordered A or a partial mask still gets a copy
    rng = np.random.default_rng(44)
    n = 600
    form = random_psd_form(rng, n)
    kept = np.ones(n, dtype=bool)
    assert peak_bytes(form.reduced, kept) <= 8 * 8 * n
    At = form.reduced(kept)[0]
    with pytest.raises(ValueError, match="read-only"):
        At[0, 0] = 1.0
    assert form.A.flags.writeable
    for A, active, view in ((form.A, kept, True),
                            (np.asfortranarray(form.A), kept, False),
                            (form.A, rng.random(n) < 0.7, False)):
        block = np.array(A)[np.ix_(active, active)]
        At, g, const = rc.QuadraticGapForm(A, form.b, form.c).reduced(active)
        assert np.shares_memory(At, A) == view
        assert At.tobytes() == block.tobytes()
        assert g.tobytes() == (2.0 * block.sum(axis=1)
                               + form.b[active]).tobytes()
        assert const == float(block.sum() + form.b[active].sum() + form.c)


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
    # repeated top eigenvalue with g inside its eigenspace
    cases.append((_form_with_reduced_g(np.diag([2.0, 2.0, 1.0]),
                                       np.array([0.3, -0.2, 0.1])),
                  np.ones(3), 0.8))
    for S in (0.5, 5.0, 30.0):
        dim = int(rng.integers(4, 8))
        v = np.ones(dim)
        v[rng.choice(dim, size=2, replace=False)] = 0.0
        cases.append((random_psd_form(rng, dim), v, S))
        cases.append((random_psd_form(rng, dim), np.ones(dim), S))
    for dim in (20, 40):
        v = (rng.random(dim) < 0.7).astype(float)
        cases.append((random_psd_form(rng, dim), v, float(rng.uniform(0.05, 3.0))))
    cases.append((rc.QuadraticGapForm(A=np.zeros((3, 3)),
                                      b=np.array([3.0, 0.0, -4.0]), c=1.0),
                  np.ones(3), 2.0))  # A = 0
    cases.append((_form_with_reduced_g(np.array([[2.0]]), np.array([0.5])),
                  np.ones(1), 0.7))  # m = 1
    cases.append((random_psd_form(rng, 2), np.ones(2), 0.9))  # m = 2
    # |u| = S at the bracket's right end but for rounding
    cases.append((_form_with_reduced_g(np.array([[0.2499071440222617]]),
                                       np.array([13.606891864808249])),
                  np.ones(1), 0.05))
    for form, v, S in cases:
        res = rc.maximize_on_ball(form, v, S)
        active = v != 0.0
        assert np.linalg.norm(res.w_star - 1.0) <= S + 1e-9
        assert np.all(res.w_star[~active] == 1.0)
        assert ball_residuals(form, v, res)[0] == pytest.approx(S, rel=1e-12)
        q = form.value(v * res.w_star)
        assert res.dg_max >= q - 2.5e-14 * max(1.0, abs(q))
        ref = oracles.ball_max_bisect(*form.reduced(active), S)
        assert abs(res.dg_max - ref) <= 1e-12 * max(1.0, abs(ref))
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
        ref = oracles.ball_max_bisect(*form.reduced(np.ones(3, bool)), S)
        assert abs(res.dg_max - ref) <= 1e-12 * max(1.0, abs(ref)), eps
        u_norm = ball_residuals(form, np.ones(3), res)[0]
        assert u_norm == pytest.approx(S, rel=1e-12, abs=1e-12), eps


def _embed_dead(rng, small, n_dead):
    """``small`` with ``n_dead`` dead coordinates (zero row, column and
    linear term) spread among its own; returns the form and the live index."""
    n = small.n + n_dead
    live = np.sort(rng.choice(n, size=small.n, replace=False))
    A = np.zeros((n, n))
    A[np.ix_(live, live)] = small.A
    b = np.zeros(n)
    b[live] = small.b
    return rc.QuadraticGapForm(A=A, b=b, c=small.c), live


def test_dead_coordinates_give_the_deleted_forms_maximum():
    rng = np.random.default_rng(73)
    for dim, n_dead, S in ((5, 3, 0.7), (12, 6, 1.2), (6, 2, 30.0), (1, 2, 0.5)):
        small = random_psd_form(rng, dim)
        form, live = _embed_dead(rng, small, n_dead)
        np.testing.assert_array_equal(np.flatnonzero(form.live), live)
        v_small = np.ones(dim)
        v_small[rng.choice(dim, size=dim // 3, replace=False)] = 0.0
        for kept in (np.ones(dim), v_small):
            v = np.ones(form.n)
            v[live] = kept
            res = rc.maximize_on_ball(form, v, S)
            ref = rc.maximize_on_ball(small, kept, S)
            assert (res.dg_max, res.mu) == (ref.dg_max, ref.mu)
            np.testing.assert_array_equal(res.w_star[live], ref.w_star)
            assert np.all(np.delete(res.w_star, live) == 1.0)


def test_inert_removal_leaves_the_maximum_bit_identical(hinge_model, rbf_task):
    ds, _, _ = rbf_task
    form = rc.quadratic_form(hinge_model)
    losses = rc.loss_eval(rc.HINGE, ds.labels, hinge_model.train_scores)
    inert = np.flatnonzero((hinge_model.alpha == 0.0) & (losses == 0.0))
    assert inert.size > 0
    np.testing.assert_array_equal(np.flatnonzero(~form.live), inert)
    S = rc.shift_radius(ds.n_plus, 1.05)
    v = np.ones(ds.n)
    v[np.flatnonzero(form.live)[:3]] = 0.0  # a kept set mid-selection
    base = rc.maximize_on_ball(form, v, S).dg_max
    for i in inert:
        v[i] = 0.0
        assert rc.maximize_on_ball(form, v, S).dg_max == base, i
        v[i] = 1.0


def assert_bordered_solve(form, v0, i, S):
    """The solve of v0 less coordinate i from v0's spectral step against a
    fresh solve: value within 1e-12, an upper bound on q at its own feasible
    w_star, which keeps every coordinate outside v0's solved set at 1."""
    spectrum = rc.spectral_step(form, v0)
    v = np.array(v0, dtype=float)
    v[i] = 0.0
    res = rc.maximize_on_ball(form, v, S, spectrum)
    ref = rc.maximize_on_ball(form, v, S)
    assert abs(res.dg_max - ref.dg_max) <= 1e-12 * max(1.0, abs(ref.dg_max))
    q = form.value(v * res.w_star)
    assert res.dg_max >= q - 2.5e-14 * max(1.0, abs(q))
    # up to the rounding of w = 1 + u in each coordinate
    assert np.linalg.norm(res.w_star - 1.0) <= S + 1e-14
    solved = (v != 0.0) & form.live
    assert np.all(res.w_star[~solved] == 1.0)
    return res, ref


def test_bordered_solve_matches_a_fresh_solve():
    rng = np.random.default_rng(79)
    for dim, S in ((3, 0.4), (6, 1.3), (9, 0.05), (12, 30.0), (20, 2.0)):
        form = random_psd_form(rng, dim)
        v0 = np.ones(dim)
        v0[rng.choice(dim, size=dim // 4, replace=False)] = 0.0
        for i in np.flatnonzero(v0):
            assert_bordered_solve(form, v0, i, S)
    # rank-deficient A: repeated zero eigenvalues below the top
    M = rng.standard_normal((8, 2))
    form = rc.QuadraticGapForm(A=M @ M.T, b=rng.standard_normal(8), c=0.5)
    for i in range(8):
        assert_bordered_solve(form, np.ones(8), i, 0.7)


def test_bordered_solve_edge_cases():
    # r_m = 0: coordinate 0 has no weight on the top eigenvector e_2
    A = np.array([[1.0, 0.3, 0.0], [0.3, 2.0, 0.0], [0.0, 0.0, 5.0]])
    form = _form_with_reduced_g(A, np.array([0.4, -0.2, 0.3]))
    assert abs(rc.spectral_step(form, np.ones(3)).V[0, -1]) <= 1e-15
    for S in (0.1, 1.0, 20.0):
        assert_bordered_solve(form, np.ones(3), 0, S)
    # repeated top eigenvalue, in a rotated basis
    Q, _ = np.linalg.qr(np.random.default_rng(83).standard_normal((4, 4)))
    A = Q @ np.diag([0.5, 1.0, 2.0, 2.0]) @ Q.T
    for g in (np.array([0.3, -0.2, 0.1, 0.4]), np.zeros(4)):
        form = _form_with_reduced_g(A, g)
        for i in range(4):
            for S in (0.2, 3.0):
                assert_bordered_solve(form, np.ones(4), i, S)
    # removing coordinate 2 leaves diag(2, 1) with its linear term
    # orthogonal to e_1: the shrunk problem's hard case at theta = 2, below
    # the full block's top eigenvalue; then a near-hard one with its root
    # between theta and that eigenvalue
    A = np.array([[2.0, 0.0, 0.5], [0.0, 1.0, 0.5], [0.5, 0.5, 1.0]])
    for g_shrunk, hard in (((0.0, 0.2), True), ((0.01, 0.2), False)):
        g = np.append(np.array(g_shrunk) + 2.0 * A[:2, 2], 0.3)
        form = _form_with_reduced_g(A, g)
        res, ref = assert_bordered_solve(form, np.ones(3), 2, 1.0)
        assert res.hard_case == ref.hard_case == hard
        assert res.mu < np.linalg.eigvalsh(A)[-1]
    # shrunk roots below the full block's top eigenvalue, whose own terms
    # cancel where the search starts, just above it
    for A, g, S in (([[1.5, 0.0, -0.5], [0.0, 0.5, -1.0], [-0.5, -1.0, 5.0]],
                     [4.0, 5.0, -5.0], 1.0),
                    ([[0.5, 0.0, -0.25], [0.0, 1.0, 0.0], [-0.25, 0.0, 7.0]],
                     [6.0, 0.0, -15.0], 0.5)):
        form = _form_with_reduced_g(np.array(A), np.array(g))
        res, _ = assert_bordered_solve(form, np.ones(3), 2, S)
        assert res.mu < np.linalg.eigvalsh(A)[-1]
    # m = 2 -> 1 and m = 1 -> 0
    form = random_psd_form(np.random.default_rng(89), 2)
    for i in range(2):
        assert_bordered_solve(form, np.ones(2), i, 0.9)
        v0 = np.eye(2)[i]
        res = rc.maximize_on_ball(form, np.zeros(2), 0.9,
                                  rc.spectral_step(form, v0))
        assert res.dg_max == form.value(np.zeros(2))


def assert_batch_is_the_scalar_search(form, v0, S):
    """Every bordered solve of v0 less one coordinate, read from the batch
    of v0's spectral step, against the scalar search over that candidate
    alone: mu, hard case and dg_max bit for bit, and w_star a fresh solve's
    bit for bit.  Returns the solves."""
    spectrum = rc.spectral_step(form, v0)
    solves = []
    for i in np.flatnonzero(spectrum.solved):
        v = np.array(v0, dtype=float)
        v[i] = 0.0
        res = rc.maximize_on_ball(form, v, S, spectrum)
        mu, hard, value = oracles.bordered_secular(spectrum, form, i, S)
        assert (res.mu, res.hard_case, res.dg_max) == \
            (float(mu), bool(hard), float(value)), (i, S)
        assert res.w_star.tobytes() == \
            rc.maximize_on_ball(form, v, S).w_star.tobytes(), (i, S)
        solves.append(res)
    return solves


def test_bordered_batch_is_the_scalar_search_bit_for_bit():
    rng = np.random.default_rng(97)
    for dim in (3, 5, 8, 13, 21, 40):
        for S in (0.05, 0.4, 2.0, 30.0):
            form = random_psd_form(rng, dim)
            v0 = np.ones(dim)
            v0[rng.choice(dim, size=dim // 5, replace=False)] = 0.0
            assert_batch_is_the_scalar_search(form, v0, S)


def test_bordered_batch_rows_keep_their_own_steps(monkeypatch):
    # rows that stop after different numbers of secular evaluations
    root, evals = oracles.secular_root, []

    def counting_root(secular, *args):
        evals.append(0)

        def counted(mu):
            evals[-1] += 1
            return secular(mu)

        return root(counted, *args)

    monkeypatch.setattr(oracles, "secular_root", counting_root)
    form = random_psd_form(np.random.default_rng(101), 20)
    for S in (0.05, 2.0):
        evals.clear()
        assert_batch_is_the_scalar_search(form, np.ones(20), S)
        assert len(set(evals)) > 1
    # hard and non-hard rows in one batch: removing coordinate 2 leaves
    # diag(2, 1) with its linear term orthogonal to e_1, whose search
    # restarts at the shrunk block's top eigenvalue
    A = np.array([[2.0, 0.0, 0.5], [0.0, 1.0, 0.5], [0.5, 0.5, 1.0]])
    form = _form_with_reduced_g(A, np.append(2.0 * A[:2, 2] + [0.0, 0.2],
                                             0.3))
    for S in (1.0, 30.0):
        hard = [res.hard_case for res in
                assert_batch_is_the_scalar_search(form, np.ones(3), S)]
        assert hard == [False, False, True]
    # r_m = 0: coordinate 0 has no weight on the top eigenvector e_2
    A = np.array([[1.0, 0.3, 0.0], [0.3, 2.0, 0.0], [0.0, 0.0, 5.0]])
    form = _form_with_reduced_g(A, np.array([0.4, -0.2, 0.3]))
    for S in (0.05, 1.0, 30.0):
        assert_batch_is_the_scalar_search(form, np.ones(3), S)
    # repeated top eigenvalue, in a rotated basis; with g = 0 and S = 1
    # its rows are hard and not
    Q, _ = np.linalg.qr(np.random.default_rng(83).standard_normal((4, 4)))
    A = Q @ np.diag([0.5, 1.0, 2.0, 2.0]) @ Q.T
    for g in (np.array([0.3, -0.2, 0.1, 0.4]), np.zeros(4)):
        form = _form_with_reduced_g(A, g)
        for S in (0.05, 1.0, 30.0):
            assert_batch_is_the_scalar_search(form, np.ones(4), S)
    assert {res.hard_case for res in assert_batch_is_the_scalar_search(
        _form_with_reduced_g(A, np.zeros(4)), np.ones(4), 1.0)} == {True, False}
    # m = 2 -> 1 and m = 1 -> 0, which needs no batch
    form = random_psd_form(np.random.default_rng(103), 2)
    for S in (0.05, 0.9, 30.0):
        assert_batch_is_the_scalar_search(form, np.ones(2), S)
        spectrum = rc.spectral_step(form, np.array([1.0, 0.0]))
        res = rc.maximize_on_ball(form, np.zeros(2), S, spectrum)
        assert res.dg_max == form.value(np.zeros(2))
        assert spectrum._bordered == {}


def test_own_step_is_the_scalar_search_bit_for_bit(hinge_model, logistic_model):
    # the kept set's own step runs the batch's root finder on one row
    rng = np.random.default_rng(107)
    cases = [(random_psd_form(rng, dim), S) for dim in (1, 2, 5, 13, 40)
             for S in (0.05, 2.0, 30.0)]
    A = np.diag([3.0, 1.0, 0.5])
    cases += [(_form_with_reduced_g(A, np.array([eps, 0.2, -0.1])), 1.0)
              for eps in (0.0, 1e-9, 1e-3)]
    cases += [(rc.quadratic_form(model), 1.5)
              for model in (hinge_model, logistic_model)]
    for form, S in cases:
        spectrum = rc.spectral_step(form, np.ones(form.n))
        res = rc.maximize_on_ball(form, np.ones(form.n), S, spectrum)
        mu, hard, value, coef = oracles.own_secular(spectrum, S)
        assert (res.mu, res.hard_case, res.dg_max) == \
            (float(mu), bool(hard), float(value))
        w_star = np.ones(form.n)
        w_star[spectrum.solved] = 1.0 + spectrum.V @ coef
        assert res.w_star.tobytes() == w_star.tobytes()


def test_spectrum_solves_the_bordered_batch_once_per_radius(hinge_model,
                                                           rbf_task,
                                                           monkeypatch):
    # every candidate's solve on one spectrum, asked twice, reads one batch
    # per radius; each call returns a w_star of its own
    ds, _, _ = rbf_task
    form = rc.quadratic_form(hinge_model)
    S = rc.shift_radius(ds.n_plus, 1.05)
    live = np.flatnonzero(form.live)
    v0 = np.ones(ds.n)
    v0[live[:3]] = 0.0
    radii = (S, 2.0 * S)
    fresh = {}
    for radius in radii:
        for i in live[3:]:
            v = v0.copy()
            v[i] = 0.0
            fresh[radius, i] = rc.maximize_on_ball(
                form, v, radius, rc.spectral_step(form, v0))
    batch, batches = bound._bordered_batch, []

    def counting_batch(*args):
        batches.append(args[2])
        return batch(*args)

    monkeypatch.setattr(bound, "_bordered_batch", counting_batch)
    spectrum = rc.spectral_step(form, v0)
    for radius in radii:
        for _ in range(2):
            for i in live[3:]:
                v = v0.copy()
                v[i] = 0.0
                res = rc.maximize_on_ball(form, v, radius, spectrum)
                ref = fresh[radius, i]
                assert (res.dg_max, res.mu, res.hard_case) == \
                    (ref.dg_max, ref.mu, ref.hard_case)
                assert res.w_star.tobytes() == ref.w_star.tobytes()
                res.w_star[:] = -1.0
    assert batches == list(radii)


def test_masks_outside_0_1_are_rejected():
    # a kept mask is 0/1: a fractional entry would be read as 1 and
    # report a "maximum" below a feasible value of q(v*w)
    ds = rc.gaussian_task(40, 3, seed=1)
    K = rc.gram(ds.features, ds.features, rc.bandwidth_heuristic(ds.features))
    form = rc.quadratic_form(rc.train(K, ds.labels, 2.0, kind=rc.HINGE))
    # a step whose bordered batch is filled: a read of its memo checks the
    # mask as a fresh solve does
    spectrum = rc.spectral_step(form, np.ones(ds.n))
    rc.maximize_on_ball(form, np.where(np.arange(ds.n) == np.flatnonzero(
        form.live)[0], 0.0, 1.0), 0.3, spectrum)
    assert 0.3 in spectrum._bordered
    for v in (np.full(ds.n, 0.5), np.append(np.ones(ds.n - 1), 2.0),
              np.append(np.ones(ds.n - 1), math.nan)):
        for S in (0.3, 0.0):
            with pytest.raises(ValueError, match="0/1"):
                rc.maximize_on_ball(form, v, S)
        with pytest.raises(ValueError, match="0/1"):
            rc.maximize_on_ball(form, v, 0.3, spectrum)
        with pytest.raises(ValueError, match="0/1"):
            rc.spectral_step(form, v)
    with pytest.raises(ValueError, match="length"):
        rc.maximize_on_ball(form, np.ones(ds.n - 1), 0.3, spectrum)
    assert rc.maximize_on_ball(form, np.ones(ds.n), 0.0).dg_max == \
        form.value(np.ones(ds.n))


def test_a_spectrum_serves_only_its_own_form():
    # a step of one form read by another form's solve would report the
    # first form's maximum (0.1447 here, against 0.0466 for a fresh solve
    # of the second); both entry points reject it
    ds = rc.gaussian_task(40, 3, seed=1)
    K = rc.gram(ds.features, ds.features, rc.bandwidth_heuristic(ds.features))
    form_a, form_b = (rc.quadratic_form(rc.train(K, ds.labels, lam,
                                                 kind=rc.LOGISTIC))
                      for lam in (2.0, 8.0))
    ones = np.ones(ds.n)
    spec_a = rc.spectral_step(form_a, ones)
    fresh_b = rc.maximize_on_ball(form_b, ones, 0.5)
    assert rc.maximize_on_ball(form_a, ones, 0.5, spec_a).dg_max != \
        fresh_b.dg_max
    less_one = np.where(np.arange(ds.n) == np.flatnonzero(form_b.live)[0],
                        0.0, 1.0)
    for v in (ones, less_one):
        with pytest.raises(ValueError, match="another gap form"):
            rc.maximize_on_ball(form_b, v, 0.5, spec_a)
    with pytest.raises(ValueError, match="another gap form"):
        rc.spectral_step(form_b, ones, spec_a)
    spec_b = rc.spectral_step(form_b, ones)
    assert rc.maximize_on_ball(form_b, ones, 0.5, spec_b).dg_max == \
        fresh_b.dg_max


def test_spectrum_of_the_same_solved_set_is_a_fresh_solve(hinge_model, rbf_task):
    # a dead candidate leaves the solved set as it was: same solve, bit
    # for bit; any mask but v0's solved set or that less one is rejected
    ds, _, _ = rbf_task
    form = rc.quadratic_form(hinge_model)
    S = rc.shift_radius(ds.n_plus, 1.05)
    live = np.flatnonzero(form.live)
    v0 = np.ones(ds.n)
    v0[live[:3]] = 0.0
    spectrum = rc.spectral_step(form, v0)
    for v in (v0, np.where(form.live, v0, 0.0)):
        res = rc.maximize_on_ball(form, v, S, spectrum)
        ref = rc.maximize_on_ball(form, v, S)
        assert (res.dg_max, res.mu, res.hard_case) == \
            (ref.dg_max, ref.mu, ref.hard_case)
        assert res.w_star.tobytes() == ref.w_star.tobytes()
    v = v0.copy()
    v[live[3:5]] = 0.0
    added = v0.copy()
    added[live[0]] = 1.0
    swapped = added.copy()  # one coordinate removed, one added
    swapped[live[3]] = 0.0
    for bad in (v, added, swapped, np.ones(ds.n)):
        with pytest.raises(ValueError, match="spectrum"):
            rc.maximize_on_ball(form, bad, S, spectrum)


def test_spectrum_solves_its_own_set_once_per_radius(hinge_model, rbf_task,
                                                    monkeypatch):
    # repeated own-set solves on one spectrum read its memo: each returns a
    # fresh solve's result bit for bit, in a w_star of its own
    ds, _, _ = rbf_task
    form = rc.quadratic_form(hinge_model)
    S = rc.shift_radius(ds.n_plus, 1.05)
    v = np.ones(ds.n)
    v[np.flatnonzero(form.live)[:3]] = 0.0
    own_secular, own = bound._own_secular, []

    def counting_own(*args):
        own.append(args[1])
        return own_secular(*args)

    monkeypatch.setattr(bound, "_own_secular", counting_own)
    spectrum = rc.spectral_step(form, v)
    for radius in (S, 2.0 * S):
        ref = rc.maximize_on_ball(form, v, radius)
        own.clear()
        for _ in range(3):
            res = rc.maximize_on_ball(form, v, radius, spectrum)
            assert (res.dg_max, res.mu, res.hard_case) == \
                (ref.dg_max, ref.mu, ref.hard_case)
            assert res.w_star.tobytes() == ref.w_star.tobytes()
            res.w_star[:] = -1.0
        assert own == [radius]


def solves_on_one_step(form, v0, S):
    """v0's spectral step and (v, result) of every solve it serves at S:
    v0 itself, v0 less each dead kept coordinate and less each solved one."""
    spectrum = rc.spectral_step(form, v0)
    solves = []
    for i in [None, *np.flatnonzero(v0)]:
        v = np.array(v0, dtype=float)
        if i is not None:
            v[i] = 0.0
        solves.append((v, rc.maximize_on_ball(form, v, S, spectrum)))
    return spectrum, solves


def test_w_star_is_the_eager_build_bit_for_bit(hinge_model):
    # read after every other solve of its step, each deferred w_star has
    # the bits of the build each own-set call used to make, and a bordered
    # one those of a fresh solve; hard rows included
    rng = np.random.default_rng(109)
    cases = []
    for dim in (2, 3, 8, 21):
        form = random_psd_form(rng, dim)
        v0 = np.ones(dim)
        v0[rng.choice(dim, size=dim // 4, replace=False)] = 0.0
        cases.append((form, v0))
    embedded, _ = _embed_dead(rng, random_psd_form(rng, 6), 3)
    cases.append((embedded, np.ones(embedded.n)))
    form = rc.quadratic_form(hinge_model)
    cases.append((form, np.where(np.arange(form.n) < 5, 0.0, 1.0)))
    # bordered rows hard and not, and a hard own solve
    A = np.array([[2.0, 0.0, 0.5], [0.0, 1.0, 0.5], [0.5, 0.5, 1.0]])
    cases.append((_form_with_reduced_g(A, np.append(
        2.0 * A[:2, 2] + [0.0, 0.2], 0.3)), np.ones(3)))
    Q, _ = np.linalg.qr(np.random.default_rng(83).standard_normal((4, 4)))
    cases.append((_form_with_reduced_g(Q @ np.diag([0.5, 1.0, 2.0, 2.0]) @ Q.T,
                                       np.zeros(4)), np.ones(4)))
    cases.append((_form_with_reduced_g(np.diag([3.0, 1.0, 0.5]),
                                       np.array([0.0, 0.2, -0.1])), np.ones(3)))
    hard = set()
    for form, v0 in cases:
        for S in (0.05, 0.4, 1.0, 2.0, 30.0):
            spectrum, solves = solves_on_one_step(form, v0, S)
            for v, res in solves:
                own = bool(np.array_equal(spectrum.solved,
                                          (v != 0.0) & form.live))
                ref = (oracles.eager_w_star(form, spectrum, S) if own
                       else rc.maximize_on_ball(form, v, S).w_star)
                assert res.w_star.tobytes() == ref.tobytes(), (form.n, S)
                hard.add((res.hard_case, own))
    assert hard == {(False, False), (False, True), (True, False), (True, True)}


def test_greedy_exact_builds_no_w_star(hinge_model, monkeypatch):
    # scoring reads dg_max only; a w_star is built on its first read and
    # then kept
    lift, built = bound._lift, []

    def counting_lift(*args):
        built.append(args[0])
        return lift(*args)

    monkeypatch.setattr(bound, "_lift", counting_lift)
    form = rc.quadratic_form(hinge_model)
    S = rc.shift_radius(int(np.sum(hinge_model.y == 1)), 1.05)
    trace = rc.greedy_exact(form, hinge_model.y, S, 8)
    assert len(trace.removal_order) == 8 and built == []
    res = rc.maximize_on_ball(form, trace.kept_mask(8), S)
    assert built == []
    assert res.w_star is res.w_star and built == [form.n]


def test_overwritten_w_star_does_not_leak(hinge_model):
    # each result builds its own w_star, a bordered one from a fresh solve,
    # and the memo stays as it was
    form = rc.quadratic_form(hinge_model)
    S = rc.shift_radius(int(np.sum(hinge_model.y == 1)), 1.05)
    v0 = np.ones(form.n)
    v0[np.flatnonzero(form.live)[:3]] = 0.0
    spectrum, first = solves_on_one_step(form, v0, S)
    kept = [res.w_star.copy() for _, res in first]
    memo = spectrum._own[S][3].copy()
    for _, res in first:
        res.w_star[:] = -1.0
    for (v, res), ref in zip(first, kept):
        again = rc.maximize_on_ball(form, v, S, spectrum)
        assert again.w_star.tobytes() == ref.tobytes()
        assert again.w_star.tobytes() == \
            rc.maximize_on_ball(form, v, S).w_star.tobytes()
        assert np.all(res.w_star == -1.0)
    assert spectrum._own[S][3].tobytes() == memo.tobytes()


def test_own_result_keeps_no_spectrum_alive(hinge_model, monkeypatch):
    # a solve without a given step (FoldContext.full_ball's) frees its
    # eigenvectors once it returns, its w_star read or not; an own-set
    # result keeps no form alive either
    step, steps = bound.spectral_step, []

    def recording_step(*args):
        spectrum = step(*args)
        steps.append(weakref.ref(spectrum))
        return spectrum

    monkeypatch.setattr(bound, "spectral_step", recording_step)
    form = rc.quadratic_form(hinge_model)
    res = rc.maximize_on_ball(form, np.ones(form.n), 1.5)
    gc.collect()
    assert len(steps) == 1 and steps[0]() is None
    monkeypatch.undo()
    spectrum = rc.spectral_step(form, np.ones(form.n))
    rc.maximize_on_ball(form, np.ones(form.n), 1.5, spectrum)
    assert res.w_star.tobytes() == oracles.eager_w_star(
        form, spectrum, 1.5).tobytes()
    unread = rc.maximize_on_ball(form, np.ones(form.n), 1.5, spectrum)
    forms = weakref.ref(form)
    del form, spectrum
    gc.collect()
    assert forms() is None
    assert unread.w_star.tobytes() == res.w_star.tobytes()


def test_bordered_result_keeps_no_eigenvectors_alive(hinge_model):
    # a bordered solve, held, frees its step's eigenvectors with the step;
    # its w_star, read later, is still a fresh solve's
    form = rc.quadratic_form(hinge_model)
    S = rc.shift_radius(int(np.sum(hinge_model.y == 1)), 1.05)
    v0 = np.ones(form.n)
    v0[np.flatnonzero(form.live)[:3]] = 0.0
    spectrum, solves = solves_on_one_step(form, v0, S)
    eigenvectors = weakref.ref(spectrum.V)
    bordered = [(v, res) for v, res in solves
                if not np.array_equal(spectrum.solved, form.solved(v))]
    assert bordered
    del spectrum, solves
    gc.collect()
    assert eigenvectors() is None
    for v, res in bordered:
        assert res.w_star.tobytes() == \
            rc.maximize_on_ball(form, v, S).w_star.tobytes()


def test_spectral_step_reuses_a_step_of_the_same_solved_set(hinge_model):
    # a step is handed back as it is for any mask with its solved set, the
    # empty set included, and taken afresh for any other
    form = rc.quadratic_form(hinge_model)
    live = np.flatnonzero(form.live)
    v0 = np.ones(form.n)
    v0[live[:3]] = 0.0
    spectrum = rc.spectral_step(form, v0)
    assert rc.spectral_step(form, np.where(form.live, v0, 0.0),
                            spectrum) is spectrum
    v = v0.copy()
    v[live[3]] = 0.0
    fresh = rc.spectral_step(form, v, spectrum)
    assert fresh is not spectrum
    assert fresh.solved.tolist() == rc.spectral_step(form, v).solved.tolist()
    empty = rc.spectral_step(form, np.where(form.live, 0.0, 1.0))
    assert empty.eigval.shape == (0,) and empty.gamma.shape == (0,)
    assert rc.spectral_step(form, np.zeros(form.n), empty) is empty


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
        assert (strict.dg_max, strict.mu) == (plain.dg_max, plain.mu)


def test_maximize_pure_linear_form():
    form = rc.QuadraticGapForm(A=np.zeros((3, 3)),
                               b=np.array([3.0, 0.0, -4.0]), c=1.0)
    res = rc.maximize_on_ball(form, np.ones(3), 2.0)
    # q = b'w + c, maximized at w = 1 + S b/||b||
    assert res.dg_max == pytest.approx(1.0 + (3.0 - 4.0) + 2.0 * 5.0, rel=1e-10)
    assert ball_residuals(form, np.ones(3), res)[1] <= 1e-10


def test_radius_values():
    assert rc.radius(0.0, 1.0) == 0.0
    assert rc.radius(1.0, 2.0) == pytest.approx(1.0)
    assert rc.radius(4.0, 0.5) == pytest.approx(4.0)
    assert rc.radius(-5e-11, 1.0) == 0.0
    with pytest.raises(ValueError):
        rc.radius(-1e-9, 1.0)
    with pytest.raises(ValueError):
        rc.radius(1.0, 0.0)


@pytest.mark.parametrize("guard", [
    lambda m: rc.maximize_on_ball(rc.quadratic_form(m), np.ones(m.n), math.nan),
    lambda m: rc.worst_case_accuracy(np.ones(3), math.nan),
    lambda m: rc.radius(0.1, math.nan),
    lambda m: rc.shift_radius(5, math.nan),
    lambda m: rc.gram(m.gram_ref, m.gram_ref, math.nan),
    lambda m: rc.train(m.gram_ref, m.y, math.nan, kind=m.loss),
    lambda m: rc.train(m.gram_ref, m.y, m.lam_abs, kind=m.loss, tol=math.nan),
], ids=["maximize_on_ball-S", "min_weighted_indicator-Q", "radius-lam",
        "shift_radius-a", "gram-bandwidth", "train-lam_abs", "train-tol"])
def test_guards_reject_nan(hinge_model, guard):
    # a NaN compares false both ways, so each guard must be written to fail
    # on it rather than to pass on a valid value
    with pytest.raises(ValueError):
        guard(hinge_model)


def _trace(m, n_del):
    return rc.baseline_select("random", m.gram_ref, m.y, m, n_del)


@pytest.mark.parametrize("guard, match", [
    (lambda m: rc.quadratic_form(m).solved(np.ones(m.n - 1)), "mask length"),
    (lambda m: rc.maximize_on_ball(rc.quadratic_form(m), np.ones(m.n + 1),
                                   0.3), "mask length"),
    (lambda m: rc.maximize_on_ball(rc.quadratic_form(m), np.ones(m.n - 1),
                                   0.0), "mask length"),
    (lambda m: _trace(m, 3).kept_mask(4), "outside the recorded trace"),
    (lambda m: _trace(m, 3).kept_mask(-1), "outside the recorded trace"),
    (lambda m: rc.baseline_select("margin", m.gram_ref, m.y, None, 2),
     "needs the reference model"),
    (lambda m: rc.worst_case_accuracy([], 0.0), "at least one validation"),
    (lambda m: rc.bandwidth_heuristic(np.empty((0, 3))), "empty feature"),
    (lambda m: rc.Dataset(np.ones((3, 2)), np.array([1, -1])),
     "one label per row"),
    (lambda m: rc.cv_split(rc.gaussian_task(10, 2), folds=1),
     "at least 2"),
    (lambda m: rc.gaussian_task(10, 2, n_plus=0), "strictly between"),
    (lambda m: rc.gaussian_task(10, 2, n_plus=10), "strictly between"),
    (lambda m: rc.loss_eval("squared", m.y, m.train_scores),
     "unknown loss kind"),
    (lambda m: rc.train(m.gram_ref[:, :-1], m.y, m.lam_abs, kind=m.loss),
     "n x n"),
], ids=["solved-short-mask", "maximize_on_ball-long-mask",
        "maximize_on_ball-short-mask-S0", "kept_mask-past-trace",
        "kept_mask-negative", "margin-without-model",
        "worst_case_accuracy-empty", "bandwidth-empty", "dataset-short-labels",
        "cv_split-one-fold", "gaussian_task-no-positive",
        "gaussian_task-no-negative", "loss_eval-kind", "train-nonsquare-K"])
def test_guards_reject_bad_input(hinge_model, guard, match):
    # each input guard raises ValueError with its own reason
    with pytest.raises(ValueError, match=match):
        guard(hinge_model)


def test_certify_three_point_example():
    margins = np.array([0.5, -0.5, 0.1])
    zeta, counts = rc.certify(margins, np.ones(3), 0.2)
    np.testing.assert_array_equal(zeta, [1, 0, 0])
    assert counts == (1, 1, 1)
    # a feature norm scales the score interval: 0.1 +- 0.05 stays positive
    zeta, counts = rc.certify(margins, np.array([1.0, 1.0, 0.25]), 0.2)
    np.testing.assert_array_equal(zeta, [1, 0, 1])
    assert counts == (2, 1, 0)


def test_certify_degenerate_radius():
    margins = np.array([0.5, -0.5, 0.1])
    zeta, counts = rc.certify(margins, np.ones(3), 0.0)
    np.testing.assert_array_equal(zeta, [1, 0, 1])
    assert counts.unknown == 0
    zeta, counts = rc.certify(margins, np.ones(3), 100.0)
    assert zeta.sum() == 0 and counts.unknown == 3


def clipped_oracle(indicator, Q, **kwargs):
    # the oracle's least weighted sum as a mean clipped to [0, 1], the way
    # worst_case_accuracy reports it
    value = oracles.min_indicator_oracle(indicator, Q, **kwargs)
    return min(1.0, max(0.0, value / len(indicator)))


def test_min_weighted_indicator_all_certified():
    assert rc.worst_case_accuracy(np.ones(6), 3.0) == pytest.approx(1.0)


def test_min_weighted_indicator_all_zero():
    assert rc.worst_case_accuracy(np.zeros(4), 1.0) == pytest.approx(0.0)


def test_min_weighted_indicator_single_one():
    indicator = np.array([1.0, 0, 0, 0])
    acc = rc.worst_case_accuracy(indicator, 1.0)
    assert acc == pytest.approx((1.0 - math.sqrt(3.0) / 2.0) / 4.0, abs=1e-12)
    assert acc == pytest.approx(0.1339745962 / 4.0, abs=1e-9)
    assert acc == pytest.approx(clipped_oracle(indicator, 1.0), abs=1e-6)


def test_min_weighted_indicator_matches_oracle_random():
    rng = np.random.default_rng(53)
    for trial in range(10):
        n = int(rng.integers(3, 12))
        zeta = (rng.random(n) < 0.5).astype(float)
        Q = float(rng.uniform(0.0, 2.0))
        acc = rc.worst_case_accuracy(zeta, Q)
        assert acc == pytest.approx(clipped_oracle(zeta, Q, seed=trial),
                                    abs=1e-6)


def test_worst_case_accuracy_clips_a_negative_minimum_to_zero():
    # 1 - 2 sqrt(2/3) < 0: a ball this wide reaches negative weights
    indicator = np.array([1.0, 0, 0])
    assert oracles.min_indicator_oracle(indicator, 2.0) < -0.6
    assert rc.worst_case_accuracy(indicator, 2.0) == 0.0
    assert clipped_oracle(indicator, 2.0) == 0.0


def test_worst_case_error_ub_values():
    assert 1.0 - rc.worst_case_accuracy(np.ones(7), 1.3) == 0.0
    assert 1.0 - rc.worst_case_accuracy(np.zeros(7), 1.3) == 1.0
    ub = 1.0 - rc.worst_case_accuracy(np.array([1.0, 0, 0, 0]), 1.0)
    assert ub == pytest.approx(1.0 - 0.1339745962 / 4.0, abs=1e-9)
    assert ub == pytest.approx(0.966506, abs=1e-6)


def test_ub_monotone_in_R_and_Q():
    rng = np.random.default_rng(61)
    margins = rng.uniform(-1, 1, 25)
    prev_ub = -1.0
    for R in np.linspace(0.0, 1.5, 12):
        zeta, _ = rc.certify(margins, np.ones(25), R)
        ub = 1.0 - rc.worst_case_accuracy(zeta, 0.4)
        assert ub >= prev_ub - 1e-12
        prev_ub = ub
    zeta, _ = rc.certify(margins, np.ones(25), 0.3)
    prev = -1.0
    for Q in np.linspace(0.0, 2.0, 15):
        ub = 1.0 - rc.worst_case_accuracy(zeta, Q)
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
    h = rc.bandwidth_heuristic(ds.features)
    K_cross = rc.gram(ds.features, va.features, h)
    ref_margins = va.labels * rc.decision_scores(model, K_cross)
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
        direct = oracles.sum_form_gap(K.tolist(), model.y.tolist(),
                                      model.alpha.tolist(), lam_abs,
                                      model.train_scores.tolist(), kind,
                                      (v * w).tolist())
        assert dist <= math.sqrt(2.0 * max(direct, 0.0) / lam_abs) + 1e-6

        zeta, _ = rc.certify(ref_margins, np.ones(va.n), R)
        margins = va.labels * rc.decision_scores(retrained, K_cross)
        assert np.all(margins[zeta == 1] > 0)

        ub = 1.0 - rc.worst_case_accuracy(zeta, Q)
        correct = (margins > 0).astype(float)
        realized = 1.0 - rc.worst_case_accuracy(correct, Q)
        assert realized <= ub + 1e-6


def test_certificate_pipeline_report(rbf_task, hinge_model):
    ds, K, lam_abs = rbf_task
    form = rc.quadratic_form(hinge_model)
    va = rc.gaussian_task(20, ds.d - 1, seed=5)
    h = rc.bandwidth_heuristic(ds.features)
    K_cross = rc.gram(ds.features, va.features, h)
    v = np.ones(ds.n)
    v[:6] = 0.0
    ball = rc.maximize_on_ball(form, v, 0.4)
    report = rc.certificate(ball, lam_abs, 0.3, va.labels
                            * rc.decision_scores(hinge_model, K_cross),
                            np.ones(va.n))
    d = report.to_dict()
    assert set(d) == {"dg_max", "radius", "ub", "counts", "zeta", "w_star"}
    assert sum(d["counts"].values()) == va.n
    assert d["counts"]["surely_correct"] == int(report.zeta.sum())
    assert 0.0 <= d["ub"] <= 1.0
    assert report.ball is ball and d["dg_max"] == ball.dg_max
    assert report.radius == pytest.approx(
        math.sqrt(2.0 * ball.dg_max / lam_abs))
