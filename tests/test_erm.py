import math

import numpy as np
import pytest

import robustcoreset as rc
from robustcoreset import erm
from robustcoreset.erm import TrainingError

import oracles


def sum_dual(K, y, v, w, lam_abs, kind, alpha):
    """Sum-form dual: E times the normalized loop oracle at lam_abs / E."""
    E = float(np.dot(v, w))
    K, y, v, w, alpha = (np.asarray(a, dtype=float).tolist()
                         for a in (K, y, v, w, alpha))
    return E * oracles.dual_value(K, y, v, w, lam_abs / E, kind, alpha)


def test_loss_logistic_at_zero():
    val = rc.loss_eval(rc.LOGISTIC, np.array([1.0, -1.0]), np.zeros(2))
    np.testing.assert_allclose(val, [math.log(2)] * 2)


def test_loss_hinge_outside_margin():
    val = rc.loss_eval(rc.HINGE, np.array([1.0, -1.0]), np.array([2.0, -1.0]))
    np.testing.assert_array_equal(val, [0.0, 0.0])


def test_loss_logistic_no_overflow():
    val = rc.loss_eval(rc.LOGISTIC, np.array([-1.0, 1.0]),
                       np.array([-50.0, -1000.0]))
    assert 0.0 < val[0] < 1e-20
    assert np.isfinite(val).all()


def test_conjugate_values():
    assert rc.conjugate_eval(rc.HINGE, np.array([0.3])) == pytest.approx([-0.3])
    np.testing.assert_allclose(
        rc.conjugate_eval(rc.LOGISTIC, np.array([0.5, 0.0, 1.0])),
        [-math.log(2), 0.0, 0.0])


@pytest.mark.parametrize("kind", [rc.HINGE, rc.LOGISTIC])
def test_train_certifies_gap(rbf_task, kind):
    ds, K, lam_abs = rbf_task
    model = rc.train(K, ds.labels, lam_abs, kind=kind, tol=1e-8)
    assert -1e-10 <= model.certified_gap <= 1e-8


def test_train_symmetric_pair():
    X = np.array([[1.0, 0.0], [-1.0, 0.0]])
    ds = rc.Dataset.from_arrays(X, [1, -1])
    K = rc.gram(ds.features, ds.features, 2.0)
    for kind in (rc.HINGE, rc.LOGISTIC):
        model = rc.train(K, ds.labels, 1.0, kind=kind, tol=1e-13)
        assert model.alpha[0] == pytest.approx(model.alpha[1], abs=1e-6)
        scores = rc.decision_scores(model, K)
        assert scores[0] == pytest.approx(-scores[1], abs=1e-6)


def test_train_hinge_two_point_box_solution():
    K = np.eye(2)
    y = np.array([1.0, -1.0])
    # the oracle's normalized lambda is lam_abs / E with E = 2
    alpha_grid, _ = oracles.grid_max_dual_2d(K, y, 10.0, "hinge", steps=200)
    assert alpha_grid == pytest.approx([1.0, 1.0])
    model = rc.train(K, y, 20.0, kind=rc.HINGE, tol=1e-12)
    np.testing.assert_allclose(model.alpha, [1.0, 1.0], atol=1e-9)


@pytest.mark.parametrize("kind", [rc.HINGE, rc.LOGISTIC])
def test_train_matches_grid_search_2d(kind):
    K = np.array([[1.0, 0.3], [0.3, 1.0]])
    y = np.array([1.0, -1.0])
    lam_abs, E = 1.4, 2.0
    alpha_grid, val_grid = oracles.grid_max_dual_2d(K, y, lam_abs / E, kind,
                                                    steps=400)
    model = rc.train(K, y, lam_abs, kind=kind, tol=1e-12)
    np.testing.assert_allclose(model.alpha, alpha_grid, atol=5e-3)
    assert sum_dual(K, y, [1, 1], [1, 1], lam_abs, kind, model.alpha) >= \
        E * val_grid - 1e-9


def test_train_deterministic(rbf_task):
    ds, K, lam_abs = rbf_task
    m1 = rc.train(K, ds.labels, lam_abs, kind=rc.LOGISTIC)
    m2 = rc.train(K, ds.labels, lam_abs, kind=rc.LOGISTIC)
    assert np.array_equal(m1.alpha, m2.alpha)


def test_train_rejects_empty_active():
    K = np.eye(2)
    with pytest.raises(ValueError):
        rc.train(K, np.array([1.0, -1.0]), 1.0, v=np.zeros(2))


def test_train_rejects_a_mask_outside_0_1():
    # a fractional mask entry was read as 1: v = 0.5 trained the v = 1 model
    ds = rc.gaussian_task(40, 3, seed=1)
    K = rc.gram(ds.features, ds.features, rc.bandwidth_heuristic(ds.features))
    for v in (np.full(ds.n, 0.5), np.append(np.ones(ds.n - 1), -1.0),
              np.append(np.ones(ds.n - 1), math.nan)):
        with pytest.raises(ValueError, match="0/1"):
            rc.train(K, ds.labels, 2.0, v=v, kind=rc.HINGE)


def test_train_rejects_nonpositive_weights():
    K = np.eye(2)
    with pytest.raises(ValueError):
        rc.train(K, np.array([1.0, -1.0]), 1.0, w=np.array([1.0, 0.0]))


@pytest.mark.parametrize("v, w, match", [
    ("n-1", None, "mask length"),
    ("n+1", None, "mask length"),
    (None, "n-1", "weight length"),
    (None, math.nan, "finite and positive"),
    (None, math.inf, "finite and positive"),
], ids=["v-short", "v-long", "w-short", "w-nan", "w-inf"])
def test_train_rejects_a_bad_mask_or_weight_before_any_pass(v, w, match,
                                                             monkeypatch):
    # a short mask trained on n - 1 instances and a long one raised
    # IndexError; a NaN or inf weight ran every pass to a TrainingError
    ds = rc.gaussian_task(40, 3, seed=1)
    K = rc.gram(ds.features, ds.features, rc.bandwidth_heuristic(ds.features))
    sizes = {"n-1": ds.n - 1, "n+1": ds.n + 1}
    v = None if v is None else np.ones(sizes[v])
    if isinstance(w, str):
        w = np.ones(sizes[w])
    elif w is not None:
        w = np.append(np.ones(ds.n - 1), w)

    def no_pass(n_active):
        raise AssertionError("training started")

    monkeypatch.setattr(erm, "_max_passes", no_pass)
    with pytest.raises(ValueError, match=match):
        rc.train(K, ds.labels, 2.0, v=v, w=w, kind=rc.HINGE)


def test_train_ignores_the_weight_of_a_removed_instance():
    # only kept instances' weights enter the problem
    ds = rc.gaussian_task(40, 3, seed=1)
    K = rc.gram(ds.features, ds.features, rc.bandwidth_heuristic(ds.features))
    v = np.append(np.ones(ds.n - 1), 0.0)
    ref = rc.train(K, ds.labels, 2.0, v=v, kind=rc.HINGE)
    for bad in (math.nan, math.inf, 0.0):
        w = np.append(np.ones(ds.n - 1), bad)
        model = rc.train(K, ds.labels, 2.0, v=v, w=w, kind=rc.HINGE)
        assert model.alpha.tobytes() == ref.alpha.tobytes()


def test_train_nonconvergence_carries_best_gap(rbf_task, monkeypatch):
    ds, K, lam_abs = rbf_task
    monkeypatch.setattr(erm, "_max_passes", lambda n_active: 1)
    with pytest.raises(TrainingError, match="after 1 passes") as err:
        rc.train(K, ds.labels, lam_abs, kind=rc.LOGISTIC, tol=1e-14)
    assert err.value.best_gap is not None and err.value.best_gap > 0


def test_train_pass_cap():
    assert erm._max_passes(1) == 4_000_000
    assert erm._max_passes(3_999) == 1001
    assert erm._max_passes(4_000) == erm._max_passes(10**6) == 1000


def _random_training_problem(seed, kind, kernel):
    rng = np.random.default_rng([seed, kind == rc.HINGE, kernel == "rbf"])
    n = int(rng.integers(5, 70))
    X = rng.standard_normal((n, 3)) * rng.uniform(0.3, 3.0)
    y = np.where(rng.random(n) < rng.uniform(0.2, 0.8), 1.0, -1.0)
    if kernel == "linear":
        X[rng.integers(n)] = 0.0  # a zero row: s_j = 0 for that coordinate
        K = X @ X.T
    else:
        K = rc.gram(X, X, float(rng.uniform(0.5, 3.0)))
    v = (rng.random(n) < 0.8).astype(float)
    v[rng.integers(n)] = 1.0
    w = rng.uniform(0.3, 2.5, n) if seed % 2 else np.ones(n)
    return K, y, v, w, n * 10 ** rng.uniform(-2.0, 0.5)


@pytest.mark.parametrize("kernel", ["linear", "rbf"])
@pytest.mark.parametrize("kind", [rc.HINGE, rc.LOGISTIC])
def test_train_bit_identical_to_reference_loop(kind, kernel, monkeypatch):
    problems = [_random_training_problem(seed, kind, kernel)
                for seed in range(12)]
    if (kind, kernel) == (rc.LOGISTIC, "rbf"):
        # these converge within 14 passes; a weaker lam takes 195
        K, y, v, w, _ = problems[1]
        problems.append((K, y, v, w, 1e-3 * len(y)))
    # every pass evaluates the loss once: count the passes of each
    # training, so that some problem trains past the refresh of yf every
    # 64 passes and reads the refreshed array
    loss_eval, passes = erm.loss_eval, []
    monkeypatch.setattr(erm, "loss_eval",
                        lambda *args: passes.append(1) or loss_eval(*args))
    most = 0
    for seed, (K, y, v, w, lam_abs) in enumerate(problems):
        for max_passes in (2, 1000):
            monkeypatch.setattr(erm, "_max_passes", lambda n_active: max_passes)
            try:
                ref = oracles.reference_train(K, y, lam_abs, v, w, kind,
                                              max_passes=max_passes)
            except TrainingError as exc:
                passes.clear()
                with pytest.raises(TrainingError) as err:
                    rc.train(K, y, lam_abs, v=v, w=w, kind=kind)
                most = max(most, len(passes))
                assert err.value.best_gap == exc.best_gap, (seed, max_passes)
                continue
            passes.clear()
            model = rc.train(K, y, lam_abs, v=v, w=w, kind=kind)
            most = max(most, len(passes))
            assert model.alpha.tobytes() == ref[0].tobytes(), seed
            assert model.rep_coef.tobytes() == ref[1].tobytes(), seed
            assert model.certified_gap == ref[2], seed
    assert most > 64


@pytest.mark.parametrize("kind", [rc.HINGE, rc.LOGISTIC])
def test_train_has_the_copying_trainers_bytes_in_every_layout(kind,
                                                              monkeypatch):
    # with every instance active the trainer reads a C-ordered K in place
    # and copies any other layout, as the reference loop copies every K:
    # the same model arrays for C-ordered, Fortran-ordered and strided K
    monkeypatch.setattr(erm, "_max_passes", lambda n_active: 1000)
    for seed in range(6):
        K, y, _, _, lam_abs = _random_training_problem(seed, kind, "rbf")
        n = len(y)
        spaced = np.zeros((2 * n, 2 * n))
        spaced[::2, ::2] = K
        for layout in (K, np.asfortranarray(K), spaced[::2, ::2]):
            alpha, rep_coef, gap = oracles.reference_train(
                layout, y, lam_abs, np.ones(n), np.ones(n), kind)
            for v in (None, np.ones(n)):
                model = rc.train(layout, y, lam_abs, v=v, kind=kind)
                assert model.alpha.tobytes() == alpha.tobytes(), seed
                assert model.rep_coef.tobytes() == rep_coef.tobytes(), seed
                assert model.certified_gap == gap, seed
                assert model.train_scores.tobytes() == \
                    (layout @ rep_coef).tobytes(), seed
                assert model.gram_ref is layout


def test_train_on_every_instance_holds_one_matrix_above_K(peak_bytes):
    # every instance active: the trainer reads K in place, so its one n x n
    # array is YK, and the rest is O(n); the copy of K it took before
    # raised the peak to about 2 n^2
    rng = np.random.default_rng(14)
    n = 1000
    X = rng.standard_normal((n, 4))
    K = rc.gram(X, X, 4.0)
    y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    # tol = inf stops after one pass
    assert peak_bytes(rc.train, K, y, float(n), kind=rc.HINGE,
                      tol=math.inf) <= 1.25 * 8 * n * n


def test_evaluate_gap_at_reference(hinge_model):
    n = hinge_model.n
    gap = rc.quadratic_form(hinge_model).value(np.ones(n))
    assert gap <= 1e-8 and gap >= -1e-10


@pytest.mark.parametrize("kind", [rc.HINGE, rc.LOGISTIC])
def test_evaluate_gap_matches_loop_oracle(kind):
    rng = np.random.default_rng(11)
    X = rng.standard_normal((3, 2))
    ds = rc.Dataset.from_arrays(X, [1, -1, 1])
    K = rc.gram(ds.features, ds.features, 1.5)
    lam_abs = 1.2
    model = rc.train(K, ds.labels, lam_abs, kind=kind, tol=1e-12)
    v = np.array([1.0, 1.0, 0.0])
    w = np.array([1.1, 0.9, 1.0])
    gap = rc.quadratic_form(model).value(v * w)
    # the oracles are normalized: E times their value at lam_abs / E is the
    # sum-form value at lam_abs
    E = float(v @ w)
    p_ref = E * oracles.primal_value(K.tolist(), ds.labels.tolist(), v.tolist(),
                                     w.tolist(), lam_abs / E, kind,
                                     model.rep_coef.tolist())
    d_ref = E * oracles.dual_value(K.tolist(), ds.labels.tolist(), v.tolist(),
                                   w.tolist(), lam_abs / E, kind,
                                   model.alpha.tolist())
    assert gap == pytest.approx(p_ref - d_ref, abs=1e-10)


def test_evaluate_gap_weak_duality_random(hinge_model):
    rng = np.random.default_rng(5)
    n = hinge_model.n
    form = rc.quadratic_form(hinge_model)
    for _ in range(25):
        v = (rng.random(n) > 0.3).astype(float)
        if v.sum() == 0:
            v[0] = 1.0
        w = rng.uniform(0.5, 1.5, n)
        assert form.value(v * w) >= -1e-10


def test_hinge_coordinate_optimality(hinge_model):
    n = hinge_model.n
    base = sum_dual(hinge_model.gram_ref, hinge_model.y, np.ones(n),
                    np.ones(n), hinge_model.lam_abs, rc.HINGE, hinge_model.alpha)
    for i in range(n):
        for delta in (1e-3, -1e-3):
            alpha = hinge_model.alpha.copy()
            alpha[i] = min(1.0, max(0.0, alpha[i] + delta))
            perturbed = sum_dual(hinge_model.gram_ref, hinge_model.y,
                                 np.ones(n), np.ones(n),
                                 hinge_model.lam_abs, rc.HINGE, alpha)
            assert perturbed <= base + 1e-9


def test_rkhs_norm_identity_linear_kernel():
    rng = np.random.default_rng(23)
    X = rng.standard_normal((20, 4))
    y = np.sign(X[:, 0] + 0.1 * rng.standard_normal(20))
    y[y == 0] = 1
    K = rc.gram(X, X, None)
    model = rc.train(K, y, 10.0, kind=rc.LOGISTIC, tol=1e-10)
    beta_explicit = X.T @ model.rep_coef
    assert float(model.rep_coef @ model.train_scores) == pytest.approx(
        float(beta_explicit @ beta_explicit), abs=1e-8)


def test_logistic_dual_gradient_finite_differences():
    rng = np.random.default_rng(29)
    X = rng.standard_normal((6, 3))
    y = np.array([1, -1, 1, -1, 1, -1], dtype=float)
    K = rc.gram(X, X, 1.0)
    lam_abs = 3.6
    v = np.ones(6)
    w = rng.uniform(0.5, 1.5, 6)
    alpha = rng.uniform(0.2, 0.8, 6)
    z = v * w * y * alpha
    yf = y * (K @ z) / lam_abs
    h = 1e-5
    for j in range(6):
        up, down = alpha.copy(), alpha.copy()
        up[j] += h
        down[j] -= h
        fd = (sum_dual(K, y, v, w, lam_abs, rc.LOGISTIC, up) -
              sum_dual(K, y, v, w, lam_abs, rc.LOGISTIC, down)) / (2 * h)
        analytic = -w[j] * (math.log(alpha[j] / (1 - alpha[j])) + yf[j])
        assert fd == pytest.approx(analytic, rel=1e-5, abs=1e-8)


def test_decision_scores_zero_alpha(rbf_task):
    ds, K, lam_abs = rbf_task
    model = rc.train(K, ds.labels, lam_abs, kind=rc.HINGE)
    zeroed = rc.Model(alpha=np.zeros(ds.n), lam_abs=model.lam_abs,
                      loss=model.loss, gram_ref=K, certified_gap=0.0,
                      y=model.y, rep_coef=np.zeros(ds.n),
                      train_scores=np.zeros(ds.n))
    np.testing.assert_array_equal(rc.decision_scores(zeroed, K), np.zeros(ds.n))


def test_decision_scores_single_point():
    K = np.array([[1.0]])
    model = rc.Model(alpha=np.array([0.5]), lam_abs=1.0, loss=rc.HINGE,
                     gram_ref=K, certified_gap=0.0, y=np.array([1.0]),
                     rep_coef=np.array([0.5]), train_scores=np.array([0.5]))
    scores = rc.decision_scores(model, np.array([[2.0]]))
    assert scores[0] == pytest.approx(1.0)
    with pytest.raises(ValueError):
        rc.decision_scores(model, np.ones((3, 2)))


def test_normalized_and_sum_form_share_optimum(rbf_task):
    """The normalized problem at lam is the sum-form problem at lam * E:
    scaling every weight and lam_abs by one factor keeps the optimum."""
    ds, K, lam_abs = rbf_task
    model = rc.train(K, ds.labels, lam_abs, kind=rc.HINGE, tol=1e-10)
    scaled = rc.train(K, ds.labels, 3.0 * lam_abs, w=np.full(ds.n, 3.0),
                      kind=rc.HINGE, tol=1e-10)
    np.testing.assert_allclose(scaled.rep_coef, model.rep_coef, atol=1e-6)
    margins = ds.labels * model.train_scores
    on_margin = np.abs(margins - 1.0) < 1e-6
    assert np.all((model.alpha >= 1 - 1e-8) | (margins > 1 - 1e-6) | on_margin)
