import numpy as np
import pytest

import robustcoreset as rc
from robustcoreset import bound
from robustcoreset.select import (_herding_order, _kcenter_order,
                                  baseline_select)

import oracles


def random_psd_form(rng, dim, scale=1.0):
    M = rng.standard_normal((dim, dim))
    A = M @ M.T / dim * scale
    b = rng.standard_normal(dim)
    return rc.QuadraticGapForm(A=A, b=b, c=float(rng.standard_normal()))


def labels(n):
    y = np.ones(n)
    y[n // 2:] = -1
    return y


def worst(form, S):
    """Full-set worst-case weight, the fixed-w and one-shot selectors' input."""
    return rc.maximize_on_ball(form, np.ones(form.n), S).w_star


def test_greedy_exact_zero_deletions():
    rng = np.random.default_rng(0)
    form = random_psd_form(rng, 4)
    trace = rc.greedy_exact(form, labels(4), 0.5, 0)
    assert trace.removal_order == [] and trace.gaps == []
    np.testing.assert_array_equal(trace.kept_mask(), np.ones(4))


def test_greedy_exact_retained_count():
    rng = np.random.default_rng(1)
    form = random_psd_form(rng, 7)
    trace = rc.greedy_exact(form, labels(7), 0.4, 3)
    assert trace.kept_mask().sum() == 4
    assert len(set(trace.removal_order)) == 3


def test_greedy_exact_first_removal_matches_bruteforce():
    rng = np.random.default_rng(2)
    form = random_psd_form(rng, 4)
    S = 0.6
    trace = rc.greedy_exact(form, labels(4), S, 2)
    dg_values = []
    for i in range(4):
        active = np.ones(4, dtype=bool)
        active[i] = False
        At, g, const = form.reduced(active)
        best, _ = oracles.ball_max_oracle(At, g, const, S,
                                          n_samples=300_000, seed=i,
                                          polish_iters=20_000)
        dg_values.append(best)
    assert trace.removal_order[0] == int(np.argmin(dg_values))
    assert trace.gaps[0] == pytest.approx(min(dg_values), abs=1e-6)


def test_greedy_exact_step_is_minimal():
    rng = np.random.default_rng(3)
    form = random_psd_form(rng, 6)
    S = 0.5
    y = labels(6)
    trace = rc.greedy_exact(form, y, S, 3)
    v = np.ones(6)
    for step, chosen in enumerate(trace.removal_order):
        for j in np.flatnonzero(v > 0):
            v[j] = 0.0
            dg_j = rc.maximize_on_ball(oracles.memo_free(form), v, S).dg_max
            v[j] = 1.0
            assert trace.gaps[step] <= dg_j + 1e-9
        v[chosen] = 0.0


def test_greedy_exact_and_fixed_w_agree_without_shift():
    rng = np.random.default_rng(4)
    form = random_psd_form(rng, 6)
    y = labels(6)
    exact = rc.greedy_exact(form, y, 0.0, 3)
    fixed = rc.greedy_fixed_w(form, y, worst(form, 0.0), 3)
    assert exact.removal_order == fixed.removal_order
    for dg_a, dg_b in zip(exact.gaps, fixed.gaps):
        assert dg_a == pytest.approx(dg_b, abs=1e-10)


def test_greedy_exact_removes_inert_instances_by_index(hinge_model, rbf_task):
    # an inert instance (alpha = 0, zero loss) leaves the ball maximum
    # unchanged, so all of them tie and go first, smallest index first
    ds, _, _ = rbf_task
    form = rc.quadratic_form(hinge_model)
    inert = np.flatnonzero(~form.live)
    S = rc.shift_radius(ds.n_plus, 1.05)
    trace = rc.greedy_exact(form, ds.labels, S, inert.size)
    assert trace.removal_order == inert.tolist()
    full = rc.maximize_on_ball(oracles.memo_free(form), np.ones(ds.n),
                               S).dg_max
    assert trace.gaps == [full] * inert.size


def assert_matches_fresh_greedy(form, y, S, n_del, preserve_classes=False):
    trace = rc.greedy_exact(form, y, S, n_del,
                            preserve_classes=preserve_classes)
    order, gaps = oracles.greedy_exact_fresh(rc.maximize_on_ball, form, y, S,
                                             n_del, preserve_classes)
    assert trace.removal_order == order
    for got, ref in zip(trace.gaps, gaps):
        assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))


def test_greedy_exact_matches_a_fresh_solve_per_candidate(hinge_model, rbf_task):
    # one spectral step per removal serves every candidate's solve; the
    # orders must be those of a fresh solve per candidate, down to one
    # kept instance (m = 2 -> 1 and 1 -> 0) and through dead coordinates
    rng = np.random.default_rng(7)
    for dim, S in ((5, 0.3), (8, 1.5), (10, 30.0)):
        form = random_psd_form(rng, dim)
        assert_matches_fresh_greedy(form, labels(dim), S, dim - 1)
        A = form.A.copy()
        dead = rng.choice(dim, size=2, replace=False)
        A[dead, :] = A[:, dead] = 0.0
        b = form.b.copy()
        b[dead] = 0.0
        assert_matches_fresh_greedy(rc.QuadraticGapForm(A=A, b=b, c=form.c),
                                    labels(dim), S, dim - 1)
    ds, _, _ = rbf_task
    form = rc.quadratic_form(hinge_model)
    S = rc.shift_radius(ds.n_plus, 1.05)
    assert_matches_fresh_greedy(form, ds.labels, S, 30)
    assert_matches_fresh_greedy(form, ds.labels, 3.0 * S, 12,
                                preserve_classes=True)
    # an all-live logistic form: every candidate is a row of a batch
    ds = rc.gaussian_task(40, 3, seed=1)
    K = rc.gram(ds.features, ds.features, rc.bandwidth_heuristic(ds.features))
    form = rc.quadratic_form(rc.train(K, ds.labels, 2.0, kind=rc.LOGISTIC))
    assert form.live.all()
    assert_matches_fresh_greedy(form, ds.labels,
                                rc.shift_radius(ds.n_plus, 1.05), 8)


def test_greedy_exact_takes_one_eigh_per_changed_kept_set(hinge_model, rbf_task,
                                                          monkeypatch):
    # a step takes an eigendecomposition only when the last removal was
    # live; an inert removal leaves the solved set, and the step, as it was.
    # The kept set's own secular solve runs once per step that scores an
    # inert candidate, not once per inert candidate, and the live
    # candidates' bordered solves run as one batch per step, however many
    # removals (inert ones) the step serves.
    ds, _, _ = rbf_task
    form = rc.quadratic_form(hinge_model)
    S = rc.shift_radius(ds.n_plus, 1.05)
    eigh, calls = np.linalg.eigh, []
    own_secular, own = bound._own_secular, []
    bordered_batch, batches = bound._bordered_batch, []

    def counting_eigh(a):
        calls.append(a.shape[0])
        return eigh(a)

    def counting_own(*args):
        own.append(args[1])
        return own_secular(*args)

    def counting_batch(*args):
        batches.append(args[1])
        return bordered_batch(*args)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    monkeypatch.setattr(bound, "_own_secular", counting_own)
    monkeypatch.setattr(bound, "_bordered_batch", counting_batch)
    trace = rc.greedy_exact(form, ds.labels, S, 25)
    order = trace.removal_order
    live_before_last = int(form.live[order[:-1]].sum())
    assert live_before_last > 0
    assert len(calls) == 1 + live_before_last
    # every step has live candidates; inert removals leave them unsolved
    assert batches == [S] * len(calls)
    assert len(order) > len(calls)
    # per removal: the live removals before it (naming its step) and the
    # inert candidates it scores
    steps = [frozenset(i for i in order[:k] if form.live[i])
             for k in range(len(order))]
    inert = [int(np.sum(~form.live)) - int(np.sum(~form.live[order[:k]]))
             for k in range(len(order))]
    steps_scoring_inert = len({s for s, n in zip(steps, inert) if n})
    assert sum(inert) > steps_scoring_inert > 0
    assert own == [S] * steps_scoring_inert
    calls.clear()
    own.clear()
    batches.clear()
    rc.greedy_exact(form, ds.labels, 0.0, 5)
    assert calls == [] and own == [] and batches == []


def test_greedy_fixed_w_values_match_loop_evaluator():
    rng = np.random.default_rng(5)
    form = random_psd_form(rng, 6)
    y = labels(6)
    S = 0.7
    w_worst = worst(form, S)
    trace = rc.greedy_fixed_w(form, y, w_worst, 3)
    v = np.ones(6)
    for step, chosen in enumerate(trace.removal_order):
        v[chosen] = 0.0
        vw = v * w_worst
        loop = oracles.quad_value(form.A.tolist(), form.b.tolist(), form.c, vw)
        assert trace.gaps[step] == pytest.approx(loop, abs=1e-9)


def test_greedy_fixed_w_degenerate_ball_uses_unit_weights():
    rng = np.random.default_rng(6)
    form = random_psd_form(rng, 5)
    y = labels(5)
    trace = rc.greedy_fixed_w(form, y, worst(form, 0.0), 2)
    v = np.ones(5)
    v[trace.removal_order[0]] = 0.0
    assert trace.gaps[0] == pytest.approx(form.value(v), abs=1e-10)


def test_greedy_oneshot_first_removal_matches_fixed_w():
    rng = np.random.default_rng(7)
    form = random_psd_form(rng, 6)
    y = labels(6)
    one = rc.greedy_oneshot(form, y, worst(form, 0.5), 1)
    fixed = rc.greedy_fixed_w(form, y, worst(form, 0.5), 1)
    assert one.removal_order == fixed.removal_order


def test_greedy_oneshot_tie_breaks_by_index():
    form = rc.QuadraticGapForm(A=np.zeros((5, 5)), b=np.ones(5) * 2.0, c=0.0)
    for fn, ball in ((rc.greedy_exact, 0.0), (rc.greedy_fixed_w, np.ones(5)),
                     (rc.greedy_oneshot, np.ones(5))):
        trace = fn(form, labels(5), ball, 3)
        assert trace.removal_order == [0, 1, 2], fn.__name__


def test_greedy_oneshot_removes_bottom_scores():
    rng = np.random.default_rng(8)
    form = random_psd_form(rng, 7)
    y = labels(7)
    S = 0.4
    w_worst = worst(form, S)
    trace = rc.greedy_oneshot(form, y, w_worst, 3)
    scores = []
    for i in range(7):
        v = np.ones(7)
        v[i] = 0.0
        scores.append(oracles.quad_value(form.A.tolist(), form.b.tolist(),
                                         form.c, v * w_worst))
    expected = set(np.argsort(scores, kind="stable")[:3].tolist())
    assert set(trace.removal_order) == expected


def test_margin_baseline_keeps_boundary_point():
    K = np.eye(3)
    model = None
    scores = np.array([0.1, 2.0, -0.5])
    y = np.array([1.0, 1.0, -1.0])
    dummy = rc.Model(alpha=np.zeros(3), lam_abs=1.0, loss=rc.HINGE,
                     gram_ref=K, certified_gap=0.0, y=y,
                     rep_coef=np.zeros(3), train_scores=scores)
    trace = baseline_select("margin", K, y, dummy, 2, seed=0)
    assert trace.removal_order == [1, 2]
    assert trace.kept_indices().tolist() == [0]


def test_random_baseline_deterministic():
    K = np.eye(10)
    y = labels(10)
    t1 = baseline_select("random", K, y, None, 4, seed=123)
    t2 = baseline_select("random", K, y, None, 4, seed=123)
    assert t1.removal_order == t2.removal_order
    t3 = baseline_select("random", K, y, None, 4, seed=124)
    assert t1.removal_order != t3.removal_order


def test_herding_first_pick_enumeration(rbf_task):
    ds, K, _ = rbf_task
    K3 = K[:3, :3]
    order = _herding_order(K3)
    sims = [sum(K3[i][j] for j in range(3)) / 3 for i in range(3)]
    assert order[0] == int(np.argmax(sims))


def test_kcenter_seeds_at_mean_and_covers(rbf_task):
    ds, K, _ = rbf_task
    order = _kcenter_order(K)
    diag = np.diag(K)
    centrality = diag - 2.0 * K.mean(axis=1)
    assert order[0] == int(np.argmin(centrality))
    assert sorted(order) == list(range(ds.n))
    kept = order[:10]
    d2 = diag[:, None] + diag[None, kept] - 2.0 * K[:, kept]
    cover_10 = np.sqrt(np.clip(d2.min(axis=1), 0, None)).max()
    kept5 = order[:5]
    d2 = diag[:, None] + diag[None, kept5] - 2.0 * K[:, kept5]
    cover_5 = np.sqrt(np.clip(d2.min(axis=1), 0, None)).max()
    assert cover_10 <= cover_5 + 1e-12


def test_unknown_baseline_rejected():
    with pytest.raises(ValueError):
        baseline_select("glister", np.eye(3), labels(3), None, 1)


@pytest.mark.parametrize("method", ["random", "kcenter", "herding", "margin"])
def test_preserve_classes(method):
    rng = np.random.default_rng(11)
    X = rng.standard_normal((8, 2))
    y = np.array([1.0] + [-1.0] * 7)
    K = rc.gram(X, X, 2.0)
    # margin would remove the lone positive (largest |score|) first
    scores = np.arange(8.0, 0.0, -1.0)
    dummy = rc.Model(alpha=np.zeros(8), lam_abs=1.0, loss=rc.HINGE,
                     gram_ref=K, certified_gap=0.0, y=y,
                     rep_coef=np.zeros(8), train_scores=scores)
    for seed in range(5):
        trace = baseline_select(method, K, y, dummy, 6, seed=seed,
                                preserve_classes=True)
        kept = trace.kept_indices()
        assert (y[kept] > 0).any() and (y[kept] < 0).any()
        assert kept.size == 2


def test_preserve_classes_greedy():
    rng = np.random.default_rng(12)
    form = random_psd_form(rng, 6)
    y = np.array([1.0] + [-1.0] * 5)
    for fn, ball in ((rc.greedy_exact, 0.3), (rc.greedy_fixed_w, worst(form, 0.3)),
                     (rc.greedy_oneshot, worst(form, 0.3))):
        trace = fn(form, y, ball, 4, preserve_classes=True)
        kept = trace.kept_indices()
        assert (y[kept] > 0).any() and (y[kept] < 0).any()


def test_fixed_w_gaps_never_exceed_ball_max(rbf_task, hinge_model):
    # the fixed weight restricted to the kept set is feasible for the kept
    # set's ball problem, so these gaps are lower estimates, not bounds
    ds, _, _ = rbf_task
    form = rc.quadratic_form(hinge_model)
    S = 0.4
    w_worst = worst(form, S)
    for fn in (rc.greedy_fixed_w, rc.greedy_oneshot):
        trace = fn(form, ds.labels, w_worst, 20)
        assert len(trace.gaps) == 20
        for k in range(1, 21):
            dg_max = rc.maximize_on_ball(form, trace.kept_mask(k), S).dg_max
            assert trace.gaps[k - 1] <= dg_max + 1e-9, (fn.__name__, k)


@pytest.mark.parametrize("fn", [rc.greedy_fixed_w, rc.greedy_oneshot])
def test_fixed_weight_selectors_remove_dead_instances_first(rbf_task,
                                                            hinge_model, fn):
    # a dead instance (for hinge, a non-support vector) moves neither q nor
    # the fixed-weight state: both scorers take every dead one first, in
    # index order, and then rank the live ones by their fixed-weight value
    ds, _, _ = rbf_task
    form = rc.quadratic_form(hinge_model)
    dead = np.flatnonzero(~form.live).tolist()
    assert 0 < len(dead) < form.n - 5
    w_worst = worst(form, 0.4)
    trace = fn(form, ds.labels, w_worst, len(dead) + 5)
    assert trace.removal_order[:len(dead)] == dead
    assert trace.gaps[:len(dead)] == [form.value(w_worst)] * len(dead)
    if fn is rc.greedy_oneshot:
        single = {i: form.value(np.where(np.arange(form.n) == i, 0.0,
                                         w_worst))
                  for i in np.flatnonzero(form.live)}
        live = sorted(single, key=lambda i: (single[i], i))
        assert trace.removal_order[len(dead):] == live[:5]
    for k in range(len(dead), len(dead) + 5):
        v = trace.kept_mask(k)
        after = {i: form.value(np.where(np.arange(form.n) == i, 0.0, v)
                               * w_worst) for i in np.flatnonzero(v)}
        chosen = trace.removal_order[k]
        assert trace.gaps[k] == pytest.approx(after[chosen], abs=1e-9)
        if fn is rc.greedy_fixed_w:
            assert after[chosen] <= min(after.values()) + 1e-9


def test_trace_serialization_roundtrip():
    rng = np.random.default_rng(13)
    form = random_psd_form(rng, 5)
    trace = rc.greedy_oneshot(form, labels(5), worst(form, 0.2), 2)
    d = trace.to_dict()
    assert d["method"] == "robust-oneshot"
    assert len(d["removal_order"]) == len(d["gaps"]) == 2
    assert all(isinstance(i, int) for i in d["removal_order"])


def test_budget_validation():
    rng = np.random.default_rng(14)
    form = random_psd_form(rng, 4)
    with pytest.raises(ValueError):
        rc.greedy_exact(form, labels(4), 0.1, 4)
    with pytest.raises(ValueError):
        rc.greedy_oneshot(form, labels(4), worst(form, 0.1), -1)


def fixed_order_reference(order, y, n_del, preserve_classes):
    """First n_del entries of ``order``, skipping any instance whose removal
    would empty its class when classes are preserved; None if too few."""
    left = {1.0: int(np.sum(y == 1.0)), -1.0: int(np.sum(y == -1.0))}
    removed = []
    for i in order:
        if len(removed) == n_del:
            break
        if preserve_classes and left[y[i]] == 1:
            continue
        left[y[i]] -= 1
        removed.append(int(i))
    return removed if len(removed) == n_del else None


@pytest.mark.parametrize("method",
                         ["random", "margin", "kcenter", "herding", "oneshot"])
def test_fixed_order_selectors_match_reference(method):
    rng = np.random.default_rng(15)
    for trial in range(40):
        n = int(rng.integers(3, 16))
        y = np.where(rng.random(n) < rng.uniform(0.1, 0.9), 1.0, -1.0)
        X = rng.standard_normal((n, 2))
        K = rc.gram(X, X, 1.5)
        scores = np.round(rng.standard_normal(n), 1)  # ties on purpose
        model = rc.Model(alpha=np.zeros(n), lam_abs=1.0, loss=rc.HINGE,
                         gram_ref=K, certified_gap=0.0, y=y,
                         rep_coef=np.zeros(n), train_scores=scores)
        form = random_psd_form(rng, n)
        w_worst = worst(form, 0.5)
        single = [form.value(np.where(np.arange(n) == i, 0.0, w_worst))
                  for i in range(n)]
        order = {"random": np.random.default_rng(trial).permutation(n),
                 "margin": np.argsort(-np.abs(scores), kind="stable"),
                 "kcenter": _kcenter_order(K)[::-1],
                 "herding": _herding_order(K)[::-1],
                 "oneshot": np.argsort(single, kind="stable")}[method]
        for preserve in (False, True):
            n_del = int(rng.integers(0, n))
            expected = fixed_order_reference(order, y, n_del, preserve)
            try:
                if method == "oneshot":
                    trace = rc.greedy_oneshot(form, y, w_worst, n_del,
                                              preserve_classes=preserve)
                else:
                    trace = baseline_select(method, K, y, model, n_del,
                                            seed=trial,
                                            preserve_classes=preserve)
            except ValueError:
                trace = None
            assert expected is None or trace is not None, (trial, preserve)
            assert trace is None or trace.removal_order == expected, \
                (trial, preserve)


def test_exhausted_pool_raises_one_error():
    rng = np.random.default_rng(16)
    form = random_psd_form(rng, 4)
    y = np.array([1.0, -1.0, -1.0, -1.0])
    K = np.eye(4)
    model = rc.Model(alpha=np.zeros(4), lam_abs=1.0, loss=rc.HINGE,
                     gram_ref=K, certified_gap=0.0, y=y,
                     rep_coef=np.zeros(4), train_scores=np.arange(4.0))
    w_worst = worst(form, 0.3)
    # three removals would leave a single instance, one class gone
    runs = [lambda: rc.greedy_exact(form, y, 0.3, 3, preserve_classes=True),
            lambda: rc.greedy_fixed_w(form, y, w_worst, 3, preserve_classes=True),
            lambda: rc.greedy_oneshot(form, y, w_worst, 3, preserve_classes=True)]
    runs += [lambda m=m: baseline_select(m, K, y, model, 3,
                                         preserve_classes=True)
             for m in ("random", "herding", "kcenter", "margin")]
    messages = set()
    for run in runs:
        with pytest.raises(ValueError) as err:
            run()
        messages.add(str(err.value))
    assert len(messages) == 1, messages
