"""Nuisance learners: regressions, propensities, simplex-weighted stacks."""

import math
import tracemalloc

import numpy as np
import pytest

from seqdr import nuisance
from seqdr.numerics import DomainError
from seqdr.nuisance import (
    LearnerSpec,
    fit_ensemble,
    fit_outcome,
    fit_propensity,
    project_simplex,
)
from seqdr.splitting import NotReady


# Reference copies of the sort/cumsum projection and the fixed 500-step
# descent that the faster code must reproduce bit for bit.
def _reference_project_simplex(v):
    v = np.asarray(v, dtype=float)
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    rho = np.nonzero(u * np.arange(1, len(v) + 1) > (css - 1.0))[0][-1]
    theta = (css[rho] - 1.0) / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def _reference_tune_weights(preds, target, loss, delta):
    m, kk = preds.shape
    if loss == "log":
        pc = np.clip(preds, delta, 1.0 - delta)

        def loss_fn(w):
            q = np.clip(pc @ w, 1e-12, 1.0 - 1e-12)
            return -np.mean(target * np.log(q) + (1.0 - target) * np.log1p(-q))

        def grad_fn(w):
            q = np.clip(pc @ w, 1e-12, 1.0 - 1e-12)
            return pc.T @ ((q - target) / (q * (1.0 - q))) / m

        lam = float(np.linalg.eigvalsh(pc.T @ pc / m).max())
        lip = lam / max(delta * (1.0 - delta), 1e-4) ** 2
    else:

        def loss_fn(w):
            r = preds @ w - target
            return float(r @ r) / m

        def grad_fn(w):
            return 2.0 * preds.T @ (preds @ w - target) / m

        lip = 2.0 * float(np.linalg.eigvalsh(preds.T @ preds / m).max())

    vertex_losses = [loss_fn(np.eye(kk)[j]) for j in range(kk)]
    w = np.eye(kk)[int(np.argmin(vertex_losses))].copy()
    if lip <= 0.0 or not math.isfinite(lip):
        return w
    step = 1.0 / lip
    best_w, best_l = w.copy(), loss_fn(w)
    for _ in range(500):
        w = _reference_project_simplex(w - step * grad_fn(w))
        cur = loss_fn(w)
        if cur < best_l:
            best_l, best_w = cur, w.copy()
    return best_w


# Reference copies of the direct predictor arithmetic that the faster code
# must reproduce bit for bit: the spline's per-coordinate hinge loop, and
# k-NN distances that recompute the training norms on every call.
def _reference_spline_basis(knots, x):
    cols = [x, x * x]
    for j in range(x.shape[1]):
        cols.append(np.maximum(0.0, x[:, j : j + 1] - knots[j]))
    return np.hstack(cols)


def _reference_knn(xs, ys, k, q):
    d2 = (np.sum(q * q, axis=1)[:, None] - 2.0 * q @ xs.T
          + np.sum(xs * xs, axis=1)[None, :])
    idx = np.argpartition(d2, k - 1, axis=1)[:, :k]
    return ys[idx].mean(axis=1)


def _holdout_problems():
    """Synthetic tuning folds, (name, preds, target, loss): for each loss
    one whose best vertex is a fixed point of the step map and one with
    an interior optimum."""
    rng = np.random.default_rng(11)
    m = 60
    t = rng.standard_normal(m)
    p = rng.uniform(0.2, 0.8, m)
    labels = (rng.random(m) < p).astype(float)
    # the mean predictor is best; every other candidate moves against t
    sq_vertex = np.column_stack([
        np.full(m, t.mean()), -0.5 * t,
        -0.8 * t + 0.1 * rng.standard_normal(m),
        -0.5 * t + 0.3 * rng.standard_normal(m)])
    sq_interior = np.column_stack(
        [t + 0.5 * rng.standard_normal(m) for _ in range(4)])
    log_vertex = np.column_stack([
        np.full(m, labels.mean()),
        np.clip(p + 0.02 * rng.standard_normal(m), 0.01, 0.99),
        1.0 - p, np.where(labels > 0, 0.05, 0.95)])
    log_interior = np.column_stack(
        [np.clip(p + 0.15 * rng.standard_normal(m), 0.05, 0.95)
         for _ in range(3)] + [np.full(m, labels.mean())])
    return [
        ("squared_vertex", sq_vertex, t, "squared"),
        ("squared_interior", sq_interior, t, "squared"),
        ("log_vertex", log_vertex, labels, "log"),
        ("log_interior", log_interior, labels, "log"),
    ]


class TestLearnerSpec:
    def test_rejects_unknown_kind(self):
        with pytest.raises(DomainError):
            LearnerSpec("forest")

    def test_rejects_logistic_kind(self):
        # the parametric family is one kind, "linear"; the task picks its link
        with pytest.raises(DomainError):
            LearnerSpec("logistic")

    @pytest.mark.parametrize("k", [0, -3])
    def test_rejects_k_below_one(self, k):
        with pytest.raises(DomainError):
            LearnerSpec("knn", k=k)


class TestFitOutcome:
    def test_linear_interpolates_exact_line(self):
        x = np.arange(10.0)[:, None]
        y = 2.0 * x[:, 0] + 1.0
        pred = fit_outcome(x, y, LearnerSpec("linear"))
        assert float(pred(np.array([[3.0]]))[0]) == pytest.approx(7.0, abs=1e-8)

    def test_mean_only(self):
        pred = fit_outcome(np.zeros((2, 1)), np.array([1.0, 3.0]),
                           LearnerSpec("mean_only"))
        assert float(pred(np.array([[123.0]]))[0]) == pytest.approx(2.0)

    def test_empty_arm_not_ready(self):
        with pytest.raises(NotReady):
            fit_outcome(np.zeros((0, 2)), np.array([]), LearnerSpec("linear"))

    def test_knn_recovers_local_structure(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-2, 2, (2000, 1))
        y = x[:, 0] ** 2
        pred = fit_outcome(x, y, LearnerSpec("knn", k=10))
        got = pred(np.array([[1.0], [0.0]]))
        assert abs(got[0] - 1.0) < 0.1
        assert abs(got[1] - 0.0) < 0.1

    def test_knn_with_tiny_sample_degrades_to_mean(self):
        x = np.array([[0.0], [1.0], [2.0]])
        y = np.array([1.0, 2.0, 3.0])
        pred = fit_outcome(x, y, LearnerSpec("knn", k=10))
        assert float(pred(np.array([[5.0]]))[0]) == pytest.approx(2.0)

    def test_predictors_are_pure(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((50, 2))
        y = rng.standard_normal(50)
        pred = fit_outcome(x, y, LearnerSpec("linear"))
        q = rng.standard_normal((5, 2))
        assert np.array_equal(pred(q), pred(q))

    @pytest.mark.parametrize("kind", ["mean_only", "linear", "knn", "spline",
                                      "ensemble"])
    def test_1d_query_is_one_covariate(self, kind):
        # the fitters read a 1-D x as n rows of one covariate; so do the
        # predictors
        x = np.linspace(-1, 1, 50)
        pred = fit_outcome(x, 2.0 * x + 1.0, LearnerSpec(kind))
        q = np.array([0.1, 0.2, 0.3])
        assert pred(q).tobytes() == pred(q[:, None]).tobytes()

    def test_knn_k1_returns_training_point_exactly(self):
        x = np.array([[0.0], [1.0], [2.5]])
        y = np.array([4.0, -1.0, 9.0])
        pred = fit_outcome(x, y, LearnerSpec("knn", k=1))
        assert float(pred(np.array([[1.0]]))[0]) == -1.0

    @pytest.mark.parametrize("grid", [0.0, 0.5])
    def test_knn_chunked_rows_match_one_block(self, grid):
        # a 600-row query spans several chunks; on a coarse grid many
        # distances tie, so argpartition's choice among them is exercised
        rng = np.random.default_rng(14)
        xs = rng.standard_normal((700, 3))
        q = rng.standard_normal((600, 3))
        if grid:
            xs, q = np.round(xs / grid) * grid, np.round(q / grid) * grid
        ys = rng.standard_normal(700)
        pred = fit_outcome(xs, ys, LearnerSpec("knn", k=10))
        assert pred(q).tobytes() == _reference_knn(xs, ys, 10, q).tobytes()

    @pytest.mark.parametrize("k", [1, 10])
    @pytest.mark.parametrize("grid", [0.0, 0.5])
    def test_knn_matches_recomputed_norms_bitwise(self, grid, k):
        rng = np.random.default_rng(14)
        xs = rng.standard_normal((700, 3))
        q = rng.standard_normal((600, 3))
        if grid:
            xs, q = np.round(xs / grid) * grid, np.round(q / grid) * grid
        ys = rng.standard_normal(700)
        pred = fit_outcome(xs, ys, LearnerSpec("knn", k=k))
        for i in range(40):
            row = q[i : i + 1]
            assert pred(row).tobytes() == _reference_knn(xs, ys, k, row).tobytes()
        # a block larger than one chunk is scored chunk by chunk
        chunk = pred.chunk
        for block in (q[:7], q[:chunk], q):
            want = np.concatenate([_reference_knn(xs, ys, k, block[i : i + chunk])
                                   for i in range(0, len(block), chunk)])
            assert pred(block).tobytes() == want.tobytes()

    def test_knn_block_memory_does_not_grow_with_training_size(self):
        # a batch rescoring against many training rows is scored in blocks
        # of at most _KNN_BLOCK distances, so its peak is a few hundred KB
        rng = np.random.default_rng(16)
        pred = fit_outcome(rng.standard_normal((4000, 3)), rng.standard_normal(4000),
                           LearnerSpec("knn", k=10))
        q = rng.standard_normal((2000, 3))
        tracemalloc.start()
        try:
            pred(q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("n", [1, 2, 7, 300, 3000])
    def test_spline_basis_matches_per_coordinate_loop(self, n, d):
        rng = np.random.default_rng(15)
        train = rng.standard_normal((200, d))
        knots = np.quantile(train, nuisance._SPLINE_KNOT_QS, axis=0).T
        x = rng.standard_normal((n, d))
        x[0] = knots[:, 1]  # hinges exactly at a knot
        got = nuisance._SplineBasis(knots)(x)
        assert got.tobytes() == _reference_spline_basis(knots, x).tobytes()

    def test_spline_recovers_quadratic(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((800, 1))
        y = 1.0 - x[:, 0] ** 2 + 0.1 * rng.standard_normal(800)
        pred = fit_outcome(x, y, LearnerSpec("spline"))
        got = pred(np.array([[0.0], [1.5]]))
        assert abs(got[0] - 1.0) < 0.05
        assert abs(got[1] - (1.0 - 2.25)) < 0.1

    def test_spline_recovers_kink(self):
        # hinge features capture |x|, which no global polynomial of the
        # raw coordinates matches
        rng = np.random.default_rng(9)
        x = rng.standard_normal((2000, 1))
        y = 3.0 * np.abs(x[:, 0]) + 0.1 * rng.standard_normal(2000)
        pred = fit_outcome(x, y, LearnerSpec("spline"))
        got = pred(np.array([[-1.0], [0.0], [1.0]]))
        assert abs(got[0] - 3.0) < 0.2
        assert abs(got[1]) < 0.2
        assert abs(got[2] - 3.0) < 0.2


class TestFitPropensity:
    def test_balanced_labels_near_half(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((2000, 3))
        labels = np.tile([0, 1], 1000)
        pred = fit_propensity(x, labels, LearnerSpec("linear"))
        at_mean = float(pred(x.mean(axis=0)[None, :])[0])
        assert abs(at_mean - 0.5) < 0.05

    def test_clipping_contract(self):
        x = np.linspace(-5, 5, 200)[:, None]
        labels = (x[:, 0] > 0).astype(float)
        pred = fit_propensity(x, labels, LearnerSpec("linear"))
        out = pred(np.array([[-100.0], [100.0]]))
        assert np.all(out >= 0.01) and np.all(out <= 0.99)

    def test_separable_data_stays_finite(self):
        x = np.concatenate([np.full(30, -1.0), np.full(30, 1.0)])[:, None]
        labels = np.concatenate([np.zeros(30), np.ones(30)])
        pred = fit_propensity(x, labels, LearnerSpec("linear"))
        out = pred(x)
        assert np.all(np.isfinite(out))
        assert np.all((out >= 0.01) & (out <= 0.99))

    def test_single_class_not_ready(self):
        with pytest.raises(NotReady):
            fit_propensity(np.zeros((5, 1)), np.ones(5), LearnerSpec("linear"))

    def test_linear_is_clipped_logistic_fit(self):
        rng = np.random.default_rng(17)
        x = rng.standard_normal((300, 2))
        labels = (rng.random(300) < 1.0 / (1.0 + np.exp(-x[:, 0]))).astype(float)
        pred = fit_propensity(x, labels, LearnerSpec("linear"), clip_delta=0.05)
        q = rng.standard_normal((40, 2)) * 3.0
        want = np.clip(nuisance._fit_logistic(x, labels, nuisance._RIDGE)(q),
                       0.05, 0.95)
        assert pred(q).tobytes() == want.tobytes()

    def test_spline_propensity_tracks_smooth_score(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((3000, 1))
        p_true = 0.2 + 0.6 / (1.0 + np.exp(x[:, 0] ** 2 - 1.0))
        labels = (rng.random(3000) < p_true).astype(float)
        pred = fit_propensity(x, labels, LearnerSpec("spline"))
        got = pred(x)
        assert np.sqrt(np.mean((got - p_true) ** 2)) < 0.1


class TestProjectSimplex:
    def test_already_on_simplex(self):
        v = np.array([0.2, 0.3, 0.5])
        assert np.allclose(project_simplex(v), v)

    def test_contract_fuzz(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            v = rng.standard_normal(rng.integers(1, 8)) * 10
            p = project_simplex(v)
            assert p.sum() == pytest.approx(1.0, abs=1e-8)
            assert np.all(p >= -1e-10)

    def test_matches_quadratic_program_oracle(self):
        # tiny dimension: brute-force the projection on a fine simplex grid
        v = np.array([0.9, 0.4, -0.2])
        p = project_simplex(v)
        grid = np.linspace(0, 1, 201)
        best, best_d = None, np.inf
        for a in grid:
            for b in grid:
                c = 1.0 - a - b
                if c < 0:
                    continue
                w = np.array([a, b, c])
                d = float(np.sum((w - v) ** 2))
                if d < best_d:
                    best, best_d = w, d
        assert np.allclose(p, best, atol=1e-2)

    def test_matches_sort_cumsum_formula_bitwise(self):
        rng = np.random.default_rng(12)
        for _ in range(10_000):
            scale = 10.0 ** rng.uniform(-6.0, 8.0)
            v = rng.standard_normal(rng.integers(1, 8)) * scale
            if rng.random() < 0.2:
                v[-1] = v[0]  # a tie in the sort
            got = project_simplex(v)
            assert got.tobytes() == _reference_project_simplex(v).tobytes(), v

    @pytest.mark.parametrize("v", [
        [0.2, np.nan, 0.1],
        [np.inf, 0.0],
        [0.5, -np.inf],
        [1e300, -1e300, 0.0, 0.0],
    ])
    def test_unprojectable_vector_raises(self, v):
        with pytest.raises(DomainError, match="cannot project"):
            project_simplex(np.array(v))


class TestTuneWeights:
    @pytest.mark.parametrize("case", _holdout_problems(), ids=lambda c: c[0])
    def test_matches_fixed_step_descent_bitwise(self, case):
        _, preds, target, loss = case
        got = nuisance._tune_weights(preds, target, loss, 1e-3)
        want = _reference_tune_weights(preds, target, loss, 1e-3)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", ["squared_vertex", "log_vertex"])
    def test_fixed_point_vertex_stops_after_one_step(self, name, monkeypatch):
        _, preds, target, loss = dict(
            (c[0], c) for c in _holdout_problems())[name]
        calls = []

        def counted(v):
            calls.append(1)
            return project_simplex(v)

        monkeypatch.setattr(nuisance, "project_simplex", counted)
        w = nuisance._tune_weights(preds, target, loss, 1e-3)
        assert len(calls) == 1
        assert w.tolist().count(1.0) == 1 and w.sum() == 1.0

    @pytest.mark.parametrize("where", ["target", "preds"])
    def test_overflow_keeps_finite_simplex_weights(self, where):
        # a huge outcome overflows the squared loss (in the target) or the
        # step size's eigenvalue bound (in a candidate's predictions)
        _, preds, target, _ = dict(
            (c[0], c) for c in _holdout_problems())["squared_interior"]
        preds, target = preds.copy(), target.copy()
        if where == "target":
            target[3] = 1e200
        else:
            preds[3, 1] = 1e200
        with np.errstate(over="ignore", invalid="ignore"):
            w = nuisance._tune_weights(preds, target, "squared", 1e-3)
        assert np.isfinite(w).all() and np.all(w >= 0.0)
        assert abs(w.sum() - 1.0) <= 1e-12


class TestFitEnsemble:
    def test_single_candidate_unit_weight(self):
        x = np.arange(20.0)[:, None]
        y = x[:, 0] * 3.0
        pred, w = fit_ensemble(x, y, (LearnerSpec("linear"),))
        assert np.allclose(w, [1.0])
        assert float(pred(np.array([[4.0]]))[0]) == pytest.approx(12.0, abs=1e-6)

    def test_stack_skips_zero_weights_and_sums_in_order(self):
        calls = []

        def candidate(name, scale):
            def predict(x):
                calls.append(name)
                return scale * x[:, 0] + 0.1
            return predict

        names = ["a", "b", "c", "d", "e"]
        scales = [1.0, -3.0, 0.7, 9.0, 2.5]
        weights = np.array([0.2, 0.0, 0.3, 0.0, 0.5])
        stack = nuisance._StackedPredictor(
            [candidate(nm, sc) for nm, sc in zip(names, scales)], weights)
        x = np.random.default_rng(16).standard_normal((50, 2))
        got = stack(x)
        assert calls == ["a", "c", "e"]
        want = (0.0 + 0.2 * (1.0 * x[:, 0] + 0.1) + 0.3 * (0.7 * x[:, 0] + 0.1)
                + 0.5 * (2.5 * x[:, 0] + 0.1))
        assert got.tobytes() == want.tobytes()

    def test_weights_on_simplex(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((200, 2))
        y = x[:, 0] + rng.standard_normal(200)
        cands = LearnerSpec("ensemble").resolved_candidates()
        pred, w = fit_ensemble(x, y, cands)
        assert w.sum() == pytest.approx(1.0, abs=1e-8)
        assert np.all(w >= -1e-10)

    def test_no_regret_against_vertices(self):
        # the stack's holdout loss never exceeds the best single candidate
        rng = np.random.default_rng(5)
        x = rng.standard_normal((400, 3))
        y = 1.0 - x[:, 0] ** 2 + 0.5 * rng.standard_normal(400)
        cands = LearnerSpec("ensemble").resolved_candidates()
        pred, w = fit_ensemble(x, y, cands)
        n = y.size
        split = int(np.floor(0.8 * n))
        x_fit, y_fit = x[:split], y[:split]
        x_val, y_val = x[split:], y[split:]
        stack_loss = float(np.mean((pred(x_val) - y_val) ** 2))
        for cand in cands:
            single = fit_outcome(x_fit, y_fit, cand)
            loss = float(np.mean((single(x_val) - y_val) ** 2))
            assert stack_loss <= loss + 1e-10

    def test_favors_correct_model(self):
        # data from an exact linear model: the linear candidate should
        # carry nearly all the weight
        rng = np.random.default_rng(6)
        x = rng.standard_normal((500, 2))
        y = 2.0 * x[:, 0] - x[:, 1] + 0.01 * rng.standard_normal(500)
        cands = (LearnerSpec("mean_only"), LearnerSpec("linear"),
                 LearnerSpec("knn"))
        _, w = fit_ensemble(x, y, cands)
        assert w[1] > 0.9  # (mean_only, linear, knn) candidate order

    def test_default_candidates_include_spline(self):
        # one list for both tasks: each candidate fits the task's link
        kinds = [c.kind for c in LearnerSpec("ensemble").resolved_candidates()]
        assert kinds == ["mean_only", "linear", "spline", "knn"]

    def test_too_small_not_ready(self):
        with pytest.raises(NotReady):
            fit_ensemble(np.zeros((6, 1)), np.zeros(6),
                         LearnerSpec("ensemble").resolved_candidates())

    def test_no_candidates_domain_error(self):
        with pytest.raises(DomainError):
            fit_ensemble(np.zeros((30, 1)), np.zeros(30), ())

    @pytest.mark.parametrize("task", ["outcome", "propensity"])
    def test_ensemble_candidate_domain_error(self, task):
        x = np.arange(30.0)[:, None]
        labels = np.tile([0.0, 1.0], 15)
        for cands in ((LearnerSpec("ensemble"),),
                      (LearnerSpec("linear"), LearnerSpec("ensemble"))):
            with pytest.raises(DomainError):
                fit_ensemble(x, labels, cands, task)

    def test_propensity_stack_is_probability(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((300, 2))
        labels = (rng.random(300) < 0.5).astype(float)
        pred = fit_propensity(x, labels, LearnerSpec("ensemble"))
        out = pred(x)
        assert np.all((out >= 0.01) & (out <= 0.99))
