"""Influence evaluation, the streaming DR engine, cross-fitting, and the
unadjusted comparator."""

import math

import numpy as np
import pytest

from seqdr.ate import (
    AteEngine,
    EngineConfig,
    Observation,
    UnadjustedEstimator,
    _columns,
    _score_batch,
    eval_influence,
    general_cs,
)
from seqdr.boundaries import BoundarySpec, mixture_radius
from seqdr.numerics import DataError, DomainError, SeedSpec
from seqdr.nuisance import LearnerSpec, NuisanceFit, _MeanPredictor
from seqdr.splitting import EVAL, TRAIN, NotReady


def const_fit(m1, m0, pi=None, delta=0.01):
    return NuisanceFit(
        mu1=_MeanPredictor(m1),
        mu0=_MeanPredictor(m0),
        pi=None if pi is None else _MeanPredictor(pi),
        clip_delta=delta,
    )


class TestObservation:
    def test_validation(self):
        with pytest.raises(DataError):
            Observation(x=np.array([1.0]), a=2, y=0.0)
        with pytest.raises(DataError):
            Observation(x=np.array([math.nan]), a=1, y=0.0)
        with pytest.raises(DataError):
            Observation(x=np.array([0.0]), a=1, y=0.0, known_pi=1.5)
        with pytest.raises(DataError, match="flat list"):
            Observation(x=np.zeros((1, 1)), a=1, y=0.0)

    def test_scalar_covariate_is_one_element(self):
        z = Observation(x=2, a=1, y=0.0)
        assert z.x.shape == (1,) and z.x.dtype == float and z.x[0] == 2.0


class TestEvalInfluence:
    def test_hand_substitution_treated(self):
        z = Observation(x=np.zeros(1), a=1, y=3.0)
        fit = const_fit(2.0, 1.0, pi=0.5)
        assert eval_influence(z, fit) == pytest.approx(3.0)

    def test_hand_substitution_control_zero_residual(self):
        z = Observation(x=np.zeros(1), a=0, y=1.0)
        fit = const_fit(2.0, 1.0, pi=0.5)
        assert eval_influence(z, fit) == pytest.approx(1.0)

    def test_zero_residual_reduces_to_difference(self):
        fit = const_fit(5.0, 2.0, pi=0.3)
        for a, y in ((1, 5.0), (0, 2.0)):
            z = Observation(x=np.zeros(2), a=a, y=y)
            assert eval_influence(z, fit) == pytest.approx(3.0)

    def test_known_pi_used_when_fit_has_none(self):
        z = Observation(x=np.zeros(1), a=1, y=4.0, known_pi=0.25)
        fit = const_fit(1.0, 0.0, pi=None)
        # (1 - 0) + (1 / 0.25) * (4 - 1) = 13
        assert eval_influence(z, fit) == pytest.approx(13.0)

    def test_no_propensity_anywhere_raises(self):
        z = Observation(x=np.zeros(1), a=1, y=4.0)
        with pytest.raises(DomainError):
            eval_influence(z, const_fit(1.0, 0.0, pi=None))

    def test_batch_no_propensity_raises(self):
        # a NaN propensity marks a record whose propensity is unknown
        x, a, y, pi = np.zeros((2, 1)), np.array([1, 0]), np.ones(2), np.array([0.5, math.nan])
        with pytest.raises(DomainError):
            _score_batch(x, a, y, pi, const_fit(1.0, 0.0, pi=None))


def feed(engine, rng, n, mode="randomized"):
    rows = []
    for _ in range(n):
        x = rng.standard_normal(2)
        a = int(rng.random() < 0.5)
        y = float(x.sum() + a + rng.standard_normal())
        z = Observation(x=x, a=a, y=y,
                        known_pi=0.5 if mode == "randomized" else None)
        rows.append(engine.observe(z))
    return rows


class TestAteEngine:
    def test_warm_up_gate(self):
        cfg = EngineConfig(boundary=BoundarySpec(0.1, 0.3), crossfit=False,
                           t_min=25, learner=LearnerSpec("mean_only"))
        engine = AteEngine(cfg)
        rng = np.random.default_rng(0)
        rows = feed(engine, rng, 80)
        assert all(r.status == "not_ready" for r in rows[:25])
        assert rows[-1].status == "ok"
        # counts partition at every step
        for r in rows:
            assert r.t_eval + r.t_train == r.t

    def test_hand_arithmetic_estimate_and_radius(self):
        # two scored values {3, 1}: mean 2, variance 1 (divide by count)
        spec = BoundarySpec(0.1, 0.3)
        cfg = EngineConfig(boundary=spec, crossfit=False, t_min=2,
                           learner=LearnerSpec("mean_only"), scoring="online")
        engine = AteEngine(cfg)
        view = engine.views[0]
        # install a constant fit so the influence values are exact
        view.fit = const_fit(2.0, 1.0, pi=None)
        m1 = Observation(x=np.zeros(1), a=1, y=3.0, known_pi=0.5)  # f = 3
        m2 = Observation(x=np.zeros(1), a=0, y=1.0, known_pi=0.5)  # f = 1
        # push the eval records directly, so that no refit replaces the
        # engineered fit
        for z in (m1, m2):
            view.evals.append(z)
            view.score_arrival(z)
        point = engine.current_point()
        assert point.estimate == pytest.approx(2.0)
        assert point.var_hat == pytest.approx(1.0)
        assert point.radius == pytest.approx(mixture_radius(2, 1.0, spec))

    def test_crossfit_identity(self):
        cfg = EngineConfig(boundary=BoundarySpec(0.1, 0.3), crossfit=True,
                           t_min=25, learner=LearnerSpec("linear"),
                           seed=SeedSpec(3))
        engine = AteEngine(cfg)
        rng = np.random.default_rng(4)
        checked = 0
        for _ in range(400):
            x = rng.standard_normal(2)
            a = int(rng.random() < 0.5)
            y = float(x.sum() + a + rng.standard_normal())
            row = engine.observe(Observation(x=x, a=a, y=y, known_pi=0.5))
            if row.status != "ok":
                continue
            e1, e2 = engine.view_estimates()
            assert row.point.estimate == pytest.approx(0.5 * (e1 + e2), abs=1e-12)
            checked += 1
        assert checked > 300

    def test_crossfit_counts(self):
        cfg = EngineConfig(boundary=BoundarySpec(0.1, 0.3), crossfit=True,
                           t_min=10, learner=LearnerSpec("mean_only"),
                           seed=SeedSpec(5))
        engine = AteEngine(cfg)
        rng = np.random.default_rng(6)
        feed(engine, rng, 200)
        va, vb = engine.views
        assert va.moments.count + vb.moments.count == 200
        # each view holds the moments of its whole evaluation group
        for view in engine.views:
            fresh = _score_batch(*_columns(view.evals), view.fit)
            assert view.moments.count == fresh.size
            assert view.moments.mean == pytest.approx(fresh.mean(), rel=1e-12)

    def test_crossfit_views_share_rows(self):
        # one list per split group: each view scores the list the other
        # trains on, and together they hold every arrival exactly once
        cfg = EngineConfig(boundary=BoundarySpec(0.1, 0.3), crossfit=True,
                           t_min=10, learner=LearnerSpec("mean_only"),
                           seed=SeedSpec(11))
        engine = AteEngine(cfg)
        va, vb = engine.views
        assert va.train is engine.rows[TRAIN] and va.evals is engine.rows[EVAL]
        assert va.evals is vb.train and va.train is vb.evals
        zs = [Observation(x=np.array([float(i)]), a=i % 2, y=0.0, known_pi=0.5)
              for i in range(1000)]
        for z in zs:
            engine.observe(z)
        ledger = engine.ledger
        assert len(engine.rows[TRAIN]) == ledger.t_train
        assert len(engine.rows[EVAL]) == ledger.t_eval
        for group in (TRAIN, EVAL):
            routed = [z for z, g in zip(zs, ledger.assignment_log) if g == group]
            assert all(u is v for u, v in zip(engine.rows[group], routed))

    def test_not_ready_until_both_groups_filled(self):
        cfg = EngineConfig(boundary=BoundarySpec(0.1, 0.3), crossfit=True,
                           t_min=1, learner=LearnerSpec("mean_only"))
        engine = AteEngine(cfg)
        row = engine.observe(Observation(x=np.zeros(1), a=1, y=0.0, known_pi=0.5))
        assert row.status == "not_ready"  # only one split group has a record
        with pytest.raises(NotReady):
            engine.current_point()

    def test_covariate_dimension_fixed_by_first_row(self):
        cfg = EngineConfig(boundary=BoundarySpec(0.1, 0.3), crossfit=True,
                           learner=LearnerSpec("linear"), seed=SeedSpec(13))
        engine = AteEngine(cfg)
        rng = np.random.default_rng(14)

        def z(d):
            return Observation(x=rng.standard_normal(d), a=int(rng.random() < 0.5),
                               y=float(rng.standard_normal()), known_pi=0.5)

        for _ in range(149):
            engine.observe(z(3))
        with pytest.raises(DataError, match="expected 3 covariates, got 2"):
            engine.observe(z(2))
        assert engine.ledger.t == 149
        assert len(engine.rows[TRAIN]) + len(engine.rows[EVAL]) == 149
        assert engine.observe(z(3)).t == 150

    def test_batch_scoring_uses_latest_fit(self):
        # with batch scoring the moments equal those of re-scoring every
        # stored record under the current fit, at every arrival: both the
        # records rescored at a doubling refit and those scored since
        cfg = EngineConfig(boundary=BoundarySpec(0.1, 0.3), crossfit=False,
                           t_min=5, learner=LearnerSpec("linear"),
                           scoring="batch", seed=SeedSpec(7))
        engine = AteEngine(cfg)
        rng = np.random.default_rng(8)
        view = engine.views[0]
        checked = 0
        for _ in range(120):
            feed(engine, rng, 1)
            if view.fit is None or not view.evals:
                continue
            fresh = _score_batch(*_columns(view.evals), view.fit)
            assert view.moments.count == fresh.size
            assert view.moments.mean == pytest.approx(fresh.mean(), rel=1e-12, abs=1e-12)
            assert view.moments.variance() == pytest.approx(fresh.var(), rel=1e-12)
            checked += 1
        assert checked > 100

    def test_online_scores_frozen(self):
        # each record keeps the score of the fit it was first scored under:
        # the one current at its arrival, or the first fit for records that
        # arrived before it
        cfg = EngineConfig(boundary=BoundarySpec(0.1, 0.3), crossfit=False,
                           t_min=5, learner=LearnerSpec("linear"),
                           scoring="online", seed=SeedSpec(9))
        engine = AteEngine(cfg)
        rng = np.random.default_rng(10)
        view = engine.views[0]
        fits = []  # per evaluation record, the fit that scored it
        for _ in range(160):  # several refits
            feed(engine, rng, 1)
            fits += [None] * (len(view.evals) - len(fits))
            if view.fit is not None:
                fits = [view.fit if f is None else f for f in fits]
        frozen = np.array([eval_influence(z, f) for z, f in zip(view.evals, fits)])
        assert len(set(map(id, fits))) > 2
        assert view.moments.count == frozen.size
        assert view.moments.mean == pytest.approx(frozen.mean(), rel=1e-12)
        assert view.moments.variance() == pytest.approx(frozen.var(), rel=1e-12)
        # rescoring under the latest fit would give other moments
        latest = _score_batch(*_columns(view.evals), view.fit)
        assert view.moments.variance() != pytest.approx(latest.var(), rel=1e-6)

    @pytest.mark.parametrize("scoring", ["online", "batch"])
    @pytest.mark.parametrize("y", [1e200, 1e308])
    def test_overflowing_variance_not_ready(self, scoring, y):
        # both outcomes are finite, but the square of the first one's score
        # overflows, and the second one's score itself: the interval would
        # be NaN, so the engine is not ready from then on
        cfg = EngineConfig(boundary=BoundarySpec(0.1, 0.3), crossfit=True,
                           t_min=2, learner=LearnerSpec("mean_only"),
                           scoring=scoring, seed=SeedSpec(17))
        engine = AteEngine(cfg)
        rng = np.random.default_rng(18)
        assert feed(engine, rng, 50)[-1].status == "ok"
        big = Observation(x=np.zeros(2), a=1, y=y, known_pi=0.5)
        rows = [engine.observe(big), *feed(engine, rng, 100)]
        assert all(r.status == "not_ready" and r.point is None for r in rows)

    def test_randomized_requires_known_pi(self):
        cfg = EngineConfig(boundary=BoundarySpec(0.1, 0.3))
        engine = AteEngine(cfg)
        with pytest.raises(DataError):
            engine.observe(Observation(x=np.zeros(1), a=1, y=0.0))

    def test_determinism(self):
        outs = []
        for _ in range(2):
            cfg = EngineConfig(boundary=BoundarySpec(0.1, 0.3), crossfit=True,
                               learner=LearnerSpec("linear"), seed=SeedSpec(11))
            engine = AteEngine(cfg)
            rng = np.random.default_rng(12)
            rows = feed(engine, rng, 150)
            outs.append([(r.t, r.status,
                          None if r.point is None else r.point.estimate)
                         for r in rows])
        assert outs[0] == outs[1]


def obs(a, y, pi=None):
    return Observation(x=np.zeros(1), a=a, y=y, known_pi=pi)


class TestUnadjusted:
    def test_hand_arithmetic_observational(self):
        est = UnadjustedEstimator(BoundarySpec(0.1, 0.3), mode="observational",
                                  t_min=1)
        est.update(obs(1, 3.0))
        est.update(obs(0, 1.0))
        # pbar = 1/2: (3 / 0.5 - 1 / 0.5) / 2 = 2
        assert est.estimate() == pytest.approx(2.0)

    def test_all_zero_outcomes(self):
        est = UnadjustedEstimator(BoundarySpec(0.1, 0.3), mode="observational")
        for a in (1, 0, 1, 0):
            est.update(obs(a, 0.0))
        assert est.estimate() == pytest.approx(0.0)

    def test_hand_arithmetic_randomized(self):
        est = UnadjustedEstimator(BoundarySpec(0.1, 0.3), mode="randomized",
                                  t_min=1)
        est.update(obs(1, 5.0, 0.5))
        est.update(obs(1, 7.0, 0.5))
        # (1/2)(10 + 14) = 12
        assert est.estimate() == pytest.approx(12.0)

    def test_randomized_requires_known_pi(self):
        est = UnadjustedEstimator(BoundarySpec(0.1, 0.3), mode="randomized",
                                  t_min=1)
        est.update(obs(1, 5.0, 0.5))
        with pytest.raises(DataError):
            est.update(obs(0, 1.0))
        # the rejected record left no trace
        assert est.t == 1 and est.estimate() == pytest.approx(10.0)

    @pytest.mark.parametrize("a,y,pi", [(1, 2.0, 0.0), (1, 2.0, 1.0), (0, 2.0, 1.5),
                                        (1, math.nan, 0.5)])
    def test_bad_record_rejected(self, a, y, pi):
        est = UnadjustedEstimator(BoundarySpec(0.1, 0.3), mode="randomized")
        with pytest.raises(DataError):
            est.update(obs(a, y, pi))
        assert est.t == 0

    def test_overflowing_term_changes_nothing(self):
        est = UnadjustedEstimator(BoundarySpec(0.1, 0.3), mode="randomized",
                                  t_min=1)
        est.update(obs(1, 5.0, 0.5))
        # 1e308 / 0.1 overflows to inf
        with pytest.raises(DataError):
            est.update(obs(1, 1e308, 0.1))
        assert est.t == 1 and est.estimate() == pytest.approx(10.0)
        assert est.update(obs(1, 7.0, 0.5)).estimate == pytest.approx(12.0)

    @pytest.mark.parametrize("mode", ["randomized", "observational"])
    def test_overflowing_variance_not_ready(self, mode):
        est = UnadjustedEstimator(BoundarySpec(0.1, 0.3), mode=mode, t_min=2)
        assert [est.update(obs(a, float(a), 0.5)) for a in (1, 0, 1, 0)][-1]
        points = [est.update(obs(1, 1e200, 0.5))]
        points += [est.update(obs(a, 1.0, 0.5)) for a in (0, 1) * 20]
        assert points == [None] * 41
        assert est.t == 45

    def test_single_arm_not_ready(self):
        from seqdr.splitting import NotReady
        est = UnadjustedEstimator(BoundarySpec(0.1, 0.3), mode="observational")
        est.update(obs(1, 1.0))
        with pytest.raises(NotReady):
            est.estimate()

    def test_consistency_on_simple_stream(self):
        rng = np.random.default_rng(13)
        est = UnadjustedEstimator(BoundarySpec(0.1, 0.3), mode="randomized")
        point = None
        for _ in range(5000):
            a = int(rng.random() < 0.5)
            y = 2.0 * a + rng.standard_normal()
            point = est.update(obs(a, y, 0.5)) or point
        assert abs(point.estimate - 2.0) < 0.15
        assert point.lower <= 2.0 <= point.upper


class TestGeneralCs:
    def test_constant_stream_degenerates(self):
        spec = BoundarySpec(0.1, 0.3)
        points = list(general_cs([4.0] * 10, spec, t_min=2))
        last = points[-1]
        assert last.estimate == pytest.approx(4.0)
        assert last.radius == pytest.approx(0.0, abs=1e-12)

    def test_first_point_at_t_2(self):
        # at t = 1 the plug-in sd is 0 and the interval would have zero width
        points = list(general_cs([1.0, 2.0, 3.0], BoundarySpec(0.1, 0.5)))
        assert [p.t for p in points] == [2, 3]
        assert points[0].radius > 0.0

    def test_reproduces_engine_interval(self):
        # feeding the engine's scored influence values (batch scoring: every
        # record under the latest fit) through the generic wrapper must give
        # the same interval (same formula path)
        cfg = EngineConfig(boundary=BoundarySpec(0.1, 0.3), crossfit=False,
                           t_min=5, learner=LearnerSpec("mean_only"),
                           seed=SeedSpec(14))
        engine = AteEngine(cfg)
        rng = np.random.default_rng(15)
        feed(engine, rng, 200)
        view = engine.views[0]
        scores = _score_batch(*_columns(view.evals), view.fit)
        assert view.moments.count == scores.size
        wrapped = list(general_cs(scores, cfg.boundary, t_min=1))
        point = engine.current_point()
        assert wrapped[-1].estimate == pytest.approx(point.estimate, abs=1e-12)
        assert wrapped[-1].radius == pytest.approx(point.radius, abs=1e-12)

    def test_overflowing_variance_raises(self):
        spec = BoundarySpec(0.1, 0.3)
        points = general_cs([0.0, 1.0, 1e200, 2.0], spec)
        assert next(points).t == 2
        with pytest.raises(DataError, match="influence value 3"):
            next(points)

    def test_gaussian_coverage_quick(self):
        # modest MC check: coverage at alpha = 0.1, start 25
        spec = BoundarySpec(0.1, 0.3)
        rng = np.random.default_rng(16)
        missed = 0
        reps = 200
        for _ in range(reps):
            ys = rng.standard_normal(400)
            bad = any(
                not p.lower <= 0.0 <= p.upper
                for p in general_cs(ys, spec, t_min=25)
            )
            missed += bad
        assert missed / reps <= 0.1 + 2 * math.sqrt(0.1 * 0.9 / reps) + 0.03
