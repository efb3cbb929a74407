"""Simulation lab: DGP values, determinism, reports, width tables."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from seqdr.ate import EngineConfig, default_boundary
from seqdr.boundaries import BoundarySpec, fixed_ci_radius, mixture_radius, tune_rho
from seqdr.numerics import DomainError, SeedSpec
from seqdr.nuisance import LearnerSpec
from seqdr.simlab import (
    SimScenario,
    generate_stream,
    mu_star,
    observational_propensity,
    run_ate_miscoverage,
    run_ate_study,
    run_miscoverage,
    width_table,
)


class TestMuStar:
    def test_hand_values(self):
        assert mu_star(0.0, 0.0, 0.0) == pytest.approx(1.0)
        assert mu_star(1.0, 0.0, 0.0) == pytest.approx(0.0)
        assert mu_star(0.0, math.pi / 2.0, 0.0) == pytest.approx(-1.0)
        assert mu_star(0.0, 0.0, -2.0) == pytest.approx(7.0)

    def test_observational_propensity_at_zero_surface(self):
        # mu_star = 0 at x = (1, 0, 0): pi = 0.2 + 0.6 * 0.5 = 0.5
        assert observational_propensity(1.0, 0.0, 0.0) == pytest.approx(0.5)

    def test_propensity_bounded(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            x = rng.standard_normal(3) * 3
            p = observational_propensity(*x)
            assert 0.2 <= p <= 0.8


class TestGenerate:
    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            SimScenario(kind="bootstrap")

    @pytest.mark.parametrize("n", [0, -1])
    def test_rejects_empty_horizon(self, n):
        with pytest.raises(DomainError):
            SimScenario(kind="randomized_ate", n=n)


class TestGenerateStream:
    def test_shapes_and_determinism(self):
        for kind in ("randomized_ate", "observational_ate"):
            sc = SimScenario(kind=kind, n=300, seed=SeedSpec(2))
            x, a, y, known = generate_stream(sc, rep=0)
            x2, a2, y2, _ = generate_stream(sc, rep=0)
            assert x.shape == (300, 3) and a.shape == y.shape == (300,)
            assert np.array_equal(x, x2) and np.array_equal(y, y2)
            assert np.array_equal(a, a2)
            if kind == "randomized_ate":
                assert np.all(known == 0.5)
            else:
                assert known is None

    def test_reps_differ(self):
        sc = SimScenario(kind="randomized_ate", n=100, seed=SeedSpec(2))
        _, _, y0, _ = generate_stream(sc, rep=0)
        _, _, y1, _ = generate_stream(sc, rep=1)
        assert not np.array_equal(y0, y1)

    def test_gaussian_mean_moments(self):
        sc = SimScenario(kind="gaussian_mean", n=200_000, seed=SeedSpec(3))
        _, _, y, _ = generate_stream(sc, 0)
        assert abs(y.mean() - 0.4) < 0.01
        assert abs(y.std() - 1.0) < 0.01

    def test_t5_noise_heavier_than_normal(self):
        sc = SimScenario(kind="randomized_ate", n=100_000, seed=SeedSpec(4))
        x, a, y, _ = generate_stream(sc, 0)
        mu = 1.0 - x[:, 0] ** 2 - 2.0 * np.sin(x[:, 1]) + 3.0 * np.abs(x[:, 2])
        eps = y - mu - a
        # var of t(5) is 5/3
        assert abs(np.var(eps) - 5.0 / 3.0) < 0.1

    def test_treatment_effect_embedded(self):
        sc = SimScenario(kind="randomized_ate", n=200_000, seed=SeedSpec(5))
        x, a, y, _ = generate_stream(sc, 0)
        mu = 1.0 - x[:, 0] ** 2 - 2.0 * np.sin(x[:, 1]) + 3.0 * np.abs(x[:, 2])
        gap = (y - mu)[a == 1].mean() - (y - mu)[a == 0].mean()
        assert abs(gap - 1.0) < 0.05

    def test_influence_sd_closed_form(self):
        # With arm-mean outcome models and pi = 0.5 the influence value is
        # 1 + 2(2a-1)(mu* - E mu* + eps), so its sd is
        # 2 sqrt(Var x1^2 + Var 2sin(x2) + Var 3|x3| + Var t5).
        # Criterion 9 builds its bounds on this constant.
        sigma_if = 2.0 * math.sqrt(2.0 + 2.0 * (1.0 - math.exp(-2.0))
                                   + 9.0 * (1.0 - 2.0 / math.pi) + 5.0 / 3.0)
        sc = SimScenario(kind="randomized_ate", n=200_000, seed=SeedSpec(13))
        x, a, y, pi = generate_stream(sc, 0)
        mu1, mu0 = y[a == 1].mean(), y[a == 0].mean()
        f = mu1 - mu0 + a / pi * (y - mu1) - (1 - a) / (1 - pi) * (y - mu0)
        assert f.std() == pytest.approx(sigma_if, rel=0.01)


class TestRunMiscoverage:
    def test_report_reproducible(self, tmp_path):
        sc = SimScenario(kind="gaussian_mean", n=500, seed=SeedSpec(6))
        paths = []
        for i in range(2):
            rep = run_miscoverage(sc, 0.1, 25, reps=1)
            p = tmp_path / f"r{i}.csv"
            rep.to_csv(p)
            paths.append(p.read_bytes())
        assert paths[0] == paths[1]
        # one replication: the width is 2 sd_t times the mixture radius at t
        spec = BoundarySpec(0.1, tune_rho(0.1, 5 * 25, "exact"))
        _, _, y, _ = generate_stream(sc, 0)
        for t in (2, 25, 137, 500):
            sd = math.sqrt(max(np.mean(y[:t] ** 2) - np.mean(y[:t]) ** 2, 0.0))
            want = 2.0 * sd * mixture_radius(t, 1.0, spec)
            assert rep.mean_width_by_t[t - 1] == pytest.approx(want, rel=1e-12)

    def test_coverage_sane(self):
        sc = SimScenario(kind="gaussian_mean", n=1000, seed=SeedSpec(7))
        rep = run_miscoverage(sc, 0.1, 25, reps=200)
        assert rep.cumulative_miscoverage_by_t[-1] <= 0.15
        assert np.all(np.diff(rep.cumulative_miscoverage_by_t) >= -1e-12)

    def test_ci_comparator_wider_miss(self):
        sc = SimScenario(kind="gaussian_mean", n=2000, seed=SeedSpec(8))
        cs = run_miscoverage(sc, 0.1, 25, reps=100, comparator="cs")
        ci = run_miscoverage(sc, 0.1, 25, reps=100, comparator="ci")
        assert ci.cumulative_miscoverage_by_t[-1] > cs.cumulative_miscoverage_by_t[-1]

    def test_json_summary(self, tmp_path):
        sc = SimScenario(kind="gaussian_mean", n=100, seed=SeedSpec(9))
        rep = run_miscoverage(sc, 0.1, 25, reps=5)
        p = tmp_path / "s.json"
        rep.to_json(p)
        data = json.loads(p.read_text())
        assert data["reps"] == 5 and data["horizon"] == 100

    def test_rejects_wrong_kind(self):
        with pytest.raises(DomainError):
            run_miscoverage(SimScenario(kind="randomized_ate"), 0.1, 25, 2)

    def test_start_1_checks_from_t_2(self, tmp_path):
        # one value has plug-in sd 0, so the interval at t = 1 has zero
        # width; the warm-up gate is max(t_start, 2) as in the engine
        sc = SimScenario(kind="gaussian_mean", n=500, seed=SeedSpec(18))
        paths = []
        for t_start in (1, 2):
            rep = run_miscoverage(sc, 0.1, t_start, reps=50)
            paths.append(tmp_path / f"s{t_start}.csv")
            rep.to_csv(paths[-1])
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert rep.cumulative_miscoverage_by_t[-1] < 0.5


class TestAteStudies:
    def test_study_and_report(self):
        sc = SimScenario(kind="randomized_ate", n=600, seed=SeedSpec(10))
        cfg = EngineConfig(boundary=default_boundary(0.1),
                           learner=LearnerSpec("linear"), t_min=25)
        out = run_ate_study(sc, {"dr": cfg, "unadj": "unadjusted"}, reps=3)
        assert set(out) == {"dr", "unadj"}
        assert all(len(v) == 3 for v in out.values())

    def test_one_stream_per_replication(self, monkeypatch):
        # every estimator reads the records of one generated stream
        import seqdr.simlab as simlab
        calls = []
        generate = simlab.generate_stream

        def counted(scenario, rep=0):
            calls.append(rep)
            return generate(scenario, rep)

        monkeypatch.setattr(simlab, "generate_stream", counted)
        sc = SimScenario(kind="randomized_ate", n=60, seed=SeedSpec(13))
        cfg = EngineConfig(boundary=default_boundary(0.1),
                           learner=LearnerSpec("mean_only"), t_min=25)
        estimators = {"dr": cfg, "dr_single": replace(cfg, crossfit=False),
                      "unadj": "unadjusted"}
        run_ate_study(sc, estimators, reps=2)
        assert calls == [0, 1]
        run_ate_miscoverage(sc, cfg, reps=2)
        assert calls == [0, 1, 0, 1]

    def test_summary_records_first_and_last_miss(self):
        import seqdr.simlab as simlab
        from seqdr.boundaries import CsPoint

        def point(t, estimate):  # psi is 1; a radius-0.5 interval misses off [0.5, 1.5]
            return CsPoint.from_radius(t, estimate, 0.5, 1.0)

        s = simlab._summarize_points([None, point(2, 1.0), point(3, 3.0), point(4, 1.0),
                                      point(5, -2.0), point(6, 1.2)])
        assert (s.first_miss_t, s.last_miss_t, s.n_emitted) == (3, 5, 5)
        assert not s.uniform_coverage and s.final_coverage
        s = simlab._summarize_points([None, point(2, 1.0), point(3, 0.7)])
        assert (s.first_miss_t, s.last_miss_t, s.uniform_coverage) == (None, None, True)
        s = simlab._summarize_points([None, None])
        assert (s.first_miss_t, s.last_miss_t, s.n_emitted) == (None, None, 0)

    def test_unadjusted_alone_rejected(self):
        sc = SimScenario(kind="randomized_ate", n=100, seed=SeedSpec(11))
        with pytest.raises(DomainError):
            run_ate_study(sc, {"u": "unadjusted"}, reps=1)

    def test_miscoverage_harness(self):
        sc = SimScenario(kind="randomized_ate", n=400, seed=SeedSpec(12))
        cfg = EngineConfig(boundary=default_boundary(0.1),
                           learner=LearnerSpec("mean_only"), t_min=25)
        rep = run_ate_miscoverage(sc, cfg, reps=3)
        assert rep.horizon == 400
        assert np.all(np.diff(rep.cumulative_miscoverage_by_t) >= -1e-12)
        assert math.isnan(rep.mean_width_by_t[0])
        assert rep.mean_width_by_t[-1] > 0


class TestWidthTable:
    def test_ratio_at_t_opt(self):
        rows = width_table(0.05, [100])
        assert rows[0]["t"] == 100
        assert rows[0]["cs_ci_ratio"] == pytest.approx(1.549, abs=0.005)

    def test_ratio_independent_of_t_opt(self):
        # rho^2 scales as 1/t_opt so the ratio at t = t_opt is constant
        r1 = width_table(0.05, [50])[0]["cs_ci_ratio"]
        r2 = width_table(0.05, [5000])[0]["cs_ci_ratio"]
        assert r1 == pytest.approx(r2, rel=1e-9)

    def test_ratio_diverges(self):
        rows = width_table(0.05, [100])
        assert rows[-1]["t"] == 10_000
        assert rows[-1]["cs_ci_ratio"] > rows[0]["cs_ci_ratio"]

    def test_matches_direct_chain(self):
        alpha, t_opt = 0.1, 200
        rho = tune_rho(alpha, t_opt, "exact")
        want = mixture_radius(t_opt, 1.0, BoundarySpec(alpha, rho)) / \
            fixed_ci_radius(t_opt, 1.0, alpha)
        got = width_table(alpha, [t_opt])[0]["cs_ci_ratio"]
        assert got == pytest.approx(want, rel=1e-12)
