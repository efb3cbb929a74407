"""Simulation lab: data-generating processes and Monte Carlo studies.

Covers a Gaussian-mean stream for boundary calibration experiments and
the randomized / observational treatment-effect processes built on the
regression surface 1 - x1^2 - 2 sin(x2) + 3 |x3| with heavy-tailed t(5)
outcome noise. The harness tracks cumulative miscoverage, widths, and
per-replication summaries.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .ate import (
    OBSERVATIONAL,
    RANDOMIZED,
    AteEngine,
    EngineConfig,
    Observation,
    UnadjustedEstimator,
    _warmup_gate,
    default_boundary,
)
from .boundaries import BoundarySpec, fixed_ci_radius, mixture_radius, tune_rho
from .numerics import DomainError, SeedSpec

__all__ = [
    "SimScenario",
    "MonteCarloReport",
    "RepSummary",
    "mu_star",
    "observational_propensity",
    "generate_stream",
    "run_miscoverage",
    "run_ate_miscoverage",
    "run_ate_study",
    "width_table",
]

_KINDS = ("gaussian_mean", "randomized_ate", "observational_ate")

# spawn-key offsets separating data noise from split-assignment coins
_DATA_STREAM = 1_000_000
_SPLIT_STREAM = 2_000_000

# the treatment effect, the mean of the unit-variance Gaussian stream,
# and the multiples of t_opt in width_table
_PSI_TRUE = 1.0
_GAUSSIAN_MEAN = 0.4
_WIDTH_GRID = (1.0, 2.0, 5.0, 10.0, 100.0)


@dataclass(frozen=True)
class SimScenario:
    """One simulation setting: process kind, horizon and seed."""

    kind: str
    n: int = 4000
    seed: SeedSpec = field(default_factory=lambda: SeedSpec(0))

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise DomainError(f"unknown scenario kind: {self.kind!r}")
        if self.n < 1:
            raise DomainError(f"n must be >= 1, got {self.n}")


@dataclass
class MonteCarloReport:
    """Aggregated Monte Carlo results over a replication grid."""

    reps: int
    horizon: int
    cumulative_miscoverage_by_t: np.ndarray
    mean_width_by_t: np.ndarray
    mean_estimate_by_t: np.ndarray
    coverage_final: float

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("t,cum_miscoverage,mean_width,mean_estimate\n")
            for i in range(self.horizon):
                fh.write(
                    "%d,%.9g,%.9g,%.9g\n"
                    % (
                        i + 1,
                        self.cumulative_miscoverage_by_t[i],
                        self.mean_width_by_t[i],
                        self.mean_estimate_by_t[i],
                    )
                )

    def summary(self) -> dict:
        return {
            "reps": self.reps,
            "horizon": self.horizon,
            "final_cumulative_miscoverage": float(
                self.cumulative_miscoverage_by_t[-1]
            ),
            "coverage_final": self.coverage_final,
            "final_mean_width": float(self.mean_width_by_t[-1]),
        }

    def to_json(self, path) -> None:
        text = json.dumps(self.summary(), indent=2, allow_nan=False)
        with open(path, "w") as fh:
            fh.write(text + "\n")


@dataclass(frozen=True)
class RepSummary:
    """Per-replication outcome of one estimator. ``first_miss_t`` and
    ``last_miss_t`` are the first and last t whose emitted interval misses
    psi, None when none does."""

    final_estimate: float
    final_width: float
    uniform_coverage: bool
    final_coverage: bool
    n_emitted: int
    first_miss_t: int | None = None
    last_miss_t: int | None = None


def mu_star(x1, x2, x3):
    """Regression surface of the simulated experiments, elementwise over
    scalars or arrays."""
    return 1.0 - x1 * x1 - 2.0 * np.sin(x2) + 3.0 * np.abs(x3)


def observational_propensity(x1, x2, x3):
    """Treatment probability 0.2 + 0.6 * expit(mu_star), inside [0.2, 0.8]."""
    return 0.2 + 0.6 / (1.0 + np.exp(-mu_star(x1, x2, x3)))


def _t5_noise(rng: np.random.Generator, n: int) -> np.ndarray:
    """t(5) draws as Z / sqrt(V / 5) with V a sum of 5 squared normals."""
    z = rng.standard_normal(n)
    v = rng.standard_normal((n, 5))
    return z / np.sqrt((v * v).sum(axis=1) / 5.0)


def generate_stream(scenario: SimScenario, rep: int = 0):
    """A full replication's records, drawn from one per-replication stream.

    Returns (x, a, y, known_pi) arrays; known_pi is None in the
    observational scenario.
    """
    rng = SeedSpec(scenario.seed.master_seed, _DATA_STREAM + rep).rng()
    n = scenario.n
    if scenario.kind == "gaussian_mean":
        y = _GAUSSIAN_MEAN + rng.standard_normal(n)
        return None, None, y, None
    x = rng.standard_normal((n, 3))
    x1, x2, x3 = x.T
    if scenario.kind == "randomized_ate":
        pi = np.full(n, 0.5)
        known = pi
    else:
        pi = observational_propensity(x1, x2, x3)
        known = None
    a = (rng.random(n) < pi).astype(int)
    y = mu_star(x1, x2, x3) + _PSI_TRUE * a + _t5_noise(rng, n)
    return x, a, y, known


def run_miscoverage(
    scenario: SimScenario,
    alpha: float,
    t_start: int,
    reps: int,
    rho: float | None = None,
    comparator: str = "cs",
) -> MonteCarloReport:
    """Cumulative miscoverage of the mean confidence sequence (or the
    fixed-time CI comparator) on Gaussian-mean streams.

    A replication counts as miscovered at time t if the target fell
    outside the interval at any emission time in [max(t_start, 2), t].
    The sequence uses the sample standard deviation at each step.
    """
    if scenario.kind != "gaussian_mean":
        raise DomainError("run_miscoverage drives gaussian_mean scenarios")
    if reps < 1:
        raise DomainError("reps must be >= 1")
    n = scenario.n
    gate = _warmup_gate(t_start)
    if t_start < 1 or gate > n:
        raise DomainError(f"t_start must lie in [1, n={n}], n >= 2, got {t_start}")
    spec = default_boundary(alpha, t_start) if rho is None else BoundarySpec(alpha, rho)

    y = np.empty((reps, n))
    for r in range(reps):
        _, _, y[r], _ = generate_stream(scenario, r)

    t = np.arange(1, n + 1, dtype=float)
    cum = np.cumsum(y, axis=1)
    cum2 = np.cumsum(y * y, axis=1)
    mu_hat = cum / t
    var_hat = np.maximum(cum2 / t - mu_hat * mu_hat, 0.0)
    sd_hat = np.sqrt(var_hat)

    if comparator == "cs":
        unit = np.array([mixture_radius(k, 1.0, spec) for k in range(1, n + 1)])
    elif comparator == "ci":
        unit = fixed_ci_radius(1, 1.0, alpha) / np.sqrt(t)
    else:
        raise DomainError(f"unknown comparator: {comparator!r}")
    width = sd_hat * unit[None, :]

    miss = np.abs(mu_hat - _GAUSSIAN_MEAN) > width
    miss[:, : gate - 1] = False
    cum_missed = np.maximum.accumulate(miss, axis=1)
    return MonteCarloReport(
        reps=reps,
        horizon=n,
        cumulative_miscoverage_by_t=cum_missed.mean(axis=0),
        mean_width_by_t=2.0 * width.mean(axis=0),
        mean_estimate_by_t=mu_hat.mean(axis=0),
        coverage_final=float(1.0 - cum_missed[:, -1].mean()),
    )


def _observations(scenario: SimScenario, rep: int) -> list[Observation]:
    """A replication's generated stream as the records every estimator reads."""
    if scenario.kind == "gaussian_mean":
        raise DomainError("ATE studies need an ATE scenario, got gaussian_mean")
    x, a, y, known = generate_stream(scenario, rep)
    return [
        Observation(x=x[i], a=int(a[i]), y=float(y[i]),
                    known_pi=None if known is None else float(known[i]))
        for i in range(scenario.n)
    ]


def _run_engine_rep(scenario: SimScenario, config: EngineConfig, rep: int,
                    rows: list[Observation]):
    """One replication of a DR engine over the replication's records."""
    seed = SeedSpec(scenario.seed.master_seed, _SPLIT_STREAM + rep)
    engine = AteEngine(replace(config, seed=seed))
    return [engine.observe(z) for z in rows]


def _summarize_points(points) -> RepSummary:
    emitted = [p for p in points if p is not None]
    if not emitted:
        return RepSummary(math.nan, math.nan, False, False, 0)
    missed = [p.t for p in emitted if not p.lower <= _PSI_TRUE <= p.upper]
    last = emitted[-1]
    return RepSummary(
        final_estimate=last.estimate,
        final_width=2.0 * last.radius,
        uniform_coverage=not missed,
        final_coverage=last.lower <= _PSI_TRUE <= last.upper,
        n_emitted=len(emitted),
        first_miss_t=missed[0] if missed else None,
        last_miss_t=missed[-1] if missed else None,
    )


def run_ate_miscoverage(
    scenario: SimScenario, config: EngineConfig, reps: int
) -> MonteCarloReport:
    """Cumulative miscoverage of the DR engine over replicated streams.

    Per-time means of width and estimate average over the replications
    that had emitted an interval by that time (NaN before any emission).
    """
    if reps < 1:
        raise DomainError("reps must be >= 1")
    n = scenario.n
    if config.t_min > n:
        raise DomainError(f"t_min must be <= n={n}, got {config.t_min}")
    missed = np.zeros((reps, n), dtype=bool)
    width_sum = np.zeros(n)
    est_sum = np.zeros(n)
    emit_count = np.zeros(n)
    for rep in range(reps):
        rows = _run_engine_rep(scenario, config, rep, _observations(scenario, rep))
        seen_miss = False
        for i, row in enumerate(rows):
            p = row.point
            if p is None:
                missed[rep, i] = seen_miss
                continue
            if not p.lower <= _PSI_TRUE <= p.upper:
                seen_miss = True
            missed[rep, i] = seen_miss
            width_sum[i] += 2.0 * p.radius
            est_sum[i] += p.estimate
            emit_count[i] += 1
    if emit_count[-1] == 0:
        raise DomainError(f"no replication emitted an interval by t = n = {n}")
    with np.errstate(invalid="ignore", divide="ignore"):
        mean_width = np.where(emit_count > 0, width_sum / emit_count, np.nan)
        mean_est = np.where(emit_count > 0, est_sum / emit_count, np.nan)
    return MonteCarloReport(
        reps=reps,
        horizon=n,
        cumulative_miscoverage_by_t=missed.mean(axis=0),
        mean_width_by_t=mean_width,
        mean_estimate_by_t=mean_est,
        coverage_final=float(1.0 - missed[:, -1].mean()),
    )


def run_ate_study(
    scenario: SimScenario,
    estimators: dict[str, EngineConfig | str],
    reps: int,
) -> dict[str, list[RepSummary]]:
    """Run several estimators over the same generated streams.

    ``estimators`` maps a label either to an :class:`EngineConfig` or to
    the string ``"unadjusted"``. Every estimator reads the same records of
    each replication, so per-replication comparisons are paired.
    """
    if reps < 1:
        raise DomainError("reps must be >= 1")
    engine_cfgs = [c for c in estimators.values() if c != "unadjusted"]
    if any(c == "unadjusted" for c in estimators.values()) and not engine_cfgs:
        raise DomainError("the unadjusted comparator needs an engine config "
                          "to borrow its boundary from")
    mode = RANDOMIZED if scenario.kind == "randomized_ate" else OBSERVATIONAL
    out: dict[str, list[RepSummary]] = {name: [] for name in estimators}
    for rep in range(reps):
        rows = _observations(scenario, rep)
        for name, config in estimators.items():
            if config == "unadjusted":
                ref = engine_cfgs[0]
                est = UnadjustedEstimator(ref.boundary, mode=mode, t_min=ref.t_min)
                points = [est.update(z) for z in rows]
            else:
                points = [r.point for r in _run_engine_rep(scenario, config, rep, rows)]
            out[name].append(_summarize_points(points))
    return out


def width_table(alpha: float, t_opts: list[int]) -> list[dict]:
    """CS-to-CI width ratios with rho optimized exactly for each t_opt,
    at t = t_opt and at 2, 5, 10 and 100 times it."""
    rows = []
    for t_opt in t_opts:
        rho = tune_rho(alpha, t_opt, "exact")
        spec = BoundarySpec(alpha, rho)
        for mult in _WIDTH_GRID:
            t = max(1, int(round(mult * t_opt)))
            ratio = mixture_radius(t, 1.0, spec) / fixed_ci_radius(t, 1.0, alpha)
            rows.append(
                {
                    "alpha": alpha,
                    "t_opt": t_opt,
                    "t": t,
                    "t_over_t_opt": t / t_opt,
                    "rho": rho,
                    "cs_ci_ratio": ratio,
                }
            )
    return rows
