"""Doubly robust treatment-effect estimation with confidence sequences.

Evaluates the (uncentered) efficient influence function under fitted or
known nuisances, routes arrivals through sequential sample splitting,
maintains the influence-value variance estimate, and assembles the
normal-mixture confidence sequence. Also houses the unadjusted
comparator and a generic wrapper for any asymptotically linear estimator
whose influence values the caller supplies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from .boundaries import BoundarySpec, CsPoint, mixture_radius, tune_rho
from .numerics import DataError, DomainError, RunningMoments, SeedSpec
from .nuisance import LearnerSpec, NuisanceFit, fit_outcome, fit_propensity
from .splitting import EVAL, TRAIN, NotReady, SplitLedger

__all__ = [
    "Observation",
    "EngineConfig",
    "AteEngine",
    "EmitRow",
    "UnadjustedEstimator",
    "eval_influence",
    "general_cs",
    "default_boundary",
]

RANDOMIZED = "randomized"
OBSERVATIONAL = "observational"

# an arm with fewer training rows than this gets a mean-only outcome model,
# and a view with fewer than twice this a mean-only propensity model
_COLD_START_MIN = 5


@dataclass(frozen=True)
class Observation:
    """One subject record: covariates, treatment, outcome, and the known
    propensity when the design is randomized."""

    x: np.ndarray
    a: int
    y: float
    known_pi: float | None = None

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        if x.ndim == 0:
            x = x.reshape(1)
        if x.ndim != 1:
            raise DataError(f"covariates must be a flat list, got shape {x.shape}")
        if not np.isfinite(x).all() or not math.isfinite(self.y):
            raise DataError("non-finite observation fields")
        if self.a not in (0, 1):
            raise DataError(f"treatment must be 0 or 1, got {self.a!r}")
        if self.known_pi is not None and not 0.0 < self.known_pi < 1.0:
            raise DataError(f"known propensity must lie in (0, 1), got {self.known_pi}")
        object.__setattr__(self, "x", x)


def _influence(m1, m0, pi, a, y):
    """Uncentered efficient influence value, elementwise over floats or
    arrays:

    f(z) = {mu1(x) - mu0(x)}
           + (a / pi(x) - (1 - a) / (1 - pi(x))) * (y - mu_a(x))
    """
    return (m1 - m0) + (a / pi - (1 - a) / (1.0 - pi)) * (y - (a * m1 + (1 - a) * m0))


def eval_influence(z: Observation, fit: NuisanceFit) -> float:
    """Influence value of one observation under ``fit``.

    Known propensities (randomized designs) take precedence over a
    fitted propensity model when ``fit.pi`` is None. The predictors are
    read through their one-row ``row`` path, in Python floats.
    """
    xs = z.x.tolist()
    if fit.pi is None:
        if z.known_pi is None:
            raise DomainError("no propensity available for this observation")
        pi = min(max(z.known_pi, fit.clip_delta), 1.0 - fit.clip_delta)
    else:
        pi = fit.pi.row(xs)
    return _influence(fit.mu1.row(xs), fit.mu0.row(xs), pi, z.a, z.y)


def _score_batch(
    x: np.ndarray,
    a: np.ndarray,
    y: np.ndarray,
    known_pi: np.ndarray,
    fit: NuisanceFit,
) -> np.ndarray:
    """Influence values of stored records, as :func:`eval_influence`."""
    if fit.pi is None:
        if np.isnan(known_pi).any():
            raise DomainError("no propensity available for this observation")
        pi = np.clip(known_pi, fit.clip_delta, 1.0 - fit.clip_delta)
    else:
        pi = fit.pi(x)
    return _influence(fit.mu1(x), fit.mu0(x), pi, a, y)


def _columns(
    rows: list[Observation],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The ``x, a, y, pi`` arrays of stored records; ``pi`` is NaN where
    the propensity is unknown."""
    return (
        # faster than np.asarray on a list of small arrays
        np.concatenate([z.x for z in rows]).reshape(len(rows), -1),
        np.asarray([z.a for z in rows]),
        np.asarray([z.y for z in rows]),
        np.asarray([math.nan if z.known_pi is None else z.known_pi for z in rows]),
    )


def _warmup_gate(t_min: int) -> int:
    """The first count with an interval: ``t_min``, but at least 2, as one
    value has plug-in standard deviation 0 (a zero-width interval)."""
    return max(t_min, 2)


def _cs_point(t: int, n: int, estimate: float, var: float, gate: int,
              boundary: BoundarySpec) -> CsPoint:
    """The interval at time ``t`` of an estimate from ``n`` influence values
    with plug-in variance ``var``: not ready below the warm-up gate, or when
    the estimate or the variance is not finite (an overflow)."""
    if n < gate:
        raise NotReady("below the warm-up gate")
    if not (math.isfinite(estimate) and math.isfinite(var)):
        raise NotReady("the estimate or its variance is not finite")
    radius = mixture_radius(n, math.sqrt(var), boundary)
    return CsPoint.from_radius(t, estimate, radius, var)


def default_boundary(alpha: float, t_min: int = 25) -> BoundarySpec:
    """Boundary with rho optimized for five times the warm-up gate."""
    return BoundarySpec(alpha, tune_rho(alpha, 5 * _warmup_gate(t_min), "exact"))


@dataclass(frozen=True)
class EngineConfig:
    """Everything the streaming ATE engine needs to run."""

    boundary: BoundarySpec
    mode: str = RANDOMIZED
    learner: LearnerSpec = field(default_factory=LearnerSpec)
    crossfit: bool = True
    scoring: str = "batch"
    t_min: int = 25
    clip_delta: float = 0.01
    seed: SeedSpec = field(default_factory=lambda: SeedSpec(0))

    def __post_init__(self):
        if self.mode not in (RANDOMIZED, OBSERVATIONAL):
            raise DomainError(f"unknown mode: {self.mode!r}")
        if self.scoring not in ("batch", "online"):
            raise DomainError(f"unknown scoring mode: {self.scoring!r}")
        if not 0.0 < self.clip_delta < 0.5:
            raise DomainError("clip_delta must lie in (0, 0.5)")
        if self.t_min < 1:
            raise DomainError(f"t_min must be >= 1, got {self.t_min}")


@dataclass(frozen=True)
class EmitRow:
    """One output row of the engine: counts, status, optional interval."""

    t: int
    t_eval: int
    t_train: int
    status: str
    point: CsPoint | None


class _View:
    """One direction of the sample split: fit on one group, score the other.

    ``train`` and ``evals`` are the engine's lists of the two split
    groups, shared with the other view (which reads them the other way
    round). ``moments`` holds the count, mean and variance of the scored
    values. Batch scoring keeps them aligned with the latest fit by
    re-scoring the stored records whenever the nuisances are refit; online
    scoring freezes each record's value at first scoring.
    """

    def __init__(
        self, train: list[Observation], evals: list[Observation], config: EngineConfig
    ):
        self.train = train
        self.evals = evals
        self.config = config
        self.fit: NuisanceFit | None = None
        self.moments = RunningMoments()

    # -- training side -------------------------------------------------
    def refit_if_due(self) -> None:
        """Called after a record joined ``train``."""
        n = len(self.train)
        # until the first usable fit, keep trying; then at powers of two
        if self.fit is None or n & (n - 1) == 0:
            self._refit()

    def _arm_learner(self, n_arm: int) -> LearnerSpec:
        if n_arm < _COLD_START_MIN:
            return LearnerSpec("mean_only")
        return self.config.learner

    def _refit(self) -> None:
        x, a, y, _ = _columns(self.train)
        if a.min() == a.max():
            return  # an arm is still empty
        x1, y1 = x[a == 1], y[a == 1]
        x0, y0 = x[a == 0], y[a == 0]
        try:
            mu1 = fit_outcome(x1, y1, self._arm_learner(len(y1)))
            mu0 = fit_outcome(x0, y0, self._arm_learner(len(y0)))
        except NotReady:
            mu1 = fit_outcome(x1, y1, LearnerSpec("mean_only"))
            mu0 = fit_outcome(x0, y0, LearnerSpec("mean_only"))
        pi = None
        if self.config.mode == OBSERVATIONAL:
            spec = self.config.learner
            if a.size < 2 * _COLD_START_MIN:
                spec = LearnerSpec("mean_only")
            try:
                pi = fit_propensity(x, a, spec, self.config.clip_delta)
            except NotReady:
                pi = fit_propensity(x, a, LearnerSpec("mean_only"), self.config.clip_delta)
        self.fit = NuisanceFit(
            mu1=mu1,
            mu0=mu0,
            pi=pi,
            clip_delta=self.config.clip_delta,
        )
        self._score_from(0 if self.config.scoring == "batch" else self.moments.count)

    # -- evaluation side ----------------------------------------------
    def score_arrival(self, z: Observation) -> None:
        """Called after ``z`` joined ``evals``."""
        if self.fit is not None:
            s = eval_influence(z, self.fit)
            # the row is stored already, so a non-finite score must not raise
            self.moments = (self.moments.push(s) if math.isfinite(s)
                            else self.moments.merge(RunningMoments.of([s])))
        # otherwise: batch mode picks it up at the next refit, online mode
        # scores it as soon as a first fit exists

    def _score_from(self, start: int) -> None:
        """Score the stored evaluation records from index ``start`` on under
        the current fit; any scores they already had are replaced."""
        if start >= len(self.evals):
            return
        block = RunningMoments.of(_score_batch(*_columns(self.evals[start:]), self.fit))
        self.moments = block if start == 0 else self.moments.merge(block)


class AteEngine:
    """Streaming doubly robust ATE estimator with anytime-valid intervals.

    Feed observations one at a time with :meth:`observe`; each call
    returns an :class:`EmitRow` whose point is populated once the warm-up
    gate has passed and a nuisance fit is available.
    """

    def __init__(self, config: EngineConfig):
        self.config = config
        self.ledger = SplitLedger(config.seed)
        # each arrival is stored once, in the list of its split group
        self.rows: dict[str, list[Observation]] = {TRAIN: [], EVAL: []}
        self.views = [_View(self.rows[TRAIN], self.rows[EVAL], config)]
        if config.crossfit:
            self.views.append(_View(self.rows[EVAL], self.rows[TRAIN], config))
        self.dim: int | None = None  # covariate count, fixed by the first arrival
        self._gate = _warmup_gate(config.t_min)

    def observe(self, z: Observation) -> EmitRow:
        # reject bad records before any state changes
        if self.config.mode == RANDOMIZED and z.known_pi is None:
            raise DataError("randomized mode requires a known propensity")
        if self.dim is None:
            self.dim = z.x.size
        elif z.x.size != self.dim:
            raise DataError(f"expected {self.dim} covariates, got {z.x.size}")
        rows = self.rows[self.ledger.assign()]
        rows.append(z)
        for view in self.views:
            if view.train is rows:
                view.refit_if_due()
            else:
                view.score_arrival(z)
        try:
            point = self.current_point()
            status = "ok"
        except NotReady:
            point = None
            status = "not_ready"
        return EmitRow(
            t=self.ledger.t,
            t_eval=self.ledger.t_eval,
            t_train=self.ledger.t_train,
            status=status,
            point=point,
        )

    # -- interval assembly --------------------------------------------
    def current_point(self) -> CsPoint:
        """Mean of the view estimates, with the radius computed at the
        pooled scored count from the pooled influence variance."""
        pooled = RunningMoments()
        mean_sum = 0.0
        for view in self.views:
            # a view scores nothing before its first fit
            if view.moments.count == 0:
                raise NotReady("a view has no scored observations")
            pooled = pooled.merge(view.moments)
            mean_sum += view.moments.mean
        return _cs_point(self.ledger.t, pooled.count, mean_sum / len(self.views),
                         pooled.variance(), self._gate, self.config.boundary)

    def view_estimates(self) -> tuple[float, float]:
        """The two single-view estimates (primary, swapped)."""
        if not self.config.crossfit:
            raise DomainError("engine was built without cross-fitting")
        primary, swapped = (view.moments for view in self.views)
        if primary.count == 0 or swapped.count == 0:
            raise NotReady("no scored evaluation observations yet")
        return primary.mean, swapped.mean


class UnadjustedEstimator:
    """Inverse-propensity difference of means with no sample splitting.

    Randomized designs use each record's known propensity; observational
    streams plug in the running treated fraction, re-weighting all past
    observations at every step, which makes the estimate the difference
    of the two arms' outcome means.
    """

    def __init__(self, boundary: BoundarySpec, mode: str = RANDOMIZED, t_min: int = 25):
        if mode not in (RANDOMIZED, OBSERVATIONAL):
            raise DomainError(f"unknown mode: {mode!r}")
        self.boundary = boundary
        self.mode = mode
        self._gate = _warmup_gate(t_min)
        # randomized: the AIPW terms; observational: the outcomes of each
        # arm, indexed by treatment. A mode fills only its own.
        self._known = RunningMoments()
        self._arms = [RunningMoments(), RunningMoments()]

    @property
    def t(self) -> int:
        return self._known.count + self._arms[0].count + self._arms[1].count

    def update(self, z: Observation) -> CsPoint | None:
        # a rejected record changes no state
        if self.mode == RANDOMIZED:
            if z.known_pi is None:
                raise DataError("randomized mode requires a known propensity")
            # AIPW with zero outcome models
            self._known = self._known.push(_influence(0.0, 0.0, z.known_pi, z.a, z.y))
        else:
            self._arms[z.a] = self._arms[z.a].push(z.y)
        try:
            return self.current_point()
        except NotReady:
            return None

    def estimate(self) -> float:
        if self.t == 0:
            raise NotReady("no observations yet")
        if self.mode == RANDOMIZED:
            return self._known.mean
        arm0, arm1 = self._arms
        if arm0.count == 0 or arm1.count == 0:
            raise NotReady("observational mode needs both arms observed")
        return arm1.mean - arm0.mean

    def current_point(self) -> CsPoint:
        est = self.estimate()
        if self.mode == RANDOMIZED:
            var = self._known.variance()
        else:
            # the mean square of the inverse-propensity terms, less est^2
            second = sum(self.t / m.count * (m.variance() + m.mean * m.mean)
                         for m in self._arms)
            var = max(second - est * est, 0.0)
        return _cs_point(self.t, self.t, est, var, self._gate, self.boundary)


def general_cs(
    phi_values: Iterable[float], spec: BoundarySpec, t_min: int = 1
) -> Iterator[CsPoint]:
    """Confidence sequence for any asymptotically linear estimator.

    The caller supplies the stream of influence values; the sequence is
    the running mean with the normal mixture radius at the running
    standard deviation, the same machinery as the ATE path. The first
    point is at ``max(t_min, 2)``. A non-finite value, or values whose
    variance overflows, raise :class:`DataError`.
    """
    gate = _warmup_gate(t_min)
    stats = RunningMoments()
    for phi in phi_values:
        stats = stats.push(phi)
        if stats.count < gate:
            continue
        try:
            point = _cs_point(stats.count, stats.count, stats.mean,
                              stats.variance(), gate, spec)
        except NotReady as exc:  # past the gate, only an overflow
            raise DataError(f"influence value {stats.count}: {exc}") from exc
        yield point
