"""Confidence-sequence radii and tuning of the mixture parameter rho.

All radius computations live here: the normal mixture boundary that
every estimator uses, a standalone boundary for independent but
non-identically-distributed streams, the fixed-time CI comparator, and
the closed form of the Gaussian mixture martingale (kept as a
cross-check oracle).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

from .numerics import DomainError, lambert_w

__all__ = [
    "BoundarySpec",
    "CsPoint",
    "MartingaleState",
    "mixture_radius",
    "non_iid_radius",
    "tune_rho",
    "fixed_ci_radius",
    "mixture_martingale",
    "norm_quantile",
    "SQRT_OMEGA",
]

# Omega = W0(1); exact rho tuning is only defined for alpha <= sqrt(Omega).
OMEGA = lambert_w("principal", 1.0)
SQRT_OMEGA = math.sqrt(OMEGA)


@dataclass(frozen=True)
class BoundarySpec:
    """Confidence level and mixture scale rho of the normal mixture boundary."""

    alpha: float
    rho: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise DomainError(f"alpha must lie in (0, 1), got {self.alpha}")
        if not self.rho > 0.0:
            raise DomainError(f"rho must be positive, got {self.rho}")


@dataclass(frozen=True)
class CsPoint:
    """One emitted interval of a confidence sequence."""

    t: int
    estimate: float
    lower: float
    upper: float
    radius: float
    var_hat: float

    @classmethod
    def from_radius(cls, t, estimate, radius, var_hat) -> "CsPoint":
        return cls(
            t=int(t),
            estimate=float(estimate),
            lower=float(estimate - radius),
            upper=float(estimate + radius),
            radius=float(radius),
            var_hat=float(var_hat),
        )


@dataclass(frozen=True)
class MartingaleState:
    """Time index and cumulative Gaussian sum of the mixture martingale."""

    t: int = 0
    w: float = 0.0

    def __post_init__(self):
        if self.t < 0:
            raise DomainError("t must be nonnegative")
        if self.t == 0 and self.w != 0.0:
            raise DomainError("cumulative sum must be 0 at t = 0")

    def advance(self, g: float) -> "MartingaleState":
        return MartingaleState(self.t + 1, self.w + float(g))


def _mixture_unit(t: int, v: float, spec: BoundarySpec) -> float:
    """sqrt( 2a / (t^2 rho^2) * log( sqrt(a) / alpha ) ) with a = t v rho^2 + 1."""
    rho2 = spec.rho * spec.rho
    a = t * v * rho2 + 1.0
    return math.sqrt(2.0 * a / (t * t * rho2) * math.log(math.sqrt(a) / spec.alpha))


def mixture_radius(t: int, sigma_hat: float, spec: BoundarySpec) -> float:
    """Normal mixture confidence-sequence radius at time t.

    radius = sigma_hat * sqrt( 2 (t rho^2 + 1) / (t^2 rho^2)
                               * log( sqrt(t rho^2 + 1) / alpha ) )
    """
    if t < 1:
        raise DomainError(f"t must be >= 1, got {t}")
    if sigma_hat < 0:
        raise DomainError("sigma_hat must be nonnegative")
    return sigma_hat * _mixture_unit(t, 1.0, spec)


def non_iid_radius(t: int, sigma_bar_sq_hat: float, spec: BoundarySpec) -> float:
    """Boundary for independent, non-identically-distributed streams.

    (1/t) * sqrt( 2 (t s^2 rho^2 + 1) / rho^2
                  * log( sqrt(t s^2 rho^2 + 1) / alpha ) )
    where s^2 is the running average of the per-observation variances.
    Reduces exactly to ``mixture_radius`` with sigma_hat = 1 when s^2 = 1.
    """
    if t < 1:
        raise DomainError(f"t must be >= 1, got {t}")
    if sigma_bar_sq_hat < 0:
        raise DomainError("sigma_bar_sq_hat must be nonnegative")
    return _mixture_unit(t, sigma_bar_sq_hat, spec)


def tune_rho(alpha: float, t_star: int, method: str = "exact") -> float:
    """rho minimizing the normal mixture radius at time t_star.

    'exact' inverts the stationarity condition through the lower Lambert W
    branch and requires alpha <= sqrt(W0(1)) ~ 0.7531; 'approx' replaces
    the Lambert W value with its log-log expansion.
    """
    if t_star < 1:
        raise DomainError(f"t_star must be >= 1, got {t_star}")
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    a2 = alpha * alpha
    if method == "exact":
        if alpha >= SQRT_OMEGA:
            raise DomainError(
                f"exact tuning requires alpha < sqrt(W0(1)) ~ {SQRT_OMEGA:.4f}"
            )
        # stationarity of the radius in rho^2: with u = t rho^2 + 1 the
        # minimizer solves u - 1 = log(u / alpha^2), i.e. u = -W_{-1}(-alpha^2 / e)
        z = -a2 * math.exp(-1.0)
        return math.sqrt((-lambert_w("lower", z) - 1.0) / t_star)
    if method == "approx":
        num = -a2 - 2.0 * math.log(alpha) + math.log(-2.0 * math.log(alpha) + 1.0 - a2)
        if num <= 0:
            raise DomainError("approximate tuning degenerates at this alpha")
        return math.sqrt(num / t_star)
    raise DomainError(f"unknown method: {method!r}")


def norm_quantile(p: float) -> float:
    """Standard normal quantile."""
    if not 0.0 < p < 1.0:
        raise DomainError(f"p must lie in (0, 1), got {p}")
    return NormalDist().inv_cdf(p)


def fixed_ci_radius(t: int, sigma_hat: float, alpha: float) -> float:
    """Fixed-time CLT confidence interval radius, sigma * q_{alpha/2} / sqrt(t)."""
    if t < 1:
        raise DomainError(f"t must be >= 1, got {t}")
    if sigma_hat < 0:
        raise DomainError("sigma_hat must be nonnegative")
    return sigma_hat * norm_quantile(1.0 - alpha / 2.0) / math.sqrt(t)


def mixture_martingale(state: MartingaleState, rho: float) -> float:
    """Closed form of the Gaussian-mixture exponential martingale.

    M_t = exp( rho^2 W_t^2 / (2 (t rho^2 + 1)) ) / sqrt(t rho^2 + 1)
    with M_0 = 1. Equals the Gaussian mixture of exp(lambda W_t - t
    lambda^2 / 2) over lambda ~ N(0, rho^2).
    """
    if rho <= 0:
        raise DomainError(f"rho must be positive, got {rho}")
    rho2 = rho * rho
    a = state.t * rho2 + 1.0
    return math.exp(rho2 * state.w * state.w / (2.0 * a)) / math.sqrt(a)
