"""Scalar and small-matrix numerical kernels.

Lambert W on both real branches, a streaming moment accumulator, the PSD
matrix square root and operator norm, and the seeded RNG contract used
everywhere else in the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DomainError",
    "DataError",
    "SeedSpec",
    "RunningMoments",
    "PsdMatrix",
    "lambert_w",
    "psd_sqrt",
    "opnorm",
]

_INV_E = math.exp(-1.0)


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class DataError(ValueError):
    """An input record contains non-finite or otherwise unusable values."""


@dataclass(frozen=True)
class SeedSpec:
    """Deterministic seeding contract: (master_seed, stream_id) -> RNG.

    Identical (master_seed, stream_id) pairs always yield bit-identical
    random sequences. Distinct stream ids give statistically independent
    streams off the same master seed.
    """

    master_seed: int
    stream_id: int = 0

    def __post_init__(self):
        if self.master_seed < 0 or self.stream_id < 0:
            raise DomainError(f"seeds must be non-negative, got master_seed="
                              f"{self.master_seed}, stream_id={self.stream_id}")

    def rng(self) -> np.random.Generator:
        seq = np.random.SeedSequence(self.master_seed, spawn_key=(self.stream_id,))
        return np.random.Generator(np.random.PCG64(seq))


@dataclass(frozen=True)
class RunningMoments:
    """Streaming count/mean/variance accumulator (Welford form).

    The variance divides by the count, not count - 1.  Instances are
    immutable: ``push`` and ``merge`` return new values.
    """

    count: int = 0
    mean: float = 0.0
    sum_sq_centered: float = 0.0

    @classmethod
    def of(cls, values) -> "RunningMoments":
        """The moments of a block of values in one numpy pass. Unlike
        ``push``, non-finite values are not rejected: they make the moments
        non-finite."""
        v = np.asarray(values, dtype=float)
        if v.size == 0:
            return cls()
        mean = float(v.mean())
        d = v - mean
        return cls(v.size, mean, float(d @ d))

    def push(self, y: float) -> "RunningMoments":
        y = float(y)
        if not math.isfinite(y):
            raise DataError(f"non-finite observation: {y!r}")
        n = self.count + 1
        delta = y - self.mean
        mean = self.mean + delta / n
        m2 = self.sum_sq_centered + delta * (y - mean)
        return RunningMoments(n, mean, m2)

    def merge(self, other: "RunningMoments") -> "RunningMoments":
        if self.count == 0:
            return other
        if other.count == 0:
            return self
        n = self.count + other.count
        delta = other.mean - self.mean
        mean = self.mean + delta * other.count / n
        m2 = (
            self.sum_sq_centered
            + other.sum_sq_centered
            + delta * delta * self.count * other.count / n
        )
        return RunningMoments(n, mean, m2)

    def variance(self) -> float:
        if self.count == 0:
            return 0.0
        return max(self.sum_sq_centered / self.count, 0.0)


@dataclass(frozen=True)
class PsdMatrix:
    """A symmetric positive semidefinite matrix.

    Symmetry is enforced to 1e-12; eigenvalues may drift as low as -1e-10
    (accumulated sums are slightly indefinite) and are clamped to 0.
    """

    entries: np.ndarray

    # tolerances for admission
    SYM_TOL = 1e-12
    EIG_TOL = 1e-10

    def __post_init__(self):
        a = np.asarray(self.entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DomainError(f"expected a square matrix, got shape {a.shape}")
        scale = max(1.0, float(np.abs(a).max(initial=0.0)))
        if np.abs(a - a.T).max(initial=0.0) > self.SYM_TOL * scale:
            raise DomainError("matrix is not symmetric to 1e-12")
        a = 0.5 * (a + a.T)
        object.__setattr__(self, "entries", a)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigendecomposition with small negative eigenvalues clamped to 0."""
        vals, vecs = np.linalg.eigh(self.entries)
        scale = max(1.0, float(np.abs(vals).max(initial=0.0)))
        if vals.min(initial=0.0) < -self.EIG_TOL * scale:
            raise DomainError("matrix is indefinite beyond tolerance")
        return np.maximum(vals, 0.0), vecs


def _halley(w: float, z: float) -> float:
    """Halley iteration for w e^w = z starting from an initial guess."""
    for _ in range(50):
        ew = math.exp(w)
        r = w * ew - z
        if r == 0.0:
            break
        wp1 = w + 1.0
        if abs(wp1) < 1e-12:
            # derivative vanishes at the branch point; fall back to bisection-free
            # damped Newton on the square-rooted residual
            step = r / (ew * math.copysign(max(abs(wp1), 1e-12), wp1 or 1.0))
            step = max(min(step, 0.5), -0.5)
        else:
            denom = ew * wp1 - (w + 2.0) * r / (2.0 * wp1)
            step = r / denom
        w -= step
        if abs(step) <= 1e-15 * (1.0 + abs(w)):
            break
    return w


def lambert_w(branch: str, z: float) -> float:
    """Real Lambert W: the solution w of w * exp(w) = z.

    Parameters
    ----------
    branch : {'principal', 'lower'}
        'principal' is W0, defined for z >= -1/e; 'lower' is W_{-1},
        defined for -1/e <= z < 0 and returning w <= -1.
    z : float

    Returns
    -------
    float
        w with residual |w e^w - z| <= 1e-10 * max(1, |z|).
    """
    z = float(z)
    if not math.isfinite(z):
        raise DomainError(f"non-finite argument: {z!r}")
    # branch point: W(-1/e) = -1 on both branches
    if abs(z + _INV_E) <= 1e-300 or z == -_INV_E:
        if branch in ("principal", "lower"):
            return -1.0
        raise DomainError(f"unknown branch: {branch!r}")

    if branch == "principal":
        if z < -_INV_E:
            raise DomainError(f"principal branch requires z >= -1/e, got {z}")
        if z == 0.0:
            return 0.0
        if z < -0.25:
            # series around the branch point, Corless et al. eq. (4.22)
            p = math.sqrt(2.0 * (math.e * z + 1.0))
            w = -1.0 + p - p * p / 3.0 + 11.0 * p**3 / 72.0
        elif z < math.e:
            w = z / (1.0 + z) if z > 0 else z * (1.0 - z)
        else:
            lz = math.log(z)
            w = lz - math.log(lz)
        return _halley(w, z)

    if branch == "lower":
        if z < -_INV_E or z >= 0.0:
            raise DomainError(f"lower branch requires -1/e <= z < 0, got {z}")
        if z > -0.25:
            # asymptotic form near 0-: W_{-1}(z) ~ log(-z) - log(-log(-z))
            lz = math.log(-z)
            w = lz - math.log(-lz)
        else:
            p = math.sqrt(2.0 * (math.e * z + 1.0))
            w = -1.0 - p - p * p / 3.0 - 11.0 * p**3 / 72.0
        w = _halley(w, z)
        return min(w, -1.0)

    raise DomainError(f"unknown branch: {branch!r}")


def psd_sqrt(a: PsdMatrix) -> PsdMatrix:
    """Symmetric PSD square root R with R @ R = a (to operator-norm 1e-8)."""
    vals, vecs = a.eigh()
    root = (vecs * np.sqrt(vals)) @ vecs.T
    return PsdMatrix(0.5 * (root + root.T))


def opnorm(a: np.ndarray | PsdMatrix) -> float:
    """Operator 2-norm of a symmetric matrix (largest |eigenvalue|)."""
    m = a.entries if isinstance(a, PsdMatrix) else np.asarray(a, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DomainError(f"expected a square matrix, got shape {m.shape}")
    scale = max(1.0, float(np.abs(m).max(initial=0.0)))
    if np.abs(m - m.T).max(initial=0.0) > 1e-8 * scale:
        raise DomainError("opnorm expects a symmetric matrix")
    vals = np.linalg.eigvalsh(0.5 * (m + m.T))
    return float(np.abs(vals).max(initial=0.0))
