"""Numerical kernels: Lambert W, moments, PSD machinery, seeding."""

import math

import numpy as np
import pytest

from seqdr.numerics import (
    DataError,
    DomainError,
    PsdMatrix,
    RunningMoments,
    SeedSpec,
    lambert_w,
    opnorm,
    psd_sqrt,
)

INV_E = math.exp(-1.0)


def bisect_w(z, lo, hi, iters=200):
    """Independent bisection oracle for w e^w = z on a bracketing interval."""
    f = lambda w: w * math.exp(w) - z
    assert f(lo) * f(hi) <= 0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if f(lo) * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


class TestLambertW:
    def test_identity_cases(self):
        assert lambert_w("principal", 0.0) == 0.0
        assert lambert_w("principal", -INV_E) == -1.0
        assert lambert_w("lower", -INV_E) == -1.0

    def test_omega_constant(self):
        assert abs(lambert_w("principal", 1.0) - 0.567143) < 1e-6

    def test_lower_branch_spot_value(self):
        # bisection oracle over [-30, -1]
        z = -9.2200e-4
        w = lambert_w("lower", z)
        assert abs(w - (-9.2092)) < 1e-3
        assert abs(w - bisect_w(z, -30.0, -1.0)) < 1e-9

    def test_principal_agrees_with_bisection(self):
        for z in [-0.3, -0.1, 0.5, 1.0, 3.0, 100.0, 1e6]:
            w = lambert_w("principal", z)
            hi = max(1.0, math.log(z)) if z > 1 else 1.0
            assert abs(w - bisect_w(z, -1.0, hi)) < 1e-8 * max(1, abs(w))

    def test_residual_fuzz_principal(self):
        rng = np.random.default_rng(42)
        # log-spread grid covering the branch point through huge arguments
        zs = np.concatenate([
            -INV_E + rng.uniform(0, 1, 100) ** 3 * (1e4 + INV_E),
            rng.uniform(-INV_E, 0.0, 100),
        ])
        for z in zs:
            w = lambert_w("principal", float(z))
            assert abs(w * math.exp(w) - z) <= 1e-10 * max(1.0, abs(z))

    def test_residual_fuzz_lower(self):
        rng = np.random.default_rng(43)
        zs = -INV_E + rng.uniform(0, 1, 200) ** 3 * INV_E
        zs = zs[zs < 0]
        for z in zs:
            w = lambert_w("lower", float(z))
            assert w <= -1.0
            assert abs(w * math.exp(w) - z) <= 1e-10 * max(1.0, abs(z))

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            lambert_w("principal", -1.0)
        with pytest.raises(DomainError):
            lambert_w("lower", 0.5)
        with pytest.raises(DomainError):
            lambert_w("lower", -1.0)
        with pytest.raises(DomainError):
            lambert_w("middle", 0.5)
        with pytest.raises(DomainError):
            lambert_w("principal", math.nan)


class TestRunningMoments:
    def test_hand_arithmetic(self):
        m = RunningMoments()
        for y in (1, 2, 3):
            m = m.push(y)
        assert m.count == 3
        assert m.mean == pytest.approx(2.0)
        assert m.variance() == pytest.approx(2.0 / 3.0)

    def test_constant_stream(self):
        m = RunningMoments()
        for _ in range(50):
            m = m.push(7.5)
        assert m.variance() == pytest.approx(0.0, abs=1e-12)

    def test_matches_two_pass_batch(self):
        rng = np.random.default_rng(0)
        y = rng.standard_normal(10_000)
        m = RunningMoments()
        for v in y:
            m = m.push(v)
        assert abs(m.variance() - 1.0) < 0.05
        assert m.variance() == pytest.approx(float(np.var(y)), rel=1e-10)
        assert m.mean == pytest.approx(float(np.mean(y)), abs=1e-12)

    def test_merge_equals_concatenation(self):
        rng = np.random.default_rng(1)
        a, b = rng.standard_normal(137), rng.standard_normal(263)
        ma = RunningMoments()
        for v in a:
            ma = ma.push(v)
        mb = RunningMoments()
        for v in b:
            mb = mb.push(v)
        both = ma.merge(mb)
        full = np.concatenate([a, b])
        assert both.count == 400
        assert both.mean == pytest.approx(float(np.mean(full)), rel=1e-12)
        assert both.variance() == pytest.approx(float(np.var(full)), rel=1e-10)

    def test_rejects_non_finite(self):
        with pytest.raises(DataError):
            RunningMoments().push(math.inf)


class TestPsdMatrix:
    def test_rejects_asymmetric(self):
        with pytest.raises(DomainError):
            PsdMatrix(np.array([[1.0, 0.5], [0.2, 1.0]]))

    def test_rejects_indefinite(self):
        m = PsdMatrix(np.array([[1.0, 0.0], [0.0, -1.0]]))
        with pytest.raises(DomainError):
            m.eigh()

    def test_sqrt_identity_and_diagonal(self):
        eye = psd_sqrt(PsdMatrix(np.eye(3)))
        assert np.allclose(eye.entries, np.eye(3))
        d = psd_sqrt(PsdMatrix(np.diag([4.0, 9.0])))
        assert np.allclose(d.entries, np.diag([2.0, 3.0]))

    def test_sqrt_squares_back(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = rng.standard_normal((4, 4))
            m = PsdMatrix(a @ a.T)
            r = psd_sqrt(m).entries
            assert opnorm(r @ r - m.entries) < 1e-8 * max(1.0, opnorm(m))


class TestOpnorm:
    def test_trivial(self):
        assert opnorm(np.eye(5)) == pytest.approx(1.0)
        assert opnorm(np.diag([-3.0, 2.0])) == pytest.approx(3.0)

    def test_matches_power_iteration(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((6, 6))
        m = a + a.T
        v = rng.standard_normal(6)
        for _ in range(10_000):
            v = m @ m @ v
            v /= np.linalg.norm(v)
        lam = math.sqrt(float(v @ (m @ m @ v)))
        assert abs(opnorm(m) - lam) < 1e-8

    def test_rejects_asymmetric(self):
        with pytest.raises(DomainError):
            opnorm(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestSeedSpec:
    def test_same_pair_identical_streams(self):
        a = SeedSpec(123, 4).rng().standard_normal(32)
        b = SeedSpec(123, 4).rng().standard_normal(32)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = SeedSpec(123, 4).rng().standard_normal(32)
        b = SeedSpec(123, 5).rng().standard_normal(32)
        assert not np.array_equal(a, b)

    def test_negative_seed_rejected(self):
        for args in ((-1,), (0, -1)):
            with pytest.raises(DomainError, match="non-negative"):
                SeedSpec(*args)
