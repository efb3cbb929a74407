"""Boundary radii, rho tuning, and the mixture-martingale oracle."""

import math

import numpy as np
import pytest
from scipy import integrate, stats

from seqdr.boundaries import (
    SQRT_OMEGA,
    BoundarySpec,
    CsPoint,
    MartingaleState,
    fixed_ci_radius,
    mixture_martingale,
    mixture_radius,
    non_iid_radius,
    norm_quantile,
    tune_rho,
)
from seqdr.numerics import DomainError


def quad_mixture(t, w, rho):
    """Quadrature oracle: integral of exp(l w - t l^2 / 2) dN(0, rho^2)(l)."""
    def f(lam):
        return math.exp(lam * w - t * lam * lam / 2.0) * stats.norm.pdf(
            lam, scale=rho
        )
    val, err = integrate.quad(f, -np.inf, np.inf, epsabs=1e-12, epsrel=1e-10)
    assert err < 1e-7 * max(1.0, val)
    return val


class TestMixtureRadius:
    def test_spot_value(self):
        spec = BoundarySpec(alpha=0.05, rho=1.0)
        assert mixture_radius(1, 1.0, spec) == pytest.approx(3.65636, abs=1e-4)

    def test_zero_sigma(self):
        assert mixture_radius(10, 0.0, BoundarySpec(0.05, 1.0)) == 0.0

    def test_sigma_scaling(self):
        spec = BoundarySpec(0.05, 0.5)
        assert mixture_radius(7, 3.0, spec) == pytest.approx(
            3.0 * mixture_radius(7, 1.0, spec), rel=1e-12
        )

    def test_decreasing_in_t(self):
        spec = BoundarySpec(0.05, 0.3)
        radii = [mixture_radius(t, 1.0, spec) for t in range(1, 2000)]
        assert all(a > b for a, b in zip(radii, radii[1:]))

    def test_domain_error(self):
        with pytest.raises(DomainError):
            mixture_radius(0, 1.0, BoundarySpec(0.05, 1.0))

    def test_crossing_probability_matches_martingale_threshold(self):
        # at the radius, the closed-form martingale of W_t = t * radius
        # hits exactly 1/alpha
        spec = BoundarySpec(alpha=0.07, rho=0.4)
        for t in (1, 10, 400):
            r = mixture_radius(t, 1.0, spec)
            m = mixture_martingale(MartingaleState(t, t * r), spec.rho)
            assert m == pytest.approx(1.0 / spec.alpha, rel=1e-10)


class TestNonIidRadius:
    def test_reduces_to_mixture_at_unit_variance(self):
        for t in (1, 10, 1000):
            for rho in (0.3, 1.0, 2.0):
                spec = BoundarySpec(0.05, rho)
                assert non_iid_radius(t, 1.0, spec) == pytest.approx(
                    mixture_radius(t, 1.0, spec), rel=1e-14
                )

    def test_spot_value_unit(self):
        assert non_iid_radius(1, 1.0, BoundarySpec(0.05, 1.0)) == pytest.approx(
            3.65636, abs=1e-4
        )

    def test_degenerate_variance(self):
        t, rho, alpha = 9, 0.7, 0.05
        want = math.sqrt(2.0 / (rho * rho) * math.log(1.0 / alpha)) / t
        assert non_iid_radius(t, 0.0, BoundarySpec(alpha, rho)) == pytest.approx(
            want, rel=1e-12
        )

    def test_independent_reimplementation(self):
        t, s2, rho, alpha = 100, 2.0, 0.3, 0.1
        a = t * s2 * rho**2 + 1.0
        want = math.sqrt(2.0 * a / rho**2 * math.log(math.sqrt(a) / alpha)) / t
        got = non_iid_radius(t, s2, BoundarySpec(alpha, rho))
        assert got == pytest.approx(want, abs=1e-8)


class TestTuneRho:
    def test_approx_spot_value(self):
        assert tune_rho(0.05, 100, "approx") == pytest.approx(0.281661, abs=1e-5)

    def test_exact_spot_value_vs_bisection(self):
        got = tune_rho(0.05, 100, "exact")
        assert got == pytest.approx(0.28652, abs=1e-3)
        # bisection oracle on the derivative of the radius in rho
        spec = lambda r: BoundarySpec(0.05, r)
        def deriv(r, h=1e-7):
            return (
                mixture_radius(100, 1.0, spec(r + h))
                - mixture_radius(100, 1.0, spec(r - h))
            ) / (2 * h)
        lo, hi = 0.05, 1.0
        assert deriv(lo) < 0 < deriv(hi)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if deriv(mid) < 0:
                lo = mid
            else:
                hi = mid
        assert got == pytest.approx(0.5 * (lo + hi), abs=1e-6)

    def test_local_minimum(self):
        rho = tune_rho(0.05, 100, "exact")
        spec = lambda r: BoundarySpec(0.05, r)
        at = mixture_radius(100, 1.0, spec(rho))
        assert at < mixture_radius(100, 1.0, spec(0.9 * rho))
        assert at < mixture_radius(100, 1.0, spec(1.1 * rho))

    def test_scales_inverse_sqrt_t(self):
        assert tune_rho(0.05, 400, "exact") == pytest.approx(
            tune_rho(0.05, 100, "exact") / 2.0, rel=1e-12
        )

    def test_exact_domain_limit(self):
        with pytest.raises(DomainError):
            tune_rho(SQRT_OMEGA + 1e-6, 100, "exact")
        # just inside the limit must still work
        assert tune_rho(SQRT_OMEGA - 1e-6, 100, "exact") > 0


class TestNormQuantile:
    def test_against_scipy(self):
        for p in (1e-9, 1e-4, 0.025, 0.3, 0.5, 0.8, 0.975, 1 - 1e-6):
            assert norm_quantile(p) == pytest.approx(
                float(stats.norm.ppf(p)), abs=1e-8
            )

    def test_domain(self):
        with pytest.raises(DomainError):
            norm_quantile(0.0)
        with pytest.raises(DomainError):
            norm_quantile(1.0)


class TestFixedCiRadius:
    def test_spot_value(self):
        assert fixed_ci_radius(100, 1.0, 0.05) == pytest.approx(0.195996, abs=1e-5)

    def test_zero_sigma_and_scaling(self):
        assert fixed_ci_radius(10, 0.0, 0.05) == 0.0
        assert fixed_ci_radius(400, 1.0, 0.05) == pytest.approx(
            fixed_ci_radius(100, 1.0, 0.05) / 2.0, rel=1e-12
        )


class TestMixtureMartingale:
    def test_trivial_values(self):
        assert mixture_martingale(MartingaleState(3, 0.0), 1.0) == pytest.approx(0.5)
        assert mixture_martingale(MartingaleState(0, 0.0), 0.3) == pytest.approx(1.0)

    def test_matches_quadrature_grid(self):
        # the closed form is the Gaussian mixture of the exponential
        # martingale; check it against adaptive quadrature
        for t in (1, 5, 10, 50):
            for rho in (0.25, 0.5, 1.0, 2.0):
                for w in (-5.0, 0.0, 2.5, 5.0, 0.5 * t):
                    closed = mixture_martingale(MartingaleState(t, w), rho)
                    oracle = quad_mixture(t, w, rho)
                    assert closed == pytest.approx(oracle, rel=1e-6)

    def test_invalid_state(self):
        with pytest.raises(DomainError):
            MartingaleState(0, 1.0)
        with pytest.raises(DomainError):
            MartingaleState(-1, 0.0)


class TestCsPoint:
    def test_from_radius(self):
        p = CsPoint.from_radius(4, 2.0, 0.5, 1.25)
        assert (p.lower, p.upper) == (1.5, 2.5)
        assert p.t == 4 and p.var_hat == 1.25
