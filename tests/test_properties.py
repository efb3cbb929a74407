"""Property-based checks over randomized inputs."""

import math
import sys

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from seqdr.boundaries import BoundarySpec, mixture_radius
from seqdr.io import parse_observation, serialize_observation
from seqdr.numerics import RunningMoments, lambert_w
from seqdr.nuisance import project_simplex

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False,
                   allow_infinity=False)


@given(st.lists(finite, min_size=1, max_size=50),
       st.lists(finite, min_size=1, max_size=50))
def test_merge_matches_concatenation(a, b):
    ma = RunningMoments()
    for v in a:
        ma = ma.push(v)
    mb = RunningMoments()
    for v in b:
        mb = mb.push(v)
    merged = ma.merge(mb)
    full = RunningMoments()
    for v in a + b:
        full = full.push(v)
    scale = max(1.0, abs(full.mean))
    assert abs(merged.mean - full.mean) <= 1e-9 * scale
    assert merged.count == full.count


def _pushed(values, start=RunningMoments()):
    m = start
    for v in values:
        m = m.push(v)
    return m


def _assert_same_moments(got, want, values):
    # relative to the largest |value| for the mean and to the mean square
    # for the variance (Welford and two-pass differ by rounding only), with
    # the smallest normal float as the floor: subnormal results lose digits
    tiny = sys.float_info.min
    assert got.count == want.count
    assert abs(got.mean - want.mean) <= 1e-12 * max(map(abs, values)) + tiny
    square = want.variance() + want.mean * want.mean
    assert abs(got.variance() - want.variance()) <= 1e-12 * square + tiny


@given(st.lists(finite, max_size=50), st.lists(finite, min_size=1, max_size=50))
def test_block_moments_match_pushes(prefix, block):
    _assert_same_moments(RunningMoments.of(block), _pushed(block), block)
    _assert_same_moments(_pushed(prefix).merge(RunningMoments.of(block)),
                         _pushed(prefix + block), prefix + block)


@given(st.lists(finite, min_size=1, max_size=8))
def test_simplex_projection_contract(v):
    p = project_simplex(np.asarray(v))
    assert abs(p.sum() - 1.0) <= 1e-8
    assert np.all(p >= -1e-10)


@given(st.floats(min_value=-math.exp(-1.0) + 1e-12, max_value=1e8,
                 allow_nan=False))
def test_lambert_principal_residual(z):
    w = lambert_w("principal", z)
    assert abs(w * math.exp(w) - z) <= 1e-9 * max(1.0, abs(z))


@given(st.integers(min_value=1, max_value=10**6),
       st.floats(min_value=1e-3, max_value=10.0),
       st.floats(min_value=1e-3, max_value=0.5))
def test_mixture_radius_positive_and_scales(t, rho, alpha):
    spec = BoundarySpec(alpha, rho)
    r = mixture_radius(t, 1.0, spec)
    assert r > 0
    assert mixture_radius(t, 2.0, spec) == 2.0 * r


@given(st.lists(st.floats(min_value=-100, max_value=100, allow_nan=False),
                min_size=1, max_size=5),
       st.integers(min_value=0, max_value=1),
       st.floats(min_value=-100, max_value=100, allow_nan=False))
@settings(max_examples=50)
def test_observation_round_trip(x, a, y):
    row = ",".join("%.9g" % v for v in x) + ",%d,%.9g" % (a, y)
    z = parse_observation(row, d=len(x))
    back = parse_observation(serialize_observation(z), d=len(x))
    assert np.array_equal(back.x, z.x)
    assert (back.a, back.y, back.known_pi) == (z.a, z.y, z.known_pi)
