"""Property-based checks over randomized inputs."""

import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seqdr import nuisance
from seqdr.boundaries import BoundarySpec, mixture_radius
from seqdr.io import parse_observation, serialize_observation
from seqdr.numerics import RunningMoments, lambert_w
from seqdr.nuisance import LearnerSpec, fit_outcome, fit_propensity, project_simplex

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


def _knot_rows(pred):
    """Query rows around the knots of every spline basis that ``pred``
    reads: below every knot, above every knot, exactly on each knot, and
    on a different knot per coordinate."""
    if isinstance(pred, nuisance._BasisPredictor):
        knots = pred.basis.knots
        d, m = knots.shape
        rows = [knots.min(axis=1) - 1.0, knots.max(axis=1) + 1.0, *knots.T]
        return rows + [knots[np.arange(d), (np.arange(d) + s) % m] for s in range(m)]
    if isinstance(pred, nuisance._ClippedPredictor):
        return _knot_rows(pred.inner)
    if isinstance(pred, nuisance._StackedPredictor):
        return [q for _, p in pred.terms for q in _knot_rows(p)]
    return []


@given(st.sampled_from(nuisance._KINDS), st.sampled_from(["outcome", "propensity"]),
       st.integers(min_value=1, max_value=4),
       st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from([5, 200]))
@example("knn", "outcome", 2, 0, 200)
@example("knn", "propensity", 3, 1, 200)
@settings(max_examples=80, deadline=None)
def test_row_matches_block(kind, task, d, seed, k):
    # ``row`` on one list of floats against the block call on that one row:
    # exact where the row path reuses the block arithmetic (mean, k-NN,
    # whose k = 200 makes every training row a neighbour), and to rounding
    # where it sums in Python floats
    rng = np.random.default_rng(seed)
    n = 120
    x = rng.standard_normal((n, d))
    spec = LearnerSpec(kind, k=k)
    if task == "propensity":
        labels = (rng.random(n) < 1.0 / (1.0 + np.exp(-x[:, 0]))).astype(float)
        labels[:2] = (0.0, 1.0)
        pred = fit_propensity(x, labels, spec)
    else:
        pred = fit_outcome(x, x.sum(axis=1) + rng.standard_normal(n), spec)
    queries = list(rng.standard_normal((4, d))) + _knot_rows(pred)
    if task == "propensity":
        # far enough out that the logistic link clips at +-700
        far = 1e6 * np.sign(x[0] + 0.5)
        queries += [far, -far]
    for q in queries:
        got = pred.row(q.tolist())
        want = float(pred(q[None, :])[0])
        assert type(got) is float
        if kind in ("mean_only", "knn"):
            assert got == want
        else:
            assert abs(got - want) <= 1e-12 * (abs(want) + 1.0)


@pytest.mark.parametrize("grid", [0.0, 0.5])
def test_knn_row_matches_one_row_block_on_ties(grid):
    # the data of test_knn_chunked_rows_match_one_block; on the coarse grid
    # many distances tie
    rng = np.random.default_rng(14)
    xs = rng.standard_normal((700, 3))
    q = rng.standard_normal((600, 3))
    if grid:
        xs, q = np.round(xs / grid) * grid, np.round(q / grid) * grid
    ys = rng.standard_normal(700)
    pred = fit_outcome(xs, ys, LearnerSpec("knn", k=10))
    for i in range(len(q)):
        assert pred.row(q[i].tolist()) == pred(q[i : i + 1])[0]
