"""Pluggable nuisance learners: outcome regressions and propensity scores.

Provides mean-only, linear, k-nearest-neighbour and regression-spline
learners, plus a simplex-weighted stacked ensemble tuned on a held-out
tail of the training data. The task picks the link: ``linear`` and
``spline`` fit least squares for outcomes and IRLS logistic regression
for propensities. Fitted predictors are pure functions of their input.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace

import numpy as np

from .numerics import DomainError
from .splitting import NotReady

__all__ = [
    "LearnerSpec",
    "NuisanceFit",
    "fit_outcome",
    "fit_propensity",
    "fit_ensemble",
    "project_simplex",
]

_KINDS = ("mean_only", "linear", "knn", "spline", "ensemble")

# knot placement for the spline basis, as quantiles of the training data
_SPLINE_KNOT_QS = (0.25, 0.5, 0.75)

_RIDGE = 1e-8
# hinge columns are nearly collinear with x and x^2, so the spline keeps a
# visible ridge floor
_SPLINE_RIDGE = 1e-6
_IRLS_ITERS = 25
_IRLS_TOL = 1e-8
# the ensemble needs twice this many rows and fits its candidates on at
# least this many
_HOLDOUT_MIN = 5
_PGD_STEPS = 500
# distances per k-NN block (query rows x training rows): a batch rescoring
# is scored in blocks of this many, so the distance and index arrays stay
# a few hundred KB whatever the training size
_KNN_BLOCK = 1 << 15


@dataclass(frozen=True)
class LearnerSpec:
    """Which learner to fit, and the neighbour count of k-NN."""

    kind: str = "ensemble"
    k: int = 10

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise DomainError(f"unknown learner kind: {self.kind!r}")
        if self.k < 1:
            raise DomainError(f"k must be >= 1, got {self.k}")

    def resolved_candidates(self) -> tuple["LearnerSpec", ...]:
        """Candidate list for the ensemble: a misspecified parametric model
        next to two flexible nonparametric ones (an additive regression
        spline and k-nearest-neighbour)."""
        return (
            LearnerSpec("mean_only"),
            replace(self, kind="linear"),
            replace(self, kind="spline"),
            replace(self, kind="knn"),
        )


@dataclass(frozen=True)
class NuisanceFit:
    """The fitted nuisance triple: outcome regressions per arm and the
    propensity score, with outputs of ``pi`` clipped to
    [clip_delta, 1 - clip_delta].

    Each predictor has two entry points: called on an ``(n, d)`` block it
    returns an array of ``n`` values, and ``row(xs)`` takes one row as a
    list of ``d`` floats and returns a float. ``row`` is the per-arrival
    path and does only per-query arithmetic: the parametric and spline
    predictors sum in Python floats (the spline in one fused loop over
    its coordinates and knots), so they agree with the block call on
    ``[xs]`` to rounding (summation order and fused multiply-adds), not
    always to the bit; k-NN's ``row`` is one matrix-vector product, and
    picks the neighbours of the one-row block call except where two
    distances tie to within their last bit.
    """

    mu1: object
    mu0: object
    pi: object
    clip_delta: float = 0.01


def _as_matrix(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    return x


class _MeanPredictor:
    def __init__(self, value: float):
        self.value = float(value)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = _as_matrix(x)
        return np.full(x.shape[0], self.value)

    def row(self, xs: list[float]) -> float:
        return self.value


class _AffinePredictor:
    """A link of intercept + x . coef; subclasses give the block call and
    the one-float ``link``."""

    def __init__(self, intercept: float, coef: np.ndarray):
        self.intercept = float(intercept)
        self.coef = np.asarray(coef, dtype=float)
        self.coef_list = self.coef.tolist()

    def row(self, xs: list[float]) -> float:
        return self.link(self.intercept + sum(map(operator.mul, self.coef_list, xs)))


class _LinearPredictor(_AffinePredictor):
    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = _as_matrix(x)
        return self.intercept + x @ self.coef

    @staticmethod
    def link(z: float) -> float:
        return z


class _LogisticPredictor(_AffinePredictor):
    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = _as_matrix(x)
        z = np.clip(self.intercept + x @ self.coef, -700.0, 700.0)
        out = np.empty_like(z)
        pos = z >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        e = np.exp(z[~pos])
        out[~pos] = e / (1.0 + e)
        return out

    @staticmethod
    def link(z: float) -> float:
        """The block call's link on one float: clip to +-700, then the
        branch of the logistic function that cannot overflow."""
        z = min(max(z, -700.0), 700.0)
        if z >= 0:
            return 1.0 / (1.0 + math.exp(-z))
        e = math.exp(z)
        return e / (1.0 + e)


class _KnnPredictor:
    def __init__(self, xs: np.ndarray, ys: np.ndarray, k: int):
        xs = np.asarray(xs, dtype=float)
        self.ys = np.asarray(ys, dtype=float)
        self.k = min(k, len(ys))
        # squared distances up to the query's own |q|^2, the same for
        # every training row: d2 = |x|^2 - 2 q.x. In exact arithmetic this
        # ranks the rows as |q - x|^2 does; in floats it rounds differently
        # from the form with |q|^2, so the two can break a near-tie
        # differently, most of all for a query far from the training rows.
        # The one training matrix is stored as -2 x (an exact scaling), so
        # d2 is a product plus the cached norms.
        self.sq_norms = np.sum(xs * xs, axis=1)
        self.m2xs = -2.0 * xs
        self.chunk = max(1, _KNN_BLOCK // len(self.ys))  # query rows per block

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = _as_matrix(x)
        if self.k == len(self.ys):
            return np.full(x.shape[0], self.ys.mean())
        if x.shape[0] > self.chunk:
            # a batch rescoring sends thousands of rows at once; chunks
            # keep the distance array small
            return np.concatenate([
                self(x[i : i + self.chunk])
                for i in range(0, x.shape[0], self.chunk)
            ])
        d2 = x @ self.m2xs.T
        d2 += self.sq_norms
        idx = d2.argpartition(self.k - 1, axis=1)[:, : self.k]
        # the add-reduce and true divide that np.mean runs, without its
        # per-call overhead
        return self.ys[idx].sum(axis=1) / self.k

    def row(self, xs: list[float]) -> float:
        # the block formula as one matrix-vector product: its distances
        # can differ from a one-row block's in the last bit (GEMV against
        # GEMM), so the neighbours are the block call's except on such a
        # tie
        if self.k == len(self.ys):
            return float(self.ys.mean())
        d2 = self.m2xs.dot(xs)
        d2 += self.sq_norms
        idx = d2.argpartition(self.k - 1)[: self.k]
        return float(self.ys[idx].sum() / self.k)


class _SplineBasis:
    """Additive quadratic-spline feature map: per coordinate, the raw
    value, its square, and hinge terms max(0, x - q) at training-data
    quartile knots."""

    def __init__(self, knots: np.ndarray):
        self.knots = np.asarray(knots, dtype=float)  # shape (d, n_knots)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = _as_matrix(x)
        # hinge column j * n_knots + q is max(0, x_j - knot_jq)
        hinges = np.maximum(0.0, x[:, :, None] - self.knots[None])
        return np.concatenate([x, x * x, hinges.reshape(x.shape[0], -1)], axis=1)


class _BasisPredictor:
    def __init__(self, basis: _SplineBasis, inner):
        self.basis = basis
        self.inner = inner
        # one row's table per coordinate j, from the inner model's
        # coefficients in the basis's column order: (linear, square,
        # [(knot, hinge coefficient), ...])
        d, n_knots = basis.knots.shape
        coef = inner.coef_list
        self.intercept = inner.intercept
        self.link = inner.link
        self.table = [
            (coef[j], coef[d + j],
             list(zip(basis.knots[j].tolist(),
                      coef[2 * d + j * n_knots : 2 * d + (j + 1) * n_knots])))
            for j in range(d)
        ]

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.inner(self.basis(x))

    def row(self, xs: list[float]) -> float:
        # the inner model on the basis of one row, without building it; a
        # hinge whose knot is at or above v adds nothing, so a branch skips
        # it (cheaper than max)
        acc = self.intercept
        for v, (c_lin, c_sq, hinges) in zip(xs, self.table):
            acc += (c_lin + c_sq * v) * v
            for q, c in hinges:
                if v > q:
                    acc += c * (v - q)
        return self.link(acc)


class _ClippedPredictor:
    def __init__(self, inner, delta: float):
        self.inner = inner
        self.delta = float(delta)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return np.clip(self.inner(x), self.delta, 1.0 - self.delta)

    def row(self, xs: list[float]) -> float:
        return min(max(self.inner.row(xs), self.delta), 1.0 - self.delta)


class _StackedPredictor:
    def __init__(self, predictors: list, weights: np.ndarray):
        # zero-weight candidates are never called; the sum adds the rest
        # in candidate order
        self.terms = [(float(w), p) for w, p in zip(weights, predictors) if w > 0.0]

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = _as_matrix(x)
        out = np.zeros(x.shape[0])
        for w, p in self.terms:
            out += w * p(x)
        return out

    def row(self, xs: list[float]) -> float:
        out = 0.0
        for w, p in self.terms:
            out += w * p.row(xs)
        return out


def _fit_linear(x: np.ndarray, y: np.ndarray, ridge: float) -> _LinearPredictor:
    x = _as_matrix(x)
    n, d = x.shape
    xa = np.hstack([np.ones((n, 1)), x])
    gram = xa.T @ xa + ridge * np.eye(d + 1)
    beta = np.linalg.solve(gram, xa.T @ np.asarray(y, dtype=float))
    return _LinearPredictor(beta[0], beta[1:])


def _fit_logistic(x: np.ndarray, labels: np.ndarray, ridge: float) -> _LogisticPredictor:
    """Logistic regression by iteratively reweighted least squares.

    The iteration count is capped so separable data cannot diverge; the
    caller clips the predictor's outputs anyway.
    """
    x = _as_matrix(x)
    n, d = x.shape
    xa = np.hstack([np.ones((n, 1)), x])
    y = np.asarray(labels, dtype=float)
    beta = np.zeros(d + 1)
    for _ in range(_IRLS_ITERS):
        z = np.clip(xa @ beta, -30.0, 30.0)
        p = 1.0 / (1.0 + np.exp(-z))
        w = np.maximum(p * (1.0 - p), 1e-10)
        grad = xa.T @ (y - p) - ridge * beta
        hess = (xa * w[:, None]).T @ xa + ridge * np.eye(d + 1)
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            break
        beta = beta + step
        if np.abs(step).max() < _IRLS_TOL:
            break
    return _LogisticPredictor(beta[0], beta[1:])


def _fit_link(x: np.ndarray, y: np.ndarray, ridge: float, task: str):
    """Least squares for outcomes, logistic regression for propensities."""
    if task == "propensity":
        return _fit_logistic(x, y, ridge)
    return _fit_linear(x, y, ridge)


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection of v onto the probability simplex.

    A plain loop over the sorted entries: the vectors here have a handful
    of entries, where numpy's per-call overhead would dominate. The
    running sum adds in the order np.cumsum does, so theta is the same to
    the bit as in the sort/cumsum formula.
    """
    v = np.asarray(v, dtype=float)
    vals = v.tolist()
    theta = None
    if all(map(math.isfinite, vals)):
        css = 0.0
        for i, u in enumerate(sorted(vals, reverse=True)):
            css += u
            if u * (i + 1) > css - 1.0:
                theta = (css - 1.0) / (i + 1.0)
    if theta is None:
        raise DomainError("cannot project a non-finite vector onto the simplex")
    return np.maximum(v - theta, 0.0)


def _top_eigenvalue(gram: np.ndarray) -> float:
    """The largest eigenvalue of a symmetric matrix, or inf when an entry
    overflowed."""
    if not np.isfinite(gram).all():
        return math.inf
    return float(np.linalg.eigvalsh(gram).max())


def _tune_weights(
    preds: np.ndarray, target: np.ndarray, loss: str, delta: float
) -> np.ndarray:
    """Simplex-constrained weights minimizing holdout loss by projected
    gradient descent, started from the best single candidate so the
    stack never does worse than any vertex on the tuning fold.

    The step map is deterministic, so once an iterate repeats one seen
    before, every later iterate has been scored already and the best
    cannot change: the descent stops there. It also stops at a loss or
    gradient that overflowed (a huge outcome), keeping the best finite
    iterate, or a vertex when none is finite.
    """
    m, kk = preds.shape
    if kk == 1:
        return np.ones(1)

    if loss == "log":
        pc = np.clip(preds, delta, 1.0 - delta)

        def loss_grad(w):
            q = np.clip(pc @ w, 1e-12, 1.0 - 1e-12)
            value = -np.mean(target * np.log(q) + (1.0 - target) * np.log1p(-q))
            return value, pc.T @ ((q - target) / (q * (1.0 - q))) / m

        lam = _top_eigenvalue(pc.T @ pc / m)
        lip = lam / max(delta * (1.0 - delta), 1e-4) ** 2
    else:
        # 2.0 * preds.T @ r evaluates as (2.0 * preds.T) @ r, so hoisting
        # the product keeps the arithmetic, and the bits, unchanged
        two_pt = 2.0 * preds.T

        def loss_grad(w):
            r = preds @ w - target
            return float(r @ r) / m, two_pt @ r / m

        lip = 2.0 * _top_eigenvalue(preds.T @ preds / m)

    vertices = [loss_grad(e) for e in np.eye(kk)]
    losses = [value if math.isfinite(value) else math.inf for value, _ in vertices]
    j = int(np.argmin(losses))
    w = np.eye(kk)[j].copy()
    if lip <= 0.0 or not math.isfinite(lip):
        return w
    step = 1.0 / lip
    best_w, best_l, grad = w.copy(), losses[j], vertices[j][1]
    seen = {w.tobytes()}
    for _ in range(_PGD_STEPS):
        try:
            w = project_simplex(w - step * grad)
        except DomainError:  # the gradient overflowed
            break
        key = w.tobytes()
        if key in seen:
            break
        seen.add(key)
        cur, grad = loss_grad(w)
        if not math.isfinite(cur):
            break
        if cur < best_l:
            best_l, best_w = cur, w.copy()
    return best_w


def _fit_single(
    x: np.ndarray, y: np.ndarray, spec: LearnerSpec, task: str
):
    if spec.kind == "mean_only":
        return _MeanPredictor(float(np.mean(y)))
    if spec.kind == "linear":
        return _fit_link(x, y, _RIDGE, task)
    if spec.kind == "knn":
        return _KnnPredictor(_as_matrix(x), y, spec.k)
    if spec.kind == "spline":
        xm = _as_matrix(x)
        knots = np.quantile(xm, _SPLINE_KNOT_QS, axis=0).T
        basis = _SplineBasis(knots)
        xb = basis(xm)
        # the basis has d*(2 + n_knots) columns; demand a few rows per
        # column before trusting it
        if xb.shape[0] < 4 * xb.shape[1]:
            raise NotReady("spline basis needs more rows than available")
        return _BasisPredictor(basis, _fit_link(xb, y, _SPLINE_RIDGE, task))
    raise DomainError(f"{spec.kind!r} is not a base learner")


def _fit(x: np.ndarray, y: np.ndarray, spec: LearnerSpec, task: str):
    if spec.kind == "ensemble":
        return fit_ensemble(x, y, spec.resolved_candidates(), task)[0]
    return _fit_single(x, y, spec, task)


def fit_outcome(x: np.ndarray, y: np.ndarray, spec: LearnerSpec):
    """Fit a regression predictor for one treatment arm's outcomes."""
    y = np.asarray(y, dtype=float)
    if y.size == 0:
        raise NotReady("no training observations in this arm")
    return _fit(x, y, spec, "outcome")


def fit_propensity(
    x: np.ndarray, labels: np.ndarray, spec: LearnerSpec, clip_delta: float = 0.01
):
    """Fit a clipped probability predictor for treatment assignment."""
    labels = np.asarray(labels, dtype=float)
    if labels.size == 0 or labels.min() == labels.max():
        raise NotReady("propensity fitting needs both treatment labels")
    return _ClippedPredictor(_fit(x, labels, spec, "propensity"), clip_delta)


def fit_ensemble(
    x: np.ndarray,
    y: np.ndarray,
    candidates: tuple[LearnerSpec, ...],
    task: str = "outcome",
):
    """Simplex-weighted stack of candidate learners.

    Candidates are fit on the oldest 80% of the training rows; the
    weights minimize squared loss (regression) or log loss (propensity)
    on the newest 20%, over the probability simplex.

    Returns
    -------
    (predictor, weights)
    """
    if len(candidates) < 1:
        raise DomainError("ensemble needs at least one candidate")
    x = _as_matrix(x)
    y = np.asarray(y, dtype=float)
    n = y.size
    if n < 2 * _HOLDOUT_MIN:
        raise NotReady(f"ensemble needs at least {2 * _HOLDOUT_MIN} rows")
    if len(candidates) == 1:
        pred = _fit_single(x, y, candidates[0], task)
        return _StackedPredictor([pred], np.ones(1)), np.ones(1)

    split = max(_HOLDOUT_MIN, int(math.floor(0.8 * n)))
    split = min(split, n - 1)
    x_fit, y_fit = x[:split], y[:split]
    x_val, y_val = x[split:], y[split:]

    fold_preds, fold_cols = [], []
    for cand in candidates:
        try:
            p = _fit_single(x_fit, y_fit, cand, task)
        except (NotReady, np.linalg.LinAlgError):
            continue
        fold_preds.append(p)
        fold_cols.append(p(x_val))
    if not fold_preds:
        raise NotReady("no candidate could be fit on the tuning fold")

    loss = "log" if task == "propensity" else "squared"
    delta = 1e-3
    weights = _tune_weights(np.column_stack(fold_cols), y_val, loss, delta)
    return _StackedPredictor(fold_preds, weights), weights
