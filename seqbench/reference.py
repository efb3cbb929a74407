"""Reference values computed apart from seqdr, and the checks that use them.

Nothing here calls into seqdr's estimators, boundaries or learners: the
mixture scale comes from a bisection, the radius from its closed form,
the unadjusted comparator from an IPW difference and the cross-fit
estimate from per-arm least squares, all in numpy. Each check returns
``(ok, detail)``.
"""

import math

import numpy as np

TRAIN, EVAL = "train", "eval"


def mixture_rho(alpha, t_opt):
    """rho minimizing the normal-mixture radius at t_opt.

    With u = t_opt rho^2 + 1 the minimizer solves u - 1 = log(u / alpha^2),
    u > 1; the root is found by bisection.
    """
    def f(u):
        return u - 1.0 - math.log(u / (alpha * alpha))

    lo, hi = 1.0, 2.0
    while f(hi) <= 0.0:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    return math.sqrt((0.5 * (lo + hi) - 1.0) / t_opt)


def mixture_radius(t, var, alpha, rho):
    """sigma * sqrt(2 (t rho^2 + 1) / (t^2 rho^2) * log(sqrt(t rho^2 + 1) / alpha))."""
    t = np.asarray(t, dtype=float)
    a = t * rho * rho + 1.0
    return np.sqrt(var) * np.sqrt(
        2.0 * a / (t * t * rho * rho) * np.log(np.sqrt(a) / alpha))


def check_monitor_rows(text, n_rows, alpha, rho):
    """Row-level properties of one monitor stream's output.

    Every row: t counts 1..n and T + T' = t. Every ok row: lower <= psi <=
    upper, upper - psi = psi - lower = radius, and radius equals the
    mixture formula at t with sigma = sqrt(var_hat). Values are printed
    with 9 significant digits, so equalities hold to that precision.
    """
    header, *lines = text.splitlines()
    fields = [line.split(",") for line in lines]
    if header != "t,T,T_prime,psi_hat,lower,upper,radius,var_hat,status":
        return False, f"unexpected header {header!r}"
    if len(fields) != n_rows or any(len(f) != 9 for f in fields):
        return False, f"expected {n_rows} rows of 9 fields"
    counts = np.array([[int(f[0]), int(f[1]), int(f[2])] for f in fields])
    if not np.array_equal(counts[:, 0], np.arange(1, n_rows + 1)):
        return False, "t does not count 1..n"
    if not np.array_equal(counts[:, 1] + counts[:, 2], counts[:, 0]):
        return False, "T + T_prime != t"
    ok_rows = [f for f in fields if f[8] == "ok"]
    other = {f[8] for f in fields} - {"ok", "not_ready"}
    if other:
        return False, f"unknown status {sorted(other)}"
    if any(f[3:8] != [""] * 5 for f in fields if f[8] == "not_ready"):
        return False, "not_ready row carries an interval"
    if not ok_rows or fields[-1][8] != "ok":
        return False, "stream ends without an interval"
    t = np.array([float(f[0]) for f in ok_rows])
    psi, lower, upper, radius, var = np.array(
        [[float(v) for v in f[3:8]] for f in ok_rows]).T
    if not (np.all(lower <= psi) and np.all(psi <= upper)):
        return False, "psi_hat outside [lower, upper]"
    scale = np.abs(psi) + np.abs(upper) + np.abs(lower) + radius
    half_err = np.maximum(np.abs(upper - psi - radius), np.abs(psi - lower - radius))
    if np.any(half_err > 1e-8 * scale):
        return False, f"half-widths differ from radius by {half_err.max():.3g}"
    ref = mixture_radius(t, var, alpha, rho)
    rel = np.abs(radius - ref) / ref
    if not np.all(rel <= 1e-8):
        return False, f"radius off the mixture formula by {rel.max():.3g} relative"
    return True, f"{len(ok_rows)} ok rows, radius within {rel.max():.2g} relative"


def ipw_estimate(a, y, known_pi):
    """Unadjusted IPW difference over a whole stream: known propensities
    in randomized streams, the treated fraction in observational ones."""
    a = np.asarray(a, dtype=float)
    y = np.asarray(y, dtype=float)
    if known_pi is not None:
        pi = np.asarray(known_pi, dtype=float)
        return float(np.mean((a / pi - (1.0 - a) / (1.0 - pi)) * y))
    pbar = a.mean()
    return float((y[a == 1].sum() / pbar - y[a == 0].sum() / (1.0 - pbar)) / a.size)


def _arm_fit(x, y, learner):
    """Per-arm outcome model: plain least squares with an intercept, or the mean."""
    if learner == "mean_only":
        mean = y.mean()
        return lambda q: np.full(len(q), mean)
    design = np.column_stack([np.ones(len(y)), x])
    beta = np.linalg.lstsq(design, y, rcond=None)[0]
    return lambda q: beta[0] + q @ beta[1:]


def aipw_crossfit(x, a, y, known_pi, assignment_log, learner, clip_delta=0.01):
    """Final cross-fit AIPW estimate and pooled influence variance.

    Each view fits per-arm outcome models on its fit group's first 2^k rows,
    2^k being its last doubling refit, and averages the uncentered
    influence values over the other group's rows.
    """
    groups = np.asarray(assignment_log)
    s1 = s2 = 0.0
    means = []
    for fit_group, score_group in ((TRAIN, EVAL), (EVAL, TRAIN)):
        fit_rows = np.flatnonzero(groups == fit_group)
        k = 1 << (len(fit_rows).bit_length() - 1)
        fit_rows = fit_rows[:k]
        models = {arm: _arm_fit(x[fit_rows][a[fit_rows] == arm],
                                y[fit_rows][a[fit_rows] == arm], learner)
                  for arm in (0, 1)}
        rows = np.flatnonzero(groups == score_group)
        xs, arm, ys = x[rows], a[rows], y[rows]
        pi = np.clip(known_pi[rows], clip_delta, 1.0 - clip_delta)
        m1, m0 = models[1](xs), models[0](xs)
        f = (m1 - m0) + (arm / pi - (1 - arm) / (1.0 - pi)) * (ys - np.where(arm == 1, m1, m0))
        means.append(f.mean())
        s1 += f.sum()
        s2 += f @ f
    n = len(groups)
    return 0.5 * (means[0] + means[1]), s2 / n - (s1 / n) ** 2


def close(value, ref, rel):
    return abs(value - ref) <= rel * max(1.0, abs(ref))


def check_ipw(final_estimate, a, y, known_pi):
    ref = ipw_estimate(a, y, known_pi)
    return close(final_estimate, ref, 1e-9), f"unadjusted {final_estimate!r} vs IPW {ref!r}"


def check_aipw(estimate, var, x, a, y, known_pi, assignment_log, learner):
    ref_est, ref_var = aipw_crossfit(x, a, y, known_pi, assignment_log, learner)
    ok = close(estimate, ref_est, 1e-9) and close(var, ref_var, 1e-9)
    return ok, (f"{learner}: estimate {estimate!r} vs {ref_est!r}, "
                f"var {var!r} vs {ref_var!r}")


def check_centered(estimates, psi, k=4.0):
    """Mean estimate within k Monte Carlo standard errors of psi, the
    standard error taken from the estimates' own spread."""
    est = np.asarray(estimates, dtype=float)
    if est.size < 2 or not np.all(np.isfinite(est)):
        return False, f"{est.size} finite estimates are too few"
    se = est.std(ddof=1) / math.sqrt(est.size)
    gap = abs(est.mean() - psi)
    return gap <= k * se, (f"mean {est.mean():.5f} over {est.size} reps, "
                           f"|mean - {psi}| = {gap:.4f}, {k:g} SE = {k * se:.4f}")
