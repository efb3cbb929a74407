"""Spans around calls into seqdr's layers, recorded from outside the package.

``install`` replaces public names of seqdr with timing wrappers: module
functions in the namespace that looks them up at call time, methods on
their class. Each call is a span with an id, its parent's id, a name, a
start and an end. Totals per name (calls, seconds, seconds of direct
child spans, longest call) cover the whole run; full span records are
kept in memory for the first stream only and written out at the end.
A layer's self time is its span time minus its direct children's.
"""

import json
import time

from reference import EVAL

# (metric, unit, wrapped names it needs)
LAYER_METRICS = (
    ("io.parse_us", "us/row", ("io.parse_observation",)),
    ("io.format_us", "us/row", ("io.format_row",)),
    ("cli.loop_us", "us/row", ("io.parse_observation", "io.format_row",
                               "AteEngine.observe")),
    ("splitting.assign_us", "us/row", ("SplitLedger.assign",)),
    ("ate.observe_us", "us/row", ("AteEngine.observe",)),
    ("ate.score_us", "us/row", ("AteEngine.observe", "ate.eval_influence",
                                "ate._score_batch")),
    ("ate.rows_scored_ratio", "rows/row", ("AteEngine.observe", "ate.eval_influence",
                                           "ate._score_batch")),
    ("ate.assemble_us", "us/row", ("AteEngine.observe", "AteEngine.current_point")),
    ("ate.refits", "count", ("ate.NuisanceFit",)),
    ("ate.refit_max_ms", "ms", ("AteEngine.observe",)),
    ("nuisance.fit_s", "s/stream", ("ate.fit_outcome", "ate.fit_propensity")),
    ("nuisance.propensity_s", "s/stream", ("ate.fit_propensity",)),
    ("nuisance.ensemble_s", "s/stream", ("nuisance.fit_ensemble",)),
    ("nuisance.pgd_steps", "count", ("nuisance.project_simplex",)),
    ("boundaries.radius_us", "us/call", ("ate.mixture_radius",)),
    ("simlab.generate_s", "s/stream", ("simlab.generate_stream",)),
    ("simlab.unadjusted_us", "us/row", ("UnadjustedEstimator.update",)),
)


class Tracer:
    """In-memory span recorder; wrappers pass straight through while inactive."""

    def __init__(self):
        self.active = False
        self.keep_spans = True
        self.spans = []          # (id, parent id, name, start, end)
        self.totals = {}         # name -> [calls, seconds, child seconds, max seconds]
        self.counts = {}         # name -> calls, for count-only wrappers and tallies
        self.first_stream = None  # counts snapshot after the first stream
        self.missing = []
        self._stack = []         # [span id, child seconds] of open spans
        self._next_id = 0
        self._patched = []

    def call(self, name, fn, *args, **kwargs):
        """Run fn as a span called ``name``."""
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else -1
        frame = [span_id, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            dur = end - start
            tot = self.totals.setdefault(name, [0, 0.0, 0.0, 0.0])
            tot[0] += 1
            tot[1] += dur
            tot[2] += frame[1]
            tot[3] = max(tot[3], dur)
            if self._stack:
                self._stack[-1][1] += dur
            if self.keep_spans:
                self.spans.append((span_id, parent, name, start, end))

    def tally(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def _timed(self, name, fn, after):
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            result = self.call(name, fn, *args, **kwargs)
            if after is not None:
                after(self, args, result)
            return result
        return wrapper

    def _counted(self, name, fn):
        def wrapper(*args, **kwargs):
            if self.active:
                self.tally(name)
            return fn(*args, **kwargs)
        return wrapper

    def patch(self, owners, attr, name, after=None, count_only=False):
        """Replace ``attr`` on every owner with one wrapper around the
        first owner's value; a name that no longer exists is recorded
        as missing."""
        fn = getattr(owners[0], attr, None)
        if fn is None:
            self.missing.append(name)
            return
        wrapper = self._counted(name, fn) if count_only else self._timed(name, fn, after)
        for owner in owners:
            if hasattr(owner, attr):
                self._patched.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, wrapper)

    def restore(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def end_stream(self):
        """Mark the end of a stream; span records stop after the first."""
        if self.first_stream is None:
            self.first_stream = dict(self.counts)
        self.keep_spans = False

    def write(self, path, summary):
        with open(path, "w") as fh:
            fh.write(json.dumps({"summary": summary, "missing": self.missing}) + "\n")
            for span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                     "start_us": round(start * 1e6, 3),
                                     "dur_us": round((end - start) * 1e6, 3)}) + "\n")


def _after_observe(tracer, args, row):
    engine = args[0]
    # every row is an evaluation arrival of one view when cross-fitting
    if engine.config.crossfit or engine.ledger.assignment_log[-1] == EVAL:
        tracer.tally("ate.eval_arrivals")


def _after_score_batch(tracer, args, result):
    tracer.tally("ate.batch_rows", len(args[0]))


def install(tracer, seqdr):
    """Wrap the layer boundaries the per-layer metrics are read from."""
    import seqdr.cli as cli
    import seqdr.io as io
    import seqdr.nuisance as nuisance
    import seqdr.simlab as simlab
    from seqdr import ate, splitting

    tracer.patch([io, cli], "parse_observation", "io.parse_observation")
    tracer.patch([io, cli], "format_row", "io.format_row")
    tracer.patch([splitting.SplitLedger], "assign", "SplitLedger.assign")
    tracer.patch([ate.AteEngine], "observe", "AteEngine.observe", _after_observe)
    tracer.patch([ate.AteEngine], "current_point", "AteEngine.current_point")
    for name in ("fit_outcome", "fit_propensity", "eval_influence", "mixture_radius"):
        tracer.patch([ate], name, "ate." + name)
    tracer.patch([ate], "_score_batch", "ate._score_batch", _after_score_batch)
    # a NuisanceFit is built once per refit that produced a fit
    tracer.patch([ate], "NuisanceFit", "ate.NuisanceFit", count_only=True)
    tracer.patch([nuisance], "fit_ensemble", "nuisance.fit_ensemble")
    tracer.patch([nuisance], "project_simplex", "nuisance.project_simplex",
                 count_only=True)
    tracer.patch([simlab], "generate_stream", "simlab.generate_stream")
    tracer.patch([simlab.UnadjustedEstimator], "update", "UnadjustedEstimator.update")


def layer_metrics(tracer, streams):
    """Per-layer metrics of a traced run over ``streams`` input streams.

    Times are per row, per call or per stream; the two counts are those of
    the first stream, so they repeat exactly for a given seed. A metric
    whose wrapped names are missing is left out.
    """
    tot, counts = tracer.totals, tracer.counts
    first = tracer.first_stream or counts

    def secs(name):
        return tot.get(name, (0, 0.0))[1]

    def calls(name):
        return tot.get(name, (0,))[0]

    def per(seconds, n, scale=1e6):
        return scale * seconds / n if n else 0.0

    rows = calls("AteEngine.observe")
    cli_self = 0.0
    if "cli.main" in tot:
        cli_self = tot["cli.main"][1] - tot["cli.main"][2]
    scored = calls("ate.eval_influence") + counts.get("ate.batch_rows", 0)
    arrivals = counts.get("ate.eval_arrivals", 0)
    values = {
        "io.parse_us": per(secs("io.parse_observation"), calls("io.parse_observation")),
        "io.format_us": per(secs("io.format_row"), calls("io.format_row")),
        "cli.loop_us": per(cli_self, calls("io.parse_observation")),
        "splitting.assign_us": per(secs("SplitLedger.assign"), calls("SplitLedger.assign")),
        "ate.observe_us": per(secs("AteEngine.observe"), rows),
        "ate.score_us": per(secs("ate.eval_influence") + secs("ate._score_batch"), rows),
        "ate.rows_scored_ratio": scored / arrivals if arrivals else 0.0,
        "ate.assemble_us": per(secs("AteEngine.current_point"), rows),
        "ate.refits": first.get("ate.NuisanceFit", 0),
        "ate.refit_max_ms": 1e3 * tot.get("AteEngine.observe", (0, 0, 0, 0.0))[3],
        "nuisance.fit_s": per(secs("ate.fit_outcome") + secs("ate.fit_propensity"),
                              streams, 1.0),
        "nuisance.propensity_s": per(secs("ate.fit_propensity"), streams, 1.0),
        "nuisance.ensemble_s": per(secs("nuisance.fit_ensemble"), streams, 1.0),
        "nuisance.pgd_steps": first.get("nuisance.project_simplex", 0),
        "boundaries.radius_us": per(secs("ate.mixture_radius"), calls("ate.mixture_radius")),
        "simlab.generate_s": per(secs("simlab.generate_stream"), streams, 1.0),
        "simlab.unadjusted_us": per(secs("UnadjustedEstimator.update"),
                                    calls("UnadjustedEstimator.update")),
    }
    missing = set(tracer.missing)
    return {name: (values[name], unit)
            for name, unit, needs in LAYER_METRICS if not missing & set(needs)}
