"""Workloads ``study_observational_ensemble`` and ``study_randomized_light``.

Each replication is one ``run_ate_study`` call with reps=1 on a fresh
4000-row stream, so a run can stop between replications; replication r
of seed s uses master seed s * 100000 + r. The estimators are those of
acceptance criteria 7 and 6/9.

The untraced run is a series of rounds. Each round is a fresh worker
process that imports seqdr, builds the study's inputs, says ``ready``
and runs replications for at least ROUND_SECONDS. One process per round
gives a set-up time and a peak RSS per round: in about one replication
in seven a view trains on 2048 rows, and that refit alone takes the
process from ~55 MB to ~86-106 MB, so a peak over a whole run said more
about the seed than about the program.
"""

import json
import resource
import subprocess
import sys
import time
from array import array
from collections import namedtuple
from dataclasses import replace

import numpy as np

import reference
from bootstrap import CPUS, OUT, ROOT, pin

N = 4000
PSI = 1.0
MIN_REPS = 3
REP_STRIDE = 100_000
ROUND_SECONDS = 2.0

STUDIES = {
    "study_observational_ensemble": ("observational_ate", {
        "ensemble": ("observational", "ensemble"), "unadjusted": None}),
    "study_randomized_light": ("randomized_ate", {
        "linear": ("randomized", "linear"), "mean_only": ("randomized", "mean_only"),
        "unadjusted": None}),
}

Final = namedtuple("Final", "final_estimate final_width n_emitted")


def build(seqdr, workload):
    """The study's scenario kind and its estimator map."""
    kind, spec = STUDIES[workload]
    boundary = seqdr.default_boundary(0.1)
    estimators = {
        name: "unadjusted" if s is None else seqdr.EngineConfig(
            boundary=boundary, mode=s[0], learner=seqdr.LearnerSpec(s[1]), t_min=25)
        for name, s in spec.items()}
    return kind, estimators


def scenario(seqdr, kind, seed, rep):
    return seqdr.SimScenario(kind=kind, n=N, seed=seqdr.SeedSpec(seed * REP_STRIDE + rep))


def replications(seqdr, workload, seed, seconds, first_rep=0, min_reps=1, tracer=None):
    """Run replications from ``first_rep`` until ``seconds`` of study time.

    Returns a list of (replication, seconds, {estimator: Final}, or None
    for a replication that raised).
    """
    kind, estimators = build(seqdr, workload)
    reps, spent = [], 0.0
    while spent < seconds or len(reps) < min_reps:
        sc = scenario(seqdr, kind, seed, first_rep + len(reps))
        if tracer is not None:
            tracer.active = True
        t0 = time.perf_counter()
        try:
            out = seqdr.run_ate_study(sc, estimators, reps=1)
        except Exception as exc:  # a failed replication is counted, not fatal
            print(f"replication failed: {exc!r}", file=sys.stderr)
            out = None
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.active = False
            tracer.end_stream()
        spent += dt
        finals = None if out is None else {
            name: Final(s[0].final_estimate, s[0].final_width, s[0].n_emitted)
            for name, s in out.items()}
        reps.append((first_rep + len(reps), dt, finals))
    return reps


def worker(seqdr, workload, seed, first_rep):
    """One round, run in a fresh process: 'ready', then one JSON line with
    the replications, each with its AteEngine.observe times in us."""
    build(seqdr, workload)
    latencies = array("d")
    observe = seqdr.AteEngine.observe

    def timed_observe(engine, z):
        t0 = time.perf_counter()
        row = observe(engine, z)
        latencies.append(time.perf_counter() - t0)
        return row

    seqdr.AteEngine.observe = timed_observe
    print("ready", flush=True)
    reps, spent = [], 0.0
    while not reps or spent < ROUND_SECONDS:
        start = len(latencies)
        [(r, dt, finals)] = replications(seqdr, workload, seed, 0.0, first_rep + len(reps))
        reps.append((r, dt, finals, [v * 1e6 for v in latencies[start:]]))
        spent += dt
    print(json.dumps({"reps": reps, "peak_rss_mb":
                      resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}), flush=True)
    return 0


def _round(workload, seed, first_rep):
    cmd = [sys.executable, str(ROOT / "seqbench" / "run.py"), "--study-worker", workload,
           "--seed", str(seed), "--first-rep", str(first_rep)]
    with open(OUT / "study-stderr.txt", "ab") as err:
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, cwd=ROOT) as proc:
            try:
                ready = proc.stdout.readline()
                setup = time.perf_counter() - t0
                result = proc.stdout.readline()
                code = proc.wait(timeout=120)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
    if ready != b"ready\n" or code != 0:
        return setup, None
    out = json.loads(result)
    reps = [(r, dt, None if f is None else {k: Final(*v) for k, v in f.items()}, lat)
            for r, dt, f, lat in out["reps"]]
    return setup, (reps, out["peak_rss_mb"])


def replay(seqdr, config, sc):
    """Feed replication 0 of ``sc`` to a fresh engine seeded as the study
    seeds it; returns the final point, the split log and the stream."""
    from seqdr.simlab import _SPLIT_STREAM, generate_stream

    x, a, y, pi = generate_stream(sc, 0)
    engine = seqdr.AteEngine(replace(config, seed=seqdr.SeedSpec(sc.seed.master_seed,
                                                                 _SPLIT_STREAM)))
    for i in range(N):
        row = engine.observe(seqdr.Observation(
            x=x[i], a=int(a[i]), y=float(y[i]), known_pi=float(pi[i])))
    return row.point, engine.ledger.assignment_log, (x, a, y, pi)


def _checks(seqdr, workload, seed, done):
    """IPW on every replication, AIPW on the first (light study) and
    centring of the mean estimate over the replications."""
    from seqdr.simlab import generate_stream

    kind, estimators = build(seqdr, workload)
    reps = [(scenario(seqdr, kind, seed, r), finals) for r, finals in done]
    checks = []
    for sc, finals in reps:
        _, a, y, pi = generate_stream(sc, 0)
        ok, detail = reference.check_ipw(finals["unadjusted"].final_estimate, a, y, pi)
        checks.append((f"master seed {sc.seed.master_seed}: unadjusted = IPW", ok, detail))
    engines = [n for n, c in estimators.items() if c != "unadjusted"]
    if kind == "randomized_ate":
        sc, finals = reps[0]
        for name in engines:
            point, log, (x, a, y, pi) = replay(seqdr, estimators[name], sc)
            checks.append((f"{name} replay equals study",
                           point.estimate == finals[name].final_estimate,
                           f"{point.estimate!r} vs {finals[name].final_estimate!r}"))
            ok, detail = reference.check_aipw(point.estimate, point.var_hat, x, a, y, pi,
                                              log, name)
            checks.append((f"{name} = AIPW", ok, detail))
    # the unadjusted comparator is biased by design under confounding
    centred = engines + (["unadjusted"] if kind == "randomized_ate" else [])
    for name in centred:
        ok, detail = reference.check_centered(
            [finals[name].final_estimate for _, finals in reps], PSI)
        checks.append((f"{name} centred on psi", ok, detail))
    for sc, finals in reps:
        for name, f in finals.items():
            if not (f.n_emitted > 0 and f.final_width > 0):
                checks.append((f"master seed {sc.seed.master_seed}: {name} emitted",
                               False, f"{f}"))
    return checks


def _engine_rows(workload):
    return N * sum(s is not None for s in STUDIES[workload][1].values())


def run(seqdr, workload, seed, seconds):
    """Untraced run: rounds of worker processes until ``seconds`` of study time."""
    setups, rss, secs, latencies, done = [], [], [], [], []
    attempted = failed = 0
    while sum(secs) < seconds or len(done) < MIN_REPS:
        pin(len(setups))  # rounds alternate between the CPUs, as monitor streams do
        setup, result = _round(workload, seed, attempted)
        setups.append(setup)
        if result is None:  # the worker died: count one failed operation
            attempted += 1
            failed += 1
            continue
        reps, peak = result
        rss.append(peak)
        for r, dt, finals, lat in reps:
            attempted += 1
            if finals is None:
                failed += 1
            else:
                secs.append(dt)
                latencies.append(np.array(lat))
                done.append((r, finals))
    lat = np.concatenate(latencies)
    metrics = {
        "setup_s": (float(np.median(setups)), "s"),
        "rows_per_s": (_engine_rows(workload) / float(np.median(secs)), "rows/s"),
        "row_latency_p50_us": (float(np.median([np.median(v) for v in latencies])), "us"),
        "row_latency_p999_us": (float(np.percentile(lat, 99.9)), "us"),
        "peak_rss_mb": (float(np.median(rss)), "MB"),
    }
    with open(OUT / f"samples-{workload}-seed{seed}.json", "w") as fh:
        json.dump({"setup_s": setups, "rep_s": secs, "peak_rss_mb": rss,
                   "cpu": [CPUS[i % len(CPUS)] for i in range(len(setups))],
                   "rep_p50_us": [float(np.median(v)) for v in latencies]}, fh)
    print(f"{workload}: {len(setups)} rounds, {len(done)} replications in "
          f"{sum(secs):.2f} s", file=sys.stderr)
    return attempted, failed, metrics, _checks(seqdr, workload, seed, done)


def run_traced(seqdr, workload, seed, seconds):
    """Traced run, in this process: spans around every layer."""
    import tracing

    tracer = tracing.Tracer()
    tracing.install(tracer, seqdr)
    try:
        reps = replications(seqdr, workload, seed, seconds, min_reps=MIN_REPS, tracer=tracer)
    finally:
        tracer.restore()
    done = [(r, finals) for r, _, finals in reps if finals is not None]
    secs = sum(dt for _, dt, finals in reps if finals is not None)
    summary = {"workload": workload, "seed": seed, "streams": len(reps),
               "traced_rows_per_s": _engine_rows(workload) * len(done) / secs}
    tracer.write(OUT / f"trace-{workload}-seed{seed}.jsonl", summary)
    print(f"{workload} traced: {summary['traced_rows_per_s']:.0f} rows/s", file=sys.stderr)
    return (len(reps), len(reps) - len(done), tracing.layer_metrics(tracer, len(reps)),
            _checks(seqdr, workload, seed, done))
