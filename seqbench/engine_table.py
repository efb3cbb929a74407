"""Reference table of AteEngine throughput for each learner x mode x scoring.

    python3 seqbench/engine_table.py

Each cell is the median of three passes over one 4000-row stream (seed
0), fed to ``AteEngine.observe`` row by row with cross-fitting and
doubling refits; only ``observe`` is timed. The table is measured once for README.md and
is not part of the gated benchmark.
"""

import statistics
import time

import bootstrap

LEARNERS = ("mean_only", "linear", "knn", "spline", "ensemble")
MODES = ("randomized", "observational")
SCORINGS = ("batch", "online")
N = 4000


def obs_per_s(seqdr, learner, mode, scoring):
    sc = seqdr.SimScenario(kind=f"{mode}_ate", n=N, seed=seqdr.SeedSpec(0))
    x, a, y, pi = seqdr.generate_stream(sc, 0)
    rows = [seqdr.Observation(x=x[i], a=int(a[i]), y=float(y[i]),
                              known_pi=None if pi is None else float(pi[i]))
            for i in range(N)]
    config = seqdr.EngineConfig(boundary=seqdr.default_boundary(0.1), mode=mode,
                                learner=seqdr.LearnerSpec(learner), scoring=scoring)
    rates = []
    for _ in range(3):
        engine = seqdr.AteEngine(config)
        t0 = time.perf_counter()
        try:
            for i, z in enumerate(rows):
                engine.observe(z)
        except Exception as exc:  # a failing cell is reported in the table
            return f"fails at row {i + 1}: {exc}"
        rates.append(N / (time.perf_counter() - t0))
    return "%.0f" % statistics.median(rates)


def main():
    seqdr = bootstrap.prepare()
    print("| learner | mode | batch obs/s | online obs/s |")
    print("|---|---|---|---|")
    for learner in LEARNERS:
        for mode in MODES:
            cells = [obs_per_s(seqdr, learner, mode, s) for s in SCORINGS]
            print(f"| {learner} | {mode} | {cells[0]} | {cells[1]} |", flush=True)


if __name__ == "__main__":
    main()
