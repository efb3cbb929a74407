"""Write the time-uniform coverage of the observational confidence sequence.

Runs the DR engine with the library defaults (``ensemble``, cross-fitting,
batch scoring, ``default_boundary(0.1)``, t_min 25), or another learner
kind, on ``observational_ate`` over replications 0..reps-1, on the
streams criterion 7 reads, and writes one JSON object:

    python3 tools/coverage_report.py [--reps 100] [--n 4000]
        [--learner ensemble] [--out COVERAGE_observational.json]

The master seed is 0, the seed criterion 7 reads.

Keys: ``uniform_coverage`` (no emitted interval misses psi = 1),
``final_coverage`` (the last interval covers), ``median_final_width``,
``mean_final_estimate``, ``median_first_miss_t`` over the replications
that miss at some t (null when none does), ``coverage_from`` (for each
start m, the share of replications whose intervals cover at every t in
[m, n]), and per replication the first and last missing t (null for
none).
"""

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from seqdr import simlab  # noqa: E402
from seqdr.ate import OBSERVATIONAL, EngineConfig, default_boundary  # noqa: E402
from seqdr.nuisance import LearnerSpec  # noqa: E402
from seqdr.numerics import SeedSpec  # noqa: E402

ALPHA = 0.1
MASTER_SEED = 0
STARTS = (25, 500, 1000, 2000)


def report(reps: int, n: int, learner: str = "ensemble") -> dict:
    scenario = simlab.SimScenario("observational_ate", n=n, seed=SeedSpec(MASTER_SEED))
    config = EngineConfig(boundary=default_boundary(ALPHA), mode=OBSERVATIONAL,
                          learner=LearnerSpec(learner))
    summaries = simlab.run_ate_study(scenario, {"dr": config}, reps)["dr"]
    for rep, s in enumerate(summaries):
        if not s.n_emitted:
            sys.exit(f"coverage_report: replication {rep} emitted no interval")
    firsts = [s.first_miss_t for s in summaries if s.first_miss_t is not None]
    return {
        "scenario": "observational_ate",
        "config": {"learner": config.learner.kind, "crossfit": config.crossfit,
                   "scoring": config.scoring, "alpha": ALPHA, "t_min": config.t_min},
        "master_seed": MASTER_SEED,
        "n": n,
        "reps": reps,
        "uniform_coverage": sum(s.uniform_coverage for s in summaries) / reps,
        "final_coverage": sum(s.final_coverage for s in summaries) / reps,
        "median_final_width": statistics.median(s.final_width for s in summaries),
        "mean_final_estimate": statistics.fmean(s.final_estimate for s in summaries),
        "median_first_miss_t": statistics.median(firsts) if firsts else None,
        "coverage_from": {str(m): sum(s.last_miss_t is None or s.last_miss_t < m
                                      for s in summaries) / reps
                          for m in STARTS if m <= n},
        "first_miss_t": [s.first_miss_t for s in summaries],
        "last_miss_t": [s.last_miss_t for s in summaries],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--reps", type=int, default=100)
    parser.add_argument("--n", type=int, default=4000)
    parser.add_argument("--learner", default="ensemble", help="learner kind of both nuisances")
    parser.add_argument("--out", type=Path, default=Path("COVERAGE_observational.json"))
    args = parser.parse_args(argv)
    start = time.perf_counter()
    result = report(args.reps, args.n, args.learner)
    result["wall_s"] = round(time.perf_counter() - start, 1)
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"uniform {result['uniform_coverage']:.3f} final {result['final_coverage']:.3f} "
          f"width {result['median_final_width']:.4f} "
          f"first miss {result['median_first_miss_t']} from {result['coverage_from']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
