"""seqdr benchmark: run one workload, check its outputs, print its metrics.

    python3 seqbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 seqbench/run.py --self-check

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Progress and failed checks go to standard error. See README.md.
"""

import argparse
import json
import sys

import bootstrap

WORKLOADS = ("monitor_randomized_ensemble", "study_observational_ensemble",
             "study_randomized_light")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="confirm that every output check fails on a perturbed reference")
    parser.add_argument("--study-worker", metavar="WORKLOAD", help=argparse.SUPPRESS)
    parser.add_argument("--first-rep", type=int, default=0, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    seqdr = bootstrap.prepare()

    if args.study_worker:
        import studies

        return studies.worker(seqdr, args.study_worker, args.seed, args.first_rep)
    if args.self_check:
        import selfcheck

        return selfcheck.main(seqdr)
    if args.workload is None:
        parser.error("--workload is required")

    if args.workload == "monitor_randomized_ensemble":
        import monitor

        if args.trace:
            result = monitor.run_traced(seqdr, args.seed, args.seconds)
        else:
            result = monitor.run(seqdr, args.seed, args.seconds)
    else:
        import studies

        if args.trace:
            result = studies.run_traced(seqdr, args.workload, args.seed, args.seconds)
        else:
            result = studies.run(seqdr, args.workload, args.seed, args.seconds)
    attempted, failed, metrics, checks = result
    for name, ok, detail in checks:
        if not ok:
            print(f"CHECK FAILED {name}: {detail}", file=sys.stderr)
    print(f"{sum(ok for _, ok, _ in checks)}/{len(checks)} checks passed", file=sys.stderr)
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    print(json.dumps({"correct": bool(checks) and all(ok for _, ok, _ in checks),
                      "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
