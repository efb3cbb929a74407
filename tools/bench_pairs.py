"""Run alternating benchmark pairs on two checkouts and write BENCH_*.json.

    python3 tools/bench_pairs.py BASE --workload W --pairs N --seconds S \\
        --first-seed K --out BENCH_<topic>.json [--trace] [--topic TEXT] [--claim METRIC]

BASE is the parent checkout; the change is the checkout that holds this
script. Pair i runs seed K + i on both, each with its own
``seqbench/run.py`` in a subprocess started from its root, one after the
other: odd seeds run the parent first, even seeds the change first, so
drift in the host's speed falls on both sides alike.

Without ``--trace`` the runs use ``--trace 0``, and the workload's entry
in the output holds the seeds, every run's record and, for each
end-to-end metric of ``BENCHMARK.json``, the parent's and the change's
median and interquartile range and ``change_wins``, the number of pairs
the change won under the metric's ``better``. With ``--trace`` the runs
use ``--trace 1``, and the per-layer medians of each side go under the
workload's ``traced`` key. An existing output file is updated in place,
so one file can gather both workloads and their traced pairs; it is
rewritten after every pair.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib.metadata import version
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartile_range(values: list[float]) -> float:
    """Upper minus lower quartile, interpolating linearly between order
    statistics (numpy's default percentile)."""
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[2] - q[0]


def summarize(parent: list[dict], change: list[dict], metrics: list[dict]) -> dict:
    """Per-metric medians, IQRs and change wins over paired run records.

    ``parent[i]`` and ``change[i]`` are the two runs of pair i; a pair in
    which either run has no value for a metric is left out of it.
    ``metrics`` are ``BENCHMARK.json`` entries (``name``, ``unit``,
    ``better``).
    """
    out = {}
    for m in metrics:
        name = m["name"]
        pairs = [(p[name], c[name]) for p, c in zip(parent, change)
                 if name in p and name in c]
        if not pairs:
            continue
        ps, cs = [p for p, _ in pairs], [c for _, c in pairs]
        if m["better"] == "lower":
            wins = sum(c < p for p, c in pairs)
        else:
            wins = sum(c > p for p, c in pairs)
        out[name] = {
            "unit": m["unit"],
            "better": m["better"],
            "parent": round(statistics.median(ps), 4),
            "change": round(statistics.median(cs), 4),
            "parent_iqr": round(quartile_range(ps), 4) if len(ps) > 1 else 0.0,
            "change_iqr": round(quartile_range(cs), 4) if len(cs) > 1 else 0.0,
            "change_wins": wins,
        }
    return out


def traced_medians(runs: list[dict], names: list[str]) -> dict:
    """The median of each per-layer metric over one side's traced runs."""
    return {name: round(statistics.median(r[name] for r in runs if name in r), 4)
            for name in names if any(name in r for r in runs)}


def run_one(checkout: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One ``seqbench/run.py`` run in ``checkout``: its record, or an
    ``error`` entry when it did not print its JSON line."""
    argv = [sys.executable, "seqbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"seed": seed, "error": f"exit {proc.returncode}: {' | '.join(tail)}"}
    record = {"seed": seed, "correct": result["correct"],
              "attempted": result["attempted"], "failed": result["failed"]}
    for name, metric in result["metrics"].items():
        record[name] = round(metric["value"], 4)
    return record


def git_head(checkout: Path) -> str:
    def git(*args):
        return subprocess.run(["git", "-C", str(checkout), *args],
                              capture_output=True, text=True).stdout.strip()
    head = git("rev-parse", "HEAD")
    if not head:
        return "unknown (not a git checkout)"
    if git("status", "--porcelain", "--untracked-files=no"):
        return f"{head} with uncommitted changes"
    return head


def machine() -> str:
    """CPUs, platform, Python, and numpy with the BLAS it was built
    against (the BLAS decides the bits of a distance product)."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"{os.cpu_count()} CPUs; {platform.system()} {platform.machine()}, "
            f"Python {platform.python_version()}, numpy {version('numpy')} "
            f"({blas['name']} {blas['version']})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", type=Path, help="the parent checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", action="store_true",
                        help="run --trace 1 and record per-layer medians")
    parser.add_argument("--topic", help="what the change does, for the file's header")
    parser.add_argument("--claim", metavar="METRIC",
                        help="record METRIC on this workload as the claimed gain")
    args = parser.parse_args(argv)
    base = args.base.resolve()
    if not (base / "seqbench" / "run.py").is_file():
        sys.exit(f"bench_pairs: no seqbench/run.py in {base}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = f"{args.seconds:g}"

    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    if args.topic:
        doc["topic"] = args.topic
    doc.setdefault("topic", "")
    doc["parent_commit"] = git_head(base)
    doc["change_commit"] = git_head(ROOT)
    doc["command"] = f"python3 seqbench/run.py --workload NAME --seed SEED --seconds {seconds} --trace 0"
    doc["machine"] = machine()
    doc["protocol"] = (f"pairs of {seconds}-s runs with the same seed on both commits, one "
                       "after the other, alternating which side runs first (odd seeds parent "
                       "first)")
    if args.claim:
        doc["claimed"] = {"workload": args.workload, "metric": args.claim}
    entry = doc.setdefault("workloads", {}).setdefault(args.workload, {})

    seeds = list(range(args.first_seed, args.first_seed + args.pairs))
    runs = {"parent": [], "change": []}
    for seed in seeds:
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        for side in order:
            record = run_one(base if side == "parent" else ROOT, args.workload,
                             seed, args.seconds, args.trace)
            runs[side].append(record)
            print(f"{args.workload} seed {seed} {side}: {record}", file=sys.stderr, flush=True)
        ok = [(p, c) for p, c in zip(runs["parent"], runs["change"])
              if "error" not in p and "error" not in c]
        if args.trace:
            names = [m["name"] for m in spec["per_layer"]]
            entry["traced"] = {
                "command": f"python3 seqbench/run.py --workload {args.workload} "
                           f"--seed SEED --seconds {seconds} --trace 1",
                "seeds": seeds[: len(runs["parent"])],
                "parent": traced_medians([p for p, _ in ok], names),
                "change": traced_medians([c for _, c in ok], names),
            }
        else:
            entry["seeds"] = seeds[: len(runs["parent"])]
            entry["medians"] = summarize([p for p, _ in ok], [c for _, c in ok],
                                         spec["end_to_end"])
            entry["runs"] = runs
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
