"""Print one ``name sha256`` line per replay, for a bit-identity check.

It imports seqdr from the ``src/`` of the checkout that holds it, or of
the checkout given as its one argument (for commits older than this
script). Two checkouts emit the same bits exactly when the outputs are
equal line for line:

    diff <(python3 tools/replay_digest.py) <(python3 tools/replay_digest.py ../other)

The replays are eleven ``seqdr monitor`` flag sets on generated streams,
each hashed twice: as printed (9 significant digits), and as
``monitor_<run>_hex`` with every float written by ``float.hex``, so that
a last-bit change shows. Then come ``seqdr width-table`` at two levels,
``run_ate_study`` on the observational ensemble and unadjusted arms at
three master seeds, and ``run_ate_study`` on the randomized linear and
unadjusted arms at one.
BLAS is pinned to one thread, and ``SEQDR_SEED`` is ignored.

With ``--against BASE`` it prints instead how far the emitted values
moved from checkout BASE to this one, one line per monitor flag set and
per study:

    python3 tools/replay_digest.py --against ../other

``size_<replay> bounds B var_hat V``: B is the largest |change| of the
estimate, lower, upper and radius over BASE's |estimate| + radius, and V
the largest relative change of ``var_hat``, over every row that both
emit. A row whose status or counts (``t``, ``t_eval``, ``t_train``; ``t``
in a study) differ is not measured; the line then ends in
``MISMATCH <rows>``, as it does when the row counts differ.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

_parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
_parser.add_argument("checkout", nargs="?",
                     default=Path(__file__).resolve().parent.parent, type=Path,
                     help="the checkout whose src/ to import (default: this one)")
_parser.add_argument("--against", type=Path, metavar="BASE",
                     help="print the size of the change from BASE instead")
_parser.add_argument("--values", type=Path, metavar="PATH",
                     help="also write every replay's emitted values to PATH (JSON)")
ARGS = _parser.parse_args()
ROOT = ARGS.checkout
SRC = ROOT.resolve() / "src"
if not (SRC / "seqdr" / "__init__.py").is_file():
    sys.exit(f"replay_digest: no seqdr source at {SRC / 'seqdr'}")

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("SEQDR_SEED", None)
sys.path.insert(0, str(SRC))

import seqdr  # noqa: E402
import seqdr.cli  # noqa: E402
import seqdr.simlab  # noqa: E402
from seqdr.cli import main  # noqa: E402
from seqdr.io import serialize_observation  # noqa: E402
from seqdr.simlab import generate_stream  # noqa: E402

if Path(seqdr.__file__).resolve().parent != SRC / "seqdr":
    sys.exit(f"replay_digest: imported seqdr from {seqdr.__file__}, not {SRC}")

MONITOR = ["monitor", "--alpha", "0.1", "--opt-t", "125", "--schema", "d=3"]

# (name, stream kind, rows, flags)
MONITOR_RUNS = [
    ("randomized_crossfit_ensemble", "randomized_ate", 4000,
     ["--crossfit", "--learner", "ensemble"]),
    ("randomized_crossfit_linear", "randomized_ate", 4000,
     ["--crossfit", "--learner", "linear"]),
    ("randomized_linear", "randomized_ate", 4000, ["--learner", "linear"]),
    ("randomized_crossfit_ensemble_batch", "randomized_ate", 4000,
     ["--crossfit", "--learner", "ensemble", "--scoring", "batch"]),
    ("randomized_spline", "randomized_ate", 4000, ["--learner", "spline"]),
    ("randomized_crossfit_knn", "randomized_ate", 4000,
     ["--crossfit", "--learner", "knn"]),
    ("randomized_crossfit_knn_batch", "randomized_ate", 600,
     ["--crossfit", "--learner", "knn", "--scoring", "batch"]),
    ("observational_crossfit_ensemble", "observational_ate", 1500,
     ["--mode", "observational", "--crossfit", "--learner", "ensemble"]),
    ("observational_crossfit_linear", "observational_ate", 1500,
     ["--mode", "observational", "--crossfit", "--learner", "linear"]),
    ("observational_crossfit_spline_batch", "observational_ate", 1500,
     ["--mode", "observational", "--crossfit", "--learner", "spline",
      "--scoring", "batch"]),
    ("observational_mean_only", "observational_ate", 1500,
     ["--mode", "observational", "--learner", "mean_only"]),
]

STUDY_SEEDS = (1200000, 1200001, 1200002)


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def stream_text(kind: str, rows: int) -> str:
    """The first ``rows`` records of stream 0 of seed 0, as CSV."""
    scenario = seqdr.SimScenario(kind=kind, n=4000, seed=seqdr.SeedSpec(0))
    x, a, y, pi = generate_stream(scenario)
    return "".join(
        serialize_observation(seqdr.Observation(
            x=x[i], a=int(a[i]), y=float(y[i]),
            known_pi=None if pi is None else float(pi[i]))) + "\n"
        for i in range(rows))


def point_values(p) -> list | None:
    """A point's estimate, lower, upper, radius and var_hat, as float.hex."""
    if p is None:
        return None
    return [float(v).hex() for v in (p.estimate, p.lower, p.upper, p.radius, p.var_hat)]


def hex_row(row) -> str:
    """``seqdr.cli.format_row`` at full precision: floats as ``float.hex``."""
    body = ",,,," if row.point is None else ",".join(point_values(row.point))
    return "%d,%d,%d,%s,%s" % (row.t, row.t_eval, row.t_train, body, row.status)


def run_hex(tmp: Path, argv: list[str], rows: list) -> bytes:
    """``run_cli`` with the CLI's row formatter swapped for ``hex_row``;
    each row's counts, status and values are appended to ``rows``."""
    printed = seqdr.cli.format_row

    def formatter(row):
        rows.append([[row.t, row.t_eval, row.t_train], row.status,
                     point_values(row.point)])
        return hex_row(row)

    seqdr.cli.format_row = formatter
    try:
        return run_cli(tmp, argv)
    finally:
        seqdr.cli.format_row = printed


def run_cli(tmp: Path, argv: list[str]) -> bytes:
    out = tmp / "out.csv"
    code = main(argv + ["--out", str(out)])
    if code != 0:
        sys.exit(f"replay_digest: {' '.join(argv)} exited {code}")
    return out.read_bytes()


def replay(emit) -> dict[str, list]:
    """Run every replay, passing each digest line to ``emit``; return the
    emitted rows of each monitor flag set and study, as ``[counts, status,
    values]``."""
    values: dict[str, list] = {}
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        for run, kind, rows, flags in MONITOR_RUNS:
            path = tmp / f"{kind}_{rows}.csv"
            if not path.exists():
                path.write_text(stream_text(kind, rows))
                emit(f"input_{kind}_{rows} {sha(path.read_bytes())}")
            argv = MONITOR + flags + ["--input", str(path)]
            emit(f"monitor_{run} {sha(run_cli(tmp, argv))}")
            got = values[f"monitor_{run}"] = []
            emit(f"monitor_{run}_hex {sha(run_hex(tmp, argv, got))}")
        for alpha in ("0.05", "0.1"):
            got = run_cli(tmp, ["width-table", "--alpha", alpha,
                                "--t-opts", "100,1000"])
            emit(f"width_table_{alpha} {sha(got)}")

    boundary = seqdr.default_boundary(0.1)
    observational = {
        "ensemble": seqdr.EngineConfig(boundary=boundary, mode="observational",
                                       learner=seqdr.LearnerSpec("ensemble"), t_min=25),
        "unadjusted": "unadjusted"}
    randomized = {
        "linear": seqdr.EngineConfig(boundary=boundary,
                                     learner=seqdr.LearnerSpec("linear"), t_min=25),
        "unadjusted": "unadjusted"}
    studies = [("observational", seed, observational) for seed in STUDY_SEEDS]
    studies.append(("randomized", STUDY_SEEDS[0], randomized))
    # a study's per-row points are read where it summarizes each
    # estimator's replication
    summarize = seqdr.simlab._summarize_points
    for kind, seed, estimators in studies:
        scenario = seqdr.SimScenario(kind=f"{kind}_ate", n=4000, seed=seqdr.SeedSpec(seed))
        got = values[f"study_{kind}_{seed}"] = []

        def recording(points):
            got.extend([[] if p is None else [p.t],
                        "not_ready" if p is None else "ok", point_values(p)]
                       for p in points)
            return summarize(points)

        seqdr.simlab._summarize_points = recording
        try:
            out = seqdr.run_ate_study(scenario, estimators, reps=1)
        finally:
            seqdr.simlab._summarize_points = summarize
        fields = "".join(
            f"{name} {float(s.final_estimate).hex()} {float(s.final_width).hex()} "
            f"{s.uniform_coverage} {s.final_coverage} {s.n_emitted}\n"
            for name, summaries in out.items() for s in summaries)
        emit(f"study_{kind}_{seed} {sha(fields.encode())}")
    return values


def relative(delta: float, scale: float) -> float:
    if delta == 0.0:
        return 0.0
    return delta / scale if scale else float("inf")


def size_line(name: str, base: list, rows: list) -> str:
    """How far ``rows`` moved from ``base``; see the module docstring."""
    bounds = var = 0.0
    mismatches = abs(len(rows) - len(base))
    for (counts0, status0, v0), (counts1, status1, v1) in zip(base, rows):
        if (counts0, status0) != (counts1, status1) or (v0 is None) != (v1 is None):
            mismatches += 1
            continue
        if v0 is None:
            continue
        old = [float.fromhex(v) for v in v0]
        new = [float.fromhex(v) for v in v1]
        scale = abs(old[0]) + old[3]
        for a, b in zip(old[:4], new[:4]):
            bounds = max(bounds, relative(abs(b - a), scale))
        var = max(var, relative(abs(new[4] - old[4]), abs(old[4])))
    line = f"size_{name} bounds {bounds:.2e} var_hat {var:.2e}"
    return line + (f" MISMATCH {mismatches}" if mismatches else "")


def main_digest() -> None:
    if ARGS.against is None:
        values = replay(lambda line: print(line, flush=True))
    else:
        with tempfile.TemporaryDirectory() as name:
            path = Path(name) / "base.json"
            # the base checkout replays in a child process (one seqdr per
            # process), alongside this one
            child = subprocess.Popen(
                [sys.executable, __file__, str(ARGS.against), "--values", str(path)],
                stdout=subprocess.DEVNULL)
            values = replay(lambda line: None)
            if child.wait() != 0:
                sys.exit(f"replay_digest: the replay of {ARGS.against} failed")
            base = json.loads(path.read_text())
        for name, rows in values.items():
            print(size_line(name, base[name], rows), flush=True)
    if ARGS.values is not None:
        ARGS.values.write_text(json.dumps(values))


if __name__ == "__main__":
    main_digest()
