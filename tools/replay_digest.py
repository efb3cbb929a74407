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
"""

import hashlib
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parent.parent
SRC = ROOT.resolve() / "src"
if not (SRC / "seqdr" / "__init__.py").is_file():
    sys.exit(f"replay_digest: no seqdr source at {SRC / 'seqdr'}")

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("SEQDR_SEED", None)
sys.path.insert(0, str(SRC))

import seqdr  # noqa: E402
import seqdr.cli  # noqa: E402
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


def hex_row(row) -> str:
    """``seqdr.cli.format_row`` at full precision: floats as ``float.hex``."""
    p = row.point
    body = ",,,," if p is None else ",".join(
        float(v).hex() for v in (p.estimate, p.lower, p.upper, p.radius, p.var_hat))
    return "%d,%d,%d,%s,%s" % (row.t, row.t_eval, row.t_train, body, row.status)


def run_hex(tmp: Path, argv: list[str]) -> bytes:
    """``run_cli`` with the CLI's row formatter swapped for ``hex_row``."""
    printed = seqdr.cli.format_row
    seqdr.cli.format_row = hex_row
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


def main_digest() -> None:
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        for run, kind, rows, flags in MONITOR_RUNS:
            path = tmp / f"{kind}_{rows}.csv"
            if not path.exists():
                path.write_text(stream_text(kind, rows))
                print(f"input_{kind}_{rows} {sha(path.read_bytes())}", flush=True)
            argv = MONITOR + flags + ["--input", str(path)]
            print(f"monitor_{run} {sha(run_cli(tmp, argv))}", flush=True)
            print(f"monitor_{run}_hex {sha(run_hex(tmp, argv))}", flush=True)
        for alpha in ("0.05", "0.1"):
            got = run_cli(tmp, ["width-table", "--alpha", alpha,
                                "--t-opts", "100,1000"])
            print(f"width_table_{alpha} {sha(got)}", flush=True)

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
    for kind, seed, estimators in studies:
        scenario = seqdr.SimScenario(kind=f"{kind}_ate", n=4000, seed=seqdr.SeedSpec(seed))
        out = seqdr.run_ate_study(scenario, estimators, reps=1)
        fields = "".join(
            f"{name} {float(s.final_estimate).hex()} {float(s.final_width).hex()} "
            f"{s.uniform_coverage} {s.final_coverage} {s.n_emitted}\n"
            for name, summaries in out.items() for s in summaries)
        print(f"study_{kind}_{seed} {sha(fields.encode())}", flush=True)


if __name__ == "__main__":
    main_digest()
