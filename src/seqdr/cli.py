"""Command-line surface: streaming monitor, simulation lab, rho tuner,
and width tables.

Every numeric value is printed with 9 significant digits. The
``SEQDR_SEED`` environment variable overrides any ``--seed`` flag.
Exit codes: 0 on success, 1 when ``monitor`` met malformed rows without
``--skip-bad``, 2 on a usage, domain or file error.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

import numpy as np

from .ate import AteEngine, EngineConfig, default_boundary
from .boundaries import BoundarySpec, tune_rho
from .io import OUTPUT_HEADER, ParseError, format_row, parse_observation
from .numerics import DataError, DomainError, SeedSpec
from .nuisance import _KINDS as LEARNER_KINDS, LearnerSpec
from .simlab import (
    SimScenario,
    run_ate_miscoverage,
    run_miscoverage,
    width_table,
)

__all__ = ["main", "build_parser"]


def _seed_from(args) -> int:
    env = os.environ.get("SEQDR_SEED")
    if env is None:
        return args.seed
    try:
        return int(env)
    except ValueError:
        raise DomainError(f"SEQDR_SEED must be an integer, got {env!r}") from None


def _schema_dim(text: str) -> int:
    if text.startswith("d="):
        text = text[2:]
    d = int(text)
    if d < 1:
        raise argparse.ArgumentTypeError("schema dimension must be >= 1")
    return d


def _learner_spec(args) -> LearnerSpec:
    return LearnerSpec(kind=args.learner, k=args.knn_k)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqdr",
        description="Anytime-valid confidence sequences for means and "
        "doubly robust treatment effects.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    mon = sub.add_parser("monitor", help="stream observations into a "
                         "confidence sequence, one output row per input row")
    mon.add_argument("--alpha", type=float, required=True)
    group = mon.add_mutually_exclusive_group(required=True)
    group.add_argument("--rho", type=float)
    group.add_argument("--opt-t", type=int,
                       help="tune rho exactly for this time")
    mon.add_argument("--mode", choices=["randomized", "observational"],
                     default="randomized")
    mon.add_argument("--crossfit", action="store_true")
    mon.add_argument("--scoring", choices=["batch", "online"], default="online")
    mon.add_argument("--learner", choices=LEARNER_KINDS, default="ensemble")
    mon.add_argument("--knn-k", type=int, default=10)
    mon.add_argument("--clip-delta", type=float, default=0.01)
    mon.add_argument("--t-min", type=int, default=25)
    mon.add_argument("--input", required=True, help="CSV/JSONL path, or - for stdin")
    mon.add_argument("--schema", type=_schema_dim, required=True,
                     help="covariate dimension, e.g. d=3")
    mon.add_argument("--out", default="-", help="output path, or - for stdout")
    mon.add_argument("--seed", type=int, default=0)
    mon.add_argument("--skip-bad", action="store_true",
                     help="report malformed rows but keep going")

    sim = sub.add_parser("simulate", help="Monte Carlo coverage study")
    sim.add_argument("--scenario", required=True,
                     choices=["gaussian_mean", "randomized_ate",
                              "observational_ate"])
    sim.add_argument("--n", type=int, default=4000)
    sim.add_argument("--reps", type=int, default=200)
    sim.add_argument("--alpha", type=float, default=0.1)
    sim.add_argument("--t-min", type=int, default=25)
    sim.add_argument("--rho", type=float, default=None)
    sim.add_argument("--comparator", choices=["cs", "ci"], default="cs",
                     help="gaussian_mean only: confidence sequence or "
                     "fixed-time CI")
    sim.add_argument("--learner", choices=LEARNER_KINDS, default="ensemble")
    sim.add_argument("--knn-k", type=int, default=10)
    sim.add_argument("--no-crossfit", action="store_true")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", required=True,
                     help="CSV path; a .json summary is written next to it")

    tune = sub.add_parser("tune-rho", help="optimize the mixture scale rho")
    tune.add_argument("--alpha", type=float, required=True)
    tune.add_argument("--t-star", type=int, required=True)
    tune.add_argument("--method", choices=["exact", "approx"], default=None)

    wt = sub.add_parser("width-table", help="CS/CI width ratio table")
    wt.add_argument("--alpha", type=float, required=True)
    wt.add_argument("--t-opts", required=True,
                    help="comma-separated optimization times, e.g. 100,1000")
    wt.add_argument("--out", default="-")

    return parser


def _cmd_monitor(args) -> int:
    rho = args.rho if args.rho is not None else tune_rho(args.alpha, args.opt_t, "exact")
    config = EngineConfig(
        boundary=BoundarySpec(args.alpha, rho),
        mode=args.mode,
        learner=_learner_spec(args),
        crossfit=args.crossfit,
        scoring=args.scoring,
        t_min=args.t_min,
        clip_delta=args.clip_delta,
        seed=SeedSpec(_seed_from(args)),
    )
    engine = AteEngine(config)

    bad = 0
    with contextlib.ExitStack() as stack:
        # an overflowing row is reported by its status (not_ready), so
        # numpy's overflow warnings would only repeat it on stderr
        stack.enter_context(np.errstate(over="ignore", invalid="ignore"))
        infile = (sys.stdin if args.input == "-"
                  else stack.enter_context(open(args.input)))
        outfile = (sys.stdout if args.out == "-"
                   else stack.enter_context(open(args.out, "w")))
        outfile.write(OUTPUT_HEADER + "\n")
        outfile.flush()
        for line_no, line in enumerate(infile, start=1):
            if not line.strip():
                continue
            try:
                z = parse_observation(line, args.schema, line_no)
                try:
                    row = engine.observe(z)
                except DataError as exc:  # raised before any engine state changes
                    raise ParseError(line_no, str(exc)) from exc
            except ParseError as exc:
                bad += 1
                print(str(exc), file=sys.stderr)
                continue
            outfile.write(format_row(row) + "\n")
            outfile.flush()
    if bad and not args.skip_bad:
        print(f"{bad} malformed row(s)", file=sys.stderr)
        return 1
    return 0


def _cmd_simulate(args) -> int:
    seed = SeedSpec(_seed_from(args))
    scenario = SimScenario(kind=args.scenario, n=args.n, seed=seed)
    if args.scenario == "gaussian_mean":
        report = run_miscoverage(
            scenario, args.alpha, args.t_min, args.reps,
            rho=args.rho, comparator=args.comparator,
        )
    else:
        boundary = (default_boundary(args.alpha, args.t_min) if args.rho is None
                    else BoundarySpec(args.alpha, args.rho))
        config = EngineConfig(
            boundary=boundary,
            mode="randomized" if args.scenario == "randomized_ate"
            else "observational",
            learner=_learner_spec(args),
            crossfit=not args.no_crossfit,
            t_min=args.t_min,
        )
        report = run_ate_miscoverage(scenario, config, args.reps)
    report.to_csv(args.out)
    json_path = (args.out[:-4] if args.out.endswith(".csv") else args.out) + ".json"
    report.to_json(json_path)
    print("wrote %s and %s" % (args.out, json_path))
    print("final cumulative miscoverage: %.9g"
          % report.cumulative_miscoverage_by_t[-1])
    return 0


def _cmd_tune_rho(args) -> int:
    exact = None
    try:
        exact = tune_rho(args.alpha, args.t_star, "exact")
    except DomainError as exc:
        if args.method == "exact":
            raise
        print(f"exact tuning unavailable: {exc}", file=sys.stderr)
    approx = tune_rho(args.alpha, args.t_star, "approx")
    if args.method == "approx":
        print("rho=%.9g" % approx)
    elif args.method == "exact":
        print("rho=%.9g" % exact)
    if exact is not None:
        print("exact=%.9g" % exact)
        print("approx=%.9g" % approx)
        print("relative_gap=%.9g" % (abs(approx - exact) / exact))
    else:
        print("approx=%.9g" % approx)
    return 0


def _cmd_width_table(args) -> int:
    try:
        t_opts = [int(p) for p in args.t_opts.split(",") if p.strip()]
    except ValueError:
        t_opts = []
    if not t_opts:
        raise DomainError(f"--t-opts must be comma-separated integers, "
                          f"got {args.t_opts!r}")
    rows = width_table(args.alpha, t_opts)
    out = sys.stdout if args.out == "-" else open(args.out, "w")
    try:
        out.write("alpha,t_opt,t,t_over_t_opt,rho,cs_ci_ratio\n")
        for r in rows:
            out.write("%.9g,%d,%d,%.9g,%.9g,%.9g\n" % (
                r["alpha"], r["t_opt"], r["t"], r["t_over_t_opt"],
                r["rho"], r["cs_ci_ratio"]))
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "monitor": _cmd_monitor,
        "simulate": _cmd_simulate,
        "tune-rho": _cmd_tune_rho,
        "width-table": _cmd_width_table,
    }
    try:
        return handlers[args.command](args)
    except (DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
