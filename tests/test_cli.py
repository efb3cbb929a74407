"""CLI and IO: parsing, serialization round trips, command contracts."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import seqdr
from seqdr.ate import Observation
from seqdr.cli import main
from seqdr.io import (
    OUTPUT_HEADER,
    ParseError,
    parse_observation,
    serialize_observation,
)
from seqdr.numerics import SeedSpec
from seqdr.simlab import SimScenario, generate_stream


class TestParseObservation:
    def test_csv_with_pi(self):
        z = parse_observation("0.1,-2.0,3.5,1,0.7,0.5", d=3)
        assert np.allclose(z.x, [0.1, -2.0, 3.5])
        assert z.a == 1 and z.y == 0.7 and z.known_pi == 0.5

    def test_csv_without_pi(self):
        z = parse_observation("1.0,0,2.5", d=1)
        assert z.known_pi is None and z.a == 0 and z.y == 2.5

    def test_json_line(self):
        z = parse_observation('{"x":[0],"a":0,"y":1.5}', d=1)
        assert z.known_pi is None and z.y == 1.5

    def test_arity_error_names_line(self):
        with pytest.raises(ParseError) as exc:
            parse_observation("0.1,2,0.7", d=3, line_no=17)
        assert "line 17" in str(exc.value)

    def test_bad_treatment(self):
        with pytest.raises(ParseError):
            parse_observation("0.0,2,1.0", d=1)

    @pytest.mark.parametrize("row", [
        '{"x": 1.5, "a": 1, "y": 0.2, "pi": 0.5}',
        '{"x": ["q"], "a": 1, "y": 0.2, "pi": 0.5}',
        '{"x": [0.1], "a": 1, "y": "abc", "pi": 0.5}',
        '{"x": [0.1], "a": 1, "y": null, "pi": 0.5}',
        '{"x": [0.1], "a": 1, "y": 1%s, "pi": 0.5}' % ("0" * 400),
        '{"x": [[0.3]], "a": 1, "y": 0.2, "pi": 0.5}',
    ], ids=["x_scalar", "x_text", "y_text", "y_null", "y_overflow", "x_nested"])
    def test_bad_json_fields_name_line(self, row):
        with pytest.raises(ParseError) as exc:
            parse_observation(row, d=1, line_no=9)
        assert str(exc.value).startswith("line 9: ")

    def test_round_trip(self):
        z = parse_observation("0.25,-1,0.125,1,2.5,0.5", d=3)
        back = parse_observation(serialize_observation(z), d=3)
        assert np.array_equal(back.x, z.x)
        assert (back.a, back.y, back.known_pi) == (z.a, z.y, z.known_pi)


class TestMonitorCommand:
    def _write_stream(self, path, n=60, seed=0):
        rng = np.random.default_rng(seed)
        with open(path, "w") as fh:
            for _ in range(n):
                x = rng.standard_normal(3)
                a = int(rng.random() < 0.5)
                y = float(x.sum() + a + rng.standard_normal())
                fh.write("%.9g,%.9g,%.9g,%d,%.9g,0.5\n" % (*x, a, y))

    def test_header_and_warmup_rows(self, tmp_path, capsys):
        inp = tmp_path / "in.csv"
        out = tmp_path / "out.csv"
        with open(inp, "w") as fh:
            fh.write("0.1,1,0.7,0.5\n0.2,0,0.3,0.5\n")
        code = main(["monitor", "--alpha", "0.1", "--rho", "0.3",
                     "--input", str(inp), "--schema", "d=1",
                     "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == OUTPUT_HEADER
        assert lines[1].startswith("1,") and lines[1].endswith("not_ready")
        assert lines[2].startswith("2,") and lines[2].endswith("not_ready")

    def test_byte_identical_replay(self, tmp_path):
        inp = tmp_path / "in.csv"
        self._write_stream(inp, n=200, seed=3)
        outs = []
        for i in range(2):
            out = tmp_path / f"out{i}.csv"
            code = main(["monitor", "--alpha", "0.1", "--opt-t", "125",
                         "--learner", "linear", "--crossfit", "--seed", "4",
                         "--input", str(inp), "--schema", "d=3",
                         "--out", str(out)])
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_rows_emitted_after_warmup(self, tmp_path):
        inp = tmp_path / "in.csv"
        self._write_stream(inp, n=100, seed=5)
        out = tmp_path / "out.csv"
        main(["monitor", "--alpha", "0.1", "--rho", "0.3",
              "--learner", "mean_only", "--input", str(inp),
              "--schema", "d=3", "--out", str(out)])
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 100
        last = rows[-1].split(",")
        assert last[-1] == "ok"
        t, T, Tp = int(last[0]), int(last[1]), int(last[2])
        assert t == 100 and T + Tp == t
        lower, upper = float(last[4]), float(last[5])
        assert lower < upper

    def test_malformed_row_exit_code(self, tmp_path, capsys):
        inp = tmp_path / "in.csv"
        # line 4 lacks the known propensity that randomized mode requires
        with open(inp, "w") as fh:
            fh.write("0.1,1,0.7,0.5\nnot,a,row\n0.2,0,0.3,0.5\n0.3,1,0.5\n")
        out = tmp_path / "out.csv"
        code = main(["monitor", "--alpha", "0.1", "--rho", "0.3",
                     "--input", str(inp), "--schema", "d=1",
                     "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "line 2" in err and "line 4" in err
        assert "2 malformed row(s)" in err
        # good rows were still processed
        assert len(out.read_text().splitlines()) == 3

    def test_skip_bad(self, tmp_path, capsys):
        inp = tmp_path / "in.csv"
        with open(inp, "w") as fh:
            fh.write("0.1,1,0.7,0.5\nbroken\n0.3,1,0.5\n0.2,0,0.3,0.5\n"
                     '{"x": 1.5, "a": 1, "y": 0.2, "pi": 0.5}\n'
                     '{"x": [0.2], "a": 0, "y": null, "pi": 0.5}\n')
        out = tmp_path / "o.csv"
        code = main(["monitor", "--alpha", "0.1", "--rho", "0.3",
                     "--skip-bad", "--input", str(inp), "--schema", "d=1",
                     "--out", str(out)])
        assert code == 0
        assert len(out.read_text().splitlines()) == 3
        err = capsys.readouterr().err.splitlines()
        assert [e.split(":")[0] for e in err] == [
            "line 2", "line 3", "line 5", "line 6"]

    def test_unopenable_files_exit_2(self, tmp_path, capsys):
        inp = tmp_path / "in.csv"
        inp.write_text("0.1,1,0.7,0.5\n")
        for i, o in ((tmp_path / "missing.csv", tmp_path / "o.csv"),
                     (inp, tmp_path / "no_dir" / "o.csv")):
            code = main(["monitor", "--alpha", "0.1", "--rho", "0.3",
                         "--input", str(i), "--schema", "d=1", "--out", str(o)])
            assert code == 2
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("error: ")

    def test_observational_linear(self, tmp_path):
        # linear regression for the outcomes, logistic for the propensity;
        # no coverage claim, both are misspecified for this process
        x, a, y, _ = generate_stream(
            SimScenario(kind="observational_ate", n=200, seed=SeedSpec(7)))
        inp = tmp_path / "in.csv"
        inp.write_text("".join(
            serialize_observation(Observation(x=x[i], a=int(a[i]), y=float(y[i])))
            + "\n" for i in range(200)))
        out = tmp_path / "out.csv"
        code = main(["monitor", "--alpha", "0.1", "--opt-t", "125",
                     "--mode", "observational", "--learner", "linear",
                     "--crossfit", "--input", str(inp), "--schema", "d=3",
                     "--out", str(out)])
        assert code == 0
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 200 and rows[-1].endswith(",ok")

    def test_overflowing_outcome_never_nan(self, tmp_path):
        # y = 1e200 is a valid row, but the influence variance overflows from
        # it on: those rows are not_ready, and no field is nan or inf
        inp = tmp_path / "in.csv"
        self._write_stream(inp, n=80, seed=7)
        lines = inp.read_text().splitlines()
        lines[40] = "0,0,0,1,1e200,0.5"
        inp.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out.csv"
        code = main(["monitor", "--alpha", "0.1", "--rho", "0.3", "--crossfit",
                     "--learner", "mean_only", "--input", str(inp),
                     "--schema", "d=3", "--out", str(out)])
        assert code == 0
        rows = [row.split(",") for row in out.read_text().splitlines()[1:]]
        assert len(rows) == 80
        assert not [f for row in rows for f in row if "nan" in f or "inf" in f]
        assert rows[39][-1] == "ok"
        assert {row[-1] for row in rows[40:]} == {"not_ready"}

    def _overflow_stream(self, path, n, row):
        """A ``_write_stream`` stream whose 1-based ``row`` has y = 1e200."""
        self._write_stream(path, n=n, seed=7)
        lines = path.read_text().splitlines()
        lines[row - 1] = "0,0,0,1,1e200,0.5"
        path.write_text("\n".join(lines) + "\n")

    @pytest.mark.parametrize("scoring", ["online", "batch"])
    def test_overflowing_outcome_ensemble_runs_to_end(self, tmp_path, capsys,
                                                      scoring):
        # the weight tuning's squared loss overflows at the first refit
        # after the row; it keeps its best finite weights
        inp = tmp_path / "in.csv"
        self._overflow_stream(inp, n=200, row=61)
        out = tmp_path / "out.csv"
        code = main(["monitor", "--alpha", "0.1", "--rho", "0.3", "--crossfit",
                     "--learner", "ensemble", "--scoring", scoring,
                     "--input", str(inp), "--schema", "d=3", "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().err == ""
        rows = [row.split(",") for row in out.read_text().splitlines()[1:]]
        assert len(rows) == 200
        assert not [f for row in rows if row[-1] == "ok" for f in row
                    if "nan" in f or "inf" in f]

    @pytest.mark.parametrize("learner", ["ensemble", "mean_only"])
    def test_overflowing_outcome_quiet_stderr(self, tmp_path, learner):
        # in a child process, where numpy's RuntimeWarnings would reach
        # stderr (pytest captures them in-process)
        inp = tmp_path / "in.csv"
        self._overflow_stream(inp, n=200, row=61)
        env = dict(os.environ, PYTHONPATH=str(Path(seqdr.__file__).parents[1]))
        env.pop("PYTHONWARNINGS", None)
        done = subprocess.run(
            [sys.executable, "-m", "seqdr.cli", "monitor", "--alpha", "0.1",
             "--rho", "0.3", "--crossfit", "--learner", learner,
             "--scoring", "batch", "--input", str(inp), "--schema", "d=3",
             "--out", str(tmp_path / "out.csv")],
            env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0
        assert done.stderr == ""

    @pytest.mark.parametrize("extra, seed_env", [
        (["--learner", "knn", "--knn-k", "0"], None),
        ([], "abc"),
        (["--seed", "-1"], None),
        ([], "-1"),
        (["--t-min", "0"], None),
    ])
    def test_bad_setting_exit_2(self, tmp_path, monkeypatch, capsys,
                                extra, seed_env):
        inp = tmp_path / "in.csv"
        self._write_stream(inp, n=10)
        if seed_env is not None:
            monkeypatch.setenv("SEQDR_SEED", seed_env)
        out = tmp_path / "out.csv"
        code = main(["monitor", "--alpha", "0.1", "--rho", "0.3", *extra,
                     "--input", str(inp), "--schema", "d=3", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert not out.exists()

    def test_seed_env_override(self, tmp_path, monkeypatch):
        inp = tmp_path / "in.csv"
        self._write_stream(inp, n=150, seed=6)
        results = {}
        for label, env in (("a", "1"), ("b", "2")):
            monkeypatch.setenv("SEQDR_SEED", env)
            out = tmp_path / f"{label}.csv"
            main(["monitor", "--alpha", "0.1", "--rho", "0.3",
                  "--learner", "mean_only", "--seed", "99",
                  "--input", str(inp), "--schema", "d=3", "--out", str(out)])
            results[label] = out.read_text()
        # different env seeds change the split coin stream, so outputs differ
        assert results["a"] != results["b"]


class TestSimulateCommand:
    def test_gaussian_outputs(self, tmp_path):
        out = tmp_path / "gm.csv"
        code = main(["simulate", "--scenario", "gaussian_mean", "--n", "300",
                     "--reps", "20", "--alpha", "0.1", "--seed", "0",
                     "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,cum_miscoverage,mean_width,mean_estimate"
        assert len(lines) == 301
        summary = json.loads((tmp_path / "gm.json").read_text())
        assert summary["reps"] == 20

    def test_ate_scenario(self, tmp_path):
        out = tmp_path / "ra.csv"
        code = main(["simulate", "--scenario", "randomized_ate", "--n", "200",
                     "--reps", "2", "--alpha", "0.1", "--learner", "mean_only",
                     "--seed", "0", "--out", str(out)])
        assert code == 0
        assert len(out.read_text().splitlines()) == 201


    def test_empty_horizon_exit_2(self, tmp_path, capsys):
        # no horizon, or a warm-up gate that leaves no time to check
        for extra in (["--scenario", "randomized_ate", "--n", "0"],
                      ["--scenario", "randomized_ate", "--n", "10", "--t-min", "20"],
                      ["--scenario", "gaussian_mean", "--n", "10", "--t-min", "20"],
                      ["--scenario", "gaussian_mean", "--n", "500", "--t-min", "0",
                       "--rho", "0.2"],
                      # no replication reaches the gate: 13 evaluation rows of 26
                      ["--scenario", "randomized_ate", "--n", "26", "--t-min", "26",
                       "--learner", "mean_only", "--no-crossfit"]):
            code = main(["simulate", *extra, "--reps", "1",
                         "--out", str(tmp_path / "ra.csv")])
            assert code == 2, extra
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("error: "), extra


class TestTuneRhoCommand:
    def test_prints_both_and_gap(self, capsys):
        assert main(["tune-rho", "--alpha", "0.05", "--t-star", "100"]) == 0
        out = capsys.readouterr().out
        assert "exact=0.286565316" in out
        assert "approx=0.281661" in out
        assert "relative_gap=" in out

    def test_method_selects(self, capsys):
        main(["tune-rho", "--alpha", "0.05", "--t-star", "100",
              "--method", "approx"])
        out = capsys.readouterr().out
        assert out.startswith("rho=0.281661")

    def test_alpha_above_limit(self, capsys):
        code = main(["tune-rho", "--alpha", "0.9", "--t-star", "100",
                     "--method", "exact"])
        assert code != 0


class TestWidthTableCommand:
    def test_output_grid(self, capsys):
        assert main(["width-table", "--alpha", "0.05", "--t-opts", "100,1000"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "alpha,t_opt,t,t_over_t_opt,rho,cs_ci_ratio"
        # 2 t_opts x 5 default grid points
        assert len(lines) == 11
        first = lines[1].split(",")
        assert float(first[5]) == pytest.approx(1.549, abs=0.005)

    def test_non_integer_t_opts_exit_2(self, capsys):
        # a non-integer entry, or no entry at all
        for t_opts in ("abc", ","):
            assert main(["width-table", "--alpha", "0.05", "--t-opts", t_opts]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            err = captured.err.splitlines()
            assert len(err) == 1 and err[0].startswith("error: "), t_opts
