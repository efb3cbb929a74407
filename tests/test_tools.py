"""The scripts under tools/: the pair summary of bench_pairs and a smoke
run of coverage_report."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_pairs = _load("bench_pairs")
coverage_report = _load("coverage_report")

METRICS = [
    {"name": "rows_per_s", "unit": "rows/s", "better": "higher"},
    {"name": "row_latency_p50_us", "unit": "us", "better": "lower"},
]


def _runs(rows_per_s, p50):
    return [{"seed": 1 + i, "rows_per_s": r, "row_latency_p50_us": p}
            for i, (r, p) in enumerate(zip(rows_per_s, p50))]


def test_summary_medians_iqr_and_wins():
    parent = _runs([100.0, 110.0, 90.0, 130.0, 120.0], [50.0, 40.0, 60.0, 45.0, 55.0])
    change = _runs([105.0, 100.0, 95.0, 140.0, 125.0], [40.0, 41.0, 50.0, 45.0, 30.0])
    out = bench_pairs.summarize(parent, change, METRICS)
    assert out["rows_per_s"] == {
        "unit": "rows/s", "better": "higher", "parent": 110.0, "change": 105.0,
        # quartiles 100 and 120 (parent), 100 and 125 (change)
        "parent_iqr": 20.0, "change_iqr": 25.0,
        "change_wins": 4,  # higher wins; pair 2 is lost
    }
    p50 = out["row_latency_p50_us"]
    assert (p50["parent"], p50["change"]) == (50.0, 41.0)
    assert (p50["parent_iqr"], p50["change_iqr"]) == (10.0, 5.0)
    assert p50["change_wins"] == 3  # lower wins; a tie (pair 4) is no win


def test_summary_interpolates_quartiles_like_numpy():
    np = pytest.importorskip("numpy")
    parent = _runs([3.0, 1.0, 4.0, 1.5, 9.0, 2.6], [1.0] * 6)
    out = bench_pairs.summarize(parent, parent, METRICS[:1])["rows_per_s"]
    q75, q25 = np.percentile([r["rows_per_s"] for r in parent], [75, 25])
    assert out["parent_iqr"] == round(q75 - q25, 4)
    assert out["change_wins"] == 0


def test_summary_skips_metrics_a_pair_lacks():
    parent = [{"seed": 1, "rows_per_s": 1.0}, {"seed": 2, "rows_per_s": 2.0}]
    change = [{"seed": 1, "rows_per_s": 3.0}, {"seed": 2}]
    out = bench_pairs.summarize(parent, change, METRICS)
    assert list(out) == ["rows_per_s"]
    assert (out["rows_per_s"]["parent"], out["rows_per_s"]["change_wins"]) == (1.0, 1)


def test_summary_keys_match_committed_bench_files():
    committed = json.loads((TOOLS.parent / "BENCH_row_scalar.json").read_text())
    want = committed["workloads"]["study_observational_ensemble"]["medians"]["rows_per_s"]
    got = bench_pairs.summarize(_runs([1.0, 2.0], [1.0, 1.0]),
                                _runs([1.0, 2.0], [1.0, 1.0]), METRICS)["rows_per_s"]
    assert set(got) == set(want)


def test_coverage_report_smoke(tmp_path):
    out = tmp_path / "coverage.json"
    assert coverage_report.main(["--reps", "2", "--n", "300", "--out", str(out)]) == 0
    result = json.loads(out.read_text())
    assert (result["reps"], result["n"], result["master_seed"]) == (2, 300, 0)
    assert len(result["first_miss_t"]) == len(result["last_miss_t"]) == 2
    for key in ("uniform_coverage", "final_coverage"):
        assert 0.0 <= result[key] <= 1.0
    assert result["median_final_width"] > 0.0
    # coverage from the warm-up gate on is uniform coverage
    assert result["coverage_from"] == {"25": result["uniform_coverage"]}
    for first, last in zip(result["first_miss_t"], result["last_miss_t"]):
        assert (first is None) == (last is None)
        assert first is None or 25 <= first <= last <= 300
