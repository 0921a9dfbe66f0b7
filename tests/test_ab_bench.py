import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import ab_bench  # noqa: E402

METRICS = [{"name": "pair_s_p50", "better": "lower", "bound": 0.25},
           {"name": "auc30", "better": "higher", "bound": 0.2},
           {"name": "absent", "better": "lower", "bound": 0.25}]


def _runs(text):
    """Metric values of canned bench output lines, as bench_once returns them."""
    return [{name: m["value"] for name, m in json.loads(line)["metrics"].items()}
            for line in text.strip().splitlines()]


BASE = _runs("""
{"correct": true, "metrics": {"pair_s_p50": {"value": 1.0}, "auc30": {"value": 0.5}}}
{"correct": true, "metrics": {"pair_s_p50": {"value": 2.0}, "auc30": {"value": 0.5}}}
{"correct": true, "metrics": {"pair_s_p50": {"value": 3.0}, "auc30": {"value": 0.5}}}
{"correct": true, "metrics": {"pair_s_p50": {"value": 4.0}, "auc30": {"value": 0.5}}}
{"correct": true, "metrics": {"pair_s_p50": {"value": 5.0}, "auc30": {"value": 0.5}}}
""")
CHANGE = _runs("""
{"correct": true, "metrics": {"pair_s_p50": {"value": 0.5}, "auc30": {"value": 0.5}}}
{"correct": true, "metrics": {"pair_s_p50": {"value": 1.0}, "auc30": {"value": 0.75}}}
{"correct": true, "metrics": {"pair_s_p50": {"value": 1.5}, "auc30": {"value": 0.25}}}
{"correct": true, "metrics": {"pair_s_p50": {"value": 4.0}, "auc30": {"value": 0.75}}}
{"correct": true, "metrics": {"pair_s_p50": {"value": 4.5}, "auc30": {"value": 0.5}}}
""")


def test_summary_reports_medians_ratio_iqr_and_wins():
    time, auc = ab_bench.summarize(BASE, CHANGE, METRICS)
    # base quartiles 2 and 4: IQR 2, over the median 3
    # per-pair ratios 0.5, 0.5, 0.5, 1 and 0.9
    assert time == pytest.approx({"name": "pair_s_p50", "base": 3.0, "change": 1.5, "ratio": 0.5,
                                  "pair_ratio": 0.5, "base_iqr": 2.0 / 3.0, "resolved": False,
                                  "wins": 4, "pairs": 5, "worse": -0.5, "within_bound": True})
    # higher is better: two pairs up, one down, two tied; a constant base has IQR 0
    assert auc == {"name": "auc30", "base": 0.5, "change": 0.5, "ratio": 1.0, "pair_ratio": 1.0,
                   "base_iqr": 0.0, "resolved": False, "wins": 2, "pairs": 5, "worse": 0.0,
                   "within_bound": True}


def test_summary_resolves_medians_further_apart_than_the_base_iqr():
    shifted = [{"pair_s_p50": r["pair_s_p50"] - 2.5} for r in BASE]
    (row,) = ab_bench.summarize(BASE, shifted, METRICS[:1])
    assert (row["resolved"], row["wins"], row["ratio"]) == (True, 5, pytest.approx(0.5 / 3.0))
    text = ab_bench.format_rows([row])
    assert text.splitlines()[1].split() == ["pair_s_p50", "3", "0.5", "0.1667", "0.1667",
                                            "0.6667", "True", "5/5", "-0.8333", "True"]


def test_summary_checks_each_median_against_its_bound():
    worse = [{"pair_s_p50": r["pair_s_p50"] + 1.0, "auc30": 0.375} for r in BASE]
    time, auc = ab_bench.summarize(BASE, worse, METRICS)
    # 3 -> 4 s is 1/3 worse, past the 0.25 bound; auc30 0.5 -> 0.375 is 0.25
    # worse, past the 0.2 bound
    assert (time["worse"], time["within_bound"]) == (pytest.approx(1.0 / 3.0), False)
    assert (auc["worse"], auc["within_bound"]) == (0.25, False)
    assert ab_bench.format_rows([time]).splitlines()[1].split()[-2:] == ["0.3333", "False"]
    # a median exactly at its bound is within it
    (edge,) = ab_bench.summarize(BASE, [{"pair_s_p50": r["pair_s_p50"] * 1.25} for r in BASE],
                                 METRICS[:1])
    assert (edge["worse"], edge["within_bound"]) == (0.25, True)


def test_metric_missing_from_a_run_is_skipped():
    rows = ab_bench.summarize(BASE, CHANGE[:-1] + [{"auc30": 0.5}], METRICS)
    assert [r["name"] for r in rows] == ["auc30"]


def test_failed_run_reports_checkout_seed_exit_code_and_stderr(tmp_path):
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "run.py").write_text(
        "import sys\nprint('check failed: auc30 0.1 < 0.9', file=sys.stderr)\nsys.exit(1)\n")
    with pytest.raises(RuntimeError) as failure:
        ab_bench.bench_once(tmp_path, "clean-160", 7, 0.1)
    message = str(failure.value)
    assert f"bench run in {tmp_path} with seed 7 exited with code 1" in message
    assert "check failed: auc30 0.1 < 0.9" in message
