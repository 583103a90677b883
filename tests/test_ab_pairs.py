import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "ab_pairs.py"
_SPEC = importlib.util.spec_from_file_location("ab_pairs", _PATH)
ab_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_pairs)

END_TO_END = [{"name": "frames_per_s", "unit": "frames/s", "better": "higher", "bound": 0.25},
              {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1}]


def _run(fps, rss, digests=None, failed=0):
    return {"record": {"digests": digests or {"hypotheses.part0": ["d0", "d0"],
                                              "setup.lm": ["lm"] * 3}},
            "result": {"correct": failed == 0, "attempted": 10, "failed": failed,
                       "metrics": {"frames_per_s": {"value": fps, "unit": "frames/s"},
                                   "peak_rss_mb": {"value": rss, "unit": "MB"}}}}


def _runs():
    return {"parent": [_run(f, r) for f, r in ((100, 40.0), (110, 41.0), (90, 40.5),
                                               (105, 40.2), (95, 40.8))],
            "change": [_run(f, r) for f, r in ((150, 40.1), (160, 40.9), (100, 40.4),
                                               (104, 40.0), (140, 41.0))]}


def test_summary_medians_iqr_ratio_and_pairs_won():
    fps, rss = ab_pairs.summarize(_runs(), END_TO_END)
    assert (fps["parent"], fps["change"]) == (100, 140)
    assert fps["parent_iqr"] == pytest.approx(105 - 95)  # inclusive quartiles of 90..110
    assert fps["ratio"] == pytest.approx(1.4)
    assert (fps["won"], fps["pairs"]) == (4, 5)  # the fourth pair went to the parent
    assert fps["beyond_iqr"]
    # lower is better: the change wins a pair only with a smaller value
    assert (rss["parent"], rss["change"]) == (40.5, 40.4)
    assert (rss["won"], rss["pairs"]) == (3, 5)
    assert not rss["beyond_iqr"]


def test_equal_digests_are_reported_equal():
    runs = _runs()
    assert ab_pairs.digest_mismatches(runs) == []
    text = ab_pairs.report(runs, END_TO_END)
    assert "digests: all equal between the sides" in text
    assert "failed" not in text


def test_digest_mismatches_name_the_key():
    runs = _runs()
    runs["change"][2] = _run(100, 40.0, {"hypotheses.part0": ["d0", "other"],
                                         "setup.lm": ["lm"]})
    assert ab_pairs.digest_mismatches(runs) == ["hypotheses.part0"]
    # a key only one side reports is a mismatch too
    runs = _runs()
    runs["parent"][0]["record"]["digests"]["checkpoint"] = ["c"]
    assert ab_pairs.digest_mismatches(runs) == ["checkpoint"]
    assert "digests: differ for checkpoint" in ab_pairs.report(runs, END_TO_END)


def test_failed_calls_are_reported():
    runs = _runs()
    runs["change"][1] = _run(160, 40.9, failed=2)
    assert "change: 2 failed calls, 1 runs with problems" in ab_pairs.report(runs, END_TO_END)
