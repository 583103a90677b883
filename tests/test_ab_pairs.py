import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "ab_pairs.py"
_SPEC = importlib.util.spec_from_file_location("ab_pairs", _PATH)
ab_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_pairs)

END_TO_END = [{"name": "frames_per_s", "unit": "frames/s", "better": "higher", "bound": 0.25},
              {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1}]


def _run(fps, rss, digests=None, failed=0, raw=None):
    """A run record; by default its one raw call takes 1 / fps seconds."""
    return {"record": {"digests": digests or {"hypotheses.part0": ["d0", "d0"],
                                              "setup.lm": ["lm"] * 3},
                       "raw_call_s": {"untraced": raw or {"0": [1 / fps]}, "traced": {}}},
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
    assert not fps["claim"] and not rss["claim"]  # 4/5 and 3/5 are short of 9/10


def test_claim_needs_nine_tenths_of_pairs_and_a_gap_beyond_iqr():
    def claim(parent, change):
        runs = {"parent": [_run(v, 40.0) for v in parent],
                "change": [_run(v, 40.0) for v in change]}
        return ab_pairs.summarize(runs, END_TO_END)[0]["claim"]

    parent = [100, 102, 98, 101, 99, 100, 103, 97, 100, 101]  # IQR 1.75
    assert claim(parent, [v + 10 for v in parent])  # 10/10, medians 10 apart
    assert claim(parent, [v + 10 for v in parent[:9]] + [90])  # 9/10
    assert not claim(parent, [v + 10 for v in parent[:8]] + [90, 90])  # 8/10
    assert claim(parent, [v + 10 for v in parent[:9]] + [parent[9]])  # a tie: still 9/10
    assert not claim(parent, [v + 10 for v in parent[:8]] + parent[8:])  # two ties: 8/10
    assert not claim(parent, [v + 1 for v in parent])  # 10/10, but 1 apart against IQR 1.75
    assert not claim(parent[:5], [v + 10 for v in parent[:5]])  # 5/5 and wide apart: too few pairs


def test_claim_refused_when_the_change_fails_a_larger_share_of_calls():
    parent = [100, 102, 98, 101, 99, 100, 103, 97, 100, 101]

    def claim(parent_failed, change_failed):
        runs = {"parent": [_run(v, 40.0, failed=f) for v, f in zip(parent, parent_failed)],
                "change": [_run(v + 10, 40.0, failed=f) for v, f in zip(parent, change_failed)]}
        fps = ab_pairs.summarize(runs, END_TO_END)[0]
        assert (fps["won"], fps["pairs"]) == (10, 10) and fps["beyond_iqr"]
        return fps["claim"]

    none = [0] * 10
    assert claim(none, none)
    assert not claim(none, [1] + none[1:])  # one more failed call of 100 attempted
    assert claim([1] + none[1:], [0] * 9 + [1])  # the same share on both sides
    assert not claim([1] + none[1:], [1, 1] + none[2:])


def test_frames_per_s_claim_needs_the_raw_call_seconds_lower_too():
    """The raw call seconds pass the paired test too: 9/10 pairs and a
    median gap beyond the parent's raw IQR."""
    parent = [100, 102, 98, 101, 99, 100, 103, 97, 100, 101]

    def claims(change_raw, parent_raw=(0.01,) * 10):
        if not isinstance(change_raw, list):
            change_raw = [change_raw] * 10
        runs = {"parent": [_run(v, 40.0, raw={"0": [r]}) for v, r in zip(parent, parent_raw)],
                "change": [_run(v + 10, 40.0, raw={"0": [r]})
                           for v, r in zip(parent, change_raw)]}
        fps = ab_pairs.summarize(runs, END_TO_END)[0]
        assert (fps["won"], fps["pairs"]) == (10, 10) and fps["beyond_iqr"]
        return fps["claim"]

    assert claims(0.0099)
    assert not claims(0.01)  # a faster calibrated rate from calibration drift alone
    assert not claims(0.0101)
    assert not claims(float("nan"))  # no raw call timed
    assert not claims([0.0099] * 8 + [0.0101] * 2)  # raw seconds lower in only 8/10 pairs
    assert claims([0.0099] * 9 + [0.0101])  # 9/10
    # raw seconds lower in 10/10 pairs, but 0.0001 apart against a parent raw IQR of 0.000175
    wide = [r / 1e4 for r in parent]
    assert not claims([r - 0.0001 for r in wide], wide)
    assert claims([r - 0.0005 for r in wide], wide)


def test_gate_reads_worse_unresolved_or_ok():
    def gate(parent, change, rss=False):
        runs = {"parent": [_run(100, v) if rss else _run(v, 40.0) for v in parent],
                "change": [_run(100, v) if rss else _run(v, 40.0) for v in change]}
        return ab_pairs.summarize(runs, END_TO_END)[rss]["gate"]

    # frames_per_s, higher is better, bound 0.25
    assert gate([100] * 5, [80] * 5) == "ok"  # 20% worse: inside the bound
    assert gate([100] * 5, [74] * 5) == "worse"
    wide = [60, 80, 100, 120, 140]  # IQR 40 against a median of 100
    assert gate(wide, [100] * 5) == "unresolved"
    # winning every pair is not enough: a change run may still read worse than a parent run
    assert gate(wide, [61, 81, 101, 121, 141]) == "unresolved"
    assert gate(wide, [141, 150, 160, 170, 180]) == "ok"  # every change run is better
    assert gate([30.0, 40.0, 50.0], [25.0, 26.0, 29.0], rss=True) == "ok"
    assert gate(wide, [70] * 5) == "worse"  # a median past the bound is worse at any spread
    # peak_rss_mb, lower is better, bound 0.1
    assert gate([40.0] * 3, [43.0] * 3, rss=True) == "ok"
    assert gate([40.0] * 3, [44.5] * 3, rss=True) == "worse"
    assert gate([30.0, 40.0, 50.0], [35.0, 39.0, 45.0], rss=True) == "unresolved"
    runs = {"parent": [_run(100, 40.0)] * 3, "change": [_run(70, 40.0)] * 3}
    assert "worse" in ab_pairs.report(runs, END_TO_END).splitlines()[1]


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


def test_raw_call_row_is_the_median_of_run_medians_with_no_gate():
    parent = [{"0": [0.1, 0.3], "1": [0.2]}, {"0": [0.4]}, {"0": [0.3, 0.3, 0.9]}]
    change = [{"0": [0.15]}, {"0": [0.1, 0.2, 0.6], "1": []}, {"0": []}]  # the last timed none
    runs = {"parent": [_run(100, 40.0, raw=r) for r in parent],
            "change": [_run(100, 40.0, raw=r) for r in change]}
    assert ab_pairs.raw_call_s(runs["parent"]) == pytest.approx(0.3)  # of 0.2, 0.4, 0.3
    assert ab_pairs.raw_call_s(runs["change"]) == pytest.approx(0.175)  # of 0.15, 0.2
    row = [line for line in ab_pairs.report(runs, END_TO_END).splitlines()
           if line.startswith("raw call s")]
    assert len(row) == 1 and row[0].split()[3:6] == ["0.3", "0.175", "0.583"]
    assert "no gate" in row[0] and not {"ok", "worse", "unresolved"} & set(row[0].split())
    assert len(ab_pairs.summarize(runs, END_TO_END)) == len(END_TO_END)  # a row of the report only
    runs["change"] = runs["change"][2:]
    assert "nan" in ab_pairs.report(runs, END_TO_END).splitlines()[3]


DECLARED = ["decode_lm", "train_source", "adapt"]


def test_all_selects_every_workload_in_declared_order():
    assert ab_pairs.select_workloads(["all"], DECLARED) == DECLARED
    assert ab_pairs.select_workloads(["adapt", "decode_lm"], DECLARED) == ["decode_lm", "adapt"]
    assert ab_pairs.select_workloads(["adapt", "adapt"], DECLARED) == ["adapt"]
    with pytest.raises(ValueError, match="unknown workload 'nope'"):
        ab_pairs.select_workloads(["adapt", "nope"], DECLARED)


def test_unknown_workload_exits_two_before_any_run(monkeypatch, capsys):
    monkeypatch.setattr(ab_pairs, "extract", lambda *a: pytest.fail("extracted"))
    assert ab_pairs.main(["HEAD", "train_source", "nope"]) == 2
    assert "unknown workload 'nope'" in capsys.readouterr().err


def test_each_pair_runs_every_workload_alternating_sides(capsys):
    calls = []

    def run(side, workload):
        calls.append((side, workload))
        return _run(100 + len(calls), 40.0)

    runs = ab_pairs.run_pairs(["decode_lm", "adapt"], 3, run, ["frames_per_s"])
    assert calls == [("parent", "decode_lm"), ("change", "decode_lm"),
                     ("parent", "adapt"), ("change", "adapt"),
                     ("change", "decode_lm"), ("parent", "decode_lm"),
                     ("change", "adapt"), ("parent", "adapt"),
                     ("parent", "decode_lm"), ("change", "decode_lm"),
                     ("parent", "adapt"), ("change", "adapt")]
    fps = [[r["result"]["metrics"]["frames_per_s"]["value"] for r in runs["adapt"][side]]
           for side in ab_pairs.SIDES]
    assert fps == [[103, 108, 111], [104, 107, 112]]
    err = capsys.readouterr().err.splitlines()
    assert err[1] == "pair 1/3 adapt: frames_per_s 103 -> 104"
    assert len(err) == 6


def test_main_reports_each_workload(monkeypatch, capsys):
    monkeypatch.setattr(ab_pairs, "extract", lambda parent, dest: None)
    def run_side(tree, work, workload, seed):
        run = _run(100, 40.0)
        run["result"]["metrics"]["setup_s"] = {"value": 1.0, "unit": "s"}
        return run

    monkeypatch.setattr(ab_pairs, "run_side", run_side)
    assert ab_pairs.main(["HEAD", "all", "--pairs", "2", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    for w in DECLARED:
        assert f"{w}, seed 7, 2 pairs, HEAD -> working tree" in out
    assert out.count("digests: all equal between the sides") == 3
