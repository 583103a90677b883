import string

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seqtransfer import cer, edit_distance, write_report
from conftest import edit_distance_reference

texts = st.text(alphabet=string.ascii_lowercase, max_size=12)
# short and long strings over a small alphabet with non-ASCII characters (so
# that matches are common), and short strings over any characters
_FEW = "ab\u00e9\u20ac\U0001f600 "
oracle_texts = st.one_of(st.text(alphabet=_FEW, max_size=20),
                         st.text(alphabet=_FEW, min_size=60, max_size=200),
                         st.text(max_size=12))


def test_identical_strings():
    assert edit_distance("abc", "abc") == 0


def test_empty_vs_nonempty():
    assert edit_distance("", "abc") == 3
    assert edit_distance("abc", "") == 3


def test_kitten_sitting():
    # classic DP example: two substitutions plus one insertion
    assert edit_distance("kitten", "sitting") == 3


def test_single_substitution():
    assert edit_distance("abcd", "abxd") == 1


@settings(max_examples=400)
@given(oracle_texts, oracle_texts)
@example("", "")
@example("", "\u00e9" * 70)
@example("a" * 64, "a" * 63 + "b")
@example("ab" * 40, "ba" * 33)
@example("x" * 130, "")
def test_edit_distance_equals_dynamic_program(a, b):
    assert edit_distance(a, b) == edit_distance_reference(a, b)


@given(texts, texts)
def test_symmetry(a, b):
    assert edit_distance(a, b) == edit_distance(b, a)


@given(texts, texts)
def test_identity_of_indiscernibles(a, b):
    d = edit_distance(a, b)
    assert (d == 0) == (a == b)


@given(texts, texts, texts)
@settings(max_examples=200)
def test_triangle_inequality(a, b, c):
    assert edit_distance(a, c) <= edit_distance(a, b) + edit_distance(b, c)


@given(texts, texts)
def test_upper_bound(a, b):
    assert 0 <= edit_distance(a, b) <= max(len(a), len(b))


def test_cer_exact_match():
    assert cer(["ab"], ["ab"]).cer == 0.0


def test_cer_single_substitution():
    assert cer(["abcd"], ["abxd"]).cer == 0.25


def test_cer_empty_hypothesis():
    assert cer(["abcd"], [""]).cer == 1.0


def test_cer_pools_over_corpus():
    # 1 edit + 0 edits over 4 + 2 reference chars
    report = cer(["abcd", "xy"], ["abxd", "xy"])
    assert report.total_edits == 1
    assert report.total_ref_chars == 6
    assert report.cer == pytest.approx(1 / 6)


def test_cer_can_exceed_one():
    report = cer(["a"], ["abc"])
    assert report.cer == 2.0


def test_cer_rejects_length_mismatch():
    with pytest.raises(ValueError):
        cer(["a", "b"], ["a"])


def test_cer_rejects_all_empty_refs():
    with pytest.raises(ValueError):
        cer(["", ""], ["a", "b"])


def test_write_report(tmp_path):
    report = cer(["abcd", "xy"], ["abxd", "xy"])
    p = tmp_path / "report.tsv"
    write_report(report, p)
    lines = p.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "ref\thyp\tedits"
    assert len([l for l in lines if not l.startswith("#")]) == 3  # header + 2 rows
    assert any("cer" in l for l in lines if l.startswith("#"))
