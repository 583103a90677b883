import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seqtransfer import (FormatError, RecognizerConfig, Sample, Vocabulary, build_lm,
                         cli, init_recognizer, load_arpa, perplexity, save_arpa,
                         save_checkpoint, write_manifest)
from seqtransfer.ngram_lm import BOS_TOKEN, EOS_TOKEN

from conftest import REPEATED_SECTION_ARPA, arpa_cond_reference


def log_p(lm, context, nxt):
    """Natural-log p(nxt | the line so far is context), nxt a character or EOS_TOKEN."""
    row = lm.next_log_probs((lm.vocab.bos_id,) + lm.vocab.encode(context))
    return float(row[lm.vocab.eos_id if nxt == EOS_TOKEN else lm.vocab.id_of(nxt)])


def mass_of(lm, context_ids):
    v = lm.next_log_probs(context_ids)
    usable = [i for i in range(1, lm.vocab.emit_size)] + [lm.vocab.eos_id]
    return float(np.logaddexp.reduce(v[usable]))


# -- hand-evaluated backoff formula -------------------------------------------

def test_repeated_bigram_concentrates_mass():
    lm = build_lm(["ab"] * 100, order=2, discount=0.1)
    # wrapped lines yield unigram counts a, b, EOS = 100 each; the base
    # distribution is uniform over those three usable symbols
    p_uni_b = (100 - 0.1) / 300 + (0.1 * 3 / 300) * (1 / 3)
    want = (100 - 0.1) / 100 + (0.1 * 1 / 100) * p_uni_b
    got = math.exp(log_p(lm, "a", "b"))
    assert got == pytest.approx(want, abs=1e-12)
    assert got >= 0.999


def test_repeated_unigram_context():
    lm = build_lm(["aaaa"] * 50, order=3, discount=0.1)
    assert log_p(lm, "a", "a") > math.log(0.9)


def test_unseen_continuation_has_support():
    lm = build_lm(["ab"], order=2, discount=0.1, extra_chars="z")
    assert math.exp(log_p(lm, "a", "z")) > 0.0


def test_context_truncates_to_markov_window():
    lm = build_lm(["abab", "baba"], order=3, discount=0.1)
    assert log_p(lm, "abab", "a") == log_p(lm, "ab", "a")


def test_query_is_deterministic():
    lm = build_lm(["abc"], order=2, discount=0.1)
    assert log_p(lm, "ab", "c") == log_p(lm, "ab", "c")


def test_blank_and_bos_carry_no_mass():
    lm = build_lm(["ab"], order=3, discount=0.1)
    a, b, bos = lm.vocab.id_of("a"), lm.vocab.id_of("b"), lm.vocab.bos_id
    # the unigram row, stored contexts, and unstored ones
    for h in [(), (bos,), (a,), (bos, a), (b, b), (bos, bos)]:
        row = lm.next_log_probs(h)
        assert row.shape == (lm.vocab.size,)
        assert row[0] == -math.inf and row[bos] == -math.inf, h


def test_empty_corpus_rejected():
    with pytest.raises(ValueError):
        build_lm([], order=2, discount=0.1)


def test_fixed_vocab_rejects_oov_corpus_char():
    with pytest.raises(ValueError):
        build_lm(["abz"], order=2, discount=0.1, vocab=Vocabulary("ab"))


def test_fixed_vocab_rejects_extra_char_outside_it(tmp_path):
    vocab = Vocabulary("abc")
    with pytest.raises(ValueError, match="^extra character 'Z' is outside the fixed vocabulary$"):
        build_lm(["ab"], order=2, discount=0.1, extra_chars="cZ", vocab=vocab)
    # extra characters inside the vocabulary change nothing
    for name, extra in (("none", ""), ("inside", "ca")):
        lm = build_lm(["ab", "ba"], order=2, discount=0.1, extra_chars=extra, vocab=vocab)
        save_arpa(lm, tmp_path / f"{name}.arpa")
    assert (tmp_path / "none.arpa").read_bytes() == (tmp_path / "inside.arpa").read_bytes()


def test_bad_parameters_rejected():
    with pytest.raises(ValueError):
        build_lm(["ab"], order=0, discount=0.1)
    with pytest.raises(ValueError):
        build_lm(["ab"], order=2, discount=1.0)


# -- normalization -------------------------------------------------------------

def test_normalization_over_stored_and_random_contexts():
    rng = np.random.default_rng(5)
    corpus = ["".join(rng.choice(list("abcd "), size=rng.integers(3, 12)))
              for _ in range(40)]
    lm = build_lm(corpus, order=4, discount=0.1)
    for h in lm.backoffs:
        assert mass_of(lm, h) == pytest.approx(0.0, abs=1e-6)
    ids = list(range(1, lm.vocab.emit_size)) + [lm.vocab.bos_id]
    for _ in range(100):
        n = int(rng.integers(0, 6))
        h = tuple(int(rng.choice(ids)) for _ in range(n))
        assert mass_of(lm, h) == pytest.approx(0.0, abs=1e-6)


def assert_follows_reference(lm, contexts):
    """next_log_probs agrees with the scalar reference walk."""
    usable = list(range(1, lm.vocab.emit_size)) + [lm.vocab.eos_id]
    for h in contexts:
        dense = lm.next_log_probs(h)
        for c in usable:
            want = arpa_cond_reference(lm, c, h)
            assert dense[c] == pytest.approx(want, rel=1e-12, abs=1e-12), (h, c)


def test_dense_rows_follow_reference():
    rng = np.random.default_rng(6)
    lm = build_lm(["the cat", "the hat", "a cat"], order=3, discount=0.2)
    usable = list(range(1, lm.vocab.emit_size)) + [lm.vocab.eos_id]
    contexts = [tuple(int(x) for x in rng.choice(usable, size=int(rng.integers(0, 4))))
                for _ in range(50)]
    assert_follows_reference(lm, contexts + list(lm.backoffs))


def test_order1_matches_independent_unigram_oracle():
    corpus = ["aabca", "bc"]
    d = 0.1
    lm = build_lm(corpus, order=1, discount=d)
    # direct evaluation of discount-interpolated unigrams over a,b,c,EOS
    counts = {"a": 3, "b": 2, "c": 2, "</s>": 2}
    total = sum(counts.values())
    for tok, n in counts.items():
        want = (n - d) / total + (d * len(counts) / total) * (1 / len(counts))
        got = log_p(lm, "", tok)
        assert math.exp(got) == pytest.approx(want, abs=1e-12)


# -- sequence scoring ----------------------------------------------------------

# a line's log probability, terminal EOS included, is -(len + 1) * log(perplexity)

def test_sequence_log_prob_is_per_position_sum():
    lm = build_lm(["ab"] * 100, order=2, discount=0.1)
    want = log_p(lm, "", "a") + log_p(lm, "a", "b") + log_p(lm, "ab", EOS_TOKEN)
    assert -3 * math.log(perplexity(lm, ["ab"])) == pytest.approx(want, abs=1e-12)


def test_sequence_mass_sums_to_one():
    # total probability of all finite character sequences; mass beyond the
    # enumeration depth is provably below the tolerance for this corpus
    lm = build_lm(["abc", "cab", "bca"], order=2, discount=0.1)
    frontier = {(): 0.0}
    total = -math.inf
    for _ in range(60):
        nxt = {}
        for h, lp in frontier.items():
            row = lm.next_log_probs(h)
            total = np.logaddexp(total, lp + row[lm.vocab.eos_id])
            for c in range(1, lm.vocab.emit_size):
                tail = (h + (c,))[-(lm.order - 1):]
                score = lp + row[c]
                nxt[tail] = np.logaddexp(nxt.get(tail, -math.inf), score)
        frontier = nxt
    assert math.exp(total) == pytest.approx(1.0, abs=1e-6)


def test_sequence_log_prob_nonpositive():
    lm = build_lm(["hello world"], order=3, discount=0.1)
    assert perplexity(lm, ["hello"]) >= 1.0
    assert perplexity(lm, ["dlrow"]) >= 1.0


def test_sequence_rejects_oov():
    lm = build_lm(["ab"], order=2, discount=0.1)
    with pytest.raises(ValueError):
        perplexity(lm, ["abz"])


# -- perplexity ----------------------------------------------------------------

def test_perplexity_approaches_one_for_deterministic_corpus():
    lm = build_lm(["ab"] * 10, order=2, discount=1e-9)
    assert perplexity(lm, ["ab"]) == pytest.approx(1.0, abs=1e-6)


def test_perplexity_of_balanced_unigrams_is_vocab_size():
    # single line with each char once: unigram counts all equal, so the
    # model is exactly uniform over {a, b, c, EOS}
    lm = build_lm(["abc"], order=1, discount=0.1)
    assert perplexity(lm, ["abc"]) == pytest.approx(4.0, abs=1e-6)


def test_perplexity_matches_log_prob_oracle():
    lm = build_lm(["the cat sat", "a cat"], order=3, discount=0.1)
    held = ["the cat", "a sat"]
    total, count = 0.0, 0
    for line in held:
        ids = (lm.vocab.bos_id,) + lm.vocab.encode(line) + (lm.vocab.eos_id,)
        total += sum(arpa_cond_reference(lm, ids[i], ids[:i]) for i in range(1, len(ids)))
        count += len(line) + 1  # EOS is predicted too
    assert perplexity(lm, held) == pytest.approx(math.exp(-total / count), rel=1e-9)


def test_perplexity_rejects_empty_corpus():
    lm = build_lm(["ab"], order=2, discount=0.1)
    with pytest.raises(ValueError):
        perplexity(lm, [])


# -- ARPA serialization ----------------------------------------------------------

def test_arpa_round_trip_on_random_queries(tmp_path):
    rng = np.random.default_rng(9)
    corpus = ["".join(rng.choice(list("abcde "), size=rng.integers(4, 10)))
              for _ in range(30)]
    lm = build_lm(corpus, order=4, discount=0.15)
    path = tmp_path / "model.arpa"
    save_arpa(lm, path)
    back = load_arpa(path)
    assert back.vocab == lm.vocab
    assert back.order == lm.order
    usable = list(range(1, lm.vocab.emit_size)) + [lm.vocab.eos_id]
    for _ in range(100):
        n = int(rng.integers(0, 5))
        h = tuple(int(x) for x in rng.choice(usable, size=n))
        c = int(rng.choice(usable))
        assert back.next_log_probs(h)[c] == pytest.approx(arpa_cond_reference(lm, c, h),
                                                          abs=1e-6)


def test_arpa_contains_bigram_entry(tmp_path):
    lm = build_lm(["ab"] * 100, order=2, discount=0.1)
    path = tmp_path / "model.arpa"
    save_arpa(lm, path)
    text = path.read_text(encoding="utf-8")
    assert "\\2-grams:" in text
    assert any(line.split("\t")[1:2] == ["a b"]
               for line in text.splitlines() if "\t" in line)


def test_orders_above_the_longest_line_write_empty_sections(tmp_path):
    lm = build_lm(["ab", "b"], order=6, discount=0.1)  # longest n-gram: <s> a b </s>
    path = tmp_path / "model.arpa"
    save_arpa(lm, path)
    text = path.read_text(encoding="utf-8")
    assert "ngram 4=1\nngram 5=0\nngram 6=0\n" in text
    assert "\\5-grams:\n\n\\6-grams:\n\n\\end\\" in text
    back = load_arpa(path)
    assert back.order == 6 and set(back.probs) == set(lm.probs)
    save_arpa(back, tmp_path / "again.arpa")
    assert (tmp_path / "again.arpa").read_text(encoding="utf-8") == text


def test_arpa_escapes_space_and_tab(tmp_path):
    lm = build_lm(["a b"], order=2, discount=0.1)
    path = tmp_path / "model.arpa"
    save_arpa(lm, path)
    text = path.read_text(encoding="utf-8")
    assert "<sp>" in text
    back = load_arpa(path)
    assert " " in back.vocab


def test_arpa_truncated_file_names_section(tmp_path):
    lm = build_lm(["abc"] * 5, order=2, discount=0.1)
    path = tmp_path / "model.arpa"
    save_arpa(lm, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    cut = lines.index("\\2-grams:") + 1
    (tmp_path / "trunc.arpa").write_text("\n".join(lines[:cut]) + "\n", encoding="utf-8")
    with pytest.raises(FormatError, match="2-gram"):
        load_arpa(tmp_path / "trunc.arpa")


def test_arpa_missing_header(tmp_path):
    p = tmp_path / "bad.arpa"
    p.write_text("not an arpa file\n", encoding="utf-8")
    with pytest.raises(FormatError):
        load_arpa(p)


def test_arpa_non_numeric_field(tmp_path):
    lm = build_lm(["ab"], order=1, discount=0.1)
    path = tmp_path / "model.arpa"
    save_arpa(lm, path)
    text = path.read_text(encoding="utf-8").replace("-99", "oops", 1)
    (tmp_path / "bad.arpa").write_text(text, encoding="utf-8")
    with pytest.raises(FormatError):
        load_arpa(tmp_path / "bad.arpa")


@pytest.mark.parametrize("value, message", [
    ("nan", "NaN or"), ("inf", "NaN or"), ("1e308", "NaN or"),
    ("2.5", "positive log10 probability"),
])
def test_arpa_impossible_probability_field(tmp_path, value, message):
    lm = build_lm(["ab"], order=2, discount=0.1)
    path = tmp_path / "model.arpa"
    save_arpa(lm, path)
    text = path.read_text(encoding="utf-8").replace("-99", value, 1)
    (tmp_path / "bad.arpa").write_text(text, encoding="utf-8")
    with pytest.raises(FormatError, match=message):
        load_arpa(tmp_path / "bad.arpa")


def test_arpa_positive_backoff_weight_loads(tmp_path):
    # a backoff weight is not a probability and may exceed 1
    text = ARPA_CASES["backoff_without_continuation"][0].replace("c\t-0.4", "c\t0.4")
    (tmp_path / "m.arpa").write_text(text, encoding="utf-8")
    lm = load_arpa(tmp_path / "m.arpa")
    assert lm.backoffs[(lm.vocab.id_of("c"),)] == pytest.approx(0.4 * math.log(10.0))


def test_arpa_duplicate_ngram(tmp_path):
    lm = build_lm(["ab"], order=2, discount=0.1)
    path = tmp_path / "model.arpa"
    save_arpa(lm, path)
    text = path.read_text(encoding="utf-8")
    text = text.replace("ngram 1=4", "ngram 1=5")  # a, b, </s>, <s> and the copy
    text = text.replace("\\1-grams:\n", "\\1-grams:\n-0.5\tb\n")
    (tmp_path / "bad.arpa").write_text(text, encoding="utf-8")
    with pytest.raises(FormatError, match="'b' appears twice"):
        load_arpa(tmp_path / "bad.arpa")


def test_rounding_above_one_still_round_trips(tmp_path):
    # this corpus leaves one log probability at +2.2e-16 after rounding
    lm = build_lm(["a"] * 19, order=3, discount=1e-12)
    assert max(lm.probs.values()) > 0.0
    save_arpa(lm, tmp_path / "m.arpa")
    back = load_arpa(tmp_path / "m.arpa")
    assert max(back.probs.values()) <= 0.0


def test_arpa_count_mismatch(tmp_path):
    lm = build_lm(["abc"] * 3, order=2, discount=0.1)
    path = tmp_path / "model.arpa"
    save_arpa(lm, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    out = []
    for line in lines:
        if line.startswith("ngram 2="):
            n = int(line.split("=")[1])
            line = f"ngram 2={n + 1}"
        out.append(line)
    (tmp_path / "bad.arpa").write_text("\n".join(out) + "\n", encoding="utf-8")
    with pytest.raises(FormatError):
        load_arpa(tmp_path / "bad.arpa")


_SMALL_ARPA = """\\data\\
ngram 1=4
ngram 2=1

\\1-grams:
-0.5\ta
-0.6\tb
-0.7\t</s>
-99\t<s>\t-0.3

\\2-grams:
-0.2\ta b

\\end\\
"""

# One malformed file per load_arpa check: (replace this, with that, the
# start of the message).  Each edit of _SMALL_ARPA breaks exactly one rule.
ARPA_FAULTS = {
    "no_header": ("\\data\\\n", "", "missing \\data\\ header"),
    "header_prefix": ("ngram 2=1", "ngrams 2=1", "bad header line 'ngrams 2=1'"),
    "header_number": ("ngram 2=1", "ngram 2=x", "bad header line 'ngram 2=x'"),
    "header_gap": ("ngram 2=1", "ngram 3=1", "header must declare orders 1..N"),
    "section_marker": ("\\2-grams:", "\\two-grams:", "bad section marker '\\\\two-grams:'"),
    "section_undeclared": ("\\end\\", "\\3-grams:\n\\end\\", "section 3 was not declared"),
    "outside_section": ("\\end\\\n", "\\end\\\n-0.1\ta\n",
                        "entry outside any section: '-0.1\\ta'"),
    "field_count": ("-0.2\ta b", "-0.2\ta b\t-0.1\t0", "2-gram entry needs 2 or 3 fields"),
    "non_numeric": ("-0.2\ta b", "x\ta b", "non-numeric field in 2-gram entry"),
    "nan_backoff": ("<s>\t-0.3", "<s>\tnan", "NaN or +inf field in 1-gram entry"),
    "positive": ("-0.2\ta b", "0.2\ta b", "positive log10 probability in 2-gram entry"),
    "token_count": ("-0.2\ta b", "-0.2\ta b a", "2-gram entry has 3 tokens"),
    "entry_count": ("ngram 2=1", "ngram 2=2", "2-grams section has 1 entries, header declared 2"),
    "long_unigram": ("-0.6\tb\n", "-0.6\tb\n-0.6\tbb\n",
                     "unigram token 'bb' is not a single character"),
    "no_characters": ("-0.5\ta\n-0.6\tb\n", "", "unigram section declares no characters"),
    "unknown_token": ("-0.2\ta b", "-0.2\ta c",
                      "token 'c' in the 2-grams section never appeared as a unigram"),
    "duplicate": ("-0.2\ta b", "-0.2\ta b\n-0.3\ta b", "2-gram 'a b' appears twice"),
    "missing_usable": ("-0.7\t</s>\n", "", "unigram section is missing a usable symbol"),
}
# the counts the header must declare after each edit, where it changed
_FAULT_COUNTS = {"long_unigram": (5, 1), "no_characters": (2, 1), "duplicate": (4, 2),
                 "missing_usable": (3, 1)}


@pytest.mark.parametrize("case", sorted(ARPA_FAULTS))
def test_arpa_fault_messages(tmp_path, case):
    old, new, message = ARPA_FAULTS[case]
    assert old in _SMALL_ARPA
    text = _SMALL_ARPA.replace(old, new, 1)
    if case in _FAULT_COUNTS:
        n1, n2 = _FAULT_COUNTS[case]
        text = text.replace("ngram 1=4\nngram 2=1", f"ngram 1={n1}\nngram 2={n2}", 1)
    path = tmp_path / f"{case}.arpa"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(FormatError, match="^" + re.escape(f"{path}: {message}")):
        load_arpa(path)


def test_arpa_repeated_section_marker_is_a_format_error(tmp_path):
    path = tmp_path / "repeated.arpa"
    path.write_text(REPEATED_SECTION_ARPA, encoding="utf-8")
    with pytest.raises(FormatError) as e:
        load_arpa(path)
    assert str(e.value) == f"{path}: repeated section marker '\\\\1-grams:'"
    # without the second 1-grams section the file loads, with the first's values
    cut = REPEATED_SECTION_ARPA.rindex("\\1-grams:")
    path.write_text(REPEATED_SECTION_ARPA[:cut] + "\\end\\\n", encoding="utf-8")
    lm = load_arpa(path)
    assert lm.probs[(lm.vocab.id_of("a"),)] == pytest.approx(-0.1 * math.log(10.0))


def test_arpa_fault_table_base_file_loads(tmp_path):
    (tmp_path / "m.arpa").write_text(_SMALL_ARPA, encoding="utf-8")
    assert load_arpa(tmp_path / "m.arpa").order == 2


# -- load_arpa edge cases --------------------------------------------------------

def _load_text(tmp_path, text, name="m.arpa"):
    path = tmp_path / name
    path.write_bytes(text.encode("utf-8"))  # no newline translation on the way out
    return load_arpa(path)


def _signed(table):
    """A table with the sign of every value, so that -0.0 and 0.0 differ."""
    return {g: (v, math.copysign(1.0, v)) for g, v in table.items()}


def _tables(lm):
    return lm.vocab.chars, lm.order, _signed(lm.probs), _signed(lm.backoffs)


def _descending(text):
    head, one, two = re.split(r"(?=\\[12]-grams:)", text)
    body, end = two.split("\\end\\")
    return head + body + one + "\\end\\" + end


# Edits of _SMALL_ARPA that load to exactly the tables of _SMALL_ARPA.
ARPA_SAME_TABLES = {
    "crlf": lambda t: t.replace("\n", "\r\n"),
    "lone_cr": lambda t: t.replace("\n", "\r"),
    "blank_lines_in_section": lambda t: t.replace("-0.6\tb\n", "\n-0.6\tb\n \t\n\n"),
    "spaced_section_markers": lambda t: t.replace("\\1-grams:", "  \\1-grams:\t")
                                         .replace("\\2-grams:", "\t\\2-grams: "),
    "spaced_header_and_end": lambda t: t.replace("\\data\\", " \\data\\ ")
                                        .replace("ngram 1=4", "\tngram 1=4 ")
                                        .replace("\\end\\", "\\end\\  "),
    "space_after_backoff": lambda t: t.replace("<s>\t-0.3", "<s>\t-0.3 "),
    "space_before_probability": lambda t: t.replace("-0.5\ta", "  -0.5\ta"),
    "descending_sections": _descending,
}


@pytest.mark.parametrize("case", sorted(ARPA_SAME_TABLES))
def test_arpa_layout_variants_load_the_same_tables(tmp_path, case):
    want = _tables(_load_text(tmp_path, _SMALL_ARPA, "base.arpa"))
    text = ARPA_SAME_TABLES[case](_SMALL_ARPA)
    assert text != _SMALL_ARPA
    assert _tables(_load_text(tmp_path, text)) == want


def test_arpa_section_mixing_two_and_three_fields(tmp_path):
    text = _SMALL_ARPA.replace("ngram 2=1", "ngram 2=3").replace(
        "-0.2\ta b\n", "-0.2\ta b\t-0.1\n-0.4\tb a\n-0.3\t<s> b\t-0.25\n")
    lm = _load_text(tmp_path, text)
    a, b, bos = lm.vocab.id_of("a"), lm.vocab.id_of("b"), lm.vocab.bos_id
    ln10 = math.log(10.0)
    assert lm.probs[(a, b)] == -0.2 * ln10
    assert lm.probs[(b, a)] == -0.4 * ln10
    assert lm.probs[(bos, b)] == -0.3 * ln10
    assert lm.backoffs == {(bos,): -0.3 * ln10, (a, b): -0.1 * ln10, (bos, b): -0.25 * ln10}


def test_arpa_backslash_character_token(tmp_path):
    text = _SMALL_ARPA.replace("ngram 1=4\nngram 2=1", "ngram 1=5\nngram 2=2").replace(
        "-0.6\tb\n", "-0.6\tb\n-0.65\t\\\n").replace("-0.2\ta b\n", "-0.2\ta b\n-0.1\t\\ a\n")
    lm = _load_text(tmp_path, text)
    assert lm.vocab.chars == ("\\", "a", "b")
    slash, a = lm.vocab.id_of("\\"), lm.vocab.id_of("a")
    assert lm.probs[(slash,)] == -0.65 * math.log(10.0)
    assert lm.next_log_probs((slash,))[a] == -0.1 * math.log(10.0)


def test_arpa_negative_zero_log_probability(tmp_path):
    # -0 is log10 of 1, kept with its sign; an unstored context backs off at
    # log 1, and -0.0 + 0.0 is +0.0
    text = _SMALL_ARPA.replace("-0.6\tb", "-0\tb").replace("-0.2\ta b", "-0\ta b")
    lm = _load_text(tmp_path, text)
    a, b = lm.vocab.id_of("a"), lm.vocab.id_of("b")
    assert _signed(lm.probs)[(b,)] == (0.0, -1.0)
    assert _signed(lm.probs)[(a, b)] == (0.0, -1.0)
    assert np.signbit(lm.next_log_probs(())[b])
    assert np.signbit(lm.next_log_probs((a,))[b])
    assert lm.next_log_probs((b,))[b] == 0.0 and not np.signbit(lm.next_log_probs((b,))[b])


# Files with a layout fault or two faults: (edit of _SMALL_ARPA, the one
# message load_arpa reports).
ARPA_PINNED_FAULTS = {
    "trailing_space_on_entry": (("-0.2\ta b", "-0.2\ta b "),
                                "2-gram entry has 3 tokens: '-0.2\\ta b'"),
    "trailing_tab_on_entry": (("-0.2\ta b", "-0.2\ta b\t"),
                              "non-numeric field in 2-gram entry '-0.2\\ta b'"),
    # an entry checked in the first pass beats an unknown token seen earlier
    "unknown_token_then_bad_number": (
        ("ngram 2=1", "ngram 2=2", "-0.2\ta b", "-0.2\ta c\nx\tb a"),
        "non-numeric field in 2-gram entry 'x\\tb a'"),
    # the first faulty entry in file order, whichever check it fails
    "token_count_then_field_count": (
        ("-0.5\ta", "-0.5\ta a", "-0.7\t</s>", "-0.7"),
        "1-gram entry has 2 tokens: '-0.5\\ta a'"),
    # two faults in one entry: the check order decides
    "nan_and_token_count": (("-0.2\ta b", "nan\ta b c"),
                            "NaN or +inf field in 2-gram entry 'nan\\ta b c'"),
    "duplicate_then_unknown_token": (
        ("ngram 2=1", "ngram 2=3", "-0.2\ta b", "-0.2\ta b\n-0.3\ta b\n-0.4\ta c"),
        "2-gram 'a b' appears twice"),
    "unknown_token_then_duplicate": (
        ("ngram 2=1", "ngram 2=3", "-0.2\ta b", "-0.4\ta c\n-0.2\ta b\n-0.3\ta b"),
        "token 'c' in the 2-grams section never appeared as a unigram"),
    # the entry counts are checked before any token is looked up
    "count_mismatch_and_unknown_token": (
        ("ngram 2=1", "ngram 2=2", "-0.2\ta b", "-0.2\ta c"),
        "2-grams section has 1 entries, header declared 2"),
    "bad_entry_then_outside_section": (
        ("-0.6\tb", "-0.6\tb\t", "\\end\\\n", "\\end\\\n-0.1\ta\n"),
        "non-numeric field in 1-gram entry '-0.6\\tb'"),
    "outside_section_then_bad_marker": (
        ("\\1-grams:\n", "-0.1\ta\n\\1-grams:\n", "\\2-grams:", "\\two-grams:"),
        "entry outside any section: '-0.1\\ta'"),
}

# Each entry-rule fault of ARPA_FAULTS, and the whole message it gives alone.
_ENTRY_RULE_FAULTS = {
    "field_count": "2-gram entry needs 2 or 3 fields: '-0.2\\ta b\\t-0.1\\t0'",
    "non_numeric": "non-numeric field in 2-gram entry 'x\\ta b'",
    "nan_backoff": "NaN or +inf field in 1-gram entry '-99\\t<s>\\tnan'",
    "positive": "positive log10 probability in 2-gram entry '0.2\\ta b'",
    "token_count": "2-gram entry has 3 tokens: '-0.2\\ta b a'",
}
_MORE_CHARS = "cdefghijklmnopqrstuv"  # 20 more characters: a unigram and a bigram "c a" each
_UNIGRAMS = "-0.5\ta\n-0.6\tb\n-0.7\t</s>\n-99\t<s>\t-0.3\n"  # _SMALL_ARPA's unigram lines


def _in_long_section(case, at):
    """Edits of _SMALL_ARPA that put ARPA_FAULTS[case]'s faulty entry first,
    in the middle or last (at) of its section, among 20 more valid entries;
    without the fault the file loads."""
    old, new, _ = ARPA_FAULTS[case]
    unigrams = _UNIGRAMS.splitlines() + [f"-1.5\t{c}" for c in _MORE_CHARS]
    bigrams = ["-0.2\ta b"] + [f"-0.3\t{c} a" for c in _MORE_CHARS]
    entries = unigrams if old in _UNIGRAMS else bigrams
    bad = entries.pop(next(i for i, x in enumerate(entries) if old in x)).replace(old, new)
    entries.insert({"first": 0, "middle": len(entries) // 2, "last": len(entries)}[at], bad)
    return ("ngram 1=4\nngram 2=1", "ngram 1=24\nngram 2=21",
            _UNIGRAMS, "\n".join(unigrams) + "\n", "-0.2\ta b\n", "\n".join(bigrams) + "\n")


# a section the bulk parse rejects is parsed again, to the message the entry gives alone
ARPA_PINNED_FAULTS.update({f"{case}_{at}_in_long_section": (_in_long_section(case, at), message)
                           for case, message in _ENTRY_RULE_FAULTS.items()
                           for at in ("first", "middle", "last")})
ARPA_PINNED_FAULTS.update({f"{case}_alone": (ARPA_FAULTS[case][:2], message)
                           for case, message in _ENTRY_RULE_FAULTS.items()})


@pytest.mark.parametrize("case", sorted(ARPA_PINNED_FAULTS))
def test_arpa_pinned_fault_messages(tmp_path, case):
    edits, message = ARPA_PINNED_FAULTS[case]
    text = _SMALL_ARPA
    for old, new in zip(edits[::2], edits[1::2]):
        assert old in text
        text = text.replace(old, new, 1)
    with pytest.raises(FormatError) as err:
        _load_text(tmp_path, text)
    assert str(err.value) == f"{tmp_path / 'm.arpa'}: {message}"


def test_loaded_model_round_trips_again(tmp_path):
    lm = build_lm(["the the the"], order=3, discount=0.1)
    save_arpa(lm, tmp_path / "a.arpa")
    once = load_arpa(tmp_path / "a.arpa")
    save_arpa(once, tmp_path / "b.arpa")
    twice = load_arpa(tmp_path / "b.arpa")
    assert twice.probs == once.probs
    assert twice.backoffs == once.backoffs


# -- determinism -----------------------------------------------------------------

def test_identical_builds_are_identical():
    corpus = ["abcabc", "cba"]
    a = build_lm(corpus, order=3, discount=0.1)
    b = build_lm(corpus, order=3, discount=0.1)
    assert a.probs == b.probs
    assert a.backoffs == b.backoffs


# -- the ARPA backoff rule on hand-written files -------------------------------
#
# Each case is an ARPA file plus queries (context tokens, next token, the
# log10 answer of the standard backoff rule worked out by hand).

ARPA_CASES = {
    # unigram "a" and bigram "a b" are contexts with stored continuations
    # but no backoff field
    "context_without_backoff": ("""\\data\\
ngram 1=4
ngram 2=1
ngram 3=1

\\1-grams:
-0.5\ta
-0.6\tb
-0.7\t</s>
-99\t<s>\t-0.3

\\2-grams:
-0.2\ta b

\\3-grams:
-0.05\ta b a

\\end\\
""", [
        (("a", "b"), "a", -0.05),
        (("a", "b"), "b", -0.6),
        (("a", "b"), "</s>", -0.7),
        (("a",), "b", -0.2),
        (("a",), "a", -0.5),
        (("<s>",), "a", -0.3 - 0.5),
        (("<s>", "a"), "b", -0.2),
    ]),
    # unigram "c" has a backoff weight but no bigram continuation
    "backoff_without_continuation": ("""\\data\\
ngram 1=5
ngram 2=1

\\1-grams:
-0.6\ta\t-0.2
-0.6\tb
-0.5\tc\t-0.4
-0.7\t</s>
-99\t<s>\t-0.3

\\2-grams:
-0.1\ta b

\\end\\
""", [
        (("c",), "a", -0.4 - 0.6),
        (("c",), "</s>", -0.4 - 0.7),
        (("a",), "b", -0.1),
        (("a",), "c", -0.2 - 0.5),
        (("<s>",), "c", -0.3 - 0.5),
    ]),
    # "<s>" stores a continuation but carries no backoff field
    "bos_without_backoff": ("""\\data\\
ngram 1=4
ngram 2=1

\\1-grams:
-0.5\ta
-0.6\tb
-0.7\t</s>
-99\t<s>

\\2-grams:
-0.1\t<s> a

\\end\\
""", [
        (("<s>",), "a", -0.1),
        (("<s>",), "b", -0.6),
        (("<s>",), "</s>", -0.7),
        (("a",), "b", -0.6),
    ]),
}


def stored_contexts(lm):
    """Every context the tables name, with all of its suffixes."""
    named = set(lm.backoffs) | {gram[:-1] for gram in lm.probs}
    return sorted({h[i:] for h in named for i in range(len(h) + 1)})


def _token_id(vocab, tok):
    if tok == BOS_TOKEN:
        return vocab.bos_id
    if tok == "</s>":
        return vocab.eos_id
    return vocab.id_of(tok)


def _decode_inputs(root, vocab):
    """A tiny checkpoint over vocab and a two-sample manifest to decode."""
    cfg = RecognizerConfig(label_count=vocab.emit_size, input_dim=3, context_radius=1,
                           feature_dim=5, recurrent_dim=4)
    ckpt = root / "model.ckpt"
    save_checkpoint(init_recognizer(cfg, vocab), ckpt)
    rng = np.random.default_rng(0)
    data = [Sample(f"s{i}", rng.normal(size=(t, 3)).astype(np.float32))
            for i, t in enumerate((5, 8))]
    return ckpt, write_manifest(data, root / "manifest.tsv")


@pytest.mark.parametrize("case", sorted(ARPA_CASES))
def test_hand_written_arpa_follows_backoff_rule(tmp_path, case):
    text, queries = ARPA_CASES[case]
    path = tmp_path / f"{case}.arpa"
    path.write_text(text, encoding="utf-8")
    lm = load_arpa(path)
    for context, nxt, want_log10 in queries:
        h = tuple(_token_id(lm.vocab, t) for t in context)
        c = _token_id(lm.vocab, nxt)
        want = want_log10 * math.log(10.0)
        assert lm.next_log_probs(h)[c] == pytest.approx(want, abs=1e-12), (context, nxt)
        assert arpa_cond_reference(lm, c, h) == pytest.approx(want, abs=1e-12), (context, nxt)
    assert_follows_reference(lm, stored_contexts(lm))

    ckpt, manifest = _decode_inputs(tmp_path, lm.vocab)
    rc = cli.main(["decode", "--checkpoint", str(ckpt), "--data", str(manifest),
                   "--lm", str(path), "--out", str(tmp_path / "hyp.tsv")])
    assert rc == 0


def test_rows_are_read_only():
    lm = build_lm(["the cat", "a hat"], order=3, discount=0.1)
    t, bos = lm.vocab.id_of("t"), lm.vocab.bos_id
    # the unigram row, stored contexts, and an unstored one
    for h in [(), (t,), (bos, t), (t, t)]:
        row = lm.next_log_probs(h)
        assert not row.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            row[1] = 0.0


def _fresh_model(tmp_path, case):
    """A new model: built from a small corpus, or loaded from a hand-written file."""
    if case == "built":
        return build_lm(["abcab", "cab a", "bca", "aab cc", "c"], order=4, discount=0.15)
    return _load_text(tmp_path, ARPA_CASES[case][0], f"{case}.arpa")


@pytest.mark.parametrize("case", ["built"] + sorted(ARPA_CASES))
def test_memoized_rows_equal_fresh_rows(tmp_path, case):
    warm = _fresh_model(tmp_path, case)
    rng = np.random.default_rng(11)
    ids = list(range(1, warm.vocab.emit_size)) + [warm.vocab.bos_id, warm.vocab.eos_id]
    contexts = stored_contexts(warm) + [
        tuple(int(x) for x in rng.choice(ids, size=int(rng.integers(0, warm.order + 2))))
        for _ in range(60)]
    for h in contexts + contexts[::-1]:
        warm.next_log_probs(h)
    for h in contexts:
        fresh = _fresh_model(tmp_path, case)
        assert warm.next_log_probs(h).tobytes() == fresh.next_log_probs(h).tobytes(), h
    assert_follows_reference(warm, contexts)
    # only stored contexts keep a row, so the memory is bounded by the model
    assert set(warm._rows) <= set(stored_contexts(warm))


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("arpa_fuzz")
    lm = build_lm(["abca", "bcab", "cc a"], order=3, discount=0.1)
    save_arpa(lm, root / "valid.arpa")
    ckpt, manifest = _decode_inputs(root, lm.vocab)
    return root, (root / "valid.arpa").read_text(encoding="utf-8"), ckpt, manifest


def test_fuzz_base_file_follows_reference(fuzz_inputs):
    root, _, ckpt, manifest = fuzz_inputs
    lm = load_arpa(root / "valid.arpa")
    assert_follows_reference(lm, stored_contexts(lm))
    rc = cli.main(["decode", "--checkpoint", str(ckpt), "--data", str(manifest),
                   "--lm", str(root / "valid.arpa"), "--beam", "8",
                   "--out", str(root / "hyp.tsv")])
    assert rc == 0


_NUMBER = re.compile(r"-?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?")


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["drop_backoff", "drop_line", "edit_number"]),
       pick=st.integers(min_value=0, max_value=10 ** 6),
       number=st.one_of(st.floats(), st.integers(min_value=-5, max_value=40)))
@example(kind="edit_number", pick=2251, number=-1865280596.0)  # a backoff of -1.9e9
def test_mutated_arpa_never_raises_through_decode(fuzz_inputs, kind, pick, number):
    root, text, ckpt, manifest = fuzz_inputs
    lines = text.split("\n")
    if kind == "drop_backoff":
        with_bo = [i for i, line in enumerate(lines) if line.count("\t") == 2]
        i = with_bo[pick % len(with_bo)]
        lines[i] = lines[i].rsplit("\t", 1)[0]
        mutated = "\n".join(lines)
    elif kind == "drop_line":
        del lines[pick % len(lines)]
        mutated = "\n".join(lines)
    else:
        spans = [m.span() for m in _NUMBER.finditer(text)]
        lo, hi = spans[pick % len(spans)]
        mutated = text[:lo] + repr(number) + text[hi:]
    path = root / "mutated.arpa"
    path.write_text(mutated, encoding="utf-8")
    rc = cli.main(["decode", "--checkpoint", str(ckpt), "--data", str(manifest),
                   "--lm", str(path), "--beam", "8", "--out", str(root / "hyp.tsv")])
    assert rc in (0, 1, 2, 3)
    if rc == 0:
        lm = load_arpa(path)
        assert_follows_reference(lm, stored_contexts(lm))
