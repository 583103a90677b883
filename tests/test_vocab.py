import json

import pytest

from seqtransfer import BLANK_ID, FormatError, Vocabulary


def test_blank_is_zero_and_chars_are_dense():
    v = Vocabulary("cab")
    assert BLANK_ID == 0
    assert v.chars == ("a", "b", "c")
    assert [v.id_of(c) for c in "abc"] == [1, 2, 3]


def test_bos_eos_sit_above_emission_ids():
    v = Vocabulary("ab")
    assert v.emit_size == 3  # blank + 2 chars
    assert v.bos_id == 3
    assert v.eos_id == 4
    assert v.size == 5


def test_duplicate_chars_collapse():
    assert Vocabulary("aabba") == Vocabulary("ab")


def test_encode_decode_round_trip():
    v = Vocabulary("abc ")
    text = "ab c"
    assert v.decode(v.encode(text)) == text


def test_encode_rejects_unknown_char():
    v = Vocabulary("ab")
    with pytest.raises(ValueError):
        v.encode("abz")


def test_char_of_rejects_blank_and_out_of_range():
    v = Vocabulary("ab")
    with pytest.raises(ValueError):
        v.char_of(BLANK_ID)
    with pytest.raises(ValueError):
        v.char_of(v.emit_size)


@pytest.mark.parametrize("ids, bad", [((1, 0, 2), 0), ((2, 3), 3), ((-1,), -1),
                                      ((1, 4, 0), 4)])
def test_decode_rejects_the_first_non_character_id(ids, bad):
    """One bounds check per sequence, and the message char_of gives for the
    first id that is not a character: blank, BOS, EOS, or past the end."""
    v = Vocabulary("ab")
    with pytest.raises(ValueError, match=rf"^id {bad} is not a character id$"):
        v.decode(ids)
    assert v.decode(()) == "" and v.decode((2, 1, 1)) == "baa"


def test_contains():
    v = Vocabulary("ab")
    assert "a" in v and "z" not in v


def test_newline_rejected():
    with pytest.raises(ValueError):
        Vocabulary("a\nb")


def test_surrogate_rejected():
    """No UTF-8 file can hold a surrogate; an undecodable argv byte becomes one."""
    with pytest.raises(ValueError, match=r"^character '\\udcff' is a surrogate, which UTF-8"):
        Vocabulary("ab\udcff")


def test_multichar_entry_rejected():
    with pytest.raises(ValueError):
        Vocabulary(["ab"])


def test_save_load_round_trip(tmp_path):
    v = Vocabulary("héllo wörld")
    p = tmp_path / "vocab.json"
    v.save(p)
    assert Vocabulary.load(p) == v
    # the file itself is a plain JSON char list
    assert isinstance(json.loads(p.read_text(encoding="utf-8")), list)


def test_load_rejects_bad_json(tmp_path):
    p = tmp_path / "vocab.json"
    p.write_text("{not json", encoding="utf-8")
    with pytest.raises(FormatError):
        Vocabulary.load(p)


def test_load_rejects_non_list(tmp_path):
    p = tmp_path / "vocab.json"
    p.write_text('{"a": 1}', encoding="utf-8")
    with pytest.raises(FormatError):
        Vocabulary.load(p)


@pytest.mark.parametrize("payload", ["5", "[1,2]", '["ab"]', "[]", '["a", "\\ud800"]',
                                     pytest.param("[" * 100000, id="deeply-nested")])
def test_load_rejects_json_that_is_not_a_char_list(tmp_path, payload):
    p = tmp_path / "vocab.json"
    p.write_text(payload, encoding="utf-8")
    with pytest.raises(FormatError):
        Vocabulary.load(p)
