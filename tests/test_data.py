import re
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from seqtransfer import (FormatError, Sample, Vocabulary, check_frames, cli, labeled,
                         load_manifest, read_frames, read_lines, write_lines, write_manifest)
from seqtransfer.data import FRAME_HEADER, FRAME_MAGIC
from conftest import FRAME_FAULTS


def _frame_file(tmp_path, frames):
    """A lone frame file of frames, written by write_manifest."""
    write_manifest([Sample("x", frames)], tmp_path / "manifest.tsv")
    return tmp_path / "frames" / "x.frm"


def test_frame_round_trip_is_bit_exact(tmp_path, rng):
    frames = rng.normal(0, 1, (7, 5)).astype(np.float32)
    back = read_frames(_frame_file(tmp_path, frames))
    assert back.dtype == np.float32
    assert np.array_equal(
        back.view(np.uint32), frames.view(np.uint32))


def test_frame_file_layout(tmp_path):
    frames = np.arange(6, dtype=np.float32).reshape(2, 3)
    raw = _frame_file(tmp_path, frames).read_bytes()
    assert raw[:4] == FRAME_MAGIC
    assert struct.unpack("<II", raw[4:12]) == (2, 3)
    assert len(raw) == 12 + 6 * 4


def test_frame_bad_magic(tmp_path):
    p = tmp_path / "x.frm"
    p.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(FormatError):
        read_frames(p)


def test_frame_truncated_payload(tmp_path):
    p = _frame_file(tmp_path, np.ones((3, 4), dtype=np.float32))
    blob = p.read_bytes()
    for n in range(len(blob)):  # every offset, header included
        p.write_bytes(blob[:n])
        with pytest.raises(FormatError, match=f"^{re.escape(str(p))}: "):
            read_frames(p)


def _write_raw(root, samples) -> Path:
    """A manifest and the frame files of samples' float32 casts, built by hand
    as write_manifest would build them if it took any matrix."""
    (root / "frames").mkdir()
    for s in samples:
        with np.errstate(over="ignore"):
            frames = np.asarray(s.frames, dtype="<f4")
        (root / f"frames/{s.sample_id}.frm").write_bytes(
            FRAME_HEADER.pack(FRAME_MAGIC, *frames.shape) + frames.tobytes())
    (root / "manifest.tsv").write_text("".join(
        f"{s.sample_id}\tframes/{s.sample_id}.frm\t{s.transcription or ''}\n" for s in samples),
        encoding="utf-8")
    return root / "manifest.tsv"


@pytest.mark.parametrize("fault", FRAME_FAULTS)
def test_frame_fault_names_the_sample_or_the_file(tmp_path, rng, fault):
    """write_manifest refuses each fault it can see (all but a wrong width)
    and writes nothing; a file holding the fault fails read_frames naming
    the file, and load_manifest naming the manifest line too."""
    frames, message, at_width = FRAME_FAULTS[fault]
    samples = [Sample("ok", rng.normal(0, 1, (5, 3)).astype(np.float32), "ab"),
               Sample("x", frames)]
    if message is None:
        write_manifest(samples, tmp_path / "manifest.tsv")
    else:
        with pytest.raises(ValueError, match="^" + re.escape(f"sample 'x': {message}") + "$"):
            write_manifest(samples, tmp_path / "manifest.tsv")
        assert list(tmp_path.iterdir()) == []
    if frames.ndim != 2:
        return  # the header of a frame file always gives two dims
    (tmp_path / "raw").mkdir()
    manifest = _write_raw(tmp_path / "raw", samples)
    frm = tmp_path / "raw" / "frames" / "x.frm"
    for width, want in ((None, message), (3, at_width)):
        if want is None:
            assert read_frames(frm, width).shape == frames.shape
            continue
        with pytest.raises(FormatError, match="^" + re.escape(f"{frm}: {want}") + "$"):
            read_frames(frm, width)
    # the width of the first row, "ok", binds the second, as an explicit 3 does
    want = f"{manifest}:2: {frm}: {at_width}"
    for width in (None, 3):
        with pytest.raises(FormatError, match="^" + re.escape(want) + "$"):
            load_manifest(manifest, width)


@settings(max_examples=200, deadline=None)
@given(frames=hnp.arrays(st.sampled_from([np.float32, np.float64]),
                         hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=4)))
def test_write_manifest_refuses_exactly_what_check_frames_refuses(frames):
    """write_manifest raises exactly when check_frames does on the float32
    cast, and what it writes loads back bit for bit."""
    with np.errstate(over="ignore"):
        cast = frames.astype("<f4")
    try:
        check_frames(cast)
    except ValueError as e:
        refused = str(e)
    else:
        refused = None
    with tempfile.TemporaryDirectory() as root:
        manifest = Path(root) / "manifest.tsv"
        if refused is not None:
            with pytest.raises(ValueError, match=f"^sample 'x': {re.escape(refused)}$"):
                write_manifest([Sample("x", frames)], manifest)
            assert not any(Path(root).iterdir())
            return
        write_manifest([Sample("x", frames)], manifest)
        back = read_frames(Path(root) / "frames" / "x.frm")
        assert back.shape == cast.shape and back.tobytes() == cast.tobytes()


def _toy_dataset(rng):
    return [
        Sample("a0", rng.normal(0, 1, (4, 3)).astype(np.float32), "hi"),
        Sample("a1", rng.normal(0, 1, (2, 3)).astype(np.float32), None),
        Sample("a2", rng.normal(0, 1, (5, 3)).astype(np.float32), "yo"),
    ]


def test_manifest_round_trip(tmp_path, rng):
    from seqtransfer import write_manifest
    ds = _toy_dataset(rng)
    path = tmp_path / "manifest.tsv"
    write_manifest(ds, path)
    back = load_manifest(path)
    assert len(back) == 3
    for orig, got in zip(ds, back):
        assert got.sample_id == orig.sample_id
        assert got.transcription == orig.transcription
        assert np.array_equal(got.frames, orig.frames)


def test_manifest_unlabeled_field_is_none(tmp_path, rng):
    from seqtransfer import write_manifest
    ds = _toy_dataset(rng)
    write_manifest(ds, tmp_path / "manifest.tsv")
    back = load_manifest(tmp_path / "manifest.tsv")
    assert back[1].transcription is None
    assert [s.sample_id for s in labeled(back)] == ["a0", "a2"]


def test_manifest_round_trip_keeps_a_line_separator_inside_a_transcription(tmp_path, rng):
    text = "a\u2028b\x85c\x0cd"
    ds = [Sample("s0", rng.normal(0, 1, (9, 2)).astype(np.float32), text),
          Sample("s1", rng.normal(0, 1, (3, 2)).astype(np.float32), "ab")]
    path = write_manifest(ds, tmp_path / "manifest.tsv")
    back = load_manifest(path, vocab=Vocabulary(text))
    assert [(s.sample_id, s.transcription) for s in back] == [("s0", text), ("s1", "ab")]


@pytest.mark.parametrize("text, lines", [
    ("", []),
    ("a", ["a"]),
    ("a\n", ["a"]),
    ("a\n\n", ["a", ""]),
    ("a\r\nb\rc", ["a", "b", "c"]),
    ("a\u2028b\x85c\x0cd\n", ["a\u2028b\x85c\x0cd"]),
])
def test_read_lines_splits_only_at_newlines(tmp_path, text, lines):
    p = tmp_path / "text.txt"
    p.write_bytes(text.encode("utf-8"))
    assert read_lines(p) == lines
    if "\u2028" not in text:  # no separator but the newlines: what splitlines gives
        assert read_lines(p) == text.splitlines()


@pytest.mark.parametrize("lines", [
    [], [""], ["", ""], ["a", "", "b", ""], ["a\u2028b", "\x85", "c\x0cd", "é"],
])
def test_write_lines_round_trips_through_read_lines(tmp_path, lines):
    p = tmp_path / "text.txt"
    write_lines(p, lines)
    assert p.read_bytes() == "".join(line + "\n" for line in lines).encode("utf-8")
    assert read_lines(p) == lines


def test_write_lines_encodes_before_it_opens(tmp_path):
    """A line UTF-8 cannot hold raises and leaves the path as it was."""
    new, old = tmp_path / "new.txt", tmp_path / "old.txt"
    old.write_bytes(b"kept\n")
    for path in (new, old):
        with pytest.raises(UnicodeEncodeError):
            write_lines(path, ["a", "b\udcff"])
    assert not new.exists()
    assert old.read_bytes() == b"kept\n"


def test_manifest_rejects_wrong_column_count(tmp_path):
    p = tmp_path / "manifest.tsv"
    p.write_text("id0\tframes/id0.frm\n", encoding="utf-8")
    with pytest.raises(FormatError, match=":1:"):
        load_manifest(p)


def test_manifest_rejects_empty_file(tmp_path):
    p = tmp_path / "manifest.tsv"
    p.write_text("", encoding="utf-8")
    with pytest.raises(FormatError):
        load_manifest(p)


def test_manifest_rejects_tab_in_transcription(tmp_path, rng):
    """Every row is checked before frames/ or any file is written."""
    from seqtransfer import write_manifest
    frames = rng.normal(0, 1, (2, 2)).astype(np.float32)
    ds = [Sample("ok", frames, "ab"), Sample("y", frames), Sample("x", frames, "a\tb")]
    with pytest.raises(ValueError):
        write_manifest(ds, tmp_path / "manifest.tsv")
    assert list(tmp_path.iterdir()) == []


def test_manifest_checks_every_frame_matrix_before_writing(tmp_path):
    ds = [Sample("a", np.ones((2, 2), np.float32), "ab"), Sample("b", np.ones((0, 2), np.float32))]
    with pytest.raises(ValueError, match=r"nonempty T x D matrix, got shape \(0, 2\)$"):
        write_manifest(ds, tmp_path / "manifest.tsv")
    assert not (tmp_path / "frames").exists() and not (tmp_path / "manifest.tsv").exists()


def _tree(root):
    return {p.relative_to(root): p.read_bytes() if p.is_file() else None
            for p in root.rglob("*")}


@pytest.mark.parametrize("ids, texts, message", [
    (["a", "b"], ["ok", "x\udcff"],
     "sample 'b': character '\\udcff' is a surrogate, which UTF-8 cannot encode"),
    (["a", "sub/b"], ["ok", "ab"], "sample 'sub/b': an id cannot hold '/' or NUL"),
    (["a", "b\0"], ["ok", "ab"], "sample 'b\\x00': an id cannot hold '/' or NUL"),
    (["a", "b", "a"], ["ok", "ab", "ba"], "sample 'a': the id is repeated"),
], ids=["surrogate", "slash", "nul", "repeated"])
def test_manifest_fault_writes_nothing(tmp_path, ids, texts, message):
    """A bad row raises one ValueError naming its sample, and leaves the
    directory as it was, an earlier manifest and its frames included."""
    frames = np.ones((2, 2), np.float32)
    write_manifest([Sample("old", frames, "ab")], tmp_path / "manifest.tsv")
    before = _tree(tmp_path)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        write_manifest([Sample(i, frames * k, t) for k, (i, t) in enumerate(zip(ids, texts))],
                       tmp_path / "manifest.tsv")
    assert _tree(tmp_path) == before


def test_missing_frame_file(tmp_path):
    p = tmp_path / "manifest.tsv"
    p.write_text("id0\tframes/id0.frm\thello\n", encoding="utf-8")
    with pytest.raises((FormatError, OSError)):
        load_manifest(p)


@pytest.mark.parametrize("path, message", [
    ("", "empty frame path"),
    ("frames/gone.frm", "[Errno 2] No such file or directory"),
])
def test_bad_frame_path_names_the_manifest_row(tmp_path, capsys, path, message):
    (tmp_path / "ok.frm").write_bytes(FRAME_HEADER.pack(FRAME_MAGIC, 2, 3) + bytes(4 * 6))
    p = tmp_path / "manifest.tsv"
    p.write_text(f"id0\tok.frm\tab\nid1\t{path}\tba\n", encoding="utf-8")
    with pytest.raises(FormatError, match=f"^{re.escape(f'{p}:2: {message}')}"):
        load_manifest(p)
    Vocabulary("ab").save(tmp_path / "vocab.json")
    ck = tmp_path / "c.ckpt"
    assert cli.main(["train-source", "--data", str(p), "--vocab", str(tmp_path / "vocab.json"),
                     "--out-checkpoint", str(ck)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {p}:2: {message}") and err.count("\n") == 1
    assert not ck.exists()
