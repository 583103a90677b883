"""Samples, the line rule for reading and writing text files, and the
on-disk frame-file and manifest formats.  A dataset is a plain list of
Samples.

A frame file holds one sample's T x D float32 feature matrix:

    bytes 0..3   magic "FRM1"
    bytes 4..7   u32 little-endian T
    bytes 8..11  u32 little-endian D
    then T*D float32 little-endian values, row-major

A manifest is headerless tab-separated text, one sample per row:
sample id, frame-file path relative to the manifest, transcription.
An empty transcription field marks the sample as unlabeled.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .errors import FormatError

if TYPE_CHECKING:
    from .vocab import Vocabulary

FRAME_MAGIC = b"FRM1"
FRAME_HEADER = struct.Struct("<4sII")  # magic, T, D


@dataclass
class Sample:
    sample_id: str
    frames: np.ndarray  # T x D float32
    transcription: str | None = None


def labeled(samples: list[Sample]) -> list[Sample]:
    """The samples that carry a transcription, in order."""
    return [s for s in samples if s.transcription is not None]


def read_lines(path) -> list[str]:
    """The lines of a UTF-8 text file: split at "\n" after universal-newline
    translation, a final newline ending the last line.  No other character
    ends a line; U+2028, U+0085 and a form feed stay inside one."""
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.read().split("\n")
    except UnicodeDecodeError as e:
        raise FormatError(f"{path}: not UTF-8 text ({e})") from None
    if not lines[-1]:  # a final newline ends the last line; an empty file has none
        lines.pop()
    return lines


def write_lines(path, lines) -> None:
    """Write lines as UTF-8 text, each ended by "\n".  The whole text is
    encoded before the file is opened, so a character UTF-8 cannot hold
    raises and leaves path as it was."""
    Path(path).write_bytes("".join(line + "\n" for line in lines).encode("utf-8"))


def check_frames(frames, width: int | None = None) -> np.ndarray:
    """np.asarray(frames) if it is a T x D matrix, T, D >= 1 (D == width if given), all finite."""
    arr = np.asarray(frames)
    if arr.ndim != 2 or 0 in arr.shape or width not in (None, arr.shape[1]):
        raise ValueError(f"frames must be a nonempty T x {width or 'D'} matrix, "
                         f"got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("frames contain NaN or inf")
    return arr


def read_frames(path, width: int | None = None) -> np.ndarray:
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:4] != FRAME_MAGIC:
        raise FormatError(f"{path}: bad frame-file magic {blob[:4]!r}")
    if len(blob) < FRAME_HEADER.size:
        raise FormatError(f"{path}: truncated frame-file header")
    _, t, d = FRAME_HEADER.unpack_from(blob)
    expect = FRAME_HEADER.size + 4 * t * d
    if len(blob) != expect:
        raise FormatError(f"{path}: payload is {len(blob)} bytes, expected {expect}")
    frames = np.frombuffer(blob, dtype="<f4", offset=FRAME_HEADER.size).reshape(t, d).copy()
    try:
        return check_frames(frames, width)
    except ValueError as e:
        raise FormatError(f"{path}: {e}") from None


def write_manifest(samples: list[Sample], manifest_path) -> Path:
    """Write frame files under <manifest dir>/frames/ and the manifest rows
    pointing at them.  Every row is checked first, so a bad one writes
    nothing: each id is unique and names a file (no "/" or NUL), no id or
    transcription holds a tab, a line break or a character UTF-8 cannot
    encode, and each frame matrix, cast to float32, passes check_frames."""
    manifest_path = Path(manifest_path)
    blobs: dict[str, bytes] = {}
    for s in samples:
        sid, text = s.sample_id, s.transcription or ""
        try:
            if sid in blobs:
                raise ValueError("the id is repeated")
            if "/" in sid or "\0" in sid:
                raise ValueError("an id cannot hold '/' or NUL")
            if any(c in sid + text for c in "\t\n\r"):
                raise ValueError("tabs and newlines cannot appear in ids or transcriptions")
            bad = next((c for c in sid + text if "\ud800" <= c <= "\udfff"), None)
            if bad is not None:
                raise ValueError(f"character {bad!r} is a surrogate, which UTF-8 cannot encode")
            with np.errstate(over="ignore"):  # a value float32 cannot hold casts to inf
                frames = check_frames(np.ascontiguousarray(s.frames, dtype="<f4"))
            blobs[sid] = FRAME_HEADER.pack(FRAME_MAGIC, *frames.shape) + frames.tobytes()
        except ValueError as e:
            raise ValueError(f"sample {sid!r}: {e}") from None
    (manifest_path.parent / "frames").mkdir(parents=True, exist_ok=True)
    for sid, blob in blobs.items():
        (manifest_path.parent / f"frames/{sid}.frm").write_bytes(blob)
    write_lines(manifest_path, [f"{s.sample_id}\tframes/{s.sample_id}.frm\t{s.transcription or ''}"
                                for s in samples])
    return manifest_path


def load_manifest(manifest_path, width: int | None = None,
                  vocab: Vocabulary | None = None) -> list[Sample]:
    """Every sample's frames must be width wide, by default the first's;
    given a vocabulary, every transcription must use only its characters."""
    manifest_path = Path(manifest_path)
    samples = []
    for lineno, line in enumerate(read_lines(manifest_path), start=1):
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise FormatError(f"{manifest_path}:{lineno}: expected 3 tab-separated "
                              f"fields, got {len(fields)}")
        sample_id, rel, text = fields
        if not rel:
            raise FormatError(f"{manifest_path}:{lineno}: empty frame path")
        try:
            frames = read_frames(manifest_path.parent / rel, width)
        except (OSError, FormatError) as e:
            raise FormatError(f"{manifest_path}:{lineno}: {e}") from None
        width = width or frames.shape[1]
        unknown = [c for c in text if c not in vocab] if vocab is not None else []
        if unknown:
            raise FormatError(f"{manifest_path}:{lineno}: sample {sample_id} has "
                              f"character {unknown[0]!r}, which is not in the vocabulary")
        samples.append(Sample(sample_id, frames, text if text else None))
    if not samples:
        raise FormatError(f"{manifest_path}: manifest has no rows")
    return samples
