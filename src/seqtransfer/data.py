"""Samples, the line rule for text files, and the on-disk frame-file and
manifest formats.  A dataset is a plain list of Samples.

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

import numpy as np

from .errors import FormatError
from .vocab import Vocabulary

FRAME_MAGIC = b"FRM1"


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


def write_frames(path, frames) -> None:
    arr = np.ascontiguousarray(frames, dtype="<f4")
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"frames must be a nonempty T x D matrix, got shape {arr.shape}")
    with open(path, "wb") as f:
        f.write(FRAME_MAGIC)
        f.write(struct.pack("<II", arr.shape[0], arr.shape[1]))
        f.write(arr.tobytes())


def read_frames(path) -> np.ndarray:
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:4] != FRAME_MAGIC:
        raise FormatError(f"{path}: bad frame-file magic {blob[:4]!r}")
    if len(blob) < 12:
        raise FormatError(f"{path}: truncated frame-file header")
    t, d = struct.unpack("<II", blob[4:12])
    if t < 1 or d < 1:
        raise FormatError(f"{path}: degenerate shape {t} x {d}")
    expect = 12 + 4 * t * d
    if len(blob) != expect:
        raise FormatError(f"{path}: payload is {len(blob)} bytes, expected {expect}")
    frames = np.frombuffer(blob, dtype="<f4", offset=12).reshape(t, d).copy()
    if not np.isfinite(frames).all():
        raise FormatError(f"{path}: frames contain NaN or inf")
    return frames


def write_manifest(samples: list[Sample], manifest_path) -> Path:
    """Write frame files under <manifest dir>/frames/ and the manifest rows
    pointing at them."""
    manifest_path = Path(manifest_path)
    (manifest_path.parent / "frames").mkdir(parents=True, exist_ok=True)
    with open(manifest_path, "w", encoding="utf-8") as f:
        for s in samples:
            text = s.transcription or ""
            for bad in ("\t", "\n", "\r"):
                if bad in text or bad in s.sample_id:
                    raise ValueError("tabs and newlines cannot appear in ids or transcriptions")
            rel = f"frames/{s.sample_id}.frm"
            write_frames(manifest_path.parent / rel, s.frames)
            f.write(f"{s.sample_id}\t{rel}\t{text}\n")
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
        frames = read_frames(manifest_path.parent / rel)
        width = width or frames.shape[1]
        if frames.shape[1] != width:
            raise FormatError(f"{manifest_path}:{lineno}: sample {sample_id} has "
                              f"{frames.shape[1]}-wide frames, expected {width}")
        unknown = [c for c in text if c not in vocab] if vocab is not None else []
        if unknown:
            raise FormatError(f"{manifest_path}:{lineno}: sample {sample_id} has "
                              f"character {unknown[0]!r}, which is not in the vocabulary")
        samples.append(Sample(sample_id, frames, text if text else None))
    if not samples:
        raise FormatError(f"{manifest_path}: manifest has no rows")
    return samples
