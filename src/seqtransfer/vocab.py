"""Character vocabulary with reserved ids for the CTC blank and sentence markers.

One id space is shared by every component.  Id 0 is the CTC blank, ids
1..C are the characters in sorted order, and the two sentence markers
(BOS, EOS) take the last two ids.  A recognizer emits over ids 0..C only;
BOS and EOS exist for the language model and never appear in label
sequences or transcriptions.
"""

from __future__ import annotations

import json
from typing import Iterable, Sequence

from .data import read_lines, write_lines
from .errors import FormatError

BLANK_ID = 0


class Vocabulary:
    def __init__(self, chars: Iterable[str]):
        uniq = sorted(set(chars))
        if not uniq:
            raise ValueError("vocabulary needs at least one character")
        for c in uniq:
            if len(c) != 1:
                raise ValueError(f"vocabulary entries must be single characters, got {c!r}")
            if c in ("\n", "\r"):
                raise ValueError("newline characters are not allowed in the vocabulary")
            if "\ud800" <= c <= "\udfff":  # no UTF-8 file can hold a surrogate
                raise ValueError(f"character {c!r} is a surrogate, which UTF-8 cannot encode")
        self.chars: tuple[str, ...] = tuple(uniq)
        self._ids = {c: i + 1 for i, c in enumerate(self.chars)}
        self.emit_size = 1 + len(self.chars)  # the labels a recognizer emits: blank, characters
        self.bos_id, self.eos_id = self.emit_size, self.emit_size + 1
        self.size = self.emit_size + 2  # every id, BOS and EOS included

    def __contains__(self, char: str) -> bool:
        return char in self._ids

    def __eq__(self, other) -> bool:
        return isinstance(other, Vocabulary) and self.chars == other.chars

    def id_of(self, char: str) -> int:
        try:
            return self._ids[char]
        except KeyError:
            raise ValueError(f"character {char!r} is not in the vocabulary") from None

    def char_of(self, label_id: int) -> str:
        if 1 <= label_id <= len(self.chars):
            return self.chars[label_id - 1]
        raise ValueError(f"id {label_id} is not a character id")

    def encode(self, text: str) -> tuple[int, ...]:
        return tuple(self.id_of(c) for c in text)

    def decode(self, ids: Sequence[int]) -> str:
        ok = not len(ids) or 1 <= min(ids) and max(ids) <= len(self.chars)  # one bounds check
        return "".join([self.chars[i - 1] for i in ids] if ok else map(self.char_of, ids))

    def save(self, path) -> None:
        write_lines(path, [json.dumps(list(self.chars), ensure_ascii=False)])

    @classmethod
    def load(cls, path) -> "Vocabulary":
        return cls.from_json("\n".join(read_lines(path)), path)

    @classmethod
    def from_json(cls, text: str, where) -> "Vocabulary":
        """Parse a JSON list of single characters; a defect raises a
        FormatError that names `where`."""
        try:
            chars = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as e:  # too deeply nested
            raise FormatError(f"{where}: not a JSON character list ({e})") from None
        if not isinstance(chars, list) or not all(isinstance(c, str) for c in chars):
            raise FormatError(f"{where}: expected a JSON list of characters")
        try:
            return cls(chars)
        except ValueError as e:
            raise FormatError(f"{where}: {e}") from None
