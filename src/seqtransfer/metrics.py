"""Edit distance and corpus-pooled character error rate."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .data import write_lines


def edit_distance(a: str, b: str) -> int:
    """Levenshtein distance with unit insert/delete/substitute costs, by the
    bit-parallel algorithm of Myers (1999) in Hyyro's (2001) formulation.
    Bit i of the Python ints pv and mv says that the distance column steps
    up or down by one at row i of the longer string; each character of the
    shorter one advances the whole column in a few integer operations."""
    if a == b:
        return 0
    if len(a) < len(b):
        a, b = b, a
    peq: dict[str, int] = {}
    for i, c in enumerate(a):
        peq[c] = peq.get(c, 0) | 1 << i
    mask, top = (1 << len(a)) - 1, 1 << (len(a) - 1)
    pv, mv, dist = mask, 0, len(a)
    for c in b:
        eq = peq.get(c, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        dist += 1 if ph & top else -1 if mh & top else 0
        ph = ph << 1 | 1  # row 0 of the table steps up by one per column
        pv = (mh << 1 | ~(xv | ph)) & mask
        mv = ph & xv
    return dist


@dataclass
class EvalRow:
    ref: str
    hyp: str
    edits: int


@dataclass
class EvalReport:
    total_edits: int
    total_ref_chars: int
    cer: float
    rows: list[EvalRow]


def cer(refs: Sequence[str], hyps: Sequence[str]) -> EvalReport:
    """Pooled character error rate: total edits over total reference
    characters across the whole corpus.  Can exceed 1.0 when hypotheses
    are much longer than their references."""
    if len(refs) != len(hyps):
        raise ValueError(f"got {len(refs)} references but {len(hyps)} hypotheses")
    if not refs:
        raise ValueError("empty reference list")
    rows = [EvalRow(r, h, edit_distance(r, h)) for r, h in zip(refs, hyps)]
    total_ref = sum(len(r) for r in refs)
    if total_ref == 0:
        raise ValueError("references contain no characters")
    total_edits = sum(row.edits for row in rows)
    return EvalReport(total_edits, total_ref, total_edits / total_ref, rows)


def write_report(report: EvalReport, path) -> None:
    write_lines(path, ["ref\thyp\tedits"]
                + [f"{row.ref}\t{row.hyp}\t{row.edits}" for row in report.rows]
                + [f"# cer\t{report.cer:.6f}\t{report.total_edits}/{report.total_ref_chars}"])
