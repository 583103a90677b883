"""The three benchmark workloads, as seqtransfer CLI argument lists.

Every workload starts from the stock synthetic language pair
(`gen-data --text-len 6,12`) and an order-5 target LM, both made from the
workload seed.  `decode_lm` and `adapt` also start from a source checkpoint
trained in set-up.  The seed becomes `gen-data --base-seed` and every
subcommand's `--seed` (on `adapt`, a few `--seed` values derived from it);
the program sees only the generated files.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


@dataclass(frozen=True)
class Sizes:
    n_train: int  # samples per language in the train split
    n_val: int
    decode_test: int  # target test split on decode_lm, decoded at beam 64
    decode_chunk: int  # samples per decode_lm call; calls rotate through the split
    score_test: int  # target test split on the other workloads, scored greedily
    setup_epochs: int  # source training in set-up
    train_epochs: int  # source training on train_source
    outer_iters: int  # adapt
    prior_batches: int
    train_batches: int
    adapt_seeds: int  # adapt calls rotate through this many hybrid --seed values
    setup_reps: int  # set-ups per run when set-up trains a source checkpoint
    light_setup_reps: int  # set-ups per run otherwise (data and LM only)
    quality_gates: bool  # apply each workload's training check


# Timed calls last 1-2 s: the machine's speed steps between two levels every
# second or so, and Calibration only tracks it across intervals that short.
FULL = Sizes(n_train=96, n_val=128, decode_test=16, decode_chunk=2, score_test=128,
             setup_epochs=4, train_epochs=2, outer_iters=1, prior_batches=2, train_batches=3,
             adapt_seeds=4, setup_reps=3, light_setup_reps=9, quality_gates=True)
# smoke-test sizes: too little training for the training check to hold
TINY = Sizes(n_train=8, n_val=4, decode_test=4, decode_chunk=2, score_test=4,
             setup_epochs=1, train_epochs=1, outer_iters=1, prior_batches=1, train_batches=1,
             adapt_seeds=2, setup_reps=2, light_setup_reps=2, quality_gates=False)
# the CLI defaults, written out so that a change of default does not change
# the traffic
BATCH_SIZE = 8
LR = "1e-3"
LM_ORDER = 5
ADAPT_BEAM = 16


class Files:
    """Paths inside one set-up directory."""

    def __init__(self, root: Path):
        self.root = root
        self.data = root / "data"
        self.vocab = self.data / "vocab.json"
        self.lm = root / "target.arpa"
        self.source_ckpt = root / "source.ckpt"

    def manifest(self, lang: str, split: str) -> str:
        return str(self.data / lang / split / "manifest.tsv")

    def frame_counts(self, manifest: str) -> list[int]:
        """Frames per sample, read from the frame-file headers (magic, then
        u32 little-endian T and D)."""
        path = Path(manifest)
        counts = []
        for row in path.read_text(encoding="utf-8").splitlines():
            with open(path.parent / row.split("\t")[1], "rb") as fh:
                counts.append(struct.unpack("<I", fh.read(8)[4:])[0])
        return counts

    def split_manifest(self, lang: str, split: str, chunk: int) -> list[str]:
        """Cut a split's manifest into consecutive chunks of `chunk` rows,
        written beside it (part0.tsv, ...) so the frame paths stay valid."""
        manifest = Path(self.manifest(lang, split))
        rows = manifest.read_text(encoding="utf-8").splitlines(True)
        parts = []
        for k in range(0, len(rows), chunk):
            parts.append(str(manifest.parent / f"part{k // chunk}.tsv"))
            Path(parts[-1]).write_text("".join(rows[k:k + chunk]), encoding="utf-8")
        return parts


def _source_train(f: Files, out: Path, seed: int, epochs: int) -> list[str]:
    return ["train-source", "--data", f.manifest("source", "train"),
            "--vocab", str(f.vocab), "--out-checkpoint", str(out), "--epochs", str(epochs),
            "--lr", LR, "--batch-size", str(BATCH_SIZE), "--seed", str(seed)]


@dataclass(frozen=True)
class Part:
    """The input of one kind of timed call.  A workload's calls rotate
    through its parts."""
    manifest: str  # the input data: one chunk of the test split on decode_lm
    seed: int  # the call's --seed
    samples: float  # samples one call completes
    frames: float  # input frames one call completes


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    trains_source: bool  # set-up trains the starting checkpoint
    n_test: Callable[[Sizes], int]
    # the timed calls' parts, made from a finished set-up and the workload
    # seed (outside the timing)
    parts: Callable[[Files, Sizes, int], list[Part]]
    # argv of the timed call on one part; it writes its output into the given dir
    call: Callable[[Files, Path, Sizes, Part], list[str]]
    output: str  # file name of that output
    # manifest the written checkpoint is scored on, greedily; None when the
    # call itself reports CER
    score_on: tuple[str, str] | None
    # per-epoch metrics file the call writes beside its output; training
    # check: the last epoch's train loss is below the first's
    loss_log: str | None = None

    def setup(self, f: Files, seed: int, z: Sizes) -> list[list[str]]:
        steps = [
            ["gen-data", "--out", str(f.data), "--base-seed", str(seed), "--text-len", "6,12",
             "--n-train", str(z.n_train), "--n-val", str(z.n_val),
             "--n-test", str(self.n_test(z))],
            ["train-lm", "--corpus", str(f.data / "target" / "corpus.txt"),
             "--vocab", str(f.vocab), "--order", str(LM_ORDER), "--out", str(f.lm)],
        ]
        if self.trains_source:
            steps.append(_source_train(f, f.source_ckpt, seed, z.setup_epochs))
        return steps

    def setup_reps(self, z: Sizes) -> int:
        return z.setup_reps if self.trains_source else z.light_setup_reps


def _decode_parts(f: Files, z: Sizes, seed: int) -> list[Part]:
    return [Part(m, seed, len(c), sum(c))
            for m in f.split_manifest("target", "test", z.decode_chunk)
            for c in [f.frame_counts(m)]]


def _adapt_parts(f: Files, z: Sizes, seed: int) -> list[Part]:
    # Batches draw samples at random: expected frames, half source and half
    # target (the CLI's default source fraction).  A call decodes only 12
    # target samples, and decoding time follows their length, so one draw
    # sets the pace of a whole run; rotating --seed spreads a run over
    # several draws.
    samples = z.outer_iters * z.train_batches * BATCH_SIZE
    frames = samples / 2 * (statistics.mean(f.frame_counts(f.manifest("source", "train")))
                            + statistics.mean(f.frame_counts(f.manifest("target", "train"))))
    return [Part(f.manifest("target", "train"), seed * z.adapt_seeds + k, samples, frames)
            for k in range(z.adapt_seeds)]


WORKLOADS = {w.name: w for w in (
    Workload(
        "decode_lm",
        "eval --lm at the default beam 64: the scoring path and the first "
        "pseudo-label pass; decoder and LM do nearly all the work",
        trains_source=True,
        n_test=lambda z: z.decode_test,
        parts=_decode_parts,
        call=lambda f, out, z, part: [
            "eval", "--checkpoint", str(f.source_ckpt), "--data", part.manifest,
            "--lm", str(f.lm), "--report", str(out / "report.tsv")],
        output="report.tsv",
        score_on=None),
    Workload(
        "train_source",
        "supervised train-source with --val: recognizer, CTC, Adam and greedy "
        "eval only, so it stays flat when the decoder or LM changes",
        trains_source=False,
        n_test=lambda z: z.decode_chunk,  # never read
        parts=lambda f, z, seed: [Part(
            f.manifest("source", "train"), seed, z.train_epochs * z.n_train,
            z.train_epochs * sum(f.frame_counts(f.manifest("source", "train"))))],
        call=lambda f, out, z, part: _source_train(f, out / "source.ckpt", part.seed,
                                                   z.train_epochs)
        + ["--val", f.manifest("source", "val"), "--metrics", str(out / "metrics.tsv")],
        output="source.ckpt",
        score_on=("source", "val"),
        loss_log="metrics.tsv"),
    Workload(
        "adapt",
        "hybrid --lm at beam 16: prior passes, pseudo-label decoding and "
        "composite-loss training together, the paper's method",
        trains_source=True,
        n_test=lambda z: z.score_test,
        parts=_adapt_parts,
        call=lambda f, out, z, part: [
            "hybrid", "--init-checkpoint", str(f.source_ckpt),
            "--source-data", f.manifest("source", "train"),
            "--target-data", part.manifest,
            "--val-data", f.manifest("target", "val"), "--lm", str(f.lm),
            "--beam", str(ADAPT_BEAM), "--outer-iters", str(z.outer_iters),
            "--prior-pass-batches", str(z.prior_batches),
            "--train-pass-batches", str(z.train_batches),
            "--batch-size", str(BATCH_SIZE), "--lr", LR, "--seed", str(part.seed),
            "--out-checkpoint", str(out / "adapted.ckpt")],
        output="adapted.ckpt",
        score_on=("target", "test")),
)}


# -- output checks ------------------------------------------------------------

def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


def tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def report_hypotheses(path: Path) -> list[str]:
    """Hypothesis column of an `eval --report` file."""
    rows = path.read_text(encoding="utf-8").splitlines()
    if not rows or rows[0] != "ref\thyp\tedits" or not rows[-1].startswith("# cer\t"):
        raise ValueError(f"{path}: not a CER report")
    hyps = []
    for row in rows[1:-1]:
        fields = row.split("\t")
        if len(fields) != 3:
            raise ValueError(f"{path}: bad report row {row!r}")
        hyps.append(fields[1])
    return hyps


def report_totals(path: Path) -> tuple[int, int]:
    """(edits, reference characters) from the last line of an `eval
    --report` file, `# cer<TAB>value<TAB>edits/chars`."""
    last = path.read_text(encoding="utf-8").splitlines()[-1].split("\t")
    edits, _, chars = last[2].partition("/")
    return int(edits), int(chars)


def train_losses(path: Path) -> list[float]:
    """Per-epoch train losses from a `train-source --metrics` file
    (iteration, split, loss, CER per line)."""
    rows = [line.split("\t") for line in path.read_text(encoding="utf-8").splitlines()]
    return [float(r[2]) for r in rows if r[1] == "train"]


def hypotheses_digest(hyps: list[str]) -> str:
    return hashlib.sha256("\n".join(hyps).encode("utf-8")).hexdigest()[:16]


def foreign_chars(hyps: list[str], vocab_path: Path) -> set[str]:
    """Characters in the hypotheses that the vocabulary does not hold."""
    chars = set(json.loads(vocab_path.read_text(encoding="utf-8")))
    return {c for h in hyps for c in h} - chars


def printed_cer(stdout: str) -> float:
    """The pooled CER `eval` prints as `cer<TAB>value`."""
    for line in stdout.splitlines():
        key, _, value = line.partition("\t")
        if key == "cer":
            return float(value)
    raise ValueError("eval printed no cer line")
