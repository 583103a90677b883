"""Character n-gram language model with interpolated absolute discounting.

Each training line is wrapped as BOS ... EOS and every n-gram of length
1..order whose final token is not BOS is counted.  Conditional
probabilities interpolate the discounted relative frequency with the
next-lower order:

    p(c | h) = max(count(hc) - d, 0) / count(h.) + gamma(h) * p(c | h')

where h' drops the oldest token, count(h.) is the total count of
continuations of h, and gamma(h) = d * distinct_continuations(h) / count(h.).
The recursion bottoms out in a unigram distribution interpolated against a
uniform base over the usable symbols (the characters plus EOS; BOS and the
CTC blank carry no probability mass).

Models are immutable once built.  Queries follow the standard ARPA
backoff rule: a stored n-gram hc answers with its own probability;
otherwise the answer is log gamma(h) plus the answer for h'.  A missing
backoff weight means log 1, and a stored weight applies even when h has no
stored continuations.  The one query, next_log_probs, is one walk that
implements the rule, and a model loaded from its ARPA serialization answers
it identically to the model that wrote it.

Where LM rows come from: next_log_probs answers with a dense, read-only row.
The walk builds the row of a stored context (one with a backoff weight or a
continuation) when it is first asked for and keeps it, so kept rows never
outnumber stored contexts and every caller shares them; any other context
gets its longest stored suffix's row plus log 1, built afresh.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter
from itertools import compress, count, groupby, repeat, zip_longest
from typing import Iterable, Sequence

import numpy as np

from .data import read_lines, write_lines
from .errors import FormatError
from .vocab import Vocabulary

BOS_TOKEN = "<s>"
EOS_TOKEN = "</s>"
# Single characters that would collide with ARPA field separators.
_CHAR_ESCAPES = {" ": "<sp>", "\t": "<tab>"}
_TOKEN_UNESCAPES = {v: k for k, v in _CHAR_ESCAPES.items()}
_LN10 = math.log(10.0)


class NgramLM:
    """Queryable model over a shared Vocabulary.

    probs maps an id tuple (context + next id) to the natural-log
    conditional probability of its last id.  backoffs maps an observed
    context to log gamma(context).
    """

    def __init__(self, vocab: Vocabulary, order: int,
                 probs: dict[tuple[int, ...], float],
                 backoffs: dict[tuple[int, ...], float]):
        if order < 1:
            raise ValueError(f"order must be >= 1, got {order}")
        self.vocab = vocab
        self.order = order
        self.probs = probs
        self.backoffs = backoffs
        self._finalize()

    def _finalize(self):
        # usable symbols: every character plus EOS
        usable = list(range(1, self.vocab.emit_size)) + [self.vocab.eos_id]
        base = np.full(self.vocab.size, -np.inf)
        base[usable] = [self.probs[(c,)] for c in usable]
        base.setflags(write=False)
        self._rows = {(): base}  # context -> its row, for stored contexts only
        # the n-gram keys by length, sorted, so that a context's continuations
        # are one bisected run; both producers insert the keys length by length
        by_len: dict[int, list[tuple[int, ...]]] = {}
        for k, grams in groupby(self.probs, len):
            by_len.setdefault(k, []).extend(grams)
        self._grams = {k: sorted(grams) for k, grams in by_len.items()}

    # -- queries ---------------------------------------------------------

    def next_log_probs(self, context_ids: Sequence[int]) -> np.ndarray:
        """Dense, read-only vector of natural-log p(id | context_ids) over the
        full id space.  Blank and BOS entries are -inf.  Rows of stored
        contexts are shared by every caller."""
        h = tuple(context_ids)[-(self.order - 1):] if self.order > 1 else ()
        return self._dense(h)

    def _dense(self, h: tuple[int, ...]) -> np.ndarray:
        """The backoff walk: back off to h' at weight gamma(h) (log 1 when
        h stores none), then let h's own continuations override.  The row
        of a stored h is kept."""
        row = self._rows.get(h)
        if row is None:
            row = self._dense(h[1:]) + self.backoffs.get(h, 0.0)
            grams = self._grams.get(len(h) + 1, ())
            lo = bisect_left(grams, h)
            hi = bisect_left(grams, h + (self.vocab.size,), lo)  # ids are below size
            for g in grams[lo:hi]:
                row[g[-1]] = self.probs[g]
            row.setflags(write=False)
            if lo < hi or h in self.backoffs:
                self._rows[h] = row
        return row


def build_lm(corpus: Iterable[str], order: int, discount: float,
             extra_chars: Iterable[str] = (), vocab: Vocabulary | None = None) -> NgramLM:
    """Count n-grams over the corpus lines and derive the smoothed tables.

    When vocab is given it is fixed: corpus characters outside it are an
    error, and so are extra_chars outside it.  Otherwise the vocabulary is
    the union of the corpus characters and extra_chars.
    """
    lines = list(corpus)
    if not lines:
        raise ValueError("empty corpus")
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if not (0.0 < discount < 1.0):
        raise ValueError(f"discount must be in (0, 1), got {discount}")

    if vocab is None:
        vocab = Vocabulary(set().union(*lines, extra_chars))
    else:
        for kind, chars in (("corpus", "".join(lines)), ("extra", extra_chars)):
            bad = next((c for c in chars if c not in vocab), None)
            if bad is not None:
                raise ValueError(f"{kind} character {bad!r} is outside the fixed vocabulary")

    bos, eos = vocab.bos_id, vocab.eos_id
    counts: Counter[tuple[int, ...]] = Counter()
    for line in lines:
        ids = (bos,) + vocab.encode(line) + (eos,)
        # every n-gram ending at a predicted position i; BOS is context only
        counts.update(ids[j:i + 1] for i in range(1, len(ids))
                      for j in range(max(0, i - order + 1), i + 1))

    # continuation totals and distinct-continuation counts per context
    ctot: Counter[tuple[int, ...]] = Counter()
    distinct: Counter[tuple[int, ...]] = Counter()
    for gram, n in counts.items():
        h = gram[:-1]
        ctot[h] += n
        distinct[h] += 1
    gamma = {h: discount * distinct[h] / ctot[h] for h in ctot}  # mass left to back off

    usable = tuple(range(1, vocab.emit_size)) + (eos,)
    base = 1.0 / len(usable)

    # probabilities in plain prob space, lowest order first
    p: dict[tuple[int, ...], float] = {}
    for c in usable:
        p[(c,)] = max(counts.get((c,), 0) - discount, 0.0) / ctot[()] + gamma[()] * base
    for gram in sorted(counts, key=len):  # lower orders first, so p[gram[1:]] is set
        if len(gram) > 1:
            h = gram[:-1]
            p[gram] = max(counts[gram] - discount, 0.0) / ctot[h] + gamma[h] * p[gram[1:]]

    probs = {gram: math.log(v) for gram, v in p.items()}
    backoffs = {h: math.log(g) for h, g in gamma.items() if h}
    return NgramLM(vocab, order, probs, backoffs)


def perplexity(lm: NgramLM, corpus: Iterable[str]) -> float:
    """exp of the mean negative log probability per predicted token, the
    terminal EOS of each line included, each read off its next_log_probs row."""
    lines = list(corpus)
    if not lines:
        raise ValueError("empty corpus")
    total = 0.0
    for line in lines:
        ids = (lm.vocab.bos_id,) + lm.vocab.encode(line) + (lm.vocab.eos_id,)
        line_total = 0.0  # a line's sum, then the corpus's: this order fixes the rounding
        for i in range(1, len(ids)):
            line_total += float(lm.next_log_probs(ids[:i])[ids[i]])
        total += line_total
    return math.exp(-total / (sum(map(len, lines)) + len(lines)))


# -- ARPA serialization ---------------------------------------------------

def _tokens(vocab: Vocabulary) -> list[str]:
    """Every id's ARPA token, by id; the blank (id 0) has none."""
    return [""] + [_CHAR_ESCAPES.get(c, c) for c in vocab.chars] + [BOS_TOKEN, EOS_TOKEN]


def save_arpa(lm: NgramLM, path) -> None:
    """Write the model as ARPA text: log10 probabilities, tab-separated
    fields, one section per n-gram length up to the model order, each in
    the model's own sorted order."""
    bos = (lm.vocab.bos_id,)
    sections = [lm._grams.get(k, []) for k in range(1, lm.order + 1)]
    sections[0] = sections[0] + [bos]  # BOS carries its backoff weight in the unigrams
    tokens = _tokens(lm.vocab)

    def fmt(x: float) -> str:
        return f"{x / _LN10:.12g}"

    lines = ["\\data\\"] + [f"ngram {k}={len(grams)}" for k, grams in enumerate(sections, 1)]
    for k, grams in enumerate(sections, 1):
        lines += ["", f"\\{k}-grams:"]
        for gram in grams:
            toks = " ".join([tokens[i] for i in gram])
            # BOS is never predicted; rounding in build_lm can leave log p a hair above 0
            lp = "-99" if gram == bos else fmt(min(lm.probs[gram], 0.0))
            bo = lm.backoffs.get(gram)
            lines.append(f"{lp}\t{toks}\t{fmt(bo)}" if bo is not None and k < lm.order
                         else f"{lp}\t{toks}")
    write_lines(path, lines + ["", "\\end\\"])


def _parse_section(path, k: int, lines: list[str]):
    """The k-grams section's entry lines, checked and parsed a column at a
    time: log probabilities, every entry's k tokens in one list, which entries
    carry a backoff weight, and those weights.  The entry rules, in the order
    they are checked: 2 or 3 tab-separated fields, numeric fields, no NaN or
    +inf field, a log10 probability <= 0, and k tokens.  A section that breaks
    one is parsed again an entry at a time, so the first bad entry in file
    order is reported, with the first rule it breaks."""
    if not lines:
        return [], [], [], []
    s = lines[0].strip()  # the entry that a one-entry section's fault quotes
    fields = list(map(str.split, lines, repeat("\t")))
    try:
        if not set(map(len, fields)) <= {2, 3}:
            raise ValueError(f"{k}-gram entry needs 2 or 3 fields: {s!r}")
        lp_col, tok_col, bo_col = (list(zip_longest(*fields)) + [()])[:3]
        has_bo = [x is not None for x in bo_col]
        try:
            with np.errstate(over="ignore"):
                lps = np.array(list(map(float, lp_col))) * _LN10
                weights = np.array(list(map(float, compress(bo_col, has_bo)))) * _LN10
        except ValueError:
            raise ValueError(f"non-numeric field in {k}-gram entry {s!r}") from None
        # -inf is a zero probability or backoff weight; NaN and +inf mean nothing
        if not ((lps < math.inf).all() and (weights < math.inf).all()):
            raise ValueError(f"NaN or +inf field in {k}-gram entry {s!r}")
        # a backoff weight may exceed 1, a probability may not
        if (lps > 0.0).any():
            raise ValueError(f"positive log10 probability in {k}-gram entry {s!r}")
        # a tab never occurs inside a field, so it marks the end of an entry's
        # tokens; every entry has k of them when the marks fall every k + 1
        toks = " \t ".join(tok_col).split(" ")
        if len(toks) != len(lines) * (k + 1) - 1 or \
                toks[k::k + 1].count("\t") != len(lines) - 1:
            raise ValueError(f"{k}-gram entry has {len(toks)} tokens: {s!r}")
    except ValueError as fault:
        if len(lines) == 1:
            raise FormatError(f"{path}: {fault}") from None
        # parsed again an entry at a time, the first entry that breaks a rule raises
        return [sum(col, []) for col in zip(*(_parse_section(path, k, [x]) for x in lines))]
    del toks[k::k + 1]
    return lps.tolist(), toks, has_bo, weights.tolist()


def load_arpa(path) -> NgramLM:
    """Parse ARPA text back into a queryable model whose probability and
    backoff tables answer every query the writing model could.  Sections are
    parsed in bulk, a column at a time.  A malformed file raises FormatError
    at its first fault in this order: the header; then, in file order, the
    section markers and the entries, each entry at the first rule it breaks
    (_parse_section); then the entry counts, the unigram characters, unknown
    tokens, repeated n-grams, and a missing usable symbol."""
    raw = read_lines(path)

    pos = next((i for i, line in enumerate(raw) if line.strip()), len(raw))
    if pos == len(raw) or raw[pos].strip() != "\\data\\":
        raise FormatError(f"{path}: missing \\data\\ header")
    pos += 1
    declared: dict[int, int] = {}
    while pos < len(raw) and raw[pos].strip():
        line = raw[pos].strip()
        try:
            if not line.startswith("ngram "):
                raise ValueError
            k, n = line[len("ngram "):].split("=")
            declared[int(k)] = int(n)
        except ValueError:
            raise FormatError(f"{path}: bad header line {line!r}") from None
        pos += 1
    if not declared or sorted(declared) != list(range(1, max(declared) + 1)):
        raise FormatError(f"{path}: header must declare orders 1..N")
    order = max(declared)

    # the body is cut into blocks at section markers and \end\; a block's
    # non-blank lines are the entries of the section its marker opens
    body = raw[pos:]
    stripped = list(map(str.strip, body))
    cuts = [i for i in compress(count(), map(str.startswith, stripped, repeat("\\")))
            if stripped[i] == "\\end\\" or stripped[i].endswith("-grams:")]
    sections = {}
    k = None
    for lo, hi in zip([-1] + cuts, cuts + [len(body)]):
        if lo >= 0 and stripped[lo] == "\\end\\":
            k = None
        elif lo >= 0:
            s = stripped[lo]
            try:
                k = int(s[1:-len("-grams:")])
            except ValueError:
                raise FormatError(f"{path}: bad section marker {s!r}") from None
            if k not in declared:
                raise FormatError(f"{path}: section {k} was not declared")
            if k in sections:
                raise FormatError(f"{path}: repeated section marker {s!r}")
        lines = list(compress(body[lo + 1:hi], stripped[lo + 1:hi]))
        if k is not None:
            sections[k] = _parse_section(path, k, lines)
        elif lines:
            raise FormatError(f"{path}: entry outside any section: {lines[0].strip()!r}")

    for k in declared:
        got = len(sections[k][0]) if k in sections else 0
        if got != declared[k]:
            raise FormatError(
                f"{path}: {k}-grams section has {got} entries, header declared {declared[k]}")

    chars = set()
    for t in sections.get(1, ((), ()))[1]:
        if t in (BOS_TOKEN, EOS_TOKEN):
            continue
        c = _TOKEN_UNESCAPES.get(t, t)
        if len(c) != 1:
            raise FormatError(f"{path}: unigram token {t!r} is not a single character")
        chars.add(c)
    if not chars:
        raise FormatError(f"{path}: unigram section declares no characters")
    vocab = Vocabulary(chars)

    # every token through one dict, a section at a time
    bos = vocab.bos_id
    ids = {t: i for i, t in enumerate(_tokens(vocab)) if i}
    probs: dict[tuple[int, ...], float] = {}
    backoffs: dict[tuple[int, ...], float] = {}
    for k, (lps, toks, has_bo, weights) in sections.items():
        try:
            grams = list(zip(*[map(ids.__getitem__, toks)] * k))
        except KeyError:
            grams = []
        before = len(probs)
        probs.update(zip(grams, lps))
        if len(probs) - before != len(lps):  # an unknown token or a repeated n-gram
            seen = set()
            for gram in zip(*[iter(toks)] * k):  # the first faulty entry in file order
                if (bad := next((t for t in gram if t not in ids), None)) is not None:
                    raise FormatError(f"{path}: token {bad!r} in the {k}-grams "
                                      "section never appeared as a unigram")
                if gram in seen:
                    raise FormatError(f"{path}: {k}-gram {' '.join(gram)!r} appears twice")
                seen.add(gram)
        backoffs.update(zip(compress(grams, has_bo), weights))
    probs.pop((bos,), None)  # BOS is never predicted; its unigram only carries a backoff

    for c in tuple(range(1, vocab.emit_size)) + (vocab.eos_id,):
        if (c,) not in probs:
            raise FormatError(f"{path}: unigram section is missing a usable symbol")
    return NgramLM(vocab, order, probs, backoffs)
