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
stored continuations.  One walk implements the rule for every query, and a
model loaded from its ARPA serialization answers queries identically to
the model that wrote it.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Iterable, Sequence

import numpy as np

from .errors import FormatError
from .vocab import Vocabulary

BOS_TOKEN = "<s>"
EOS_TOKEN = "</s>"
# Single characters that would collide with ARPA field separators.
_CHAR_ESCAPES = {" ": "<sp>", "\t": "<tab>"}
_TOKEN_UNESCAPES = {v: k for k, v in _CHAR_ESCAPES.items()}


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
        self._usable = tuple(range(1, self.vocab.emit_size)) + (self.vocab.eos_id,)
        base = np.full(self.vocab.size, -np.inf)
        for c in self._usable:
            base[c] = self.probs[(c,)]
        self._base = base
        cont: dict[tuple[int, ...], list[tuple[int, float]]] = {}
        for gram, lp in self.probs.items():
            if len(gram) > 1:
                cont.setdefault(gram[:-1], []).append((gram[-1], lp))
        self._cont = cont

    # -- queries ---------------------------------------------------------

    def _check_next(self, next_id: int):
        if next_id == 0 or next_id == self.vocab.bos_id:
            raise ValueError("the blank and BOS ids carry no probability mass")
        if not (1 <= next_id < self.vocab.emit_size or next_id == self.vocab.eos_id):
            raise ValueError(f"id {next_id} is outside the vocabulary")

    def _cond(self, next_id: int, context_ids: Sequence[int]) -> float:
        """Natural-log p(next_id | context_ids), context truncated to order-1."""
        self._check_next(next_id)
        return float(self.next_log_probs(context_ids)[next_id])

    def log_prob(self, context: str, next_char: str) -> float:
        """Natural-log p(next_char | context).

        The context string is read as the whole line so far, so an implicit
        BOS precedes it; passing at least order-1 characters makes the BOS
        fall outside the modelled window.
        """
        ids = (self.vocab.bos_id,) + self.vocab.encode(context)
        return self._cond(self.vocab.id_of(next_char), ids)

    def end_log_prob(self, context: str) -> float:
        """Natural-log probability that the line ends after context."""
        ids = (self.vocab.bos_id,) + self.vocab.encode(context)
        return self._cond(self.vocab.eos_id, ids)

    def next_log_probs(self, context_ids: Sequence[int]) -> np.ndarray:
        """Dense vector of natural-log p(id | context_ids) over the full id
        space.  Blank and BOS entries are -inf.  Callers must not mutate the
        returned array; it may be shared."""
        h = tuple(context_ids)[-(self.order - 1):] if self.order > 1 else ()
        return self._dense(h)

    def _dense(self, h: tuple[int, ...]) -> np.ndarray:
        """The backoff walk: back off to h' at weight gamma(h) (log 1 when
        h stores none), then let h's own continuations override."""
        if not h:
            return self._base
        v = self._dense(h[1:]) + self.backoffs.get(h, 0.0)
        for c, lp in self._cont.get(h, ()):
            v[c] = lp
        return v

    def sequence_log_prob(self, text: str) -> float:
        """Natural-log probability of the full line, terminal EOS included."""
        ids = self.vocab.encode(text)
        ctx = (self.vocab.bos_id,)
        total = 0.0
        for cid in ids:
            total += self._cond(cid, ctx)
            ctx = ctx + (cid,)
        return total + self._cond(self.vocab.eos_id, ctx)


def build_lm(corpus: Iterable[str], order: int, discount: float,
             extra_chars: Iterable[str] = (), vocab: Vocabulary | None = None) -> NgramLM:
    """Count n-grams over the corpus lines and derive the smoothed tables.

    When vocab is given it is fixed: corpus characters outside it are an
    error.  Otherwise the vocabulary is the union of the corpus characters
    and extra_chars.
    """
    lines = list(corpus)
    if not lines:
        raise ValueError("empty corpus")
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if not (0.0 < discount < 1.0):
        raise ValueError(f"discount must be in (0, 1), got {discount}")

    if vocab is None:
        seen = set()
        for line in lines:
            seen.update(line)
        seen.update(extra_chars)
        vocab = Vocabulary(seen)
    else:
        for line in lines:
            for c in line:
                if c not in vocab:
                    raise ValueError(f"corpus character {c!r} is outside the fixed vocabulary")

    bos, eos = vocab.bos_id, vocab.eos_id
    counts: Counter[tuple[int, ...]] = Counter()
    for line in lines:
        ids = (bos,) + vocab.encode(line) + (eos,)
        for i in range(1, len(ids)):  # predicted positions; BOS is context only
            lo = max(0, i - order + 1)
            for j in range(lo, i + 1):
                counts[ids[j:i + 1]] += 1

    # continuation totals and distinct-continuation counts per context
    ctot: Counter[tuple[int, ...]] = Counter()
    distinct: Counter[tuple[int, ...]] = Counter()
    for gram, n in counts.items():
        h = gram[:-1]
        ctot[h] += n
        distinct[h] += 1

    usable = tuple(range(1, vocab.emit_size)) + (eos,)
    base = 1.0 / len(usable)

    # probabilities in plain prob space, lowest order first
    p: dict[tuple[int, ...], float] = {}
    gamma_empty = discount * distinct[()] / ctot[()]
    for c in usable:
        p[(c,)] = max(counts.get((c,), 0) - discount, 0.0) / ctot[()] + gamma_empty * base
    for k in range(2, order + 1):
        for gram, n in counts.items():
            if len(gram) != k:
                continue
            h = gram[:-1]
            g = discount * distinct[h] / ctot[h]
            p[gram] = max(n - discount, 0.0) / ctot[h] + g * p[gram[1:]]

    probs = {gram: math.log(v) for gram, v in p.items()}
    backoffs = {h: math.log(discount * distinct[h] / ctot[h])
                for h in ctot if len(h) >= 1}
    return NgramLM(vocab, order, probs, backoffs)


def perplexity(lm: NgramLM, corpus: Iterable[str]) -> float:
    """exp of the mean negative log probability per predicted token, the
    terminal EOS of each line included."""
    total = 0.0
    tokens = 0
    lines = list(corpus)
    if not lines:
        raise ValueError("empty corpus")
    for line in lines:
        total += lm.sequence_log_prob(line)
        tokens += len(line) + 1
    return math.exp(-total / tokens)


# -- ARPA serialization ---------------------------------------------------

def _token_of(vocab: Vocabulary, i: int) -> str:
    if i == vocab.bos_id:
        return BOS_TOKEN
    if i == vocab.eos_id:
        return EOS_TOKEN
    c = vocab.char_of(i)
    return _CHAR_ESCAPES.get(c, c)


def save_arpa(lm: NgramLM, path) -> None:
    """Write the model as ARPA text: log10 probabilities, tab-separated
    fields, one section per n-gram length up to the model order."""
    by_len: dict[int, list[tuple[int, ...]]] = {k: [] for k in range(1, lm.order + 1)}
    for gram in lm.probs:
        by_len[len(gram)].append(gram)
    # the unigram section also carries BOS so its backoff weight has a home
    ln10 = math.log(10.0)

    def fmt(x: float) -> str:
        return f"{x / ln10:.12g}"

    with open(path, "w", encoding="utf-8") as f:
        f.write("\\data\\\n")
        for k in range(1, lm.order + 1):
            n = len(by_len[k]) + (1 if k == 1 else 0)
            f.write(f"ngram {k}={n}\n")
        for k in range(1, lm.order + 1):
            f.write(f"\n\\{k}-grams:\n")
            grams = sorted(by_len[k])
            if k == 1:
                grams = grams + [(lm.vocab.bos_id,)]
            for gram in grams:
                toks = " ".join(_token_of(lm.vocab, i) for i in gram)
                if gram == (lm.vocab.bos_id,):
                    lp = "-99"  # BOS is never predicted
                else:
                    # rounding in build_lm can leave log p a hair above 0
                    lp = fmt(min(lm.probs[gram], 0.0))
                bo = lm.backoffs.get(gram)
                if bo is not None and k < lm.order:
                    f.write(f"{lp}\t{toks}\t{fmt(bo)}\n")
                else:
                    f.write(f"{lp}\t{toks}\n")
        f.write("\n\\end\\\n")


def load_arpa(path) -> NgramLM:
    """Parse ARPA text back into a queryable model whose probability and
    backoff tables answer every query the writing model could."""
    ln10 = math.log(10.0)
    with open(path, encoding="utf-8") as f:
        raw = [line.rstrip("\n") for line in f]

    pos = 0
    while pos < len(raw) and raw[pos].strip() == "":
        pos += 1
    if pos >= len(raw) or raw[pos].strip() != "\\data\\":
        raise FormatError(f"{path}: missing \\data\\ header")
    pos += 1
    declared: dict[int, int] = {}
    while pos < len(raw) and raw[pos].strip():
        line = raw[pos].strip()
        if not line.startswith("ngram "):
            raise FormatError(f"{path}: bad header line {line!r}")
        try:
            k, n = line[len("ngram "):].split("=")
            declared[int(k)] = int(n)
        except ValueError:
            raise FormatError(f"{path}: bad header line {line!r}") from None
        pos += 1
    if not declared or sorted(declared) != list(range(1, max(declared) + 1)):
        raise FormatError(f"{path}: header must declare orders 1..N")
    order = max(declared)

    # first pass: collect token-form entries per section
    sections: dict[int, list[tuple[float, tuple[str, ...], float | None]]] = {}
    k = None
    for line in raw[pos:]:
        s = line.strip()
        if not s:
            continue
        if s == "\\end\\":
            k = None
            continue
        if s.startswith("\\") and s.endswith("-grams:"):
            try:
                k = int(s[1:-len("-grams:")])
            except ValueError:
                raise FormatError(f"{path}: bad section marker {s!r}") from None
            if k not in declared:
                raise FormatError(f"{path}: section {k} was not declared")
            sections[k] = []
            continue
        if k is None:
            raise FormatError(f"{path}: entry outside any section: {s!r}")
        fields = line.split("\t")
        if len(fields) not in (2, 3):
            raise FormatError(f"{path}: {k}-gram entry needs 2 or 3 fields: {s!r}")
        try:
            lp = float(fields[0]) * ln10
            bo = float(fields[2]) * ln10 if len(fields) == 3 else None
        except ValueError:
            raise FormatError(f"{path}: non-numeric field in {k}-gram entry {s!r}") from None
        # -inf is a zero probability or backoff weight; NaN and +inf mean nothing
        if not all(x < math.inf for x in (lp, bo) if x is not None):
            raise FormatError(f"{path}: NaN or +inf field in {k}-gram entry {s!r}")
        # a backoff weight may exceed 1, a probability may not
        if lp > 0.0:
            raise FormatError(f"{path}: positive log10 probability in {k}-gram entry {s!r}")
        toks = tuple(fields[1].split(" "))
        if len(toks) != k:
            raise FormatError(f"{path}: {k}-gram entry has {len(toks)} tokens: {s!r}")
        sections[k].append((lp, toks, bo))

    for k in declared:
        got = len(sections.get(k, []))
        if got != declared[k]:
            raise FormatError(
                f"{path}: {k}-grams section has {got} entries, header declared {declared[k]}")

    chars = set()
    for lp, toks, bo in sections.get(1, []):
        t = toks[0]
        if t in (BOS_TOKEN, EOS_TOKEN):
            continue
        c = _TOKEN_UNESCAPES.get(t, t)
        if len(c) != 1:
            raise FormatError(f"{path}: unigram token {t!r} is not a single character")
        chars.add(c)
    if not chars:
        raise FormatError(f"{path}: unigram section declares no characters")
    vocab = Vocabulary(chars)

    def id_of_token(t: str, k: int) -> int:
        if t == BOS_TOKEN:
            return vocab.bos_id
        if t == EOS_TOKEN:
            return vocab.eos_id
        c = _TOKEN_UNESCAPES.get(t, t)
        if c not in vocab:
            raise FormatError(f"{path}: token {t!r} in the {k}-grams section "
                              "never appeared as a unigram")
        return vocab.id_of(c)

    probs: dict[tuple[int, ...], float] = {}
    backoffs: dict[tuple[int, ...], float] = {}
    seen: set[tuple[int, ...]] = set()
    for k, entries in sections.items():
        for lp, toks, bo in entries:
            gram = tuple(id_of_token(t, k) for t in toks)
            if gram in seen:
                raise FormatError(f"{path}: {k}-gram {' '.join(toks)!r} appears twice")
            seen.add(gram)
            if not (gram == (vocab.bos_id,) and k == 1):
                probs[gram] = lp
            if bo is not None:
                backoffs[gram] = bo

    for c in tuple(range(1, vocab.emit_size)) + (vocab.eos_id,):
        if (c,) not in probs:
            raise FormatError(f"{path}: unigram section is missing a usable symbol")
    return NgramLM(vocab, order, probs, backoffs)
