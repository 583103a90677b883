"""Prior-scaled, LM-fused CTC prefix beam search (Hannun et al. 2014).

Per frame, every label (blank included) receives the score

    emission_weight * (logpost[t, c] - prior_scale * log prior[c])

so dividing out a power of the label prior converts posteriors into
scaled likelihoods; a label with posterior zero stays at -inf for every
weight.  The character LM adds log p(c | prefix) exactly when a hypothesis
extends by a character, and a terminal EOS factor when the final
hypotheses are ranked.  The LM itself carries weight one; emission_weight
sets the relative weight of the recognizer evidence.  Passing lm=None
treats every character sequence as equally likely, which removes the LM
terms entirely.

Hypotheses live in collapsed-prefix space: per prefix the search keeps
separate log scores for paths ending in blank and in a non-blank.  The
beam is held as arrays (those two scores, the last id and the LM row of
each prefix), so one frame scores all B x (L-1) extensions in one array
expression.  An extension can only coincide with a prefix already in the
beam when it extends that prefix's parent, so each merged score has at most
two log-sum-exp terms.  Survivors are the beam_width best candidates by
(-score, prefix): np.argpartition finds the cutoff score, and only the
candidates tied at the cutoff compare their id sequences.  LM rows are
cached per decode by LM state, the last order-1 ids of BOS + prefix
(as KenLM keys its states), so prefixes sharing a suffix share one query."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .ctc import check_posteriors
from .errors import NumericError
from .ngram_lm import NgramLM
from .vocab import BLANK_ID

_NEG_INF = -np.inf


@dataclass(frozen=True)
class DecoderConfig:
    emission_weight: float = 0.4
    prior_scale: float = 0.5
    beam_width: int = 64
    prior_floor: float = 1e-6

    def __post_init__(self):
        if not (0.0 <= self.emission_weight < np.inf):
            raise ValueError(f"emission_weight must be finite and >= 0, "
                             f"got {self.emission_weight}")
        if not (0.0 <= self.prior_scale < np.inf):
            raise ValueError(f"prior_scale must be finite and >= 0, got {self.prior_scale}")
        if self.beam_width < 1:
            raise ValueError(f"beam_width must be >= 1, got {self.beam_width}")
        if not (0.0 < self.prior_floor < 1.0):
            raise ValueError(f"prior_floor must be in (0, 1), got {self.prior_floor}")


def floor_and_renorm(probs, floor: float) -> np.ndarray:
    p = np.asarray(probs, dtype=np.float64)
    p = np.maximum(p, floor)
    return p / p.sum()


def estimate_priors(posterior_batches: Iterable[np.ndarray],
                    floor: float = DecoderConfig.prior_floor) -> np.ndarray:
    """Mean of exp(log-posterior rows) over every frame of every matrix,
    floored and renormalized."""
    total = None
    frames = 0
    for mat in posterior_batches:
        m = check_posteriors(mat)
        s = np.exp(m.astype(np.float64)).sum(axis=0)
        if total is None:
            total = s
        elif total.shape != s.shape:
            raise ValueError("posterior matrices disagree on label count")
        else:
            total += s
        frames += m.shape[0]
    if total is None or frames == 0:
        raise ValueError("no posterior rows to estimate priors from")
    return floor_and_renorm(total / frames, floor)


def check_priors(priors, label_count: int) -> np.ndarray:
    p = np.asarray(priors, dtype=np.float64)
    if p.shape != (label_count,):
        raise ValueError(f"priors must have shape ({label_count},), got {p.shape}")
    if np.any(p <= 0.0) or abs(p.sum() - 1.0) > 1e-6:
        raise ValueError("priors must be strictly positive and sum to 1")
    return p


def lm_beam_decode(posteriors, lm: NgramLM | None, priors,
                   cfg: DecoderConfig) -> tuple[tuple[int, ...], float]:
    """Decode one posterior matrix.  Returns (character ids, score of the
    winning hypothesis).  Ties in score break toward the lexicographically
    smaller id sequence."""
    post = check_posteriors(posteriors).astype(np.float64)
    T, L = post.shape
    prior = check_priors(priors, L)
    if lm is not None and lm.vocab.emit_size != L:
        raise ValueError(f"posterior matrix has {L} labels but the LM vocabulary "
                         f"has {lm.vocab.emit_size}")

    possible = post > _NEG_INF
    with np.errstate(over="ignore", invalid="ignore"):
        emis = post - cfg.prior_scale * np.log(prior)[None, :]
        # 0 * -inf is NaN: an impossible label stays impossible at every weight
        np.multiply(cfg.emission_weight, emis, out=emis, where=possible)
        if not np.where(possible, np.isfinite(emis), emis == _NEG_INF).all():
            raise NumericError(f"emission_weight {cfg.emission_weight:g} and prior_scale "
                               f"{cfg.prior_scale:g} overflow the scaled emissions")

    if lm is not None:
        bos, keep = lm.vocab.bos_id, lm.order - 1
        lm_cache: dict[tuple[int, ...], np.ndarray] = {}

        def lm_rows(prefixes):
            rows = []
            for prefix in prefixes:
                state = ((bos,) + prefix)[-keep:] if keep else ()
                v = lm_cache.get(state)
                if v is None:
                    v = lm_cache[state] = lm.next_log_probs(state)
                rows.append(v)
            return np.array(rows)

    # the beam: prefixes, log scores of their paths ending in blank (pb) and
    # in a non-blank (pnb), last id (blank for the empty prefix), LM rows
    prefixes: list[tuple[int, ...]] = [()]
    pb, pnb = np.zeros(1), np.full(1, _NEG_INF)
    last = np.zeros(1, dtype=np.intp)
    if lm is not None:
        lm_next = lm_rows(prefixes)
    labels = np.arange(1, L)
    for t in range(T):
        n = len(prefixes)
        tot = np.logaddexp(pb, pnb)
        blank = tot + emis[t, BLANK_ID]
        # repeating the last id keeps the prefix (the empty prefix has pnb = -inf)
        rep = pnb + emis[t, last]
        # extending with the last id needs a blank gap, so only pb counts
        base = np.where(labels == last[:, None], pb[:, None], tot[:, None])
        ext = base + (emis[t, 1:] if lm is None else emis[t, 1:] + lm_next[:, 1:L])
        live = base != _NEG_INF
        # p + (c,) is a prefix already in the beam only when p is its parent;
        # an extension that does not exist is -inf and adds nothing
        index = {p: i for i, p in enumerate(prefixes)}
        kids = [(i, j) for i, p in enumerate(prefixes)
                if p and (j := index.get(p[:-1])) is not None]
        if kids:
            i, j = np.array(kids).T
            rep[i] = np.logaddexp(rep[i], ext[j, last[i] - 1])
            live[j, last[i] - 1] = False

        # candidates: every beam prefix, then every new extension (row j, id c)
        j, c = np.nonzero(live)
        b = np.concatenate([blank, np.full(len(j), _NEG_INF)])
        nb = np.concatenate([rep, ext[j, c]])
        src = np.concatenate([np.arange(n), j])
        ends = np.concatenate([last, c + 1])

        def prefix_of(k):
            return prefixes[src[k]] + ((int(ends[k]),) if k >= n else ())

        chosen = np.arange(len(nb))
        if len(nb) > cfg.beam_width:
            chosen = _best(np.logaddexp(b, nb), cfg.beam_width, prefix_of)
        prefixes = [prefix_of(k) for k in chosen.tolist()]
        pb, pnb, last = b[chosen], nb[chosen], ends[chosen]
        if lm is not None:
            lm_next = lm_rows(prefixes)

    score = np.logaddexp(pb, pnb)
    if lm is not None:
        score = score + lm_next[:, lm.vocab.eos_id]
    k = min(np.flatnonzero(score == score.max()), key=prefixes.__getitem__)
    return prefixes[k], float(score[k])


def _best(score, k: int, prefix_of) -> np.ndarray:
    """Indices of the k best candidates by (-score, prefix).  Only the
    candidates tied at the cutoff score need their prefixes compared."""
    neg = -score
    cut = neg[np.argpartition(neg, k - 1)[k - 1]]
    above = np.flatnonzero(neg < cut)
    tied = np.flatnonzero(neg == cut)
    if len(above) + len(tied) > k:
        tied = sorted(tied, key=prefix_of)[:k - len(above)]
    return np.concatenate([above, tied])
