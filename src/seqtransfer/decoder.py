"""Prior-scaled, LM-fused CTC prefix beam search (Hannun et al. 2014).

Per frame, every label (blank included) receives the score

    emission_weight * (logpost[t, c] - prior_scale * log prior[c])

so dividing out a power of the label prior converts posteriors into
scaled likelihoods; a label with posterior zero stays at -inf for every
weight.  The character LM adds log p(c | prefix) exactly when a hypothesis
extends by a character, and a terminal EOS factor when the final
hypotheses are ranked.  The LM itself carries weight one; emission_weight
sets the relative weight of the recognizer evidence.  Passing lm=None
treats every character sequence as equally likely: the same search runs
with one LM state, whose row is all zeros.

Hypotheses live in collapsed-prefix space: per prefix the search keeps
separate log scores for paths ending in blank and in a non-blank.  A
prefix is an integer node of a trie built during the decode, which stores
each node's parent, last id and LM state id; a (parent, id) dict gives a
prefix the same node when it leaves the beam and comes back.  The beam is
three arrays: node ids and the two scores.  One frame scores every
candidate in one flat array of n x L entries: entry j * L is beam prefix j
itself and entry j * L + c its extension by id c, NaN where no path
reaches it.  An extension can only coincide with a prefix already in the
beam when it extends that prefix's parent, a gather through the parent
ids, so each merged score has at most two log-sum-exp terms.  Survivors
are the beam_width best candidates by (-score, prefix): np.partition finds
the cutoff score, and only the candidates tied at the cutoff spell out
their id sequences.  An LM state is the last order-1 ids of BOS + prefix
(as KenLM keys its states); each state seen in a decode gets an id and one
row of a table, so the beam's LM rows are one gather.

Where LM rows come from: the table row of a state is a copy of
lm.next_log_probs(state), asked once per state per decode.  The NgramLM
builds the row of each context it stores once and keeps it, so decodes
that share a model share those rows, and a copy costs no backoff walk."""

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
    mats = check_posteriors(posterior_batches)
    if not mats:
        raise ValueError("no posterior rows to estimate priors from")
    total = sum(np.exp(m.astype(np.float64)).sum(axis=0) for m in mats)
    return floor_and_renorm(total / sum(len(m) for m in mats), floor)


def check_priors(priors, label_count: int) -> np.ndarray:
    p = np.asarray(priors, dtype=np.float64)
    if p.shape != (label_count,):
        raise ValueError(f"priors must have shape ({label_count},), got {p.shape}")
    if not ((p > 0.0).all() and abs(p.sum() - 1.0) <= 1e-6):  # NaN fails both
        raise ValueError("priors must be strictly positive and sum to 1")
    return p


def lm_beam_decode(posteriors, lm: NgramLM | None, priors,
                   cfg: DecoderConfig) -> tuple[tuple[int, ...], float]:
    """Decode one posterior matrix.  Returns (character ids, score of the
    winning hypothesis).  Ties in score break toward the lexicographically
    smaller id sequence."""
    post = check_posteriors([posteriors])[0].astype(np.float64)
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

    # the trie: node 0 is the empty prefix.  Per node, info holds its
    # parent node, last id and LM state id; child maps parent * L + id to a
    # node, so a prefix that leaves the beam and comes back keeps its node.
    # A frame adds one node per surviving extension, at most beam_width and
    # fewer than L ** T, and each node adds at most one LM state, so T times
    # that plus the root bounds both; pos gets one more entry, which the
    # empty prefix's parent -1 reads
    size = T * min(cfg.beam_width, L ** T) + 2
    info = np.empty((size, 3), dtype=np.intp)
    info[0] = -1, 0, 0
    child: dict[int, int] = {}
    # LM states, their ids, and one LM row per state id.  A row keeps the L
    # emitted ids, with the EOS log probability in column 0: the blank
    # carries no LM mass, and column 0 of a frame's candidates is the
    # unextended prefix, whose score the LM never touches.  Without an LM
    # the one state () has an all-zero row
    keep, states, table = 0, [()], np.empty((size, L))
    table[0] = 0.0
    if lm is not None:
        keep, cols = lm.order - 1, np.r_[lm.vocab.eos_id, 1:L]
        states = [(lm.vocab.bos_id,) if keep else ()]
        lm.next_log_probs(states[0]).take(cols, out=table[0])
    state_id = {states[0]: 0}

    def node_of(p: int, c: int) -> int:
        node = child.get(p * L + c)
        if node is None:
            node = child[p * L + c] = len(child) + 1
            state = (states[info[p, 2]] + (c,))[-keep:] if keep else ()
            sid = state_id.setdefault(state, len(states))
            if sid == len(states):
                lm.next_log_probs(state).take(cols, out=table[sid])
                states.append(state)
            info[node] = p, c, sid
        return node

    def spell(node: int) -> tuple[int, ...]:
        ids = []
        while node:
            node, c, _ = info[node].tolist()
            ids.append(c)
        return tuple(ids[::-1])

    # the beam: node ids, and log scores of their paths ending in blank (pb)
    # and in a non-blank (pnb).  pos maps a node to its beam slot during a
    # frame and is -1 elsewhere, in the last entry too
    nodes = np.zeros(1, dtype=np.intp)
    pb, pnb = np.zeros(1), np.full(1, _NEG_INF)
    pos = np.full(size, -1, dtype=np.intp)
    width = cfg.beam_width
    for t in range(T):
        n = len(nodes)
        slots = np.arange(n)
        parent, last, sid = info.take(nodes, axis=0).T
        tot = np.logaddexp(pb, pnb)
        blank = tot + emis[t, BLANK_ID]
        # repeating the last id keeps the prefix (the empty prefix has pnb = -inf)
        rep = pnb + emis[t, last]
        # candidate (j, c) is beam prefix j itself for c = 0 and its extension
        # by id c otherwise; live holds its non-blank log score.  An extension
        # starts from tot, or from pb when c repeats the last id, which needs
        # a blank gap.  Column 0 is filled last.  Row n of nb is scratch
        nb = np.empty((n + 1, L))
        live = nb[:n]
        live[:] = tot[:, None]
        live[slots, last] = pb
        dead = live == _NEG_INF  # an extension no path reaches
        add = table.take(sid, axis=0)
        add += emis[t]
        live += add
        # extension (j, last[i]) is beam prefix i when j is the beam slot of
        # i's parent, and -1 (the scratch row) when the parent is not in the beam
        pos[nodes] = slots
        j = pos[parent]
        pos[nodes] = -1
        np.logaddexp(rep, nb[j, last], out=rep, where=j >= 0)
        # an extension that does not exist is NaN, and never survives
        live[dead] = np.nan
        nb[j, last] = np.nan
        live[:, 0] = rep
        neg = -live.ravel()
        neg[::L] = -np.logaddexp(blank, rep)

        # survivors: the beam_width best by (-score, prefix)
        k = min(width, len(neg))
        cut = np.partition(neg, k - 1)[k - 1]
        # NaNs sort last, so a NaN cutoff means every live candidate fits
        chosen = (neg <= cut if cut == cut else neg == neg).nonzero()[0]
        if len(chosen) > width:  # only the candidates tied at the cutoff compare prefixes
            tied = chosen[neg[chosen] == cut].tolist()
            tied.sort(key=lambda x: spell(nodes[x // L]) + ((x % L,) if x % L else ()))
            chosen = np.concatenate([chosen[neg[chosen] < cut], tied])[:width]
        src, c = np.divmod(chosen, L)
        nodes, grown = nodes[src], c.nonzero()[0]
        pb, pnb = blank[src], live.ravel()[chosen]
        if not len(grown):
            continue
        pb[grown] = _NEG_INF
        nodes[grown] = [node_of(p, x) for p, x in zip(nodes[grown].tolist(), c[grown].tolist())]

    score = np.logaddexp(pb, pnb) + table[info[nodes, 2], 0]
    k = min(np.flatnonzero(score == score.max()).tolist(), key=lambda x: spell(nodes[x]))
    return spell(nodes[k]), float(score[k])
