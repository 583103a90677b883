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
prefix the same node when it leaves the beam and comes back.  beam_search
steps a batch of matrices in lockstep, longest first; each row has its own
trie root and n beam slots (NaN-scored where it has fewer hypotheses).  A
frame scores every candidate in one flat array of rows x n x L entries:
entry j * L is slot j's prefix itself and entry j * L + c its extension by
id c, NaN where no path reaches it.  An extension can only coincide with a
prefix already in the beam when it extends that prefix's parent, a gather
through the parent ids, so each merged score has at most two log-sum-exp
terms.  Survivors are each row's beam_width best candidates by (-score,
prefix): a row-wise np.partition finds the cutoffs, and only candidates
tied at a cutoff spell out their ids.  An LM state is the last order-1 ids
of BOS + prefix (as KenLM keys its states); each state seen in a batch gets
an id and one row of a table the rows share, so LM rows are one gather.

Where LM rows come from: the table row of a state is a copy of
lm.next_log_probs(state), asked once per state per batch.  The NgramLM
builds the row of each context it stores once and keeps it, so decodes
that share a model share those rows, and a copy costs no backoff walk."""

from __future__ import annotations

import math
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
    """priors_kernel of the checked matrices."""
    return priors_kernel(check_posteriors(posterior_batches), floor)


def priors_kernel(mats: list, floor: float) -> np.ndarray:
    """Mean of exp(log-posterior rows) over every frame of every matrix,
    floored and renormalized."""
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
    """beam_search of one matrix: (character ids, score of the winning hypothesis)."""
    return beam_search([posteriors], lm, priors, cfg)[0]


def beam_search(mats, lm: NgramLM | None, priors,
                cfg: DecoderConfig) -> list[tuple[tuple[int, ...], float]]:
    """Decode matrices of one label count in lockstep: per matrix, in input
    order, (character ids, score of the winning hypothesis), as decoded alone.
    Ties in score break toward the lexicographically smaller id sequence."""
    posts = check_posteriors(mats)
    if not posts:
        return []
    B, L = len(posts), posts[0].shape[1]
    prior = check_priors(priors, L)
    if lm is not None and lm.vocab.emit_size != L:
        raise ValueError(f"posterior matrix has {L} labels but the LM vocabulary "
                         f"has {lm.vocab.emit_size}")

    order = sorted(range(B), key=lambda r: -len(posts[r]))
    Ts = [len(posts[r]) for r in order]
    # frame t of the running rows is emis[t, :k * L]; an ended row reads as
    # impossible labels, which overflow exactly when the real ones do
    emis = np.full((Ts[0], B * L), _NEG_INF)
    for r, i in enumerate(order):
        emis[:Ts[r], r * L:r * L + L] = posts[i]
    possible = emis > _NEG_INF
    with np.errstate(over="ignore", invalid="ignore"):
        emis -= np.tile(cfg.prior_scale * np.log(prior), B)
        # 0 * -inf is NaN: an impossible label stays impossible at every weight
        np.multiply(cfg.emission_weight, emis, out=emis, where=possible)
        if not np.where(possible, np.isfinite(emis), emis == _NEG_INF).all():
            raise NumericError(f"emission_weight {cfg.emission_weight:g} and prior_scale "
                               f"{cfg.prior_scale:g} overflow the scaled emissions")

    # the trie: nodes 0..B-1 are the rows' roots and node B the filler.
    # Per node, info holds its parent node, last id and LM state id; child
    # maps parent * L + id to a node.  info and the LM table double when
    # full; pos, one entry longer, keeps -1 in the entry parent -1 reads
    info = np.empty((B + 64, 3), dtype=np.intp)
    info[:B + 1] = -1, 0, 0
    child: dict[int, int] = {}
    # LM states, their ids, and one LM row per state id: the L emitted ids,
    # with the EOS log probability in column 0, as the blank carries no LM
    # mass and the LM never touches column 0 of a frame's candidates, the
    # unextended prefixes.  Without an LM the one state () has a zero row
    keep, states, table = 0, [()], np.empty((64, L))
    table[0] = 0.0
    if lm is not None:
        keep, cols = lm.order - 1, np.r_[lm.vocab.eos_id, 1:L]
        states = [(lm.vocab.bos_id,) if keep else ()]
        lm.next_log_probs(states[0]).take(cols, out=table[0])
    state_id = {states[0]: 0}

    def node_of(p: int, c: int) -> int:
        nonlocal info, pos, table
        node = child.get(p * L + c)
        if node is None:
            node = child[p * L + c] = len(child) + B + 1
            if node == len(info):
                info = np.concatenate([info, np.empty_like(info)])
                pos = np.full(len(info) + 1, -1, dtype=np.intp)
            state = (states[info[p, 2]] + (c,))[-keep:] if keep else ()
            sid = state_id.setdefault(state, len(states))
            if sid == len(states):
                if sid == len(table):
                    table = np.concatenate([table, np.empty_like(table)])
                lm.next_log_probs(state).take(cols, out=table[sid])
                states.append(state)
            info[node] = p, c, sid
        return node

    def spell(node: int) -> tuple[int, ...]:
        ids = []
        while node > B:
            node, c, _ = info[node].tolist()
            ids.append(c)
        return tuple(ids[::-1])

    # slot r * n + i of the beam of k rows: row r's node and log scores of paths
    # ending in blank (pb) and non-blank (pnb), or node B and NaN; pos: node -> slot
    results: list = [None] * B
    k, n, stale, width = B, 1, True, cfg.beam_width
    nodes, pb, pnb = np.arange(B), np.zeros(B), np.full(B, _NEG_INF)
    pos = np.full(len(info) + 1, -1, dtype=np.intp)
    with np.errstate(invalid="ignore"):  # a filler's NaN scores
        for t in range(Ts[0]):
            m = k * n
            if stale:  # the gathers through the trie, kept while no slot changes
                slots = np.arange(m)
                slots_l, rows_l = slots * L, slots // n * L
                parent, last, sid = info.take(nodes, axis=0).T
                # extension (j, last[i]) is slot i's prefix when j is the slot of
                # i's parent, and -1 (the scratch row) when it is not in the beam
                pos[nodes] = slots
                j = pos[parent]
                pos[nodes] = -1
                merge, jl, own, el = j >= 0, j * L + last, slots_l + last, rows_l + last
                lm_rows = table.take(sid, axis=0).reshape(k, n, L)
            e = emis[t, :k * L]
            tot = np.logaddexp(pb, pnb)
            blank = tot + e[rows_l]
            # repeating the last id keeps the prefix (the empty prefix has pnb = -inf)
            rep = pnb + e[el]
            # candidate (j, c) is slot j's prefix for c = 0, else its extension by
            # c, with non-blank log score live[j, c]: from tot, or from pb when c
            # repeats the last id (a blank gap).  Column 0 is filled last; row m is scratch
            nb = np.empty((m + 1, L))
            live, flat = nb[:m], nb.ravel()
            live[:] = tot[:, None]
            flat[own] = pb
            dead = live == _NEG_INF  # an extension no path reaches
            live += (lm_rows + e.reshape(k, 1, L)).reshape(m, L)
            np.logaddexp(rep, flat[jl], out=rep, where=merge)
            # an extension that does not exist is NaN, and never survives
            live[dead] = np.nan
            flat[jl] = np.nan
            live[:, 0] = rep
            neg = -live.ravel()
            neg[::L] = -np.logaddexp(blank, rep)

            # survivors: each row's beam_width best by (-score, prefix).  NaNs
            # sort last, so a NaN cutoff means every live candidate of its row fits
            kk = min(width, n * L)
            rows = neg.reshape(k, n * L)
            cut = np.partition(rows, kk - 1, axis=1)[:, kk - 1]
            cuts = cut.tolist()
            even = not any(map(math.isnan, cuts))
            if not even:
                cut[np.isnan(cut)] = np.inf
            chosen = (rows <= cut[:, None]).ravel().nonzero()[0]
            fast = even and len(chosen) == k * kk  # kk survivors in every row
            if not fast:  # short rows, or ties at a cutoff
                parts = np.split(chosen, np.searchsorted(chosen, np.arange(1, k) * (n * L)))
                for r, part in enumerate(parts):
                    if len(part) > width:  # only the tied candidates compare prefixes
                        tied = part[neg[part] == cuts[r]].tolist()
                        tied.sort(key=lambda x: spell(nodes[x // L]) + ((x % L,) if x % L else ()))
                        parts[r] = np.concatenate([part[neg[part] < cuts[r]], tied])[:width]
                chosen, counts = np.concatenate(parts), [len(part) for part in parts]
            src, c = np.divmod(chosen, L)
            nodes, grown = nodes[src], c.nonzero()[0]
            pb, pnb = blank[src], live.ravel()[chosen]
            stale = not fast or len(chosen) != m or len(grown) > 0
            if len(grown):
                pb[grown] = _NEG_INF
                nodes[grown] = [node_of(p, x)
                                for p, x in zip(nodes[grown].tolist(), c[grown].tolist())]
            n = kk if fast else max(counts)
            if not fast:  # each row's survivors, then fillers
                at = np.concatenate([r * n + np.arange(x) for r, x in enumerate(counts)])
                spread = np.full((3, k * n), np.nan)
                spread[0], spread[:, at] = B, (nodes, pb, pnb)
                nodes, pb, pnb = spread[0].astype(np.intp), spread[1], spread[2]
            while k and Ts[k - 1] == t + 1:  # row k - 1 has ended: rank its beam
                k, stale = k - 1, True
                row = nodes[k * n:]
                sc = np.logaddexp(pb[k * n:], pnb[k * n:]) + table[info[row, 2], 0]
                i = min(np.flatnonzero(sc == np.nanmax(sc)).tolist(), key=lambda x: spell(row[x]))
                results[order[k]] = spell(row[i]), float(sc[i])
                nodes, pb, pnb = nodes[:k * n], pb[:k * n], pnb[:k * n]
    return results
