"""Shared helpers for the test suite."""

import itertools
import math

import numpy as np
import pytest

from seqtransfer import (BLANK_ID, AdamState, adam_step, backward, ctc_loss, estimate_priors,
                         forward, forward_batch, labeled, lm_beam_decode, min_frames)
from seqtransfer.synth_data import DROP_PROB, DUP_PROB


# A complete 1-grams section, a 2-grams section, then a second complete
# 1-grams section with other probabilities: a repeated section marker.
REPEATED_SECTION_ARPA = """\\data\\
ngram 1=4
ngram 2=1

\\1-grams:
-0.1\ta
-0.2\tb
-0.3\t</s>
-99\t<s>\t-0.3

\\2-grams:
-0.2\ta b

\\1-grams:
-0.5\ta
-0.6\tb
-0.7\t</s>
-99\t<s>\t-0.3

\\end\\
"""


def collapse(frame_labels) -> tuple[int, ...]:
    """Merge adjacent repeats, then delete blanks, one frame label at a
    time: the oracle for ctc.greedy_kernel's one array pass."""
    out = []
    prev = None
    for l in frame_labels:
        if l != prev:
            out.append(l)
        prev = l
    return tuple(l for l in out if l != BLANK_ID)


def random_log_posteriors(rng: np.random.Generator, T: int, L: int) -> np.ndarray:
    """Random T x L log-posterior matrix with exactly normalized rows."""
    logits = rng.normal(0.0, 2.0, (T, L))
    return logits - np.logaddexp.reduce(logits, axis=1, keepdims=True)


def uniform_priors(label_count: int) -> np.ndarray:
    if label_count < 2:
        raise ValueError("need at least blank plus one character")
    return np.full(label_count, 1.0 / label_count)


def sample_text_reference(spec, length, rng) -> str:
    """The oracle for synth_data.sample_text: one rng.choice per character,
    which validates its row and takes a fresh cumulative sum every time."""
    n = len(spec.chars)
    out = [int(rng.choice(n, p=spec.start))]
    for _ in range(length - 1):
        out.append(int(rng.choice(n, p=spec.trans[out[-1]])))
    return "".join(spec.chars[i] for i in out)


def render_reference(text, spec, rng) -> np.ndarray:
    """The oracle for synth_data.render with stretching: one rng.random()
    per prototype row, which is doubled, dropped or kept in a Python loop."""
    chunks = []
    for c in text:
        proto = spec.prototypes[c]
        rows = []
        for row in proto:
            u = rng.random()
            if u < DUP_PROB:
                rows.append(row)
                rows.append(row)
            elif u < DUP_PROB + DROP_PROB:
                continue
            else:
                rows.append(row)
        if not rows:  # never drop a character entirely
            rows.append(proto[0])
        chunks.append(np.stack(rows))
    frames = np.concatenate(chunks, axis=0)
    frames = frames @ spec.style_matrix.T + spec.style_bias
    if spec.noise_sigma > 0:
        frames = frames + rng.normal(0.0, spec.noise_sigma, frames.shape)
    return frames.astype(np.float32)


def check_posteriors_reference(mat) -> np.ndarray:
    """The posterior check one matrix at a time, with a sequential
    np.logaddexp.reduce for each row's mass: the oracle for
    check_posteriors."""
    m = np.asarray(mat)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 2:
        raise ValueError(f"posterior matrix must be T x L with T >= 1, L >= 2, got {m.shape}")
    if not np.all(np.isfinite(m) | (m == -np.inf)):
        raise ValueError("posterior matrix contains NaN or +inf entries")
    with np.errstate(over="ignore"):
        row_mass = np.logaddexp.reduce(m.astype(np.float64), axis=1)
    if np.any(np.abs(row_mass) > 1e-6):
        raise ValueError("posterior row does not log-sum-exp to 0")
    return m


def occupancy_reference(gamma, z, label_count) -> np.ndarray:
    """Label occupancy by one unbuffered np.logaddexp.at over every
    (frame, lattice, position) of gamma: the oracle for ctc._occupancy."""
    occ = np.full(gamma.shape[:2] + (label_count,), -np.inf, dtype=gamma.dtype)
    np.logaddexp.at(occ, (slice(None), np.arange(len(z))[:, None], z), gamma)
    return occ


def _pad_reference(rows, dtype) -> np.ndarray:
    out = np.zeros((max(map(len, rows)), len(rows), 1, rows[0].shape[1]), dtype=dtype)
    for b, r in enumerate(rows):
        out[:len(r), b, 0] = r
    return out


def scan_reference(drives, u) -> list:
    """One tanh recurrence s_i = tanh(drive_i + u s_{i-1}) over every
    sample's drive, stacked as (B, 1, R) @ (R, R) matvecs: the oracle that
    runs each of recognizer._scan's two recurrences on its own."""
    drive = _pad_reference(drives, drives[0].dtype)
    states = np.empty_like(drive)
    state, ut = np.zeros_like(drive[0]), u.T
    for i in range(len(drive)):
        state = np.tanh(drive[i] + state @ ut, out=states[i])
    return [states[:len(d), b, 0] for b, d in enumerate(drives)]


def scan_grad_reference(grads, states, u) -> list:
    """Backpropagation through one scan_reference recurrence, in float64:
    from each sample's loss gradient reaching its states from outside, in
    scan order, the gradient reaching each drive, laid out the same.  The
    oracle that runs each of recognizer._scan_grad's two recurrences on its
    own."""
    deltas = _pad_reference([g[::-1] for g in grads], np.float64)
    keep = _pad_reference([1.0 - s[::-1].astype(np.float64) ** 2 for s in states], np.float64)
    carry = np.zeros_like(keep[0])
    for i in range(len(keep)):
        deltas[i] += carry
        deltas[i] *= keep[i]
        carry = deltas[i] @ u
    return [deltas[len(s) - 1::-1, b, 0] for b, s in enumerate(states)]


def ctc_loss_bruteforce(post, labels) -> float:
    """Reference CTC loss by explicit path enumeration.

    Returns +inf when no path collapses to the labels.  Requires
    L ** T <= 1e6.
    """
    post = np.asarray(post, dtype=np.float64)
    T, L = post.shape
    if L ** T > 1e6:
        raise ValueError(f"{L}^{T} paths is past the enumeration limit")
    want = tuple(labels)
    total = -math.inf
    for path in itertools.product(range(L), repeat=T):
        if collapse(path) == want:
            total = np.logaddexp(total, sum(post[t, c] for t, c in enumerate(path)))
    if total == -math.inf:
        return math.inf
    return max(0.0, -float(total))


def edit_distance_reference(a: str, b: str) -> int:
    """Levenshtein distance by the textbook O(|a| * |b|) dynamic program,
    one table row at a time."""
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i] + [0] * len(b)
        for j, cb in enumerate(b, start=1):
            cur[j] = min(prev[j] + 1,
                         cur[j - 1] + 1,
                         prev[j - 1] + (ca != cb))
        prev = cur
    return prev[len(b)]


def arpa_cond_reference(lm, next_id, context_ids) -> float:
    """Natural-log p(next_id | context_ids) by the ARPA backoff rule, one
    scalar lookup at a time and independent of NgramLM's own walk: the
    longest stored n-gram h[i:] + (next_id,) answers, plus the backoff
    weights of the longer contexts h[j:], j < i, that were passed on the way
    (a missing weight counts as log 1)."""
    h = tuple(context_ids)[-(lm.order - 1):] if lm.order > 1 else ()
    acc = 0.0
    for start in range(len(h) + 1):
        sub = h[start:]
        lp = lm.probs.get(sub + (next_id,))
        if lp is not None:
            return acc + lp
        acc += lm.backoffs.get(sub, 0.0)
    raise AssertionError("unigram table is complete for usable ids")


def scaled_emissions(post, priors, w, alpha):
    """w * (log posterior - alpha * log prior), with a -inf posterior kept
    at -inf for every w >= 0 (the w -> 0+ limit; 0 * -inf would be NaN)."""
    post = np.asarray(post, dtype=np.float64)
    scaled = post - alpha * np.log(np.asarray(priors))[None, :]
    with np.errstate(invalid="ignore"):
        return np.where(post == -math.inf, -math.inf, w * scaled)


def oracle_best(post, lm, priors, w, alpha):
    """Exhaustive decoder objective: path enumeration grouped by collapse,
    plus per-character and terminal LM factors."""
    T, L = post.shape
    emis = scaled_emissions(post, priors, w, alpha)
    scores = {}
    for path in itertools.product(range(L), repeat=T):
        seq = collapse(path)
        s = float(sum(emis[t, c] for t, c in enumerate(path)))
        scores[seq] = np.logaddexp(scores.get(seq, -math.inf), s)
    if lm is not None:
        bos = lm.vocab.bos_id
        for seq in scores:
            ctx = (bos,) + seq
            lm_score = sum(arpa_cond_reference(lm, c, ctx[:i + 1])
                           for i, c in enumerate(seq))
            scores[seq] += lm_score + arpa_cond_reference(lm, lm.vocab.eos_id, ctx)
    return min(scores.items(), key=lambda kv: (-kv[1], kv[0]))


def beam_decode_reference(post, lm, priors, cfg):
    """Scalar prefix beam search with lm_beam_decode's objective, tie rule
    and return value: one dict cell per prefix, one np.logaddexp call per
    contribution, and a full sort of the candidates by (-score, prefix) at
    every frame.  It shares none of lm_beam_decode's array bookkeeping, so
    the tests can require exact equality with it."""
    post = np.asarray(post, dtype=np.float64)
    T, L = post.shape
    emis = scaled_emissions(post, priors, cfg.emission_weight, cfg.prior_scale)

    lm_cache = {}

    def lm_vec(prefix):
        if lm is None:
            return None
        v = lm_cache.get(prefix)
        if v is None:
            v = lm_cache[prefix] = lm.next_log_probs((lm.vocab.bos_id,) + prefix)
        return v

    # per prefix: [log score of paths ending in blank, ending in non-blank]
    beams = {(): [0.0, -math.inf]}
    for t in range(T):
        nxt = {}

        def bump(prefix, idx, val):
            cell = nxt.setdefault(prefix, [-math.inf, -math.inf])
            cell[idx] = np.logaddexp(cell[idx], val)

        for prefix, (pb, pnb) in beams.items():
            tot = np.logaddexp(pb, pnb)
            bump(prefix, 0, tot + emis[t, BLANK_ID])
            if prefix:
                bump(prefix, 1, pnb + emis[t, prefix[-1]])
            vec = lm_vec(prefix)
            cand = emis[t, 1:] if vec is None else emis[t, 1:] + vec[1:L]
            for c in range(1, L):
                base = pb if (prefix and c == prefix[-1]) else tot
                if base == -math.inf:
                    continue
                bump(prefix + (c,), 1, base + cand[c - 1])
        if len(nxt) > cfg.beam_width:
            ranked = sorted(nxt.items(),
                            key=lambda kv: (-np.logaddexp(kv[1][0], kv[1][1]), kv[0]))
            nxt = dict(ranked[:cfg.beam_width])
        beams = nxt

    best_prefix, best_score = None, None
    for prefix, (pb, pnb) in beams.items():
        score = np.logaddexp(pb, pnb)
        vec = lm_vec(prefix)
        if vec is not None:
            score += vec[lm.vocab.eos_id]
        if best_score is None or score > best_score or \
                (score == best_score and prefix < best_prefix):
            best_prefix, best_score = prefix, score
    return best_prefix, float(best_score)


def prior_pass_reference(model, samples, cfg, rng, floor):
    """prior_pass with one forward_batch per sampled minibatch, in draw
    order: the oracle for the length-sorted chunked prior pass."""
    mats = []
    n = len(samples)
    for _ in range(cfg.prior_pass_batches):
        idx = rng.choice(n, size=min(cfg.batch_size, n), replace=False)
        mats += forward_batch(model, [samples[i].frames for i in idx], aux=False)[1]
    return estimate_priors(mats, floor=floor)


def composite_loss_reference(model, frames, labels, aux_loss_weight):
    """composite_loss when it forwarded its own batch of frame matrices."""
    w, n = aux_loss_weight, len(frames)
    aux, main, cache = forward_batch(model, frames)
    losses, grads = ctc_loss(aux + main, list(labels) * 2)
    loss = 0.0
    for aux_l, main_l in zip(losses[:n], losses[n:]):
        loss += w * aux_l + (1.0 - w) * main_l
    grads[:n] *= w
    grads[n:] *= 1.0 - w
    total = backward(model, cache, grads[:n], grads[n:])
    for g in total.values():
        g /= n
    return loss / n, total


def hybrid_train_reference(model, source_set, target_set, lm, cfg, dcfg,
                           decode=lm_beam_decode):
    """hybrid_train with two forwards per target slot: each target sample is
    forwarded alone to be pseudo-labeled by decode, and the kept slots are
    forwarded again, as a batch, for the update.  Same seeds and draws as
    hybrid_train.  Returns (step_losses, prior_history, source_only_steps,
    skipped_decodes); trains model in place.  The oracle for the one-forward
    hybrid step."""
    def usable(frames, ids):
        return len(ids) > 0 and frames.shape[0] >= min_frames(ids)

    src = [(s.frames, model.vocab.encode(s.transcription)) for s in labeled(source_set)]
    tgt = list(target_set)
    n_src_per = round(cfg.source_fraction * cfg.batch_size)
    n_tgt_per = cfg.batch_size - n_src_per
    seq = np.random.SeedSequence((cfg.seed, 0x8d1))
    rng_src, rng_tgt, rng_prior = (np.random.default_rng(s) for s in seq.spawn(3))
    state = AdamState(model.params)
    step_losses, prior_history = [], []
    source_only_steps = skipped_decodes = 0
    for _ in range(cfg.outer_iters):
        priors = prior_pass_reference(model, tgt, cfg, rng_prior, dcfg.prior_floor)
        prior_history.append(priors)
        for _ in range(cfg.train_pass_batches):
            batch = []
            if n_src_per > 0:
                take = min(n_src_per, len(src))
                for idx in rng_src.choice(len(src), size=take, replace=False):
                    frames, ids = src[idx]
                    if usable(frames, ids):
                        batch.append((frames, ids))
            n_from_src = len(batch)
            if n_tgt_per > 0:
                take = min(n_tgt_per, len(tgt))
                for idx in rng_tgt.choice(len(tgt), size=take, replace=False):
                    frames = tgt[idx].frames
                    ids, _ = decode(forward(model, frames)[1], lm, priors, dcfg)
                    if not ids or not usable(frames, ids):
                        skipped_decodes += 1
                        continue
                    batch.append((frames, ids))
                if n_from_src and len(batch) == n_from_src:
                    source_only_steps += 1
            if not batch:
                continue
            frames, ids = zip(*batch)
            loss, grads = composite_loss_reference(model, list(frames), ids,
                                                   cfg.aux_loss_weight)
            adam_step(model.params, grads, state, cfg.adam)
            step_losses.append(loss)
    return step_losses, prior_history, source_only_steps, skipped_decodes


@pytest.fixture
def rng():
    return np.random.default_rng(0)
