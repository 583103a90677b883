"""Shared helpers for the test suite."""

import itertools
import math

import numpy as np
import pytest

from seqtransfer import collapse


def random_log_posteriors(rng: np.random.Generator, T: int, L: int) -> np.ndarray:
    """Random T x L log-posterior matrix with exactly normalized rows."""
    logits = rng.normal(0.0, 2.0, (T, L))
    return logits - np.logaddexp.reduce(logits, axis=1, keepdims=True)


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


def oracle_best(post, lm, priors, w, alpha):
    """Exhaustive decoder objective: path enumeration grouped by collapse,
    plus per-character and terminal LM factors."""
    T, L = post.shape
    emis = w * (post - alpha * np.log(np.asarray(priors))[None, :])
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


@pytest.fixture
def rng():
    return np.random.default_rng(0)
