"""CTC loss, analytic gradients, and greedy decoding.

Posterior matrices are T x L arrays of per-frame log probabilities whose
rows each log-sum-exp to zero.  Label id 0 is the blank.  The loss is the
negative log of the total probability of all frame paths that collapse
(merge adjacent repeats, then delete blanks) to the given labels, and the
gradient is taken with respect to the pre-softmax logits: softmax minus
the alignment posterior, row by row.  The public functions check a batch
of such matrices in one pass; the loops call their kernels unchecked.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .vocab import BLANK_ID

_NEG_INF = -np.inf


def check_posteriors(mats) -> list[np.ndarray]:
    """Validate T x L log-posterior matrices of one label count L and
    return them as ndarrays.  Every row must be free of NaN and +inf and
    log-sum-exp to 0 within 1e-6; one pass checks the rows of all the
    matrices together."""
    ms = [np.asarray(m) for m in mats]
    for i, m in enumerate(ms):
        if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 2:
            raise ValueError(f"posterior matrix {i} must be T x L with T >= 1, L >= 2, "
                             f"got {m.shape}")
        if m.shape[1] != ms[0].shape[1]:
            raise ValueError(f"posterior matrix {i} has {m.shape[1]} labels, matrix 0 "
                             f"{ms[0].shape[1]}: a batch must be all of one label count")
    if not ms:
        return ms
    # log-sum-exp shifted by the row max: NaN exactly where a row holds NaN
    # or +inf; an all -inf row keeps shift 0 and sums to log 0 = -inf
    rows = np.concatenate(ms, dtype=np.float64)
    top = rows.max(axis=1)
    top[top == _NEG_INF] = 0.0
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        rows -= top[:, None]
        mass = np.log(np.exp(rows, out=rows).sum(axis=1)) + top
    worst = int(np.argmax(np.abs(mass)))  # argmax stops at the first NaN
    if not abs(mass[worst]) <= 1e-6:
        ends = np.cumsum([len(m) for m in ms])
        i = int(np.searchsorted(ends, worst, side="right"))
        where = f"posterior matrix {i} row {worst - ends[i] + len(ms[i])}"
        raise ValueError(f"{where} contains NaN or +inf entries" if np.isnan(mass[worst])
                         else f"{where} log-sum-exps to {mass[worst]:.3g}, not 0")
    return ms


def min_frames(labels: Sequence[int]) -> int:
    """Fewest frames that can realize the labels: one per label plus one
    separating blank per adjacent repeat."""
    reps = sum(1 for a, b in zip(labels, labels[1:]) if a == b)
    return len(labels) + reps


def greedy_decode(mats) -> list[tuple[int, ...]]:
    """greedy_kernel of the checked matrices."""
    return greedy_kernel(check_posteriors(mats))


def greedy_kernel(ms: list) -> list[tuple[int, ...]]:
    """Collapse (merge adjacent repeats, then delete blanks) of each matrix's
    per-frame argmax, ties going to the lowest label id: one argmax over the
    rows of all the matrices, and one pass over those ids for every collapse."""
    if not ms:
        return []
    ends = np.cumsum([len(m) for m in ms])
    best = np.argmax(np.concatenate(ms), axis=1)
    keep = (best != BLANK_ID) & np.r_[True, best[1:] != best[:-1]]
    keep[ends[:-1]] = best[ends[:-1]] != BLANK_ID  # a repeat across two matrices is no repeat
    ids, cuts = best[keep].tolist(), np.r_[0, np.cumsum(keep)[ends - 1]].tolist()
    return [tuple(ids[lo:hi]) for lo, hi in zip(cuts, cuts[1:])]


def _alpha(em: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Forward log-probabilities of a batch of lattices, time-major: em is
    the T x N x S emission log-probs of the N blank-interleaved sequences z
    (N x S, each of length >= 3, padded with blank), -inf past each
    lattice's own frames and labels.  Run on time- and label-reversed
    lattices, this is the backward recursion."""
    T, n, S = em.shape
    # a diagonal skip s-2 -> s is legal when z[s] is a non-blank that
    # differs from z[s-2]
    skip_ok = (z[:, 2:] != BLANK_ID) & (z[:, 2:] != z[:, :-2])
    step = np.full((n, S), _NEG_INF)
    skip = np.full((n, S), _NEG_INF)
    alpha = np.full((T, n, S), _NEG_INF)
    alpha[0, :, :2] = em[0, :, :2]
    for t in range(1, T):
        prev, row = alpha[t - 1], alpha[t]
        step[:, 1:] = prev[:, :-1]
        np.copyto(skip[:, 2:], prev[:, :-2], where=skip_ok)
        np.logaddexp(prev, step, out=row)
        np.logaddexp(row, skip, out=row)
        row += em[t]
    return alpha


def _occupancy(gamma: np.ndarray, z: np.ndarray, label_count: int) -> np.ndarray:
    """T x N x label_count log occupancy of each label: the logaddexp of
    gamma (T x N x S) over the label's positions in z (N x S), in order.
    One position of every lattice at a time, whose labels sit in distinct
    lanes; a padding position is a blank at -inf, which adds nothing."""
    occ = np.full(gamma.shape[:2] + (label_count,), _NEG_INF, dtype=gamma.dtype)
    lanes = np.arange(len(z))
    for s in range(z.shape[1]):
        occ[:, lanes, z[:, s]] = np.logaddexp(occ[:, lanes, z[:, s]], gamma[:, :, s])
    return occ


def ctc_loss(posteriors: Sequence, labels: Sequence[Sequence[int]]
             ) -> tuple[list[float], np.ndarray]:
    """Forward-backward CTC loss of every (posterior matrix, label
    sequence) pair, and its gradient with respect to the logits, in one
    recursion over all their lattices, forward and reversed.  Returns the
    losses and an N x max(T) x L gradient array, zero past each matrix's T
    rows; padding with -inf, which logaddexp passes through exactly, keeps
    every result bit-identical to its batch of one.  ctc_kernel, checked."""
    posts = check_posteriors(posteriors)
    if not posts:
        raise ValueError("a batch needs at least one posterior matrix, all of one label count")
    return ctc_kernel(posts, check_labels(posts, labels))


def check_labels(posts: Sequence, labels: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """The labels as id tuples, each checked against its T x L posterior matrix,
    which goes unchecked: non-empty, non-blank ids below L, and T >= min_frames."""
    ys = []
    for post, lab in zip(posts, labels, strict=True):
        y = tuple(int(l) for l in lab)
        if not y:
            raise ValueError("empty label sequence")
        bad = next((l for l in y if not 0 < l < post.shape[1]), None)  # blank included
        if bad is not None:
            raise ValueError("blank id inside a label sequence" if bad == BLANK_ID else
                             f"label id {bad} out of range for {post.shape[1]} labels")
        if post.shape[0] < min_frames(y):
            raise ValueError(f"{post.shape[0]} frames cannot align {len(y)} labels "
                             f"(need at least {min_frames(y)})")
        ys.append(y)
    return ys


def ctc_kernel(posts: list, ys: Sequence[Sequence[int]]) -> tuple[list[float], np.ndarray]:
    """ctc_loss without its checks: the model's own matrices, and checked labels."""
    n, L = len(posts), posts[0].shape[1]
    T, S = np.array([len(p) for p in posts]), np.array([2 * len(y) + 1 for y in ys])

    # lattice i runs forward over the blank-interleaved labels zz[i];
    # lattice n + i is it reversed in time and label, so that its forward
    # pass is lattice i's backward pass.  em keeps the posteriors' width.
    em = np.full((T.max(), 2 * n, S.max()), _NEG_INF, dtype=np.result_type(np.float32, *posts))
    zz = np.zeros((2 * n, S.max()), dtype=np.int64)
    for i, (post, y) in enumerate(zip(posts, ys)):
        zz[i, 1:S[i]:2] = y
        zz[n + i, :S[i]] = zz[i, S[i] - 1::-1]
        em[:T[i], i, :S[i]] = post[:, zz[i, :S[i]]]
        em[:T[i], n + i, :S[i]] = em[T[i] - 1::-1, i, S[i] - 1::-1]
    alpha = _alpha(em, zz)
    lanes = np.arange(n)
    log_p = np.logaddexp(alpha[T - 1, lanes, S - 1], alpha[T - 1, lanes, S - 2])
    if np.any(log_p == _NEG_INF):
        raise ValueError("no feasible alignment has nonzero probability")

    # alignment posterior per label: alpha and beta (the reversed lattice
    # turned back) both include the frame-t emission, so divide one copy
    # back out; zero-probability emissions stay at -inf rather than nan
    gamma, em = alpha[:, :n], em[:, :n]
    with np.errstate(invalid="ignore"):
        for i in range(n):
            gamma[:T[i], i, :S[i]] += alpha[T[i] - 1::-1, n + i, S[i] - 1::-1]
        gamma -= em
    gamma[em == _NEG_INF] = _NEG_INF
    del em
    occ = _occupancy(gamma, zz[:n], L)
    del alpha, gamma
    occ -= log_p[:, None]
    grads = np.full((n, T.max(), L), _NEG_INF)
    for i, post in enumerate(posts):
        grads[i, :T[i]] = post
    np.exp(grads, out=grads)
    grads -= np.exp(occ, out=occ).transpose(1, 0, 2)

    # the true loss is >= 0; guard against float jitter at the boundary
    return [max(0.0, -float(lp)) for lp in log_p], grads
