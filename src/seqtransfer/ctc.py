"""CTC loss, analytic gradients, and greedy decoding.

Posterior matrices are T x L arrays of per-frame log probabilities whose
rows each log-sum-exp to zero.  Label id 0 is the blank.  The loss is the
negative log of the total probability of all frame paths that collapse
(merge adjacent repeats, then delete blanks) to the given labels, and the
gradient is taken with respect to the pre-softmax logits: softmax minus
the alignment posterior, row by row.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .vocab import BLANK_ID

_NEG_INF = -np.inf


def check_posteriors(mat) -> np.ndarray:
    """Validate a T x L log-posterior matrix and return it as an ndarray."""
    m = np.asarray(mat)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 2:
        raise ValueError(f"posterior matrix must be T x L with T >= 1, L >= 2, got {m.shape}")
    if not np.all(np.isfinite(m) | (m == _NEG_INF)):
        raise ValueError("posterior matrix contains NaN or +inf entries")
    with np.errstate(over="ignore"):
        row_mass = np.logaddexp.reduce(m.astype(np.float64), axis=1)
    if np.any(np.abs(row_mass) > 1e-6):
        worst = int(np.argmax(np.abs(row_mass)))
        raise ValueError(f"posterior row {worst} log-sum-exps to {row_mass[worst]:.3g}, not 0")
    return m


def collapse(frame_labels: Sequence[int]) -> tuple[int, ...]:
    """Merge adjacent repeats, then delete blanks."""
    out = []
    prev = None
    for l in frame_labels:
        if l != prev:
            out.append(l)
        prev = l
    return tuple(l for l in out if l != BLANK_ID)


def min_frames(labels: Sequence[int]) -> int:
    """Fewest frames that can realize the labels: one per label plus one
    separating blank per adjacent repeat."""
    reps = sum(1 for a, b in zip(labels, labels[1:]) if a == b)
    return len(labels) + reps


def greedy_decode(posteriors) -> tuple[int, ...]:
    """Collapse of the per-frame argmax; ties go to the lowest label id."""
    m = check_posteriors(posteriors)
    return collapse(np.argmax(m, axis=1).tolist())


def _check_labels(labels: Sequence[int], label_count: int) -> tuple[int, ...]:
    y = tuple(int(l) for l in labels)
    if not y:
        raise ValueError("empty label sequence")
    for l in y:
        if l == BLANK_ID:
            raise ValueError("blank id inside a label sequence")
        if not (0 < l < label_count):
            raise ValueError(f"label id {l} out of range for {label_count} labels")
    return y


def _alpha(em: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Forward log-probabilities over the blank-interleaved sequence z
    (length >= 3), given the T x len(z) emission log-probs em.  Run on the
    time- and label-reversed lattice, this is the backward recursion."""
    T, S = em.shape
    # a diagonal skip s-2 -> s is legal when z[s] is a non-blank that
    # differs from z[s-2]
    skip_ok = (z[2:] != BLANK_ID) & (z[2:] != z[:-2])
    step = np.full(S, _NEG_INF)
    skip = np.full(S, _NEG_INF)
    alpha = np.full((T, S), _NEG_INF)
    alpha[0, :2] = em[0, :2]
    for t in range(1, T):
        prev, row = alpha[t - 1], alpha[t]
        step[1:] = prev[:-1]
        np.copyto(skip[2:], prev[:-2], where=skip_ok)
        np.logaddexp(prev, step, out=row)
        np.logaddexp(row, skip, out=row)
        row += em[t]
    return alpha


def ctc_loss(posteriors, labels: Sequence[int]) -> tuple[float, np.ndarray]:
    """Forward-backward CTC loss and its gradient with respect to logits.

    Returns (loss, grad) with grad shaped like the posterior matrix.
    """
    post = check_posteriors(posteriors).astype(np.float64)
    T, L = post.shape
    y = _check_labels(labels, L)
    if T < min_frames(y):
        raise ValueError(f"{T} frames cannot align {len(y)} labels "
                         f"(need at least {min_frames(y)})")

    # blank-interleaved extended sequence
    z = np.zeros(2 * len(y) + 1, dtype=np.int64)
    z[1::2] = y
    em = post[:, z]  # T x S emission log-probs

    alpha = _alpha(em, z)
    beta = _alpha(em[::-1, ::-1], z[::-1])[::-1, ::-1]
    log_p = np.logaddexp(alpha[T - 1, -1], alpha[T - 1, -2])
    if log_p == _NEG_INF:
        raise ValueError("no feasible alignment has nonzero probability")

    # alignment posterior per label: alpha and beta both include the frame-t
    # emission, so divide one copy back out (zero-probability emissions stay
    # at -inf rather than turning into nan)
    with np.errstate(invalid="ignore"):
        gamma = alpha + beta - em
    gamma[em == _NEG_INF] = _NEG_INF
    grad = np.exp(post)
    for k in set(z.tolist()):
        cols = np.flatnonzero(z == k)
        occ = np.logaddexp.reduce(gamma[:, cols], axis=1)
        grad[:, k] -= np.exp(occ - log_p)

    # the true loss is >= 0; guard against float jitter at the boundary
    return max(0.0, -float(log_p)), grad

