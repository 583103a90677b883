"""Dual-head CTC training.

train_source runs supervised epochs over labeled data.  hybrid_train
adapts a trained model to an unlabeled target corpus by alternating two
passes: a forward-only pass that re-estimates the label priors from the
model's own posteriors, and a training pass whose minibatches mix labeled
source samples with target samples labeled on the fly by the prior-scaled,
LM-fused beam decoder.  Both losses weight the auxiliary head against the
main head:

    loss = aux_loss_weight * ctc(aux) + (1 - aux_loss_weight) * ctc(main)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .ctc import ctc_loss, greedy_decode, min_frames
from .data import Dataset, Sample
from .decoder import DecoderConfig, estimate_priors, lm_beam_decode
from .errors import NumericError
from .metrics import cer
from .ngram_lm import NgramLM
from .recognizer import Recognizer, backward, forward
from .vocab import Vocabulary


@dataclass(frozen=True)
class AdamConfig:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


class AdamState:
    def __init__(self, params: dict[str, np.ndarray]):
        self.step = 0
        self.m = {k: np.zeros(v.shape) for k, v in params.items()}
        self.v = {k: np.zeros(v.shape) for k, v in params.items()}


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
              state: AdamState, cfg: AdamConfig) -> None:
    """One bias-corrected update, in place."""
    if set(grads) != set(params):
        raise ValueError("gradient names do not match parameter names")
    state.step += 1
    t = state.step
    for name, p in params.items():
        g = np.asarray(grads[name], dtype=np.float64)
        m = state.m[name]
        v = state.v[name]
        m *= cfg.beta1
        m += (1.0 - cfg.beta1) * g
        v *= cfg.beta2
        v += (1.0 - cfg.beta2) * g * g
        mhat = m / (1.0 - cfg.beta1 ** t)
        vhat = v / (1.0 - cfg.beta2 ** t)
        p -= (cfg.lr * mhat / (np.sqrt(vhat) + cfg.eps)).astype(p.dtype)


@dataclass(frozen=True)
class TrainConfig:
    aux_loss_weight: float = 0.25
    batch_size: int = 8
    source_fraction: float = 0.5
    outer_iters: int = 50
    prior_pass_batches: int = 100
    train_pass_batches: int = 100
    epochs: int = 10
    adam: AdamConfig = field(default_factory=AdamConfig)
    seed: int = 0

    def __post_init__(self):
        if not (0.0 <= self.aux_loss_weight <= 1.0):
            raise ValueError("aux_loss_weight must be in [0, 1]")
        if not (0.0 <= self.source_fraction <= 1.0):
            raise ValueError("source_fraction must be in [0, 1]")
        for name in ("batch_size", "outer_iters", "prior_pass_batches",
                     "train_pass_batches", "epochs"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


@dataclass
class MetricsRow:
    iteration: int
    split: str
    loss: float
    cer: float


def write_metrics(rows: Sequence[MetricsRow], path) -> None:
    """Append-only tab-separated log: iteration, split, loss, CER."""
    with open(path, "a", encoding="utf-8") as f:
        for r in rows:
            f.write(f"{r.iteration}\t{r.split}\t{r.loss:.10g}\t{r.cer:.10g}\n")


def composite_loss(model: Recognizer, frames, labels: Sequence[int],
                   aux_loss_weight: float) -> tuple[float, dict[str, np.ndarray]]:
    """Weighted two-head CTC loss for one sample and its parameter gradients."""
    w = aux_loss_weight
    aux, main, cache = forward(model, frames)
    aux_l, aux_g = ctc_loss(aux, labels)
    main_l, main_g = ctc_loss(main, labels)
    loss = w * aux_l + (1.0 - w) * main_l
    grads = backward(model, cache, w * aux_g, (1.0 - w) * main_g)
    return loss, grads


def _usable(frames: np.ndarray, label_ids: tuple[int, ...]) -> bool:
    return len(label_ids) > 0 and frames.shape[0] >= min_frames(label_ids)


def _batch_update(model: Recognizer, batch, cfg: TrainConfig, state: AdamState) -> float:
    """Mean composite loss and gradient over (frames, label_ids) pairs,
    followed by one Adam step."""
    total = None
    loss_sum = 0.0
    for frames, label_ids in batch:
        loss, grads = composite_loss(model, frames, label_ids, cfg.aux_loss_weight)
        loss_sum += loss
        if total is None:
            total = grads
        else:
            for k in total:
                total[k] += grads[k]
    n = len(batch)
    mean_loss = loss_sum / n
    if not math.isfinite(mean_loss):
        raise NumericError(f"non-finite training loss {mean_loss}")
    adam_step(model.params, {k: v / n for k, v in total.items()}, state, cfg.adam)
    return mean_loss


def greedy_eval(model: Recognizer, samples: Sequence[Sample]) -> float:
    """Pooled CER of greedy decodes against the stored transcriptions."""
    refs, hyps = [], []
    for s in samples:
        if s.transcription is None:
            raise ValueError(f"sample {s.sample_id} has no transcription to score against")
        _, main, _ = forward(model, s.frames)
        hyps.append(model.vocab.decode(greedy_decode(main)))
        refs.append(s.transcription)
    return cer(refs, hyps).cer


def _encode_labeled(samples: Sequence[Sample], vocab: Vocabulary):
    items = []
    for s in samples:
        if s.transcription is None:
            raise ValueError(f"sample {s.sample_id} is unlabeled")
        items.append((s.frames, vocab.encode(s.transcription)))
    return items


@dataclass
class TrainResult:
    model: Recognizer
    rows: list[MetricsRow]
    step_losses: list[float]
    skipped: int


def train_source(model: Recognizer, train_set: Dataset, cfg: TrainConfig,
                 val_set: Dataset | None = None) -> TrainResult:
    """Supervised training: epochs of shuffled minibatch updates.

    Samples whose transcription cannot be aligned within their frame count
    are skipped and counted.  Logs one row per epoch per split."""
    labeled = train_set.labeled()
    if not labeled:
        raise ValueError("training set has no labeled samples")
    items = _encode_labeled(labeled, model.vocab)
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 0x5bc)))
    state = AdamState(model.params)
    rows: list[MetricsRow] = []
    step_losses: list[float] = []
    skipped = 0
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(items))
        epoch_losses = []
        for lo in range(0, len(order), cfg.batch_size):
            batch = []
            for idx in order[lo:lo + cfg.batch_size]:
                frames, ids = items[idx]
                if _usable(frames, ids):
                    batch.append((frames, ids))
                else:
                    skipped += 1
            if not batch:
                continue
            loss = _batch_update(model, batch, cfg, state)
            epoch_losses.append(loss)
            step_losses.append(loss)
        mean_loss = float(np.mean(epoch_losses)) if epoch_losses else math.nan
        rows.append(MetricsRow(epoch, "train", mean_loss, greedy_eval(model, labeled)))
        if val_set is not None:
            rows.append(MetricsRow(epoch, "val", math.nan,
                                   greedy_eval(model, val_set.labeled())))
    return TrainResult(model, rows, step_losses, skipped)


def make_pseudo_label(model: Recognizer, frames, lm: NgramLM | None,
                      priors, dcfg: DecoderConfig) -> tuple[int, ...] | None:
    """Beam-decode the main head into a label sequence; None marks an empty
    decode, the signal to leave this sample out of the batch."""
    _, main, _ = forward(model, frames)
    ids, _ = lm_beam_decode(main, lm, priors, dcfg)
    return ids if ids else None


def prior_pass(model: Recognizer, samples: Sequence[Sample], cfg: TrainConfig,
               rng: np.random.Generator, floor: float) -> np.ndarray:
    """Forward-only pass over sampled target minibatches; returns fresh
    label priors and touches no parameter."""
    mats = []
    n = len(samples)
    for _ in range(cfg.prior_pass_batches):
        take = min(cfg.batch_size, n)
        for idx in rng.choice(n, size=take, replace=False):
            _, main, _ = forward(model, samples[idx].frames)
            mats.append(main)
    return estimate_priors(mats, floor=floor)


@dataclass
class HybridResult:
    model: Recognizer
    rows: list[MetricsRow]
    step_losses: list[float]
    prior_history: list[np.ndarray]
    source_only_steps: int
    skipped_decodes: int


def hybrid_train(model: Recognizer, source_set: Dataset, target_set: Dataset,
                 lm: NgramLM | None, cfg: TrainConfig, dcfg: DecoderConfig,
                 val_set: Dataset | None = None) -> HybridResult:
    """Adapt a source-trained model to unlabeled target data.

    Each outer iteration first re-estimates label priors from the model's
    current posteriors on the target data, then runs mixed minibatch
    updates: round(source_fraction * batch_size) ground-truth source
    samples, placed first, and the rest target samples carrying beam
    decodes as pseudo-labels.  Target samples whose decode comes back empty
    are dropped; a step whose target slots all dropped proceeds source-only
    and is counted."""
    src = _encode_labeled(source_set.labeled(), model.vocab)
    tgt = list(target_set.samples)
    if not tgt:
        raise ValueError("target set is empty")
    if lm is not None and lm.vocab != model.vocab:
        raise ValueError("the LM and the model use different vocabularies")
    n_src_per = round(cfg.source_fraction * cfg.batch_size)
    n_tgt_per = cfg.batch_size - n_src_per
    if n_src_per > 0 and not src:
        raise ValueError("source set has no labeled samples")

    # independent streams so source sampling is untouched by how much
    # target work happens
    seq = np.random.SeedSequence((cfg.seed, 0x8d1))
    rng_src, rng_tgt, rng_prior = (np.random.default_rng(s) for s in seq.spawn(3))

    state = AdamState(model.params)
    rows: list[MetricsRow] = []
    step_losses: list[float] = []
    prior_history: list[np.ndarray] = []
    source_only_steps = 0
    skipped_decodes = 0

    for it in range(cfg.outer_iters):
        priors = prior_pass(model, tgt, cfg, rng_prior, dcfg.prior_floor)
        prior_history.append(priors)

        iter_losses = []
        for _ in range(cfg.train_pass_batches):
            batch = []
            if n_src_per > 0:
                take = min(n_src_per, len(src))
                for idx in rng_src.choice(len(src), size=take, replace=False):
                    frames, ids = src[idx]
                    if _usable(frames, ids):
                        batch.append((frames, ids))
            n_from_src = len(batch)
            if n_tgt_per > 0:
                take = min(n_tgt_per, len(tgt))
                for idx in rng_tgt.choice(len(tgt), size=take, replace=False):
                    s = tgt[idx]
                    ids = make_pseudo_label(model, s.frames, lm, priors, dcfg)
                    if ids is None or not _usable(s.frames, ids):
                        skipped_decodes += 1
                        continue
                    batch.append((s.frames, ids))
                if n_from_src and len(batch) == n_from_src:
                    source_only_steps += 1
            if not batch:
                continue
            loss = _batch_update(model, batch, cfg, state)
            iter_losses.append(loss)
            step_losses.append(loss)

        mean_loss = float(np.mean(iter_losses)) if iter_losses else math.nan
        rows.append(MetricsRow(it, "train", mean_loss, math.nan))
        if val_set is not None:
            rows.append(MetricsRow(it, "val", math.nan,
                                   greedy_eval(model, val_set.labeled())))
    return HybridResult(model, rows, step_losses, prior_history,
                        source_only_steps, skipped_decodes)
