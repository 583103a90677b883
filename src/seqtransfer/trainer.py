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

from .ctc import check_labels, ctc_kernel, greedy_kernel, min_frames
from .data import Sample, labeled
from .decoder import DecoderConfig, beam_search, lm_beam_decode, priors_kernel
from .errors import NumericError
from .metrics import cer
from .ngram_lm import NgramLM
from .recognizer import Recognizer, backward, forward_batch, forward_chunks


@dataclass(frozen=True)
class AdamConfig:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        # NaN fails every comparison, so every check rejects it
        for name, ok, bounds in (("lr", 0.0 < self.lr < math.inf, "(0, inf)"),
                                 ("beta1", 0.0 <= self.beta1 < 1.0, "[0, 1)"),
                                 ("beta2", 0.0 <= self.beta2 < 1.0, "[0, 1)"),
                                 ("eps", 0.0 < self.eps < math.inf, "(0, inf)")):
            if not ok:
                raise ValueError(f"{name} must be in {bounds}, got {getattr(self, name)}")


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
    with np.errstate(over="ignore", invalid="ignore"):  # _update reports a non-finite step
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
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


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


def composite_loss(model: Recognizer, aux: list, main: list, cache: dict, labels: Sequence,
                   aux_loss_weight: float) -> tuple[float, dict[str, np.ndarray]]:
    """Mean weighted two-head CTC loss, and its mean parameter gradients, over a
    batch from the (aux, main, cache) forward_batch returned; empties aux and main.
    Labels are checked as ctc_loss checks them; the model's own posteriors are not."""
    w = aux_loss_weight
    n = len(main)
    losses, grads = ctc_kernel(aux + main, check_labels(main, labels) * 2)
    del aux[:], main[:]  # frees the posteriors before backward's peak, whoever holds the lists
    loss = 0.0
    for aux_l, main_l in zip(losses[:n], losses[n:]):
        loss += w * aux_l + (1.0 - w) * main_l
    grads[:n] *= w
    grads[n:] *= 1.0 - w
    total = backward(model, cache, grads[:n], grads[n:])
    for g in total.values():
        g /= n
    return loss / n, total


def _usable(frames: np.ndarray, label_ids: tuple[int, ...]) -> bool:
    return bool(label_ids) and frames.shape[0] >= min_frames(label_ids)


def decode_dataset(model: Recognizer, samples: Sequence[Sample], lm: NgramLM | None = None,
                   dcfgs: Sequence[DecoderConfig] = (DecoderConfig(),)) -> list[list[str]]:
    """Hypothesis texts in sample order, one list per decoder config; beam
    decoding when an LM is present, greedy otherwise.  One forward_chunks pass,
    and the label priors beam decoding estimates from it, serve every config,
    unchecked; the configs share one prior_floor."""
    if lm is not None and lm.vocab != model.vocab:
        raise ValueError("the LM and the model use different vocabularies")
    frames = [s.frames for s in samples]
    if lm is None:
        hyps = forward_chunks(model, frames, each=greedy_kernel)
        return [list(map(model.vocab.decode, hyps))] * len(dcfgs)
    mains = forward_chunks(model, frames)
    priors = priors_kernel(mains, dcfgs[0].prior_floor)
    return [[model.vocab.decode(lm_beam_decode(m, lm, priors, d)[0]) for m in mains]
            for d in dcfgs]


def greedy_eval(model: Recognizer, samples: Sequence[Sample]) -> float:
    """Pooled CER of decode_dataset's greedy decodes against the stored transcriptions."""
    for s in samples:
        if s.transcription is None:
            raise ValueError(f"sample {s.sample_id} has no transcription to score against")
    return cer([s.transcription for s in samples], decode_dataset(model, samples)[0]).cer


@dataclass
class TrainResult:
    rows: list[MetricsRow]
    step_losses: list[float]
    skipped: int


def _rows(it: int, losses: list[float], train_cer: float, model: Recognizer,
          val: list[Sample] | None) -> list[MetricsRow]:
    """An iteration's metrics rows: the train row, then the val row if val is given."""
    rows = [MetricsRow(it, "train", float(np.mean(losses)) if losses else math.nan, train_cer)]
    if val is not None:
        rows.append(MetricsRow(it, "val", math.nan, greedy_eval(model, val)))
    return rows


def _labeled_val(val_set: list[Sample] | None) -> list[Sample] | None:
    val = None if val_set is None else labeled(val_set)
    if val == []:
        raise ValueError("validation set has no labeled samples")
    return val


def train_source(model: Recognizer, train_set: list[Sample], cfg: TrainConfig,
                 val_set: list[Sample] | None = None) -> TrainResult:
    """Supervised training, of model in place: epochs of shuffled minibatch updates.

    Samples whose transcription cannot be aligned within their frame count
    are skipped and counted.  Logs one row per epoch per split."""
    train = labeled(train_set)
    if not train:
        raise ValueError("training set has no labeled samples")
    val = _labeled_val(val_set)
    items = [(s.frames, model.vocab.encode(s.transcription)) for s in train]
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 0x5bc)))
    state = AdamState(model.params)
    rows: list[MetricsRow] = []
    step_losses: list[float] = []
    skipped = 0
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(items))
        epoch_losses = []
        for lo in range(0, len(order), cfg.batch_size):
            batch = [items[i] for i in order[lo:lo + cfg.batch_size]]
            loss, labels = _update(model, batch, cfg, state)
            skipped += labels.count(None)
            if loss is not None:
                epoch_losses.append(loss)
        step_losses += epoch_losses
        rows += _rows(epoch, epoch_losses, greedy_eval(model, train), model, val)
    return TrainResult(rows, step_losses, skipped)


def make_pseudo_label(ids: tuple[int, ...], main) -> tuple[int, ...] | None:
    """A target slot's decode ids if non-empty and fitting the frames of its
    main-head posteriors, else None, the signal to leave the slot out."""
    return ids if _usable(main, ids) else None


def prior_pass(model: Recognizer, samples: Sequence[Sample], cfg: TrainConfig,
               rng: np.random.Generator, floor: float) -> np.ndarray:
    """Forward-only pass over sampled target minibatches, through
    forward_chunks; returns fresh label priors and touches no parameter."""
    n = len(samples)
    drawn = [samples[i].frames for _ in range(cfg.prior_pass_batches)
             for i in rng.choice(n, size=min(cfg.batch_size, n), replace=False)]
    return priors_kernel(forward_chunks(model, drawn), floor)


def _update(model: Recognizer, batch, cfg: TrainConfig, state: AdamState, pseudo=()):
    """One training step on (frames, label ids) slots, and the one gate of
    both loops: one forward over all of them, one beam_search(mains, *pseudo)
    of the slots whose ids are None, each decode judged by make_pseudo_label
    and each given label by _usable, and one Adam step on the slots that
    pass.  Returns the mean loss (None if no slot passes) and each slot's
    label: the ids it trained on, or None for a dropped slot."""
    aux, main, cache = forward_batch(model, [f for f, _ in batch])
    targets = [m for (_, ids), m in zip(batch, main) if ids is None]
    decodes = iter(beam_search(targets, *pseudo) if targets else ())
    labels = [make_pseudo_label(next(decodes)[0], m) if ids is None
              else ids if _usable(m, ids) else None for (_, ids), m in zip(batch, main)]
    keep = [i for i, ids in enumerate(labels) if ids is not None]
    if not keep:
        return None, labels
    # rebinding releases the dropped slots' posteriors and activations before backward
    aux, main, kept = ([x[i] for i in keep] for x in (aux, main, labels))
    cache = {k: [v[i] for i in keep] for k, v in cache.items()}
    loss, grads = composite_loss(model, aux, main, cache, kept, cfg.aux_loss_weight)
    if not math.isfinite(loss):
        raise NumericError(f"non-finite training loss {loss}")
    adam_step(model.params, grads, state, cfg.adam)
    if bad := [k for k, p in model.params.items() if not np.isfinite(p).all()]:
        raise NumericError(f"parameter {bad[0]} went non-finite at step {state.step}")
    return loss, labels


@dataclass
class HybridResult:
    rows: list[MetricsRow]
    step_losses: list[float]
    prior_history: list[np.ndarray]
    source_only_steps: int
    skipped_decodes: int


def hybrid_train(model: Recognizer, source_set: list[Sample], target_set: list[Sample],
                 lm: NgramLM | None, cfg: TrainConfig, dcfg: DecoderConfig,
                 val_set: list[Sample] | None = None) -> HybridResult:
    """Adapt a source-trained model, in place, to unlabeled target data.

    Each outer iteration first re-estimates label priors from the model's
    current posteriors on the target data, then runs mixed minibatch
    updates: round(source_fraction * batch_size) ground-truth source
    samples, placed first, and the rest target samples carrying beam
    decodes as pseudo-labels, read off the step's one forward.  _update
    drops each slot whose label is empty or unalignable; a step whose
    target slots all dropped proceeds source-only and is counted."""
    src = [(s.frames, model.vocab.encode(s.transcription)) for s in labeled(source_set)]
    tgt = list(target_set)
    if not tgt:
        raise ValueError("target set is empty")
    if lm is not None and lm.vocab != model.vocab:
        raise ValueError("the LM and the model use different vocabularies")
    n_src_per = round(cfg.source_fraction * cfg.batch_size)
    n_tgt_per = cfg.batch_size - n_src_per
    if n_src_per > 0 and not src:
        raise ValueError("source set has no labeled samples")
    val = _labeled_val(val_set)

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
            src_picks = rng_src.choice(len(src), size=min(n_src_per, len(src)), replace=False)
            tgt_picks = rng_tgt.choice(len(tgt), size=min(n_tgt_per, len(tgt)), replace=False)
            batch = [src[i] for i in src_picks] + [(tgt[i].frames, None) for i in tgt_picks]
            loss, labels = _update(model, batch, cfg, state, (lm, priors, dcfg))
            dropped = labels[len(src_picks):].count(None)
            skipped_decodes += dropped
            if loss is not None:
                iter_losses.append(loss)
                source_only_steps += 0 < dropped == len(tgt_picks)  # only source slots trained
        step_losses += iter_losses
        rows += _rows(it, iter_losses, math.nan, model, val)
    return HybridResult(rows, step_losses, prior_history, source_only_steps, skipped_decodes)
