"""Dual-head frame-sequence recognizer.

Each frame is seen through a zero-padded context window of 2r+1 frames,
mapped by a tanh feature layer to h_t.  The auxiliary head classifies each
h_t on its own, so it only ever uses local evidence.  The main head reads
the concatenation of a forward and a backward tanh recurrence over the
h_t, so either end of the sequence can influence any frame.  Both heads
emit log-softmax posteriors over the label set (blank at id 0, characters
after it).

All math is plain numpy; backward() implements reverse-mode gradients by
hand and returns one array per named parameter.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import check_frames
from .errors import FormatError
from .vocab import Vocabulary

CHECKPOINT_MAGIC = b"SEQREC1\x00"
# magic, input_dim, context_radius, feature_dim, recurrent_dim, label_count,
# seed, byte length of the vocabulary block
CHECKPOINT_HEADER = struct.Struct("<8s5IQI")
FORWARD_CHUNK = 32  # forward_chunks' chunk size


@dataclass(frozen=True)
class RecognizerConfig:
    label_count: int
    input_dim: int
    context_radius: int = 2
    feature_dim: int = 64
    recurrent_dim: int = 32
    seed: int = 0

    def __post_init__(self):
        for name in ("label_count", "input_dim", "feature_dim", "recurrent_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.context_radius < 0:
            raise ValueError("context_radius must be >= 0")
        if self.label_count < 2:
            raise ValueError("label_count must cover blank plus at least one character")
        if not (0 <= self.seed < 2 ** 64):
            raise ValueError("seed must fit in an unsigned 64-bit integer")


def param_shapes(cfg: RecognizerConfig) -> dict[str, tuple[int, ...]]:
    d, r = cfg.input_dim, cfg.context_radius
    h, rd, l = cfg.feature_dim, cfg.recurrent_dim, cfg.label_count
    win = (2 * r + 1) * d
    return {
        "feat_w": (h, win), "feat_b": (h,),
        "fwd_w": (rd, h), "fwd_u": (rd, rd), "fwd_b": (rd,),
        "bwd_w": (rd, h), "bwd_u": (rd, rd), "bwd_b": (rd,),
        "aux_w": (l, h), "aux_b": (l,),
        "main_w": (l, 2 * rd), "main_b": (l,),
    }


class Recognizer:
    def __init__(self, cfg: RecognizerConfig, vocab: Vocabulary,
                 params: dict[str, np.ndarray]):
        if cfg.label_count != vocab.emit_size:
            raise ValueError(f"label_count {cfg.label_count} does not match the "
                             f"vocabulary's {vocab.emit_size} emission labels")
        shapes = param_shapes(cfg)
        if set(params) != set(shapes):
            raise ValueError("parameter names do not match the architecture")
        self.dtype = params["feat_w"].dtype  # forward computes in it
        for name, arr in params.items():
            if arr.shape != shapes[name] or arr.dtype != self.dtype:
                raise ValueError(f"parameter {name} is {arr.dtype} {arr.shape}, "
                                 f"expected {self.dtype} {shapes[name]}")
        self.cfg = cfg
        self.vocab = vocab
        self.params = params


def init_recognizer(cfg: RecognizerConfig, vocab: Vocabulary,
                    dtype=np.float32) -> Recognizer:
    """Seeded init: weight matrices uniform in +-sqrt(6 / (fan_in + fan_out)),
    biases zero.  Matrices are drawn in a fixed order so a seed pins every
    parameter."""
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    params = {}
    for name, shape in param_shapes(cfg).items():
        if len(shape) == 2:
            bound = np.sqrt(6.0 / (shape[0] + shape[1]))
            params[name] = rng.uniform(-bound, bound, shape).astype(dtype)
        else:
            params[name] = np.zeros(shape, dtype=dtype)
    return Recognizer(cfg, vocab, params)


def _windows(frames: np.ndarray, radius: int) -> np.ndarray:
    """T x (2r+1)D matrix of zero-padded context windows, offsets -r..+r."""
    t = frames.shape[0]
    pad = np.zeros((radius, frames.shape[1]), dtype=frames.dtype)
    padded = np.concatenate([pad, frames, pad], axis=0)
    return np.concatenate([padded[i:i + t] for i in range(2 * radius + 1)], axis=1)


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _pad(groups, dtype) -> np.ndarray:
    """Time-major, zero-padded max(T) x K x B x 1 x C stack of K groups of
    B T_b x C matrices each."""
    out = np.zeros((max(len(r) for g in groups for r in g), len(groups), len(groups[0]), 1,
                    groups[0][0].shape[1]), dtype=dtype)
    for k, rows in enumerate(groups):
        for b, r in enumerate(rows):
            out[:len(r), k, b, 0] = r
    return out


def _scan(drives: list, u: np.ndarray) -> list:
    """States of the two tanh recurrences s_i = tanh(drive_i + u[k] s_{i-1})
    from a zero initial state, one row per row of each drive matrix:
    drives[k] lists recurrence k's drive matrix per sample.  Everything
    steps together as stacked (2, B, 1, R) @ (2, 1, R, R) matvecs, which
    give the same bits as one recurrence and one row at a time."""
    states = _pad(drives, drives[0][0].dtype)  # each step's states overwrite its drives
    state, ut = np.zeros_like(states[0]), u.transpose(0, 2, 1)[:, None]
    for i in range(len(states)):
        state = np.tanh(states[i] + state @ ut, out=states[i])
    return [[states[:len(d), k, b, 0] for b, d in enumerate(ds)] for k, ds in enumerate(drives)]


def _scan_grad(grads: list, states: list, u: np.ndarray) -> list:
    """Backpropagate through _scan in float64: grads[k] lists, per sample
    and in scan order, the loss gradient reaching recurrence k's states from
    outside the recurrences, and states[k] those states, as _scan returns
    them.  Returns the gradients reaching the drives, laid out the same.
    Each sample is padded reversed, so all carries step back together; the
    lists in grads are emptied once padded, which frees what only they hold."""
    deltas = _pad([[g[::-1] for g in gs] for gs in grads], np.float64)  # deltas overwrite grads
    for gs in grads:
        gs.clear()
    keep = _pad([[1.0 - s[::-1].astype(np.float64) ** 2 for s in ss] for ss in states], np.float64)
    u = u.astype(np.float64)[:, None]
    carry = np.zeros_like(keep[0])  # d loss / d state[i] from step i+1
    for i in range(len(keep)):
        deltas[i] += carry
        deltas[i] *= keep[i]
        carry = deltas[i] @ u
    return [[deltas[len(s) - 1::-1, k, b, 0] for b, s in enumerate(ss)]
            for k, ss in enumerate(states)]


def forward(model: Recognizer, frames):
    """Run the model over a T x D frame matrix: the batch of one of
    forward_batch.  Returns (aux, main, cache): the two log-posterior
    matrices and the intermediate activations that backward reads.  Only
    tests and perfbench call it."""
    auxs, mains, cache = forward_batch(model, [frames])
    return auxs[0], mains[0], cache


def forward_batch(model: Recognizer, frames: list, aux: bool = True):
    """forward over a list of T_b x D frame matrices, each recurrence in one scan
    for all samples; the dense layers run per sample, so every output is
    bit-identical to its batch of one.  Returns per-sample lists of aux and main
    log-posteriors, and the cache of each sample's context windows w, features h
    and recurrent states g; without aux, aux is None and the cache only g."""
    p = model.params
    with np.errstate(over="ignore"):  # a value the dtype cannot hold casts to inf: refused
        xs = [check_frames(np.asarray(f, dtype=model.dtype), model.cfg.input_dim) for f in frames]
    ws = (_windows(x, model.cfg.context_radius) for x in xs)
    ws = list(ws) if aux else ws  # kept for backward; without aux each is read once
    hs = [np.tanh(w @ p["feat_w"].T + p["feat_b"]) for w in ws]
    auxs = [_log_softmax(h @ p["aux_w"].T + p["aux_b"]) for h in hs] if aux else None
    cache = {"w": ws, "h": hs} if aux else {}
    # the backward recurrence is the same scan over time-flipped drives
    drives = [[h @ p["fwd_w"].T + p["fwd_b"] for h in hs],
              [(h @ p["bwd_w"].T + p["bwd_b"])[::-1] for h in hs]]
    del hs  # drop h, the drives and the states once read: without aux nothing else holds them
    gs = _scan(drives, np.stack([p["fwd_u"], p["bwd_u"]]))  # the states, until the next line
    del drives
    gs = cache["g"] = [np.concatenate([f, b[::-1]], axis=1) for f, b in zip(*gs)]
    mains = [_log_softmax(g @ p["main_w"].T + p["main_b"]) for g in gs]
    return auxs, mains, cache


def forward_chunks(model: Recognizer, frames: list, each=None) -> list:
    """Main-head log-posteriors of each frame matrix, in input order, from
    forward_batch over length-sorted chunks of FORWARD_CHUNK (32: the fastest
    size, at twice the memory of 8, README) matrices: less padding, the same
    bits.  each maps a chunk's posteriors to per-sample results, if given."""
    order = sorted(range(len(frames)), key=lambda i: len(frames[i]))
    got = []
    for lo in range(0, len(order), FORWARD_CHUNK):
        chunk = [frames[i] for i in order[lo:lo + FORWARD_CHUNK]]
        mains = forward_batch(model, chunk, aux=False)[1]
        got += each(mains) if each else mains
    return [got[j] for j in np.argsort(order)]  # the inverse permutation


def backward(model: Recognizer, cache: dict, aux_grad,
             main_grad) -> dict[str, np.ndarray]:
    """Gradients of a scalar loss with respect to every named parameter,
    summed over the cache's samples in order.  cache is the one forward or
    forward_batch returned; aux_grad and main_grad are d(loss)/d(logits)
    for the two heads, B x max(T) x L, as ctc_loss hands them back."""
    p = model.params
    hs, gs = cache["h"], cache["g"]
    rd = model.cfg.recurrent_dim
    ga, gm = (np.asarray(g, dtype=np.float64) for g in (aux_grad, main_grad))
    shape = (len(hs), max(len(h) for h in hs), model.cfg.label_count)
    if ga.shape != shape or gm.shape != shape:
        raise ValueError("head gradients must match the posterior shapes")

    dgs = [gm[b, :len(h)] @ p["main_w"] for b, h in enumerate(hs)]
    dgs = [[dg[:, :rd] for dg in dgs], [dg[::-1, rd:] for dg in dgs]]  # _scan_grad frees them
    # each recurrence's states and the gradients reaching them, in scan order
    states = [[g[:, :rd] for g in gs], [g[::-1, rd:] for g in gs]]
    dls = _scan_grad(dgs, states, np.stack([p["fwd_u"], p["bwd_u"]]))
    for b, (w, h, g) in enumerate(zip(cache["w"], hs, gs)):
        ga_b, gm_b = ga[b, :len(h)], gm[b, :len(h)]
        grads = {"main_w": gm_b.T @ g, "main_b": gm_b.sum(axis=0),
                 "aux_w": ga_b.T @ h, "aux_b": ga_b.sum(axis=0)}
        dh = ga_b @ p["aux_w"]
        for k, (name, step) in enumerate((("fwd", 1), ("bwd", -1))):  # bwd scans time-flipped
            dl, s = np.ascontiguousarray(dls[k][b]), states[k][b]  # contiguous for BLAS
            prev = np.concatenate([np.zeros_like(s[:1]), s[:-1]])
            grads[name + "_w"], grads[name + "_u"] = dl.T @ h[::step], dl.T @ prev
            grads[name + "_b"] = dl.sum(axis=0)
            dh += (dl @ p[name + "_w"])[::step]
        delta1 = dh * (1.0 - h.astype(np.float64) ** 2)
        grads["feat_w"] = delta1.T @ w
        grads["feat_b"] = delta1.sum(axis=0)
        # summed sample by sample: one gemm over all samples rounds differently
        total = grads if b == 0 else {k: np.add(total[k], v, out=total[k])
                                      for k, v in grads.items()}
    return {name: total[name] for name in model.params}


# -- checkpoints -----------------------------------------------------------

def _section_head(name: str, count: int) -> bytes:
    return struct.pack(f"<I{len(name)}sI", len(name), name.encode("ascii"), count)


def save_checkpoint(model: Recognizer, path) -> None:
    """Binary checkpoint: CHECKPOINT_HEADER, the vocabulary as a UTF-8 JSON
    list, then one named float32 section per parameter in param_shapes
    order, all little-endian.  Saving and loading the same model is
    bit-exact."""
    cfg = model.cfg
    chars_blob = json.dumps(list(model.vocab.chars), ensure_ascii=False).encode("utf-8")
    head = CHECKPOINT_HEADER.pack(CHECKPOINT_MAGIC, cfg.input_dim, cfg.context_radius,
                                  cfg.feature_dim, cfg.recurrent_dim, cfg.label_count,
                                  cfg.seed, len(chars_blob))
    sections = [_section_head(name, model.params[name].size)
                + np.ascontiguousarray(model.params[name], dtype="<f4").tobytes()
                for name in param_shapes(cfg)]
    Path(path).write_bytes(b"".join([head, chars_blob, *sections]))


def load_checkpoint(path) -> Recognizer:
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:8] != CHECKPOINT_MAGIC:
        raise FormatError(f"{path}: bad checkpoint magic {blob[:8]!r}")
    off = CHECKPOINT_HEADER.size
    if len(blob) < off:
        raise FormatError(f"{path}: truncated while reading the header")
    _, d, r, h, rd, l, seed, nchars = CHECKPOINT_HEADER.unpack_from(blob)
    if len(blob) < off + nchars:
        raise FormatError(f"{path}: truncated while reading the vocabulary")
    try:
        text = blob[off:off + nchars].decode("utf-8")
    except UnicodeDecodeError as e:
        raise FormatError(f"{path}: bad vocabulary block ({e})") from None
    vocab = Vocabulary.from_json(text, f"{path}: vocabulary block")
    try:
        cfg = RecognizerConfig(label_count=l, input_dim=d, context_radius=r,
                               feature_dim=h, recurrent_dim=rd, seed=seed)
    except ValueError as e:
        raise FormatError(f"{path}: bad config block ({e})") from None
    if l != vocab.emit_size:
        raise FormatError(f"{path}: config says {l} labels but the vocabulary "
                          f"block holds {vocab.emit_size}")

    off += nchars
    params = {}
    for name, shape in param_shapes(cfg).items():
        count = math.prod(shape)  # exact; a count past u32 fits only a 16 GiB file
        if count >= 2 ** 32 or len(blob) < off + 8 + len(name) + 4 * count:  # 8: two u32s
            raise FormatError(f"{path}: truncated while reading section {name!r}")
        head = _section_head(name, count)
        if blob[off:off + len(head)] != head:
            raise FormatError(f"{path}: expected section {name!r} of {count} values at byte {off}")
        off += len(head)
        params[name] = np.frombuffer(blob, "<f4", count, off).reshape(shape).copy()
        off += 4 * count
        if not np.all(np.isfinite(params[name])):
            raise FormatError(f"{path}: section {name!r} holds non-finite values")
    if off != len(blob):
        raise FormatError(f"{path}: {len(blob) - off} bytes after the last section")
    return Recognizer(cfg, vocab, params)
