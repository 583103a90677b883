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
import struct
from dataclasses import dataclass

import numpy as np

from .errors import FormatError
from .vocab import Vocabulary

CHECKPOINT_MAGIC = b"SEQREC1\x00"
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
                 params: dict[str, np.ndarray], dtype=np.float32):
        if cfg.label_count != vocab.emit_size:
            raise ValueError(f"label_count {cfg.label_count} does not match the "
                             f"vocabulary's {vocab.emit_size} emission labels")
        shapes = param_shapes(cfg)
        if set(params) != set(shapes):
            raise ValueError("parameter names do not match the architecture")
        for name, arr in params.items():
            if arr.shape != shapes[name]:
                raise ValueError(f"parameter {name} has shape {arr.shape}, "
                                 f"expected {shapes[name]}")
        self.cfg = cfg
        self.vocab = vocab
        self.params = params
        self.dtype = dtype


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
    return Recognizer(cfg, vocab, params, dtype)


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


def _scan_grad(deltas: np.ndarray, states: list, hs: list, w: list, u: np.ndarray):
    """Backpropagate through _scan, recurrence k driven by hs[k] @ w[k].T + b,
    for each sample's states and h in scan order.  deltas (laid out as
    _pad, overwritten) holds the loss gradient reaching each state from
    outside the recurrences, each sample reversed from step 0 so that all
    carries step back together.  Yields per sample, in order, one tuple per
    recurrence: the gradients for w, u and b and the one reaching h."""
    keep = _pad([[1.0 - s[::-1].astype(np.float64) ** 2 for s in ss] for ss in states],
                np.float64)
    u = u.astype(np.float64)[:, None]
    carry = np.zeros_like(keep[0])  # d loss / d state[i] from step i+1
    for i in range(len(keep)):
        deltas[i] += carry
        deltas[i] *= keep[i]
        carry = deltas[i] @ u
    del keep
    for b in range(len(hs[0])):
        out = []
        for k in range(len(hs)):
            s, h = states[k][b], hs[k][b]
            dl = np.ascontiguousarray(deltas[len(s) - 1::-1, k, b, 0])
            prev = np.concatenate([np.zeros_like(s[:1]), s[:-1]])
            out.append((dl.T @ h, dl.T @ prev, dl.sum(axis=0), dl @ w[k]))
        yield out


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
    xs = [np.asarray(f, dtype=model.dtype) for f in frames]
    for x in xs:
        if x.ndim != 2 or x.shape[1] != model.cfg.input_dim:
            raise ValueError(f"frames must be T x {model.cfg.input_dim}, got {x.shape}")
        if x.shape[0] < 1:
            raise ValueError("need at least one frame")
        if not np.all(np.isfinite(x)):
            raise ValueError("frames contain non-finite values")
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

    # the gradient reaching each recurrence's states, reversed per sample
    d = np.zeros((shape[1], 2, len(hs), 1, rd))
    for b, h in enumerate(hs):
        dg = gm[b, :len(h)] @ p["main_w"]
        d[:len(h), 0, b, 0], d[:len(h), 1, b, 0] = dg[::-1, :rd], dg[:, rd:]
    rec = _scan_grad(d, [[g[:, :rd] for g in gs], [g[::-1, rd:] for g in gs]],
                     [hs, [h[::-1] for h in hs]], [p["fwd_w"], p["bwd_w"]],
                     np.stack([p["fwd_u"], p["bwd_u"]]))
    for b, (w, h, g) in enumerate(zip(cache["w"], hs, gs)):
        ga_b, gm_b = ga[b, :len(h)], gm[b, :len(h)]
        grads = {"main_w": gm_b.T @ g, "main_b": gm_b.sum(axis=0),
                 "aux_w": ga_b.T @ h, "aux_b": ga_b.sum(axis=0)}
        dh = ga_b @ p["aux_w"]
        ((grads["fwd_w"], grads["fwd_u"], grads["fwd_b"], dh_fwd),
         (grads["bwd_w"], grads["bwd_u"], grads["bwd_b"], dh_bwd)) = next(rec)
        dh += dh_fwd
        dh += dh_bwd[::-1]
        delta1 = dh * (1.0 - h.astype(np.float64) ** 2)
        grads["feat_w"] = delta1.T @ w
        grads["feat_b"] = delta1.sum(axis=0)
        # summed sample by sample: one gemm over all samples rounds differently
        total = grads if b == 0 else {k: np.add(total[k], v, out=total[k])
                                      for k, v in grads.items()}
    return {name: total[name] for name in model.params}


# -- checkpoints -----------------------------------------------------------

def save_checkpoint(model: Recognizer, path) -> None:
    """Binary checkpoint: magic, config block, then one named float32
    section per parameter, all little-endian.  Saving and loading the same
    model is bit-exact."""
    cfg = model.cfg
    chars_blob = json.dumps(list(model.vocab.chars), ensure_ascii=False).encode("utf-8")
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<5I", cfg.input_dim, cfg.context_radius,
                            cfg.feature_dim, cfg.recurrent_dim, cfg.label_count))
        f.write(struct.pack("<Q", cfg.seed))
        f.write(struct.pack("<I", len(chars_blob)))
        f.write(chars_blob)
        for name, arr in model.params.items():
            blob = np.ascontiguousarray(arr, dtype="<f4").tobytes()
            f.write(struct.pack("<I", len(name)))
            f.write(name.encode("ascii"))
            f.write(struct.pack("<I", arr.size))
            f.write(blob)


def load_checkpoint(path) -> Recognizer:
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:8] != CHECKPOINT_MAGIC:
        raise FormatError(f"{path}: bad checkpoint magic {blob[:8]!r}")
    off = 8

    def take(n, what):
        nonlocal off
        if off + n > len(blob):
            raise FormatError(f"{path}: truncated while reading {what}")
        out = blob[off:off + n]
        off += n
        return out

    d, r, h, rd, l = struct.unpack("<5I", take(20, "config"))
    seed, = struct.unpack("<Q", take(8, "seed"))
    nchars, = struct.unpack("<I", take(4, "vocabulary length"))
    try:
        text = take(nchars, "vocabulary").decode("utf-8")
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

    shapes = param_shapes(cfg)
    params: dict[str, np.ndarray] = {}
    while off < len(blob):
        nlen, = struct.unpack("<I", take(4, "section name length"))
        name = take(nlen, "section name").decode("ascii", errors="replace")
        count, = struct.unpack("<I", take(4, f"element count of {name}"))
        payload = take(4 * count, f"payload of {name}")
        if name not in shapes:
            raise FormatError(f"{path}: unknown section {name!r}")
        if name in params:
            raise FormatError(f"{path}: duplicate section {name!r}")
        shape = shapes[name]
        if count != int(np.prod(shape)):
            raise FormatError(f"{path}: section {name!r} holds {count} values, "
                              f"the config implies {int(np.prod(shape))}")
        arr = np.frombuffer(payload, dtype="<f4").reshape(shape).copy()
        if not np.all(np.isfinite(arr)):
            raise FormatError(f"{path}: section {name!r} holds non-finite values")
        params[name] = arr
    missing = set(shapes) - set(params)
    if missing:
        raise FormatError(f"{path}: missing sections {sorted(missing)}")
    # keep the architecture's canonical parameter order
    ordered = {name: params[name] for name in shapes}
    return Recognizer(cfg, vocab, ordered, np.float32)
