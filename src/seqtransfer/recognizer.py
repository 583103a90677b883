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


@dataclass(frozen=True)
class RecognizerConfig:
    label_count: int
    input_dim: int = 16
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
    if radius == 0:
        return frames
    pad = np.zeros((radius, frames.shape[1]), dtype=frames.dtype)
    padded = np.concatenate([pad, frames, pad], axis=0)
    return np.concatenate([padded[i:i + t] for i in range(2 * radius + 1)], axis=1)


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _scan(drive: np.ndarray, u: np.ndarray) -> np.ndarray:
    """States of the tanh recurrence s_i = tanh(drive_i + u s_{i-1}) from a
    zero initial state, one row per step of the drive matrix."""
    states = np.empty_like(drive)
    state = np.zeros(drive.shape[1], dtype=drive.dtype)
    for i in range(drive.shape[0]):
        state = np.tanh(drive[i] + state @ u.T)
        states[i] = state
    return states


def _scan_grad(d_states: np.ndarray, states: np.ndarray, h: np.ndarray,
               w: np.ndarray, u: np.ndarray):
    """Backpropagate through _scan driven by h @ w.T + b.  d_states is the
    loss gradient reaching each state from outside the recurrence.  Returns
    the gradients for w, u and b and the gradient reaching h."""
    keep = 1.0 - states.astype(np.float64) ** 2
    deltas = np.empty(keep.shape)
    carry = np.zeros(keep.shape[1])  # d loss / d state[i] from step i+1
    for i in range(len(deltas) - 1, -1, -1):
        deltas[i] = (d_states[i] + carry) * keep[i]
        carry = deltas[i] @ u
    prev = np.zeros_like(states)
    prev[1:] = states[:-1]
    return deltas.T @ h, deltas.T @ prev, deltas.sum(axis=0), deltas @ w


def forward(model: Recognizer, frames, return_cache: bool = False):
    """Run the model over a T x D frame matrix.

    Returns (aux, main) log-posterior matrices, plus the intermediate
    activations when return_cache is set (for backward)."""
    p = model.params
    cfg = model.cfg
    x = np.asarray(frames, dtype=model.dtype)
    if x.ndim != 2 or x.shape[1] != cfg.input_dim:
        raise ValueError(f"frames must be T x {cfg.input_dim}, got {x.shape}")
    if x.shape[0] < 1:
        raise ValueError("need at least one frame")
    if not np.all(np.isfinite(x)):
        raise ValueError("frames contain non-finite values")

    win = _windows(x, cfg.context_radius)
    h = np.tanh(win @ p["feat_w"].T + p["feat_b"])
    aux = _log_softmax(h @ p["aux_w"].T + p["aux_b"])

    fwd = _scan(h @ p["fwd_w"].T + p["fwd_b"], p["fwd_u"])
    # the backward recurrence is the same scan over time-flipped views
    bwd = _scan((h @ p["bwd_w"].T + p["bwd_b"])[::-1], p["bwd_u"])[::-1]
    g = np.concatenate([fwd, bwd], axis=1)
    main = _log_softmax(g @ p["main_w"].T + p["main_b"])

    if return_cache:
        return aux, main, {"win": win, "h": h, "fwd": fwd, "bwd": bwd, "g": g}
    return aux, main


def backward(model: Recognizer, frames, aux_grad, main_grad,
             cache: dict | None = None) -> dict[str, np.ndarray]:
    """Gradients of a scalar loss with respect to every named parameter.

    aux_grad and main_grad are d(loss)/d(logits) for the two heads, shaped
    T x L; CTC losses hand these back directly."""
    p = model.params
    if cache is None:
        _, _, cache = forward(model, frames, return_cache=True)
    win, h, fwd, bwd = cache["win"], cache["h"], cache["fwd"], cache["bwd"]
    t = h.shape[0]
    rd = model.cfg.recurrent_dim
    ga = np.asarray(aux_grad, dtype=np.float64)
    gm = np.asarray(main_grad, dtype=np.float64)
    if ga.shape != (t, model.cfg.label_count) or gm.shape != ga.shape:
        raise ValueError("head gradients must match the posterior shapes")

    g = cache["g"]
    grads = {
        "main_w": gm.T @ g,
        "main_b": gm.sum(axis=0),
        "aux_w": ga.T @ h,
        "aux_b": ga.sum(axis=0),
    }
    dg = gm @ p["main_w"]
    dh = ga @ p["aux_w"]

    grads["fwd_w"], grads["fwd_u"], grads["fwd_b"], dh_fwd = _scan_grad(
        dg[:, :rd], fwd, h, p["fwd_w"], p["fwd_u"])
    grads["bwd_w"], grads["bwd_u"], grads["bwd_b"], dh_bwd = _scan_grad(
        dg[::-1, rd:], bwd[::-1], h[::-1], p["bwd_w"], p["bwd_u"])
    dh += dh_fwd
    dh += dh_bwd[::-1]

    delta1 = dh * (1.0 - h.astype(np.float64) ** 2)
    grads["feat_w"] = delta1.T @ win
    grads["feat_b"] = delta1.sum(axis=0)
    return {name: grads[name].astype(np.float64) for name in model.params}


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
        params[name] = np.frombuffer(payload, dtype="<f4").reshape(shape).copy()
    missing = set(shapes) - set(params)
    if missing:
        raise FormatError(f"{path}: missing sections {sorted(missing)}")
    # keep the architecture's canonical parameter order
    ordered = {name: params[name] for name in shapes}
    return Recognizer(cfg, vocab, ordered, np.float32)
