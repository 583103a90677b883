"""Synthetic glyph-sequence language pairs.

Every character owns a small prototype matrix of frames derived only from
the base seed and the character itself, so the two languages of a pair
share glyph shapes exactly.  The languages differ in three ways: extra
characters on either side, their own Markov text tables, and a per-language
rendering style.  The source style is the identity; the target style mixes
frames through a random linear map plus bias, scaled by style_strength.

Rendering concatenates prototypes along time, stretches them
(each row independently doubled with probability 0.2 or dropped with
probability 0.1, never below one row per character), applies the style,
and adds Gaussian noise.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .data import Sample

_PROTO_TAG = 0x70
_STYLE_TAG = 0x57
_MARKOV_TAG = 0x4d
_SAMPLE_TAG = 0x5a

DUP_PROB = 0.2
DROP_PROB = 0.1
_SUM_ATOL = np.sqrt(np.finfo(np.float64).eps)  # Generator.choice's row-sum tolerance

# the stock desk-scale pair: 24 shared lowercase letters plus space; the
# target side adds three accented characters
STOCK_SHARED_CHARS = "abcdefghijklmnopqrstuvwx "
STOCK_TARGET_EXTRA = "éàñ"


@dataclass
class LanguageSpec:
    name: str
    chars: tuple[str, ...]              # sorted character inventory
    prototypes: dict[str, np.ndarray]   # char -> k x D, k in [3, 7]
    trans: np.ndarray                   # row-stochastic over chars
    start: np.ndarray                   # stationary distribution of trans
    style_matrix: np.ndarray            # D x D
    style_bias: np.ndarray              # D
    noise_sigma: float


def _prototype(base_seed: int, char: str, input_dim: int) -> np.ndarray:
    rng = np.random.default_rng(np.random.SeedSequence((base_seed, _PROTO_TAG, ord(char))))
    k = int(rng.integers(3, 8))
    return rng.normal(0.0, 1.0, (k, input_dim))


def _stationary(trans: np.ndarray) -> np.ndarray:
    pi = np.full(trans.shape[0], 1.0 / trans.shape[0])
    for _ in range(500):
        pi = pi @ trans
    return pi / pi.sum()


def _markov(base_seed: int, lang_index: int, n: int) -> np.ndarray:
    """Sparse-ish row-stochastic table: a handful of favored successors per
    character keeps the text predictable enough for a character LM."""
    rng = np.random.default_rng(np.random.SeedSequence((base_seed, _MARKOV_TAG, lang_index)))
    rows = rng.dirichlet(np.full(n, 0.15), size=n)
    rows = 0.95 * rows + 0.05 / n  # keep every transition reachable
    return rows / rows.sum(axis=1, keepdims=True)


def make_language_pair(base_seed: int, shared_chars, source_extra="", target_extra="",
                       style_strength: float = 0.5, noise_sigma: float = 0.3,
                       input_dim: int = 16) -> tuple[LanguageSpec, LanguageSpec]:
    shared = sorted(set(shared_chars))
    if not shared:
        raise ValueError("shared character set is empty")
    s_extra = set(source_extra)
    t_extra = set(target_extra)
    if (s_extra | t_extra) & set(shared) or s_extra & t_extra:
        raise ValueError("extra characters must be disjoint from the shared set "
                         "and from each other")
    for name, value in (("style_strength", style_strength), ("noise_sigma", noise_sigma)):
        if not 0.0 <= value < np.inf:  # NaN fails it too
            raise ValueError(f"{name} must be finite and >= 0, got {value}")
    if input_dim < 1:
        raise ValueError(f"input_dim must be >= 1, got {input_dim}")

    specs = []
    for idx, (name, extra) in enumerate((("source", s_extra), ("target", t_extra))):
        chars = tuple(sorted(set(shared) | extra))
        protos = {c: _prototype(base_seed, c, input_dim) for c in chars}
        trans = _markov(base_seed, idx, len(chars))
        if idx == 0:
            style_m = np.eye(input_dim)
            style_b = np.zeros(input_dim)
        else:
            rng = np.random.default_rng(np.random.SeedSequence((base_seed, _STYLE_TAG)))
            style_m = np.eye(input_dim) + style_strength * rng.normal(
                0.0, 1.0 / np.sqrt(input_dim), (input_dim, input_dim))
            style_b = style_strength * rng.normal(0.0, 0.5, input_dim)
        specs.append(LanguageSpec(name, chars, protos, trans, _stationary(trans),
                                  style_m, style_b, noise_sigma))
    return specs[0], specs[1]


def sample_text(spec: LanguageSpec, length: int, rng: np.random.Generator) -> str:
    """A Markov chain walk by inverse-CDF lookup: one uniform per character,
    looked up in tables built as Generator.choice builds them, so the text
    and the stream consumed are those of one rng.choice per character."""
    if length < 1:
        raise ValueError("length must be >= 1")
    # row 0 starts the chain; row i + 1 follows character i
    table = np.concatenate([spec.start[None], spec.trans], dtype=np.float64)
    cdf = table.cumsum(axis=1)
    # Generator.choice's checks; a NaN fails both comparisons
    if not (table.min() >= 0 and np.abs(cdf[:, -1] - 1.0).max() <= _SUM_ATOL):
        raise ValueError(f"start or transition row of language {spec.name!r} is not "
                         "a probability distribution")
    cdf /= cdf[:, -1:]
    flat, n = cdf.ravel().data, len(spec.chars)  # bisect reads only the floats it visits
    row, out = 0, []
    for u in rng.random(length).tolist():
        i = bisect_right(flat, u, row, row + n) - row
        out.append(spec.chars[i])
        row = (i + 1) * n
    return "".join(out)


def render(text: str, spec: LanguageSpec, rng: np.random.Generator) -> np.ndarray:
    """Frame matrix for a text: stretched prototype concatenation, styled,
    plus noise.  Frame count stays within [len(text), 2 * sum of prototype
    rows]."""
    if not text:
        raise ValueError("cannot render an empty text")
    bad = next((c for c in text if c not in spec.prototypes), None)
    if bad is not None:
        raise ValueError(f"character {bad!r} is not in language {spec.name!r}")
    protos = [spec.prototypes[c] for c in text]
    sizes = [len(p) for p in protos]
    firsts = np.array([0, *accumulate(sizes[:-1])])  # each character's first row
    u = rng.random(sum(sizes))  # one draw per row: doubled, dropped or kept once
    reps = np.where(u < DUP_PROB, 2, u >= DUP_PROB + DROP_PROB)
    reps[firsts[np.add.reduceat(reps, firsts) == 0]] = 1  # never drop a character entirely
    frames = np.repeat(np.concatenate(protos), reps, axis=0)
    frames = frames @ spec.style_matrix.T + spec.style_bias
    if spec.noise_sigma > 0:
        frames = frames + rng.normal(0.0, spec.noise_sigma, frames.shape)
    with np.errstate(over="ignore"):  # overflow casts to inf, which the writer refuses
        return frames.astype(np.float32)


def sample_corpus(spec: LanguageSpec, n_lines: int, text_len_range: tuple[int, int],
                  rng: np.random.Generator) -> list[str]:
    lo, hi = text_len_range
    if not (1 <= lo <= hi):
        raise ValueError(f"bad text length range {text_len_range}")
    return [sample_text(spec, int(rng.integers(lo, hi + 1)), rng)
            for _ in range(n_lines)]


def generate_dataset(spec: LanguageSpec, n_samples: int,
                     text_len_range: tuple[int, int], rng: np.random.Generator) -> list[Sample]:
    """n_samples labeled samples, each with its own seed drawn from rng, its
    id the language name and its index."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    lo, hi = text_len_range
    if not (1 <= lo <= hi):
        raise ValueError(f"bad text length range {text_len_range}")
    samples = []
    for i, seed in enumerate(rng.integers(0, 2 ** 63, size=n_samples).tolist()):
        srng = np.random.default_rng(np.random.SeedSequence((seed, _SAMPLE_TAG)))
        text = sample_text(spec, int(srng.integers(lo, hi + 1)), srng)
        samples.append(Sample(f"{spec.name}{i:06d}", render(text, spec, srng), text))
    return samples
