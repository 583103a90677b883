import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqtransfer import (LanguageSpec, Sample, generate_dataset, load_manifest,
                         make_language_pair, read_frames, render, sample_corpus, sample_text,
                         write_lines, write_manifest)
from seqtransfer.synth_data import STOCK_SHARED_CHARS, STOCK_TARGET_EXTRA
from conftest import render_reference, sample_text_reference


def test_same_base_seed_gives_identical_pair():
    a_src, a_tgt = make_language_pair(3, "abc", target_extra="x")
    b_src, b_tgt = make_language_pair(3, "abc", target_extra="x")
    for a, b in ((a_src, b_src), (a_tgt, b_tgt)):
        assert a.chars == b.chars
        assert np.array_equal(a.trans, b.trans)
        assert np.array_equal(a.style_matrix, b.style_matrix)
        assert np.array_equal(a.style_bias, b.style_bias)
        for c in a.chars:
            assert np.array_equal(a.prototypes[c], b.prototypes[c])


def test_shared_characters_share_prototypes():
    src, tgt = make_language_pair(5, "abc", target_extra="xy")
    for c in "abc":
        assert np.array_equal(src.prototypes[c], tgt.prototypes[c])
    assert set(tgt.prototypes) == set("abcxy")
    assert set(src.prototypes) == set("abc")


def test_zero_style_strength_means_identity_style():
    src, tgt = make_language_pair(5, "abc", style_strength=0.0)
    assert np.array_equal(src.style_matrix, np.eye(16))
    assert np.array_equal(tgt.style_matrix, np.eye(16))
    assert np.all(tgt.style_bias == 0.0)
    # the languages still differ in their text statistics
    assert not np.array_equal(src.trans, tgt.trans)


def test_prototype_row_counts_in_range():
    src, _ = make_language_pair(8, "abcdefgh")
    for c, proto in src.prototypes.items():
        assert 3 <= proto.shape[0] <= 7
        assert proto.shape[1] == 16


def test_markov_rows_are_stochastic():
    src, tgt = make_language_pair(4, "abcd", target_extra="e")
    for spec in (src, tgt):
        assert spec.trans.shape == (len(spec.chars),) * 2
        assert spec.trans.sum(axis=1) == pytest.approx(np.ones(len(spec.chars)), abs=1e-9)
        assert np.all(spec.trans > 0.0)


def test_overlapping_extras_rejected():
    with pytest.raises(ValueError):
        make_language_pair(1, "abc", source_extra="c")
    with pytest.raises(ValueError):
        make_language_pair(1, "abc", target_extra="b")
    with pytest.raises(ValueError):
        make_language_pair(1, "abc", source_extra="x", target_extra="x")
    with pytest.raises(ValueError):
        make_language_pair(1, "")


def test_non_finite_rendering_arguments_and_empty_frames_rejected():
    for name, value in (("style_strength", np.nan), ("style_strength", np.inf),
                        ("noise_sigma", np.nan), ("noise_sigma", np.inf), ("input_dim", 0)):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            make_language_pair(1, "abc", **{name: value})


def test_target_extras_never_in_source_text():
    src, _ = make_language_pair(9, "ab", target_extra="é")
    rng = np.random.default_rng(0)
    for _ in range(200):
        assert "é" not in sample_text(src, 10, rng)


# -- text sampling -------------------------------------------------------------

def two_state_spec():
    protos = {"a": np.ones((3, 4), dtype=np.float64),
              "b": np.full((4, 4), 2.0)}
    return LanguageSpec(name="toy", chars="ab", prototypes=protos,
                        trans=np.array([[0.0, 1.0], [1.0, 0.0]]),
                        start=np.array([1.0, 0.0]),
                        style_matrix=np.eye(4), style_bias=np.zeros(4),
                        noise_sigma=0.0)


def test_deterministic_chain():
    spec = two_state_spec()
    assert sample_text(spec, 4, np.random.default_rng(1)) == "abab"


def test_sampled_chars_stay_in_vocab():
    src, _ = make_language_pair(2, "abc")
    rng = np.random.default_rng(3)
    for _ in range(50):
        assert set(sample_text(src, 12, rng)) <= set("abc")


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), length=st.integers(1, 40),
       base_seed=st.integers(0, 50), side=st.sampled_from([0, 1]),
       chars=st.sampled_from(["a", "ab", "abc ", STOCK_SHARED_CHARS]))
def test_sample_text_matches_choice_reference(seed, length, base_seed, side, chars):
    """One uniform per character through a cumulative table draws the text
    one rng.choice per character draws, and leaves the stream in the same
    place."""
    spec = make_language_pair(base_seed, chars, target_extra="éQ")[side]
    r1, r2 = np.random.default_rng(seed), np.random.default_rng(seed)
    assert sample_text(spec, length, r1) == sample_text_reference(spec, length, r2)
    assert r1.random() == r2.random()


def _with_first_column(spec, row, bad):
    """spec with the first entry of its start row, or of every transition
    row, broken one way, or nudged by an amount choice tolerates."""
    table = getattr(spec, row).copy()
    if bad == "negative":  # the second entry carries the difference, so rows still sum to 1
        table[..., 1] += table[..., 0] + 0.1
        table[..., 0] = -0.1
    elif bad == "nan":
        table[..., 0] = np.nan
    else:
        table[..., 0] += {"unnormalized": 1e-6, "within tolerance": 1e-10}[bad]
    return LanguageSpec(**{**spec.__dict__, row: table})


@pytest.mark.parametrize("row", ["start", "trans"])
@pytest.mark.parametrize("bad", ["negative", "nan", "unnormalized"])
def test_sample_text_rejects_a_row_that_is_not_a_distribution(row, bad):
    """The rows Generator.choice refuses: a negative or NaN entry, or a sum
    off 1 by more than sqrt(eps)."""
    broken = _with_first_column(make_language_pair(1, "abc")[0], row, bad)
    with pytest.raises(ValueError, match="not a probability distribution"):
        sample_text(broken, 5, np.random.default_rng(0))
    with pytest.raises(ValueError):  # so does the reference
        sample_text_reference(broken, 5, np.random.default_rng(0))


@pytest.mark.parametrize("row", ["start", "trans"])
def test_sample_text_takes_a_row_within_tolerance_as_choice_does(row):
    spec = _with_first_column(make_language_pair(1, "abc")[0], row, "within tolerance")
    r1, r2 = np.random.default_rng(3), np.random.default_rng(3)
    assert sample_text(spec, 50, r1) == sample_text_reference(spec, 50, r2)


def test_bigram_frequencies_match_table():
    src, _ = make_language_pair(6, "ab c")
    rng = np.random.default_rng(4)
    n = len(src.chars)
    idx = {c: i for i, c in enumerate(src.chars)}
    counts = np.zeros((n, n))
    text = sample_text(src, 100_000, rng)
    for a, b in zip(text, text[1:]):
        counts[idx[a], idx[b]] += 1
    freq = counts / counts.sum(axis=1, keepdims=True)
    assert np.max(np.abs(freq - src.trans)) < 0.01


# -- rendering -----------------------------------------------------------------

def test_render_without_stretch_or_noise_is_exact():
    spec = two_state_spec()  # no noise, and a draw of 0.9 keeps every row once
    frames = render("ab", spec, _Draws([0.9] * 7))
    want = np.vstack([spec.prototypes["a"], spec.prototypes["b"]]).astype(np.float32)
    assert np.array_equal(frames, want)
    assert frames.dtype == np.float32


def test_render_applies_style():
    spec = two_state_spec()
    spec = LanguageSpec(**{**spec.__dict__, "style_matrix": 2.0 * np.eye(4),
                           "style_bias": np.full(4, 0.5)})
    frames = render("a", spec, _Draws([0.9] * 7))
    assert np.array_equal(frames, np.full((3, 4), 2.5, dtype=np.float32))


def test_render_length_bounds():
    src, _ = make_language_pair(12, "abcd")
    rng = np.random.default_rng(5)
    for _ in range(50):
        text = sample_text(src, 6, rng)
        frames = render(text, src, rng)
        lo = len(text)  # drop never goes below one row per character
        hi = sum(2 * src.prototypes[c].shape[0] for c in text)
        assert lo <= frames.shape[0] <= hi
        assert frames.shape[1] == 16


def test_render_same_rng_state_is_identical():
    src, _ = make_language_pair(13, "abc")
    a = render("abc", src, np.random.default_rng(42))
    b = render("abc", src, np.random.default_rng(42))
    assert np.array_equal(a, b)


class _Draws:
    """Stands in for a Generator whose uniform draws are the given values,
    handed out in order one at a time or k at a time."""

    def __init__(self, values):
        self.values = list(values)

    def random(self, size=None):
        if size is None:
            return self.values.pop(0)
        out, self.values = np.array(self.values[:size]), self.values[size:]
        return out


@settings(max_examples=60, deadline=None)
@given(text=st.text("abcx", min_size=1, max_size=8), seed=st.integers(0, 2 ** 32 - 1),
       draws=st.lists(st.sampled_from([0.0, 0.1, 0.2, 0.25, 0.3, 0.9]), min_size=56,
                      max_size=56))
def test_render_matches_row_loop_reference(text, seed, draws):
    """One draw per prototype row, taken k at a time, stretches exactly as
    the row-by-row loop, consumes the same stream, and keeps the first row
    of a character whose rows all drop."""
    _, tgt = make_language_pair(seed % 5, "abc", target_extra="x")
    r1, r2 = np.random.default_rng(seed), np.random.default_rng(seed)
    assert render(text, tgt, r1).tobytes() == render_reference(text, tgt, r2).tobytes()
    assert r1.random() == r2.random()

    quiet = LanguageSpec(**{**tgt.__dict__, "noise_sigma": 0.0})
    got = render(text, quiet, _Draws(draws))  # prototypes have at most 7 rows
    assert got.tobytes() == render_reference(text, quiet, _Draws(draws)).tobytes()
    dropped = render(text, quiet, _Draws([0.25] * 56))
    assert dropped.tobytes() == render_reference(text, quiet, _Draws([0.25] * 56)).tobytes()
    assert len(dropped) == len(text)


def test_render_rejects_oov():
    spec = two_state_spec()
    with pytest.raises(ValueError):
        render("az", spec, np.random.default_rng(0))


def test_default_pair_shape():
    src, tgt = make_language_pair(7, STOCK_SHARED_CHARS, target_extra=STOCK_TARGET_EXTRA)
    assert len(src.chars) == 25
    assert len(tgt.chars) == 28
    assert set(tgt.chars) - set(src.chars) == set("éàñ")


# -- dataset generation -----------------------------------------------------------

def test_generate_dataset_layout():
    """Each sample has its own seed from rng, drawn up front, and is labeled."""
    src, _ = make_language_pair(21, "abc")
    ds = generate_dataset(src, 5, (3, 6), np.random.default_rng(0))
    assert [s.sample_id for s in ds] == [f"source{i:06d}" for i in range(5)]
    seeds = np.random.default_rng(0).integers(0, 2 ** 63, size=5)
    for s, seed in zip(ds, seeds):
        srng = np.random.default_rng(np.random.SeedSequence((int(seed), 0x5A)))
        text = sample_text(src, int(srng.integers(3, 7)), srng)
        assert s.transcription == text
        assert s.frames.dtype == np.float32
        assert np.array_equal(s.frames, render(text, src, srng))


def test_generate_dataset_unlabeled(tmp_path):
    """Unlabeled copies, as gen-data writes the target train split, keep the
    frames and withhold the texts."""
    src, _ = make_language_pair(21, "abc")
    ds = generate_dataset(src, 4, (3, 5), np.random.default_rng(1))
    manifest = write_manifest([Sample(s.sample_id, s.frames) for s in ds],
                              tmp_path / "u" / "manifest.tsv")
    back = load_manifest(manifest)
    assert all(s.transcription is None for s in back)
    assert all(np.array_equal(b.frames, s.frames) for b, s in zip(back, ds))
    assert all(s.transcription for s in ds)  # the texts stay with the caller


def test_frame_files_round_trip(tmp_path):
    src, _ = make_language_pair(22, "ab")
    ds = generate_dataset(src, 3, (2, 4), np.random.default_rng(2))
    write_manifest(ds, tmp_path / "d" / "manifest.tsv")
    for s in ds:
        direct = read_frames(tmp_path / "d" / "frames" / f"{s.sample_id}.frm")
        assert np.array_equal(direct, s.frames)


def test_regeneration_is_byte_identical(tmp_path):
    src, _ = make_language_pair(23, "abc")
    for sub in ("one", "two"):
        ds = generate_dataset(src, 4, (3, 5), np.random.default_rng(9))
        write_manifest(ds, tmp_path / sub / "manifest.tsv")
        write_lines(tmp_path / f"{sub}.txt", [s.transcription for s in ds])
    one, two = tmp_path / "one", tmp_path / "two"
    assert (one / "manifest.tsv").read_bytes() == (two / "manifest.tsv").read_bytes()
    for f in sorted((one / "frames").iterdir()):
        assert f.read_bytes() == (two / "frames" / f.name).read_bytes()
    assert (tmp_path / "one.txt").read_bytes() == (tmp_path / "two.txt").read_bytes()


def test_generate_dataset_rejects_bad_counts():
    src, _ = make_language_pair(24, "ab")
    with pytest.raises(ValueError):
        generate_dataset(src, 0, (2, 3), np.random.default_rng(0))
    with pytest.raises(ValueError):
        generate_dataset(src, 2, (5, 3), np.random.default_rng(0))


def test_sample_corpus_lengths():
    src, _ = make_language_pair(25, "abcd")
    lines = sample_corpus(src, 20, (3, 6), np.random.default_rng(1))
    assert len(lines) == 20
    assert all(3 <= len(l) <= 6 for l in lines)
