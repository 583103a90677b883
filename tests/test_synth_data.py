import numpy as np
import pytest

from seqtransfer import (LanguageSpec, generate_dataset, load_manifest, make_language_pair,
                         read_frames, render, sample_corpus, sample_text)
from seqtransfer.synth_data import STOCK_SHARED_CHARS, STOCK_TARGET_EXTRA


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
                        noise_sigma=0.0, seed=0)


def test_deterministic_chain():
    spec = two_state_spec()
    assert sample_text(spec, 4, np.random.default_rng(1)) == "abab"


def test_sampled_chars_stay_in_vocab():
    src, _ = make_language_pair(2, "abc")
    rng = np.random.default_rng(3)
    for _ in range(50):
        assert set(sample_text(src, 12, rng)) <= set("abc")


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
    spec = two_state_spec()
    frames = render("ab", spec, np.random.default_rng(0), stretch=False)
    want = np.vstack([spec.prototypes["a"], spec.prototypes["b"]]).astype(np.float32)
    assert np.array_equal(frames, want)
    assert frames.dtype == np.float32


def test_render_applies_style():
    spec = two_state_spec()
    spec = LanguageSpec(**{**spec.__dict__, "style_matrix": 2.0 * np.eye(4),
                           "style_bias": np.full(4, 0.5)})
    frames = render("a", spec, np.random.default_rng(0), stretch=False)
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

def test_generate_dataset_layout(tmp_path):
    src, _ = make_language_pair(21, "abc")
    rng = np.random.default_rng(0)
    manifest = generate_dataset(src, 5, (3, 6), rng, tmp_path / "train",
                                corpus_path=tmp_path / "corpus.txt")
    ds = load_manifest(manifest)
    assert len(ds) == 5
    assert all(s.transcription for s in ds)
    corpus = (tmp_path / "corpus.txt").read_text(encoding="utf-8").splitlines()
    assert corpus == [s.transcription for s in ds]


def test_generate_dataset_unlabeled(tmp_path):
    src, _ = make_language_pair(21, "abc")
    manifest = generate_dataset(src, 4, (3, 5), np.random.default_rng(1),
                                tmp_path / "u", unlabeled=True,
                                corpus_path=tmp_path / "c.txt")
    ds = load_manifest(manifest)
    assert all(s.transcription is None for s in ds)
    # the corpus still records what was rendered
    lines = (tmp_path / "c.txt").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 4 and all(lines)


def test_frame_files_round_trip(tmp_path):
    src, _ = make_language_pair(22, "ab")
    manifest = generate_dataset(src, 3, (2, 4), np.random.default_rng(2), tmp_path / "d")
    ds = load_manifest(manifest)
    for s in ds:
        direct = read_frames(tmp_path / "d" / "frames" / f"{s.sample_id}.frm")
        assert np.array_equal(direct, s.frames)


def test_regeneration_is_byte_identical(tmp_path):
    src, _ = make_language_pair(23, "abc")
    for sub in ("one", "two"):
        generate_dataset(src, 4, (3, 5), np.random.default_rng(9), tmp_path / sub,
                         corpus_path=tmp_path / f"{sub}.txt")
    one, two = tmp_path / "one", tmp_path / "two"
    assert (one / "manifest.tsv").read_bytes() == (two / "manifest.tsv").read_bytes()
    for f in sorted((one / "frames").iterdir()):
        assert f.read_bytes() == (two / "frames" / f.name).read_bytes()
    assert (tmp_path / "one.txt").read_bytes() == (tmp_path / "two.txt").read_bytes()


def test_generate_dataset_rejects_bad_counts(tmp_path):
    src, _ = make_language_pair(24, "ab")
    with pytest.raises(ValueError):
        generate_dataset(src, 0, (2, 3), np.random.default_rng(0), tmp_path / "x")
    with pytest.raises(ValueError):
        generate_dataset(src, 2, (5, 3), np.random.default_rng(0), tmp_path / "x")


def test_sample_corpus_lengths():
    src, _ = make_language_pair(25, "abcd")
    lines = sample_corpus(src, 20, (3, 6), np.random.default_rng(1))
    assert len(lines) == 20
    assert all(3 <= len(l) <= 6 for l in lines)
