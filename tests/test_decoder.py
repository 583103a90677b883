import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqtransfer import (DecoderConfig, NumericError, build_lm, estimate_priors,
                         floor_and_renorm, greedy_decode, lm_beam_decode, load_arpa, save_arpa,
                         uniform_priors)
from conftest import beam_decode_reference, oracle_best, random_log_posteriors


# -- priors --------------------------------------------------------------------

def test_uniform_rows_give_uniform_priors():
    post = np.full((5, 4), math.log(0.25))
    priors = estimate_priors([post])
    assert priors == pytest.approx(np.full(4, 0.25), abs=1e-12)


def test_one_hot_blank_frame_is_floored_and_renormalized():
    eps = 1e-6
    post = np.log(np.array([[1.0 - 1e-15, 1e-15 / 3, 1e-15 / 3, 1e-15 / 3]]))
    priors = estimate_priors([post], floor=eps)
    want = np.array([1.0, eps, eps, eps])
    want /= want.sum()
    assert priors == pytest.approx(want, abs=1e-9)


def test_priors_match_hand_average(rng):
    a = random_log_posteriors(rng, 3, 5)
    b = random_log_posteriors(rng, 7, 5)
    priors = estimate_priors([a, b], floor=1e-9)
    mean = np.vstack([np.exp(a), np.exp(b)]).mean(axis=0)
    want = floor_and_renorm(mean, 1e-9)
    assert priors == pytest.approx(want, abs=1e-12)


def test_priors_reject_empty_stream():
    with pytest.raises(ValueError):
        estimate_priors([])


def test_priors_sum_to_one(rng):
    priors = estimate_priors([random_log_posteriors(rng, 6, 4)])
    assert priors.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(priors >= 1e-6)


def test_uniform_priors_shape():
    assert uniform_priors(4) == pytest.approx(np.full(4, 0.25))
    with pytest.raises(ValueError):
        uniform_priors(1)


# -- config validation -----------------------------------------------------------

def test_config_defaults():
    cfg = DecoderConfig()
    assert cfg.emission_weight == 0.4
    assert cfg.prior_scale == 0.5
    assert cfg.beam_width == 64
    assert cfg.prior_floor == 1e-6


def test_config_rejects_bad_values():
    with pytest.raises(ValueError):
        DecoderConfig(beam_width=0)
    with pytest.raises(ValueError):
        DecoderConfig(prior_floor=0.0)
    with pytest.raises(ValueError):
        DecoderConfig(emission_weight=-0.1)
    with pytest.raises(ValueError):
        DecoderConfig(prior_scale=-1.0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            DecoderConfig(emission_weight=bad)
        with pytest.raises(ValueError):
            DecoderConfig(prior_scale=bad)


# -- hand-scored single frame ------------------------------------------------------

def test_single_frame_two_candidates():
    # candidates: "" scores ln 0.3, "a" scores ln 0.7
    post = np.log(np.array([[0.3, 0.7]]))
    cfg = DecoderConfig(emission_weight=1.0, prior_scale=0.0, beam_width=8)
    ids, score = lm_beam_decode(post, None, uniform_priors(2), cfg)
    assert ids == (1,)
    assert score == pytest.approx(math.log(0.7), abs=1e-12)


def test_single_frame_blank_wins():
    post = np.log(np.array([[0.7, 0.3]]))
    cfg = DecoderConfig(emission_weight=1.0, prior_scale=0.0, beam_width=8)
    ids, score = lm_beam_decode(post, None, uniform_priors(2), cfg)
    assert ids == ()
    assert score == pytest.approx(math.log(0.7), abs=1e-12)


# -- reduction to max-probability collapsed sequence --------------------------------

def test_reduction_to_bruteforce_collapse():
    rng = np.random.default_rng(11)
    cfg = DecoderConfig(emission_weight=1.0, prior_scale=0.0, beam_width=10 ** 6)
    for _ in range(120):
        T = int(rng.integers(1, 5))
        L = int(rng.integers(2, 4))
        post = random_log_posteriors(rng, T, L)
        ids, score = lm_beam_decode(post, None, uniform_priors(L), cfg)
        want_seq, want_score = oracle_best(post, None, uniform_priors(L), 1.0, 0.0)
        assert ids == want_seq
        assert score == pytest.approx(want_score, rel=1e-9)


def test_beam_width_monotonicity():
    rng = np.random.default_rng(12)
    corpus = ["abab", "bba", "aab"]
    lm = build_lm(corpus, order=3, discount=0.1)
    L = lm.vocab.emit_size
    for _ in range(60):
        T = int(rng.integers(1, 5))
        post = random_log_posteriors(rng, T, L)
        priors = estimate_priors([post])
        prev = -math.inf
        for width in (1, 2, 4, 8, 10 ** 6):
            cfg = DecoderConfig(emission_weight=0.4, prior_scale=0.5, beam_width=width)
            _, score = lm_beam_decode(post, lm, priors, cfg)
            assert score >= prev - 1e-12
            prev = score


def test_alpha_zero_ignores_priors(rng):
    lm = build_lm(["abc", "cba"], order=2, discount=0.1)
    L = lm.vocab.emit_size
    post = random_log_posteriors(rng, 4, L)
    cfg = DecoderConfig(emission_weight=0.7, prior_scale=0.0, beam_width=16)
    base = lm_beam_decode(post, lm, uniform_priors(L), cfg)
    for _ in range(10):
        skewed = floor_and_renorm(rng.random(L), 1e-6)
        assert lm_beam_decode(post, lm, skewed, cfg) == base


def test_decode_is_deterministic(rng):
    lm = build_lm(["aabb"], order=2, discount=0.1)
    L = lm.vocab.emit_size
    post = random_log_posteriors(rng, 5, L)
    priors = estimate_priors([post])
    cfg = DecoderConfig()
    assert lm_beam_decode(post, lm, priors, cfg) == lm_beam_decode(post, lm, priors, cfg)


def test_exhaustive_beam_matches_oracle_with_lm():
    rng = np.random.default_rng(13)
    lm = build_lm(["abba", "bab"], order=3, discount=0.1)
    L = lm.vocab.emit_size
    cfg = DecoderConfig(emission_weight=0.4, prior_scale=0.5, beam_width=10 ** 6)
    for _ in range(40):
        T = int(rng.integers(1, 5))
        post = random_log_posteriors(rng, T, L)
        priors = estimate_priors([post])
        ids, score = lm_beam_decode(post, lm, priors, cfg)
        want_seq, want_score = oracle_best(post, lm, priors, 0.4, 0.5)
        assert ids == want_seq
        assert score == pytest.approx(want_score, rel=1e-9)


# Decoder output on a fixed seeded set: (text, score with the built model,
# score with its ARPA round trip).  A change to the LM walk or the beam
# search that moves any of these changes what the decoder computes.
RECORDED_DECODES = [
    ("cec be", -5.029833362496582, -5.029833362495983),
    (" e  a", -5.2265983105979705, -5.226598310599791),
    ("ca ac", -10.24891581520827, -10.248915815206905),
    ("ca ac", -6.156922028821605, -6.156922028820242),
    ("eecb", -7.2561600590834265, -7.256160059082971),
    ("caeabc e", -5.881648671580588, -5.881648671580157),
    ("ccca", -5.3846765529708245, -5.384676552970338),
    ("acbdda", -6.541384152344536, -6.541384152345091),
]


def test_decode_matches_recorded_output(tmp_path):
    rng = np.random.default_rng(2024)
    corpus = ["".join(rng.choice(list("abcde "), size=rng.integers(3, 10)))
              for _ in range(40)]
    lm = build_lm(corpus, order=5, discount=0.1)
    save_arpa(lm, tmp_path / "m.arpa")
    back = load_arpa(tmp_path / "m.arpa")
    cfg = DecoderConfig(emission_weight=0.5, prior_scale=0.3, beam_width=8)
    for text, built_score, loaded_score in RECORDED_DECODES:
        post = random_log_posteriors(rng, 12, lm.vocab.emit_size)
        priors = estimate_priors([post])
        for model, want in ((lm, built_score), (back, loaded_score)):
            ids, score = lm_beam_decode(post, model, priors, cfg)
            assert lm.vocab.decode(ids) == text
            assert score == pytest.approx(want, rel=1e-12)


# Realistic sizes: an order-5 LM over 28 characters (L = 29) and six 50-frame
# matrices, noisy rows peaked along a path that spells a corpus line.  Each
# entry is (matrix, beam, with LM, text, score), produced by the scalar
# decoder that the array-native one replaced.
RECORDED_REALISTIC = [
    (0, 16, True, 'ipmmgb eugn wyf.', 1.9558956868333113),
    (0, 16, False, 'irprmxmvgob ezugkn wylu', 16.108359913819783),
    (0, 64, True, 'ipmmgb eugn wyf.', 2.597432421341873),
    (0, 64, False, 'irprmxmvgob ceugkn wylu', 16.295133531656806),
    (1, 16, True, 'ow gtt xrios.', 8.394369630998664),
    (1, 16, False, 'obzuw gztdt xriraoks .', 15.942578026883861),
    (1, 64, True, 'ow gtt xrios.', 9.326145359432903),
    (1, 64, False, 'obzuw gmtdt xriqoks .', 18.08190988331671),
    (2, 16, True, 'etwao bdm eve.', 10.352265264756046),
    (2, 16, False, 'etwsuao rbdm lhervex.p', 16.925394836724433),
    (2, 64, True, 'etwao bdm eve.', 10.357365313853013),
    (2, 64, False, 'etwizao cpbdm lhervex.p', 17.608074772423134),
    (3, 16, True, 'tl dqxdj iogjl.', 10.038489806619703),
    (3, 16, False, 'tswalb rdqxdaj wiogmjzl.', 18.554910626275706),
    (3, 64, True, 'tl dqxdj iogjl.', 10.365103585063103),
    (3, 64, False, 'tswalb rdqxdaj wiogmjzl.', 18.63616347508642),
    (4, 16, True, 'dam wdm owl.', 2.0015851201867823),
    (4, 16, False, 'rz pbnsokmfj.unepceaf', 15.748059352278522),
    (4, 64, True, 'gt anua yx noy.', 4.938330242007676),
    (4, 64, False, 'rz pbnsp.mfj.unevweaf', 16.603268440284644),
    (5, 16, True, 'gqm rk hyonj or.', 9.898922172331536),
    (5, 16, False, 'eagaqm rk hyoanjcjbu orx.', 18.62358619120391),
    (5, 64, True, 'gqm rk hyonj or.', 9.899166449836388),
    (5, 64, False, 'ewgaqm rk hyoenjcjbu orx.', 18.910239940178233),
]


def _realistic_cases():
    rng = np.random.default_rng(4242)
    alphabet = "abcdefghijklmnopqrstuvwxyz ."
    letters = list(alphabet[:26])

    def line():
        words = ("".join(rng.choice(letters, size=rng.integers(2, 7)))
                 for _ in range(rng.integers(2, 5)))
        return " ".join(words) + "."

    corpus = [line() for _ in range(150)]
    lm = build_lm(corpus, order=5, discount=0.1, extra_chars=alphabet)
    T, L = 50, lm.vocab.emit_size
    mats = []
    for _ in range(6):
        ids = lm.vocab.encode(corpus[rng.integers(len(corpus))][:16])
        path = np.zeros(T, dtype=int)
        path[np.sort(rng.choice(T, size=len(ids), replace=False))] = ids
        logits = rng.normal(0.0, 1.0, (T, L))
        logits[np.arange(T), path] += 5.0
        mats.append(logits - np.logaddexp.reduce(logits, axis=1, keepdims=True))
    return lm, mats


def test_realistic_decodes_match_recorded_output():
    lm, mats = _realistic_cases()
    assert lm.vocab.emit_size == 29
    for i, beam, with_lm, text, want in RECORDED_REALISTIC:
        cfg = DecoderConfig(emission_weight=0.4, prior_scale=0.5, beam_width=beam)
        ids, score = lm_beam_decode(mats[i], lm if with_lm else None,
                                    estimate_priors([mats[i]]), cfg)
        assert (lm.vocab.decode(ids), score) == (text, want)


# -- the array-native search against the scalar reference ----------------------------

REFERENCE_LMS = [build_lm(["abcab", "cab", "bca a", "aab c"], order=order, discount=0.1)
                 for order in (1, 3)]


@settings(max_examples=300, deadline=None)
@given(T=st.integers(1, 20), beam=st.sampled_from([1, 2, 3, 8, 64]),
       lm=st.sampled_from([None] + REFERENCE_LMS),
       rows=st.sampled_from(["peaked", "flat", "-inf", "uniform"]),
       w=st.sampled_from([0.0, 0.4, 1.0]), alpha=st.sampled_from([0.0, 0.5]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_decoder_equals_scalar_reference(T, beam, lm, rows, w, alpha, seed):
    rng = np.random.default_rng(seed)
    L = REFERENCE_LMS[0].vocab.emit_size
    logits = rng.normal(0.0, 0.3 if rows == "flat" else 4.0, (T, L))
    if rows == "uniform":
        logits[:] = 0.0
    if rows == "-inf":
        dead = rng.random((T, L)) < 0.4
        dead[np.arange(T), rng.integers(0, L, T)] = False
        logits[dead] = -math.inf
    post = logits - np.logaddexp.reduce(logits, axis=1, keepdims=True)
    priors = estimate_priors([post])
    cfg = DecoderConfig(emission_weight=w, prior_scale=alpha, beam_width=beam)
    ids, score = lm_beam_decode(post, lm, priors, cfg)
    want_ids, want_score = beam_decode_reference(post, lm, priors, cfg)
    assert ids == want_ids
    assert score == want_score


def test_zero_emission_weight_keeps_impossible_labels_out():
    rng = np.random.default_rng(21)
    lm = REFERENCE_LMS[1]
    L = lm.vocab.emit_size
    cfg = DecoderConfig(emission_weight=0.0, prior_scale=0.5, beam_width=8)
    for model in (None, lm):
        for _ in range(20):
            logits = rng.normal(0.0, 2.0, (6, L))
            logits[rng.random((6, L)) < 0.3] = -math.inf
            logits[:, 0] = 0.0
            logits[:, 2] = -math.inf
            post = logits - np.logaddexp.reduce(logits, axis=1, keepdims=True)
            ids, score = lm_beam_decode(post, model, estimate_priors([post]), cfg)
            assert math.isfinite(score)
            assert 2 not in ids
            # every emitted id has a possible frame of its own, in order
            frames = iter(range(6))
            assert all(any(post[t, c] > -math.inf for t in frames) for c in ids)


@pytest.mark.parametrize("weights", [{"prior_scale": 1e308}, {"emission_weight": 1e308},
                                     {"prior_scale": 1e306}])
@pytest.mark.parametrize("impossible", [False, True], ids=["finite", "-inf"])
def test_overflowing_weights_raise_numeric_error(weights, impossible):
    post = np.log(np.tile([0.97, 0.01, 0.01, 0.01], (5, 1)))
    if impossible:
        post[:, 0] = np.log(0.98)
        post[:, 3] = -math.inf
    # at prior_scale 1e306 only the last label's prior term overflows: with a
    # -inf posterior there, every possible label's emission stays finite
    priors = np.array([0.96, 0.02, 0.02, 1e-300])
    lm = build_lm(["abc"], order=2, discount=0.1)
    for model in (None, lm):
        with pytest.raises(NumericError, match="emission_weight .* prior_scale"):
            lm_beam_decode(post, model, priors, DecoderConfig(**weights))


# -- LM override of a mildly wrong emission -----------------------------------------

def test_lm_overrides_transposed_characters():
    lm = build_lm(["the"] * 50, order=3, discount=0.1)
    v = lm.vocab
    assert v.chars == ("e", "h", "t")
    e, h, t = v.id_of("e"), v.id_of("h"), v.id_of("t")
    rows = np.zeros((3, 4))
    rows[0, [0, e, h, t]] = [0.1, 0.1, 0.1, 0.7]
    rows[1, [0, e, h, t]] = [0.1, 0.4, 0.3, 0.2]
    rows[2, [0, e, h, t]] = [0.1, 0.3, 0.4, 0.2]
    post = np.log(rows)
    priors = uniform_priors(4)

    assert v.decode(greedy_decode(post)) == "teh"  # emissions alone prefer the transposition

    cfg = DecoderConfig(emission_weight=0.4, prior_scale=0.0, beam_width=64)
    ids, _ = lm_beam_decode(post, lm, priors, cfg)
    assert v.decode(ids) == "the"
    want_seq, _ = oracle_best(post, lm, priors, 0.4, 0.0)
    assert v.decode(want_seq) == "the"


# -- errors ---------------------------------------------------------------------

def test_empty_posterior_matrix_rejected():
    with pytest.raises(ValueError):
        lm_beam_decode(np.zeros((0, 3)), None, uniform_priors(3), DecoderConfig())


def test_lm_vocab_size_mismatch(rng):
    lm = build_lm(["ab"], order=2, discount=0.1)  # emit_size 3
    post = random_log_posteriors(rng, 2, 4)
    with pytest.raises(ValueError):
        lm_beam_decode(post, lm, uniform_priors(4), DecoderConfig())


def test_bad_priors_rejected(rng):
    post = random_log_posteriors(rng, 2, 3)
    with pytest.raises(ValueError):
        lm_beam_decode(post, None, np.array([0.5, 0.5, 0.5]), DecoderConfig())
