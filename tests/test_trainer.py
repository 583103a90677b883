import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import seqtransfer.recognizer as recognizer_mod
import seqtransfer.trainer as trainer_mod
from seqtransfer import (AdamConfig, AdamState, DecoderConfig, NgramLM, NumericError,
                         RecognizerConfig, Sample, TrainConfig, Vocabulary, adam_step, beam_search,
                         build_lm, cer, composite_loss, ctc_loss, estimate_priors, forward,
                         forward_batch, forward_chunks, greedy_decode, greedy_eval, hybrid_train,
                         init_recognizer, lm_beam_decode, make_language_pair, make_pseudo_label,
                         min_frames, prior_pass, render, sample_corpus, sample_text, train_source,
                         write_metrics)
from seqtransfer.synth_data import STOCK_SHARED_CHARS, STOCK_TARGET_EXTRA
from seqtransfer.recognizer import FORWARD_CHUNK
from seqtransfer.trainer import MetricsRow, decode_dataset
from conftest import (composite_loss_reference, hybrid_train_reference, oracle_best,
                      prior_pass_reference, uniform_priors)

VOCAB = Vocabulary("ab")


def tiny_model(seed=0, dtype=np.float64):
    cfg = RecognizerConfig(label_count=3, input_dim=3, context_radius=1,
                           feature_dim=4, recurrent_dim=3, seed=seed)
    return init_recognizer(cfg, VOCAB, dtype=dtype)


def head_losses(model, frames, labels):
    aux, main, _ = forward(model, frames)
    return ctc_loss([aux], [labels])[0][0], ctc_loss([main], [labels])[0][0]


# -- composite loss ------------------------------------------------------------

def test_composite_is_convex_combination(rng):
    m = tiny_model()
    frames = rng.normal(0, 1, (5, 3))
    labels = (1, 2)
    aux_l, main_l = head_losses(m, frames, labels)
    for lam in (0.0, 1.0, 0.25):
        loss, _ = composite_loss(m, *forward_batch(m, [frames]), [labels], lam)
        assert loss == pytest.approx(lam * aux_l + (1 - lam) * main_l, rel=1e-12)


def test_composite_grads_scale_with_lambda(rng):
    m = tiny_model()
    frames = rng.normal(0, 1, (5, 3))
    _, g0 = composite_loss(m, *forward_batch(m, [frames]), [(1,)], 0.0)
    # with lambda 0 the aux head contributes nothing
    assert np.all(g0["aux_w"] == 0.0)
    _, g1 = composite_loss(m, *forward_batch(m, [frames]), [(1,)], 1.0)
    assert np.all(g1["main_w"] == 0.0)


@pytest.mark.parametrize("labels, message", [
    ((), "empty label sequence"),
    ((0, 1), "blank id inside a label sequence"),
    ((9,), "label id 9 out of range for 4 labels"),
    ((1, 1, 1, 1), "6 frames cannot align 4 labels (need at least 7)"),
])
def test_composite_loss_rejects_labels_as_ctc_loss_does(rng, labels, message):
    cfg = RecognizerConfig(label_count=4, input_dim=3, context_radius=1,
                           feature_dim=4, recurrent_dim=3)
    m = init_recognizer(cfg, Vocabulary("abc"), dtype=np.float64)
    aux, main, cache = forward_batch(m, [rng.normal(0, 1, (6, 3))])
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ctc_loss(main, [labels])
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        composite_loss(m, aux, main, cache, [labels], 0.25)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@settings(max_examples=20, deadline=None)
@given(labels=st.lists(st.lists(st.integers(1, 2), min_size=1, max_size=4),
                       min_size=1, max_size=8),
       extra=st.lists(st.integers(0, 5), min_size=8, max_size=8),
       seed=st.integers(0, 2 ** 32 - 1))
def test_batch_gradient_is_the_in_order_sum_of_sample_gradients(dtype, labels, extra, seed):
    m = tiny_model(seed % 100, dtype=dtype)
    rng = np.random.default_rng(seed)
    frames = [rng.normal(0, 1, (min_frames(y) + e, 3)).astype(dtype)
              for y, e in zip(labels, extra)]
    loss, grads = composite_loss(m, *forward_batch(m, frames), labels, 0.25)
    loss_sum, total = 0.0, None
    for f, y in zip(frames, labels):
        one_loss, one = composite_loss(m, *forward_batch(m, [f]), [y], 0.25)
        loss_sum += one_loss
        if total is None:
            total = one
        else:
            for k in total:
                total[k] += one[k]
    n = len(frames)
    assert loss == loss_sum / n
    for k in grads:
        assert np.array_equal(grads[k], total[k] / n), k


# -- adam -------------------------------------------------------------------------

def test_zero_gradients_leave_params_unchanged():
    params = {"x": np.array([1.0, -2.0])}
    st = AdamState(params)
    adam_step(params, {"x": np.zeros(2)}, st, AdamConfig())
    assert np.array_equal(params["x"], [1.0, -2.0])
    assert st.step == 1


def test_first_unit_gradient_step_moves_by_lr():
    params = {"x": np.array([5.0])}
    st = AdamState(params)
    adam_step(params, {"x": np.ones(1)}, st, AdamConfig(lr=1e-3))
    # mhat = vhat = 1 after bias correction, so the step is lr/(1 + eps)
    assert params["x"][0] == pytest.approx(5.0 - 1e-3, abs=1e-10)


def test_two_steps_differ_from_one_doubled_step():
    # gradient of x^2/2 re-evaluated at the moved point: the second step's
    # moment state no longer matches plain lr scaling
    def run(lr, steps):
        params = {"x": np.array([1.0])}
        st = AdamState(params)
        for _ in range(steps):
            adam_step(params, {"x": params["x"].copy()}, st, AdamConfig(lr=lr))
        return params["x"][0]

    a, b = run(1e-3, 2), run(2e-3, 1)
    assert abs(a - b) > 1e-9


def test_adam_shape_mismatch():
    params = {"x": np.zeros(3)}
    st = AdamState(params)
    with pytest.raises(ValueError):
        adam_step(params, {"x": np.zeros(2)}, st, AdamConfig())


# -- train_source --------------------------------------------------------------------

def source_samples(n=10, seed=4, noise=0.15):
    spec, _ = make_language_pair(11, STOCK_SHARED_CHARS, target_extra=STOCK_TARGET_EXTRA,
                                 noise_sigma=noise)
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        text = sample_text(spec, int(rng.integers(4, 8)), rng)
        out.append(Sample(f"s{i}", render(text, spec, rng), text))
    return out, Vocabulary(set(spec.chars))


@pytest.fixture(scope="module")
def overfit_run():
    samples, vocab = source_samples()
    cfg = RecognizerConfig(label_count=vocab.emit_size, input_dim=16, context_radius=2,
                           feature_dim=48, recurrent_dim=24, seed=1)
    model = init_recognizer(cfg, vocab)
    tcfg = TrainConfig(epochs=100, batch_size=5, seed=2, adam=AdamConfig(lr=3e-3))
    res = train_source(model, samples, tcfg)
    return model, samples, res


def test_overfit_reaches_zero_cer(overfit_run):
    model, samples, res = overfit_run
    assert len(res.step_losses) == 200
    assert greedy_eval(model, samples) == 0.0


def test_losses_strictly_positive(overfit_run):
    _, _, res = overfit_run
    assert all(l > 0.0 for l in res.step_losses)


def test_one_metrics_row_per_epoch_per_split(overfit_run):
    _, _, res = overfit_run
    assert [r.iteration for r in res.rows] == list(range(100))
    assert {r.split for r in res.rows} == {"train"}


def test_same_seed_reproduces_loss_trajectory():
    samples, vocab = source_samples(n=6)
    runs = []
    for _ in range(2):
        cfg = RecognizerConfig(label_count=vocab.emit_size, input_dim=16, context_radius=2,
                               feature_dim=8, recurrent_dim=4, seed=1)
        model = init_recognizer(cfg, vocab)
        res = train_source(model, samples, TrainConfig(epochs=3, batch_size=4, seed=9))
        runs.append(res)
    assert runs[0].step_losses == runs[1].step_losses


def test_unalignable_samples_are_skipped_and_counted(rng):
    m = tiny_model(dtype=np.float32)
    good = Sample("g", rng.normal(0, 1, (8, 3)).astype(np.float32), "ab")
    short = Sample("s", rng.normal(0, 1, (1, 3)).astype(np.float32), "ab")
    res = train_source(m, [good, short],
                       TrainConfig(epochs=2, batch_size=2, seed=0))
    assert res.skipped == 2  # once per epoch


def test_empty_training_set_rejected():
    m = tiny_model()
    with pytest.raises(ValueError):
        train_source(m, [], TrainConfig(epochs=1))
    unlabeled = [Sample("u", np.zeros((3, 3), dtype=np.float32), None)]
    with pytest.raises(ValueError):
        train_source(m, unlabeled, TrainConfig(epochs=1))


def test_decode_dataset_rejects_an_lm_of_another_vocabulary(rng):
    cfg = RecognizerConfig(label_count=7, input_dim=3, context_radius=1, feature_dim=4,
                           recurrent_dim=3, seed=0)
    model = init_recognizer(cfg, Vocabulary(" abcde"))
    lm = build_lm(["abcdz"], order=2, discount=0.1, vocab=Vocabulary(" abcdz"))
    samples = [Sample(f"s{i}", rng.normal(0, 1, (6, 3)), None) for i in range(2)]
    with pytest.raises(ValueError, match="^the LM and the model use different vocabularies$"):
        decode_dataset(model, samples, lm)


def test_val_rows_logged(rng):
    samples, vocab = source_samples(n=4)
    cfg = RecognizerConfig(label_count=vocab.emit_size, input_dim=16, context_radius=1,
                           feature_dim=6, recurrent_dim=3, seed=0)
    model = init_recognizer(cfg, vocab)
    res = train_source(model, samples[:3], TrainConfig(epochs=2, batch_size=2, seed=0),
                       val_set=samples[3:])
    assert [(r.iteration, r.split) for r in res.rows] == \
        [(0, "train"), (0, "val"), (1, "train"), (1, "val")]
    assert all(math.isnan(r.loss) for r in res.rows if r.split == "val")


@pytest.mark.parametrize("loop", ["train_source", "hybrid_train"])
def test_unlabeled_val_set_is_rejected_before_the_first_step(monkeypatch, loop):
    model, src, tgt, lm, tcfg, dcfg = hybrid_fixture(lm_corpus=["ab"])
    val = [Sample("v", src[0].frames, None)]

    def refuse(*args, **kwargs):
        raise AssertionError("a training step ran")

    monkeypatch.setattr(trainer_mod, "_update", refuse)
    with pytest.raises(ValueError, match="^validation set has no labeled samples$"):
        if loop == "train_source":
            train_source(model, src, tcfg, val_set=val)
        else:
            hybrid_train(model, src, tgt, lm, tcfg, dcfg, val_set=val)


def test_update_trains_on_exactly_the_usable_slots(rng, monkeypatch):
    """_update is the one gate: a labeled slot too short for its ids and a
    target slot whose decode is empty are dropped, the rest train."""
    m = tiny_model()
    frames = [rng.normal(0, 1, (t, 3)) for t in (6, 1, 5, 4)]
    batch = [(frames[0], (1, 2)), (frames[1], (1, 2)), (frames[2], None), (frames[3], None)]
    decoded = []

    def fake_beam_search(mats, *pseudo):
        decoded.append([len(x) for x in mats])
        return [(() if len(x) == 5 else (2, 1), 0.0) for x in mats]

    trained = []
    real_loss = trainer_mod.composite_loss

    def spy(model, aux, main, cache, labels, w):
        trained.append(([len(x) for x in main], list(labels)))
        return real_loss(model, aux, main, cache, labels, w)

    monkeypatch.setattr(trainer_mod, "beam_search", fake_beam_search)
    monkeypatch.setattr(trainer_mod, "composite_loss", spy)
    cfg = TrainConfig(seed=0)
    want, _ = composite_loss_reference(tiny_model(), [frames[0], frames[3]], [(1, 2), (2, 1)],
                                       cfg.aux_loss_weight)
    loss, labels = trainer_mod._update(m, batch, cfg, AdamState(m.params))
    assert decoded == [[5, 4]]
    assert trained == [([6, 4], [(1, 2), (2, 1)])]
    assert labels == [(1, 2), None, None, (2, 1)]
    assert loss == want
    # a batch with no usable slot takes no step
    before = {k: v.copy() for k, v in m.params.items()}
    assert trainer_mod._update(m, batch[1:3], cfg, AdamState(m.params)) == (None, [None, None])
    assert len(trained) == 1
    assert all(np.array_equal(before[k], m.params[k]) for k in before)


def test_non_finite_loss_raises(rng, monkeypatch):
    m = tiny_model(dtype=np.float32)
    sample = Sample("g", rng.normal(0, 1, (6, 3)).astype(np.float32), "ab")

    def bad_loss(model, aux, main, cache, labels, lam):
        zeros = {k: np.zeros_like(v) for k, v in model.params.items()}
        return math.inf, zeros

    monkeypatch.setattr(trainer_mod, "composite_loss", bad_loss)
    with pytest.raises(NumericError):
        train_source(m, [sample], TrainConfig(epochs=1, batch_size=1, seed=0))


@pytest.mark.parametrize("lr, grad, name", [(1e39, 1.0, "feat_w"), (1e-3, math.inf, "fwd_u"),
                                           (1e-3, math.nan, "fwd_u")],
                         ids=["overflow", "inf-gradient", "nan-gradient"])
def test_non_finite_parameter_after_a_step_raises(rng, monkeypatch, lr, grad, name):
    """A step with a finite loss that leaves a parameter non-finite, by an
    update float32 cannot hold or a non-finite gradient, raises naming the
    first such parameter, and warns of nothing on the way."""
    m = tiny_model(dtype=np.float32)
    sample = Sample("g", rng.normal(0, 1, (6, 3)).astype(np.float32), "ab")

    def finite_loss(model, aux, main, cache, labels, lam):
        grads = {k: np.ones(v.shape) for k, v in model.params.items()}
        grads["fwd_u"][1, 2] = grad
        return 1.0, grads

    monkeypatch.setattr(trainer_mod, "composite_loss", finite_loss)
    cfg = TrainConfig(epochs=1, batch_size=1, seed=0, adam=AdamConfig(lr=lr))
    with pytest.raises(NumericError, match=f"^parameter {name} went non-finite at step 1$"):
        train_source(m, [sample], cfg)


# -- pseudo-labels ---------------------------------------------------------------------

def log_rows(rows):
    return np.log(np.asarray(rows, dtype=np.float64))


def pseudo_label(main, lm, priors, dcfg):
    """A target slot's label: its decode, through the acceptance rule."""
    return make_pseudo_label(lm_beam_decode(main, lm, priors, dcfg)[0], main)


def test_pseudo_label_reads_off_clean_posteriors():
    eps = 1e-9
    rows = [[eps, 1 - 2 * eps, eps], [1 - 2 * eps, eps, eps], [eps, eps, 1 - 2 * eps]]
    lm = build_lm(["ab", "ba", "aa", "bb"], order=2, discount=0.1)
    ids = pseudo_label(log_rows(rows), lm, uniform_priors(3), DecoderConfig(beam_width=16))
    assert ids == (1, 2)


def test_pseudo_label_empty_decode_is_none():
    eps = 1e-9
    rows = [[1 - 2 * eps, eps, eps]] * 4
    ids = pseudo_label(log_rows(rows), None, uniform_priors(3), DecoderConfig(beam_width=16))
    assert ids is None


def test_pseudo_label_acceptance_rule():
    main = np.zeros((3, 3))
    assert make_pseudo_label((), main) is None
    # two repeats of one id need a blank between them: 3 frames fit (1, 1) but not (1, 1, 2)
    assert make_pseudo_label((1, 1), main) == (1, 1)
    assert make_pseudo_label((1, 1, 2), main) is None
    assert make_pseudo_label((1, 2, 1), main) == (1, 2, 1)


def test_lm_resolves_accent_ambiguity():
    # the emission head cannot separate the accented variant from its base
    # character, but an LM whose corpus uses the accent tips the decode
    vocab = Vocabulary("eé")
    lm = build_lm(["éé", "éé", "é"], order=2, discount=0.1, vocab=vocab)
    e_id, acc_id = vocab.id_of("e"), vocab.id_of("é")
    row = np.zeros(3)
    row[0] = 0.2
    row[e_id] = 0.41  # base char marginally ahead
    row[acc_id] = 0.39
    dcfg = DecoderConfig(emission_weight=0.4, prior_scale=0.0, beam_width=16)
    ids = pseudo_label(log_rows([row]), lm, uniform_priors(3), dcfg)
    assert vocab.decode(ids) == "é"
    post = np.log(np.array([row]))
    want_seq, _ = oracle_best(post, lm, uniform_priors(3), 0.4, 0.0)
    assert vocab.decode(want_seq) == "é"


# -- chunked forwards -----------------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(lengths=st.lists(st.integers(1, 40), min_size=1, max_size=20),
       size=st.integers(1, 9), seed=st.integers(0, 2 ** 32 - 1))
@example(lengths=[(7 * i) % 40 + 1 for i in range(FORWARD_CHUNK + 9)], size=5, seed=11)
def test_chunked_forwards_match_per_sample_and_arrival_order_loops(lengths, size, seed):
    """forward_chunks returns each sample's main posteriors, in input order,
    bit-identical to a one-at-a-time forward, in chunks of FORWARD_CHUNK (two
    of them in the example) and of size; greedy_eval, prior_pass and
    decode_dataset read exactly what their old loops read at either chunk."""
    m = tiny_model(seed % 7, dtype=np.float32)
    rng = np.random.default_rng(seed)
    frames = [rng.normal(0, 1, (t, 3)).astype(np.float32) for t in lengths]
    alone = [forward(m, f)[1] for f in frames]
    texts = ["".join(rng.choice(list("ab"), int(rng.integers(1, 5)))) for _ in frames]
    samples = [Sample(f"s{i}", f, t) for i, (f, t) in enumerate(zip(frames, texts))]
    old_hyps = []
    for lo in range(0, len(samples), size):  # arrival-order chunks
        mains = forward_batch(m, frames[lo:lo + size], aux=False)[1]
        old_hyps += [m.vocab.decode(ids) for ids in greedy_decode(mains)]
    pcfg = TrainConfig(batch_size=size, prior_pass_batches=3)
    want = prior_pass_reference(m, samples, pcfg, np.random.default_rng(seed), floor=1e-6)
    dcfgs = [DecoderConfig(beam_width=4), DecoderConfig(beam_width=2, prior_scale=0.0)]
    lm = build_lm(["ab", "ba", "aab"], order=2, discount=0.1, vocab=m.vocab)
    lm_priors = estimate_priors(alone, floor=dcfgs[0].prior_floor)

    for chunk in (FORWARD_CHUNK, size):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(recognizer_mod, "FORWARD_CHUNK", chunk)
            got = forward_chunks(m, frames)
            assert len(got) == len(frames)
            assert all(a.tobytes() == b.tobytes() for a, b in zip(got, alone))
            assert forward_chunks(m, frames, greedy_decode) == greedy_decode(alone)
            assert greedy_eval(m, samples) == cer(texts, old_hyps).cer
            priors = prior_pass(m, samples, pcfg, np.random.default_rng(seed), floor=1e-6)
            assert priors.tobytes() == want.tobytes()
            assert decode_dataset(m, samples, None, dcfgs) == [
                [m.vocab.decode(ids) for ids in greedy_decode(alone)]] * 2
            assert decode_dataset(m, samples, lm, dcfgs) == [
                [m.vocab.decode(lm_beam_decode(a, lm, lm_priors, d)[0]) for a in alone]
                for d in dcfgs]


# -- prior pass -----------------------------------------------------------------------

def test_prior_pass_changes_no_parameter(rng):
    m = tiny_model(dtype=np.float32)
    samples = [Sample(f"t{i}", rng.normal(0, 1, (5, 3)).astype(np.float32), None)
               for i in range(6)]
    before = {k: v.copy() for k, v in m.params.items()}
    priors = prior_pass(m, samples, TrainConfig(prior_pass_batches=3, batch_size=4, seed=0),
                        np.random.default_rng(0), floor=1e-6)
    for k in before:
        assert np.array_equal(before[k], m.params[k])
    assert priors.sum() == pytest.approx(1.0, abs=1e-9)


# -- hybrid training --------------------------------------------------------------------

def hybrid_fixture(seed=0, n_src=8, n_tgt=8, rho=0.5, lm_corpus=None, tgt_seed=77):
    samples, vocab = source_samples(n=n_src)
    rng = np.random.default_rng(tgt_seed)
    tgt = [Sample(f"t{i}", rng.normal(0, 1, (7, 16)).astype(np.float32), None)
           for i in range(n_tgt)]
    cfg = RecognizerConfig(label_count=vocab.emit_size, input_dim=16, context_radius=1,
                           feature_dim=8, recurrent_dim=4, seed=3)
    model = init_recognizer(cfg, vocab)
    lm = build_lm(lm_corpus, order=2, discount=0.1, vocab=vocab) if lm_corpus else None
    tcfg = TrainConfig(batch_size=4, source_fraction=rho, outer_iters=2,
                       prior_pass_batches=2, train_pass_batches=3, seed=seed)
    dcfg = DecoderConfig(beam_width=4)
    return model, samples, tgt, lm, tcfg, dcfg


def test_hybrid_runs_and_logs(rng):
    model, src, tgt, lm, tcfg, dcfg = hybrid_fixture(lm_corpus=["ab", "ba"])
    res = hybrid_train(model, src, tgt, lm, tcfg, dcfg)
    assert len(res.prior_history) == 2
    assert [r.iteration for r in res.rows] == [0, 1]
    for priors in res.prior_history:
        assert priors.sum() == pytest.approx(1.0, abs=1e-9)


def test_hybrid_rho_one_ignores_target_entirely():
    outs = []
    for tgt_seed, corpus in ((77, ["ab", "ba"]), (123, ["bb", "aa"])):
        model, src, tgt, lm, tcfg, dcfg = hybrid_fixture(
            rho=1.0, lm_corpus=corpus, tgt_seed=tgt_seed)
        hybrid_train(model, src, tgt, lm, tcfg, dcfg)
        outs.append(model.params)
    for k in outs[0]:
        assert np.array_equal(outs[0][k], outs[1][k])


def test_hybrid_same_seed_is_reproducible():
    runs = []
    for _ in range(2):
        model, src, tgt, lm, tcfg, dcfg = hybrid_fixture(lm_corpus=["ab"])
        res = hybrid_train(model, src, tgt, lm, tcfg, dcfg)
        runs.append((res.step_losses, model.params))
    assert runs[0][0] == runs[1][0]
    for k in runs[0][1]:
        assert np.array_equal(runs[0][1][k], runs[1][1][k])


def test_hybrid_never_mutates_stored_transcriptions():
    model, src, tgt, lm, tcfg, dcfg = hybrid_fixture(lm_corpus=["ab"])
    src_texts = [s.transcription for s in src]
    hybrid_train(model, src, tgt, lm, tcfg, dcfg)
    assert [s.transcription for s in src] == src_texts
    assert all(s.transcription is None for s in tgt)


def test_hybrid_counts_source_only_steps():
    model, src, tgt, lm, tcfg, dcfg = hybrid_fixture()
    # a huge blank bias makes every target decode come back empty
    model.params["main_b"][0] = 50.0
    res = hybrid_train(model, src, tgt, None, tcfg, dcfg)
    steps = tcfg.outer_iters * tcfg.train_pass_batches
    assert res.source_only_steps == steps
    assert res.skipped_decodes == steps * 2  # two target slots per batch


def test_hybrid_rejects_vocab_mismatch():
    model, src, tgt, _, tcfg, dcfg = hybrid_fixture()
    other = build_lm(["xy"], order=2, discount=0.1)
    with pytest.raises(ValueError):
        hybrid_train(model, src, tgt, other, tcfg, dcfg)


def test_hybrid_rejects_empty_target():
    model, src, _, lm, tcfg, dcfg = hybrid_fixture(lm_corpus=["ab"])
    with pytest.raises(ValueError):
        hybrid_train(model, src, [], lm, tcfg, dcfg)


def _ragged_targets(seed, lengths=(2, 3, 6, 4, 7, 2, 8, 3)):
    rng = np.random.default_rng(seed)
    return [Sample(f"t{i}", rng.normal(0, 1, (t, 16)).astype(np.float32), None)
            for i, t in enumerate(lengths)]


def _long_label_below_five_frames(post, lm, priors, dcfg):
    """lm_beam_decode, except that a posterior of fewer than 5 frames gets
    four repeats of one id, which need 7 frames: a label too long for its
    target."""
    ids, score = lm_beam_decode(post, lm, priors, dcfg)
    return ((1, 1, 1, 1) if len(post) < 5 else ids), score


def _long_labels_below_five_frames(mats, lm, priors, dcfg):
    """beam_search, with _long_label_below_five_frames's rule per matrix."""
    return [((1, 1, 1, 1) if len(post) < 5 else ids, score)
            for post, (ids, score) in zip(mats, beam_search(mats, lm, priors, dcfg))]


@pytest.mark.parametrize("case", ["lm", "no_lm", "uniform_lm", "blank_bias", "too_short",
                                  "rho_zero", "rho_one", "bad_source"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_one_forward_hybrid_step_matches_two_forward_reference(monkeypatch, case, seed):
    """Pseudo-labels read off each step's one forward, and the kept slots'
    slice of its cache, train exactly as when every target slot was
    forwarded alone to be labeled and the kept ones again to train."""
    rho = {"rho_zero": 0.0, "rho_one": 1.0}.get(case, 0.5)
    corpus = None if case in ("no_lm", "uniform_lm", "blank_bias") else ["ab", "ba"]
    decode = _long_label_below_five_frames if case == "too_short" else lm_beam_decode
    batched = _long_labels_below_five_frames if case == "too_short" else beam_search
    kept = []  # slots per update
    src_dropped = []  # labeled slots _update dropped, per update
    real_loss, real_update = trainer_mod.composite_loss, trainer_mod._update

    def spy(model, aux, main, cache, labels, w):
        kept.append(len(main))
        return real_loss(model, aux, main, cache, labels, w)

    def update_spy(model, batch, cfg, state, pseudo=()):
        loss, labels = real_update(model, batch, cfg, state, pseudo)
        src_dropped.append(sum(ids is not None and label is None
                               for (_, ids), label in zip(batch, labels)))
        return loss, labels

    runs = []
    for side in ("change", "reference"):
        model, src, _, lm, _, dcfg = hybrid_fixture(seed=seed, rho=rho, lm_corpus=corpus)
        tgt = _ragged_targets(seed + 50)
        tcfg = TrainConfig(batch_size=5, source_fraction=rho, outer_iters=2,
                           prior_pass_batches=2, train_pass_batches=10, seed=seed)
        if case == "uniform_lm":  # every character and EOS equally likely everywhere
            usable = list(range(1, model.vocab.emit_size)) + [model.vocab.eos_id]
            lm = NgramLM(model.vocab, 1, {(c,): -math.log(len(usable)) for c in usable}, {})
        if case == "blank_bias":  # a mix of empty and non-empty decodes, no LM
            model.params["main_b"][0] = 6.0
        if case == "bad_source":  # a transcription too long for its frames, and an empty one
            src[1] = Sample(src[1].sample_id, src[1].frames[:2], src[1].transcription)
            src[5] = Sample(src[5].sample_id, src[5].frames, "")
        if side == "change":
            with monkeypatch.context() as mp:
                mp.setattr(trainer_mod, "beam_search", batched)
                mp.setattr(trainer_mod, "composite_loss", spy)
                mp.setattr(trainer_mod, "_update", update_spy)
                res = hybrid_train(model, src, tgt, lm, tcfg, dcfg)
            runs.append((res.step_losses, res.prior_history, res.source_only_steps,
                         res.skipped_decodes, param_digest(model)))
        else:
            runs.append(hybrid_train_reference(model, src, tgt, lm, tcfg, dcfg, decode)
                        + (param_digest(model),))
    (losses, priors, source_only, skipped, digest), want = runs
    assert losses and losses == want[0]
    assert [p.tobytes() for p in priors] == [p.tobytes() for p in want[1]]
    assert (source_only, skipped, digest) == want[2:]
    if case == "too_short":
        # 2 source and 3 target slots a step: some steps keep a part of the
        # target slots, and some none
        assert source_only > 0 and {3, 4} & set(kept)
    if case in ("uniform_lm", "blank_bias"):
        assert skipped > 0  # empty decodes
    if case == "rho_one":
        assert skipped == 0
    assert (sum(src_dropped) > 0) == (case == "bad_source")


def param_digest(model):
    blob = b"".join(np.ascontiguousarray(v, dtype="<f4").tobytes()
                    for v in model.params.values())
    return hashlib.sha256(blob).hexdigest()[:16]


def test_training_matches_recorded_output():
    """A tiny train_source and hybrid_train pinned to the step losses and
    final parameter bytes that the previous recognizer and trainer
    produced; a refactor of either must not move a bit."""
    src_spec, tgt_spec = make_language_pair(11, STOCK_SHARED_CHARS,
                                            target_extra=STOCK_TARGET_EXTRA)
    vocab = Vocabulary(set(src_spec.chars) | set(tgt_spec.chars))
    rng = np.random.default_rng(2024)

    def draw(spec, n, labeled):
        texts = [sample_text(spec, int(rng.integers(3, 6)), rng) for _ in range(n)]
        return [Sample(f"{spec.name}{i}", render(t, spec, rng), t if labeled else None)
                for i, t in enumerate(texts)]

    src, tgt = draw(src_spec, 6, True), draw(tgt_spec, 6, False)
    cfg = RecognizerConfig(label_count=vocab.emit_size, input_dim=16, context_radius=1,
                           feature_dim=8, recurrent_dim=6, seed=5)
    model = init_recognizer(cfg, vocab)
    res = train_source(model, src, TrainConfig(epochs=2, batch_size=3, seed=1))
    assert res.step_losses == [57.532851274764404, 58.04288037173063,
                               68.10519456694446, 46.851198059513735]
    assert param_digest(model) == "1e3c9cc4aa9597b9"

    lm = build_lm(sample_corpus(tgt_spec, 30, (3, 6), rng), order=3, discount=0.1,
                  vocab=vocab)
    tcfg = TrainConfig(batch_size=4, outer_iters=1, prior_pass_batches=1,
                       train_pass_batches=2, seed=3)
    res = hybrid_train(model, src, tgt, lm, tcfg, DecoderConfig(beam_width=4))
    assert res.skipped_decodes == 0  # every target slot trained on a pseudo-label
    assert res.step_losses == [68.39847869564923, 69.25178526338932]
    assert param_digest(model) == "6945d445a1dc70cd"


def test_forward_only_passes_match_recorded_output(monkeypatch):
    """prior_pass priors and greedy_eval hypotheses of a default-size
    float32 model, pinned to what one-sample-at-a-time forwards produced
    (11 samples of 12 to 44 frames, so the batches mix lengths)."""
    spec, _ = make_language_pair(11, STOCK_SHARED_CHARS, target_extra=STOCK_TARGET_EXTRA)
    vocab = Vocabulary(spec.chars)
    rng = np.random.default_rng(31)
    texts = [sample_text(spec, int(rng.integers(2, 7)), rng) for _ in range(11)]
    samples = [Sample(f"s{i}", render(t, spec, rng), t) for i, t in enumerate(texts)]
    model = init_recognizer(RecognizerConfig(label_count=vocab.emit_size, input_dim=16, seed=5),
                            vocab)
    train_source(model, samples, TrainConfig(epochs=1, batch_size=4, seed=2))
    priors = prior_pass(model, samples, TrainConfig(batch_size=4, prior_pass_batches=3),
                        np.random.default_rng(3), floor=1e-6)
    assert hashlib.sha256(priors.tobytes()).hexdigest()[:16] == "6d343cb9adc2103d"

    seen = []
    real_cer = trainer_mod.cer
    monkeypatch.setattr(trainer_mod, "cer", lambda refs, hyps: seen.append(hyps) or
                        real_cer(refs, hyps))
    assert greedy_eval(model, samples) == 4.63265306122449
    assert seen[0][0] == "nimhcguqkjbivwqhij"
    assert hashlib.sha256("\n".join(seen[0]).encode()).hexdigest()[:16] == "71ee3427687ed91c"


# -- config validation / metrics --------------------------------------------------------

def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(aux_loss_weight=1.5)
    with pytest.raises(ValueError):
        TrainConfig(source_fraction=-0.1)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(outer_iters=0)


@pytest.mark.parametrize("field, value", [
    ("lr", math.nan), ("lr", math.inf), ("lr", -1.0), ("lr", 0.0),
    ("beta1", 1.0), ("beta1", -0.1), ("beta1", math.nan),
    ("beta2", 1.0), ("beta2", math.inf),
    ("eps", 0.0), ("eps", math.inf), ("eps", math.nan)])
def test_adam_config_rejects_out_of_range_fields(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be in"):
        AdamConfig(**{field: value})


def test_adam_config_accepts_range_edges():
    AdamConfig(lr=1e-300, beta1=0.0, beta2=0.0, eps=1e300)


def test_write_metrics_appends(tmp_path):
    p = tmp_path / "metrics.tsv"
    write_metrics([MetricsRow(0, "train", 1.25, 0.5)], p)
    write_metrics([MetricsRow(1, "val", math.nan, 0.25)], p)
    lines = p.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "0\ttrain\t1.25\t0.5"
    assert lines[1] == "1\tval\tnan\t0.25"
