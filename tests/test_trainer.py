import hashlib
import math

import numpy as np
import pytest

import seqtransfer.trainer as trainer_mod
from seqtransfer import (AdamConfig, AdamState, Dataset, DecoderConfig, NumericError,
                         RecognizerConfig, Sample, TrainConfig, Vocabulary, adam_step, build_lm,
                         composite_loss, ctc_loss, forward, greedy_eval, hybrid_train,
                         init_recognizer, make_language_pair, make_pseudo_label, prior_pass,
                         render, sample_corpus, sample_text, train_source, uniform_priors,
                         write_metrics)
from seqtransfer.synth_data import STOCK_SHARED_CHARS, STOCK_TARGET_EXTRA
from seqtransfer.trainer import MetricsRow
from conftest import oracle_best

VOCAB = Vocabulary("ab")


def tiny_model(seed=0, dtype=np.float64):
    cfg = RecognizerConfig(label_count=3, input_dim=3, context_radius=1,
                           feature_dim=4, recurrent_dim=3, seed=seed)
    return init_recognizer(cfg, VOCAB, dtype=dtype)


def head_losses(model, frames, labels):
    aux, main, _ = forward(model, frames)
    return ctc_loss(aux, labels)[0], ctc_loss(main, labels)[0]


# -- composite loss ------------------------------------------------------------

def test_composite_is_convex_combination(rng):
    m = tiny_model()
    frames = rng.normal(0, 1, (5, 3))
    labels = (1, 2)
    aux_l, main_l = head_losses(m, frames, labels)
    for lam in (0.0, 1.0, 0.25):
        loss, _ = composite_loss(m, frames, labels, lam)
        assert loss == pytest.approx(lam * aux_l + (1 - lam) * main_l, rel=1e-12)


def test_composite_grads_scale_with_lambda(rng):
    m = tiny_model()
    frames = rng.normal(0, 1, (5, 3))
    _, g0 = composite_loss(m, frames, (1,), 0.0)
    # with lambda 0 the aux head contributes nothing
    assert np.all(g0["aux_w"] == 0.0)
    _, g1 = composite_loss(m, frames, (1,), 1.0)
    assert np.all(g1["main_w"] == 0.0)


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
    res = train_source(model, Dataset(samples), tcfg)
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
        res = train_source(model, Dataset(samples), TrainConfig(epochs=3, batch_size=4, seed=9))
        runs.append(res)
    assert runs[0].step_losses == runs[1].step_losses


def test_unalignable_samples_are_skipped_and_counted(rng):
    m = tiny_model(dtype=np.float32)
    good = Sample("g", rng.normal(0, 1, (8, 3)).astype(np.float32), "ab")
    short = Sample("s", rng.normal(0, 1, (1, 3)).astype(np.float32), "ab")
    res = train_source(m, Dataset([good, short]),
                       TrainConfig(epochs=2, batch_size=2, seed=0))
    assert res.skipped == 2  # once per epoch


def test_empty_training_set_rejected():
    m = tiny_model()
    with pytest.raises(ValueError):
        train_source(m, Dataset([]), TrainConfig(epochs=1))
    unlabeled = Dataset([Sample("u", np.zeros((3, 3), dtype=np.float32), None)])
    with pytest.raises(ValueError):
        train_source(m, unlabeled, TrainConfig(epochs=1))


def test_val_rows_logged(rng):
    samples, vocab = source_samples(n=4)
    cfg = RecognizerConfig(label_count=vocab.emit_size, input_dim=16, context_radius=1,
                           feature_dim=6, recurrent_dim=3, seed=0)
    model = init_recognizer(cfg, vocab)
    res = train_source(model, Dataset(samples[:3]), TrainConfig(epochs=2, batch_size=2, seed=0),
                       val_set=Dataset(samples[3:]))
    assert [(r.iteration, r.split) for r in res.rows] == \
        [(0, "train"), (0, "val"), (1, "train"), (1, "val")]
    assert all(math.isnan(r.loss) for r in res.rows if r.split == "val")


def test_non_finite_loss_raises(rng, monkeypatch):
    m = tiny_model(dtype=np.float32)
    sample = Sample("g", rng.normal(0, 1, (6, 3)).astype(np.float32), "ab")

    def bad_loss(model, frames, labels, lam):
        zeros = {k: np.zeros_like(v) for k, v in model.params.items()}
        return math.inf, zeros

    monkeypatch.setattr(trainer_mod, "composite_loss", bad_loss)
    with pytest.raises(NumericError):
        train_source(m, Dataset([sample]), TrainConfig(epochs=1, batch_size=1, seed=0))


# -- pseudo-labels ---------------------------------------------------------------------

def fixed_posterior_forward(main_rows):
    main = np.log(np.asarray(main_rows, dtype=np.float64))

    def fake(model, frames):
        aux = np.full_like(main, -np.log(main.shape[1]))
        return aux, main, None

    return fake


def test_pseudo_label_reads_off_clean_posteriors(rng, monkeypatch):
    m = tiny_model()
    eps = 1e-9
    a = [1 - 2 * eps, eps, eps]
    rows = [[eps, 1 - 2 * eps, eps], [1 - 2 * eps, eps, eps], [eps, eps, 1 - 2 * eps]]
    monkeypatch.setattr(trainer_mod, "forward", fixed_posterior_forward(rows))
    lm = build_lm(["ab", "ba", "aa", "bb"], order=2, discount=0.1)
    ids = make_pseudo_label(m, rng.normal(0, 1, (3, 3)), lm,
                            uniform_priors(3), DecoderConfig(beam_width=16))
    assert ids == (1, 2)


def test_pseudo_label_empty_decode_is_none(rng, monkeypatch):
    m = tiny_model()
    eps = 1e-9
    rows = [[1 - 2 * eps, eps, eps]] * 4
    monkeypatch.setattr(trainer_mod, "forward", fixed_posterior_forward(rows))
    ids = make_pseudo_label(m, rng.normal(0, 1, (4, 3)), None,
                            uniform_priors(3), DecoderConfig(beam_width=16))
    assert ids is None


def test_lm_resolves_accent_ambiguity(rng, monkeypatch):
    # the emission head cannot separate the accented variant from its base
    # character, but an LM whose corpus uses the accent tips the decode
    vocab = Vocabulary("eé")
    cfg = RecognizerConfig(label_count=vocab.emit_size, input_dim=3, context_radius=1,
                           feature_dim=4, recurrent_dim=3, seed=0)
    m = init_recognizer(cfg, vocab, dtype=np.float64)
    lm = build_lm(["éé", "éé", "é"], order=2, discount=0.1, vocab=vocab)
    e_id, acc_id = vocab.id_of("e"), vocab.id_of("é")
    row = np.zeros(3)
    row[0] = 0.2
    row[e_id] = 0.41  # base char marginally ahead
    row[acc_id] = 0.39
    monkeypatch.setattr(trainer_mod, "forward", fixed_posterior_forward([row]))
    dcfg = DecoderConfig(emission_weight=0.4, prior_scale=0.0, beam_width=16)
    ids = make_pseudo_label(m, rng.normal(0, 1, (1, 3)), lm, uniform_priors(3), dcfg)
    assert vocab.decode(ids) == "é"
    post = np.log(np.array([row]))
    want_seq, _ = oracle_best(post, lm, uniform_priors(3), 0.4, 0.0)
    assert vocab.decode(want_seq) == "é"


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
    return model, Dataset(samples), Dataset(tgt), lm, tcfg, dcfg


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
        hybrid_train(model, src, Dataset([]), lm, tcfg, dcfg)


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
        return Dataset([Sample(f"{spec.name}{i}", render(t, spec, rng), t if labeled else None)
                        for i, t in enumerate(texts)])

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


def test_write_metrics_appends(tmp_path):
    p = tmp_path / "metrics.tsv"
    write_metrics([MetricsRow(0, "train", 1.25, 0.5)], p)
    write_metrics([MetricsRow(1, "val", math.nan, 0.25)], p)
    lines = p.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "0\ttrain\t1.25\t0.5"
    assert lines[1] == "1\tval\tnan\t0.25"
