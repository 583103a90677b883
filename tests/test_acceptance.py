"""Acceptance gate.

Each criterion prints one pass/fail line with its measured values; run
with `pytest tests/test_acceptance.py -v -s` to see the lines on a green
suite.  The synthetic-transfer experiment behind criteria 5 and 6 runs
once (module-scoped fixture) and takes about two minutes.
"""

import math
import time

import numpy as np
import pytest

from seqtransfer import (AdamConfig, DecoderConfig, RecognizerConfig, Sample,
                         TrainConfig, Vocabulary, backward, build_lm, cer, cli, ctc_loss,
                         edit_distance, forward, greedy_decode, greedy_eval, hybrid_train,
                         init_recognizer, lm_beam_decode, load_arpa, make_language_pair,
                         min_frames, prior_pass, render, sample_text, save_arpa, train_source)
from seqtransfer.synth_data import STOCK_SHARED_CHARS, STOCK_TARGET_EXTRA
from conftest import ctc_loss_bruteforce, oracle_best, random_log_posteriors, uniform_priors


def report(tag, ok: bool, detail: str) -> None:
    print(f"criterion {tag}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)
    assert ok, f"criterion {tag}: {detail}"


# -- 1: CTC loss against exhaustive path enumeration ---------------------------

def test_criterion_1_ctc_oracle_equivalence():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    checked = 0
    worst = 0.0
    while checked < 200:
        T = int(rng.integers(1, 7))
        L = int(rng.integers(2, 5))
        labels = [int(rng.integers(1, L)) for _ in range(int(rng.integers(1, 4)))]
        if T < min_frames(labels):
            continue
        post = random_log_posteriors(rng, T, L)
        (loss,), _ = ctc_loss([post], [labels])
        ref = ctc_loss_bruteforce(post, labels)
        worst = max(worst, abs(loss - ref) / max(abs(ref), 1e-12))
        checked += 1
    dt = time.perf_counter() - t0
    report(1, worst <= 1e-9 and dt < 10.0,
           f"{checked} instances, max rel err {worst:.2e} (tol 1e-9), {dt:.1f}s (limit 10s)")


# -- 2: composite gradients against central finite differences -----------------

def test_criterion_2_gradient_checks():
    t0 = time.perf_counter()
    vocab = Vocabulary("ab")
    cfg = RecognizerConfig(label_count=vocab.emit_size, input_dim=3, context_radius=1,
                           feature_dim=4, recurrent_dim=3, seed=9)
    model = init_recognizer(cfg, vocab, dtype=np.float64)
    rng = np.random.default_rng(11)

    def loss_value(frames, labels):
        aux, main, _ = forward(model, frames)
        return 0.25 * ctc_loss([aux], [labels])[0][0] + 0.75 * ctc_loss([main], [labels])[0][0]

    worst = 0.0
    n_params = 0
    for labels in ((1, 2), (2, 1, 2)):
        frames = rng.normal(0.0, 1.0, (6, 3))
        aux, main, cache = forward(model, frames)
        _, g_aux = ctc_loss([aux], [labels])
        _, g_main = ctc_loss([main], [labels])
        grads = backward(model, cache, 0.25 * g_aux, 0.75 * g_main)
        h = 1e-5
        for name, p in model.params.items():
            flat = p.reshape(-1)
            g = grads[name].reshape(-1)
            for i in range(flat.size):
                keep = flat[i]
                flat[i] = keep + h
                up = loss_value(frames, labels)
                flat[i] = keep - h
                dn = loss_value(frames, labels)
                flat[i] = keep
                fd = (up - dn) / (2.0 * h)
                denom = max(abs(fd), abs(g[i]))
                if denom < 1e-8:
                    continue
                worst = max(worst, abs(fd - g[i]) / denom)
                n_params += 1
    dt = time.perf_counter() - t0
    report(2, worst <= 1e-4 and dt < 30.0,
           f"{n_params} coordinates over 2 instances, max rel err {worst:.2e} "
           f"(tol 1e-4), {dt:.1f}s (limit 30s)")


# -- 3: LM normalization plus ARPA round trip -----------------------------------

def test_criterion_3_lm_normalization(tmp_path):
    rng = np.random.default_rng(33)
    corpus = ["".join(rng.choice(list("abcde "), size=int(rng.integers(4, 14))))
              for _ in range(60)]
    lm = build_lm(corpus, order=4, discount=0.1)
    usable = list(range(1, lm.vocab.emit_size)) + [lm.vocab.eos_id]

    def mass(h) -> float:
        return float(np.exp(np.logaddexp.reduce(lm.next_log_probs(h)[usable])))

    worst = 0.0
    n_ctx = 0
    for h in lm.backoffs:
        worst = max(worst, abs(mass(h) - 1.0))
        n_ctx += 1
    ids = list(range(1, lm.vocab.emit_size)) + [lm.vocab.bos_id]
    for _ in range(100):
        h = tuple(int(rng.choice(ids)) for _ in range(int(rng.integers(0, 6))))
        worst = max(worst, abs(mass(h) - 1.0))
        n_ctx += 1

    path = tmp_path / "round_trip.arpa"
    save_arpa(lm, path)
    loaded = load_arpa(path)
    chars = list(lm.vocab.chars)
    rt_worst = 0.0
    for _ in range(200):
        ctx = "".join(rng.choice(chars, size=int(rng.integers(0, 5))))
        rng.choice(chars)  # unused; it keeps the seeded sequence of contexts unchanged
        h = (lm.vocab.bos_id,) + lm.vocab.encode(ctx)
        want, got = lm.next_log_probs(h), loaded.next_log_probs(h)
        # the whole row: every character and EOS, -inf exactly where the original has it
        if not np.array_equal(np.isneginf(got), np.isneginf(want)):
            rt_worst = math.inf
            continue
        live = ~np.isneginf(want)
        rt_worst = max(rt_worst, float(np.max(np.abs(got[live] - want[live]))))
    report(3, worst <= 1e-6 and rt_worst <= 1e-6,
           f"{n_ctx} contexts, max |mass-1| {worst:.2e}; ARPA round-trip max dev "
           f"{rt_worst:.2e} (tol 1e-6)")


# -- 4: decoder reduction plus beam monotonicity --------------------------------

def test_criterion_4_decoder_reduction():
    rng = np.random.default_rng(44)

    def dcfg(b):
        return DecoderConfig(emission_weight=1.0, prior_scale=0.0, beam_width=b)

    mismatches = 0
    mono_violations = 0
    worst = 0.0
    n = 120
    for _ in range(n):
        T = int(rng.integers(1, 5))
        L = int(rng.integers(2, 4))
        post = random_log_posteriors(rng, T, L)
        priors = uniform_priors(L)
        want_seq, want_score = oracle_best(post, None, priors, 1.0, 0.0)
        ids, score = lm_beam_decode(post, None, priors, dcfg(10 ** 6))
        if tuple(ids) != want_seq:
            mismatches += 1
        worst = max(worst, abs(score - want_score) / max(abs(want_score), 1e-12))
        prev = -math.inf
        for b in (1, 2, 4, 8, 10 ** 6):
            _, s = lm_beam_decode(post, None, priors, dcfg(b))
            if s < prev - 1e-12:
                mono_violations += 1
            prev = s
    report(4, mismatches == 0 and mono_violations == 0 and worst <= 1e-9,
           f"{n} instances, {mismatches} sequence mismatches, {mono_violations} "
           f"monotonicity violations, max score rel err {worst:.2e}")


# -- 5 and 6: desk-scale synthetic transfer --------------------------------------

ACCENTS = "éàñ"


def accent_stats(model, vocab, samples):
    """(accented chars emitted, matched against references, reference total)."""
    emitted = hits = total = 0
    for s in samples:
        _, main, _ = forward(model, s.frames)
        hyp = vocab.decode(greedy_decode([main])[0])
        for ch in ACCENTS:
            n_hyp = hyp.count(ch)
            n_ref = s.transcription.count(ch)
            emitted += n_hyp
            total += n_ref
            hits += min(n_ref, n_hyp)
    return emitted, hits, total


@pytest.fixture(scope="module")
def transfer():
    t_all = time.perf_counter()
    base_seed = 7
    src, tgt = make_language_pair(base_seed, STOCK_SHARED_CHARS,
                                  target_extra=STOCK_TARGET_EXTRA)
    vocab = Vocabulary(set(src.chars) | set(tgt.chars))

    def make_split(spec, n, tag):
        rng = np.random.default_rng(np.random.SeedSequence((base_seed, tag)))
        samples, texts = [], []
        for i in range(n):
            text = sample_text(spec, int(rng.integers(6, 13)), rng)
            samples.append(Sample(f"{spec.name}{i:05d}", render(text, spec, rng), text))
            texts.append(text)
        return samples, texts

    src_train, _ = make_split(src, 320, 0x11)
    src_val, _ = make_split(src, 64, 0x12)
    tgt_train_ref, tgt_corpus = make_split(tgt, 320, 0x21)
    tgt_val, _ = make_split(tgt, 64, 0x22)
    tgt_test, _ = make_split(tgt, 96, 0x23)
    tgt_train = [Sample(s.sample_id, s.frames, None) for s in tgt_train_ref]

    lm = build_lm(tgt_corpus, order=5, discount=0.1, vocab=vocab)

    rcfg = RecognizerConfig(label_count=vocab.emit_size, input_dim=16, context_radius=2,
                            feature_dim=64, recurrent_dim=32, seed=base_seed)
    model = init_recognizer(rcfg, vocab)
    tcfg = TrainConfig(aux_loss_weight=0.25, batch_size=8, epochs=20, seed=base_seed,
                       adam=AdamConfig(lr=3e-3))
    train_source(model, src_train, tcfg, val_set=src_val)

    out = {"src_cer": greedy_eval(model, list(src_val)),
           "pre_tgt_cer": greedy_eval(model, list(tgt_test))}
    out["pre_emitted"], _, _ = accent_stats(model, vocab, list(tgt_val))

    start = {k: v.copy() for k, v in model.params.items()}
    model_lm = type(model)(model.cfg, vocab, {k: v.copy() for k, v in start.items()})
    model_unif = type(model)(model.cfg, vocab, start)

    hcfg = TrainConfig(aux_loss_weight=0.25, batch_size=8, source_fraction=0.5,
                       outer_iters=10, prior_pass_batches=20, train_pass_batches=20,
                       seed=base_seed, adam=AdamConfig(lr=3e-3))
    dcfg = DecoderConfig(emission_weight=0.4, prior_scale=0.5, beam_width=16)

    hybrid_train(model_lm, src_train, tgt_train, lm, hcfg, dcfg)
    out["post_cer"] = greedy_eval(model_lm, list(tgt_test))
    _, hits, total = accent_stats(model_lm, vocab, list(tgt_val))
    out["post_recall"] = hits / max(total, 1)
    out["accent_total"] = total

    hybrid_train(model_unif, src_train, tgt_train, None, hcfg, dcfg)
    out["post_unif_cer"] = greedy_eval(model_unif, list(tgt_test))
    out["elapsed"] = time.perf_counter() - t_all
    return out


def test_criterion_5_synthetic_transfer(transfer):
    t = transfer
    ok_a = t["src_cer"] <= 0.10 and t["pre_tgt_cer"] >= 0.30
    ok_b = t["post_cer"] <= 0.5 * t["pre_tgt_cer"]
    ok_c = t["post_unif_cer"] > t["post_cer"]
    ok_time = t["elapsed"] <= 900.0
    report(5, ok_a and ok_b and ok_c and ok_time,
           f"(a) source {t['src_cer']:.4f} <= 0.10 and target-before "
           f"{t['pre_tgt_cer']:.4f} >= 0.30; (b) target-after {t['post_cer']:.4f} <= "
           f"{0.5 * t['pre_tgt_cer']:.4f}; (c) uniform-LM {t['post_unif_cer']:.4f} > "
           f"with-LM; total {t['elapsed']:.0f}s (limit 900s)")


def test_criterion_6_target_only_character_emergence(transfer):
    t = transfer
    ok = t["pre_emitted"] == 0 and t["post_recall"] >= 0.5
    report(6, ok,
           f"accented chars emitted before hybrid: {t['pre_emitted']} (need 0); "
           f"recall after: {t['post_recall']:.3f} of {t['accent_total']} (need >= 0.5)")


# -- 7: prior pass purity ---------------------------------------------------------

def test_criterion_7_prior_pass_purity():
    vocab = Vocabulary("abc")
    cfg = RecognizerConfig(label_count=vocab.emit_size, input_dim=5, context_radius=1,
                           feature_dim=8, recurrent_dim=4, seed=2)
    model = init_recognizer(cfg, vocab)
    rng = np.random.default_rng(6)
    samples = [Sample(f"u{i}", rng.normal(0.0, 1.0, (int(rng.integers(4, 9)), 5))
                      .astype(np.float32))
               for i in range(10)]
    before = {k: v.tobytes() for k, v in model.params.items()}
    priors = prior_pass(model, samples, TrainConfig(batch_size=4, prior_pass_batches=3),
                        np.random.default_rng(0), floor=1e-6)
    same = all(model.params[k].tobytes() == before[k] for k in before)
    report(7, same and priors.shape == (vocab.emit_size,),
           f"all {len(before)} parameter tensors bit-identical after a prior pass "
           f"(priors sum {priors.sum():.6f})")


# -- 8: end-to-end determinism through the CLI ------------------------------------

def test_criterion_8_end_to_end_determinism(tmp_path, capsys):
    def pipeline(root):
        data = root / "data"
        assert cli.main(["gen-data", "--out", str(data), "--base-seed", "17",
                         "--n-train", "6", "--n-val", "3", "--n-test", "3",
                         "--text-len", "2,4"]) == 0
        lm = root / "lm.arpa"
        assert cli.main(["train-lm", "--corpus", str(data / "target" / "corpus.txt"),
                         "--out", str(lm), "--order", "3",
                         "--vocab", str(data / "vocab.json")]) == 0
        ck = root / "src.ckpt"
        m_src = root / "src_metrics.tsv"
        assert cli.main(["train-source",
                         "--data", str(data / "source" / "train" / "manifest.tsv"),
                         "--val", str(data / "source" / "val" / "manifest.tsv"),
                         "--vocab", str(data / "vocab.json"),
                         "--out-checkpoint", str(ck), "--metrics", str(m_src),
                         "--epochs", "2", "--seed", "5", "--batch-size", "4"]) == 0
        hy = root / "hy.ckpt"
        m_hy = root / "hy_metrics.tsv"
        assert cli.main(["hybrid",
                         "--source-data", str(data / "source" / "train" / "manifest.tsv"),
                         "--target-data", str(data / "target" / "train" / "manifest.tsv"),
                         "--val-data", str(data / "target" / "val" / "manifest.tsv"),
                         "--init-checkpoint", str(ck), "--lm", str(lm),
                         "--out-checkpoint", str(hy), "--metrics", str(m_hy),
                         "--outer-iters", "2", "--prior-pass-batches", "1",
                         "--train-pass-batches", "2", "--batch-size", "4",
                         "--beam", "4", "--seed", "5"]) == 0
        capsys.readouterr()
        assert cli.main(["eval", "--checkpoint", str(hy),
                         "--data", str(data / "target" / "test" / "manifest.tsv"),
                         "--lm", str(lm), "--beam", "4"]) == 0
        eval_line = capsys.readouterr().out.strip().splitlines()[-1]
        return m_src.read_bytes(), m_hy.read_bytes(), eval_line

    first = pipeline(tmp_path / "run1")
    second = pipeline(tmp_path / "run2")
    report(8, first == second,
           f"metrics logs and eval output identical across two seeded runs "
           f"({first[2]!r})")


# -- 9: metric axioms --------------------------------------------------------------

def test_criterion_9_metric_axioms():
    rng = np.random.default_rng(99)
    alphabet = list("abcde")

    def rand_text():
        return "".join(rng.choice(alphabet, size=int(rng.integers(0, 11))))

    violations = 0
    for _ in range(1000):
        a, b, c = rand_text(), rand_text(), rand_text()
        if edit_distance(a, b) != edit_distance(b, a):
            violations += 1
        if edit_distance(a, a) != 0:
            violations += 1
        if edit_distance(a, c) > edit_distance(a, b) + edit_distance(b, c):
            violations += 1

    hand = (
        (["kitten"], ["sitting"], 3, 0.5),
        (["ab"], ["ab"], 0, 0.0),
        (["abcd"], ["abxd"], 1, 0.25),
        (["abcd"], [""], 4, 1.0),
        (["abcd", "xy"], ["abxd", "xy"], 1, 1.0 / 6.0),
        (["a"], ["abc"], 2, 2.0),
    )
    hand_ok = all(cer(r, h).total_edits == e
                  and cer(r, h).cer == pytest.approx(want, abs=1e-12)
                  for r, h, e, want in hand)
    report(9, violations == 0 and hand_ok,
           f"1000 random triples, {violations} axiom violations; "
           f"{len(hand)} pooled CER hand values match")
