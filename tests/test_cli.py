"""End-to-end exercises of the command-line pipeline, all in-process."""

import argparse
import dataclasses
import hashlib
import re
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import seqtransfer.ctc as ctc_mod
import seqtransfer.decoder as decoder_mod
from seqtransfer import (AdamConfig, DecoderConfig, NumericError, TrainConfig, Vocabulary,
                         build_lm, cli, forward, greedy_decode, greedy_eval, load_arpa,
                         load_checkpoint, load_manifest, perplexity, prior_pass, read_lines,
                         save_arpa, save_checkpoint, write_frames)
from conftest import REPEATED_SECTION_ARPA


@pytest.fixture(scope="module")
def pipe(tmp_path_factory):
    """One tiny pipeline run shared by the read-only assertions below."""
    root = tmp_path_factory.mktemp("pipe")
    data = root / "data"
    rc = cli.main(["gen-data", "--out", str(data), "--base-seed", "11",
                   "--n-train", "6", "--n-val", "3", "--n-test", "3",
                   "--text-len", "2,4"])
    assert rc == 0

    lm_path = root / "target.arpa"
    rc = cli.main(["train-lm", "--corpus", str(data / "target" / "corpus.txt"),
                   "--out", str(lm_path), "--order", "3",
                   "--vocab", str(data / "vocab.json")])
    assert rc == 0

    cfg = root / "exp.cfg"
    cfg.write_text("feature_dim = 12\nrecurrent_dim = 6\n", encoding="utf-8")
    ck = root / "source.ckpt"
    metrics = root / "source_metrics.tsv"
    rc = cli.main(["train-source", "--data", str(data / "source" / "train" / "manifest.tsv"),
                   "--val", str(data / "source" / "val" / "manifest.tsv"),
                   "--vocab", str(data / "vocab.json"),
                   "--out-checkpoint", str(ck), "--metrics", str(metrics),
                   "--config", str(cfg), "--epochs", "2", "--seed", "5"])
    assert rc == 0

    hy = root / "hybrid.ckpt"
    hymetrics = root / "hybrid_metrics.tsv"
    priors_log = root / "priors.tsv"
    rc = cli.main(["hybrid", "--source-data", str(data / "source" / "train" / "manifest.tsv"),
                   "--target-data", str(data / "target" / "train" / "manifest.tsv"),
                   "--val-data", str(data / "target" / "val" / "manifest.tsv"),
                   "--init-checkpoint", str(ck), "--lm", str(lm_path),
                   "--out-checkpoint", str(hy), "--metrics", str(hymetrics),
                   "--priors-log", str(priors_log),
                   "--outer-iters", "2", "--prior-pass-batches", "1",
                   "--train-pass-batches", "2", "--batch-size", "4",
                   "--beam", "4", "--seed", "5"])
    assert rc == 0
    return {"root": root, "data": data, "lm": lm_path, "cfg": cfg, "ck": ck,
            "metrics": metrics, "hy": hy, "hymetrics": hymetrics,
            "priors_log": priors_log}


# -- gen-data ---------------------------------------------------------------

def test_gen_data_layout(pipe):
    data = pipe["data"]
    for lang in ("source", "target"):
        for split in ("train", "val", "test"):
            assert (data / lang / split / "manifest.tsv").is_file()
        assert (data / lang / "corpus.txt").is_file()
        assert (data / lang / "unrelated.txt").is_file()
    assert (data / "vocab.json").is_file()
    vocab = Vocabulary.load(data / "vocab.json")
    assert set("éàñ") <= set(vocab.chars)
    assert set("abc ") <= set(vocab.chars)


def test_gen_data_target_train_is_unlabeled(pipe):
    tgt_train = load_manifest(pipe["data"] / "target" / "train" / "manifest.tsv")
    assert all(s.transcription is None for s in tgt_train)
    src_train = load_manifest(pipe["data"] / "source" / "train" / "manifest.tsv")
    assert all(s.transcription for s in src_train)
    # the target corpus still exists for LM training
    lines = (pipe["data"] / "target" / "corpus.txt").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 6


def test_gen_data_unrelated_line_count(pipe, tmp_path):
    assert len((pipe["data"] / "source" / "unrelated.txt")
               .read_text(encoding="utf-8").splitlines()) == 6
    rc = cli.main(["gen-data", "--out", str(tmp_path / "d"), "--base-seed", "2",
                   "--n-train", "2", "--n-val", "1", "--n-test", "1",
                   "--text-len", "2,3", "--unrelated-lines", "5"])
    assert rc == 0
    assert len((tmp_path / "d" / "source" / "unrelated.txt")
               .read_text(encoding="utf-8").splitlines()) == 5


def test_gen_data_rerun_is_byte_identical(tmp_path):
    args = ["--base-seed", "13", "--n-train", "3", "--n-val", "2", "--n-test", "2",
            "--text-len", "2,4"]
    for sub in ("a", "b"):
        assert cli.main(["gen-data", "--out", str(tmp_path / sub)] + args) == 0
    a, b = tmp_path / "a", tmp_path / "b"
    rel_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    rel_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    assert rel_a == rel_b
    for rel in rel_a:
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel


def tree_sha256(root) -> str:
    """One sha256 over every file under root: relative path, then bytes."""
    h = hashlib.sha256()
    for p in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(p.relative_to(root).as_posix().encode() + b"\0")
        h.update(hashlib.sha256(p.read_bytes()).digest())
    return h.hexdigest()


# recorded from the per-character Generator.choice sampler, the per-character
# stretch draws and the per-token ARPA writer, all since replaced
PINNED_TREE_SHA256 = "b9dbcac01e9d96f9b926555672207cd8bfad96083ccd46b4e0b0681164a799d5"


def test_gen_data_and_train_lm_write_the_pinned_bytes(tmp_path, capsys):
    """The files a fixed gen-data and train-lm run write, pinned by digest: a
    rewrite of the sampler, the renderer or the ARPA writer must keep every
    byte, which two runs of the same code cannot show."""
    data = tmp_path / "data"
    assert cli.main(["gen-data", "--out", str(data), "--base-seed", "5", "--n-train", "6",
                     "--n-val", "3", "--n-test", "3", "--text-len", "1,12"]) == 0
    assert cli.main(["train-lm", "--corpus", str(data / "target" / "corpus.txt"),
                     "--out", str(tmp_path / "lm.arpa"), "--order", "4",
                     "--vocab", str(data / "vocab.json")]) == 0
    capsys.readouterr()
    assert tree_sha256(tmp_path) == PINNED_TREE_SHA256


def test_gen_data_rejects_zero_train(tmp_path, capsys):
    rc = cli.main(["gen-data", "--out", str(tmp_path / "x"), "--n-train", "0"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_gen_data_rejects_bad_text_len(tmp_path):
    rc = cli.main(["gen-data", "--out", str(tmp_path / "x"), "--n-train", "2",
                   "--n-val", "1", "--n-test", "1", "--text-len", "banana"])
    assert rc == 1


@pytest.mark.parametrize("flag, value", [
    ("--base-seed", "-1"), ("--unrelated-lines", "-3"), ("--input-dim", "0"),
    ("--style-strength", "nan"), ("--style-strength", "-1"), ("--style-strength", "inf"),
    ("--noise-sigma", "nan"), ("--noise-sigma", "-1"),
])
def test_gen_data_bad_numeric_flag_is_a_usage_error(tmp_path, capsys, flag, value):
    out = tmp_path / "x"
    rc = cli.main(["gen-data", "--out", str(out), "--n-train", "2", "--n-val", "1",
                   "--n-test", "1", "--text-len", "2,3", flag, value])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag} must be ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("flags", [
    ["--shared-chars", "a\tb"], ["--source-extra", "x\n"], ["--target-extra", "\r"],
    ["--shared-chars", ""], ["--shared-chars", "abc", "--source-extra", "c"],
    ["--source-extra", "q", "--target-extra", "q"],
])
def test_gen_data_bad_character_set_is_a_usage_error(tmp_path, capsys, flags):
    """A character no manifest line can hold, an empty shared set or
    overlapping sets: exit 1 with one line, before anything is written."""
    out = tmp_path / "x"
    rc = cli.main(["gen-data", "--out", str(out), "--n-train", "2", "--n-val", "1",
                   "--n-test", "1", "--text-len", "2,3"] + flags)
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


# -- train-lm ----------------------------------------------------------------

def test_trained_lm_is_loadable(pipe):
    lm = load_arpa(pipe["lm"])
    assert lm.order == 3
    vocab = Vocabulary.load(pipe["data"] / "vocab.json")
    assert lm.vocab == vocab


def test_order_one_lm_has_only_unigrams(pipe, tmp_path):
    out = tmp_path / "uni.arpa"
    rc = cli.main(["train-lm", "--corpus", str(pipe["data"] / "target" / "corpus.txt"),
                   "--out", str(out), "--order", "1"])
    assert rc == 0
    text = out.read_text(encoding="utf-8")
    assert "\\1-grams:" in text
    assert "\\2-grams:" not in text
    assert load_arpa(out).order == 1


def test_train_lm_rejects_bad_order(pipe, tmp_path):
    rc = cli.main(["train-lm", "--corpus", str(pipe["data"] / "target" / "corpus.txt"),
                   "--out", str(tmp_path / "x.arpa"), "--order", "0"])
    assert rc == 1


def test_perplexity_flag_matches_api(pipe, tmp_path, capsys):
    corpus = pipe["data"] / "target" / "corpus.txt"
    held_out = pipe["data"] / "target" / "unrelated.txt"
    rc = cli.main(["train-lm", "--corpus", str(corpus), "--out", str(tmp_path / "p.arpa"),
                   "--order", "2", "--vocab", str(pipe["data"] / "vocab.json"),
                   "--perplexity-on", str(held_out)])
    assert rc == 0
    out = capsys.readouterr().out
    line = [l for l in out.splitlines() if l.startswith("perplexity\t")][0]

    lm = build_lm(corpus.read_text(encoding="utf-8").splitlines(), order=2, discount=0.1,
                  vocab=Vocabulary.load(pipe["data"] / "vocab.json"))
    want = perplexity(lm, held_out.read_text(encoding="utf-8").splitlines())
    assert line == f"perplexity\t{want:.6f}"


def test_train_lm_reads_lines_only_at_newlines(tmp_path, capsys):
    data = tmp_path / "d"
    assert cli.main(["gen-data", "--out", str(data), "--base-seed", "3", "--n-train", "40",
                     "--n-val", "1", "--n-test", "1", "--shared-chars", "ab\u2028"]) == 0
    corpus, held_out = data / "target" / "corpus.txt", data / "target" / "unrelated.txt"
    text = corpus.read_text(encoding="utf-8")
    assert "\u2028" in text and len(text.splitlines()) > 40  # splitlines would cut lines
    lines = read_lines(corpus)
    assert len(lines) == 40

    capsys.readouterr()
    out = tmp_path / "lm.arpa"
    assert cli.main(["train-lm", "--corpus", str(corpus), "--out", str(out), "--order", "3",
                     "--vocab", str(data / "vocab.json"), "--perplexity-on", str(held_out)]) == 0
    lm = build_lm(lines, order=3, discount=0.1, vocab=Vocabulary.load(data / "vocab.json"))
    save_arpa(lm, tmp_path / "want.arpa")
    assert out.read_bytes() == (tmp_path / "want.arpa").read_bytes()
    want = perplexity(lm, read_lines(held_out))
    assert capsys.readouterr().out.splitlines()[-1] == f"perplexity\t{want:.6f}"


def test_train_lm_extra_char_outside_vocab_exits_two(pipe, tmp_path, capsys):
    out = tmp_path / "x.arpa"
    rc = cli.main(["train-lm", "--corpus", str(pipe["data"] / "target" / "corpus.txt"),
                   "--out", str(out), "--vocab", str(pipe["data"] / "vocab.json"),
                   "--extra-chars", "Z"])
    assert rc == 2
    assert capsys.readouterr().err == \
        "error: extra character 'Z' is outside the fixed vocabulary\n"
    assert not out.exists()


@pytest.mark.parametrize("held_out", ["missing", "Z outside the vocabulary"])
def test_train_lm_bad_perplexity_file_writes_no_arpa(pipe, tmp_path, capsys, held_out):
    path = tmp_path / "held_out.txt"
    if held_out != "missing":
        path.write_text("abZ\n", encoding="utf-8")
    out = tmp_path / "x.arpa"
    rc = cli.main(["train-lm", "--corpus", str(pipe["data"] / "target" / "corpus.txt"),
                   "--out", str(out), "--vocab", str(pipe["data"] / "vocab.json"),
                   "--perplexity-on", str(path)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert not out.exists()


# -- train-source -------------------------------------------------------------

def test_checkpoint_is_loadable(pipe):
    model = load_checkpoint(pipe["ck"])
    assert model.cfg.feature_dim == 12  # from the config file
    assert model.cfg.recurrent_dim == 6
    ds = load_manifest(pipe["data"] / "source" / "val" / "manifest.tsv")
    aux, main, _ = forward(model, ds[0].frames)
    assert main.shape == (ds[0].frames.shape[0], model.vocab.emit_size)
    assert aux.shape == main.shape


def test_metrics_rows_per_epoch_per_split(pipe):
    lines = pipe["metrics"].read_text(encoding="utf-8").splitlines()
    # 2 epochs, train + val rows each
    assert len(lines) == 4
    got = [tuple(l.split("\t")[:2]) for l in lines]
    assert got == [("0", "train"), ("0", "val"), ("1", "train"), ("1", "val")]
    for l in lines:
        fields = l.split("\t")
        assert len(fields) == 4
        float(fields[2]), float(fields[3])


def test_flag_beats_config_beats_default(pipe, tmp_path):
    data = pipe["data"]
    cfg = tmp_path / "e.cfg"
    cfg.write_text("epochs = 3\nfeature_dim = 8\nrecurrent_dim = 4\n", encoding="utf-8")
    common = ["train-source", "--data", str(data / "source" / "train" / "manifest.tsv"),
              "--vocab", str(data / "vocab.json"), "--config", str(cfg)]

    m1 = tmp_path / "m1.tsv"
    rc = cli.main(common + ["--out-checkpoint", str(tmp_path / "c1.ckpt"),
                            "--metrics", str(m1)])
    assert rc == 0
    assert len(m1.read_text(encoding="utf-8").splitlines()) == 3  # config epochs

    m2 = tmp_path / "m2.tsv"
    rc = cli.main(common + ["--out-checkpoint", str(tmp_path / "c2.ckpt"),
                            "--metrics", str(m2), "--epochs", "1"])
    assert rc == 0
    assert len(m2.read_text(encoding="utf-8").splitlines()) == 1  # flag wins


def test_unknown_config_key_is_usage_error(pipe, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("wat = 1\n", encoding="utf-8")
    rc = cli.main(["train-source", "--data",
                   str(pipe["data"] / "source" / "train" / "manifest.tsv"),
                   "--vocab", str(pipe["data"] / "vocab.json"),
                   "--out-checkpoint", str(tmp_path / "c.ckpt"), "--config", str(cfg)])
    assert rc == 1
    assert "unknown config key" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["lm = ", "val_data =", "epochs = # none"])
def test_empty_config_value_is_usage_error(pipe, tmp_path, capsys, line):
    # "lm = " would otherwise run the uniform-LM control, "val_data =" skip validation
    data = pipe["data"]
    cfg = tmp_path / "empty.cfg"
    cfg.write_text(f"outer_iters = 1\n{line}\n", encoding="utf-8")
    out = tmp_path / "x.ckpt"
    rc = cli.main(["hybrid", "--source-data", str(data / "source" / "train" / "manifest.tsv"),
                   "--target-data", str(data / "target" / "train" / "manifest.tsv"),
                   "--init-checkpoint", str(pipe["ck"]), "--out-checkpoint", str(out),
                   "--config", str(cfg), "--prior-pass-batches", "1",
                   "--train-pass-batches", "1", "--batch-size", "2", "--beam", "2"])
    assert rc == 1
    key = line.split("=")[0].strip()
    assert capsys.readouterr().err == f"error: {cfg}:2: empty value for {key}\n"
    assert not out.exists()


def test_train_source_reads_input_width_from_its_data(tmp_path, capsys):
    data = tmp_path / "data"
    assert cli.main(["gen-data", "--out", str(data), "--n-train", "3", "--n-val", "1",
                     "--n-test", "1", "--text-len", "2,3", "--input-dim", "8"]) == 0
    common = ["train-source", "--data", str(data / "source" / "train" / "manifest.tsv"),
              "--vocab", str(data / "vocab.json"), "--epochs", "1"]
    ck = tmp_path / "c.ckpt"
    assert cli.main(common + ["--out-checkpoint", str(ck)]) == 0
    assert load_checkpoint(ck).cfg.input_dim == 8
    capsys.readouterr()

    cfg = tmp_path / "e.cfg"
    cfg.write_text("input_dim = 16\n", encoding="utf-8")
    rc = cli.main(common + ["--out-checkpoint", str(tmp_path / "d.ckpt"), "--config", str(cfg)])
    assert rc == 1
    assert "unknown config key 'input_dim'" in capsys.readouterr().err


@pytest.mark.parametrize("flags, field", [
    (["--lr", "nan"], "lr"), (["--lr", "inf"], "lr"), (["--lr", "-1"], "lr"),
    (["--config", "beta1"], "beta1"), (["--config", "beta2"], "beta2"),
    (["--config", "eps"], "eps")])
def test_bad_adam_setting_exits_two_before_loading_data(tmp_path, capsys, flags, field):
    if flags[0] == "--config":  # the fields without a flag come from the config file
        cfg = tmp_path / "e.cfg"
        cfg.write_text(f"{field} = {'0' if field == 'eps' else '1.0'}\n", encoding="utf-8")
        flags = ["--config", str(cfg)]
    missing = str(tmp_path / "missing.tsv")  # loading any data would fail differently
    for command in (["train-source", "--data", missing, "--vocab", missing],
                    ["hybrid", "--source-data", missing, "--target-data", missing,
                     "--init-checkpoint", missing]):
        ck = tmp_path / "c.ckpt"
        assert cli.main(command + ["--out-checkpoint", str(ck)] + flags) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and f"{field} must be in" in err
        assert not ck.exists()


@pytest.fixture(scope="module")
def narrow(tmp_path_factory):
    """Manifests whose frames are 8 wide, where the pipeline's are 16."""
    data = tmp_path_factory.mktemp("narrow")
    assert cli.main(["gen-data", "--out", str(data), "--n-train", "2", "--n-val", "2",
                     "--n-test", "1", "--text-len", "2,3", "--input-dim", "8"]) == 0
    return data


def _refuse(*args, **kwargs):
    pytest.fail("training started")


def test_train_source_checks_val_width_before_training(pipe, narrow, tmp_path, monkeypatch,
                                                       capsys):
    monkeypatch.setattr(cli, "train_source", _refuse)
    val = narrow / "source" / "val" / "manifest.tsv"
    ck = tmp_path / "c.ckpt"
    rc = cli.main(["train-source", "--data", str(pipe["data"] / "source" / "train" / "manifest.tsv"),
                   "--val", str(val), "--vocab", str(pipe["data"] / "vocab.json"),
                   "--out-checkpoint", str(ck)])
    assert rc == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert f"{val}:1: sample {load_manifest(val)[0].sample_id} has 8-wide frames" in err
    assert not ck.exists()


def test_hybrid_checks_target_width_before_training(pipe, narrow, tmp_path, monkeypatch,
                                                    capsys):
    monkeypatch.setattr(cli, "hybrid_train", _refuse)
    target = narrow / "target" / "train" / "manifest.tsv"
    ck = tmp_path / "h.ckpt"
    rc = cli.main(["hybrid", "--source-data",
                   str(pipe["data"] / "source" / "train" / "manifest.tsv"),
                   "--target-data", str(target), "--init-checkpoint", str(pipe["ck"]),
                   "--out-checkpoint", str(ck)])
    assert rc == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert f"{target}:1: sample {load_manifest(target)[0].sample_id} has 8-wide frames" in err
    assert not ck.exists()


@pytest.mark.parametrize("command", ["train-source", "hybrid"])
def test_val_without_labeled_sample_exits_two_before_training(pipe, tmp_path, monkeypatch,
                                                              capsys, command):
    monkeypatch.setattr(cli, {"train-source": "train_source", "hybrid": "hybrid_train"}[command],
                        _refuse)
    val = pipe["data"] / "target" / "train" / "manifest.tsv"  # unlabeled
    source = str(pipe["data"] / "source" / "train" / "manifest.tsv")
    ck = tmp_path / "c.ckpt"
    argv = (["train-source", "--data", source, "--val", str(val),
             "--vocab", str(pipe["data"] / "vocab.json")] if command == "train-source" else
            ["hybrid", "--source-data", source, "--target-data", str(val), "--val-data", str(val),
             "--init-checkpoint", str(pipe["ck"])])
    assert cli.main(argv + ["--out-checkpoint", str(ck)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {val}: validation manifest has no labeled sample\n"
    assert not ck.exists()


@pytest.mark.parametrize("command", ["train-source", "hybrid"])
def test_training_transcription_outside_vocabulary_exits_two(pipe, tmp_path, monkeypatch,
                                                             capsys, command):
    monkeypatch.setattr(cli, {"train-source": "train_source", "hybrid": "hybrid_train"}[command],
                        _refuse)
    source = pipe["data"] / "source" / "train" / "manifest.tsv"
    rows = [line.split("\t") for line in source.read_text(encoding="utf-8").splitlines()]
    rows[1][2] = rows[1][2][:1] + "\u03a9" + rows[1][2][1:]
    bad = tmp_path / "manifest.tsv"
    bad.write_text("".join(f"{sid}\t{source.parent / rel}\t{text}\n" for sid, rel, text in rows),
                   encoding="utf-8")
    ck = tmp_path / "c.ckpt"
    argv = (["train-source", "--data", str(bad), "--vocab", str(pipe["data"] / "vocab.json")]
            if command == "train-source" else
            ["hybrid", "--source-data", str(bad), "--init-checkpoint", str(pipe["ck"]),
             "--target-data", str(pipe["data"] / "target" / "train" / "manifest.tsv")])
    assert cli.main(argv + ["--out-checkpoint", str(ck)]) == 2
    err = capsys.readouterr().err
    assert err == (f"error: {bad}:2: sample {rows[1][0]} has character '\u03a9', "
                   f"which is not in the vocabulary\n")
    assert not ck.exists()


@pytest.mark.parametrize("flag, value", [("--data", np.nan), ("--val", np.inf),
                                         ("--target-data", -np.inf)])
def test_non_finite_frame_value_exits_two_at_load(pipe, tmp_path, monkeypatch, capsys,
                                                  flag, value):
    monkeypatch.setattr(cli, "train_source", _refuse)
    monkeypatch.setattr(cli, "hybrid_train", _refuse)
    data = pipe["data"]
    given = {"--data": data / "source" / "train" / "manifest.tsv",
             "--val": data / "source" / "val" / "manifest.tsv",
             "--target-data": data / "target" / "train" / "manifest.tsv"}[flag]
    rows = [line.split("\t") for line in given.read_text(encoding="utf-8").splitlines()]
    frames = load_manifest(given)[1].frames
    frames[len(frames) // 2, 3] = value
    frm = tmp_path / "bad.frm"
    write_frames(frm, frames)
    rows[1][1] = str(frm)
    bad = tmp_path / "manifest.tsv"
    bad.write_text("".join(f"{sid}\t{given.parent / rel}\t{text}\n" for sid, rel, text in rows),
                   encoding="utf-8")
    ck, metrics = tmp_path / "c.ckpt", tmp_path / "m.tsv"
    source = str(data / "source" / "train" / "manifest.tsv")
    argv = (["hybrid", "--source-data", source, "--init-checkpoint", str(pipe["ck"])]
            if flag == "--target-data" else
            ["train-source", "--vocab", str(data / "vocab.json")]
            + (["--data", source] if flag == "--val" else []))
    argv += [flag, str(bad), "--out-checkpoint", str(ck), "--metrics", str(metrics)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"error: {frm}: frames contain NaN or inf\n"
    assert not ck.exists() and not metrics.exists()


@pytest.mark.parametrize("command", ["train-source", "hybrid"])
@pytest.mark.parametrize("via", ["flag", "config"])
def test_negative_seed_exits_two_before_loading_anything(tmp_path, capsys, command, via):
    missing = str(tmp_path / "missing")  # loading any file would fail differently
    argv = (["train-source", "--data", missing, "--vocab", missing] if command == "train-source"
            else ["hybrid", "--source-data", missing, "--target-data", missing,
                  "--init-checkpoint", missing])
    if via == "flag":
        argv += ["--seed", "-1"]
    else:
        cfg = tmp_path / "s.cfg"
        cfg.write_text("seed = -1\n", encoding="utf-8")
        argv += ["--config", str(cfg)]
    ck = tmp_path / "c.ckpt"
    assert cli.main(argv + ["--out-checkpoint", str(ck)]) == 2
    assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
    assert not ck.exists()


def test_numeric_failure_exits_three(pipe, tmp_path, monkeypatch, capsys):
    def blow_up(*a, **kw):
        raise NumericError("loss went non-finite")
    monkeypatch.setattr(cli, "train_source", blow_up)
    rc = cli.main(["train-source", "--data",
                   str(pipe["data"] / "source" / "train" / "manifest.tsv"),
                   "--vocab", str(pipe["data"] / "vocab.json"),
                   "--out-checkpoint", str(tmp_path / "c.ckpt")])
    assert rc == 3
    assert "non-finite" in capsys.readouterr().err


def test_loops_do_not_check_the_models_own_posteriors(pipe, tmp_path, monkeypatch, capsys):
    """Source training with --val, a prior pass, greedy eval and a no-LM eval
    hand the model's own posteriors to the kernels: none of them calls
    check_posteriors, which the public entry points still call."""
    def refuse(mats):
        raise AssertionError("check_posteriors ran on the model's own posteriors")
    for mod in (ctc_mod, decoder_mod):
        monkeypatch.setattr(mod, "check_posteriors", refuse)
    with pytest.raises(AssertionError, match="check_posteriors ran"):
        greedy_decode([np.log(np.full((2, 3), 1 / 3))])  # the patch is live

    data, ck = pipe["data"], tmp_path / "c.ckpt"
    val = data / "source" / "val" / "manifest.tsv"
    assert cli.main(["train-source", "--data", str(data / "source" / "train" / "manifest.tsv"),
                     "--val", str(val), "--vocab", str(data / "vocab.json"),
                     "--out-checkpoint", str(ck), "--config", str(pipe["cfg"]),
                     "--epochs", "1"]) == 0
    model = load_checkpoint(ck)
    samples = load_manifest(val, model.cfg.input_dim)
    priors = prior_pass(model, samples, TrainConfig(batch_size=2, prior_pass_batches=3),
                        np.random.default_rng(0), floor=1e-6)
    assert priors.shape == (model.vocab.emit_size,)
    assert 0.0 <= greedy_eval(model, samples)
    capsys.readouterr()
    assert cli.main(["eval", "--checkpoint", str(ck), "--data", str(val)]) == 0
    assert capsys.readouterr().out.startswith("cer\t")


# -- hybrid -------------------------------------------------------------------

def test_hybrid_priors_log(pipe):
    model = load_checkpoint(pipe["hy"])
    lines = pipe["priors_log"].read_text(encoding="utf-8").splitlines()
    # one snapshot per outer iteration, one row per emitting label
    assert len(lines) == 2 * model.vocab.emit_size
    first = lines[0].split("\t")
    assert first[:3] == ["0", "0", "<blank>"]
    for it in ("0", "1"):
        mass = sum(float(l.split("\t")[3]) for l in lines
                   if l.split("\t")[0] == it)
        assert mass == pytest.approx(1.0, abs=1e-6)


def test_hybrid_metrics_has_val_rows(pipe):
    lines = pipe["hymetrics"].read_text(encoding="utf-8").splitlines()
    assert [l.split("\t")[:2] for l in lines] == [
        ["0", "train"], ["0", "val"], ["1", "train"], ["1", "val"]]


def test_hybrid_without_lm_and_full_source_fraction(pipe, tmp_path):
    data = pipe["data"]
    rc = cli.main(["hybrid", "--source-data", str(data / "source" / "train" / "manifest.tsv"),
                   "--target-data", str(data / "target" / "train" / "manifest.tsv"),
                   "--init-checkpoint", str(pipe["ck"]),
                   "--out-checkpoint", str(tmp_path / "u.ckpt"),
                   "--rho", "1", "--outer-iters", "1", "--prior-pass-batches", "1",
                   "--train-pass-batches", "1", "--batch-size", "2", "--beam", "2"])
    assert rc == 0
    assert load_checkpoint(tmp_path / "u.ckpt").vocab == load_checkpoint(pipe["ck"]).vocab


def test_hybrid_requires_target_data(pipe, tmp_path, capsys):
    rc = cli.main(["hybrid", "--source-data",
                   str(pipe["data"] / "source" / "train" / "manifest.tsv"),
                   "--init-checkpoint", str(pipe["ck"]),
                   "--out-checkpoint", str(tmp_path / "x.ckpt")])
    assert rc == 1
    assert "--target-data" in capsys.readouterr().err


def test_mismatched_lm_vocab_exits_two(pipe, tmp_path, capsys):
    # an LM built from the source corpus alone lacks the accented characters
    bad = tmp_path / "bad.arpa"
    rc = cli.main(["train-lm", "--corpus", str(pipe["data"] / "source" / "corpus.txt"),
                   "--out", str(bad), "--order", "2"])
    assert rc == 0
    rc = cli.main(["decode", "--checkpoint", str(pipe["ck"]),
                   "--data", str(pipe["data"] / "source" / "val" / "manifest.tsv"),
                   "--lm", str(bad)])
    assert rc == 2
    assert "vocabular" in capsys.readouterr().err


# -- decode / eval ------------------------------------------------------------

def test_decode_writes_hypothesis_rows(pipe, tmp_path):
    out = tmp_path / "hyps.tsv"
    rc = cli.main(["decode", "--checkpoint", str(pipe["ck"]),
                   "--data", str(pipe["data"] / "source" / "val" / "manifest.tsv"),
                   "--out", str(out)])
    assert rc == 0
    ds = load_manifest(pipe["data"] / "source" / "val" / "manifest.tsv")
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == len(ds)
    assert [l.split("\t")[0] for l in lines] == [s.sample_id for s in ds]


def test_decode_stdout_and_report(pipe, tmp_path, capsys):
    report = tmp_path / "report.tsv"
    rc = cli.main(["decode", "--checkpoint", str(pipe["ck"]),
                   "--data", str(pipe["data"] / "source" / "val" / "manifest.tsv"),
                   "--lm", str(pipe["lm"]), "--beam", "4", "--report", str(report)])
    assert rc == 0
    out = capsys.readouterr().out
    assert re.search(r"^cer\t\d\.\d{6}$", out.splitlines()[-1])
    assert report.read_text(encoding="utf-8").splitlines()[0] == "ref\thyp\tedits"


def test_decode_report_on_unlabeled_manifest_exits_two_before_decoding(pipe, tmp_path, capsys):
    out, report = tmp_path / "hyps.tsv", tmp_path / "report.tsv"
    rc = cli.main(["decode", "--checkpoint", str(pipe["ck"]),
                   "--data", str(pipe["data"] / "target" / "train" / "manifest.tsv"),
                   "--out", str(out), "--report", str(report)])
    assert rc == 2
    assert capsys.readouterr().err == "error: --report needs a fully labeled manifest\n"
    assert not out.exists() and not report.exists()


def test_eval_prints_pooled_cer(pipe, capsys):
    rc = cli.main(["eval", "--checkpoint", str(pipe["ck"]),
                   "--data", str(pipe["data"] / "source" / "test" / "manifest.tsv")])
    assert rc == 0
    line = capsys.readouterr().out.splitlines()[-1]
    name, value = line.split("\t")
    assert name == "cer" and 0.0 <= float(value)


def test_eval_rejects_unlabeled_manifest(pipe, capsys):
    rc = cli.main(["eval", "--checkpoint", str(pipe["ck"]),
                   "--data", str(pipe["data"] / "target" / "train" / "manifest.tsv")])
    assert rc == 2


def test_eval_sweep_grid(pipe, tmp_path):
    out = tmp_path / "sweep.tsv"
    rc = cli.main(["eval", "--checkpoint", str(pipe["ck"]),
                   "--data", str(pipe["data"] / "source" / "val" / "manifest.tsv"),
                   "--lm", str(pipe["lm"]), "--beam", "2",
                   "--sweep-w", "0.3,0.5", "--sweep-alpha", "0,0.5",
                   "--out", str(out)])
    assert rc == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "w\talpha\tcer"
    assert len(lines) == 5
    assert [l.split("\t")[:2] for l in lines[1:]] == [
        ["0.3", "0"], ["0.3", "0.5"], ["0.5", "0"], ["0.5", "0.5"]]
    for l in lines[1:]:
        assert re.fullmatch(r"\d\.\d{6}", l.split("\t")[2])


def test_eval_out_receives_the_cer_line(pipe, tmp_path, capsys):
    out = tmp_path / "cer.txt"
    rc = cli.main(["eval", "--checkpoint", str(pipe["ck"]),
                   "--data", str(pipe["data"] / "source" / "test" / "manifest.tsv"),
                   "--out", str(out)])
    assert rc == 0
    assert re.fullmatch(r"cer\t\d\.\d{6}\n", out.read_text(encoding="utf-8"))
    assert "cer" not in capsys.readouterr().out


def test_eval_sweep_rows_equal_single_point_runs(pipe, tmp_path, capsys):
    common = ["eval", "--checkpoint", str(pipe["ck"]),
              "--data", str(pipe["data"] / "source" / "val" / "manifest.tsv"),
              "--lm", str(pipe["lm"]), "--beam", "3"]
    out = tmp_path / "sweep.tsv"
    assert cli.main(common + ["--sweep-w", "0.2,0.7", "--sweep-alpha", "0,0.6,1.5",
                              "--out", str(out)]) == 0
    rows = out.read_text(encoding="utf-8").splitlines()[1:]
    assert len(rows) == 6
    capsys.readouterr()
    for row in rows:
        w, a, value = row.split("\t")
        assert cli.main(common + ["--w", w, "--alpha", a]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == f"cer\t{value}"


def test_eval_sweep_requires_lm(pipe, capsys):
    rc = cli.main(["eval", "--checkpoint", str(pipe["ck"]),
                   "--data", str(pipe["data"] / "source" / "val" / "manifest.tsv"),
                   "--sweep-w", "0.3,0.5"])
    assert rc == 1
    assert "--lm" in capsys.readouterr().err


def test_eval_sweep_with_report_is_usage_error(pipe, tmp_path, capsys):
    report = tmp_path / "r.tsv"
    rc = cli.main(["eval", "--checkpoint", str(pipe["ck"]),
                   "--data", str(pipe["data"] / "source" / "val" / "manifest.tsv"),
                   "--lm", str(pipe["lm"]), "--beam", "2",
                   "--sweep-w", "0.3", "--report", str(report)])
    assert rc == 1
    assert "--report" in capsys.readouterr().err
    assert not report.exists()


@pytest.mark.parametrize("flags", [["--w", "nan"], ["--w", "inf"], ["--alpha", "inf"],
                                   ["--sweep-w", "nan,0.4"]])
def test_eval_non_finite_decoder_weight_exits_two(pipe, capsys, flags):
    rc = cli.main(["eval", "--checkpoint", str(pipe["ck"]),
                   "--data", str(pipe["data"] / "source" / "val" / "manifest.tsv"),
                   "--lm", str(pipe["lm"]), "--beam", "2"] + flags)
    assert rc == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "must be finite" in err


def test_eval_overflowing_decoder_weight_exits_three(pipe, capsys):
    rc = cli.main(["eval", "--checkpoint", str(pipe["ck"]),
                   "--data", str(pipe["data"] / "source" / "val" / "manifest.tsv"),
                   "--lm", str(pipe["lm"]), "--beam", "2", "--alpha", "1e308"])
    assert rc == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "emission_weight" in err and "prior_scale" in err


# -- exit codes and help --------------------------------------------------------

def test_unknown_flag_is_usage_error(capsys):
    assert cli.main(["train-lm", "--corpus", "x", "--out", "y", "--bogus"]) == 1
    capsys.readouterr()


# every option naming a file, or holding a list, per subcommand
PATH_OPTIONS = {
    "gen-data": ["--out"],
    "train-lm": ["--corpus", "--out", "--vocab", "--perplexity-on"],
    "train-source": ["--data", "--val", "--vocab", "--out-checkpoint", "--metrics", "--config"],
    "hybrid": ["--source-data", "--target-data", "--val-data", "--init-checkpoint", "--lm",
               "--out-checkpoint", "--metrics", "--priors-log", "--config"],
    "decode": ["--checkpoint", "--data", "--lm", "--out", "--report"],
    "eval": ["--checkpoint", "--data", "--lm", "--out", "--report", "--sweep-w",
             "--sweep-alpha"],
}


@pytest.mark.parametrize("command,flag", [(c, f) for c, flags in PATH_OPTIONS.items()
                                          for f in flags])
def test_empty_path_or_list_option_is_usage_error(command, flag):
    with pytest.raises(cli.UsageError, match=f"^argument {flag}: must not be empty$"):
        cli.build_parser(command).parse_args([command, flag, ""])


@pytest.mark.parametrize("argv,flag", [
    (["gen-data", "--out", "d"], "--shared-chars"),
    (["gen-data", "--out", "d"], "--source-extra"),
    (["gen-data", "--out", "d"], "--target-extra"),
    (["train-lm", "--corpus", "c", "--out", "o"], "--extra-chars")])
def test_character_set_option_accepts_empty(argv, flag):
    args = cli.build_parser(argv[0]).parse_args(argv + [flag, ""])
    assert getattr(args, flag[2:].replace("-", "_")) == ""


@pytest.mark.parametrize("case", ["hybrid --lm", "eval --lm", "eval --sweep-w"])
def test_empty_flag_is_not_a_missing_flag(pipe, tmp_path, capsys, case):
    # read as a flag left out, "" would run the uniform-LM control, greedy
    # decoding and a one-point sweep
    data, out = pipe["data"], tmp_path / "out"
    command, flag = case.split()
    if command == "hybrid":
        argv = ["--source-data", str(data / "source" / "train" / "manifest.tsv"),
                "--target-data", str(data / "target" / "train" / "manifest.tsv"),
                "--init-checkpoint", str(pipe["ck"]), "--out-checkpoint", str(out),
                "--outer-iters", "1", "--prior-pass-batches", "1",
                "--train-pass-batches", "1", "--batch-size", "2", "--beam", "2"]
    else:
        argv = ["--checkpoint", str(pipe["ck"]), "--beam", "2", "--out", str(out),
                "--data", str(data / "source" / "val" / "manifest.tsv")]
        if flag != "--lm":
            argv += ["--lm", str(pipe["lm"])]
    assert cli.main([command] + argv + [flag, ""]) == 1
    assert capsys.readouterr().err == f"error: argument {flag}: must not be empty\n"
    assert not out.exists()


@pytest.mark.parametrize("case", ["manifest", "vocab", "arpa", "corpus", "perplexity-on",
                                  "config"])
def test_non_utf8_input_exits_two_naming_the_file(pipe, tmp_path, capsys, case):
    data, out = pipe["data"], tmp_path / "out"
    manifest, corpus = data / "source" / "val" / "manifest.tsv", data / "target" / "corpus.txt"
    good = {"manifest": manifest, "vocab": data / "vocab.json", "arpa": pipe["lm"],
            "corpus": corpus, "perplexity-on": corpus, "config": pipe["cfg"]}[case]
    bad = tmp_path / f"bad.{case}"
    bad.write_bytes(good.read_bytes() + b"\xff\n")
    argv = {"manifest": ["decode", "--checkpoint", str(pipe["ck"]), "--data", str(bad)],
            "vocab": ["train-lm", "--corpus", str(corpus), "--vocab", str(bad)],
            "arpa": ["decode", "--checkpoint", str(pipe["ck"]), "--data", str(manifest),
                     "--lm", str(bad)],
            "corpus": ["train-lm", "--corpus", str(bad)],
            "perplexity-on": ["train-lm", "--corpus", str(corpus), "--perplexity-on", str(bad)],
            "config": ["train-source", "--config", str(bad), "--vocab", str(data / "vocab.json"),
                       "--data", str(data / "source" / "train" / "manifest.tsv")]}[case]
    flag = "--out" if argv[0] in ("train-lm", "decode") else "--out-checkpoint"
    assert cli.main(argv + [flag, str(out)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and f"error: {bad}: not UTF-8 text" in err
    assert not out.exists()


# every output-file flag, per subcommand; gen-data's --out is the directory it makes
OUTPUT_FLAGS = {
    "train-lm": ["--out"],
    "train-source": ["--out-checkpoint", "--metrics"],
    "hybrid": ["--out-checkpoint", "--metrics", "--priors-log"],
    "decode": ["--out", "--report"],
    "eval": ["--out", "--report"],
}


@pytest.mark.parametrize("command,flag", [(c, f) for c, flags in OUTPUT_FLAGS.items()
                                          for f in flags])
@pytest.mark.parametrize("where", ["missing directory", "a directory"])
def test_bad_output_path_exits_two_before_loading_anything(pipe, tmp_path, monkeypatch, capsys,
                                                           command, flag, where):
    for name in ("read_lines", "load_manifest", "load_checkpoint", "load_arpa", "train_source",
                 "hybrid_train"):
        monkeypatch.setattr(cli, name, _refuse)
    monkeypatch.setattr(Vocabulary, "load", _refuse)
    data = pipe["data"]
    manifest = str(data / "source" / "val" / "manifest.tsv")
    argv = {"train-lm": ["--corpus", str(data / "target" / "corpus.txt")],
            "train-source": ["--data", manifest, "--vocab", str(data / "vocab.json"),
                             "--val", manifest],
            "hybrid": ["--source-data", manifest, "--target-data", manifest,
                       "--init-checkpoint", str(pipe["ck"]), "--lm", str(pipe["lm"])],
            "decode": ["--checkpoint", str(pipe["ck"]), "--data", manifest],
            "eval": ["--checkpoint", str(pipe["ck"]), "--data", manifest]}[command]
    outs = {f: tmp_path / f"{f[2:]}.out" for f in OUTPUT_FLAGS[command]}
    bad = outs[flag] = tmp_path / "nodir" / "x.out" if where != "a directory" else tmp_path
    for f, path in outs.items():
        argv += [f, str(path)]
    assert cli.main([command] + argv) == 2
    assert capsys.readouterr().err == \
        f"error: {flag} {bad}: not a file in an existing directory\n"
    assert not any(tmp_path.iterdir())  # nothing written


def test_missing_file_exits_two(tmp_path, capsys):
    rc = cli.main(["train-lm", "--corpus", str(tmp_path / "nope.txt"),
                   "--out", str(tmp_path / "o.arpa")])
    assert rc == 2
    capsys.readouterr()


def test_non_finite_checkpoint_parameter_exits_two(pipe, tmp_path, capsys):
    model = load_checkpoint(pipe["ck"])
    model.params["main_b"][1] = np.nan
    bad = tmp_path / "nan.ckpt"
    save_checkpoint(model, bad)
    rc = cli.main(["eval", "--checkpoint", str(bad), "--lm", str(pipe["lm"]),
                   "--data", str(pipe["data"] / "source" / "val" / "manifest.tsv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and str(bad) in err and "'main_b'" in err


def test_corrupt_checkpoint_exits_two(pipe, tmp_path, capsys):
    bad = tmp_path / "bad.ckpt"
    blob = bytearray(pipe["ck"].read_bytes())
    blob[:4] = b"XXXX"
    bad.write_bytes(bytes(blob))
    rc = cli.main(["decode", "--checkpoint", str(bad),
                   "--data", str(pipe["data"] / "source" / "val" / "manifest.tsv")])
    assert rc == 2
    capsys.readouterr()


@pytest.mark.parametrize("payload", [b"5", b"[1,2]",
                                     pytest.param(b"[" * 100000, id="deeply-nested")])
def test_checkpoint_vocabulary_not_a_char_list_exits_two(pipe, tmp_path, capsys, payload):
    blob = pipe["ck"].read_bytes()
    # magic (8), config (20) and seed (8), then the u32 vocabulary length
    nchars, = struct.unpack("<I", blob[36:40])
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(blob[:36] + struct.pack("<I", len(payload)) + payload
                    + blob[40 + nchars:])
    rc = cli.main(["decode", "--checkpoint", str(bad),
                   "--data", str(pipe["data"] / "source" / "val" / "manifest.tsv")])
    assert rc == 2
    assert "vocabulary block" in capsys.readouterr().err


def _parse_exit(parser, argv, capsys):
    """What parsing argv prints and how it ends: (exit code or usage-error
    message, stdout)."""
    try:
        parser.parse_args(argv)
    except SystemExit as e:
        return e.code, capsys.readouterr().out
    except cli.UsageError as e:
        return str(e), capsys.readouterr().out
    raise AssertionError(f"{argv} parsed")


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_one_command_parser_reads_as_the_full_tree(command, capsys, monkeypatch):
    full = cli.build_parser()
    one = cli.build_parser(command)
    for argv in ([command, "--help"], [command], [command, "--bogus", "1"]):
        assert _parse_exit(one, argv, capsys) == _parse_exit(full, argv, capsys)
    # main builds only the named subcommand's parser, and exits 1 on a
    # missing required flag with the full tree's message
    built = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda name=None: built.append(name) or real(name))
    assert cli.main([command]) == 1
    assert capsys.readouterr().err == f"error: {_parse_exit(full, [command], capsys)[0]}\n"
    assert built == [command]
    with pytest.raises(SystemExit) as e:
        cli.main([command, "--help"])
    assert e.value.code == 0
    assert capsys.readouterr().out == _parse_exit(full, [command, "--help"], capsys)[1]
    other = next(c for c in cli.COMMANDS if c != command)
    with pytest.raises(cli.UsageError, match=f"invalid choice: '{other}'"):
        one.parse_args([other])


@pytest.mark.parametrize("argv", [[], ["-h"], ["--help"], ["bogus"], ["--bogus"]])
def test_no_command_or_an_unknown_one_builds_the_full_tree(argv, capsys, monkeypatch):
    built = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda name=None: built.append(name) or real(name))
    try:
        rc = cli.main(argv)
    except SystemExit as e:
        rc = e.code
    out = capsys.readouterr()
    assert built == [None]
    code, full_out = _parse_exit(real(), argv, capsys)
    if isinstance(code, int):  # help
        assert (rc, out.out) == (code, full_out)
        assert all(c in out.out for c in cli.COMMANDS)
    else:
        assert (rc, out.err) == (1, f"error: {code}\n")


def test_repeated_arpa_section_exits_two(pipe, tmp_path, capsys):
    bad = tmp_path / "repeated.arpa"
    bad.write_text(REPEATED_SECTION_ARPA, encoding="utf-8")
    rc = cli.main(["eval", "--checkpoint", str(pipe["ck"]), "--lm", str(bad),
                   "--data", str(pipe["data"] / "source" / "val" / "manifest.tsv")])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {bad}: repeated section marker '\\\\1-grams:'\n"


def test_hybrid_help_documents_defaults(capsys):
    with pytest.raises(SystemExit) as e:
        cli.main(["hybrid", "--help"])
    assert e.value.code == 0
    out = capsys.readouterr().out
    for frag in ("(default: 0.4)", "(default: 0.5)", "(default: 0.25)", "(default: 8)"):
        assert frag in out


# every knob flag a subcommand takes: flag -> (config dataclass, field, dest)
_DECODER_FLAGS = {"--w": (DecoderConfig, "emission_weight", "w"),
                  "--alpha": (DecoderConfig, "prior_scale", "alpha"),
                  "--beam": (DecoderConfig, "beam_width", "beam"),
                  "--prior-floor": (DecoderConfig, "prior_floor", "prior_floor")}
_TRAIN_FLAGS = {"--lambda": (TrainConfig, "aux_loss_weight", "lambda_"),
                "--batch-size": (TrainConfig, "batch_size", "batch_size"),
                "--lr": (AdamConfig, "lr", "lr"),
                "--seed": (TrainConfig, "seed", "seed")}
KNOB_FLAGS = {
    "train-source": {**_TRAIN_FLAGS, "--epochs": (TrainConfig, "epochs", "epochs")},
    "hybrid": {**_TRAIN_FLAGS, **_DECODER_FLAGS,
               "--outer-iters": (TrainConfig, "outer_iters", "outer_iters"),
               "--prior-pass-batches": (TrainConfig, "prior_pass_batches",
                                        "prior_pass_batches"),
               "--train-pass-batches": (TrainConfig, "train_pass_batches",
                                        "train_pass_batches"),
               "--rho": (TrainConfig, "source_fraction", "rho")},
    "decode": _DECODER_FLAGS,
    "eval": _DECODER_FLAGS,
}


@pytest.mark.parametrize("command", sorted(KNOB_FLAGS))
def test_knob_flags_read_their_dataclass_field(command):
    parser = cli.build_parser(command)
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    # a knob flag defaults to absent, so the config file and the dataclass can fill it
    knobs = {a.option_strings[0]: a for a in sub.choices[command]._actions
             if a.default is argparse.SUPPRESS and a.dest != "help"}
    assert set(knobs) == set(KNOB_FLAGS[command])
    for flag, (cls, name, dest) in KNOB_FLAGS[command].items():
        default = {f.name: f.default for f in dataclasses.fields(cls)}[name]
        action = knobs[flag]
        assert action.option_strings == [flag]
        assert (action.dest, action.type) == (dest, type(default))
        assert action.help.endswith(f" (default: {default})")


# -- robustness: damaged input files ----------------------------------------------

@pytest.fixture(scope="module")
def fuzz_dir(pipe, tmp_path_factory):
    """A copy of the source val split (manifest plus frame files) and a
    hybrid config file, for the damaged-input test to overwrite."""
    root = tmp_path_factory.mktemp("fuzz")
    split = pipe["data"] / "source" / "val"
    rows = (split / "manifest.tsv").read_text(encoding="utf-8").splitlines()
    for row in rows:
        rel = row.split("\t")[1]
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_bytes((split / rel).read_bytes())
    (root / "manifest.tsv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    data = pipe["data"]
    (root / "hybrid.cfg").write_text(
        "# hybrid knobs and inputs\nlambda = 0.25\nsource_fraction = 0.5\n"
        "w = 0.4\nalpha = 0.5\nprior_floor = 1e-6\nlr = 0.001\nbeta1 = 0.9\nseed = 3\n"
        f"source_data = {data / 'source' / 'train' / 'manifest.tsv'}\n"
        f"target_data = {data / 'target' / 'train' / 'manifest.tsv'}\n"
        f"lm = {pipe['lm']}\n", encoding="utf-8")
    return root, rows[0].split("\t")[1]


def _damage(blob: bytes, kind: str, cuts: list[int], bit: int) -> bytes:
    """Truncate blob, flip one bit, or replace one span with another span
    of the same bytes."""
    n = len(blob)
    a, b, c, d = (x % (n + 1) for x in cuts)
    if kind == "truncate":
        return blob[:a]
    if kind == "flip":
        a %= n
        return blob[:a] + bytes([blob[a] ^ (1 << bit)]) + blob[a + 1:]
    a, b = sorted((a, b))
    c, d = sorted((c, d))
    return blob[:a] + blob[c:d] + blob[b:]


@pytest.mark.parametrize("target", ["checkpoint", "frames", "manifest", "config"])
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(kind=st.sampled_from(["truncate", "flip", "splice"]),
       cuts=st.lists(st.integers(min_value=0, max_value=10 ** 6), min_size=4, max_size=4),
       bit=st.integers(min_value=0, max_value=7))
def test_damaged_input_never_raises(pipe, fuzz_dir, capsys, target, kind, cuts, bit):
    root, frame_rel = fuzz_dir
    manifest = root / "manifest.tsv"
    sources = {"checkpoint": pipe["ck"], "frames": root / frame_rel,
               "manifest": manifest, "config": root / "hybrid.cfg"}
    good = sources[target].read_bytes()
    damaged = root / f"damaged.{target}"
    damaged.write_bytes(_damage(good, kind, cuts, bit))
    if target == "config":
        argv = ["hybrid", "--config", str(damaged), "--init-checkpoint", str(pipe["ck"]),
                "--out-checkpoint", str(root / "out.ckpt"), "--outer-iters", "1",
                "--prior-pass-batches", "1", "--train-pass-batches", "1",
                "--batch-size", "2", "--beam", "2"]
    else:
        if target == "frames":
            damaged = root / "damaged_frames.tsv"
            damaged.write_text(manifest.read_text(encoding="utf-8").replace(
                frame_rel, "damaged.frames", 1), encoding="utf-8")
        ckpt = damaged if target == "checkpoint" else pipe["ck"]
        data = damaged if target in ("frames", "manifest") else manifest
        argv = ["decode", "--checkpoint", str(ckpt), "--data", str(data),
                "--out", str(root / "hyp.tsv")]
    assert cli.main(argv) in (0, 1, 2, 3)
    capsys.readouterr()
