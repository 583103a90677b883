"""End-to-end exercises of the command-line pipeline, all in-process."""

import re
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from seqtransfer import (NumericError, Vocabulary, build_lm, cli, forward, load_arpa,
                         load_checkpoint, load_manifest, perplexity, save_checkpoint)


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


def test_gen_data_rejects_zero_train(tmp_path, capsys):
    rc = cli.main(["gen-data", "--out", str(tmp_path / "x"), "--n-train", "0"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_gen_data_rejects_bad_text_len(tmp_path):
    rc = cli.main(["gen-data", "--out", str(tmp_path / "x"), "--n-train", "2",
                   "--n-val", "1", "--n-test", "1", "--text-len", "banana"])
    assert rc == 1


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


def test_hybrid_help_documents_defaults(capsys):
    with pytest.raises(SystemExit) as e:
        cli.main(["hybrid", "--help"])
    assert e.value.code == 0
    out = capsys.readouterr().out
    for frag in ("(default: 0.4)", "(default: 0.5)", "(default: 0.25)", "(default: 8)"):
        assert frag in out


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
