"""Command-line entry point.

Subcommands cover the full pipeline: gen-data, train-lm, train-source,
hybrid, decode, eval.  Exit codes: 0 success, 1 usage error, 2 data or
file-format error, 3 numeric failure.

Hyperparameters resolve in order: explicit flag, then experiment config
file (line-oriented "key = value"), then the built-in default.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .ctc import greedy_decode
from .data import load_manifest
from .decoder import DecoderConfig, estimate_priors, lm_beam_decode
from .errors import FormatError, NumericError
from .metrics import cer, write_report
from .ngram_lm import build_lm, load_arpa, perplexity, save_arpa
from .recognizer import RecognizerConfig, forward, init_recognizer, load_checkpoint, \
    save_checkpoint
from .synth_data import generate_dataset, make_language_pair, sample_corpus
from .trainer import AdamConfig, TrainConfig, hybrid_train, train_source, write_metrics
from .vocab import Vocabulary


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); usage errors are exit 1 here
        raise UsageError(message)


# experiment config file: every trainer / decoder / recognizer knob plus data paths
_CONFIG_TYPES = {
    "lambda": float, "batch_size": int, "source_fraction": float,
    "outer_iters": int, "prior_pass_batches": int, "train_pass_batches": int,
    "epochs": int,
    "lr": float, "beta1": float, "beta2": float, "eps": float,
    "w": float, "alpha": float, "beam_width": int, "prior_floor": float,
    "input_dim": int, "context_radius": int, "feature_dim": int, "recurrent_dim": int,
    "seed": int,
    "source_data": str, "target_data": str, "val_data": str, "lm": str,
}


def read_config(path) -> dict:
    out = {}
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()
    except OSError as e:
        raise UsageError(f"cannot read config {path}: {e}") from None
    for lineno, line in enumerate(lines, start=1):
        s = line.split("#", 1)[0].strip()
        if not s:
            continue
        if "=" not in s:
            raise UsageError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, val = s.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _CONFIG_TYPES:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            out[key] = _CONFIG_TYPES[key](val)
        except ValueError:
            raise UsageError(f"{path}:{lineno}: bad value for {key}: {val!r}") from None
    return out


def _pick(args, attr, cfg: dict, key: str, default):
    if hasattr(args, attr):
        return getattr(args, attr)
    if key in cfg:
        return cfg[key]
    return default


def _read_lines(path) -> list[str]:
    with open(path, encoding="utf-8") as f:
        return f.read().splitlines()


# -- gen-data --------------------------------------------------------------

def cmd_gen_data(args) -> int:
    for name in ("n_train", "n_val", "n_test"):
        if getattr(args, name) < 1:
            raise UsageError(f"--{name.replace('_', '-')} must be >= 1")
    try:
        lo, hi = (int(x) for x in args.text_len.split(","))
    except ValueError:
        raise UsageError(f"--text-len wants 'min,max', got {args.text_len!r}") from None
    if not (1 <= lo <= hi):
        raise UsageError(f"--text-len range {lo},{hi} is not increasing from >= 1")

    source, target = make_language_pair(
        args.base_seed, args.shared_chars, args.source_extra, args.target_extra,
        style_strength=args.style_strength, noise_sigma=args.noise_sigma,
        input_dim=args.input_dim)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    vocab = Vocabulary(set(source.chars) | set(target.chars))
    vocab.save(out / "vocab.json")

    counts = {"train": args.n_train, "val": args.n_val, "test": args.n_test}
    for li, spec in enumerate((source, target)):
        lang_dir = out / spec.name
        lang_dir.mkdir(exist_ok=True)
        for si, split in enumerate(("train", "val", "test")):
            rng = np.random.default_rng(
                np.random.SeedSequence((args.base_seed, 0xD5, li, si)))
            generate_dataset(
                spec, counts[split], (lo, hi), rng, lang_dir / split,
                unlabeled=(spec.name == "target" and split == "train"),
                corpus_path=(lang_dir / "corpus.txt") if split == "train" else None)
        rng = np.random.default_rng(np.random.SeedSequence((args.base_seed, 0xD5, li, 3)))
        n_unrelated = args.unrelated_lines if args.unrelated_lines else args.n_train
        with open(lang_dir / "unrelated.txt", "w", encoding="utf-8") as f:
            for line in sample_corpus(spec, n_unrelated, (lo, hi), rng):
                f.write(line + "\n")
    print(f"wrote {out}/vocab.json and 6 manifests under {out}/")
    return 0


# -- train-lm ---------------------------------------------------------------

def cmd_train_lm(args) -> int:
    if args.order < 1:
        raise UsageError("--order must be >= 1")
    corpus = _read_lines(args.corpus)
    vocab = Vocabulary.load(args.vocab) if args.vocab else None
    lm = build_lm(corpus, order=args.order, discount=args.discount,
                  extra_chars=args.extra_chars, vocab=vocab)
    save_arpa(lm, args.out)
    print(f"wrote {args.out}: order {lm.order}, {len(lm.probs)} n-grams, "
          f"{len(lm.vocab.chars)} characters")
    if args.perplexity_on:
        print(f"perplexity\t{perplexity(lm, _read_lines(args.perplexity_on)):.6f}")
    return 0


# -- train-source -----------------------------------------------------------

def _train_config(args, cfg: dict) -> TrainConfig:
    return TrainConfig(
        aux_loss_weight=_pick(args, "lambda_", cfg, "lambda", 0.25),
        batch_size=_pick(args, "batch_size", cfg, "batch_size", 8),
        source_fraction=_pick(args, "rho", cfg, "source_fraction", 0.5),
        outer_iters=_pick(args, "outer_iters", cfg, "outer_iters", 50),
        prior_pass_batches=_pick(args, "prior_pass_batches", cfg, "prior_pass_batches", 100),
        train_pass_batches=_pick(args, "train_pass_batches", cfg, "train_pass_batches", 100),
        epochs=_pick(args, "epochs", cfg, "epochs", 10),
        adam=AdamConfig(lr=_pick(args, "lr", cfg, "lr", 1e-3),
                        beta1=cfg.get("beta1", 0.9), beta2=cfg.get("beta2", 0.999),
                        eps=cfg.get("eps", 1e-8)),
        seed=_pick(args, "seed", cfg, "seed", 0),
    )


def _decoder_config(args, cfg: dict) -> DecoderConfig:
    return DecoderConfig(
        emission_weight=_pick(args, "w", cfg, "w", 0.4),
        prior_scale=_pick(args, "alpha", cfg, "alpha", 0.5),
        beam_width=_pick(args, "beam", cfg, "beam_width", 64),
        prior_floor=_pick(args, "prior_floor", cfg, "prior_floor", 1e-6),
    )


def cmd_train_source(args) -> int:
    cfg = read_config(args.config) if args.config else {}
    tcfg = _train_config(args, cfg)
    vocab = Vocabulary.load(args.vocab)
    rcfg = RecognizerConfig(
        label_count=vocab.emit_size,
        input_dim=cfg.get("input_dim", 16),
        context_radius=cfg.get("context_radius", 2),
        feature_dim=cfg.get("feature_dim", 64),
        recurrent_dim=cfg.get("recurrent_dim", 32),
        seed=tcfg.seed)
    model = init_recognizer(rcfg, vocab)
    train = load_manifest(args.data)
    val = load_manifest(args.val) if args.val else None
    res = train_source(model, train, tcfg, val)
    save_checkpoint(model, args.out_checkpoint)
    if args.metrics:
        write_metrics(res.rows, args.metrics)
    last = [r for r in res.rows if r.split == "train"][-1]
    print(f"wrote {args.out_checkpoint}: final train loss {last.loss:.4f}, "
          f"train CER {last.cer:.4f}, skipped {res.skipped}")
    return 0


# -- hybrid -------------------------------------------------------------------

def cmd_hybrid(args) -> int:
    cfg = read_config(args.config) if args.config else {}
    tcfg = _train_config(args, cfg)
    dcfg = _decoder_config(args, cfg)
    model = load_checkpoint(args.init_checkpoint)
    lm_path = args.lm or cfg.get("lm")
    lm = load_arpa(lm_path) if lm_path else None
    source = load_manifest(_require(args, "source_data", cfg))
    target = load_manifest(_require(args, "target_data", cfg))
    val_path = args.val_data or cfg.get("val_data")
    val = load_manifest(val_path) if val_path else None
    res = hybrid_train(model, source, target, lm, tcfg, dcfg, val)
    save_checkpoint(model, args.out_checkpoint)
    if args.metrics:
        write_metrics(res.rows, args.metrics)
    if args.priors_log:
        with open(args.priors_log, "w", encoding="utf-8") as f:
            for it, priors in enumerate(res.prior_history):
                for label_id, p in enumerate(priors):
                    name = "<blank>" if label_id == 0 else model.vocab.char_of(label_id)
                    f.write(f"{it}\t{label_id}\t{name}\t{p:.10g}\n")
    tail = ""
    if val is not None:
        vals = [r for r in res.rows if r.split == "val"]
        tail = f", final val CER {vals[-1].cer:.4f}"
    print(f"wrote {args.out_checkpoint}: {res.source_only_steps} source-only steps, "
          f"{res.skipped_decodes} skipped decodes{tail}")
    return 0


def _require(args, key: str, cfg: dict) -> str:
    val = getattr(args, key, None) or cfg.get(key)
    if not val:
        raise UsageError(f"--{key.replace('_', '-')} is required (flag or config)")
    return val


# -- decode / eval ------------------------------------------------------------

def _decode_all(model, dataset, lm, dcfg):
    """(id, hypothesis text) pairs; beam decoding when an LM is present,
    greedy otherwise.  Beam decoding estimates label priors from the
    model's own posteriors on this dataset."""
    mains = []
    for s in dataset:
        _, main = forward(model, s.frames)
        mains.append(main)
    hyps = []
    if lm is None:
        for s, main in zip(dataset, mains):
            hyps.append((s.sample_id, model.vocab.decode(greedy_decode(main))))
    else:
        priors = estimate_priors(mains, floor=dcfg.prior_floor)
        for s, main in zip(dataset, mains):
            ids, _ = lm_beam_decode(main, lm, priors, dcfg)
            hyps.append((s.sample_id, model.vocab.decode(ids)))
    return hyps


def _load_decode_inputs(args):
    model = load_checkpoint(args.checkpoint)
    dataset = load_manifest(args.data)
    lm = load_arpa(args.lm) if args.lm else None
    if lm is not None and lm.vocab != model.vocab:
        raise ValueError("the LM and the checkpoint use different vocabularies")
    return model, dataset, lm


def cmd_decode(args) -> int:
    model, dataset, lm = _load_decode_inputs(args)
    dcfg = _decoder_config(args, {})
    hyps = _decode_all(model, dataset, lm, dcfg)
    lines = [f"{sid}\t{text}" for sid, text in hyps]
    if args.out:
        Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    else:
        for line in lines:
            print(line)
    if args.report:
        labeled = dataset.labeled()
        if len(labeled) != len(dataset):
            raise ValueError("--report needs a fully labeled manifest")
        report = cer([s.transcription for s in labeled], [h for _, h in hyps])
        write_report(report, args.report)
        print(f"cer\t{report.cer:.6f}")
    return 0


def cmd_eval(args) -> int:
    model, dataset, lm = _load_decode_inputs(args)
    labeled = dataset.labeled()
    if len(labeled) != len(dataset):
        raise ValueError("eval needs a fully labeled manifest")
    refs = [s.transcription for s in labeled]

    if args.sweep_w or args.sweep_alpha:
        if lm is None:
            raise UsageError("a sweep needs --lm")
        try:
            ws = [float(x) for x in (args.sweep_w or str(args.w)).split(",")]
            alphas = [float(x) for x in (args.sweep_alpha or str(args.alpha)).split(",")]
        except ValueError:
            raise UsageError("sweep lists must be comma-separated numbers") from None
        lines = ["w\talpha\tcer"]
        for w in ws:
            for a in alphas:
                dcfg = DecoderConfig(emission_weight=w, prior_scale=a,
                                     beam_width=args.beam, prior_floor=args.prior_floor)
                hyps = _decode_all(model, dataset, lm, dcfg)
                lines.append(f"{w:g}\t{a:g}\t{cer(refs, [h for _, h in hyps]).cer:.6f}")
        text = "\n".join(lines) + "\n"
        if args.out:
            Path(args.out).write_text(text, encoding="utf-8")
        else:
            print(text, end="")
        return 0

    dcfg = DecoderConfig(emission_weight=args.w, prior_scale=args.alpha,
                         beam_width=args.beam, prior_floor=args.prior_floor)
    hyps = _decode_all(model, dataset, lm, dcfg)
    report = cer(refs, [h for _, h in hyps])
    if args.report:
        write_report(report, args.report)
    print(f"cer\t{report.cer:.6f}")
    return 0


# -- parser -------------------------------------------------------------------

def _sup(parser, *names, **kw):
    """Flag whose absence is detectable (config-file interplay), with the
    default documented by hand in the help text."""
    kw["default"] = argparse.SUPPRESS
    parser.add_argument(*names, **kw)


def build_parser() -> _Parser:
    p = _Parser(prog="seqtransfer",
                description="Train a dual-head CTC recognizer on a synthetic source "
                            "language and adapt it to an unlabeled target language by "
                            "LM-fused pseudo-label bootstrapping.")
    sub = p.add_subparsers(dest="command", required=True, metavar="command")

    g = sub.add_parser("gen-data", help="generate a synthetic language pair",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    g.add_argument("--out", required=True, help="output directory")
    g.add_argument("--base-seed", type=int, default=7, help="root seed for the pair")
    g.add_argument("--n-train", type=int, default=320, help="training samples per language")
    g.add_argument("--n-val", type=int, default=64, help="validation samples per language")
    g.add_argument("--n-test", type=int, default=96, help="test samples per language")
    g.add_argument("--shared-chars", default="abcdefghijklmnopqrstuvwx ",
                   help="characters both languages share")
    g.add_argument("--source-extra", default="", help="source-only characters")
    g.add_argument("--target-extra", default="éàñ", help="target-only characters")
    g.add_argument("--style-strength", type=float, default=0.5,
                   help="target rendering-style perturbation scale")
    g.add_argument("--noise-sigma", type=float, default=0.3, help="frame noise sigma")
    g.add_argument("--text-len", default="6,12", help="min,max transcription length")
    g.add_argument("--input-dim", type=int, default=16, help="frame feature dimension")
    g.add_argument("--unrelated-lines", type=int, default=0,
                   help="lines in the held-out corpus (0 means n-train)")
    g.set_defaults(func=cmd_gen_data)

    t = sub.add_parser("train-lm", help="build a character n-gram LM as ARPA text",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    t.add_argument("--corpus", required=True, help="training text, one line per sequence")
    t.add_argument("--out", required=True, help="output ARPA path")
    t.add_argument("--order", type=int, default=10, help="n-gram order")
    t.add_argument("--discount", type=float, default=0.1, help="absolute discount in (0,1)")
    t.add_argument("--vocab", help="fixed vocabulary JSON (union file from gen-data)")
    t.add_argument("--extra-chars", default="", help="characters to add to the vocabulary")
    t.add_argument("--perplexity-on", help="also report perplexity on this text file")
    t.set_defaults(func=cmd_train_lm)

    s = sub.add_parser("train-source", help="supervised training from scratch")
    s.add_argument("--data", required=True, help="labeled training manifest")
    s.add_argument("--val", help="labeled validation manifest")
    s.add_argument("--vocab", required=True, help="vocabulary JSON from gen-data")
    s.add_argument("--out-checkpoint", required=True, help="checkpoint to write")
    s.add_argument("--metrics", help="append per-epoch metrics TSV here")
    s.add_argument("--config", help="experiment config file (key = value lines)")
    _sup(s, "--epochs", type=int, help="training epochs (default: 10)")
    _sup(s, "--lambda", dest="lambda_", type=float,
         help="auxiliary-head loss weight (default: 0.25)")
    _sup(s, "--batch-size", type=int, help="minibatch size (default: 8)")
    _sup(s, "--lr", type=float, help="Adam learning rate (default: 0.001)")
    _sup(s, "--seed", type=int, help="run seed (default: 0)")
    s.set_defaults(func=cmd_train_source)

    h = sub.add_parser("hybrid", help="adapt a checkpoint to unlabeled target data")
    h.add_argument("--source-data", help="labeled source manifest")
    h.add_argument("--target-data", help="unlabeled target manifest")
    h.add_argument("--val-data", help="labeled target validation manifest")
    h.add_argument("--init-checkpoint", required=True, help="starting model")
    h.add_argument("--lm", help="ARPA LM; omit for the uniform-LM condition")
    h.add_argument("--out-checkpoint", required=True, help="checkpoint to write")
    h.add_argument("--metrics", help="append per-iteration metrics TSV here")
    h.add_argument("--priors-log", help="write per-iteration label priors TSV here")
    h.add_argument("--config", help="experiment config file (key = value lines)")
    _sup(h, "--outer-iters", type=int, help="outer iterations (default: 50)")
    _sup(h, "--prior-pass-batches", type=int,
         help="minibatches per prior pass (default: 100)")
    _sup(h, "--train-pass-batches", type=int,
         help="update steps per training pass (default: 100)")
    _sup(h, "--rho", type=float,
         help="source fraction of each minibatch (default: 0.5)")
    _sup(h, "--lambda", dest="lambda_", type=float,
         help="auxiliary-head loss weight (default: 0.25)")
    _sup(h, "--batch-size", type=int, help="minibatch size (default: 8)")
    _sup(h, "--lr", type=float, help="Adam learning rate (default: 0.001)")
    _sup(h, "--w", type=float, help="decoder emission weight (default: 0.4)")
    _sup(h, "--alpha", type=float, help="decoder prior scale (default: 0.5)")
    _sup(h, "--beam", type=int, help="decoder beam width (default: 64)")
    _sup(h, "--prior-floor", type=float, help="label prior floor (default: 1e-06)")
    _sup(h, "--seed", type=int, help="run seed (default: 0)")
    h.set_defaults(func=cmd_hybrid)

    for name, fn, extra in (("decode", cmd_decode, "write hypotheses"),
                            ("eval", cmd_eval, "report pooled CER")):
        d = sub.add_parser(name, help=f"run the decoder and {extra}",
                           formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        d.add_argument("--checkpoint", required=True, help="model checkpoint")
        d.add_argument("--data", required=True, help="manifest to decode")
        d.add_argument("--lm", help="ARPA LM; omit for greedy decoding")
        d.add_argument("--w", type=float, default=0.4, help="emission weight")
        d.add_argument("--alpha", type=float, default=0.5, help="prior scale")
        d.add_argument("--beam", type=int, default=64, help="beam width")
        d.add_argument("--prior-floor", type=float, default=1e-6, help="label prior floor")
        d.add_argument("--out", help="write output here instead of stdout")
        d.add_argument("--report", help="write a per-sample CER report here")
        if name == "eval":
            d.add_argument("--sweep-w", help="comma-separated emission weights to grid")
            d.add_argument("--sweep-alpha", help="comma-separated prior scales to grid")
        d.set_defaults(func=fn)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except FormatError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except NumericError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
