"""Command-line entry point.

Subcommands cover the full pipeline: gen-data, train-lm, train-source,
hybrid, decode, eval.  Exit codes: 0 success, 1 usage error, 2 data or
file-format error, 3 numeric failure.

Hyperparameters resolve in order: explicit flag, then experiment config
file (line-oriented "key = value"), then the built-in default.  The
built-in defaults live in one place, the fields of TrainConfig,
AdamConfig, DecoderConfig and RecognizerConfig; a knob that no flag or
config line sets is left for the dataclass to fill, and the help texts
read the same fields.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
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
from .synth_data import STOCK_SHARED_CHARS, STOCK_TARGET_EXTRA, generate_dataset, \
    make_language_pair, sample_corpus
from .trainer import AdamConfig, TrainConfig, hybrid_train, train_source, write_metrics
from .vocab import Vocabulary


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); usage errors are exit 1 here
        raise UsageError(message)


# every tunable knob: (config dataclass, field, config-file key, flag dest);
# the field's default is the built-in default and its type the key's type
_KNOBS = (
    (TrainConfig, "aux_loss_weight", "lambda", "lambda_"),
    (TrainConfig, "batch_size", "batch_size", "batch_size"),
    (TrainConfig, "source_fraction", "source_fraction", "rho"),
    (TrainConfig, "outer_iters", "outer_iters", "outer_iters"),
    (TrainConfig, "prior_pass_batches", "prior_pass_batches", "prior_pass_batches"),
    (TrainConfig, "train_pass_batches", "train_pass_batches", "train_pass_batches"),
    (TrainConfig, "epochs", "epochs", "epochs"),
    (TrainConfig, "seed", "seed", "seed"),
    (AdamConfig, "lr", "lr", "lr"),
    (AdamConfig, "beta1", "beta1", None),
    (AdamConfig, "beta2", "beta2", None),
    (AdamConfig, "eps", "eps", None),
    (DecoderConfig, "emission_weight", "w", "w"),
    (DecoderConfig, "prior_scale", "alpha", "alpha"),
    (DecoderConfig, "beam_width", "beam_width", "beam"),
    (DecoderConfig, "prior_floor", "prior_floor", "prior_floor"),
    (RecognizerConfig, "context_radius", "context_radius", None),
    (RecognizerConfig, "feature_dim", "feature_dim", None),
    (RecognizerConfig, "recurrent_dim", "recurrent_dim", None),
)

# experiment config file: every knob plus data paths
_CONFIG_TYPES = {key: type(getattr(cls, name)) for cls, name, key, _ in _KNOBS}
_CONFIG_TYPES.update(source_data=str, target_data=str, val_data=str, lm=str)


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


def _given(cls, args, cfg: dict) -> dict:
    """The fields of cls that a flag or the config file sets, flag first."""
    out = {}
    for owner, name, key, dest in _KNOBS:
        if owner is not cls:
            continue
        if dest is not None and hasattr(args, dest):
            out[name] = getattr(args, dest)
        elif key in cfg:
            out[name] = cfg[key]
    return out


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
    return TrainConfig(adam=AdamConfig(**_given(AdamConfig, args, cfg)),
                       **_given(TrainConfig, args, cfg))


def _decoder_config(args, cfg: dict) -> DecoderConfig:
    return DecoderConfig(**_given(DecoderConfig, args, cfg))


def cmd_train_source(args) -> int:
    cfg = read_config(args.config) if args.config else {}
    tcfg = _train_config(args, cfg)
    vocab = Vocabulary.load(args.vocab)
    train = load_manifest(args.data)
    rcfg = RecognizerConfig(label_count=vocab.emit_size, seed=tcfg.seed,
                            input_dim=train[0].frames.shape[1],
                            **_given(RecognizerConfig, args, cfg))
    model = init_recognizer(rcfg, vocab)
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

def _load_decode_inputs(args):
    model = load_checkpoint(args.checkpoint)
    dataset = load_manifest(args.data)
    lm = load_arpa(args.lm) if args.lm else None
    if lm is not None and lm.vocab != model.vocab:
        raise ValueError("the LM and the checkpoint use different vocabularies")
    return model, dataset, lm, _decoder_config(args, {})


def _decode_all(model, dataset, lm, dcfgs) -> list[list[str]]:
    """Hypothesis texts in dataset order, one list per decoder config; beam
    decoding when an LM is present, greedy otherwise.  The posteriors, and
    the label priors beam decoding estimates from them, are computed once
    for all configs, which share one prior_floor."""
    mains = [forward(model, s.frames)[1] for s in dataset]
    if lm is None:
        return [[model.vocab.decode(greedy_decode(m)) for m in mains]] * len(dcfgs)
    priors = estimate_priors(mains, floor=dcfgs[0].prior_floor)
    return [[model.vocab.decode(lm_beam_decode(m, lm, priors, d)[0]) for m in mains]
            for d in dcfgs]


def _write_out(args, lines: list[str]) -> None:
    if args.out:
        Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    else:
        for line in lines:
            print(line)


def cmd_decode(args) -> int:
    model, dataset, lm, dcfg = _load_decode_inputs(args)
    hyps, = _decode_all(model, dataset, lm, [dcfg])
    _write_out(args, [f"{s.sample_id}\t{h}" for s, h in zip(dataset, hyps)])
    if args.report:
        labeled = dataset.labeled()
        if len(labeled) != len(dataset):
            raise ValueError("--report needs a fully labeled manifest")
        report = cer([s.transcription for s in labeled], hyps)
        write_report(report, args.report)
        print(f"cer\t{report.cer:.6f}")
    return 0


def cmd_eval(args) -> int:
    model, dataset, lm, dcfg = _load_decode_inputs(args)
    labeled = dataset.labeled()
    if len(labeled) != len(dataset):
        raise ValueError("eval needs a fully labeled manifest")
    refs = [s.transcription for s in labeled]

    if args.sweep_w or args.sweep_alpha:
        if lm is None:
            raise UsageError("a sweep needs --lm")
        if args.report:
            raise UsageError("--report needs a single (w, alpha) point, not a sweep")
        try:
            ws = [float(x) for x in (args.sweep_w or str(dcfg.emission_weight)).split(",")]
            alphas = [float(x) for x in (args.sweep_alpha or str(dcfg.prior_scale)).split(",")]
        except ValueError:
            raise UsageError("sweep lists must be comma-separated numbers") from None
        points = [(w, a) for w in ws for a in alphas]
        sweep = _decode_all(model, dataset, lm, [
            replace(dcfg, emission_weight=w, prior_scale=a) for w, a in points])
        _write_out(args, ["w\talpha\tcer"] + [
            f"{w:g}\t{a:g}\t{cer(refs, hyps).cer:.6f}" for (w, a), hyps in zip(points, sweep)])
        return 0

    hyps, = _decode_all(model, dataset, lm, [dcfg])
    report = cer(refs, hyps)
    if args.report:
        write_report(report, args.report)
    _write_out(args, [f"cer\t{report.cer:.6f}"])
    return 0


# -- parser -------------------------------------------------------------------

def _knob(parser, flag: str, help: str, dest: str | None = None):
    """Flag for a config-dataclass knob.  Its absence stays detectable
    (config-file interplay); its type and documented default are the
    field's."""
    dest = dest or flag[2:].replace("-", "_")
    cls, name = next((c, n) for c, n, _, d in _KNOBS if d == dest)
    default = getattr(cls, name)
    parser.add_argument(flag, dest=dest, type=type(default), default=argparse.SUPPRESS,
                        help=f"{help} (default: {default})")


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
    g.add_argument("--shared-chars", default=STOCK_SHARED_CHARS,
                   help="characters both languages share")
    g.add_argument("--source-extra", default="", help="source-only characters")
    g.add_argument("--target-extra", default=STOCK_TARGET_EXTRA, help="target-only characters")
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
    _knob(s, "--epochs", "training epochs")
    _knob(s, "--lambda", "auxiliary-head loss weight", dest="lambda_")
    _knob(s, "--batch-size", "minibatch size")
    _knob(s, "--lr", "Adam learning rate")
    _knob(s, "--seed", "run seed")
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
    _knob(h, "--outer-iters", "outer iterations")
    _knob(h, "--prior-pass-batches", "minibatches per prior pass")
    _knob(h, "--train-pass-batches", "update steps per training pass")
    _knob(h, "--rho", "source fraction of each minibatch")
    _knob(h, "--lambda", "auxiliary-head loss weight", dest="lambda_")
    _knob(h, "--batch-size", "minibatch size")
    _knob(h, "--lr", "Adam learning rate")
    _knob(h, "--w", "decoder emission weight")
    _knob(h, "--alpha", "decoder prior scale")
    _knob(h, "--beam", "decoder beam width")
    _knob(h, "--prior-floor", "label prior floor")
    _knob(h, "--seed", "run seed")
    h.set_defaults(func=cmd_hybrid)

    for name, fn, extra in (("decode", cmd_decode, "write hypotheses"),
                            ("eval", cmd_eval, "report pooled CER")):
        d = sub.add_parser(name, help=f"run the decoder and {extra}",
                           formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        d.add_argument("--checkpoint", required=True, help="model checkpoint")
        d.add_argument("--data", required=True, help="manifest to decode")
        d.add_argument("--lm", help="ARPA LM; omit for greedy decoding")
        _knob(d, "--w", "emission weight")
        _knob(d, "--alpha", "prior scale")
        _knob(d, "--beam", "beam width")
        _knob(d, "--prior-floor", "label prior floor")
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
