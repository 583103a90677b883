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

from .ctc import greedy_kernel
from .data import labeled, load_manifest, read_lines
from .decoder import DecoderConfig, lm_beam_decode, priors_kernel
from .errors import FormatError, NumericError
from .metrics import cer, write_report
from .ngram_lm import build_lm, load_arpa, perplexity, save_arpa
from .recognizer import RecognizerConfig, forward_chunks, init_recognizer, load_checkpoint, \
    save_checkpoint
from .synth_data import STOCK_SHARED_CHARS, STOCK_TARGET_EXTRA, generate_dataset, \
    make_language_pair, sample_corpus
from .trainer import AdamConfig, TrainConfig, hybrid_train, train_source, write_metrics
from .vocab import Vocabulary


class UsageError(Exception):
    pass


def _nonempty(value: str) -> str:
    """argparse type of a path or list option, where "" would read as absent."""
    if not value:
        raise argparse.ArgumentTypeError("must not be empty")
    return value


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); usage errors are exit 1 here
        raise UsageError(message)

    def add_argument(self, *flags, **kw):
        # an option with neither type nor default names a file or holds a list
        if "type" not in kw and "default" not in kw:
            kw["type"] = _nonempty
        return super().add_argument(*flags, **kw)


_TRAIN, _HYBRID, _DECODE = ("train-source", "hybrid"), ("hybrid",), ("hybrid", "decode", "eval")

# every tunable knob, in --help order: (config dataclass, field, config-file
# key, flag dest, flag help, subcommands with the flag).  The field's default is
# the built-in default and its type the key's and the flag's.  The flag is the
# dest less a trailing "_", "_" read as "-"; a knob with no dest is config-only.
_KNOBS = (
    (TrainConfig, "epochs", "epochs", "epochs", "training epochs", ("train-source",)),
    (TrainConfig, "outer_iters", "outer_iters", "outer_iters", "outer iterations", _HYBRID),
    (TrainConfig, "prior_pass_batches", "prior_pass_batches", "prior_pass_batches",
     "minibatches per prior pass", _HYBRID),
    (TrainConfig, "train_pass_batches", "train_pass_batches", "train_pass_batches",
     "update steps per training pass", _HYBRID),
    (TrainConfig, "source_fraction", "source_fraction", "rho",
     "source fraction of each minibatch", _HYBRID),
    (TrainConfig, "aux_loss_weight", "lambda", "lambda_", "auxiliary-head loss weight", _TRAIN),
    (TrainConfig, "batch_size", "batch_size", "batch_size", "minibatch size", _TRAIN),
    (AdamConfig, "lr", "lr", "lr", "Adam learning rate", _TRAIN),
    (AdamConfig, "beta1", "beta1", None, None, ()),
    (AdamConfig, "beta2", "beta2", None, None, ()),
    (AdamConfig, "eps", "eps", None, None, ()),
    (DecoderConfig, "emission_weight", "w", "w", "decoder emission weight", _DECODE),
    (DecoderConfig, "prior_scale", "alpha", "alpha", "decoder prior scale", _DECODE),
    (DecoderConfig, "beam_width", "beam_width", "beam", "decoder beam width", _DECODE),
    (DecoderConfig, "prior_floor", "prior_floor", "prior_floor", "label prior floor", _DECODE),
    (TrainConfig, "seed", "seed", "seed", "run seed", _TRAIN),
    (RecognizerConfig, "context_radius", "context_radius", None, None, ()),
    (RecognizerConfig, "feature_dim", "feature_dim", None, None, ()),
    (RecognizerConfig, "recurrent_dim", "recurrent_dim", None, None, ()),
)

# experiment config file: every knob plus data paths
_CONFIG_TYPES = {key: type(getattr(cls, name)) for cls, name, key, *_ in _KNOBS}
_CONFIG_TYPES.update(source_data=str, target_data=str, val_data=str, lm=str)


def read_config(path) -> dict:
    out = {}
    try:
        lines = read_lines(path)
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
        if not val:
            raise UsageError(f"{path}:{lineno}: empty value for {key}")
        try:
            out[key] = _CONFIG_TYPES[key](val)
        except ValueError:
            raise UsageError(f"{path}:{lineno}: bad value for {key}: {val!r}") from None
    return out


def _given(cls, args, cfg: dict) -> dict:
    """The fields of cls that a flag or the config file sets, flag first."""
    out = {}
    for owner, name, key, dest, *_ in _KNOBS:
        if owner is not cls:
            continue
        if dest is not None and hasattr(args, dest):
            out[name] = getattr(args, dest)
        elif key in cfg:
            out[name] = cfg[key]
    return out


# -- gen-data --------------------------------------------------------------

def cmd_gen_data(args) -> int:
    for name, low in (("n_train", 1), ("n_val", 1), ("n_test", 1), ("input_dim", 1),
                      ("base_seed", 0), ("unrelated_lines", 0)):
        if getattr(args, name) < low:
            raise UsageError(f"--{name.replace('_', '-')} must be >= {low}, "
                             f"got {getattr(args, name)}")
    for name in ("style_strength", "noise_sigma"):
        if not 0.0 <= getattr(args, name) < np.inf:
            raise UsageError(f"--{name.replace('_', '-')} must be finite and >= 0, "
                             f"got {getattr(args, name)}")
    try:
        lo, hi = (int(x) for x in args.text_len.split(","))
    except ValueError:
        raise UsageError(f"--text-len wants 'min,max', got {args.text_len!r}") from None
    if not (1 <= lo <= hi):
        raise UsageError(f"--text-len range {lo},{hi} is not increasing from >= 1")
    for name in ("shared_chars", "source_extra", "target_extra"):
        if set(getattr(args, name)) & set("\t\n\r"):  # no manifest or corpus line holds one
            raise UsageError(f"--{name.replace('_', '-')} must not hold a tab or line break")

    try:  # past the checks above, only the character sets can be rejected
        source, target = make_language_pair(
            args.base_seed, args.shared_chars, args.source_extra, args.target_extra,
            style_strength=args.style_strength, noise_sigma=args.noise_sigma,
            input_dim=args.input_dim)
    except ValueError as e:
        raise UsageError(str(e)) from None
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
    corpus = read_lines(args.corpus)
    vocab = Vocabulary.load(args.vocab) if args.vocab else None
    lm = build_lm(corpus, order=args.order, discount=args.discount,
                  extra_chars=args.extra_chars, vocab=vocab)
    # a bad --perplexity-on file fails the run before the ARPA file is written
    ppl = perplexity(lm, read_lines(args.perplexity_on)) if args.perplexity_on else None
    save_arpa(lm, args.out)
    print(f"wrote {args.out}: order {lm.order}, {len(lm.probs)} n-grams, "
          f"{len(lm.vocab.chars)} characters")
    if ppl is not None:
        print(f"perplexity\t{ppl:.6f}")
    return 0


# -- train-source -----------------------------------------------------------

def cmd_train_source(args) -> int:
    cfg = read_config(args.config) if args.config else {}
    tcfg = TrainConfig(adam=AdamConfig(**_given(AdamConfig, args, cfg)),
                       **_given(TrainConfig, args, cfg))
    vocab = Vocabulary.load(args.vocab)
    train = load_manifest(args.data, vocab=vocab)
    rcfg = RecognizerConfig(label_count=vocab.emit_size, seed=tcfg.seed,
                            input_dim=train[0].frames.shape[1],
                            **_given(RecognizerConfig, args, cfg))
    model = init_recognizer(rcfg, vocab)
    val = _load_val(args.val, rcfg.input_dim) if args.val else None
    res = train_source(model, train, tcfg, val)
    save_checkpoint(model, args.out_checkpoint)
    if args.metrics:
        write_metrics(res.rows, args.metrics)
    last = [r for r in res.rows if r.split == "train"][-1]
    print(f"wrote {args.out_checkpoint}: final train loss {last.loss:.4f}, "
          f"train CER {last.cer:.4f}, skipped {res.skipped}")
    return 0


def _load_val(path, width: int):
    """A validation manifest, which needs a labeled sample to score."""
    val = load_manifest(path, width)
    if not labeled(val):
        raise FormatError(f"{path}: validation manifest has no labeled sample")
    return val


# -- hybrid -------------------------------------------------------------------

def cmd_hybrid(args) -> int:
    cfg = read_config(args.config) if args.config else {}
    tcfg = TrainConfig(adam=AdamConfig(**_given(AdamConfig, args, cfg)),
                       **_given(TrainConfig, args, cfg))
    dcfg = DecoderConfig(**_given(DecoderConfig, args, cfg))
    model = load_checkpoint(args.init_checkpoint)
    lm_path = args.lm or cfg.get("lm")
    lm = load_arpa(lm_path) if lm_path else None
    source = load_manifest(_require(args, "source_data", cfg), model.cfg.input_dim, model.vocab)
    target = load_manifest(_require(args, "target_data", cfg), model.cfg.input_dim)
    val_path = args.val_data or cfg.get("val_data")
    val = _load_val(val_path, model.cfg.input_dim) if val_path else None
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
    dataset = load_manifest(args.data, model.cfg.input_dim)
    lm = load_arpa(args.lm) if args.lm else None
    if lm is not None and lm.vocab != model.vocab:
        raise ValueError("the LM and the checkpoint use different vocabularies")
    return model, dataset, lm, DecoderConfig(**_given(DecoderConfig, args, {}))


def _decode_all(model, dataset, lm, dcfgs) -> list[list[str]]:
    """Hypothesis texts in dataset order, one list per decoder config; beam
    decoding when an LM is present, greedy otherwise.  The posteriors, and
    the label priors beam decoding estimates from them, are computed once,
    unchecked, for all configs, which share one prior_floor."""
    frames = [s.frames for s in dataset]
    if lm is None:
        hyps = forward_chunks(model, frames, each=greedy_kernel)
        return [list(map(model.vocab.decode, hyps))] * len(dcfgs)
    mains = forward_chunks(model, frames)
    priors = priors_kernel(mains, dcfgs[0].prior_floor)
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
    if args.report and len(labeled(dataset)) != len(dataset):
        raise ValueError("--report needs a fully labeled manifest")
    hyps, = _decode_all(model, dataset, lm, [dcfg])
    _write_out(args, [f"{s.sample_id}\t{h}" for s, h in zip(dataset, hyps)])
    if args.report:
        report = cer([s.transcription for s in dataset], hyps)
        write_report(report, args.report)
        print(f"cer\t{report.cer:.6f}")
    return 0


def cmd_eval(args) -> int:
    model, dataset, lm, dcfg = _load_decode_inputs(args)
    if len(labeled(dataset)) != len(dataset):
        raise ValueError("eval needs a fully labeled manifest")
    refs = [s.transcription for s in dataset]

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

def _add_knobs(parser, command: str) -> None:
    """Add command's knob flags.  A flag's absence stays detectable
    (config-file interplay); its type and documented default are the
    field's."""
    for cls, name, _, dest, help, commands in _KNOBS:
        if command in commands:
            default = getattr(cls, name)
            parser.add_argument("--" + dest.rstrip("_").replace("_", "-"), dest=dest,
                                type=type(default), default=argparse.SUPPRESS,
                                help=f"{help} (default: {default})")


COMMANDS = ("gen-data", "train-lm", "train-source", "hybrid", "decode", "eval")


def build_parser(command: str | None = None) -> _Parser:
    """The parser of every subcommand, or only of the one command names (one
    of COMMANDS), whose help and errors read the same either way."""
    p = _Parser(prog="seqtransfer",
                description="Train a dual-head CTC recognizer on a synthetic source "
                            "language and adapt it to an unlabeled target language by "
                            "LM-fused pseudo-label bootstrapping.")
    sub = p.add_subparsers(dest="command", required=True, metavar="command")
    if command in (None, "gen-data"):
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

    if command in (None, "train-lm"):
        t = sub.add_parser("train-lm", help="build a character n-gram LM as ARPA text",
                           formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        t.add_argument("--corpus", required=True, help="training text, one line per sequence")
        t.add_argument("--out", required=True, help="output ARPA path")
        t.add_argument("--order", type=int, default=10, help="n-gram order")
        t.add_argument("--discount", type=float, default=0.1, help="absolute discount in (0,1)")
        t.add_argument("--vocab", help="fixed vocabulary JSON (union file from gen-data)")
        t.add_argument("--extra-chars", default="",
                       help="characters to add to the vocabulary (inside --vocab when given)")
        t.add_argument("--perplexity-on", help="also report perplexity on this text file")
        t.set_defaults(func=cmd_train_lm)

    if command in (None, "train-source"):
        s = sub.add_parser("train-source", help="supervised training from scratch")
        s.add_argument("--data", required=True, help="labeled training manifest")
        s.add_argument("--val", help="labeled validation manifest")
        s.add_argument("--vocab", required=True, help="vocabulary JSON from gen-data")
        s.add_argument("--out-checkpoint", required=True, help="checkpoint to write")
        s.add_argument("--metrics", help="append per-epoch metrics TSV here")
        s.add_argument("--config", help="experiment config file (key = value lines)")
        _add_knobs(s, "train-source")
        s.set_defaults(func=cmd_train_source)

    if command in (None, "hybrid"):
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
        _add_knobs(h, "hybrid")
        h.set_defaults(func=cmd_hybrid)

    for name, fn, extra in (("decode", cmd_decode, "write hypotheses"),
                            ("eval", cmd_eval, "report pooled CER")):
        if command not in (None, name):
            continue
        d = sub.add_parser(name, help=f"run the decoder and {extra}",
                           formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        d.add_argument("--checkpoint", required=True, help="model checkpoint")
        d.add_argument("--data", required=True, help="manifest to decode")
        d.add_argument("--lm", help="ARPA LM; omit for greedy decoding")
        _add_knobs(d, name)
        d.add_argument("--out", help="write output here instead of stdout")
        d.add_argument("--report", help="write a per-sample CER report here")
        if name == "eval":
            d.add_argument("--sweep-w", help="comma-separated emission weights to grid")
            d.add_argument("--sweep-alpha", help="comma-separated prior scales to grid")
        d.set_defaults(func=fn)
    return p


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    try:
        args = parser.parse_args(argv)
        # every output file's directory must exist before any work; gen-data makes its --out
        for dest in ("out_checkpoint", "metrics", "priors_log", "out", "report"):
            out = getattr(args, dest, None) if args.command != "gen-data" else None
            if out and (Path(out).is_dir() or not Path(out).parent.is_dir()):
                raise OSError(f"--{dest.replace('_', '-')} {out}: "
                              "not a file in an existing directory")
        return args.func(args)
    except (UsageError, NumericError, ValueError, OSError) as e:  # FormatError is a ValueError
        print(f"error: {e}", file=sys.stderr)
        return 1 if isinstance(e, UsageError) else 3 if isinstance(e, NumericError) else 2


if __name__ == "__main__":
    sys.exit(main())
