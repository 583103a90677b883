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

from .data import Sample, labeled, load_manifest, read_lines, write_lines, write_manifest
from .decoder import DecoderConfig
from .errors import FormatError, NumericError
from .metrics import cer, write_report
from .ngram_lm import build_lm, load_arpa, perplexity, save_arpa
from .recognizer import RecognizerConfig, init_recognizer, load_checkpoint, save_checkpoint
from .synth_data import STOCK_SHARED_CHARS, STOCK_TARGET_EXTRA, generate_dataset, \
    make_language_pair, sample_corpus
from .trainer import AdamConfig, TrainConfig, decode_dataset, hybrid_train, train_source, \
    write_metrics
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
# the built-in default and its type the key's and the flag's.  The flag is
# _flag(dest); a knob with no dest is config-only.
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


def _flag(dest: str) -> str:
    """A knob's flag: its dest less a trailing "_", "_" read as "-"."""
    return "--" + dest.rstrip("_").replace("_", "-")


def _build(cls, args, cfg: dict, **fixed):
    """cls from fixed and the knobs of cls that a flag or the config file
    sets, flag first.  A range error, which names a field, is prefixed with
    the flag as typed, or the config file and key, that set that field."""
    given, where = {}, {}
    for owner, name, key, dest, *_ in _KNOBS:
        if dest is not None and hasattr(args, dest):
            given[owner, name], where[name] = getattr(args, dest), _flag(dest)
        elif key in cfg:
            given[owner, name], where[name] = cfg[key], f"{args.config}: {key}"
    try:
        return cls(**fixed, **{name: v for (owner, name), v in given.items() if owner is cls})
    except ValueError as e:
        name = str(e).split(" ", 1)[0]
        raise (ValueError(f"{where[name]}: {e}") if name in where else e) from None


# -- gen-data --------------------------------------------------------------

def cmd_gen_data(args):
    for name, low in (("n_train", 1), ("n_val", 1), ("n_test", 1),
                      ("base_seed", 0), ("unrelated_lines", 0)):
        if getattr(args, name) < low:
            raise UsageError(f"--{name.replace('_', '-')} must be >= {low}, "
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

    try:  # a language parameter's range error opens with its name: give its flag
        source, target = make_language_pair(
            args.base_seed, args.shared_chars, args.source_extra, args.target_extra,
            style_strength=args.style_strength, noise_sigma=args.noise_sigma,
            input_dim=args.input_dim)
        vocab = Vocabulary(set(source.chars) | set(target.chars))
    except ValueError as e:
        name, _, rest = str(e).partition(" ")
        raise UsageError(f"{_flag(name)} {rest}" if name in vars(args) else str(e)) from None
    out = Path(args.out)
    counts = {"train": args.n_train, "val": args.n_val, "test": args.n_test}
    def run():
        out.mkdir(parents=True, exist_ok=True)
        vocab.save(out / "vocab.json")
        for li, spec in enumerate((source, target)):
            lang_dir = out / spec.name
            for si, split in enumerate(("train", "val", "test")):
                rng = np.random.default_rng(
                    np.random.SeedSequence((args.base_seed, 0xD5, li, si)))
                samples = generate_dataset(spec, counts[split], (lo, hi), rng)
                # the target train split is the adaptation data: its manifest
                # holds unlabeled copies, and its texts go only to the LM corpus
                unlabeled = spec is target and split == "train"
                write_manifest([Sample(s.sample_id, s.frames) for s in samples] if unlabeled
                               else samples, lang_dir / split / "manifest.tsv")
                if split == "train":
                    write_lines(lang_dir / "corpus.txt", [s.transcription for s in samples])
            rng = np.random.default_rng(np.random.SeedSequence((args.base_seed, 0xD5, li, 3)))
            lines = sample_corpus(spec, args.unrelated_lines or args.n_train, (lo, hi), rng)
            write_lines(lang_dir / "unrelated.txt", lines)
        print(f"wrote {out}/vocab.json and 6 manifests under {out}/")
    return run


# -- train-lm ---------------------------------------------------------------

def cmd_train_lm(args):
    if args.order < 1:
        raise UsageError("--order must be >= 1")
    if not 0.0 < args.discount < 1.0:  # NaN fails it too
        raise UsageError(f"--discount must be in (0, 1), got {args.discount}")
    if args.extra_chars:  # a line break or a surrogate; membership in --vocab waits for the file
        Vocabulary(args.extra_chars)
    def run():
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
    return run


# -- train-source -----------------------------------------------------------

def cmd_train_source(args):
    cfg = read_config(args.config) if args.config else {}
    tcfg = _build(TrainConfig, args, cfg, adam=_build(AdamConfig, args, cfg))
    # the least valid data sizes stand in for the vocabulary's and the frames'
    rcfg = _build(RecognizerConfig, args, cfg, label_count=2, input_dim=1, seed=tcfg.seed)
    def run():
        vocab = Vocabulary.load(args.vocab)
        train = load_manifest(args.data, vocab=vocab)
        model = init_recognizer(replace(rcfg, label_count=vocab.emit_size,
                                        input_dim=train[0].frames.shape[1]), vocab)
        val = _load_val(args.val, model.cfg.input_dim) if args.val else None
        res = train_source(model, train, tcfg, val)
        save_checkpoint(model, args.out_checkpoint)
        if args.metrics:
            write_metrics(res.rows, args.metrics)
        last = [r for r in res.rows if r.split == "train"][-1]
        print(f"wrote {args.out_checkpoint}: final train loss {last.loss:.4f}, "
              f"train CER {last.cer:.4f}, skipped {res.skipped}")
    return run


def _load_val(path, width: int):
    """A validation manifest, which needs a labeled sample to score."""
    val = load_manifest(path, width)
    if not labeled(val):
        raise FormatError(f"{path}: validation manifest has no labeled sample")
    return val


# -- hybrid -------------------------------------------------------------------

def cmd_hybrid(args):
    cfg = read_config(args.config) if args.config else {}
    tcfg = _build(TrainConfig, args, cfg, adam=_build(AdamConfig, args, cfg))
    dcfg = _build(DecoderConfig, args, cfg)
    path = {k: getattr(args, k) or cfg.get(k) for k, t in _CONFIG_TYPES.items() if t is str}
    for key in ("source_data", "target_data"):
        if not path[key]:
            raise UsageError(f"--{key.replace('_', '-')} is required (flag or config)")
    def run():
        model = load_checkpoint(args.init_checkpoint)
        lm = load_arpa(path["lm"]) if path["lm"] else None
        source = load_manifest(path["source_data"], model.cfg.input_dim, model.vocab)
        target = load_manifest(path["target_data"], model.cfg.input_dim)
        val = _load_val(path["val_data"], model.cfg.input_dim) if path["val_data"] else None
        res = hybrid_train(model, source, target, lm, tcfg, dcfg, val)
        save_checkpoint(model, args.out_checkpoint)
        if args.metrics:
            write_metrics(res.rows, args.metrics)
        if args.priors_log:
            names = ["<blank>"] + list(model.vocab.chars)
            write_lines(args.priors_log, [f"{it}\t{i}\t{names[i]}\t{p:.10g}"
                                          for it, priors in enumerate(res.prior_history)
                                          for i, p in enumerate(priors)])
        tail = f", final val CER {res.rows[-1].cer:.4f}" if val is not None else ""
        print(f"wrote {args.out_checkpoint}: {res.source_only_steps} source-only steps, "
              f"{res.skipped_decodes} skipped decodes{tail}")
    return run


# -- decode / eval ------------------------------------------------------------

def _load_decode_inputs(args):
    model = load_checkpoint(args.checkpoint)
    dataset = load_manifest(args.data, model.cfg.input_dim)
    lm = load_arpa(args.lm) if args.lm else None
    return model, dataset, lm


def _write_out(args, lines: list[str]) -> None:
    if args.out:
        write_lines(args.out, lines)
    else:
        for line in lines:
            print(line)


def cmd_decode(args):
    dcfg = _build(DecoderConfig, args, {})
    def run():
        model, dataset, lm = _load_decode_inputs(args)
        if args.report and len(labeled(dataset)) != len(dataset):
            raise ValueError("--report needs a fully labeled manifest")
        hyps, = decode_dataset(model, dataset, lm, [dcfg])
        _write_out(args, [f"{s.sample_id}\t{h}" for s, h in zip(dataset, hyps)])
        if args.report:
            report = cer([s.transcription for s in dataset], hyps)
            write_report(report, args.report)
            print(f"cer\t{report.cer:.6f}")
    return run


def cmd_eval(args):
    dcfg = _build(DecoderConfig, args, {})
    sweeping = args.sweep_w or args.sweep_alpha
    if sweeping and not args.lm:
        raise UsageError("a sweep needs --lm")
    if sweeping and args.report:
        raise UsageError("--report needs a single (w, alpha) point, not a sweep")
    try:  # a single point is a sweep of one
        ws = [float(x) for x in (args.sweep_w or str(dcfg.emission_weight)).split(",")]
        alphas = [float(x) for x in (args.sweep_alpha or str(dcfg.prior_scale)).split(",")]
    except ValueError:
        raise UsageError("sweep lists must be comma-separated numbers") from None
    points = [(w, a) for w in ws for a in alphas]
    try:
        dcfgs = [replace(dcfg, emission_weight=w, prior_scale=a) for w, a in points]
    except ValueError as e:  # dcfg passed, so a swept value failed: name its list
        flag = "--sweep-w" if str(e).startswith("emission_weight") else "--sweep-alpha"
        raise ValueError(f"{flag}: {e}") from None
    def run():
        model, dataset, lm = _load_decode_inputs(args)
        if len(labeled(dataset)) != len(dataset):
            raise ValueError("eval needs a fully labeled manifest")
        refs = [s.transcription for s in dataset]
        reports = [cer(refs, hyps) for hyps in decode_dataset(model, dataset, lm, dcfgs)]
        if sweeping:
            _write_out(args, ["w\talpha\tcer"] + [
                f"{w:g}\t{a:g}\t{r.cer:.6f}" for (w, a), r in zip(points, reports)])
        else:
            if args.report:
                write_report(reports[0], args.report)
            _write_out(args, [f"cer\t{reports[0].cer:.6f}"])
    return run


# -- parser -------------------------------------------------------------------

def _add_knobs(parser, command: str) -> None:
    """Add command's knob flags.  A flag's absence stays detectable
    (config-file interplay); its type and documented default are the
    field's."""
    for cls, name, _, dest, help, commands in _KNOBS:
        if command in commands:
            default = getattr(cls, name)
            parser.add_argument(_flag(dest), dest=dest, type=type(default),
                                default=argparse.SUPPRESS, help=f"{help} (default: {default})")


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
        # args.func is the plan: it reads argv and the --config file only, checks every
        # knob, sweep point, character set and data path, and returns the run, which
        # loads, computes, writes and prints
        run = args.func(args)
        run()
        return 0
    except (UsageError, NumericError, ValueError, OSError) as e:  # FormatError is a ValueError
        print(f"error: {e}", file=sys.stderr)
        return 1 if isinstance(e, UsageError) else 3 if isinstance(e, NumericError) else 2


if __name__ == "__main__":
    sys.exit(main())
