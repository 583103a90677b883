"""Which seqtransfer functions the traced run wraps, and the per-layer
metrics derived from their spans.

Metrics are per operation: each value is the median, over the traced
operations of its phase, of that operation's total.  The timed phase holds
one operation per timed CLI call; the set-up phase holds one per set-up
repetition.  Set-up layers (data generation, LM build and save) only run
in set-up, so their metrics come from that phase.  Latency percentiles
(`ms_p50`, `ms_p90`) pool every span of the phase instead.
"""

from __future__ import annotations

import sys

from spans import Target, Tracer, median, percentile

PACKAGE = "seqtransfer"
TIMED, SETUP = "timed", "setup"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _empty_decode(tr, args, kwargs, result):
    ids, _score = result
    tr.count("decoder.lm_beam_decode.empty", 0 if ids else 1)


def _lm_state(tr, args, kwargs, result):
    lm, ctx = args[0], _arg(args, kwargs, 1, "context_ids")
    keep = lm.order - 1
    tr.note("ngram_lm.next_log_probs.states", tuple(ctx)[-keep:] if keep else ())


def _frames(tr, args, kwargs, result):
    tr.count("recognizer.forward.frames", len(_arg(args, kwargs, 1, "frames")))


def _pseudo_label(tr, args, kwargs, result):
    # same test the hybrid loop applies before it trains on a pseudo-label
    frames = _arg(args, kwargs, 1, "frames")
    min_frames = sys.modules[PACKAGE + ".ctc"].min_frames
    tr.count("trainer.make_pseudo_label.attempts")
    tr.count("trainer.make_pseudo_label.usable",
             1 if result and len(frames) >= min_frames(result) else 0)


TARGETS = [Target(PACKAGE + "." + mod, attr, hook) for mod, attr, hook in (
    ("cli", "main", None),
    ("decoder", "lm_beam_decode", _empty_decode),
    ("decoder", "estimate_priors", None),
    ("ngram_lm", "NgramLM.next_log_probs", _lm_state),
    ("ngram_lm", "build_lm", None),
    ("ngram_lm", "save_arpa", None),
    ("ngram_lm", "load_arpa", None),
    ("recognizer", "forward", _frames),
    ("recognizer", "backward", None),
    ("recognizer", "load_checkpoint", None),
    ("recognizer", "save_checkpoint", None),
    ("ctc", "ctc_loss", None),
    ("ctc", "greedy_decode", None),
    ("ctc", "check_posteriors", None),
    ("trainer", "prior_pass", None),
    ("trainer", "make_pseudo_label", _pseudo_label),
    ("trainer", "composite_loss", None),
    ("trainer", "adam_step", None),
    ("trainer", "greedy_eval", None),
    ("data", "load_manifest", None),
    ("data", "read_frames", None),
    ("metrics", "cer", None),
    ("synth_data", "generate_dataset", None),
)]

# (span name, stats, phase)
SPAN_STATS = [
    ("decoder.lm_beam_decode", ("calls", "s", "self_s", "ms_p50", "ms_p90"), TIMED),
    ("decoder.estimate_priors", ("s",), TIMED),
    ("ngram_lm.next_log_probs", ("calls", "s"), TIMED),
    ("ngram_lm.build_lm", ("s",), SETUP),
    ("ngram_lm.save_arpa", ("s",), SETUP),
    ("ngram_lm.load_arpa", ("s",), TIMED),
    ("recognizer.forward", ("calls", "s"), TIMED),
    ("recognizer.backward", ("calls", "s"), TIMED),
    ("recognizer.load_checkpoint", ("s",), TIMED),
    ("recognizer.save_checkpoint", ("s",), TIMED),
    ("ctc.ctc_loss", ("calls", "s", "ms_p50"), TIMED),
    ("ctc.greedy_decode", ("calls", "s"), TIMED),
    ("ctc.check_posteriors", ("calls", "s"), TIMED),
    ("trainer.prior_pass", ("s",), TIMED),
    ("trainer.make_pseudo_label", ("calls", "s"), TIMED),
    ("trainer.composite_loss", ("calls", "s", "self_s"), TIMED),
    ("trainer.adam_step", ("calls", "s"), TIMED),
    ("trainer.greedy_eval", ("s",), TIMED),
    ("data.load_manifest", ("calls", "s"), TIMED),
    ("data.read_frames", ("calls",), TIMED),
    ("metrics.cer", ("s",), TIMED),
    ("synth_data.generate_dataset", ("s",), SETUP),
    ("cli.main", ("self_s",), TIMED),
]

UNITS = {"calls": "count", "s": "s", "self_s": "s", "ms_p50": "ms", "ms_p90": "ms"}

# (metric, unit, span it depends on, per-operation value from the tracer)
DERIVED = [
    ("decoder.lm_beam_decode.empty", "count", "decoder.lm_beam_decode",
     lambda tr, op, st: tr.counter(op, "decoder.lm_beam_decode.empty")),
    ("ngram_lm.next_log_probs.states", "count", "ngram_lm.next_log_probs",
     lambda tr, op, st: tr.distinct(op, "ngram_lm.next_log_probs.states")),
    # 0 when the LM was never queried
    ("ngram_lm.next_log_probs.calls_per_state", "ratio", "ngram_lm.next_log_probs",
     lambda tr, op, st: _ratio(st.get("ngram_lm.next_log_probs", {}).get("calls", 0),
                               tr.distinct(op, "ngram_lm.next_log_probs.states"))),
    ("recognizer.forward.frames", "count", "recognizer.forward",
     lambda tr, op, st: tr.counter(op, "recognizer.forward.frames")),
    # usable pseudo-labels over attempts; 0 when make_pseudo_label.calls is 0
    ("trainer.pseudo_label_yield", "ratio", "trainer.make_pseudo_label",
     lambda tr, op, st: _ratio(tr.counter(op, "trainer.make_pseudo_label.usable"),
                               tr.counter(op, "trainer.make_pseudo_label.attempts"))),
]


def _ratio(num, den):
    return num / den if den else 0.0


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer (metric, unit) pair, in report order."""
    names = [(f"{span}.{stat}", UNITS[stat]) for span, stats, _ in SPAN_STATS for stat in stats]
    return names + [(name, unit) for name, unit, _, _ in DERIVED]


def layer_metrics(tr: Tracer) -> dict[str, dict]:
    """{metric: {"value", "unit"}} plus "absent": reason where a wrapped
    function or its hook is missing; an absent metric reads 0."""
    per_op = {phase: tr.per_op(phase) for phase in (TIMED, SETUP)}
    out = {}
    for span, stats, phase in SPAN_STATS:
        ops = per_op[phase].values()
        for stat in stats:
            if stat.startswith("ms_p"):
                value = percentile(tr.durations_ms(span, phase), int(stat[4:]) / 100)
            else:
                value = median([st.get(span, {}).get(stat, 0) for st in ops])
            out[f"{span}.{stat}"] = _entry(tr, span, value, UNITS[stat], hooked=False)
    for name, unit, span, fn in DERIVED:
        value = median([fn(tr, op, st) for op, st in per_op[TIMED].items()])
        out[name] = _entry(tr, span, value, unit, hooked=True)
    return out


def _entry(tr, span, value, unit, hooked):
    entry = {"value": value, "unit": unit}
    reason = tr.absent.get(span) or (tr.absent.get(f"{span} hook") if hooked else None)
    if reason:
        entry["absent"] = reason
    return entry
