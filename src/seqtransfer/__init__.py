"""Sequence-recognizer language transfer toolkit.

Train a dual-head CTC recognizer on a labeled source language, then adapt
it to an unlabeled target language by alternating label-prior estimation
with training on pseudo-labels produced by a prior-scaled, LM-fused beam
decoder.
"""

from .vocab import BLANK_ID, Vocabulary
from .ngram_lm import NgramLM, build_lm, load_arpa, perplexity, save_arpa
from .ctc import check_posteriors, ctc_loss, greedy_decode, min_frames
from .decoder import DecoderConfig, beam_search, estimate_priors, floor_and_renorm, lm_beam_decode
from .recognizer import (RecognizerConfig, Recognizer, backward, forward, forward_batch,
                         forward_chunks, init_recognizer, load_checkpoint, param_shapes,
                         save_checkpoint)
from .trainer import (AdamConfig, AdamState, HybridResult, MetricsRow,
                      TrainConfig, TrainResult, adam_step, composite_loss,
                      greedy_eval, hybrid_train, make_pseudo_label, prior_pass,
                      train_source, write_metrics)
from .data import (Sample, check_frames, labeled, load_manifest, read_frames, read_lines,
                   write_lines, write_manifest)
from .synth_data import (LanguageSpec, generate_dataset, make_language_pair, render,
                         sample_corpus, sample_text)
from .metrics import EvalReport, cer, edit_distance, write_report
from .errors import FormatError, NumericError

__version__ = "0.1.0"
