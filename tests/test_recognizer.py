import json
import math
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqtransfer import (FormatError, Recognizer, RecognizerConfig, Vocabulary, backward, cli,
                         ctc_loss, forward, forward_batch, init_recognizer, load_checkpoint,
                         param_shapes, save_checkpoint)
from seqtransfer.recognizer import CHECKPOINT_MAGIC, _scan, _scan_grad
from conftest import FRAME_FAULTS, scan_grad_reference, scan_reference

VOCAB = Vocabulary("ab")


def tiny_model(seed=0, dtype=np.float64, radius=1):
    cfg = RecognizerConfig(label_count=3, input_dim=3, context_radius=radius,
                           feature_dim=4, recurrent_dim=3, seed=seed)
    return init_recognizer(cfg, VOCAB, dtype=dtype)


# -- init -----------------------------------------------------------------------

def test_same_seed_is_bit_identical():
    a, b = tiny_model(5), tiny_model(5)
    for name in a.params:
        assert np.array_equal(a.params[name], b.params[name])


def test_different_seeds_differ():
    a, b = tiny_model(5), tiny_model(6)
    assert any(not np.array_equal(a.params[n], b.params[n]) for n in a.params)


def test_biases_zero_at_init():
    m = tiny_model()
    for name, p in m.params.items():
        if name.endswith("_b"):
            assert np.all(p == 0.0)


def test_weight_bounds_per_matrix():
    m = tiny_model()
    for name, p in m.params.items():
        if p.ndim != 2:
            continue
        s = math.sqrt(6.0 / (p.shape[0] + p.shape[1]))
        assert np.all(np.abs(p) <= s)


def test_config_validation():
    with pytest.raises(ValueError):
        RecognizerConfig(label_count=1, input_dim=16)
    with pytest.raises(ValueError):
        RecognizerConfig(label_count=3, input_dim=16, feature_dim=0)
    with pytest.raises(ValueError):
        RecognizerConfig(label_count=3, input_dim=16, context_radius=-1)


def test_label_count_tied_to_vocab():
    cfg = RecognizerConfig(label_count=5, input_dim=16)
    with pytest.raises(ValueError):
        Recognizer(cfg, VOCAB, init_recognizer(
            RecognizerConfig(label_count=3, input_dim=16), VOCAB).params)


def test_model_computes_in_its_parameters_dtype(rng):
    """The dtype is read off the parameters, which must share one."""
    ref = tiny_model(dtype=np.float64)
    m = Recognizer(ref.cfg, VOCAB, ref.params)
    assert m.dtype == np.float64
    frames = rng.normal(0, 1, (4, 3))  # float64 values float32 would round
    for got, want in zip(forward(m, frames)[:2], forward(ref, frames)[:2]):
        assert got.dtype == np.float64 and np.array_equal(got, want)
    mixed = dict(ref.params, fwd_b=ref.params["fwd_b"].astype(np.float32))
    with pytest.raises(ValueError, match=re.escape(
            "parameter fwd_b is float32 (3,), expected float64 (3,)")):
        Recognizer(ref.cfg, VOCAB, mixed)


# -- forward ---------------------------------------------------------------------

def test_output_rows_are_log_normalized(rng):
    m = tiny_model()
    frames = rng.normal(0, 1, (6, 3))
    aux, main, _ = forward(m, frames)
    for out in (aux, main):
        assert out.shape == (6, 3)
        mass = np.logaddexp.reduce(out, axis=1)
        assert mass == pytest.approx(np.zeros(6), abs=1e-6)


def test_forward_single_frame(rng):
    m = tiny_model()
    aux, main, _ = forward(m, rng.normal(0, 1, (1, 3)))
    assert aux.shape == main.shape == (1, 3)


def test_forward_is_deterministic(rng):
    m = tiny_model()
    frames = rng.normal(0, 1, (4, 3))
    a1, m1, _ = forward(m, frames)
    a2, m2, _ = forward(m, frames)
    assert np.array_equal(a1, a2) and np.array_equal(m1, m2)


@pytest.mark.parametrize("fault", FRAME_FAULTS)
def test_forward_frame_checks_name_the_fault(rng, fault):
    """forward_batch of a float32 model, the bad matrix second of two, says
    what check_frames says at the model's width: a float64 value that float32
    cannot hold reads as inf."""
    m = tiny_model(dtype=np.float32)
    frames, _, message = FRAME_FAULTS[fault]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        forward_batch(m, [rng.normal(0, 1, (5, 3)), frames])


def test_last_frame_reaches_main_but_not_aux_at_frame_one(rng):
    # context radius 1 means the aux head at frame 1 sees frames 0..2
    # only; the main head sees everything through the backward recurrence
    m = tiny_model()
    frames = rng.normal(0, 1, (8, 3))
    aux0, main0, _ = forward(m, frames)
    bumped = frames.copy()
    bumped[7] += 1.0
    aux1, main1, _ = forward(m, bumped)
    assert np.array_equal(aux0[1], aux1[1])
    assert not np.array_equal(main0[1], main1[1])


# -- backward ----------------------------------------------------------------------

def composite(model, frames, labels, lam):
    aux, main, cache = forward(model, frames)
    (la,), ga = ctc_loss([aux], [labels])
    (lm_,), gm = ctc_loss([main], [labels])
    grads = backward(model, cache, lam * ga, (1 - lam) * gm)
    return lam * la + (1 - lam) * lm_, grads


def test_gradients_match_finite_differences(rng):
    labels = (1, 2)
    hstep = 1e-5
    for radius in (1, 0):  # radius 0: each frame's window is the frame alone
        m = tiny_model(seed=3, radius=radius)
        frames = rng.normal(0, 1, (4, 3))
        _, grads = composite(m, frames, labels, 0.25)
        for name, p in m.params.items():
            flat = p.reshape(-1)
            gflat = grads[name].reshape(-1)
            for i in range(flat.size):
                keep = flat[i]
                flat[i] = keep + hstep
                up, _ = composite(m, frames, labels, 0.25)
                flat[i] = keep - hstep
                dn, _ = composite(m, frames, labels, 0.25)
                flat[i] = keep
                fd = (up - dn) / (2 * hstep)
                assert gflat[i] == pytest.approx(fd, rel=1e-4, abs=1e-8), (radius, name)


def per_step_recurrence_grads(m, cache, main_grad):
    """Reference for the recurrence gradients: walk each direction against
    its time order and add one outer product per frame."""
    p, rd = m.params, m.cfg.recurrent_dim
    h, t = cache["h"][0], cache["h"][0].shape[0]
    dg = main_grad @ p["main_w"]
    out = {}
    for tag, cols, steps, back in (("fwd", slice(0, rd), range(t - 1, -1, -1), -1),
                                   ("bwd", slice(rd, None), range(t), 1)):
        states, u = cache["g"][0][:, cols], p[tag + "_u"]
        dw, du, db = np.zeros(p[tag + "_w"].shape), np.zeros(u.shape), np.zeros(rd)
        carry = np.zeros(rd)
        for i in steps:
            delta = (dg[i, cols] + carry) * (1.0 - states[i] ** 2)
            dw += np.outer(delta, h[i])
            if 0 <= i + back < t:
                du += np.outer(delta, states[i + back])
            db += delta
            carry = delta @ u
        out[tag + "_w"], out[tag + "_u"], out[tag + "_b"] = dw, du, db
    return out


def test_recurrence_grads_match_per_step_reference(rng):
    m = tiny_model(seed=4)
    frames = rng.normal(0, 1, (20, 3))
    aux, main, cache = forward(m, frames)
    gm = rng.normal(0, 1, main.shape)
    grads = backward(m, cache, np.zeros((1, *aux.shape)), gm[None])
    # float64 sums of 20 terms reordered by the matmul
    for name, want in per_step_recurrence_grads(m, cache, gm).items():
        np.testing.assert_allclose(grads[name], want, rtol=1e-12, atol=1e-14, err_msg=name)


def test_zero_grads_in_give_zero_grads_out(rng):
    m = tiny_model()
    frames = rng.normal(0, 1, (4, 3))
    z = np.zeros((1, 4, 3))
    _, _, cache = forward(m, frames)
    grads = backward(m, cache, z, z)
    for g in grads.values():
        assert np.all(g == 0.0)


def test_aux_only_loss_skips_recurrence_and_main_head(rng):
    m = tiny_model()
    frames = rng.normal(0, 1, (4, 3))
    aux, _, cache = forward(m, frames)
    _, ga = ctc_loss([aux], [(1,)])
    grads = backward(m, cache, ga, np.zeros_like(ga))
    for name in ("fwd_w", "fwd_u", "fwd_b", "bwd_w", "bwd_u", "bwd_b", "main_w", "main_b"):
        assert np.all(grads[name] == 0.0), name
    assert np.any(grads["aux_w"] != 0.0)
    assert np.any(grads["feat_w"] != 0.0)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@settings(max_examples=25, deadline=None)
@given(lengths=st.lists(st.integers(1, 30), min_size=1, max_size=12),
       seed=st.integers(0, 2 ** 32 - 1))
def test_forward_batch_matches_batch_of_one(dtype, lengths, seed):
    cfg = RecognizerConfig(label_count=3, input_dim=3, context_radius=2,
                           feature_dim=16, recurrent_dim=8, seed=seed % 100)
    m = init_recognizer(cfg, VOCAB, dtype=dtype)
    rng = np.random.default_rng(seed)
    frames = [rng.normal(0, 1, (t, 3)).astype(dtype) for t in lengths]
    auxs, mains, _ = forward_batch(m, frames)
    assert forward_batch(m, frames, aux=False)[0] is None
    for f, aux, main in zip(frames, auxs, mains):
        aux1, main1, _ = forward(m, f)
        assert aux.dtype == aux1.dtype and aux.tobytes() == aux1.tobytes()
        assert main.tobytes() == main1.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@settings(max_examples=25, deadline=None)
@given(lengths=st.lists(st.integers(1, 30), min_size=1, max_size=12),
       seed=st.integers(0, 2 ** 32 - 1))
def test_backward_batch_matches_batch_of_one(dtype, lengths, seed):
    """backward of a batch is each sample's own backward, summed in sample
    order, byte for byte."""
    cfg = RecognizerConfig(label_count=3, input_dim=3, context_radius=2,
                           feature_dim=16, recurrent_dim=8, seed=seed % 100)
    m = init_recognizer(cfg, VOCAB, dtype=dtype)
    rng = np.random.default_rng(seed)
    frames = [rng.normal(0, 1, (t, 3)).astype(dtype) for t in lengths]
    ga, gm = (rng.normal(0, 1, (len(lengths), max(lengths), 3)) for _ in range(2))
    for b, t in enumerate(lengths):
        ga[b, t:] = gm[b, t:] = 0.0  # the zero padding ctc_loss hands back
    got = backward(m, forward_batch(m, frames)[2], ga, gm)
    want = None
    for b, (f, t) in enumerate(zip(frames, lengths)):
        one = backward(m, forward(m, f)[2], ga[b:b + 1, :t], gm[b:b + 1, :t])
        want = one if want is None else {k: want[k] + v for k, v in one.items()}
    for name in m.params:
        assert got[name].dtype == want[name].dtype, name
        assert got[name].tobytes() == want[name].tobytes(), name


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("B", [1, 2, 8, 128])
def test_joint_scans_equal_one_scan_per_recurrence(rng, B, dtype):
    """Both recurrences in one scan, forward and backward, give the bits of
    each recurrence scanned on its own, on ragged batches."""
    R = 8
    lengths = rng.integers(1, 40, size=B)
    drives = [[rng.normal(0, 1, (t, R)).astype(dtype) for t in lengths] for _ in range(2)]
    u = rng.uniform(-0.6, 0.6, (2, R, R)).astype(dtype)
    states = _scan(drives, u)
    alone = [scan_reference(drives[k], u[k]) for k in range(2)]
    for k in range(2):
        assert [s.tobytes() for s in states[k]] == [s.tobytes() for s in alone[k]]

    grads = [[rng.normal(0, 1, (t, R)) for t in lengths] for _ in range(2)]
    got = _scan_grad([list(gs) for gs in grads], states, u)  # it empties the lists it is handed
    for k in range(2):
        want = scan_grad_reference(grads[k], states[k], u[k])
        assert [g.tobytes() for g in got[k]] == [g.tobytes() for g in want]


def test_backward_shape_mismatch(rng):
    m = tiny_model()
    frames = rng.normal(0, 1, (4, 3))
    _, _, cache = forward(m, frames)
    with pytest.raises(ValueError):
        backward(m, cache, np.zeros((1, 4, 3)), np.zeros((1, 3, 3)))
    with pytest.raises(ValueError):  # a batch of one is still 1 x T x L
        backward(m, cache, np.zeros((4, 3)), np.zeros((4, 3)))


# -- checkpoint ---------------------------------------------------------------------

def test_checkpoint_round_trip_is_bit_exact(tmp_path, rng):
    for radius in (2, 0):
        cfg = RecognizerConfig(label_count=3, input_dim=5, context_radius=radius,
                               feature_dim=6, recurrent_dim=4, seed=9)
        m = init_recognizer(cfg, VOCAB)
        p = tmp_path / "model.ckpt"
        save_checkpoint(m, p)
        back = load_checkpoint(p)
        assert back.cfg == cfg
        assert back.vocab == VOCAB
        for name in m.params:
            assert np.array_equal(back.params[name], m.params[name])
            assert back.params[name].dtype == np.float32
        frames = rng.normal(0, 1, (5, 5)).astype(np.float32)
        for a, b in zip(forward(m, frames)[:2], forward(back, frames)[:2]):
            assert np.array_equal(a, b)


def test_checkpoint_file_size(tmp_path):
    cfg = RecognizerConfig(label_count=3, input_dim=5, context_radius=2,
                           feature_dim=6, recurrent_dim=4, seed=9)
    m = init_recognizer(cfg, VOCAB)
    p = tmp_path / "model.ckpt"
    save_checkpoint(m, p)
    vocab_blob = json.dumps(list(VOCAB.chars), ensure_ascii=False).encode("utf-8")
    want = len(CHECKPOINT_MAGIC) + 20 + 8 + 4 + len(vocab_blob)
    for name, shape in param_shapes(cfg).items():
        want += 4 + len(name.encode()) + 4 + 4 * int(np.prod(shape))
    assert p.stat().st_size == want


def test_checkpoint_bad_magic(tmp_path):
    m = tiny_model()
    p = tmp_path / "model.ckpt"
    save_checkpoint(m, p)
    blob = bytearray(p.read_bytes())
    blob[:4] = b"JUNK"
    p.write_bytes(bytes(blob))
    with pytest.raises(FormatError):
        load_checkpoint(p)


def test_checkpoint_truncated(tmp_path):
    p = tmp_path / "model.ckpt"
    save_checkpoint(tiny_model(), p)
    blob = p.read_bytes()
    for n in range(len(blob)):  # every offset, each a one-line error naming the file
        p.write_bytes(blob[:n])
        with pytest.raises(FormatError, match=f"^{re.escape(str(p))}: "):
            load_checkpoint(p)


def test_checkpoint_flipped_count(tmp_path):
    m = tiny_model()
    p = tmp_path / "model.ckpt"
    save_checkpoint(m, p)
    blob = p.read_bytes()
    # corrupt the first section's element count field
    base = len(CHECKPOINT_MAGIC) + 20 + 8
    vlen = struct.unpack_from("<I", blob, base)[0]
    pos = base + 4 + vlen
    nlen = struct.unpack_from("<I", blob, pos)[0]
    cpos = pos + 4 + nlen
    bad = bytearray(blob)
    bad[cpos:cpos + 4] = struct.pack("<I", 10 ** 6)
    p.write_bytes(bytes(bad))
    with pytest.raises(FormatError):
        load_checkpoint(p)


def test_checkpoint_non_finite_parameter(tmp_path):
    m = tiny_model()
    m.params["main_b"][0] = np.nan
    p = tmp_path / "model.ckpt"
    save_checkpoint(m, p)
    with pytest.raises(FormatError, match=r"model\.ckpt: section 'main_b' holds non-finite"):
        load_checkpoint(p)


def _split_sections(blob: bytes) -> tuple[bytes, list[bytes]]:
    """A checkpoint's bytes before its first section, and each section's bytes."""
    pos = len(CHECKPOINT_MAGIC) + 20 + 8
    pos += 4 + struct.unpack_from("<I", blob, pos)[0]
    head, sections = blob[:pos], []
    while pos < len(blob):
        nlen = struct.unpack_from("<I", blob, pos)[0]
        count = struct.unpack_from("<I", blob, pos + 4 + nlen)[0]
        end = pos + 8 + nlen + 4 * count
        sections.append(blob[pos:end])
        pos = end
    return head, sections


@pytest.mark.parametrize("edit", [
    lambda s: s[:-1] + [s[-1].replace(b"main_b", b"main_c")],  # renamed
    lambda s: s[:1] + s[:1] + s[2:],  # the first section repeated in place of the second
    lambda s: s[:-1],  # missing
    lambda s: s[:4] + [s[7], s[5], s[6], s[4]] + s[8:],  # fwd_b and bwd_b swapped
    lambda s: s + [b"\x00\x00\x00"],  # bytes after the last section
], ids=["renamed", "repeated", "missing", "out-of-order", "trailing-bytes"])
def test_checkpoint_with_bad_sections_exits_two_naming_the_file(tmp_path, capsys, edit):
    p = tmp_path / "model.ckpt"
    save_checkpoint(tiny_model(), p)
    head, sections = _split_sections(p.read_bytes())
    assert (sections[4][4:9], sections[7][4:9]) == (b"fwd_b", b"bwd_b")  # the same shape
    p.write_bytes(head + b"".join(edit(sections)))
    with pytest.raises(FormatError):
        load_checkpoint(p)
    assert cli.main(["eval", "--checkpoint", str(p), "--data", str(tmp_path / "missing")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {p}: ") and err.count("\n") == 1


def test_checkpoint_saves_sections_in_param_shapes_order(tmp_path):
    m = tiny_model(seed=3)
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(m, a)
    m.params = dict(reversed(m.params.items()))
    save_checkpoint(m, b)
    assert a.read_bytes() == b.read_bytes()


def test_param_shapes_cover_all_params():
    cfg = RecognizerConfig(label_count=3, input_dim=3, context_radius=1,
                           feature_dim=4, recurrent_dim=3, seed=0)
    shapes = param_shapes(cfg)
    m = init_recognizer(cfg, VOCAB)
    assert set(shapes) == set(m.params)
    for name, shape in shapes.items():
        assert m.params[name].shape == shape
