import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seqtransfer import (BLANK_ID, DecoderConfig, beam_search, check_posteriors, ctc_loss,
                         estimate_priors, greedy_decode, lm_beam_decode, min_frames)
from seqtransfer.ctc import _occupancy, greedy_kernel
from conftest import (check_posteriors_reference, collapse, ctc_loss_bruteforce,
                      occupancy_reference, random_log_posteriors)


def log_rows(*rows):
    return np.log(np.array(rows, dtype=np.float64))


# -- frozen hand-enumerated losses ------------------------------------------

def test_single_frame_single_label():
    # one frame, the only alignment is the label itself
    post = log_rows([0.5, 0.5])
    (loss,), _ = ctc_loss([post], [[1]])
    assert loss == pytest.approx(-math.log(0.5), abs=1e-12)


def test_two_frames_one_label_sums_three_alignments():
    # paths aa, a-, -a out of 4; total mass 0.75
    post = log_rows([0.5, 0.5], [0.5, 0.5])
    (loss,), _ = ctc_loss([post], [[1]])
    assert loss == pytest.approx(-math.log(0.75), abs=1e-12)


def test_two_frames_two_labels_single_alignment():
    post = log_rows([0.25] * 4, [0.25] * 4)
    (loss,), _ = ctc_loss([post], [[1, 2]])
    assert loss == pytest.approx(-math.log(0.0625), abs=1e-12)


def test_loss_never_negative():
    # the only feasible path (1, blank, 1) carries all the mass, so the
    # loss is exactly zero; the clamp guards rounding below that
    post = np.full((3, 2), -np.inf)
    post[0, 1] = post[2, 1] = 0.0
    post[1, 0] = 0.0
    (loss,), _ = ctc_loss([post], [[1, 1]])
    assert loss == 0.0


# -- error cases -------------------------------------------------------------

def test_rejects_empty_labels():
    with pytest.raises(ValueError):
        ctc_loss([log_rows([0.5, 0.5])], [[]])


def test_rejects_blank_in_labels():
    with pytest.raises(ValueError):
        ctc_loss([log_rows([0.5, 0.5])], [[BLANK_ID]])


def test_rejects_out_of_range_label():
    with pytest.raises(ValueError):
        ctc_loss([log_rows([0.5, 0.5])], [[2]])


def test_rejects_too_few_frames():
    with pytest.raises(ValueError):
        ctc_loss([log_rows([0.25] * 4)], [[1, 2]])


def test_repeat_needs_separating_blank():
    assert min_frames([1, 1]) == 3
    with pytest.raises(ValueError):
        ctc_loss([random_log_posteriors(np.random.default_rng(0), 2, 3)], [[1, 1]])


def test_rejects_unnormalized_rows():
    with pytest.raises(ValueError):
        ctc_loss([np.zeros((2, 3))], [[1]])


# -- brute-force oracle -------------------------------------------------------

def test_bruteforce_matches_on_random_instances():
    rng = np.random.default_rng(42)
    checked = 0
    while checked < 200:
        T = int(rng.integers(1, 7))
        L = int(rng.integers(2, 5))
        n = int(rng.integers(1, 4))
        labels = rng.integers(1, L, size=n).tolist()
        post = random_log_posteriors(rng, T, L)
        want = ctc_loss_bruteforce(post, labels)
        if math.isinf(want):
            with pytest.raises(ValueError):
                ctc_loss([post], [labels])
            continue
        (got,), _ = ctc_loss([post], [labels])
        assert got == pytest.approx(want, rel=1e-9)
        checked += 1


def test_bruteforce_single_frame_is_the_entry():
    rng = np.random.default_rng(1)
    post = random_log_posteriors(rng, 1, 4)
    assert ctc_loss_bruteforce(post, [2]) == pytest.approx(-post[0, 2])


def test_bruteforce_unreachable_is_infinite():
    post = random_log_posteriors(np.random.default_rng(2), 1, 3)
    assert ctc_loss_bruteforce(post, [1, 2]) == math.inf


def test_bruteforce_rejects_huge_instances():
    post = random_log_posteriors(np.random.default_rng(3), 30, 4)
    with pytest.raises(ValueError):
        ctc_loss_bruteforce(post, [1])


# -- gradient ----------------------------------------------------------------

def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    h = 1e-5
    for _ in range(20):
        T = int(rng.integers(1, 6))
        L = int(rng.integers(2, 5))
        n = int(rng.integers(1, 3))
        labels = rng.integers(1, L, size=n).tolist()
        logits = rng.normal(0.0, 1.5, (T, L))

        def loss_of(lg):
            post = lg - np.logaddexp.reduce(lg, axis=1, keepdims=True)
            return ctc_loss([post], [labels])[0][0]

        try:
            base_post = logits - np.logaddexp.reduce(logits, axis=1, keepdims=True)
            _, (grad,) = ctc_loss([base_post], [labels])
        except ValueError:
            continue  # unalignable draw
        for t in range(T):
            for l in range(L):
                bump = np.zeros_like(logits)
                bump[t, l] = h
                fd = (loss_of(logits + bump) - loss_of(logits - bump)) / (2 * h)
                assert grad[t, l] == pytest.approx(fd, rel=1e-4, abs=1e-7)


def test_gradient_shape_matches_posteriors():
    post = random_log_posteriors(np.random.default_rng(8), 5, 4)
    _, (grad,) = ctc_loss([post], [[1, 3]])
    assert grad.shape == (5, 4)


# CTC output on a fixed seeded set: (T, L, labels, -inf entries, loss,
# sha256 prefix of the float64 gradient bytes).  A change to the lattice
# recursion that moves any bit of the loss or the gradient changes these.
RECORDED_CTC = [
    (6, 4, (1, 2, 3), 0, 5.4500322021341825, "1a3d80b33a6392bb"),
    (8, 4, (1, 1, 2), 0, 13.212431670738233, "3caed53de6a9d3ef"),
    (10, 5, (2, 2, 2), 0, 14.825934083092871, "90cf6f68cbcc868e"),
    (3, 3, (1, 1), 0, 5.893938023598053, "c80a64a1ad49defc"),
    (7, 3, (1, 2, 1, 2), 3, 1.4901639188102243, "849fa08025065fa9"),
    (12, 6, (5, 1, 5, 5, 3), 6, 15.773940740256444, "7d106682adfe482b"),
    (5, 4, (3,), 4, 6.014114192033258, "6b5ce08c2499d031"),
    (9, 5, (4, 4, 1, 1), 5, 7.8677186606270695, "276eeb6f2d5e6c6e"),
]


def test_ctc_matches_recorded_output():
    rng = np.random.default_rng(4242)
    for T, L, labels, n_inf, want_loss, want_grad in RECORDED_CTC:
        logits = rng.normal(0.0, 2.0, (T, L))
        for _ in range(n_inf):
            t, c = int(rng.integers(T)), int(rng.integers(L))
            if np.isfinite(logits[t]).sum() > 1:
                logits[t, c] = -np.inf
        post = logits - np.logaddexp.reduce(logits, axis=1, keepdims=True)
        assert np.isinf(post).sum() == n_inf
        (loss,), (grad,) = ctc_loss([post], [labels])
        assert loss == want_loss, labels
        assert hashlib.sha256(grad.tobytes()).hexdigest()[:16] == want_grad, labels


# -- batched lattices -------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_batch_matches_each_lattice_alone(data):
    """Padding to the batch's longest lattice moves no bit of any loss or
    gradient, whatever the mix of lengths, repeats, -inf entries and
    float widths."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    L = data.draw(st.integers(2, 6))
    posts, labels = [], []
    for _ in range(data.draw(st.integers(1, 16))):
        labs = data.draw(st.lists(st.integers(1, L - 1), min_size=1, max_size=6))
        logits = rng.normal(0.0, 2.0, (min_frames(labs) + data.draw(st.integers(0, 6)), L))
        # knock out non-blank entries; every row keeps its blank
        logits[:, 1:][rng.random((len(logits), L - 1)) < data.draw(st.sampled_from([0, 0.2]))] \
            = -np.inf
        post = logits - np.logaddexp.reduce(logits, axis=1, keepdims=True)
        posts.append(post.astype(data.draw(st.sampled_from([np.float32, np.float64]))))
        labels.append(labs)
    try:
        alone = [ctc_loss([post], [labs]) for post, labs in zip(posts, labels)]
    except ValueError:  # an infeasible lattice: the batch must fail the same way
        with pytest.raises(ValueError, match="no feasible alignment"):
            ctc_loss(posts, labels)
        return
    losses, grads = ctc_loss(posts, labels)
    assert grads.shape == (len(posts), max(map(len, posts)), L)
    for ((loss,), (grad,)), got_loss, got_grad in zip(alone, losses, grads):
        assert got_loss == loss
        assert got_grad[:len(grad)].tobytes() == grad.tobytes()
        assert not np.any(got_grad[len(grad):])


def test_batch_with_one_infeasible_lattice_raises_like_it_alone(rng):
    # label 2 has zero probability on every frame
    bad = np.log(np.array([[0.5, 0.5, 1.0]] * 3))
    bad[:, 2] = -np.inf
    with pytest.raises(ValueError) as alone:
        ctc_loss([bad], [[2]])
    ok = random_log_posteriors(rng, 5, 3)
    with pytest.raises(ValueError) as batch:
        ctc_loss([ok, bad, ok], [[1], [2], [1, 2]])
    assert str(batch.value) == str(alone.value)


def test_batch_rejects_empty_and_mixed_label_counts(rng):
    with pytest.raises(ValueError, match="at least one posterior matrix"):
        ctc_loss([], [])
    with pytest.raises(ValueError, match="all of one label count"):
        ctc_loss([random_log_posteriors(rng, 3, 3), random_log_posteriors(rng, 3, 4)],
                 [[1], [1]])


# -- one pass per batch, against the per-matrix kernels it replaced ------------

def _ragged_posteriors(rng, B, L, dtype):
    mats = []
    for _ in range(B):
        logits = rng.normal(0.0, 2.0, (int(rng.integers(1, 60)), L))
        logits[:, 1:][rng.random((len(logits), L - 1)) < 0.1] = -np.inf
        mats.append((logits - np.logaddexp.reduce(logits, axis=1, keepdims=True)).astype(dtype))
    return mats


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("B", [1, 2, 8, 128])
def test_batch_check_and_greedy_equal_per_matrix_oracles(rng, B, dtype):
    mats = _ragged_posteriors(rng, B, 7, dtype)
    got = check_posteriors(mats)
    assert [g.tobytes() for g in got] == [check_posteriors_reference(m).tobytes() for m in mats]
    assert greedy_decode(mats) == [collapse(np.argmax(m, axis=1).tolist()) for m in mats]
    assert greedy_decode(mats) == [greedy_decode([m])[0] for m in mats]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("B", [1, 2, 8, 128])
def test_occupancy_equals_logaddexp_at(rng, B, dtype):
    L, T = 5, 30
    counts = rng.integers(1, 8, size=B)
    z = np.zeros((B, 2 * counts.max() + 1), dtype=np.int64)
    gamma = rng.normal(-3.0, 2.0, (T, B, z.shape[1])).astype(dtype)
    gamma[rng.random(gamma.shape) < 0.2] = -np.inf
    for i, n in enumerate(counts):
        z[i, 1:2 * n + 1:2] = rng.integers(1, L, size=n)  # L = 5 makes repeats common
        gamma[:, i, 2 * n + 1:] = -np.inf  # padding positions
        gamma[int(rng.integers(1, T + 1)):, i] = -np.inf  # padding frames
    got = _occupancy(gamma, z, L)
    assert got.dtype == dtype
    assert got.tobytes() == occupancy_reference(gamma, z, L).tobytes()


def _oracle_rejects(m) -> bool:
    try:
        check_posteriors_reference(m)
    except ValueError:
        return True
    return False


_DAMAGE = ["none"] * 6 + ["nan", "posinf", "all_neg_inf_row", "unnormalized", "bad_shape",
                          "other_label_count"]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_batch_check_rejects_exactly_when_an_oracle_rejects(data):
    """A batch fails when the per-matrix oracle rejects one of its matrices
    or its matrices disagree on the label count, and only then."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    L = data.draw(st.integers(2, 5))
    mats = []
    for _ in range(data.draw(st.integers(1, 8))):
        T = data.draw(st.integers(1, 6))
        kind = data.draw(st.sampled_from(_DAMAGE))
        m = random_log_posteriors(rng, T, L + (kind == "other_label_count"))
        m[:, 1:][rng.random((T, m.shape[1] - 1)) < 0.2] = -np.inf
        m -= np.logaddexp.reduce(m, axis=1, keepdims=True)
        t, c = int(rng.integers(T)), int(rng.integers(L))
        if kind in ("nan", "posinf"):
            m[t, c] = np.nan if kind == "nan" else np.inf
        elif kind == "all_neg_inf_row":
            m[t] = -np.inf
        elif kind == "unnormalized":
            m[t] += data.draw(st.sampled_from([-1.0, -1e-3, 2e-5, 0.5]))
        elif kind == "bad_shape":
            m = data.draw(st.sampled_from([m[:0], m[:, :1], m[0], m[None]]))
        mats.append(m.astype(data.draw(st.sampled_from([np.float32, np.float64]))))
    rejected = (any(map(_oracle_rejects, mats))
                or len({m.shape[1] for m in mats}) > 1)
    for check in (check_posteriors, greedy_decode, estimate_priors):
        if rejected:
            with pytest.raises(ValueError):
                check(mats)
        else:
            check(mats)


def test_batch_check_names_the_matrix_and_row(rng):
    ok = random_log_posteriors(rng, 4, 3)
    bad = ok.copy()
    bad[2] += 0.5
    with pytest.raises(ValueError, match=r"^posterior matrix 2 row 2 log-sum-exps to 0.5, not 0$"):
        check_posteriors([ok, ok, bad])
    bad = ok.copy()
    bad[3] = -np.inf  # an all -inf row has no mass at all
    with pytest.raises(ValueError, match=r"^posterior matrix 1 row 3 log-sum-exps to -inf"):
        check_posteriors([ok, bad, ok])
    bad = ok.copy()
    bad[1, 0] = np.nan
    with pytest.raises(ValueError, match=r"^posterior matrix 1 row 1 contains NaN or \+inf"):
        check_posteriors([ok, bad])
    with pytest.raises(ValueError, match=r"^posterior matrix 1 must be T x L"):
        check_posteriors([ok, ok[:, :1]])
    assert check_posteriors([]) == []
    assert greedy_decode([]) == []


@pytest.mark.parametrize("T, L", [(1, 2), (2, 2), (5, 3), (30, 7)])
@pytest.mark.parametrize("as_list", [False, True])
def test_bare_matrix_is_not_a_batch_of_its_rows(rng, T, L, as_list):
    """A T x L matrix passed where a batch belongs is rejected as matrix 0
    with the row shape it found, never decoded or scored row by row."""
    post = random_log_posteriors(rng, T, L)
    bare = post.tolist() if as_list else post
    for call in (check_posteriors, greedy_decode, estimate_priors,
                 lambda m: ctc_loss(m, [[1]] * T)):
        with pytest.raises(ValueError, match=rf"^posterior matrix 0 must be T x L .*got \({L},\)$"):
            call(bare)


@pytest.mark.parametrize("damage, message", [
    ("nan", r"^posterior matrix 1 row 2 contains NaN or \+inf entries$"),
    ("unnormalized", r"^posterior matrix 1 row 2 log-sum-exps to 0.5, not 0$")])
def test_public_entry_points_reject_damaged_rows(rng, damage, message):
    """The loops skip the posterior check; every public function that takes
    a caller's matrices still makes it, with the same message."""
    ok = random_log_posteriors(rng, 4, 3)
    bad = ok.copy()
    if damage == "nan":
        bad[2, 1] = np.nan
    else:
        bad[2] += 0.5
    for call in (lambda ms: ctc_loss(ms, [[1], [2]]), greedy_decode, estimate_priors,
                 lambda ms: beam_search(ms, None, np.full(3, 1 / 3), DecoderConfig())):
        with pytest.raises(ValueError, match=message):
            call([ok, bad])
    with pytest.raises(ValueError, match=message.replace("matrix 1", "matrix 0")):
        lm_beam_decode(bad, None, np.full(3, 1 / 3), DecoderConfig())


# -- collapse / greedy --------------------------------------------------------

def test_collapse_examples():
    assert collapse([1, 1, BLANK_ID, 2]) == (1, 2)
    assert collapse([BLANK_ID, BLANK_ID]) == ()
    assert collapse([1, BLANK_ID, 1]) == (1, 1)


@given(st.lists(st.integers(min_value=1, max_value=3), max_size=20))
def test_collapse_fixes_blank_free_repeat_free_sequences(raw):
    seq = []
    for v in raw:
        if not seq or seq[-1] != v:
            seq.append(v)
    assert collapse(seq) == tuple(seq)


@given(st.lists(st.integers(min_value=0, max_value=3), max_size=20))
def test_collapse_output_has_no_blanks(path):
    assert BLANK_ID not in collapse(path)


def test_greedy_decode_examples():
    post = log_rows([0.1, 0.8, 0.1], [0.1, 0.8, 0.1], [0.8, 0.1, 0.1], [0.1, 0.1, 0.8])
    assert greedy_decode([post]) == [(1, 2)]
    all_blank = log_rows([0.8, 0.1, 0.1], [0.8, 0.1, 0.1])
    assert greedy_decode([all_blank]) == [()]


def test_greedy_decode_one_hot_with_blanks():
    eps = 1e-12
    rows = []
    for hot in (1, 0, 2, 0, 3):
        row = np.full(4, eps)
        row[hot] = 1.0 - 3 * eps
        rows.append(row)
    assert greedy_decode([np.log(rows)]) == [(1, 2, 3)]


def test_greedy_tie_breaks_to_lowest_id():
    post = log_rows([0.25, 0.25, 0.25, 0.25])
    assert greedy_decode([post]) == [()]  # blank is id 0


def argmax_posteriors(path, L) -> np.ndarray:
    """A normalized len(path) x L log-posterior matrix whose frame t has its
    argmax at path[t]."""
    m = np.full((len(path), L), -3.0)
    m[np.arange(len(path)), path] = 0.0
    return m - np.logaddexp.reduce(m, axis=1, keepdims=True)


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 5).flatmap(lambda L: st.tuples(st.just(L), st.lists(
    st.lists(st.integers(0, L - 1), min_size=1, max_size=12), min_size=1, max_size=40))))
@example((3, [[1]]))  # T = 1
@example((3, [[0, 0, 0], [0], [1, 0, 1]]))  # all-blank matrices read as ()
@example((3, [[2, 1], [1, 1, 2], [2]]))  # a label ends a matrix and starts the next
def test_greedy_kernel_is_collapse_of_argmax_per_matrix(case):
    """greedy_kernel's one array pass over a ragged batch gives, matrix by
    matrix, the collapse of that matrix's own argmax path: a repeat is
    merged only inside one matrix."""
    L, paths = case
    mats = [argmax_posteriors(p, L) for p in paths]
    assert [np.argmax(m, axis=1).tolist() for m in mats] == paths
    got = greedy_kernel(mats)
    assert got == [collapse(p) for p in paths]
    assert all(type(i) is int for ids in got for i in ids)
    assert greedy_decode(mats) == got


def test_min_frames():
    assert min_frames([1, 2, 3]) == 3
    assert min_frames([1, 1, 2, 2]) == 6
