"""The batched CRF kernels against brute-force path enumeration and the
kernels they replaced.

log Z is read off ``nll_gradients``: its loss on a gold path plus that
path's brute-force score.
"""

import itertools
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from logvar import crf
from logvar.crf import forward, nll_gradients, viterbi_decode
from logvar.embed import build_vocabs
from logvar.synth import generate_synthetic
from logvar.tagger import FROZEN_SCORE, Hyperparams, init_model
from logvar.taxonomy import OUTSIDE, Tag
from logvar.train import TrainConfig, load_model, train

PINNED_MODEL = Path(__file__).resolve().parents[1] / "benchmarks" / "model.bin"


def enumerate_scores(E, trans, s, e):
    """(path, score) for every tag path, in lexicographic path order."""
    T, K = E.shape
    for path in itertools.product(range(K), repeat=T):
        score = s[path[0]] + e[path[-1]]
        score += sum(E[t, path[t]] for t in range(T))
        score += sum(trans[path[t - 1], path[t]] for t in range(1, T))
        yield path, score


def brute_log_partition(E, trans, s, e):
    scores = [sc for _, sc in enumerate_scores(E, trans, s, e)]
    m = max(scores)
    return m + math.log(sum(math.exp(sc - m) for sc in scores))


def brute_argmax(E, trans, s, e):
    best_path, best = None, -math.inf
    for path, sc in enumerate_scores(E, trans, s, e):
        if sc > best:  # first max = lexicographically smallest on ties
            best_path, best = path, sc
    return list(best_path)


def nll(E, trans, s, e, gold):
    """``nll_gradients``' loss of one sequence, run as a batch of one."""
    return nll_gradients(E[None], trans, s, e, np.asarray(gold)[None], [len(E)])[0]


def path_score(E, trans, s, e, path):
    """Score of one path, looked up in the enumeration."""
    return dict(enumerate_scores(E, trans, s, e))[tuple(path)]


def log_partition(E, trans, s, e, gold=None):
    """log Z of one sequence: the batched loss on ``gold`` (default all tag 0)
    plus the gold path's enumerated score."""
    gold = [0] * len(E) if gold is None else gold
    return nll(E, trans, s, e, gold) + path_score(E, trans, s, e, gold)


def viterbi(E, trans, s, e):
    """``viterbi_decode``'s path of one sequence, run as a batch of one."""
    (path,) = viterbi_decode(E[None], trans, s, e, [len(E)])
    return path


def random_instance(rng, T=None, K=None):
    T = T if T is not None else int(rng.integers(1, 6))
    K = K if K is not None else int(rng.integers(2, 7))
    return (
        rng.standard_normal((T, K)),
        rng.standard_normal((K, K)),
        rng.standard_normal(K),
        rng.standard_normal(K),
    )


def test_single_token_uniform_partition():
    E = np.zeros((1, 3))
    z = np.zeros(3)
    assert log_partition(E, np.zeros((3, 3)), z, z) == pytest.approx(math.log(3))


def test_partition_matches_enumeration_4x5():
    rng = np.random.default_rng(0)
    E, trans, s, e = random_instance(rng, T=4, K=5)
    assert log_partition(E, trans, s, e, [3, 0, 4, 1]) == pytest.approx(
        brute_log_partition(E, trans, s, e), abs=1e-9
    )


def test_partition_shift_invariance():
    rng = np.random.default_rng(1)
    E, trans, s, e = random_instance(rng, T=3, K=4)
    base = log_partition(E, trans, s, e)
    shifted = E.copy()
    shifted[1] += 2.5
    assert log_partition(shifted, trans, s, e) == pytest.approx(base + 2.5)


def test_sequence_score_zero_params():
    # every path scores exactly 0, so nll_gradients' loss is the same log Z
    # whatever the gold path
    E, trans, z = np.zeros((3, 4)), np.zeros((4, 4)), np.zeros(4)
    losses = {nll(E, trans, z, z, gold) for gold in itertools.product(range(4), repeat=3)}
    assert len(losses) == 1
    assert losses.pop() == pytest.approx(brute_log_partition(E, trans, z, z))


def test_sequence_score_hand_built():
    E = np.array([[1.0, 2.0], [3.0, 4.0]])
    trans = np.array([[0.5, -0.5], [0.25, 0.75]])
    s = np.array([0.1, 0.2])
    e = np.array([0.3, 0.4])
    # path (1, 0): s[1] + E[0,1] + trans[1,0] + E[1,0] + e[0]
    expected = 0.2 + 2.0 + 0.25 + 3.0 + 0.3
    assert path_score(E, trans, s, e, [1, 0]) == pytest.approx(expected)
    gold_score = brute_log_partition(E, trans, s, e) - nll(E, trans, s, e, [1, 0])
    assert gold_score == pytest.approx(expected)


def test_any_path_score_below_log_partition():
    rng = np.random.default_rng(2)
    E, trans, s, e = random_instance(rng, T=3, K=3)
    log_z = log_partition(E, trans, s, e)
    for path, sc in enumerate_scores(E, trans, s, e):
        assert sc <= log_z + 1e-12


def test_nll_matches_brute_force_path_probability():
    rng = np.random.default_rng(3)
    E, trans, s, e = random_instance(rng, T=3, K=4)
    gold = np.array([2, 0, 3])
    brute = brute_log_partition(E, trans, s, e) - path_score(E, trans, s, e, gold)
    assert nll(E, trans, s, e, gold) == pytest.approx(brute, abs=1e-9)
    assert nll(E, trans, s, e, gold) >= 0


def test_nll_limit_zero_for_dominant_gold():
    E = np.zeros((2, 3))
    gold = np.array([0, 1])
    E[0, 0] = E[1, 1] = 60.0
    z = np.zeros(3)
    assert nll(E, np.zeros((3, 3)), z, z, gold) == pytest.approx(0.0, abs=1e-12)


def test_nll_row_shift_invariance():
    rng = np.random.default_rng(4)
    E, trans, s, e = random_instance(rng, T=4, K=3)
    gold = np.array([0, 2, 1, 1])
    base = nll(E, trans, s, e, gold)
    shifted = E.copy()
    shifted[2] += 7.0
    assert nll(shifted, trans, s, e, gold) == pytest.approx(base, abs=1e-9)


def test_viterbi_dominant_emissions():
    E = np.array([[10.0, 0.0], [0.0, 10.0]])
    z = np.zeros(2)
    assert viterbi(E, np.zeros((2, 2)), z, z) == [0, 1]


def test_viterbi_matches_brute_force_4x5():
    rng = np.random.default_rng(5)
    E, trans, s, e = random_instance(rng, T=4, K=5)
    assert viterbi(E, trans, s, e) == brute_argmax(E, trans, s, e)


def test_viterbi_tie_break_lower_index():
    # all scores identical: expect the all-zeros path
    E = np.zeros((3, 4))
    z = np.zeros(4)
    assert viterbi(E, np.zeros((4, 4)), z, z) == [0, 0, 0]


def test_batched_viterbi_mixed_lengths_matches_brute_force():
    # a right-padded batch decodes each sequence as if it were alone; the
    # padded steps hold large random scores that would steer any path they
    # leaked into
    rng = np.random.default_rng(11)
    K = 4
    lengths = [1, 5, 3, 5, 2]
    for _ in range(10):
        trans, s, e = rng.standard_normal((K, K)), rng.standard_normal(K), rng.standard_normal(K)
        E = 50.0 * rng.standard_normal((len(lengths), max(lengths), K))
        for b, n in enumerate(lengths):
            E[b, :n] = rng.standard_normal((n, K))
        paths = viterbi_decode(E, trans, s, e, np.array(lengths))
        assert paths == [brute_argmax(E[b, :n], trans, s, e) for b, n in enumerate(lengths)]
    ties = viterbi_decode(np.zeros((2, 3, K)), np.zeros((K, K)), np.zeros(K), np.zeros(K), [3, 1])
    assert ties == [[0, 0, 0], [0]]


def test_batched_nll_gradients_match_per_sequence():
    # a right-padded batch returns the summed loss and CRF gradients of its
    # sequences and each one's dE; large padded emissions and random padded
    # gold tags must not leak into any of them
    rng = np.random.default_rng(12)
    K = 5
    lengths = np.array([1, 6, 3, 6, 2])
    B, T = len(lengths), int(lengths.max())
    trans, s, e = rng.standard_normal((K, K)), rng.standard_normal(K), rng.standard_normal(K)
    E = 50.0 * rng.standard_normal((B, T, K))
    gold = rng.integers(0, K, size=(B, T))
    for b, n in enumerate(lengths):
        E[b, :n] = rng.standard_normal((n, K))
    loss, dE, dT, ds, de = nll_gradients(E, trans, s, e, gold, lengths)
    per = [nll_gradients(E[b : b + 1, :n], trans, s, e, gold[b : b + 1, :n], [n])
           for b, n in enumerate(lengths)]
    assert loss == pytest.approx(sum(p[0] for p in per), abs=1e-12)
    for k, total in ((2, dT), (3, ds), (4, de)):
        np.testing.assert_allclose(total, sum(p[k] for p in per), rtol=0, atol=1e-12)
    assert dE.shape == E.shape
    for (b, n), p in zip(enumerate(lengths), per):
        np.testing.assert_allclose(dE[b, :n], p[1][0], rtol=0, atol=1e-12)
        assert (dE[b, n:] == 0).all()


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(6)
    E, trans, s, e = random_instance(rng, T=4, K=4)
    E = E[None]  # a batch of one
    gold, lengths = np.array([[1, 3, 0, 2]]), [4]
    loss, dE, dT, ds, de = nll_gradients(E, trans, s, e, gold, lengths)
    h = 1e-6
    for arr, grad in ((E, dE), (trans, dT), (s, ds), (e, de)):
        flat, gflat = arr.ravel(), grad.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = nll_gradients(E, trans, s, e, gold, lengths)[0]
            flat[i] = orig - h
            dn = nll_gradients(E, trans, s, e, gold, lengths)[0]
            flat[i] = orig
            assert gflat[i] == pytest.approx((up - dn) / (2 * h), abs=1e-6)


def test_random_instances_against_oracle():
    rng = np.random.default_rng(7)
    for _ in range(50):
        E, trans, s, e = random_instance(rng)
        gold = rng.integers(0, E.shape[1], size=len(E))
        assert log_partition(E, trans, s, e, gold) == pytest.approx(
            brute_log_partition(E, trans, s, e), abs=1e-9
        )
        assert viterbi(E, trans, s, e) == brute_argmax(E, trans, s, e)


def reference_viterbi(E, trans, s, e, lengths):
    """The Viterbi kernel before back-pointers were taken along the path only.

    It builds the full (T, B, K) argmax table and gathers every step's
    scores through it; kept as the oracle that the path-only backtrack must
    match exactly.
    """
    E = np.asarray(E, dtype=np.float64)
    trans = np.asarray(trans, dtype=np.float64)
    B, T, K = E.shape
    lengths = np.asarray(lengths)
    scores = np.empty((T, B, K))
    scores[0] = np.asarray(s, dtype=np.float64) + E[:, 0]
    back = np.empty((T, B, K), dtype=np.int64)
    rows, cols = np.arange(B), np.arange(K)
    for t in range(1, T):
        cand = scores[t - 1][:, :, None] + trans  # (B, prev, next)
        back[t] = np.argmax(cand, axis=1)
        scores[t] = cand[rows[:, None], back[t], cols] + E[:, t]
    back[np.arange(T)[:, None] >= lengths] = cols
    path = np.empty((B, T), dtype=np.int64)
    path[:, -1] = np.argmax(scores[lengths - 1, rows] + e, axis=1)
    for t in range(T - 1, 0, -1):
        path[:, t - 1] = back[t, rows, path[:, t]]
    return [path[b, :n].tolist() for b, n in enumerate(lengths)]


def random_decode_batch(seed):
    """One seeded batch as ``decode`` passes it: float32 emissions, -inf frozen entries.

    Seeds cycle through B = 1, T = 1, integer-rounded scores (ties) and
    mixed lengths that include 1; about half the batches freeze some
    transitions and starts at -inf.
    """
    rng = np.random.default_rng(seed)
    B = 1 if seed % 5 == 0 else int(rng.integers(1, 12))
    T = 1 if seed % 7 == 0 else int(rng.integers(1, 10))
    K = 21 if seed % 11 == 0 else int(rng.integers(2, 8))
    lengths = rng.integers(1, T + 1, size=B)
    lengths[rng.integers(B)] = T  # decode pads to the batch's longest message
    if B > 2:
        lengths[rng.integers(B)] = 1
    E = 3.0 * rng.standard_normal((B, T, K))
    trans, s, e = rng.standard_normal((K, K)), rng.standard_normal(K), rng.standard_normal(K)
    if seed % 3 != 2:  # ties: integer scores, often equal sums
        E, trans, s, e = np.round(E), np.round(trans), np.round(s), np.round(e)
    if seed % 2:
        trans[rng.random((K, K)) < 0.3] = -np.inf
        s[rng.random(K) < 0.3] = -np.inf
    return E.astype(np.float32), trans, s, e, lengths


def test_viterbi_equals_reference_kernel_exactly():
    # tolerance: none; the path-only backtrack takes the same float64 sums
    # and the same lowest-index argmax as the full back-pointer table
    shapes = set()
    for seed in range(400):
        E, trans, s, e, lengths = random_decode_batch(seed)
        before = E.copy()
        assert viterbi_decode(E, trans, s, e, lengths) == reference_viterbi(E, trans, s, e, lengths)
        np.testing.assert_array_equal(E, before)
        shapes.add((E.shape[0] == 1, E.shape[1] == 1, 1 in lengths))
    assert shapes >= {(True, False, False), (False, True, True), (False, False, True)}


def test_single_sequence_equals_reference_and_leaves_input_alone():
    rng = np.random.default_rng(13)
    for _ in range(50):
        E, trans, s, e = random_instance(rng)
        E = np.round(E)[None]  # float64 input: the kernel must copy it, not write into it
        before = E.copy()
        lengths = [E.shape[1]]
        assert viterbi_decode(E, trans, s, e, lengths) == reference_viterbi(E, trans, s, e, lengths)
        np.testing.assert_array_equal(E, before)


def time_major_backtrack_viterbi(E, trans, s, e, lengths):
    """The Viterbi kernel before its per-step operands were made contiguous.

    Its backtrack gathers ``trans`` columns and takes each argmax over the
    tag axis of the (T, K, B) scores, a strided axis; kept as the oracle
    that the batch-major backtrack must match exactly.
    """
    E = np.asarray(E)
    trans = np.asarray(trans, dtype=np.float64)
    B, T, K = E.shape
    lengths = np.asarray(lengths)
    scores = np.array(E.transpose(1, 2, 0), dtype=np.float64, order="C")
    scores[0] += np.asarray(s, dtype=np.float64)[:, None]
    trans_3d = np.repeat(trans[:, :, None], B, axis=2)
    cand = np.empty((K, K, B))
    for t in range(1, T):
        np.add(trans_3d, scores[t - 1][:, None, :], out=cand)
        scores[t] += np.maximum.reduce(cand, axis=0)
    rows = np.arange(B)
    path = np.empty((B, T), dtype=np.int64)
    path[:, -1] = np.argmax(scores[lengths - 1, :, rows] + e, axis=1)
    shortest = lengths.min() if B else T
    for t in range(T - 1, 0, -1):
        nxt = path[:, t]
        back = (scores[t - 1] + trans.take(nxt, axis=1)).argmax(axis=0)
        path[:, t - 1] = back if t < shortest else np.where(t < lengths, back, nxt)
    return [path[b, :n].tolist() for b, n in enumerate(lengths)]


def test_viterbi_equals_time_major_backtrack_on_ties():
    # tolerance: none; both kernels take the same float64 sums and the
    # lowest-index argmax. Small integer scores make many equal sums, and
    # -inf transitions and starts make whole candidate rows -inf
    rng = np.random.default_rng(29)
    for _ in range(600):
        B, T, K = int(rng.integers(1, 70)), int(rng.integers(1, 40)), int(rng.choice([3, 5, 21]))
        lengths = rng.integers(1, T + 1, size=B)
        lengths[rng.integers(B)] = T
        E = rng.integers(-2, 3, size=(B, T, K)).astype(np.float32)
        trans = rng.integers(-2, 3, size=(K, K)).astype(np.float64)
        s, e = rng.integers(-2, 3, size=K).astype(np.float64), rng.integers(-2, 3, size=K)
        trans[rng.random((K, K)) < 0.3] = -np.inf
        s[rng.random(K) < 0.3] = -np.inf
        assert (viterbi_decode(E, trans, s, e, lengths)
                == time_major_backtrack_viterbi(E, trans, s, e, lengths))


def test_viterbi_empty_batch():
    K = 4
    z = np.zeros(K)
    assert viterbi_decode(np.zeros((0, 3, K)), np.zeros((K, K)), z, z, np.zeros(0, int)) == []


def _logsumexp(x, axis):
    """log(sum(exp(x))) along ``axis``, shifted by the maximum; ``x`` is finite."""
    m = x.max(axis=axis, keepdims=True)
    out = np.log(np.exp(x - m).sum(axis=axis, keepdims=True))
    out += m
    return out.squeeze(axis)


def reference_nll_gradients(E, trans, s, e, gold, lengths):
    """The log-space kernel that the scaled recursion replaced.

    Both recursions run in log space, a log-sum-exp over a (B, K, K) array
    per step, and the pair marginals take one exp per step; kept as the
    oracle that the scaled kernel must match.
    """
    E = np.asarray(E, dtype=np.float64)
    trans = np.asarray(trans, dtype=np.float64)
    s = np.asarray(s, dtype=np.float64)
    e = np.asarray(e, dtype=np.float64)
    B, T, K = E.shape
    lengths = np.asarray(lengths)
    real = np.arange(T) < lengths[:, None]  # (B, T)
    E = np.where(real[..., None], E, 0.0)
    gold = np.where(real, gold, 0)
    rows = np.arange(B)

    alpha = np.empty((B, T, K))
    alpha[:, 0] = s + E[:, 0]
    for t in range(1, T):
        step = _logsumexp(alpha[:, t - 1, :, None] + trans, axis=1) + E[:, t]
        alpha[:, t] = np.where(real[:, t, None], step, alpha[:, t - 1])
    log_z = _logsumexp(alpha[:, -1] + e, axis=1)  # (B,)

    beta = np.empty((B, T, K))
    beta[:, -1] = e
    inner = np.arange(T) < lengths[:, None] - 1  # steps with a real successor
    for t in range(T - 2, -1, -1):
        step = _logsumexp(trans + (beta[:, t + 1] + E[:, t + 1])[:, None, :], axis=2)
        beta[:, t] = np.where(inner[:, t, None], step, e)

    # node marginals, zero on padded steps
    node_marg = np.exp(alpha + beta - log_z[:, None, None]) * real[..., None]
    # pairwise marginals of steps (t-1, t), t >= 1, zero where t is padded
    pair_log = (alpha[:, :-1, :, None] + trans
                + (E[:, 1:] + beta[:, 1:])[:, :, None, :] - log_z[:, None, None, None])
    pair = np.exp(np.where(real[:, 1:, None, None], pair_log, -np.inf))

    last = gold[rows, lengths - 1]
    pairs = (gold[:, :-1] * K + gold[:, 1:])[real[:, 1:]]  # flat gold transitions
    d_trans = pair.sum(axis=(0, 1)) - np.bincount(pairs, minlength=K * K).reshape(K, K)
    ds = node_marg[:, 0].sum(axis=0) - np.bincount(gold[:, 0], minlength=K)
    de = node_marg[rows, lengths - 1].sum(axis=0) - np.bincount(last, minlength=K)
    dE = node_marg
    dE[real, gold[real]] -= 1.0
    gold_score = (s[gold[:, 0]].sum() + e[last].sum() + E[real, gold[real]].sum()
                  + trans.ravel()[pairs].sum())
    loss = float(log_z.sum() - gold_score)
    return loss, dE, d_trans, ds, de


def assert_matches_reference(got, want, tol=1e-10):
    """Loss within ``tol`` relative, every gradient within ``tol`` absolute."""
    assert abs(got[0] - want[0]) <= tol * abs(want[0]), (got[0], want[0])
    for g, w in zip(got[1:], want[1:]):
        assert g.shape == w.shape
        np.testing.assert_allclose(g, w, rtol=0, atol=tol)


@pytest.fixture(scope="module")
def pinned():
    return load_model(PINNED_MODEL)


def random_train_batch(seed, model):
    """One seeded right-padded batch as training passes it to the CRF.

    K = 21 with the pinned model's IOB-frozen entries at ``FROZEN_SCORE``:
    the pinned ``trans``, ``start`` and ``end`` on even seeds, N(0, 1)
    scores elsewhere on odd ones. float32 N(0, 4^2) emissions; B from 1 to
    32 and T from 1 to 35, with B = 1 every sixth seed, T = 1 every ninth
    and a length-1 row in most batches of three or more. Gold paths are
    IOB-valid (Viterbi paths of other emissions) on two seeds in three and
    random tags otherwise. Padded emissions are NaN on every fourth seed.
    """
    rng = np.random.default_rng(seed)
    B = 1 if seed % 6 == 0 else int(rng.integers(1, 33))
    T = 1 if seed % 9 == 0 else int(rng.integers(1, 36))
    lengths = rng.integers(1, T + 1, size=B)
    lengths[rng.integers(B)] = T
    if B > 2:
        lengths[rng.integers(B)] = 1
    K, p = model.n_tags, model.params
    trans, s, e = p["trans"], p["start"], p["end"]
    if seed % 2:
        trans = np.where(model.frozen_trans, FROZEN_SCORE, rng.standard_normal((K, K)))
        s = np.where(model.frozen_start, FROZEN_SCORE, rng.standard_normal(K))
        e = rng.standard_normal(K)
    E = (4.0 * rng.standard_normal((B, T, K))).astype(np.float32)
    if seed % 3:
        forbidden = np.where(model.frozen_trans, -np.inf, 0.0)
        start = np.where(model.frozen_start, -np.inf, 0.0)
        paths = viterbi_decode(rng.standard_normal((B, T, K)), forbidden, start, np.zeros(K), lengths)
        gold = np.array([path + [0] * (T - len(path)) for path in paths])
    else:
        gold = rng.integers(0, K, size=(B, T))
    if seed % 4 == 0:
        E[np.arange(T) >= lengths[:, None]] = np.nan
    return E, trans, s, e, gold, lengths


def test_nll_gradients_equal_reference_kernel(pinned):
    # tolerance 1e-10: relative on the loss, absolute on every gradient
    shapes = set()
    for seed in range(240):
        E, trans, s, e, gold, lengths = random_train_batch(seed, pinned)
        want = reference_nll_gradients(E, trans, s, e, gold, lengths)
        assert_matches_reference(nll_gradients(E, trans, s, e, gold, lengths), want)
        B, T = gold.shape
        shapes.add((B == 1, T == 1, 1 in lengths, B > 16, T > 25))
    assert {(True, False, False), (False, True, True), (False, False, True)} <= {
        shape[:3] for shape in shapes}
    assert any(shape[3] and shape[4] for shape in shapes)


def prefix_distribution(E, trans, s, e, t):
    """p(y_t | scores of steps 0..t) by enumeration; ``e`` counts at the last step."""
    T, K = E.shape
    weights = np.zeros(K)
    for path, score in enumerate_scores(E[: t + 1], trans, s, np.zeros(K)):
        weights[path[-1]] += math.exp(score + (e[path[-1]] if t == T - 1 else 0.0))
    return weights / weights.sum()


def test_forward_matches_enumeration_on_a_padded_batch():
    rng = np.random.default_rng(14)
    K, lengths = 4, np.array([1, 4, 2, 3])
    B, T = len(lengths), int(lengths.max())
    trans, s, e = rng.standard_normal((K, K)), rng.standard_normal(K), rng.standard_normal(K)
    E = 50.0 * rng.standard_normal((B, T, K))  # padded steps: large scores that must not leak
    for b, n in enumerate(lengths):
        E[b, :n] = rng.standard_normal((n, K))
    alpha, log_norm, log_z, X = forward(E, trans, s, e, lengths)
    assert alpha.shape == (T, B, K) and log_norm.shape == (T, B)
    np.testing.assert_array_equal(X, crf._scores(E, s, e, lengths))
    np.testing.assert_allclose(log_norm.sum(axis=0), log_z, rtol=0, atol=1e-12)
    for b, n in enumerate(lengths):
        seq = E[b, :n]
        assert log_z[b] == pytest.approx(brute_log_partition(seq, trans, s, e), abs=1e-12)
        for t in range(n):
            np.testing.assert_allclose(alpha[t, b], prefix_distribution(seq, trans, s, e, t),
                                       rtol=0, atol=1e-12)
        assert (alpha[n:, b] == 0).all() and (log_norm[n:, b] == 0).all()


def test_nll_gradients_builds_the_scores_once(monkeypatch):
    # the backward pass reads the scores that forward built
    calls = []
    scores = crf._scores
    monkeypatch.setattr(crf, "_scores", lambda *args: calls.append(1) or scores(*args))
    rng = np.random.default_rng(16)
    K, lengths = 3, np.array([2, 4])
    E = rng.standard_normal((len(lengths), 4, K))
    gold = rng.integers(0, K, size=E.shape[:2])
    nll_gradients(E, rng.standard_normal((K, K)), np.zeros(K), np.zeros(K), gold, lengths)
    assert len(calls) == 1


def test_transition_far_above_the_rest_matches_reference(pinned):
    # exp(800) overflows a double; the shift by max trans keeps log Z exact
    p = pinned.params
    o = pinned.tags.index(OUTSIDE)
    trans = p["trans"].astype(np.float64)
    trans[o, o] = 800.0
    rng = np.random.default_rng(15)
    lengths = np.array([4, 1, 3, 4])
    K = len(trans)
    E = (4.0 * rng.standard_normal((len(lengths), 4, K))).astype(np.float32)
    gold = rng.integers(0, K, size=E.shape[:2])
    want = reference_nll_gradients(E, trans, p["start"], p["end"], gold, lengths)
    assert want[0] > 2000
    assert_matches_reference(nll_gradients(E, trans, p["start"], p["end"], gold, lengths), want)


@pytest.mark.parametrize("gap, in_domain", [(650.0, True), (720.0, False), (1000.0, False)])
def test_likely_tags_far_below_the_best_emission(pinned, gap, in_domain):
    # step 1's best emission, ``gap`` nats above every other tag, is I-X,
    # which a path reaches only from B-X, and step 0 scores B-X ``gap`` nats
    # down; every path scores within a few nats of 0. The forward pass gives
    # B-X at step 0 a probability of about exp(-gap), so past about 708 nats
    # step 1's normaliser is no longer a normal double: the loss must then be
    # NaN, never a wrong finite number, and come without a numpy warning
    p = pinned.params
    begin, inside = pinned.tags.index(Tag("B", "OTP")), pinned.tags.index(Tag("I", "OTP"))
    E = np.zeros((2, 3, pinned.n_tags))
    E[:, 0, begin] = -gap
    E[:, 1, inside] = gap
    gold = np.zeros((2, 3), dtype=np.int64)
    lengths = np.array([3, 2])
    args = (E, p["trans"], p["start"], p["end"], gold, lengths)
    want = reference_nll_gradients(*args)
    assert 0 < want[0] < 20
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = nll_gradients(*args)
        log_z = forward(E, p["trans"], p["start"], p["end"], lengths)[2]
    if in_domain:
        assert_matches_reference(got, want)
    else:
        assert np.isnan(got[0]) and np.isnan(log_z).all()


def test_dropped_path_that_wins_later_gives_nan():
    # the best path, 1 0 1 0 (score 0), takes tag 0 at step 1, 1000 nats
    # below that step's best emission but only 400 behind on its prefix; the
    # forward pass drops it there, and the path wins the difference back at
    # step 2, where 1 -> 1 costs 600. The forward pass's log Z is about 200
    # nats short, the node marginals no longer sum to 1, and the loss is NaN
    # where the log-space kernel gives 1400
    E = np.array([[[-600.0, 0.0], [-400.0, 600.0], [-400.0, 400.0], [400.0, 400.0]]])
    trans = np.array([[0.0, 0.0], [0.0, -600.0]])
    s, e, gold, lengths = np.array([-400.0, -400.0]), np.zeros(2), np.zeros((1, 4), int), [4]
    want = reference_nll_gradients(E, trans, s, e, gold, lengths)
    assert want[0] == pytest.approx(1400.0)
    assert brute_log_partition(E[0], trans, s, e) == pytest.approx(0.0, abs=1e-9)
    assert forward(E, trans, s, e, lengths)[2][0] < -150
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isnan(nll_gradients(E, trans, s, e, gold, lengths)[0])


@pytest.mark.parametrize("seed", [4, 7])
def test_training_history_equals_reference_kernel(seed, monkeypatch):
    # the kernels agree to about 1e-13, not bitwise, so the two runs can
    # differ by rounding; over 3 epochs the losses stay within 1e-9 relative
    # and the validation metric (above 0.5 by epoch 3) is the same
    logs, _ = generate_synthetic(seed=seed, n_templates=6, n_logs=120)
    train_set, val_set = logs[:80], logs[80:]
    hp = Hyperparams(word_dim=16, char_emb_dim=12, char_filters=8, char_kernel=3,
                     lstm_hidden=12, max_word_len=16)
    model = init_model(hp, *build_vocabs(train_set), seed=seed)
    cfg = TrainConfig(epochs=3, batch_size=8, learning_rate=0.05, seed=seed)
    _, history = train(model, train_set, val_set, cfg)
    monkeypatch.setattr("logvar.crf.nll_gradients", reference_nll_gradients)
    _, want = train(model, train_set, val_set, cfg)
    assert [h.val_metric for h in history] == [h.val_metric for h in want]
    assert history[-1].val_metric > 0.5
    for got, ref in zip(history, want):
        assert got.train_loss == pytest.approx(ref.train_loss, rel=1e-9, abs=0)
