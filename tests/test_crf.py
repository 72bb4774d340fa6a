"""The batched CRF kernels against brute-force path enumeration.

log Z is read off ``nll_gradients``: its loss on a gold path plus that
path's brute-force score.
"""

import itertools
import math

import numpy as np
import pytest

from logvar.crf import nll_gradients, viterbi_decode


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


def test_viterbi_empty_batch():
    K = 4
    z = np.zeros(K)
    assert viterbi_decode(np.zeros((0, 3, K)), np.zeros((K, K)), z, z, np.zeros(0, int)) == []
