"""Linear-chain CRF over right-padded batches: log Z, loss gradients, Viterbi.

A path y over T steps with emissions E (T x K), transitions trans (K x K),
start scores s (K,) and end scores e (K,) scores

    s[y_0] + sum_t E[t, y_t] + sum_t trans[y_{t-1}, y_t] + e[y_{T-1}]

Every kernel takes a right-padded batch only: emissions (B, T, K) and the
per-sequence ``lengths`` (B,), each at least 1 and at most T. Steps at or
past a sequence's length are padding whose scores no result depends on;
one sequence is a batch of one. ``forward`` gives log Z, ``nll_gradients``
trains the tagger and ``viterbi_decode`` decodes it. All of them compute
in double precision whatever the emission dtype.

``forward`` and ``nll_gradients`` run the scaled forward-backward
recursion in probability space (Rabiner, *A Tutorial on Hidden Markov
Models*, Proc. IEEE 1989, section V.A). ``s`` is added to the first
step's emissions and ``e`` to each sequence's last, and every step is
shifted by its best score: ``P_t = exp(E_t - max_k E_t)``. Transitions
are shifted once by their maximum: ``A = exp(trans - max trans)``, so an
entry far below the maximum, such as an IOB-frozen one at
``FROZEN_SCORE``, is an exact zero. A step is one ``(B, K) @ (K, K)``
matmul, ``a_t = (alpha_{t-1} @ A) * P_t``, and its normaliser
``c_t = sum_k a_t`` gives ``alpha_t = a_t / c_t``, a distribution over
the tags. log Z is the sum over the real steps of ``log c_t + max_k E_t``
plus ``(n - 1) * max trans`` for a sequence of n steps. The backward pass
is scaled by the same ``c_t``, so the node marginals are ``alpha * beta``
and the summed pair marginals are one product of ``alpha`` with the
scaled backward messages, times ``A``.

The shifts keep every exponential of the forward pass at most 1, so no
score overflows; underflow bounds the domain. A tag whose shifted emission
or forward probability falls below the smallest double (about exp(-745))
drops out of the forward pass, and a transition more than about 745 nats
below the largest is a zero. That is exact to rounding unless a dropped
path would later win those nats back, which takes scores that spread over
hundreds of nats within a step; a trained tagger's spread over tens. Out
of the domain ``forward``'s log Z is NaN where a step's normaliser ``c_t``
is below the smallest normal double, and may otherwise be too small.
``nll_gradients`` catches both. Its backward pass recomputes ``P_t / c_t``
from the scores, so it keeps mass that the forward pass dropped, and then
the node marginals of some step do not sum to 1 or are not finite. Its
loss is then NaN rather than a wrong number, with no numpy warning, and
``train`` raises ``DivergenceError`` on it. The log-space recursion this
replaced stayed finite there, at the cost of an exp, a sum and a log over
a (B, K, K) array per step.

Viterbi takes finite scores or -inf (decoding's forbidden transitions).
Its forward pass keeps only the best score per (step, tag), a max over
the previous tag, and builds no back-pointer table. The backtrack
recomputes a back-pointer only for the tag the path takes at each step,
as the argmax of the same sums, so ties break toward the lower tag index
exactly as a full argmax table would.
"""

from __future__ import annotations

import numpy as np

TINY = np.finfo(np.float64).tiny  # a normaliser below this is out of the domain


def _scores(E: np.ndarray, s: np.ndarray, e: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Time-major (T, B, K) float64 copy of ``E`` with ``s`` added to step 0
    and ``e`` to each sequence's last real step; padded steps are left as
    they are."""
    X = np.array(E.transpose(1, 0, 2), dtype=np.float64, order="C")
    X[0] += s
    X[lengths - 1, np.arange(len(lengths))] += e
    return X


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def forward(
    E: np.ndarray,
    trans: np.ndarray,
    s: np.ndarray,
    e: np.ndarray,
    lengths: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Scaled forward recursion of a right-padded batch.

    ``E`` is (B, T, K) and ``lengths`` (B,). Returns ``alpha`` (T, B, K),
    time-major: ``alpha[t, b]`` is the distribution over step t's tag given
    the scores of steps 0..t of sequence b, zero on padded steps;
    ``log_norm`` (T, B), each step's log normaliser with its shifts, zero on
    padded steps; ``log_z`` (B,), the sum of ``log_norm`` over the steps;
    and the scores it ran on, ``_scores(E, s, e, lengths)`` (T, B, K).
    Outside the domain (see the module docstring) a sequence's ``log_z`` is
    NaN or too small.
    """
    E = np.asarray(E)
    lengths = np.asarray(lengths)
    trans = np.asarray(trans, dtype=np.float64)
    X = _scores(E, s, e, lengths)
    T, B, K = X.shape
    real = np.arange(T)[:, None] < lengths  # (T, B)
    top = trans.max()
    A = np.exp(trans - top)
    m = X.max(axis=2)  # (T, B)
    alpha = np.exp(X - m[..., None])  # P_t, turned into alpha_t step by step
    c = np.empty((T, B))
    step = np.empty((B, K))
    for t in range(T):
        if t:
            np.matmul(alpha[t - 1], A, out=step)
            alpha[t] *= step
        alpha[t].sum(axis=1, out=c[t])
        alpha[t] /= c[t, :, None]
    alpha[~real] = 0.0
    c[~real] = 1.0
    log_norm = np.log(c)
    log_norm += m
    log_norm[1:] += top
    log_norm[~real] = 0.0
    log_z = log_norm.sum(axis=0)
    log_z[~(c >= TINY).all(axis=0)] = np.nan  # also catches NaN normalisers
    return alpha, log_norm, log_z, X


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def nll_gradients(
    E: np.ndarray,
    trans: np.ndarray,
    s: np.ndarray,
    e: np.ndarray,
    gold: np.ndarray,
    lengths: np.ndarray,
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Summed negative log-likelihood of a batch's gold paths and its exact
    gradients w.r.t. E, trans, s, e.

    ``E`` is a right-padded batch (B, T, K), ``gold`` its gold tag indices
    (B, T) and ``lengths`` (B,) its sequence lengths. Returns the loss
    ``sum_b (log Z_b - score_b(gold_b))``, dE of E's shape, zero on padded
    steps, and the summed gradients of trans, s and e. Padded emissions and
    gold tags are never read. The loss is NaN, and the gradients are not to
    be used, when the batch is outside the domain of the scaled recursion
    (see the module docstring).

    The gradient of log Z w.r.t. a score is the corresponding marginal
    probability, from which the gold indicator is subtracted. ``forward``
    gives ``alpha``; the backward pass carries ``beta``, one on each
    sequence's last real step and zero past it, and
    ``r_t = P_t / c_t * beta_t``, zero on padded steps, with
    ``beta_{t-1} = r_t @ A.T``. Node marginals are ``alpha * beta``; the
    pair marginals of steps (t-1, t) summed over the batch are
    ``(alpha_{t-1}^T r_t) * A`` summed over t, one
    ``(K, (T-1) B) @ ((T-1) B, K)`` product.
    """
    E = np.asarray(E)
    trans = np.asarray(trans, dtype=np.float64)
    s = np.asarray(s, dtype=np.float64)
    e = np.asarray(e, dtype=np.float64)
    lengths = np.asarray(lengths)
    B, T, K = E.shape
    rows = np.arange(B)
    alpha, log_norm, log_z, X = forward(E, trans, s, e, lengths)
    real = np.arange(T)[:, None] < lengths  # (T, B)
    top = trans.max()
    A_t = np.exp(trans.T - top)  # A.T

    # r_t = P_t / c_t = exp(X_t - log_norm_t + max trans) for t >= 1, from
    # the scores: forward's P_t and c_t may have dropped mass
    r = np.zeros((T, B, K))
    np.exp(X[1:] - log_norm[1:, :, None] + top, out=r[1:], where=real[1:, :, None])
    beta = np.zeros((T, B, K))
    beta[lengths - 1, rows] = 1.0
    shortest = lengths.min() if B else T  # steps below it are real in every row
    step = np.empty((B, K))
    for t in range(T - 1, 0, -1):
        r[t] *= beta[t]
        if t < shortest:  # beta[t - 1] is still zero
            np.matmul(r[t], A_t, out=beta[t - 1])
        else:
            beta[t - 1] += np.matmul(r[t], A_t, out=step)
    node = alpha * beta  # (T, B, K), zero on padded steps
    # every real step's node marginals sum to 1 unless the forward pass
    # dropped mass that the backward pass kept (or a marginal is not finite)
    consistent = (np.abs(node.sum(axis=2) - real) <= 1e-9).all()
    pair = (alpha[:-1].reshape(-1, K).T @ r[1:].reshape(-1, K)) * A_t.T

    real = real.T  # (B, T) from here on
    gold = np.where(real, gold, 0)
    last = gold[rows, lengths - 1]
    pairs = (gold[:, :-1] * K + gold[:, 1:])[real[:, 1:]]  # flat gold transitions
    d_trans = pair - np.bincount(pairs, minlength=K * K).reshape(K, K)
    ds = node[0].sum(axis=0) - np.bincount(gold[:, 0], minlength=K)
    de = node[lengths - 1, rows].sum(axis=0) - np.bincount(last, minlength=K)
    dE = node.transpose(1, 0, 2).copy()
    gold_real = gold[real]
    dE[real, gold_real] -= 1.0
    gold_score = (s[gold[:, 0]].sum() + e[last].sum()
                  + E[real, gold_real].astype(np.float64).sum() + trans.ravel()[pairs].sum())
    loss = float(log_z.sum() - gold_score) if consistent else np.nan
    return loss, dE, d_trans, ds, de


def viterbi_decode(
    E: np.ndarray,
    trans: np.ndarray,
    s: np.ndarray,
    e: np.ndarray,
    lengths: np.ndarray,
) -> list[list[int]]:
    """Highest-scoring tag path of each sequence of a right-padded batch;
    ties break toward the lower tag index.

    ``E`` is (B, T, K) and ``lengths`` (B,); returns B paths, path b of
    length ``lengths[b]``.

    The forward recursion keeps only the best score per (step, tag), as
    ``scores`` (T, K, B): a max over the previous tag of the (K_prev,
    K_next, B) candidate sums. No back-pointer table is built. The backtrack
    recomputes each step's back-pointer for the one tag the path takes, as
    the argmax over the previous tag of the same float64 sums
    ``scores[t-1][:, b] + trans[:, next]``, so it picks the lowest index on
    ties, as an argmax table would. A sequence's final score is read at its
    last real step, and its path keeps that tag through its padded steps.
    """
    E = np.asarray(E)
    trans = np.asarray(trans, dtype=np.float64)
    B, T, K = E.shape
    lengths = np.asarray(lengths)
    scores = np.array(E.transpose(1, 2, 0), dtype=np.float64, order="C")  # (T, K, B), a copy
    scores[0] += np.asarray(s, dtype=np.float64)[:, None]
    trans_3d = np.repeat(trans[:, :, None], B, axis=2)  # contiguous adds beat a broadcast
    cand = np.empty((K, K, B))
    for t in range(1, T):
        np.add(trans_3d, scores[t - 1][:, None, :], out=cand)  # (prev, next, B)
        scores[t] += np.maximum.reduce(cand, axis=0)
    rows = np.arange(B)
    path = np.empty((B, T), dtype=np.int64)
    path[:, -1] = np.argmax(scores[lengths - 1, :, rows] + e, axis=1)
    shortest = lengths.min() if B else T  # steps below it are real in every row
    for t in range(T - 1, 0, -1):
        nxt = path[:, t]
        back = (scores[t - 1] + trans.take(nxt, axis=1)).argmax(axis=0)  # lowest on ties
        path[:, t - 1] = back if t < shortest else np.where(t < lengths, back, nxt)
    return [path[b, :n].tolist() for b, n in enumerate(lengths)]
