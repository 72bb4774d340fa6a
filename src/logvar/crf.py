"""Linear-chain CRF over right-padded batches: loss gradients and Viterbi.

A path y over T steps with emissions E (T x K), transitions trans (K x K),
start scores s (K,) and end scores e (K,) scores

    s[y_0] + sum_t E[t, y_t] + sum_t trans[y_{t-1}, y_t] + e[y_{T-1}]

Both kernels take a right-padded batch only: emissions (B, T, K) and the
per-sequence ``lengths`` (B,), each at least 1 and at most T. Steps at or
past a sequence's length are padding that neither kernel reads; one
sequence is a batch of one. ``nll_gradients`` trains the tagger and
``viterbi_decode`` decodes it.

All computations run in double precision log space regardless of the
emission dtype; log-sum-exp is stabilized by max subtraction, so its
scores must be finite (training pins forbidden transitions at a large
negative score), while Viterbi also takes -inf (decoding's forbidden
transitions).

Viterbi's forward pass keeps only the best score per (step, tag), a max
over the previous tag, and builds no back-pointer table. The backtrack
recomputes a back-pointer only for the tag the path takes at each step,
as the argmax of the same sums, so ties break toward the lower tag index
exactly as a full argmax table would.
"""

from __future__ import annotations

import numpy as np


def _logsumexp(x: np.ndarray, axis: int) -> np.ndarray:
    """log(sum(exp(x))) along ``axis``, shifted by the maximum; ``x`` is finite."""
    m = x.max(axis=axis, keepdims=True)
    out = np.log(np.exp(x - m).sum(axis=axis, keepdims=True))
    out += m
    return out.squeeze(axis)


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
    gold tags are never read.

    Uses forward-backward: the gradient of log Z w.r.t. a score is the
    corresponding marginal probability, from which the gold indicator is
    subtracted. alpha is carried unchanged through padded steps and beta is
    ``e`` from each sequence's last real step on.
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
