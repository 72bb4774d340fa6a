"""Linear-chain CRF: scoring, forward algorithm, marginals, Viterbi.

A path y over T steps with emissions E (T x K), transitions trans (K x K),
start scores s (K,) and end scores e (K,) scores

    s[y_0] + sum_t E[t, y_t] + sum_t trans[y_{t-1}, y_t] + e[y_{T-1}]

All computations run in double precision log space regardless of the
emission dtype; log-sum-exp is stabilized by max subtraction. Viterbi also
decodes a right-padded batch of sequences in one pass.
"""

from __future__ import annotations

import numpy as np
from scipy.special import logsumexp


def sequence_score(
    E: np.ndarray, trans: np.ndarray, s: np.ndarray, e: np.ndarray, tags: np.ndarray
) -> float:
    """Unnormalized score of one tag path."""
    tags = np.asarray(tags)
    T = E.shape[0]
    if len(tags) != T:
        raise ValueError(f"path length {len(tags)} != {T} emission rows")
    score = float(s[tags[0]]) + float(e[tags[-1]])
    score += float(E[np.arange(T), tags].sum())
    score += float(trans[tags[:-1], tags[1:]].sum())
    return score


def crf_log_partition(
    E: np.ndarray, trans: np.ndarray, s: np.ndarray, e: np.ndarray
) -> float:
    """log sum over all tag paths of exp(path score), by the forward algorithm."""
    E = np.asarray(E, dtype=np.float64)
    trans = np.asarray(trans, dtype=np.float64)
    alpha = s.astype(np.float64) + E[0]
    for t in range(1, E.shape[0]):
        alpha = logsumexp(alpha[:, None] + trans, axis=0) + E[t]
    return float(logsumexp(alpha + e))


def nll_loss(
    E: np.ndarray, trans: np.ndarray, s: np.ndarray, e: np.ndarray, gold: np.ndarray
) -> float:
    """Negative log-likelihood of the gold path; always >= 0."""
    return crf_log_partition(E, trans, s, e) - sequence_score(E, trans, s, e, gold)


def nll_gradients(
    E: np.ndarray, trans: np.ndarray, s: np.ndarray, e: np.ndarray, gold: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Loss and its exact gradients w.r.t. E, trans, s, e.

    Uses forward-backward: the gradient of log Z w.r.t. a score is the
    corresponding marginal probability, from which the gold indicator is
    subtracted.
    """
    E = np.asarray(E, dtype=np.float64)
    trans = np.asarray(trans, dtype=np.float64)
    s = np.asarray(s, dtype=np.float64)
    e = np.asarray(e, dtype=np.float64)
    gold = np.asarray(gold)
    T, K = E.shape

    alpha = np.empty((T, K))
    alpha[0] = s + E[0]
    for t in range(1, T):
        alpha[t] = logsumexp(alpha[t - 1][:, None] + trans, axis=0) + E[t]
    log_z = float(logsumexp(alpha[-1] + e))

    beta = np.empty((T, K))
    beta[-1] = e
    for t in range(T - 2, -1, -1):
        beta[t] = logsumexp(trans + (beta[t + 1] + E[t + 1])[None, :], axis=1)

    node_marg = np.exp(alpha + beta - log_z)  # (T, K)

    dE = node_marg.copy()
    dE[np.arange(T), gold] -= 1.0
    d_trans = np.zeros((K, K))
    for t in range(1, T):
        pair = np.exp(
            alpha[t - 1][:, None] + trans + (E[t] + beta[t])[None, :] - log_z
        )
        d_trans += pair
        d_trans[gold[t - 1], gold[t]] -= 1.0
    ds = node_marg[0].copy()
    ds[gold[0]] -= 1.0
    de = node_marg[-1].copy()
    de[gold[-1]] -= 1.0

    loss = log_z - sequence_score(E, trans, s, e, gold)
    return loss, dE, d_trans, ds, de


def viterbi_decode(
    E: np.ndarray,
    trans: np.ndarray,
    s: np.ndarray,
    e: np.ndarray,
    lengths: np.ndarray | None = None,
) -> list[int] | list[list[int]]:
    """Highest-scoring tag path; ties break toward the lower tag index.

    ``E`` is (T, K) for one sequence, which returns one path, or a
    right-padded batch (B, T, K) with ``lengths`` (B,), default all T, which
    returns one path per sequence. A sequence's score is carried unchanged
    through its padded steps: its final score is read at its last real step,
    and its padded steps get identity back-pointers.
    """
    E = np.asarray(E, dtype=np.float64)
    single = E.ndim == 2
    if single:
        E = E[None]
    trans = np.asarray(trans, dtype=np.float64)
    B, T, K = E.shape
    lengths = np.full(B, T) if lengths is None else np.asarray(lengths)
    scores = np.empty((T, B, K))
    scores[0] = np.asarray(s, dtype=np.float64) + E[:, 0]
    back = np.empty((T, B, K), dtype=np.int64)
    rows, cols = np.arange(B), np.arange(K)
    for t in range(1, T):
        cand = scores[t - 1][:, :, None] + trans  # (B, prev, next)
        back[t] = np.argmax(cand, axis=1)  # argmax picks the lowest index on ties
        scores[t] = cand[rows[:, None], back[t], cols] + E[:, t]
    back[np.arange(T)[:, None] >= lengths] = cols
    path = np.empty((B, T), dtype=np.int64)
    path[:, -1] = np.argmax(scores[lengths - 1, rows] + e, axis=1)
    for t in range(T - 1, 0, -1):
        path[:, t - 1] = back[t, rows, path[:, t]]
    paths = [path[b, :n].tolist() for b, n in enumerate(lengths)]
    return paths[0] if single else paths
