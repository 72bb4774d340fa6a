"""Char-CNN + word-embedding + Bi-LSTM + CRF sequence tagger.

The full forward pass, its exact analytic gradients, and Viterbi decoding,
implemented directly on numpy arrays. A model owns its vocabularies,
hyperparameters, and fixed tag ordering; inference is deterministic.
No code here writes into a parameter array once a model has been used:
training replaces a parameter with a new array at each step, and the
arrays a model is first decoded or trained with become read-only.
Concurrent readers may share a model.

IOB structure is enforced inside the CRF by one rule, ``_crf_scores``: the
transitions and starts that would make a tag sequence ill-formed score -inf,
in decoding and in training alike. So every decoded path is well-formed,
and log Z and its gradients count well-formed paths only. Only
``parse.parse_corpus`` relies on that alone; ``tag_log``, ``tag_logs`` and
``train``'s validation build an ``AnnotatedLog`` per line, which checks
its tags again.

One forward pass, ``_forward``, serves inference and training, and one
inference entry point, ``decode_ids``, serves parsing, tagging and
validation: it sorts tokenized messages by length, runs them in padded
batches and returns each message's tag indices into ``model.tags``.
``decode``, ``tag_log`` and ``tag_logs`` read those indices as ``Tag``s;
``parse.parse_corpus`` reads them into each line's record with no
``AnnotatedLog`` between.
``_forward`` runs a batch of logs as a right-padded (B, T) tensor: every
log's padding comes after its last real step, in both LSTM directions (the
backward direction reads each log through a per-log reversal index), so
padded steps never reach a real step and the recurrences need no mask;
Viterbi carries each score unchanged through padded steps. The two
directions are independent, so one ``_lstm_forward`` call advances both in
a single time loop, their states stacked (2, B, H), and one
``_lstm_backward`` call runs both back in a single loop. ``_lstm_forward``
gathers its steps' input projections from a table (below) a window of steps
at a time. Decoding gathers windows of LSTM_WINDOW_ROWS rows into one
reused buffer, carries the cell state in place and keeps only the outputs,
so a batch holds about 2.7 KB per padded token at default sizes; training
gathers every step in one window and keeps the gates and cell states that
the backward pass reads. Each step's arithmetic is the same either way, so
the window changes no bit. Training runs a
minibatch the same way: one forward pass, one batched CRF forward-backward
whose gradient is zero on padded steps and carries the batch mean's 1/B
(exact when B is a power of two), and one backward pass, linear in it, in
which those zero gradients keep padded steps out of every parameter gradient.
So a padded step may read any input row, and nothing else handles padding.

The LSTM step has no broadcast operand. sigmoid(z) = (tanh(z / 2) + 1) / 2,
so the i, f and o pre-activations are halved where they are made: the
``_Prepared`` view keeps the input weights and bias with those columns
halved, and the recurrent weights scaled, once per set of parameters, so
``_project`` is a plain matmul and bias add. The step then carries each
sigmoid gate as ``tanh + 1`` and the hidden state doubled, and halves the
cell state once per step and the outputs once after the loop. Every
scale is a power of two, so the outputs have the bits of a step that forms
each sigmoid as tanh(z / 2) / 2 + 1 / 2 from the unscaled pre-activation.
The backward pass reads the doubled gates and the scaled weights as they
are: its gate factors carry the inverse of the weights' scale, which the
doubled gates give with no extra pass, so each step's product has the
unscaled product's bits.

A token's input row (word embedding and char-CNN output) is a function of
the token alone, and so, without dropout, is each LSTM direction's input
projection ``x @ Wx + b``; logs repeat their tokens heavily, within a call
and across calls. So the LSTM reads its inputs as a projection table, (2,
N, 4H), and a (B, T) array of row ids into it. ``_project`` builds every
such table over at least two rows, so that a row's projection has the same
bits whatever else is projected with it (OpenBLAS multiplies one row by
another kernel; from two rows on, no row depends on the row count).

Training builds a token table, an ``EncodedLog`` of distinct tokens, once
per ``train`` run (``token_table``), computes the char-CNN output per
minibatch over the minibatch's distinct rows through ``_char_reps`` and its
backward, and, at every dropout rate, projects one masked row per position.
Log b of minibatch i of epoch e draws its masks from one seed,
``batch_dropout_seed(seed, e, i) + b``; at a rate of 0 the masks keep every
real step and no generator is drawn.

``decode_ids`` reads what depends on the parameters alone, the char table, the
stacked and scaled LSTM weights and biases and the CRF's -inf scores,
from the model's ``_prepared`` view, with a token store: a least recently
used map from a token string to its projection, STORE_ROWS rows. A
training step reads the same view, but not its store. A call whose
distinct tokens number at most STORE_ROWS first marks those the
store holds as recently used, then encodes, convolves and projects only
the others, in one ``_project``, and writes them over free or least
recently used slots, never over the call's own tokens; its batches gather
from the store. A larger call builds a token table for the call, computes its
char-CNN output once, and projects each batch's distinct rows. Every
model keeps its view, and with it the store, across calls until a
``params`` entry is replaced by another array; building the view makes the
tensors it reads read-only, so no in-place write can make a kept projection
stale. The view lives in a weak map beside the model, not in a field, so a
model still deep-copies. A ``decode_ids`` call holds the view's lock while
it runs, so calls on one model run one at a time. Whether or not a call
reads the store, each of its distinct tokens is convolved at most once:
tokens that share their first max_word_len characters are convolved once
each.

The char-CNN's convolution is linear in the character embedding, so it is
read from a per-character table, table[k] = char_emb @ char_W[k] of shape
(kernel, n_chars, filters) with the PAD row zero, built with the
``_prepared`` view: a word's pre-activation at position j is char_b plus
the sum over k of table[k] at the character in window slot k. That is a
gather and a sum instead of a matmul over the embedding width per
character. The centre slot's PAD row is -inf, so a PAD position's
pre-activation is -inf and the max-pool skips it unmasked. The rows run
sorted by length in groups of CHAR_GROUP_ROWS, each trimmed to its longest
word, so that little of the gather and sum is spent on PAD positions.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np

from . import crf
from .corpus import AnnotatedLog, tokenize
from .embed import PAD, CharVocab, EncodedLog, WordVocab, encode_log
from .errors import DimensionMismatch, EmptyLog, NonFiniteScores
from .taxonomy import MULTICLASS, Tag, is_valid_transition, tag_vocabulary

FROZEN_SCORE = -10000.0  # stored at the IOB-forbidden CRF entries; ``_crf_scores`` reads -inf


def check_field_types(config: object) -> None:
    """Raise ValueError naming the first field of the dataclass ``config`` not of its
    default's type; only a bool field takes a bool, and a float field takes an int."""
    for f in fields(config):
        kind, value = type(f.default), getattr(config, f.name)
        if (isinstance(value, bool) != (kind is bool)
                or not isinstance(value, (int, float) if kind is float else kind)):
            raise ValueError(f"{f.name} = {value!r} is not a {kind.__name__}")


@dataclass(frozen=True)
class Hyperparams:
    word_dim: int = 100
    char_emb_dim: int = 300
    char_filters: int = 50
    char_kernel: int = 3
    lstm_hidden: int = 128  # per direction
    dropout: float = 0.2
    max_word_len: int = 30
    use_char_channel: bool = True  # False gives the char-ablated baseline

    def __post_init__(self) -> None:
        check_field_types(self)
        for f in fields(self):
            if type(f.default) is int and getattr(self, f.name) <= 0:
                raise ValueError(f"{f.name} must be positive")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")

    @property
    def input_dim(self) -> int:
        return self.word_dim + self.char_filters


@dataclass(eq=False)  # == is identity: params is a dict of arrays
class TaggerModel:
    """A tagger; its tag alphabet, and from it the IOB-forbidden CRF entries, derive from mode."""

    hp: Hyperparams
    mode: str
    word_vocab: WordVocab
    char_vocab: CharVocab
    params: dict[str, np.ndarray]
    tags: list[Tag] = field(init=False)
    frozen_trans: np.ndarray = field(init=False, repr=False)  # bool (K, K)
    frozen_start: np.ndarray = field(init=False, repr=False)  # bool (K,)

    @property
    def n_tags(self) -> int:
        return len(self.tags)

    def tag_index(self, tag: Tag) -> int:
        return self._tag_to_idx[tag]

    def __post_init__(self) -> None:
        self.tags = tag_vocabulary(self.mode)
        self._tag_to_idx = {t: i for i, t in enumerate(self.tags)}
        self.frozen_trans = np.array(
            [[not is_valid_transition(prev, nxt) for nxt in self.tags] for prev in self.tags])
        self.frozen_start = np.array([not is_valid_transition(None, t) for t in self.tags])


def param_shapes(
    hp: Hyperparams, n_words: int, n_chars: int, n_tags: int
) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every model tensor, in the order of ``init_model``'s params."""
    din, h = hp.input_dim, hp.lstm_hidden
    shapes = {
        "char_emb": (n_chars, hp.char_emb_dim),
        "char_W": (hp.char_kernel, hp.char_emb_dim, hp.char_filters),
        "char_b": (hp.char_filters,),
        "word_emb": (n_words, hp.word_dim),
    }
    for d in ("f", "b"):
        shapes[f"lstm_{d}_Wx"] = (din, 4 * h)
        shapes[f"lstm_{d}_Wh"] = (h, 4 * h)
        shapes[f"lstm_{d}_b"] = (4 * h,)
    shapes.update(proj_W=(2 * h, n_tags), proj_b=(n_tags,), trans=(n_tags, n_tags),
                  start=(n_tags,), end=(n_tags,))
    return shapes


# the tensors ``init_model`` draws, in the order it draws them
_DRAWN = ("char_emb", "char_W", "word_emb", "lstm_f_Wx", "lstm_f_Wh", "lstm_b_Wx", "lstm_b_Wh",
          "proj_W")


def init_model(
    hp: Hyperparams,
    word_vocab: WordVocab,
    char_vocab: CharVocab,
    pretrained: np.ndarray | None = None,
    seed: int = 0,
    mode: str = MULTICLASS,
    dtype=np.float32,
) -> TaggerModel:
    """Fresh model with seeded initialization.

    Every tensor of ``param_shapes`` starts at zero. One generator seeded
    with ``seed`` then draws the ``_DRAWN`` tensors in order: embeddings
    uniform in [-0.25, 0.25], the rest uniform in +-sqrt(1/fan_in), fan_in
    the product of all dims but the last. A ``pretrained`` word matrix
    replaces the word_emb draw, which is not made; one of another shape
    raises DimensionMismatch. Then PAD rows are
    zeroed, forget-gate biases set to 1, and the IOB-violating CRF scores
    stored at FROZEN_SCORE, which ``_crf_scores`` reads as -inf.
    """
    params: dict[str, np.ndarray] = {}
    model = TaggerModel(hp, mode, word_vocab, char_vocab, params)
    shapes = param_shapes(hp, len(word_vocab), len(char_vocab), model.n_tags)
    if pretrained is not None and pretrained.shape != shapes["word_emb"]:
        raise DimensionMismatch(
            f"pretrained matrix shape {pretrained.shape} != {shapes['word_emb']}")
    rng = np.random.default_rng(seed)
    params.update((name, np.zeros(shape, dtype=dtype)) for name, shape in shapes.items())
    for name in _DRAWN:
        if name == "word_emb" and pretrained is not None:
            params[name][...] = pretrained
        else:
            bound = 0.25 if name.endswith("_emb") else np.sqrt(1.0 / np.prod(shapes[name][:-1]))
            params[name][...] = rng.uniform(-bound, bound, size=shapes[name])
    params["char_emb"][PAD] = 0.0
    params["word_emb"][PAD] = 0.0
    forget = _gate_slices(hp.lstm_hidden)[1]
    params["lstm_f_b"][forget] = params["lstm_b_b"][forget] = 1.0
    params["trans"][model.frozen_trans] = FROZEN_SCORE
    params["start"][model.frozen_start] = FROZEN_SCORE
    return model


# ---------------------------------------------------------------------------
# forward pass

# Padded tokens (logs x longest log) per batch in decode_ids. At its peak a
# batch keeps about 2.7 KB per padded token alive (both LSTM directions'
# outputs, as the loop writes them and joined), besides a per-batch
# projection table of 4 KB per distinct token in a call larger than the
# token store; at H = 128 in float32. Of 288, 576 and 864, 576 was the
# largest at which a warm 2,000-line parse took no more page faults than at
# 288 (the freed batch memory stays below glibc's trim threshold) and peak
# RSS stayed within 1 MB; parse-bulk ran 1.12-1.17x as fast (BENCH_decode_window.json).
BATCH_TOKENS = 576

# Rows (logs x steps) per window of gates that decoding's LSTM gathers at a
# time, at least one step: a buffer of 512 KB at 4H = 512 in float32.
LSTM_WINDOW_ROWS = 128

# Char rows per char-CNN group. Rows run sorted by their count of
# characters, in consecutive groups of CHAR_GROUP_ROWS. A group's
# pre-activations, at most rows x max_word_len x filters, are the char-CNN's
# peak memory, whatever the size of the call (1.5 MB at 30 characters and 50
# float32 filters).
CHAR_GROUP_ROWS = 256


def _char_table(model: TaggerModel) -> np.ndarray:
    """The per-character table of the convolution, (kernel, n_chars, filters).

    The convolution is linear in the character embedding, so it is read
    from ``table[k] = char_emb @ char_W[k]``. PAD contributes zero vectors
    (same-padding at the edges), whatever the stored PAD embedding holds,
    except in the centre slot, whose PAD row is -inf.
    """
    p = model.params
    table = p["char_emb"] @ p["char_W"]
    table[:, PAD] = 0.0
    table[model.hp.char_kernel // 2, PAD] = -np.inf
    return table


def _char_pre(
    char_ids: np.ndarray, table: np.ndarray, bias: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Pre-activations of (N, L) char rows, (N, L, F), and the ids they read.

    Position j of a row scores ``bias + sum_k table[k][ids_p[j + k]]``, where
    ``ids_p`` is the row with kernel // 2 PADs before it and the rest after.
    A PAD position scores -inf through the centre slot's PAD row.
    """
    kern = table.shape[0]
    half = kern // 2
    n_rows, length = char_ids.shape
    ids_p = np.full((n_rows, length + kern - 1), PAD, dtype=char_ids.dtype)
    ids_p[:, half : half + length] = char_ids
    pre = bias + table[0][ids_p[:, :length]]
    for k in range(1, kern):
        pre += table[k][ids_p[:, k : k + length]]
    return ids_p, pre


def _char_forward(char_ids: np.ndarray, table: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Convolution over one group of (N, L) char rows with max-pooling, (N, F).

    A gather and a sum per kernel slot from ``_char_table``'s table, in
    place of a matmul over the embedding width per character. PAD positions
    score -inf and drop out of the pool with no separate mask; an all-PAD
    row pools to -inf and falls back to the bias vector.
    """
    rep = _char_pre(char_ids, table, bias)[1].max(axis=1)
    empty = rep[:, 0] == -np.inf
    if empty.any():
        rep[empty] = bias
    return rep


def _char_reps(
    char_ids: np.ndarray, model: TaggerModel, table: np.ndarray | None
) -> tuple[np.ndarray, dict | None]:
    """Char-CNN representation of each of N right-padded char rows, (N, F).

    Every row is convolved once, with the model's ``_char_table`` ``table``
    (None without the char channel). The rows run sorted by length in
    groups of CHAR_GROUP_ROWS, each trimmed to its longest word, so that few
    of the positions a group gathers and sums are PAD. Returns the reps and
    the cache ``_char_backward`` reads. Without the char channel every rep
    is zero and the cache is None.
    """
    if not model.hp.use_char_channel:
        return np.zeros((len(char_ids), model.hp.char_filters), model.params["char_b"].dtype), None
    n_chars = np.count_nonzero(char_ids != PAD, axis=1)
    order = np.argsort(n_chars, kind="stable")
    rep = np.empty((len(char_ids), table.shape[2]), dtype=table.dtype)
    groups = []
    for lo in range(0, len(order), CHAR_GROUP_ROWS):
        rows = order[lo : lo + CHAR_GROUP_ROWS]
        width = max(int(n_chars[rows[-1]]), 1)
        rep[rows] = _char_forward(char_ids[rows, :width], table, model.params["char_b"])
        groups.append((rows, width))
    return rep, {"table": table, "chars": char_ids, "groups": groups}


def _char_backward(
    d_rep: np.ndarray, model: TaggerModel, cache: dict | None
) -> dict[str, np.ndarray]:
    """Char-CNN gradients given d loss / d rep of each row of one ``_char_reps``.

    Each group's pre-activations are computed again here, not kept from
    the forward pass, so that a decode call holds one group's at a time. A
    pooled value was read at one position, so its gradient goes to the kern
    table entries summed there: scatter it into ``d_table[k]``, then
    ``dW[k] = emb.T @ d_table[k]`` and ``d_emb = sum_k d_table[k] @ W[k].T``.
    The PAD entries are constant, so ``d_table[k]``'s PAD row is zero and
    the stored PAD embedding adds nothing to ``dW``. Returns the gradients
    of char_emb, char_W and char_b.
    """
    p = model.params
    if cache is None:  # no char channel: the reps are constant zeros
        return {name: np.zeros_like(p[name]) for name in ("char_emb", "char_W", "char_b")}
    n_filters = model.hp.char_filters
    emb, table, chars = p["char_emb"], cache["table"], cache["chars"]
    kern = table.shape[0]
    # per kernel slot, the char id that each pooled value read
    read = np.empty((kern, len(chars), n_filters), dtype=chars.dtype)
    for rows, width in cache["groups"]:
        ids_p, pre = _char_pre(chars[rows, :width], table, p["char_b"])
        arg = pre.argmax(axis=1)  # (N, F) pooled position, the first on ties
        at = np.arange(len(rows))[:, None]
        for k in range(kern):
            read[k, rows] = ids_p[at, arg + k]
    # one bincount for all kernel slots, slot k's (n_chars, F) bins after slot k - 1's
    n_chars = emb.shape[0]
    bins = (read + n_chars * np.arange(kern)[:, None, None]) * n_filters + np.arange(n_filters)
    d_table = np.bincount(bins.ravel(), weights=np.tile(d_rep.ravel(), kern),
                          minlength=kern * n_chars * n_filters)
    d_table = d_table.reshape(kern, n_chars, n_filters).astype(emb.dtype)
    d_table[:, PAD] = 0.0
    d_emb = (d_table @ p["char_W"].transpose(0, 2, 1)).sum(axis=0)
    return {"char_emb": d_emb, "char_W": emb.T @ d_table, "char_b": d_rep.sum(axis=0)}


def _gate_slices(h_dim: int) -> tuple[slice, slice, slice, slice]:
    """Input, forget, cell and output gate columns of a (.., 4H) LSTM array."""
    return tuple(slice(k * h_dim, (k + 1) * h_dim) for k in range(4))


def _recurrent_scale(h_dim: int, dtype) -> np.ndarray:
    """``c``, (4H,): the factor by which the ``_Prepared`` view scales each
    column of the stacked recurrent weights, 1/4 on the i, f and o columns
    and 1/2 on the g columns; it scales the input weights and bias by ``2c``.
    Powers of two scale every value exactly."""
    c = np.full(4 * h_dim, 0.25, dtype=dtype)
    c[_gate_slices(h_dim)[2]] = 0.5
    return c


def _lstm_forward(
    proj: np.ndarray, Wh: np.ndarray, index: np.ndarray, window: int | None = None
) -> tuple[np.ndarray, dict | None]:
    """Both LSTM directions over a right-padded batch of B sequences of T steps.

    ``proj`` is a projection table as ``_project`` gives it, (2, N, 4H):
    ``x @ Wx[d] + b[d]`` with its i, f and o columns halved; step t of
    sequence b in direction d reads row ``index[t, d, b]`` of ``proj[d]``,
    ``index`` time-major, (T, 2, B). ``Wh`` is both directions' recurrent
    weights stacked, (2, H, 4H), as the ``_Prepared`` view keeps them, scaled
    by ``_recurrent_scale``. The two directions are independent, so they
    advance together in one time loop: their states are stacked (2, B, H)
    and each step makes one (2, B, H) @ (2, H, 4H) product.

    The steps' rows are gathered into gates, (steps, 2, B, 4H), one window
    of steps at a time; each step adds its recurrent term and overwrites the
    sum with the gates. With ``window`` None (training) one window holds
    every step, and the gates and every step's ``c`` are kept for
    ``_lstm_backward``. Decoding passes a number of steps: each window is
    gathered into one reused buffer, with ``take``'s ``mode="clip"``, which
    writes into it directly (the default mode would copy the buffer in and
    out), and ``c`` is carried in one (2, B, H) buffer, updated in place.
    Either way every step runs the same arithmetic on the same values, so
    the outputs have the same bits whatever the window.

    sigmoid(z) = (tanh(z / 2) + 1) / 2, and every scale here is a power of
    two, so the step needs no broadcast operand, and its outputs have the
    bits (barring subnormals) of a step that forms each sigmoid as tanh(z /
    2) / 2 + 1 / 2 from the unscaled pre-activation: the i, f and o
    columns carry ``tanh + 1``, twice the gate; the loop carries ``h``
    doubled, which against ``Wh``'s extra 1/2 gives the recurrent term
    scaled as the gates are; the new ``c``, ``2f * c + 2i * g``, is halved
    once per step; and ``hs`` is halved once after the loop. Each step
    writes ``c`` and ``2h`` into preallocated buffers. The state starts at
    zero, so the first step adds a zero in place of its recurrent product:
    the product of a zero state and finite weights is +0, and adding +0 is
    what the product's sum did (it turns a -0 into +0). Padding follows
    every sequence's last real step, so it never reaches a real step's
    output. Returns the outputs, (2, B, T, H), each direction in its own
    step order, and in training the cache for ``_lstm_backward``: ``hs`` and
    ``cs``, (T + 1, 2, B, H), from the zero state on, and ``gates`` with
    doubled i, f and o activations; in decoding None.
    """
    t_len, _, b_len = index.shape
    n_rows, four_h = proj.shape[1:]
    h_dim = four_h // 4
    dtype = proj.dtype
    zero, one, half = dtype.type(0.0), dtype.type(1.0), dtype.type(0.5)
    # the backward direction's rows follow the forward direction's in the flat table
    flat, flat_index = proj.reshape(-1, four_h), index + np.array([[0], [n_rows]])
    keep = window is None  # training keeps the gates and every step's c
    window = t_len if keep else min(window, t_len)
    gates = np.empty((window, 2, b_len, four_h), dtype=dtype)
    hs = np.zeros((t_len + 1, 2, b_len, h_dim), dtype=dtype)
    cs = np.zeros((t_len + 1 if keep else 1, 2, b_len, h_dim), dtype=dtype)
    rec = np.empty((2, b_len, four_h), dtype=dtype)
    tmp = np.empty((2, b_len, h_dim), dtype=dtype)
    # positional out arguments: at B = 1 each call's overhead is its cost
    add, mul, tanh = np.add, np.multiply, np.tanh
    for lo in range(0, t_len, window):
        hi = min(lo + window, t_len)
        act_w = np.take(flat, flat_index[lo:hi], axis=0, out=gates[: hi - lo], mode="clip")
        # per-gate views of the window's steps, (steps, 2, B, .); i and f adjoin
        i_g, f_g, g_g, o_g = (act_w[..., s] for s in _gate_slices(h_dim))
        if_g = act_w[..., : 2 * h_dim]
        if keep:
            prev_c, next_c = cs[lo:hi], cs[lo + 1 : hi + 1]
        else:  # one buffer, updated in place, is every step's c and next c
            prev_c = next_c = [cs[0]] * (hi - lo)
        steps = zip(act_w, if_g, i_g, f_g, g_g, o_g, hs[lo:hi], hs[lo + 1 : hi + 1], prev_c,
                    next_c)
        for t, (act, if_, i, f, g, o, h, h_next, c, c_next) in enumerate(steps, lo):
            if t:
                np.matmul(h, Wh, rec)
                add(act, rec, act)
            else:  # the state starts at zero, and so does the first recurrent term
                add(act, zero, act)
            tanh(act, act)
            add(if_, one, if_)
            add(o, one, o)
            mul(f, c, c_next)
            mul(i, g, tmp)
            add(c_next, tmp, c_next)
            mul(c_next, half, c_next)
            tanh(c_next, tmp)
            mul(o, tmp, h_next)
    hs *= half
    cache = {"hs": hs, "cs": cs, "gates": gates} if keep else None
    return hs[1:].transpose(1, 2, 0, 3), cache


def _lstm_backward(
    d_h: np.ndarray, rows: np.ndarray, index: np.ndarray, Wx: tuple[np.ndarray, np.ndarray],
    Wh: np.ndarray, cache: dict, real: np.ndarray,
) -> tuple[np.ndarray, tuple, tuple]:
    """Gradients of both LSTM directions given d loss / d output, time-major,
    (T, 2, B, H), each direction in its own step order, zero on the padded
    steps of the real-step mask ``real``, (B, T); step t of sequence b in
    direction d read the projection of input row ``rows[index[t, d, b]]``.

    ``Wx`` is the two directions' input weights. ``Wh`` and ``cache`` are
    what ``_lstm_forward`` read and returned: the stacked recurrent weights
    with each column scaled by ``c``, ``_recurrent_scale``, and gates whose
    i, f and o columns hold twice the gate.
    Both directions run back in one time loop over the fused (T, 2, B, .)
    arrays. Only ``dh`` and ``dc`` chain through time, so the other factors
    are computed for all steps of both directions at once before the loop:
    ``G``, (T, 2, B, 4H), holds the gate factors g*i*(1-i), c_prev*f*(1-f),
    i*(1-g^2) and tanh(c)*o*(1-o) divided by ``c``, by which ``dc``, ``dc``,
    ``dc`` and ``dh`` scale into ``dz / c``, and ``oc`` holds o*(1-tanh(c)^2).
    The doubled gates give those quotients directly (4g*i*(1-i) is g * 2i *
    (2 - 2i)), and a power of two scales exactly, so ``(dz / c) @ Wh.T`` has
    the bits of the unscaled ``dz @ Wh.T``. Each step turns ``G[t]`` into
    ``dz[t] / c`` in place, carries ``dc * f`` and, but for the first step,
    makes one stacked (2, B, 4H) @ (2, 4H, H) product. Padding follows each
    sequence's last real step, so ``dz`` is zero on padded steps, and each
    direction's real steps, time-major as the loop runs, are scaled back by
    ``c`` once for its weight, bias and input gradients; padded steps get a
    zero input gradient. Returns the input gradients, (2, B, T, Din), then
    the forward and the backward direction's (Wx, Wh, bias) gradients.
    """
    hs, cs, gates = cache["hs"], cache["cs"], cache["gates"]
    tanh_c = np.tanh(cs[1:])
    t_len, _, b_len, h_dim = tanh_c.shape
    i_, f_, g_, o_ = _gate_slices(h_dim)
    # the doubled gates 2i, 2f and 2o, and g
    i2, f2, g_g, o2 = gates[..., i_], gates[..., f_], gates[..., g_], gates[..., o_]
    G = np.empty_like(gates)  # (T, 2, B, 4H)
    G[..., i_] = g_g * i2 * (2.0 - i2)
    G[..., f_] = cs[:-1] * f2 * (2.0 - f2)
    G[..., g_] = i2 * (1.0 - g_g**2)
    G[..., o_] = tanh_c * o2 * (2.0 - o2)
    oc = o2 * 0.5 * (1.0 - tanh_c**2)  # (T, 2, B, H)
    f_g = f2 * 0.5
    # step t turns G[t] into dz[t] / c in place, so the two share a buffer
    dz = G
    dz_c = dz.reshape(t_len, 2, b_len, 4, h_dim)[:, :, :, :3]  # the blocks dc drives
    dz_o = dz[..., o_]
    dh = np.zeros((2, b_len, h_dim), dtype=gates.dtype)
    dc = np.zeros_like(dh)
    tmp = np.empty_like(dh)
    # a transposed view: a contiguous transposed copy runs another BLAS
    # kernel, with other bits
    WhT = Wh.transpose(0, 2, 1)
    add, mul = np.add, np.multiply
    for t in range(t_len - 1, -1, -1):
        add(dh, d_h[t], dh)
        mul(dh, oc[t], tmp)
        add(dc, tmp, dc)
        mul(dz_c[t], dc[..., None, :], dz_c[t])
        mul(dz_o[t], dh, dz_o[t])
        mul(dc, f_g[t], dc)
        if t:  # the first step's dh would reach no earlier step
            np.matmul(dz[t], WhT, dh)
    steps = real.T  # (T, B)
    c = _recurrent_scale(h_dim, gates.dtype)
    d_inputs = np.zeros((2, t_len, b_len, rows.shape[1]), dtype=gates.dtype)
    grads = []
    for d in range(2):
        real_dz = dz[:, d][steps]  # (n, 4H), the real steps time-major
        real_dz *= c
        inputs = rows[index[:, d][steps]]  # (n, Din), each real step's input
        grads.append((inputs.T @ real_dz, hs[:-1, d][steps].T @ real_dz, real_dz.sum(axis=0)))
        d_inputs[d][steps] = real_dz @ Wx[d].T
    return d_inputs.transpose(0, 2, 1, 3), *grads


def batch_dropout_seed(seed: int, epoch: int, batch: int) -> int:
    """The dropout seed of minibatch ``batch`` of epoch ``epoch`` in a run
    seeded ``seed``; ``_dropout_masks`` adds each log's place in the batch."""
    return seed * 1_000_003 + epoch * 10_007 + batch * 131


def _dropout_masks(
    model: TaggerModel, shape: tuple[int, int], lengths: np.ndarray, dropout_seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Inverted-dropout masks of the LSTM inputs and outputs of a (B, T)
    batch of logs of ``lengths`` real steps, (B, T, width); padded steps get
    zero. This is the only code in the forward and backward passes that
    reads the dropout rate.

    Log b draws its masks over its real steps from ``dropout_seed + b``:
    the masks it would get alone at that seed. At a rate of 0 no generator
    is drawn: both masks are the real-step mask, (B, T, 1), 1 on real steps.
    """
    p = model.hp.dropout
    dtype = model.params["proj_W"].dtype
    if p == 0.0:
        real = (np.arange(shape[1]) < lengths[:, None]).astype(dtype)[..., None]
        return real, real
    scale = 1.0 / (1.0 - p)
    m1 = np.zeros((*shape, model.hp.input_dim), dtype=dtype)
    m2 = np.zeros((*shape, 2 * model.hp.lstm_hidden), dtype=dtype)
    for b, n in enumerate(lengths):
        rng = np.random.default_rng(dropout_seed + b)
        m1[b, :n] = (rng.random((n, m1.shape[2])) >= p) * scale
        m2[b, :n] = (rng.random((n, m2.shape[2])) >= p) * scale
    return m1, m2


def _distinct_tokens(
    token_lists: list[tuple[str, ...]]
) -> tuple[list[str], np.ndarray, np.ndarray]:
    """The messages' distinct tokens in first-seen order, every position's
    index among them (message after message), and the token counts."""
    rows: dict[str, int] = {}
    ids = np.fromiter((rows.setdefault(tok, len(rows)) for tokens in token_lists for tok in tokens),
                      dtype=np.intp)
    lengths = np.fromiter(map(len, token_lists), dtype=np.intp, count=len(token_lists))
    return list(rows), ids, lengths


def token_table(
    model: TaggerModel, token_lists: list[tuple[str, ...]]
) -> tuple[EncodedLog, np.ndarray, np.ndarray]:
    """The ``encode_log`` of the messages' distinct tokens in first-seen order,
    every position's row in it (message after message), and the token counts."""
    tokens, ids, lengths = _distinct_tokens(token_lists)
    table = encode_log(tokens, model.word_vocab, model.char_vocab, model.hp.max_word_len)
    return table, ids, lengths


def _padded(flat: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Right-padded (B, T) rows of a per-position array: row b holds
    ``flat[starts[b] : starts[b] + lengths[b]]``, then zeros."""
    steps = np.arange(lengths.max())
    real = steps < lengths[:, None]
    out = np.zeros(real.shape, dtype=flat.dtype)
    out[real] = flat[(starts[:, None] + steps)[real]]
    return out


def _distinct_rows(ids: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct table rows that a right-padded (B, T) batch's real steps
    read, and every step's position among them; padded steps get 0."""
    real = np.arange(ids.shape[1]) < lengths[:, None]
    used, inverse = np.unique(ids[real], return_inverse=True)
    index = np.zeros(ids.shape, dtype=inverse.dtype)
    index[real] = inverse
    return used, index


def _input_rows(model: TaggerModel, word_ids: np.ndarray, char_rep: np.ndarray) -> np.ndarray:
    """Input rows of N tokens, their word embedding then their ``_char_reps``, (N, Din)."""
    return np.concatenate([model.params["word_emb"][word_ids], char_rep], axis=1)


def _project(view: _Prepared, rows: np.ndarray) -> np.ndarray:
    """Both LSTM directions' input projections ``rows @ Wx + b`` of (N, Din)
    rows, N >= 1, as a (2, N, 4H) table with the i, f and o columns halved,
    as ``_lstm_forward`` reads them: the ``_Prepared`` view's ``Wx`` and
    ``b`` are scaled so.

    The matmul runs over at least two rows; a lone row is doubled. From two
    rows on, OpenBLAS gives each row the same bits whatever the row count
    and wherever the row sits, and a one-row product (a gemv) does not; so a
    row's projection is a function of the row alone, and a token store's
    projections equal a per-batch table's bitwise.
    """
    x = rows if len(rows) > 1 else np.concatenate([rows, rows])
    proj = np.empty((2, len(x), view.b.shape[1]), dtype=view.b.dtype)
    for d in range(2):
        np.matmul(x, view.Wx[d], out=proj[d])
        proj[d] += view.b[d]
    return proj[:, : len(rows)]


def _crf_scores(model: TaggerModel) -> tuple[np.ndarray, np.ndarray]:
    """The CRF's ``trans`` and ``start`` as decoding and training read them:
    the IOB-forbidden entries at -inf, so that no path through one counts."""
    p = model.params
    return (np.where(model.frozen_trans, -np.inf, p["trans"]),
            np.where(model.frozen_start, -np.inf, p["start"]))


# Tokens whose input projections a model's token store keeps:
# (2, STORE_ROWS, 4H) values, 1 MB at 4H = 512 in float32.
STORE_ROWS = 256


class _Prepared:
    """What the forward pass reads of a model besides its parameters.

    The tensors derived from the parameters alone: the char table; both LSTM
    directions' weights and biases stacked, scaled by the one
    ``_recurrent_scale`` vector ``c``, ``Wx`` (2, Din, 4H) and ``b`` (2, 4H)
    by ``2c`` as ``_project`` reads them and ``Wh`` (2, H, 4H) by ``c`` as
    ``_lstm_forward`` reads it; and the CRF's ``trans`` and ``start`` with
    -inf at the IOB-forbidden entries. No other code scales a weight. And a
    token store: ``slots`` maps a token to its slot, least recently used
    first, and ``proj``, (2, STORE_ROWS, 4H), holds each slot's ``_project``
    row, allocated on first use. ``lock`` guards the store. The view holds
    weak references to the parameter arrays it was derived from, so that it
    keeps no replaced array alive (training replaces every array at each
    step), and no reference to the model, so that a weak map from models to
    views frees both together.
    """

    def __init__(self, model: TaggerModel):
        p = model.params
        self.params = [weakref.ref(arr) for arr in p.values()]
        self.char_table = _char_table(model) if model.hp.use_char_channel else None
        c = _recurrent_scale(model.hp.lstm_hidden, p["lstm_f_Wh"].dtype)
        self.Wx, self.Wh, self.b = (np.stack((p[f"lstm_f_{name}"], p[f"lstm_b_{name}"]))
                                    for name in ("Wx", "Wh", "b"))
        # scaled in place: freeing an unscaled stacked copy of Wx raised the
        # peak RSS of a 2,000-line parse by about 1 MB
        for arr, scale in ((self.Wx, 2 * c), (self.Wh, c), (self.b, 2 * c)):
            arr *= scale
        self.trans, self.start = _crf_scores(model)
        for arr in (self.char_table, self.Wx, self.Wh, self.b, self.trans, self.start):
            if arr is not None:
                arr.flags.writeable = False
        self.slots: OrderedDict[str, int] = OrderedDict()
        self.proj: np.ndarray | None = None
        self.lock = threading.Lock()

    def slots_of(self, model: TaggerModel, tokens: list[str]) -> np.ndarray:
        """The store slot of each of at most STORE_ROWS distinct ``tokens``.

        Every token found is marked most recently used first. The misses
        alone are encoded, convolved and projected, in one ``_project``,
        and take the free slots, then those least recently used; the call's
        own tokens were just marked recent, so none of them is evicted. The
        store changes only once the projections are computed, so a call that
        raises leaves it as it was.
        """
        slots = self.slots
        out = np.empty(len(tokens), dtype=np.intp)
        missed = []
        for i, tok in enumerate(tokens):
            slot = slots.get(tok)
            if slot is None:
                missed.append(i)
            else:
                slots.move_to_end(tok)
                out[i] = slot
        if missed:
            new = [tokens[i] for i in missed]
            enc = encode_log(new, model.word_vocab, model.char_vocab, model.hp.max_word_len)
            char_rep = _char_reps(enc.char_ids, model, self.char_table)[0]
            proj = _project(self, _input_rows(model, enc.word_ids, char_rep))
            if self.proj is None:
                self.proj = np.zeros((2, STORE_ROWS, proj.shape[2]), dtype=proj.dtype)
            for i, tok in zip(missed, new):
                slot = len(slots) if len(slots) < STORE_ROWS else slots.popitem(last=False)[1]
                out[i] = slots[tok] = slot
            self.proj[:, out[missed]] = proj
        return out


_PREPARED: weakref.WeakKeyDictionary[TaggerModel, _Prepared] = weakref.WeakKeyDictionary()
_PREPARED_LOCK = threading.Lock()


def _prepared(model: TaggerModel) -> _Prepared:
    """The model's prepared view, kept while every ``params`` entry is the
    array it was built from and built again once one is another array. A
    build makes those arrays read-only, so no in-place write can make a kept
    view stale; a parameter changes only by being replaced."""
    arrays = tuple(model.params.values())
    with _PREPARED_LOCK:
        view = _PREPARED.get(model)
        if view is None or [id(ref()) for ref in view.params] != list(map(id, arrays)):
            for arr in arrays:
                arr.flags.writeable = False
            view = _PREPARED[model] = _Prepared(model)
    return view


def _forward(
    proj: np.ndarray, model: TaggerModel, index: np.ndarray, lengths: np.ndarray,
    view: _Prepared, m2: np.ndarray | None = None,
) -> tuple[np.ndarray, dict]:
    """Emission scores of a right-padded batch of logs, (B, T, n_tags).

    ``proj`` is a projection table, (2, N, 4H): row n of ``proj[d]`` is
    some input row's ``x @ Wx[d] + b[d]`` (``_project``), and step t of log
    b reads row ``index[b, t]``; ``view`` is a ``_Prepared`` view of the model.
    Log b's steps [0, lengths[b]) are real; its padded steps may read any
    row and score garbage that no caller reads. The backward direction
    reads its rows through ``index[rev]``. One ``_lstm_forward`` call runs
    both LSTM directions in one time loop, gathering each step's row from
    the table. The masks alone tell training from decoding: a forward given
    ``m2``, the output mask from ``_dropout_masks``, is a training forward,
    which gathers every step at once, keeps what the backward pass reads and
    masks the LSTM outputs; a forward without it decodes, gathering windows
    of LSTM_WINDOW_ROWS rows (at least one step) and keeping no LSTM state
    but the outputs. The table is dropped after the LSTM, so a caller that
    passes a fresh table without keeping it frees it there, before the
    outputs of both directions are joined. Returns the emissions and the
    cache the backward pass reads: the real-step mask, the reversal index,
    each step's row, (T, 2, B), the scaled recurrent weights, the joined
    outputs and ``_lstm_forward``'s cache, None in decoding.
    """
    p = model.params
    b_len, t_max = index.shape
    steps = np.arange(t_max)
    real = steps < lengths[:, None]  # (B, T)
    # index[rev] reverses each log's real steps in place, so in the backward
    # direction too padding comes after the last real step; rev is its own
    # inverse
    rev = (np.arange(b_len)[:, None], np.where(real, lengths[:, None] - 1 - steps, steps))
    steps_index = np.stack((index, index[rev]), axis=1).T  # (T, 2, B)
    cache = {"real": real, "rev": rev, "m2": m2, "index": steps_index, "Wh": view.Wh}
    window = None if m2 is not None else max(1, LSTM_WINDOW_ROWS // b_len)
    h, cache["lstm"] = _lstm_forward(proj, view.Wh, steps_index, window)
    del proj
    h_cat = np.concatenate([h[0], h[1][rev]], axis=2)  # (B, T, 2H)
    del h  # in decoding, the last reference to the LSTM states
    h_d = cache["h_d"] = h_cat * m2 if m2 is not None else h_cat
    emissions = h_d.reshape(-1, h_d.shape[2]) @ p["proj_W"] + p["proj_b"]
    return emissions.reshape(b_len, t_max, -1), cache


def _train_forward(
    rows: np.ndarray, model: TaggerModel, index: np.ndarray, lengths: np.ndarray,
    view: _Prepared, dropout_seed: int,
) -> tuple[np.ndarray, dict]:
    """``_forward`` of a batch from its input rows (``_input_rows``), step t
    of log b reading row ``index[b, t]`` (``_distinct_rows``).

    Every position's row is masked by ``_dropout_masks`` at ``dropout_seed``
    and projected on its own, at every dropout rate. The cache also holds
    the rows the LSTM read and the input masks, for ``_backward_net``.
    """
    m1, m2 = _dropout_masks(model, index.shape, lengths, dropout_seed)
    rows = (rows[index] * m1).reshape(-1, model.hp.input_dim)
    index = np.arange(index.size).reshape(index.shape)
    emissions, cache = _forward(_project(view, rows), model, index, lengths, view, m2)
    cache.update(rows=rows, m1=m1)
    return emissions, cache


def _backward_net(
    d_emissions: np.ndarray, model: TaggerModel, cache: dict
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Network gradients given d loss / d emissions, (B, T, n_tags), and
    ``_train_forward``'s cache.

    Padded steps must carry zero gradient; they then contribute nothing.
    Returns d loss / d input row of every real step, (tokens, Din), log
    after log, and the gradients of proj_W, proj_b and both LSTM directions.
    """
    p = model.params
    h_dim = model.hp.lstm_hidden
    d_emissions = d_emissions.astype(p["proj_W"].dtype)
    h_d = cache["h_d"]
    flat_de = d_emissions.reshape(-1, d_emissions.shape[2])
    grads = {"proj_W": h_d.reshape(-1, 2 * h_dim).T @ flat_de, "proj_b": flat_de.sum(axis=0)}
    d_hd = (flat_de @ p["proj_W"].T).reshape(h_d.shape) * cache["m2"]
    rev, real = cache["rev"], cache["real"]  # rev maps real steps to real steps
    # both directions' output gradients time-major, each in its own step order
    d_h = np.empty((d_hd.shape[1], 2, d_hd.shape[0], h_dim), dtype=d_hd.dtype)
    d_h[:, 0] = d_hd[..., :h_dim].transpose(1, 0, 2)
    d_h[:, 1] = d_hd[..., h_dim:][rev].transpose(1, 0, 2)
    d_inputs, *d_w = _lstm_backward(d_h, cache["rows"], cache["index"],
                                    (p["lstm_f_Wx"], p["lstm_b_Wx"]), cache["Wh"], cache["lstm"],
                                    real)
    for d, d_wd in zip("fb", d_w):
        grads.update(zip((f"lstm_{d}_Wx", f"lstm_{d}_Wh", f"lstm_{d}_b"), d_wd))
    d_u = (d_inputs[0] + d_inputs[1][rev]) * cache["m1"]
    return d_u[real], grads


class RowGrad(NamedTuple):
    """The gradient of an embedding matrix that is zero outside a few rows:
    ``rows``, sorted and distinct, and the gradient ``values`` at them,
    (len(rows), width)."""

    rows: np.ndarray
    values: np.ndarray


def loss_and_gradients(
    model: TaggerModel, table: EncodedLog, ids: np.ndarray, lengths: np.ndarray,
    gold: np.ndarray, dropout_seed: int = 0,
) -> tuple[float, dict[str, np.ndarray | RowGrad]]:
    """Mean per-log CRF negative log-likelihood and exact gradients in ``model.params`` order.

    The batch is a token table, the (B, T) row ids of B right-padded logs
    and their lengths; ``gold`` holds the gold tag indices in the same
    (B, T) layout. The input layer runs over the batch's distinct rows (the
    char-CNN as in ``decode_ids``, each row once), then one forward pass, one
    CRF forward-backward and one backward pass; log b draws its dropout
    masks from ``dropout_seed + b``. The mean is taken once, on the CRF's
    gradients, which the backward pass is linear in; at B = 2^k the scale is
    exact, and the result is bitwise the sum scaled at the end. The call
    reads the model's ``_prepared`` view, as ``decode_ids`` does, which makes
    the tensors read-only: to change a parameter, replace its array, and
    the next call builds the view again. The CRF reads ``_crf_scores``
    through it, so the IOB-forbidden entries' gradients are exact zeros
    whenever the loss is finite, as is the gradient of char_emb's PAD row.

    A minibatch reads few of the word embeddings, so their gradient is a
    ``RowGrad`` of the word ids read, as ``torch.nn.Embedding(sparse=True)``
    gives it: each row sums its steps' gradients in step order, bitwise the
    rows of the dense gradient, which is zero elsewhere. PAD, which no token
    reads, is never among the rows. Every other gradient is a dense array.
    """
    p, hp = model.params, model.hp
    view = _prepared(model)
    used, index = _distinct_rows(ids, lengths)
    char_rep, char_cache = _char_reps(table.char_ids[used], model, view.char_table)
    word_ids = table.word_ids[used]
    emissions, cache = _train_forward(
        _input_rows(model, word_ids, char_rep), model, index, lengths, view, dropout_seed
    )
    loss, d_e, *d_crf = crf.nll_gradients(emissions, view.trans, view.start, p["end"], gold,
                                          lengths)
    scale = 1.0 / len(lengths)
    d_u, grads = _backward_net(d_e * scale, model, cache)
    read = index[cache["real"]]  # the row each real step read, log after log
    words, word_of_row = np.unique(word_ids, return_inverse=True)
    d_words = np.zeros((len(words), hp.word_dim), dtype=p["word_emb"].dtype)
    np.add.at(d_words, word_of_row[read], d_u[:, : hp.word_dim])
    grads["word_emb"] = RowGrad(words, d_words)
    d_rep = np.zeros((len(used), hp.char_filters), dtype=d_u.dtype)
    np.add.at(d_rep, read, d_u[:, hp.word_dim :])
    grads.update(_char_backward(d_rep, model, char_cache))
    for name, grad in zip(("trans", "start", "end"), d_crf):
        grads[name] = (grad * scale).astype(p[name].dtype)
    return loss * scale, {name: grads[name] for name in p}


def decode_ids(model: TaggerModel, token_lists: list[tuple[str, ...]]) -> list[list[int]]:
    """Viterbi-decode tokenized messages; one list of tag indices into
    ``model.tags`` per message, in input order.

    Messages are sorted by token count and run in right-padded batches of
    at most BATCH_TOKENS padded tokens (a longer message goes alone); an
    empty message gets ``[]``. A batch's LSTM keeps its outputs but no
    per-step gates or cell states (``_forward``), so a message that goes
    alone holds about 2.7 KB per token at default sizes, besides the
    projection table it reads. When the call's distinct tokens fit in the
    token store (at most STORE_ROWS) every batch reads its LSTM input
    projections from the store by slot, and only the tokens the store
    lacks are encoded, convolved and projected. A larger call builds one
    ``token_table``, computes the char-CNN output of its rows once, and
    projects each batch's distinct rows. Either way a token's projection
    is a function of the token alone (``_project``), so the batch a
    message lands in changes its scores only by float rounding in the
    shared recurrent and emission matmuls, not its tags. Every path is
    IOB-well-formed: Viterbi reads ``_crf_scores``, so no path through a
    forbidden entry has a finite score, and the real-step emissions are
    checked finite. A call holds the model's ``_prepared`` view's lock
    throughout, so calls on one model run one at a time. Raises
    NonFiniteScores if a batch's real-step emissions are not all finite
    (weights that overflow float32); the call runs with numpy's overflow and
    invalid-value warnings off, so that error is the only report.
    """
    view = _prepared(model)
    tokens, ids, lengths = _distinct_tokens(token_lists)
    stored = len(tokens) <= STORE_ROWS
    starts = np.cumsum(lengths) - lengths
    order = np.argsort(lengths, kind="stable")
    out: list[list[int]] = [[] for _ in token_lists]
    lo = int(np.count_nonzero(lengths == 0))  # empty messages sort first and keep []
    with view.lock, np.errstate(over="ignore", invalid="ignore"):
        if stored:
            slot_ids = view.slots_of(model, tokens)[ids]
        else:
            table = encode_log(tokens, model.word_vocab, model.char_vocab, model.hp.max_word_len)
            char_rep = _char_reps(table.char_ids, model, view.char_table)[0]
        while lo < len(order):
            hi = lo + 1
            while hi < len(order) and (hi + 1 - lo) * lengths[order[hi]] <= BATCH_TOKENS:
                hi += 1
            batch = order[lo:hi]
            n = lengths[batch]
            if stored:
                index = _padded(slot_ids, starts[batch], n)
            else:
                used, index = _distinct_rows(_padded(ids, starts[batch], n), n)
            # a per-batch table is not kept here, so _forward frees it after the LSTM
            emissions, cache = _forward(
                view.proj if stored
                else _project(view, _input_rows(model, table.word_ids[used], char_rep[used])),
                model, index, n, view)
            real = cache["real"]
            del cache  # the joined LSTM outputs, which Viterbi does not read
            if not np.isfinite(emissions[real]).all():
                raise NonFiniteScores("the model's emission scores are not finite")
            paths = crf.viterbi_decode(emissions, view.trans, view.start, model.params["end"], n)
            for i, path in zip(batch, paths):
                out[i] = path
            lo = hi
    return out


def decode(model: TaggerModel, token_lists: list[tuple[str, ...]]) -> list[list[Tag]]:
    """``decode_ids`` with each index read as its tag in ``model.tags``."""
    tags = model.tags
    return [[tags[k] for k in path] for path in decode_ids(model, token_lists)]


def tokenize_all(raws: list[str]) -> list[tuple[str, ...]]:
    """Each raw message's ``tokenize`` tokens; an empty message gives ()."""
    out: list[tuple[str, ...]] = []
    for raw in raws:
        try:
            out.append(tuple(tokenize(raw)))
        except EmptyLog:
            out.append(())
    return out


def tag_log(model: TaggerModel, raw: str) -> AnnotatedLog:
    """Tokenize and tag one raw log message."""
    tokens = tuple(tokenize(raw))
    return AnnotatedLog(tokens, tuple(decode(model, [tokens])[0]))


def tag_logs(model: TaggerModel, raws: list[str]) -> list[AnnotatedLog | None]:
    """Tag many raw log messages with one ``decode``; an empty message goes to
    ``decode`` as no tokens, which tags it ``[]``, and gives None."""
    token_lists = tokenize_all(raws)
    return [AnnotatedLog(tokens, tuple(tags)) if tags else None
            for tokens, tags in zip(token_lists, decode(model, token_lists))]
