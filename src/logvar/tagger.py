"""Char-CNN + word-embedding + Bi-LSTM + CRF sequence tagger.

The full forward pass, its exact analytic gradients, and Viterbi decoding,
implemented directly on numpy arrays. A model owns its vocabularies,
hyperparameters, and fixed tag ordering; inference is deterministic and a
model is immutable during tagging (training mutates it under one writer).

IOB structure is enforced inside the CRF: transitions that would produce an
ill-formed tag sequence are pinned at a large negative score and never
updated, and ``decode`` scores them -inf, so decoded paths are well-formed
by construction, whatever the emission scores.

One forward pass, ``_forward``, serves inference and training, and one
inference entry point, ``decode``, serves parsing, tagging and validation:
it sorts tokenized messages by length and runs them in padded batches.
``_forward`` runs a batch of logs as a right-padded (B, T) tensor: every
log's padding comes after its last real step, in both LSTM directions (the
backward direction reads each log through a per-log reversal index), so
padded steps never reach a real step and the recurrences need no mask;
Viterbi carries each score unchanged through padded steps. Training runs a
minibatch the same way: one forward pass, one batched CRF forward-backward
whose gradient is zero on padded steps, and one backward pass, in which
those zero gradients keep padded steps out of every parameter gradient.

A token's input row (word embedding and char-CNN output) is a function of
the token alone, and so, without dropout, is each LSTM direction's input
projection ``x @ Wx + b``; logs repeat their tokens heavily. So a batch is
a token table, an ``EncodedLog`` of distinct tokens that ``token_table``
builds once per ``decode`` call or ``train`` run, and a (B, T) array of row
ids into it. ``decode`` computes the char-CNN output of the whole table
once per call; training computes it per minibatch, over the minibatch's
distinct rows, through the same ``_char_reps`` and its backward. The token
table is the only dedup: each of its rows is convolved once, and two
tokens that share their first max_word_len characters are convolved once
each. Each LSTM direction projects one row per distinct id of a batch
(plus a zero row that padded steps read). Under dropout every position is
masked differently, so training projects one row per position.

The char-CNN's convolution is linear in the character embedding, so it is
read from a per-character table, table[k] = char_emb @ char_W[k] of shape
(kernel, n_chars, filters) with the PAD row zero, built once per
``_char_reps`` call: a word's pre-activation at position j is char_b plus
the sum over k of table[k] at the character in window slot k. That is a
gather and a sum instead of a matmul over the embedding width per
character. The centre slot's PAD row is -inf, so a PAD position's
pre-activation is -inf and the max-pool skips it unmasked. The rows run
sorted by length in groups of CHAR_GROUP_ROWS, each trimmed to its longest
word, so that little of the gather and sum is spent on PAD positions.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from . import crf
from .corpus import AnnotatedLog, tokenize
from .embed import PAD, CharVocab, EncodedLog, WordVocab, encode_log
from .errors import EmptyLog, NonFiniteScores
from .taxonomy import MULTICLASS, Tag, is_valid_transition, tag_vocabulary

FROZEN_SCORE = -10000.0


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
    replaces the word_emb draw, which is not made. Then PAD rows are
    zeroed, forget-gate biases set to 1, and the IOB-violating CRF scores
    pinned at FROZEN_SCORE, never to be trained.
    """
    params: dict[str, np.ndarray] = {}
    model = TaggerModel(hp, mode, word_vocab, char_vocab, params)
    shapes = param_shapes(hp, len(word_vocab), len(char_vocab), model.n_tags)
    if pretrained is not None and pretrained.shape != shapes["word_emb"]:
        raise ValueError(f"pretrained matrix shape {pretrained.shape} != {shapes['word_emb']}")
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

# Padded tokens (logs x longest log) per batch in decode. A batch keeps
# about 8 KB per padded token alive (the LSTM gates and states of both
# directions), so this bounds the extra peak memory of tagging at about
# 2 MB; larger batches gained little throughput on the synthetic corpus.
BATCH_TOKENS = 288

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


def _char_reps(char_ids: np.ndarray, model: TaggerModel) -> tuple[np.ndarray, dict]:
    """Char-CNN representation of each of N right-padded char rows, (N, F).

    Every row is convolved once, with one char table for the call. The rows
    run sorted by length in groups of CHAR_GROUP_ROWS, each trimmed to its
    longest word, so that few of the positions a group gathers and sums are
    PAD. Returns the reps and the cache ``_char_backward`` reads.
    """
    table = _char_table(model)
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
    d_rep: np.ndarray, model: TaggerModel, cache: dict, grads: dict[str, np.ndarray]
) -> None:
    """Char-CNN gradients given d loss / d rep of each row of one ``_char_reps``.

    Each group's pre-activations are computed again here, not kept from
    the forward pass, so that a decode call holds one group's at a time. A
    pooled value was read at one position, so its gradient goes to the kern
    table entries summed there: scatter it into ``d_table[k]``, then
    ``dW[k] = emb.T @ d_table[k]`` and ``d_emb = sum_k d_table[k] @ W[k].T``.
    The PAD entries are constant, so ``d_table[k]``'s PAD row is zero and
    the stored PAD embedding adds nothing to ``dW``.
    """
    p = model.params
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
    grads["char_b"] += d_rep.sum(axis=0)
    cols = np.arange(n_filters)
    for k in range(kern):
        d_table = np.bincount(
            (read[k] * n_filters + cols).ravel(), weights=d_rep.ravel(),
            minlength=emb.shape[0] * n_filters,
        ).reshape(emb.shape[0], n_filters).astype(emb.dtype)
        d_table[PAD] = 0.0
        grads["char_W"][k] += emb.T @ d_table
        grads["char_emb"] += d_table @ p["char_W"][k].T


def _gate_slices(h_dim: int) -> tuple[slice, slice, slice, slice]:
    """Input, forget, cell and output gate columns of a (.., 4H) LSTM array."""
    return tuple(slice(k * h_dim, (k + 1) * h_dim) for k in range(4))


def _lstm_forward(
    rows: np.ndarray, Wx: np.ndarray, Wh: np.ndarray, b: np.ndarray, index: np.ndarray
) -> tuple[np.ndarray, dict]:
    """One LSTM direction over a right-padded batch of B sequences of T steps.

    ``rows`` holds input rows, (N, Din), and ``index``, (B, T), picks the
    row each step reads; returns the outputs, (B, T, H). The input
    projection ``rows @ Wx + b`` is one matmul over the rows, so a row that
    many steps share is projected once; each step then adds one
    (B, H) @ (H, 4H) product. Padding follows every sequence's last real
    step, so it never reaches a real step's output. Caches are time-major.
    """
    b_len, t_len = index.shape
    h_dim = Wh.shape[0]
    dtype = Wx.dtype
    i_, f_, g_, o_ = _gate_slices(h_dim)
    # x @ Wx + b of every step, time-major; each step adds its h @ Wh and
    # overwrites the sum with the i, f, g, o gate activations
    gates = (rows @ Wx + b)[index.T]  # (T, B, 4H)
    # sigmoid(z) = tanh(z / 2) / 2 + 1/2, so one tanh serves all four gates:
    # scale by 1/2 before and after it, except on the tanh-activated g gate
    scale = np.full(4 * h_dim, 0.5, dtype=dtype)
    scale[g_] = 1.0
    shift = np.full(4 * h_dim, 0.5, dtype=dtype)
    shift[g_] = 0.0
    hs = np.zeros((t_len + 1, b_len, h_dim), dtype=dtype)
    cs = np.zeros((t_len + 1, b_len, h_dim), dtype=dtype)
    for t in range(t_len):
        act = gates[t]
        act += hs[t] @ Wh
        act *= scale
        np.tanh(act, out=act)
        act *= scale
        act += shift
        cs[t + 1] = act[:, f_] * cs[t] + act[:, i_] * act[:, g_]
        np.multiply(act[:, o_], np.tanh(cs[t + 1]), out=hs[t + 1])
    cache = {"rows": rows, "index": index, "hs": hs, "cs": cs, "gates": gates}
    return hs[1:].transpose(1, 0, 2), cache


def _lstm_backward(
    d_h: np.ndarray, Wx: np.ndarray, Wh: np.ndarray, cache: dict
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of one LSTM direction given d loss / d output, (B, T, H).

    The input gradient is per step, (B, T, Din), not per row.
    """
    hs, cs, gates = cache["hs"], cache["cs"], cache["gates"]
    tanh_c = np.tanh(cs[1:])
    t_len, b_len, h_dim = tanh_c.shape
    i_, f_, g_, o_ = _gate_slices(h_dim)
    dz = np.empty_like(gates)  # (T, B, 4H)
    dh_next = np.zeros((b_len, h_dim), dtype=Wx.dtype)
    dc_next = np.zeros((b_len, h_dim), dtype=Wx.dtype)
    for t in range(t_len - 1, -1, -1):
        act = gates[t]
        i_g, f_g, g_g, o_g = act[:, i_], act[:, f_], act[:, g_], act[:, o_]
        dh = d_h[:, t] + dh_next
        dc = dc_next + dh * o_g * (1.0 - tanh_c[t] ** 2)
        dz[t, :, i_] = dc * g_g * i_g * (1.0 - i_g)
        dz[t, :, f_] = dc * cs[t] * f_g * (1.0 - f_g)
        dz[t, :, g_] = dc * i_g * (1.0 - g_g**2)
        dz[t, :, o_] = dh * tanh_c[t] * o_g * (1.0 - o_g)
        dc_next = dc * f_g
        dh_next = dz[t] @ Wh.T
    flat_dz = dz.reshape(-1, 4 * h_dim)
    inputs = cache["rows"][cache["index"].T]  # (T, B, Din), each step's input
    d_wx = inputs.reshape(-1, inputs.shape[2]).T @ flat_dz
    d_wh = hs[:-1].reshape(-1, h_dim).T @ flat_dz
    d_b = flat_dz.sum(axis=0)
    d_inputs = (flat_dz @ Wx.T).reshape(t_len, b_len, -1).transpose(1, 0, 2)
    return d_inputs, d_wx, d_wh, d_b


def _dropout_masks(
    model: TaggerModel, real: np.ndarray, dropout_seed: int | None
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Inverted-dropout masks of the LSTM inputs and outputs, (B, T, width),
    or None for both without dropout (``dropout_seed`` None or rate 0).

    Log b draws its masks over its real steps from ``dropout_seed + b``:
    the masks it would get alone at that seed. Padded steps get zero.
    """
    p = model.hp.dropout
    if dropout_seed is None or p == 0.0:
        return None, None
    scale = 1.0 / (1.0 - p)
    dtype = model.params["proj_W"].dtype
    m1 = np.zeros((*real.shape, model.hp.input_dim), dtype=dtype)
    m2 = np.zeros((*real.shape, 2 * model.hp.lstm_hidden), dtype=dtype)
    for b, n in enumerate(real.sum(axis=1)):
        rng = np.random.default_rng(dropout_seed + b)
        m1[b, :n] = (rng.random((n, m1.shape[2])) >= p) * scale
        m2[b, :n] = (rng.random((n, m2.shape[2])) >= p) * scale
    return m1, m2


def token_table(
    model: TaggerModel, token_lists: list[tuple[str, ...]]
) -> tuple[EncodedLog, np.ndarray, np.ndarray]:
    """The ``encode_log`` of the messages' distinct tokens in first-seen order,
    every position's row in it (message after message), and the token counts."""
    rows: dict[str, int] = {}
    ids = np.fromiter((rows.setdefault(tok, len(rows)) for tokens in token_lists for tok in tokens),
                      dtype=np.intp)
    lengths = np.fromiter(map(len, token_lists), dtype=np.intp, count=len(token_lists))
    table = encode_log(list(rows), model.word_vocab, model.char_vocab, model.hp.max_word_len)
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
    read, and every step's position among them; padded steps get
    ``len(used)``, the zero row that ``_input_rows`` appends."""
    real = np.arange(ids.shape[1]) < lengths[:, None]
    used, inverse = np.unique(ids[real], return_inverse=True)
    index = np.full(ids.shape, len(used))
    index[real] = inverse
    return used, index


def _input_rows(
    model: TaggerModel, word_ids: np.ndarray, char_rep: np.ndarray | None
) -> np.ndarray:
    """Input rows of N tokens, their word embedding then their char-CNN output
    (zero without the char channel), plus a zero row last, (N + 1, Din)."""
    p, hp = model.params, model.hp
    rows = np.zeros((len(word_ids) + 1, hp.input_dim), dtype=p["proj_W"].dtype)
    rows[:-1, : hp.word_dim] = p["word_emb"][word_ids]
    if char_rep is not None:
        rows[:-1, hp.word_dim :] = char_rep
    return rows


def _forward(
    rows: np.ndarray, model: TaggerModel, index: np.ndarray, lengths: np.ndarray,
    dropout_seed: int | None = None,
) -> tuple[np.ndarray, dict]:
    """Emission scores of a right-padded batch of logs, (B, T, n_tags).

    ``rows`` are the batch's input rows from ``_input_rows``, and step t of
    log b reads row ``index[b, t]`` (``_distinct_rows``). Log b's steps
    [0, lengths[b]) are real; its padded steps score garbage that no caller
    reads. ``dropout_seed`` None means no dropout: both LSTM directions then
    project each row once; under dropout (masks from ``_dropout_masks``)
    every position has its own masked row. Returns the emissions
    and the cache the backward pass reads.
    """
    p = model.params
    hp = model.hp
    b_len, t_max = index.shape
    steps = np.arange(t_max)
    real = steps < lengths[:, None]  # (B, T)
    m1, m2 = _dropout_masks(model, real, dropout_seed)
    if m1 is not None:
        rows = (rows[index] * m1).reshape(-1, hp.input_dim)
        index = np.arange(b_len * t_max).reshape(b_len, t_max)
    # index[rev] reverses each log's real steps in place, so in the backward
    # direction too padding comes after the last real step; rev is its own
    # inverse
    rev = (np.arange(b_len)[:, None], np.where(real, lengths[:, None] - 1 - steps, steps))
    h_f, cache_f = _lstm_forward(rows, p["lstm_f_Wx"], p["lstm_f_Wh"], p["lstm_f_b"], index)
    h_b_rev, cache_b = _lstm_forward(
        rows, p["lstm_b_Wx"], p["lstm_b_Wh"], p["lstm_b_b"], index[rev]
    )
    h_cat = np.concatenate([h_f, h_b_rev[rev]], axis=2)  # (B, T, 2H)
    h_d = h_cat * m2 if m2 is not None else h_cat
    emissions = h_d.reshape(-1, h_d.shape[2]) @ p["proj_W"] + p["proj_b"]
    cache = {
        "lengths": lengths, "real": real, "rev": rev, "m1": m1, "m2": m2,
        "lstm_f": cache_f, "lstm_b": cache_b, "h_d": h_d,
    }
    return emissions.reshape(b_len, t_max, -1), cache


def _backward_net(
    d_emissions: np.ndarray, model: TaggerModel, cache: dict, grads: dict[str, np.ndarray]
) -> np.ndarray:
    """Accumulate network gradients given d loss / d emissions, (B, T, n_tags).

    Padded steps must carry zero gradient; they then contribute nothing.
    Returns d loss / d input row of every real step, (tokens, Din), log
    after log.
    """
    p = model.params
    h_dim = model.hp.lstm_hidden
    d_emissions = d_emissions.astype(p["proj_W"].dtype)
    h_d = cache["h_d"]
    flat_de = d_emissions.reshape(-1, d_emissions.shape[2])
    grads["proj_W"] += h_d.reshape(-1, 2 * h_dim).T @ flat_de
    grads["proj_b"] += flat_de.sum(axis=0)
    d_hd = (flat_de @ p["proj_W"].T).reshape(h_d.shape)
    if cache["m2"] is not None:
        d_hd = d_hd * cache["m2"]
    rev = cache["rev"]
    d_inputs_f, d_wx, d_wh, d_b = _lstm_backward(
        d_hd[..., :h_dim], p["lstm_f_Wx"], p["lstm_f_Wh"], cache["lstm_f"]
    )
    grads["lstm_f_Wx"] += d_wx
    grads["lstm_f_Wh"] += d_wh
    grads["lstm_f_b"] += d_b
    d_inputs_b, d_wx, d_wh, d_b = _lstm_backward(
        d_hd[..., h_dim:][rev], p["lstm_b_Wx"], p["lstm_b_Wh"], cache["lstm_b"]
    )
    grads["lstm_b_Wx"] += d_wx
    grads["lstm_b_Wh"] += d_wh
    grads["lstm_b_b"] += d_b
    d_u = d_inputs_f + d_inputs_b[rev]
    if cache["m1"] is not None:
        d_u = d_u * cache["m1"]
    return d_u[cache["real"]]


def loss_and_gradients(
    model: TaggerModel, table: EncodedLog, ids: np.ndarray, lengths: np.ndarray,
    gold: np.ndarray, dropout_seed: int = 0,
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean per-log CRF negative log-likelihood and exact gradients.

    The batch is a token table, the (B, T) row ids of B right-padded logs
    and their lengths; ``gold`` holds the gold tag indices in the same
    (B, T) layout. The input layer runs over the batch's distinct rows (the
    char-CNN as in ``decode``, each row once), then one forward pass, one
    CRF forward-backward and one backward pass; log b draws its dropout
    masks from ``dropout_seed + b``. Frozen CRF entries (IOB constraints)
    receive zero gradient.
    """
    p, hp = model.params, model.hp
    grads = {name: np.zeros_like(arr) for name, arr in p.items()}
    used, index = _distinct_rows(ids, lengths)
    char_rep = char_cache = None
    if hp.use_char_channel:
        char_rep, char_cache = _char_reps(table.char_ids[used], model)
    word_ids = table.word_ids[used]
    emissions, cache = _forward(
        _input_rows(model, word_ids, char_rep), model, index, lengths, dropout_seed
    )
    loss, d_e, d_trans, d_s, d_e_end = crf.nll_gradients(
        emissions, p["trans"], p["start"], p["end"], gold, lengths
    )
    grads["trans"] += d_trans.astype(p["trans"].dtype)
    grads["start"] += d_s.astype(p["start"].dtype)
    grads["end"] += d_e_end.astype(p["end"].dtype)
    d_u = _backward_net(d_e, model, cache, grads)
    read = index[cache["real"]]  # the row each real step read, log after log
    np.add.at(grads["word_emb"], word_ids[read], d_u[:, : hp.word_dim])
    if char_cache is not None:
        d_rep = np.zeros((len(used), hp.char_filters), dtype=d_u.dtype)
        np.add.at(d_rep, read, d_u[:, hp.word_dim :])
        _char_backward(d_rep, model, char_cache, grads)
    scale = 1.0 / len(lengths)
    for name in grads:
        grads[name] *= scale
    grads["trans"][model.frozen_trans] = 0.0
    grads["start"][model.frozen_start] = 0.0
    grads["word_emb"][PAD] = 0.0
    grads["char_emb"][PAD] = 0.0
    return loss * scale, grads


def decode(model: TaggerModel, token_lists: list[tuple[str, ...]]) -> list[list[Tag]]:
    """Viterbi-decode tokenized messages; one tag list per message, in input order.

    One ``token_table`` covers the call, and ``_char_reps`` computes the
    char-CNN output of its rows once. Messages are sorted by token count and
    run in right-padded batches of at most BATCH_TOKENS padded tokens (a
    longer message goes alone), each batch as the input rows of its
    distinct tokens and its (B, T) index into them; an empty message gets
    ``[]``. Padding never reaches a message's real steps, so the batch a
    message lands in changes its scores only by float rounding in the
    shared matmuls, not its tags. Raises NonFiniteScores if a batch's
    real-step emissions are not all finite (weights that overflow float32);
    the call runs with numpy's overflow and invalid-value warnings off, so
    that error is the only report.
    """
    p = model.params
    trans = np.where(model.frozen_trans, -np.inf, p["trans"])
    start = np.where(model.frozen_start, -np.inf, p["start"])
    table, ids, lengths = token_table(model, token_lists)
    starts = np.cumsum(lengths) - lengths
    order = np.argsort(lengths, kind="stable")
    out: list[list[Tag]] = [[] for _ in token_lists]
    lo = int(np.count_nonzero(lengths == 0))  # empty messages sort first and keep []
    with np.errstate(over="ignore", invalid="ignore"):
        char_rep = None
        if model.hp.use_char_channel:
            char_rep = _char_reps(table.char_ids, model)[0]
        while lo < len(order):
            hi = lo + 1
            while hi < len(order) and (hi + 1 - lo) * lengths[order[hi]] <= BATCH_TOKENS:
                hi += 1
            batch = order[lo:hi]
            n = lengths[batch]
            used, index = _distinct_rows(_padded(ids, starts[batch], n), n)
            rows = _input_rows(model, table.word_ids[used],
                               None if char_rep is None else char_rep[used])
            emissions = _forward(rows, model, index, n)[0]
            if not np.isfinite(emissions[np.arange(emissions.shape[1]) < n[:, None]]).all():
                raise NonFiniteScores("the model's emission scores are not finite")
            paths = crf.viterbi_decode(emissions, trans, start, p["end"], n)
            for i, path in zip(batch, paths):
                out[i] = [model.tags[k] for k in path]
            lo = hi
    return out


def tag_log(model: TaggerModel, raw: str) -> AnnotatedLog:
    """Tokenize and tag one raw log message."""
    tokens = tuple(tokenize(raw))
    return AnnotatedLog(tokens, tuple(decode(model, [tokens])[0]))


def tag_logs(model: TaggerModel, raws: list[str]) -> list[AnnotatedLog | None]:
    """Tag many raw log messages with one ``decode``; an empty message goes to
    ``decode`` as no tokens, which tags it ``[]``, and gives None."""
    token_lists: list[tuple[str, ...]] = []
    for raw in raws:
        try:
            token_lists.append(tuple(tokenize(raw)))
        except EmptyLog:
            token_lists.append(())
    return [AnnotatedLog(tokens, tuple(tags)) if tags else None
            for tokens, tags in zip(token_lists, decode(model, token_lists))]
