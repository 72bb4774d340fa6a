import copy
import dataclasses
import itertools
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import logvar.tagger as tagger
from logvar import crf
from logvar.corpus import AnnotatedLog
from logvar.embed import PAD, build_vocabs, encode_log
from logvar.errors import DimensionMismatch
from logvar.synth import generate_synthetic
from logvar.tagger import (
    CHAR_GROUP_ROWS,
    FROZEN_SCORE,
    Hyperparams,
    RowGrad,
    TaggerModel,
    _char_forward,
    _char_pre,
    _char_reps,
    _char_table,
    _distinct_rows,
    _forward,
    _input_rows,
    _prepared,
    _project,
    _train_forward,
    _padded,
    decode,
    init_model,
    loss_and_gradients,
    param_shapes,
    tag_log,
    token_table,
)
from logvar.taxonomy import BINARY, Tag, check_iob, is_valid_transition
from logvar.train import load_model

PINNED_MODEL = Path(__file__).resolve().parents[1] / "benchmarks" / "model.bin"

# float32 tolerance for kernels whose summation order differs from the
# reference: a few ulps of the O(1) activations
F32_RTOL, F32_ATOL = 1e-5, 1e-6


def direct_char_conv(char_ids, model):
    """Reference char-CNN: the convolution as shifted matmuls over embeddings."""
    p, hp = model.params, model.hp
    kern = hp.char_kernel
    half = kern // 2
    t, length = char_ids.shape
    mask = char_ids != PAD
    x = p["char_emb"][char_ids] * mask[..., None]
    xp = np.pad(x, ((0, 0), (half, kern - 1 - half), (0, 0)))
    pre = np.tile(p["char_b"], (t, length, 1))
    for k in range(kern):
        pre += xp[:, k : k + length, :] @ p["char_W"][k]
    rep = np.where(mask[..., None], pre, -np.inf).max(axis=1)
    empty = ~mask.any(axis=1)
    rep[empty] = p["char_b"]
    return rep


def reference_char_forward(char_ids, model):
    """The char-CNN kernel before the PAD mask moved into its table.

    It pads the ids with ``np.pad`` and overwrites every PAD position with
    -inf in a second, masked pass; kept as the oracle that ``_char_forward``
    must match bitwise.
    """
    p = model.params
    kern = model.hp.char_kernel
    half = kern // 2
    length = char_ids.shape[1]
    emb = p["char_emb"].copy()
    emb[PAD] = 0.0
    table = emb @ p["char_W"]
    ids_p = np.pad(char_ids, ((0, 0), (half, kern - 1 - half)), constant_values=PAD)
    pre = p["char_b"] + table[0][ids_p[:, :length]]
    for k in range(1, kern):
        pre += table[k][ids_p[:, k : k + length]]
    mask = char_ids != PAD
    pre[~mask] = -np.inf
    rep = pre.max(axis=1)
    empty = ~mask.any(axis=1)
    if empty.any():
        rep[empty] = p["char_b"]
    return rep, {"ids_p": ids_p, "table": table, "pre": pre}


def reference_emissions(enc, model):
    """Reference forward pass of one log; each position builds and projects its own input row."""
    p, hp = model.params, model.hp
    rows = [p["word_emb"][enc.word_ids]]
    if hp.use_char_channel:
        rows.append(direct_char_conv(enc.char_ids, model))
    else:
        rows.append(np.zeros((len(enc.word_ids), hp.char_filters), dtype=p["word_emb"].dtype))
    u = np.concatenate(rows, axis=1)  # (T, Din)

    def sig(x):
        return 1.0 / (1.0 + np.exp(-x))

    def direction(d, steps):
        wx, wh, b = p[f"lstm_{d}_Wx"], p[f"lstm_{d}_Wh"], p[f"lstm_{d}_b"]
        h_dim = wh.shape[0]
        h = np.zeros(h_dim, dtype=wx.dtype)
        c = np.zeros(h_dim, dtype=wx.dtype)
        out = np.zeros((len(steps), h_dim), dtype=wx.dtype)
        for t in steps:
            z = u[t] @ wx + b + h @ wh
            i, f, g, o = (z[k * h_dim : (k + 1) * h_dim] for k in range(4))
            c = sig(f) * c + sig(i) * np.tanh(g)
            h = sig(o) * np.tanh(c)
            out[t] = h
        return out

    steps = range(len(enc.word_ids))
    h = np.concatenate([direction("f", steps), direction("b", steps[::-1])], axis=1)
    return h @ p["proj_W"] + p["proj_b"]


def reference_lstm_forward(rows, Wx, Wh, b, index):
    """One LSTM direction in its own time loop, as ``_lstm_forward`` ran
    before both directions shared one; the oracle for the fused kernel."""
    b_len, t_len = index.shape
    h_dim = Wh.shape[0]
    dtype = Wx.dtype
    i_, f_, g_, o_ = (slice(k * h_dim, (k + 1) * h_dim) for k in range(4))
    gates = (rows @ Wx + b)[index.T]  # (T, B, 4H)
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
    cache = {"hs": hs, "cs": cs, "gates": gates}
    return hs[1:].transpose(1, 0, 2), cache


def lstm_case(b_len, t_len, dtype, seed):
    """Random input rows and weights of both LSTM directions, and a ragged
    batch's two step indexes as ``_forward`` builds them: log 0 is full, the
    others end early, their padded steps read row 0, and the backward
    direction reads each log's real steps reversed. Returns the arguments of
    ``lstm_forward`` and the real-step mask, (B, T)."""
    rng = np.random.default_rng(seed)
    d_in, h_dim, n_rows = 10, 6, 20
    Wx, Wh, b = ([(rng.standard_normal(shape) * 0.5).astype(dtype) for _ in range(2)]
                 for shape in ((d_in, 4 * h_dim), (h_dim, 4 * h_dim), (4 * h_dim,)))
    rows = rng.standard_normal((n_rows, d_in)).astype(dtype)
    lengths = rng.integers(1, t_len + 1, size=b_len)
    lengths[0] = t_len
    steps = np.arange(t_len)
    real = steps < lengths[:, None]
    index = np.where(real, rng.integers(0, n_rows, size=(b_len, t_len)), 0)
    rev = (np.arange(b_len)[:, None], np.where(real, lengths[:, None] - 1 - steps, steps))
    return (rows, Wx, Wh, b, (index, index[rev])), real


def halve_sigmoid_gates(a):
    """Halve the i, f and o columns of a (.., 4H) array in place, as
    ``_project`` leaves them; return it."""
    h_dim = a.shape[-1] // 4
    a[..., : 2 * h_dim] *= 0.5
    a[..., 3 * h_dim :] *= 0.5
    return a


def lstm_gates(rows, Wx, b, index):
    """Each direction's steps' ``rows @ Wx[d] + b[d]``, gathered time-major
    as ``_forward`` gathers them, (T, 2, B, 4H), unscaled."""
    proj = np.stack([rows @ Wx[d] + b[d] for d in range(2)])
    return proj[np.arange(2)[:, None], np.stack(index, axis=1).T]


def scaled_Wh(Wh):
    """Both directions' recurrent weights stacked and scaled as the
    ``_Prepared`` view keeps them: i, f and o columns by 1/4, g by 1/2."""
    stacked = np.stack(Wh)
    return stacked * tagger._recurrent_scale(stacked.shape[1], stacked.dtype)


def lstm_forward(rows, Wx, Wh, b, index, window=None):
    """``_lstm_forward`` on the table of both directions' ``rows @ Wx[d] +
    b[d]`` with the i, f and o columns halved, as ``_project`` gives it,
    ``scaled_Wh`` and the two step indexes time-major, (T, 2, B)."""
    proj = halve_sigmoid_gates(np.stack([rows @ Wx[d] + b[d] for d in range(2)]))
    return tagger._lstm_forward(proj, scaled_Wh(Wh), np.stack(index, axis=1).T, window)


def gates_by_step(gates):
    """``_lstm_forward``'s gate-major cached gates, (T, 4, 2, B, H), copied
    into one (T, 2, B, 4H) array, each step's four gates side by side."""
    t_len, _, _, b_len, h_dim = gates.shape
    return gates.transpose(0, 2, 3, 1, 4).reshape(t_len, 2, b_len, 4 * h_dim)


def activations(cache):
    """Per direction, ``_lstm_forward``'s cache with the gates ``gates_by_step``
    and the doubled i, f and o gates halved back to the activations, as the
    per-direction kernels read it."""
    gates = halve_sigmoid_gates(gates_by_step(cache["gates"]))
    return [{"hs": cache["hs"][:, d], "cs": cache["cs"][:, d], "gates": gates[:, d]}
            for d in range(2)]


def broadcast_lstm_forward(gates, Wh):
    """``_lstm_forward`` as it ran before its step went broadcast-free, kept
    as the oracle of the bitwise rewrite: both directions in one loop, the
    true ``h`` carried against the unscaled stacked ``Wh``, (2, H, 4H), and
    the sigmoid gates made by a (4H,) scale before and after one tanh and a
    (4H,) shift. ``gates`` is unscaled and overwritten; returns the outputs
    and one cache per direction."""
    t_len, _, b_len, _ = gates.shape
    h_dim = Wh.shape[1]
    i_, f_, g_, o_ = tagger._gate_slices(h_dim)
    scale = np.full(4 * h_dim, 0.5, dtype=gates.dtype)
    scale[g_] = 1.0
    shift = np.full(4 * h_dim, 0.5, dtype=gates.dtype)
    shift[g_] = 0.0
    hs = np.zeros((t_len + 1, 2, b_len, h_dim), dtype=gates.dtype)
    cs = np.zeros((t_len + 1, 2, b_len, h_dim), dtype=gates.dtype)
    for t in range(t_len):
        act = gates[t]
        act += hs[t] @ Wh
        act *= scale
        np.tanh(act, out=act)
        act *= scale
        act += shift
        cs[t + 1] = act[..., f_] * cs[t] + act[..., i_] * act[..., g_]
        np.multiply(act[..., o_], np.tanh(cs[t + 1]), out=hs[t + 1])
    caches = [{"hs": hs[:, d], "cs": cs[:, d], "gates": gates[:, d]} for d in range(2)]
    return hs[1:].transpose(1, 2, 0, 3), caches


def gathered_lstm_forward(gates, Wh):
    """``_lstm_forward`` as it ran before decoding gathered its gates a
    window at a time, kept as the oracle of every window: ``gates``, every
    step's row gathered time-major, (T, 2, B, 4H), with the i, f and o
    columns halved, and ``scaled_Wh``; ``gates`` is overwritten. Returns the
    outputs and the training cache."""
    t_len, _, b_len, four_h = gates.shape
    h_dim = four_h // 4
    dtype = gates.dtype
    zero, one, half = dtype.type(0.0), dtype.type(1.0), dtype.type(0.5)
    hs = np.zeros((t_len + 1, 2, b_len, h_dim), dtype=dtype)
    cs = np.zeros((t_len + 1, 2, b_len, h_dim), dtype=dtype)
    rec = np.empty((2, b_len, four_h), dtype=dtype)
    tmp = np.empty((2, b_len, h_dim), dtype=dtype)
    i_g, f_g, g_g, o_g = (gates[..., s] for s in tagger._gate_slices(h_dim))
    if_g = gates[..., : 2 * h_dim]
    steps = zip(gates, if_g, i_g, f_g, g_g, o_g, hs[:-1], hs[1:], cs[:-1], cs[1:])
    add, mul, tanh = np.add, np.multiply, np.tanh
    for t, (act, if_, i, f, g, o, h, h_next, c, c_next) in enumerate(steps):
        if t:
            np.matmul(h, Wh, rec)
            add(act, rec, act)
        else:
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
    return hs[1:].transpose(1, 2, 0, 3), {"hs": hs, "cs": cs, "gates": gates}


def per_direction_lstm_backward(d_h, rows, index, Wx, Wh, cache, real):
    """``_lstm_backward`` as it ran before both directions shared one time
    loop, kept as the oracle of the fused kernel: one direction, (B, T, H)
    output gradients, (B, T) row index, its own Wx and Wh, and its strided
    view of the fused forward cache."""
    hs, cs, gates = cache["hs"], cache["cs"], cache["gates"]
    tanh_c = np.tanh(cs[1:])
    t_len, b_len, h_dim = tanh_c.shape
    i_, f_, g_, o_ = tagger._gate_slices(h_dim)
    i_g, f_g, g_g, o_g = gates[..., i_], gates[..., f_], gates[..., g_], gates[..., o_]
    G = np.empty_like(gates)
    G[..., i_] = g_g * i_g * (1.0 - i_g)
    G[..., f_] = cs[:-1] * f_g * (1.0 - f_g)
    G[..., g_] = i_g * (1.0 - g_g**2)
    G[..., o_] = tanh_c * o_g * (1.0 - o_g)
    oc = o_g * (1.0 - tanh_c**2)
    dz = np.empty_like(gates)
    dz4 = dz.reshape(t_len, b_len, 4, h_dim)
    dh = np.zeros((b_len, h_dim), dtype=Wx.dtype)
    dc = np.zeros((b_len, h_dim), dtype=Wx.dtype)
    for t in range(t_len - 1, -1, -1):
        dh += d_h[:, t]
        dc += dh * oc[t]
        dz4[t, :, :3] = dc[:, None]
        dz4[t, :, 3] = dh
        dz[t] *= G[t]
        dc *= f_g[t]
        dh = dz[t] @ Wh.T
    steps = real.T
    real_dz = dz[steps]
    inputs = rows[index.T[steps]]
    d_wx = inputs.T @ real_dz
    d_wh = hs[:-1][steps].T @ real_dz
    d_b = real_dz.sum(axis=0)
    d_inputs = np.zeros((t_len, b_len, Wx.shape[0]), dtype=Wx.dtype)
    d_inputs[steps] = real_dz @ Wx.T
    return d_inputs.transpose(1, 0, 2), d_wx, d_wh, d_b


def broadcast_forward(proj, model, index, lengths):
    """``_forward``'s emissions as they were computed before the
    broadcast-free LSTM step, from an unscaled projection table: the gather,
    ``broadcast_lstm_forward`` and the emission projection."""
    p = model.params
    b_len, t_max = index.shape
    steps = np.arange(t_max)
    real = steps < lengths[:, None]
    rev = (np.arange(b_len)[:, None], np.where(real, lengths[:, None] - 1 - steps, steps))
    gates = proj[np.arange(2)[:, None], np.stack((index, index[rev]), axis=1).T]
    h, _ = broadcast_lstm_forward(gates, np.stack((p["lstm_f_Wh"], p["lstm_b_Wh"])))
    h_cat = np.concatenate([h[0], h[1][rev]], axis=2)
    emissions = h_cat.reshape(-1, h_cat.shape[2]) @ p["proj_W"] + p["proj_b"]
    return emissions.reshape(b_len, t_max, -1)


def reference_lstm_backward(d_h, rows, index, Wx, Wh, cache):
    """``_lstm_backward`` as a per-step loop that computes each gate's
    derivative where it is used; the oracle for the hoisted kernel."""
    hs, cs, gates = cache["hs"], cache["cs"], cache["gates"]
    tanh_c = np.tanh(cs[1:])
    t_len, b_len, h_dim = tanh_c.shape
    i_, f_, g_, o_ = (slice(k * h_dim, (k + 1) * h_dim) for k in range(4))
    dz = np.empty_like(gates)
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
    inputs = rows[index.T]
    d_wx = inputs.reshape(-1, inputs.shape[2]).T @ flat_dz
    d_wh = hs[:-1].reshape(-1, h_dim).T @ flat_dz
    d_b = flat_dz.sum(axis=0)
    d_inputs = (flat_dz @ Wx.T).reshape(t_len, b_len, -1).transpose(1, 0, 2)
    return d_inputs, d_wx, d_wh, d_b


def all_steps_lstm_backward(d_h, rows, index, Wx, Wh, cache):
    """``_lstm_backward`` as it was before it skipped padded steps: the same
    time loop, then the weight, bias and input gradients over every step,
    padded ones included; the oracle for the real-step kernel."""
    hs, cs, gates = cache["hs"], cache["cs"], cache["gates"]
    tanh_c = np.tanh(cs[1:])
    t_len, b_len, h_dim = tanh_c.shape
    i_, f_, g_, o_ = tagger._gate_slices(h_dim)
    i_g, f_g, g_g, o_g = gates[..., i_], gates[..., f_], gates[..., g_], gates[..., o_]
    G = np.empty_like(gates)
    G[..., i_] = g_g * i_g * (1.0 - i_g)
    G[..., f_] = cs[:-1] * f_g * (1.0 - f_g)
    G[..., g_] = i_g * (1.0 - g_g**2)
    G[..., o_] = tanh_c * o_g * (1.0 - o_g)
    oc = o_g * (1.0 - tanh_c**2)
    dz = np.empty_like(gates)
    dz4 = dz.reshape(t_len, b_len, 4, h_dim)
    dh = np.zeros((b_len, h_dim), dtype=Wx.dtype)
    dc = np.zeros((b_len, h_dim), dtype=Wx.dtype)
    for t in range(t_len - 1, -1, -1):
        dh += d_h[:, t]
        dc += dh * oc[t]
        dz4[t, :, :3] = dc[:, None]
        dz4[t, :, 3] = dh
        dz[t] *= G[t]
        dc *= f_g[t]
        dh = dz[t] @ Wh.T
    flat_dz = dz.reshape(-1, 4 * h_dim)
    inputs = rows[index.T]
    d_wx = inputs.reshape(-1, inputs.shape[2]).T @ flat_dz
    d_wh = hs[:-1].reshape(-1, h_dim).T @ flat_dz
    d_b = flat_dz.sum(axis=0)
    d_inputs = (flat_dz @ Wx.T).reshape(t_len, b_len, -1).transpose(1, 0, 2)
    return d_inputs, d_wx, d_wh, d_b


def dense_grads(model, grads):
    """``loss_and_gradients``' gradients with the word embeddings' ``RowGrad``
    made a full array, zero at the rows it does not hold."""
    out = dict(grads)
    for name, g in grads.items():
        if isinstance(g, RowGrad):
            out[name] = np.zeros_like(model.params[name])
            out[name][g.rows] = g.values
    return out


def reference_loss_and_gradients(model, table, ids, lengths, gold, dropout_seed):
    """``loss_and_gradients`` with the mean taken at the end: the same kernels
    run on the CRF's summed gradients, add into zero-filled gradients, and
    every gradient is scaled by 1/B last."""
    p, hp = model.params, model.hp
    used, index = _distinct_rows(ids, lengths)
    char_rep, char_cache = char_reps(table.char_ids[used], model)
    word_ids = table.word_ids[used]
    emissions, cache = _train_forward(
        _input_rows(model, word_ids, char_rep), model, index, lengths, _prepared(model),
        dropout_seed)
    loss, d_e, *d_crf = crf.nll_gradients(
        emissions, *tagger._crf_scores(model), p["end"], gold, lengths)
    grads = {name: np.zeros_like(arr) for name, arr in p.items()}
    d_u, net = tagger._backward_net(d_e, model, cache)
    read = index[cache["real"]]
    np.add.at(grads["word_emb"], word_ids[read], d_u[:, : hp.word_dim])
    d_rep = np.zeros((len(used), hp.char_filters), dtype=d_u.dtype)
    np.add.at(d_rep, read, d_u[:, hp.word_dim :])
    net.update(tagger._char_backward(d_rep, model, char_cache))
    net.update(zip(("trans", "start", "end"), d_crf))
    for name, grad in net.items():
        grads[name] += grad.astype(p[name].dtype)
    scale = 1.0 / len(lengths)
    for grad in grads.values():
        grad *= scale
    return loss * scale, grads


def forward_batch(model, token_lists):
    """``_forward``'s batch for tokenized messages: token table, padded ids, lengths."""
    table, ids, lengths = token_table(model, token_lists)
    return table, _padded(ids, np.cumsum(lengths) - lengths, lengths), lengths


def batch_inputs(model, token_lists):
    """Tokenized messages as one batch, its input rows built as
    ``loss_and_gradients`` builds them: the rows, each step's row and the lengths."""
    table, ids, lengths = forward_batch(model, token_lists)
    used, index = _distinct_rows(ids, lengths)
    rows = _input_rows(model, table.word_ids[used], char_reps(table.char_ids[used], model)[0])
    return rows, index, lengths


def batch_emissions(model, token_lists):
    """``_forward`` over tokenized messages as one batch, without dropout;
    returns the emissions and cache."""
    rows, index, lengths = batch_inputs(model, token_lists)
    view = _prepared(model)
    return _forward(_project(view, rows), model, index, lengths, view)


def forward_one(model, tokens):
    """``_forward``'s emissions of one message, a batch of one, (T, n_tags)."""
    return batch_emissions(model, [tokens])[0][0]


def char_reps(char_ids, model):
    """``_char_reps`` with a char table built for the call."""
    return _char_reps(char_ids, model, _char_table(model))


def char_forward(char_ids, model):
    """``_char_forward`` over (N, L) char rows with the model's char table."""
    return _char_forward(np.asarray(char_ids), _char_table(model), model.params["char_b"])


def char_rep(char_ids_row, model):
    """``_char_forward``'s representation of one word, a batch of one row."""
    return char_forward(np.asarray(char_ids_row)[None], model)[0]


def per_batch_char_reps(char_ids, model):
    """The char-CNN as one decode batch ran it before reps were computed once
    per call: the batch's rows, trimmed to their longest word, through one
    ``reference_char_forward``; a rep per row."""
    filled = np.flatnonzero((char_ids != PAD).any(axis=0))
    width = int(filled[-1]) + 1 if filled.size else 1
    return reference_char_forward(char_ids[:, :width], model)[0]


def train_batch(model, logs):
    """``loss_and_gradients``' batch for annotated logs: table, ids, lengths, gold tags."""
    table, ids, lengths = forward_batch(model, [log.tokens for log in logs])
    flat_gold = np.array([model.tag_index(t) for log in logs for t in log.tags])
    return table, ids, lengths, _padded(flat_gold, np.cumsum(lengths) - lengths, lengths)


def read_only(model):
    """A copy of ``model`` over copies of its tensors, read-only from the start."""
    params = {name: arr.copy() for name, arr in model.params.items()}
    for arr in params.values():
        arr.flags.writeable = False
    return TaggerModel(model.hp, model.mode, model.word_vocab, model.char_vocab, params)


def storeless_decode(model, token_lists):
    """``decode`` as it ran before the token store, kept as its oracle: one
    token table and char-CNN pass per call, and per batch the projection
    ``rows @ Wx + b`` of the batch's distinct rows, at whatever row count.
    Returns the tags and, per batch, its emissions, lengths and projected
    row count."""
    p = model.params
    view = _prepared(model)
    table, ids, lengths = token_table(model, token_lists)
    starts = np.cumsum(lengths) - lengths
    order = np.argsort(lengths, kind="stable")
    char_rep = char_reps(table.char_ids, model)[0]
    tags, batches = [[] for _ in token_lists], []
    lo = int(np.count_nonzero(lengths == 0))
    while lo < len(order):
        hi = lo + 1
        while hi < len(order) and (hi + 1 - lo) * lengths[order[hi]] <= tagger.BATCH_TOKENS:
            hi += 1
        batch = order[lo:hi]
        n = lengths[batch]
        used, index = _distinct_rows(_padded(ids, starts[batch], n), n)
        rows = _input_rows(model, table.word_ids[used], char_rep[used])
        proj = np.stack([rows @ p[f"lstm_{d}_Wx"] + p[f"lstm_{d}_b"] for d in "fb"])
        emissions = tagger._forward(halve_sigmoid_gates(proj), model, index, n, view)[0]
        paths = crf.viterbi_decode(emissions, *tagger._crf_scores(model), p["end"], n)
        for i, path in zip(batch, paths):
            tags[i] = [model.tags[k] for k in path]
        batches.append((emissions, n, len(used)))
        lo = hi
    return tags, batches


TINY_HP = Hyperparams(
    word_dim=7, char_emb_dim=5, char_filters=4, char_kernel=3,
    lstm_hidden=3, dropout=0.2, max_word_len=8,
)


@pytest.fixture(scope="module")
def corpus():
    logs, _ = generate_synthetic(seed=5, n_templates=5, n_logs=60)
    return logs


@pytest.fixture(scope="module")
def vocabs(corpus):
    return build_vocabs(corpus[:30])


@pytest.fixture(scope="module")
def tiny_model(vocabs):
    wv, cv = vocabs
    return init_model(TINY_HP, wv, cv, seed=3)


class TestInit:
    def test_deterministic(self, vocabs):
        wv, cv = vocabs
        a = init_model(TINY_HP, wv, cv, seed=11)
        b = init_model(TINY_HP, wv, cv, seed=11)
        for name in a.params:
            assert (a.params[name] == b.params[name]).all()

    def test_iob_violations_frozen(self, tiny_model):
        m = tiny_model
        o = m.tag_index(Tag.parse("O"))
        i_oid = m.tag_index(Tag.parse("I-OID"))
        b_oid = m.tag_index(Tag.parse("B-OID"))
        assert m.params["trans"][o, i_oid] == FROZEN_SCORE
        assert m.params["trans"][b_oid, i_oid] == 0.0
        assert m.params["start"][i_oid] == FROZEN_SCORE

    def test_shapes(self, tiny_model):
        m, hp = tiny_model, TINY_HP
        assert m.params["word_emb"].shape == (len(m.word_vocab), hp.word_dim)
        assert m.params["char_W"].shape == (hp.char_kernel, hp.char_emb_dim, hp.char_filters)
        assert m.params["lstm_f_Wx"].shape == (hp.input_dim, 4 * hp.lstm_hidden)
        assert m.params["proj_W"].shape == (2 * hp.lstm_hidden, 21)
        assert m.params["trans"].shape == (21, 21)

    def test_param_shapes_describe_init(self, vocabs):
        wv, cv = vocabs
        for mode in ("multiclass", BINARY):
            m = init_model(TINY_HP, wv, cv, seed=0, mode=mode)
            shapes = {name: arr.shape for name, arr in m.params.items()}
            assert shapes == param_shapes(TINY_HP, len(wv), len(cv), m.n_tags)

    def test_equality_is_identity(self, tiny_model):
        # params is a dict of arrays, which a field-wise == cannot compare
        assert tiny_model == tiny_model
        assert tiny_model != copy.deepcopy(tiny_model)

    def test_pretrained_matrix_of_another_shape_is_a_dimension_mismatch(self, vocabs):
        wv, cv = vocabs
        for shape in ((len(wv), TINY_HP.word_dim + 1), (len(wv) - 1, TINY_HP.word_dim)):
            with pytest.raises(DimensionMismatch, match="pretrained matrix shape"):
                init_model(TINY_HP, wv, cv, pretrained=np.zeros(shape, np.float32))

    def test_binary_mode_three_tags(self, vocabs):
        wv, cv = vocabs
        m = init_model(TINY_HP, wv, cv, seed=0, mode=BINARY)
        assert m.n_tags == 3
        assert m.params["trans"].shape == (3, 3)


class TestCharRepresentation:
    def test_output_length(self, tiny_model):
        row = np.array([2, 3, 2, PAD, PAD, PAD, PAD, PAD])
        rep = char_rep(row, tiny_model)
        assert rep.shape == (TINY_HP.char_filters,)

    def test_repeated_chars_interior_pooling(self, vocabs):
        # identical characters: interior conv outputs are identical, so the
        # pool equals an interior value per filter (computed directly)
        wv, cv = vocabs
        hp = Hyperparams(word_dim=4, char_emb_dim=3, char_filters=1,
                         char_kernel=3, lstm_hidden=2, max_word_len=6)
        m = init_model(hp, wv, cv, seed=1)
        cid = 2
        row = np.full(6, cid)
        emb = m.params["char_emb"][cid]
        w, b = m.params["char_W"], m.params["char_b"]
        interior = float(emb @ w[0,:,0] + emb @ w[1,:,0] + emb @ w[2,:,0] + b[0])
        edge_left = float(emb @ w[1,:,0] + emb @ w[2,:,0] + b[0])
        edge_right = float(emb @ w[0,:,0] + emb @ w[1,:,0] + b[0])
        rep = char_rep(row, m)
        assert rep[0] == pytest.approx(max(interior, edge_left, edge_right), rel=1e-5)

    def test_pad_only_row_gives_bias(self, tiny_model):
        row = np.full(8, PAD)
        rep = char_rep(row, tiny_model)
        np.testing.assert_array_equal(rep, tiny_model.params["char_b"])

    def test_pad_positions_inert(self, tiny_model):
        short = np.array([2, 3, PAD, PAD, PAD, PAD, PAD, PAD])
        # PAD contributes zero vectors, so extra trailing PADs change nothing
        a = char_rep(short, tiny_model)
        b = char_rep(np.array([2, 3, PAD, PAD, PAD, PAD, PAD, PAD]), tiny_model)
        np.testing.assert_array_equal(a, b)


class TestCharTable:
    @pytest.mark.parametrize("kernel", [1, 2, 3, 4])
    def test_matches_direct_convolution(self, vocabs, kernel):
        wv, cv = vocabs
        hp = dataclasses.replace(TINY_HP, char_kernel=kernel)
        rng = np.random.default_rng(kernel)
        ids = rng.integers(1, len(cv), size=(12, 8))
        for row, n in enumerate([0, 1, 2, 3, 5, 8, 8, 4, 1, 7, 6, 2]):
            ids[row, n:] = PAD
        for dtype, rtol, atol in ((np.float32, F32_RTOL, F32_ATOL), (np.float64, 1e-12, 1e-12)):
            m = init_model(hp, wv, cv, seed=kernel, dtype=dtype)
            rep = char_forward(ids, m)
            assert rep.dtype == dtype
            np.testing.assert_allclose(rep, direct_char_conv(ids, m), rtol=rtol, atol=atol)

    @pytest.mark.parametrize("kernel", [1, 2, 3, 5])
    def test_equals_reference_kernel_bitwise(self, vocabs, kernel):
        # tolerance: none; the -inf centre PAD row scores exactly the
        # positions the reference masks, and every other sum is unchanged
        wv, cv = vocabs
        hp = dataclasses.replace(TINY_HP, char_kernel=kernel)
        rng = np.random.default_rng(10 + kernel)
        ids = rng.integers(1, len(cv), size=(9, 8))
        for row, n in enumerate([0, 1, 2, 8, 5, 0, 3, 8, 7]):  # rows 0 and 5 all PAD
            ids[row, n:] = PAD
        ids[2, 0] = PAD  # a PAD inside a row as well as after it
        for dtype in (np.float32, np.float64):
            m = init_model(hp, wv, cv, seed=kernel, dtype=dtype)
            m.params["char_emb"][PAD] = 5.0  # the stored PAD row is ignored
            table = _char_table(m)
            assert (table[kernel // 2, PAD] == -np.inf).all()
            for chars in (ids, ids[:, :1], ids[:0]):
                rep = _char_forward(chars, table, m.params["char_b"])
                ids_p, pre = _char_pre(chars, table, m.params["char_b"])
                ref_rep, ref_cache = reference_char_forward(chars, m)
                assert rep.dtype == ref_rep.dtype == dtype
                np.testing.assert_array_equal(rep, ref_rep)
                np.testing.assert_array_equal(pre, ref_cache["pre"])
                np.testing.assert_array_equal(ids_p, ref_cache["ids_p"])
                ref_table = ref_cache["table"].copy()
                ref_table[kernel // 2, PAD] = -np.inf
                np.testing.assert_array_equal(table, ref_table)
            assert rep.shape == (0, hp.char_filters)  # the empty batch, last in the loop
            assert (char_forward(ids, m)[[0, 5]] == m.params["char_b"]).all()

    def test_nonzero_pad_embedding_is_ignored(self, tiny_model):
        # PAD positions contribute zero vectors whatever the stored PAD row holds
        m = init_model(TINY_HP, tiny_model.word_vocab, tiny_model.char_vocab, seed=3)
        ids = np.array([[2, 3, PAD, PAD], [4, PAD, PAD, PAD]])
        before = char_forward(ids, m)
        m.params["char_emb"][PAD] = 7.0
        after = char_forward(ids, m)
        np.testing.assert_array_equal(before, after)


class TestBatchedForward:
    def test_batch_matches_batch_of_one(self, tiny_model, corpus):
        m = tiny_model
        logs = sorted(corpus[:12], key=lambda log: len(log.tokens) % 5)  # mixed lengths
        toks = [log.tokens for log in logs]
        counts = [len(t) for t in toks]
        assert len(set(counts)) > 3
        emissions, cache = batch_emissions(m, toks)
        assert emissions.shape == (len(toks), max(counts), m.n_tags)
        assert cache["real"].sum(axis=1).tolist() == counts
        for b, t in enumerate(toks):
            np.testing.assert_allclose(
                emissions[b, : len(t)], forward_one(m, t), rtol=F32_RTOL, atol=F32_ATOL,
            )
        assert decode(m, toks) == [decode(m, [t])[0] for t in toks]

    def test_char_cnn_runs_once_per_distinct_trimmed_row(self, tiny_model, corpus, monkeypatch):
        seen = []
        real = tagger._char_forward

        def spy(char_ids, *args):
            seen.append(char_ids)
            return real(char_ids, *args)

        monkeypatch.setattr(tagger, "_char_forward", spy)
        m = copy.deepcopy(tiny_model)  # no token store yet, whatever ran before
        a, b, c, d, e = m.char_vocab.chars()[:5]
        words = [(a + b, c + d, a + b), (c + d, e), (a + b,)]
        decode(m, words)
        (rows,) = seen
        assert rows.shape == (3, 2)  # three distinct words, two chars wide
        seen.clear()
        tags = [(Tag("O"),) * len(w) for w in words]
        loss_and_gradients(m, *train_batch(m, [AnnotatedLog(w, t) for w, t in zip(words, tags)]))
        (rows,) = seen  # a training batch runs the same input layer
        assert rows.shape == (3, 2)


class TestTokenTable:
    # two vocabulary words longer than max_word_len = 30 that share their
    # first 30 characters: equal char rows, two word ids
    REFUSED, RESET = "connection_to_the_remote_host_refused", "connection_to_the_remote_host_reset"

    @pytest.fixture(scope="class")
    def model(self, corpus):
        hp = dataclasses.replace(TINY_HP, max_word_len=30)
        assert self.REFUSED[:30] == self.RESET[:30]
        extra = (self.REFUSED, self.RESET, "Error", "worker")
        extra_log = AnnotatedLog(extra, tuple(Tag("O") for _ in extra))
        wv, cv = build_vocabs(corpus[:30] + [extra_log])
        return init_model(hp, wv, cv, seed=7)

    def messages(self, model):
        refused, reset = self.REFUSED, self.RESET
        assert model.word_vocab.lookup(refused) != model.word_vocab.lookup(reset)
        assert model.word_vocab.lookup("Error") == model.word_vocab.lookup("error")
        return [
            ("worker", "5", "Error", "worker", "error"),  # repeats within a message
            ("Error", refused, "worker"),  # shares tokens with the first
            (reset, refused, reset),
            ("error",),
            ("worker", "7", "ERROR", "5", reset, "error", "Error", "unseen-token"),
        ]

    def test_decode_equals_per_message_decode(self, model):
        msgs = self.messages(model)
        assert decode(model, msgs) == [decode(model, [m])[0] for m in msgs]

    def test_one_input_row_per_distinct_char_row_and_word_id(self, model, monkeypatch):
        # a read-only model's token store misses each token once: one char
        # row and one projected input row per distinct token, and none on a
        # second call
        seen = {"char": [], "project": [], "forward": []}
        char_forward, project, forward = tagger._char_forward, tagger._project, tagger._forward

        def char_spy(char_ids, *args):
            seen["char"].append(char_ids)
            return char_forward(char_ids, *args)

        def project_spy(view, rows):
            seen["project"].append(rows)
            return project(view, rows)

        def forward_spy(proj, *args):
            seen["forward"].append(proj)
            return forward(proj, *args)

        monkeypatch.setattr(tagger, "_char_forward", char_spy)
        monkeypatch.setattr(tagger, "_project", project_spy)
        monkeypatch.setattr(tagger, "_forward", forward_spy)
        m = read_only(model)
        msgs = self.messages(m)
        decode(m, msgs)  # one batch
        tokens = {tok for msg in msgs for tok in msg}
        keys = {(tok[: m.hp.max_word_len], m.word_vocab.lookup(tok)) for tok in tokens}
        assert len(keys) == len(tokens)  # case variants differ in chars, long words in id
        (char_ids,) = seen["char"]  # one group: fewer rows than CHAR_GROUP_ROWS
        assert len(char_ids) == len(tokens)  # one char row per distinct token
        (rows,) = seen["project"]  # one projection for the call
        assert len(rows) == len(keys)  # one per distinct key
        (proj,) = seen["forward"]  # one batch, read from the store
        assert proj is _prepared(m).proj
        for found in seen.values():
            found.clear()
        decode(m, msgs)
        assert seen["char"] == seen["project"] == [] and len(seen["forward"]) == 1

    @pytest.mark.parametrize("use_chars", [True, False])
    def test_eval_emissions_match_per_position_reference(self, model, corpus, use_chars):
        m = model if use_chars else init_model(
            dataclasses.replace(model.hp, use_char_channel=False),
            model.word_vocab, model.char_vocab, seed=2,
        )
        msgs = self.messages(m) + [log.tokens for log in corpus[:6]]
        encs = [encode_log(msg, m.word_vocab, m.char_vocab, m.hp.max_word_len) for msg in msgs]
        emissions, _ = batch_emissions(m, msgs)
        for b, enc in enumerate(encs):
            np.testing.assert_allclose(
                emissions[b, : len(enc.word_ids)], reference_emissions(enc, m),
                rtol=F32_RTOL, atol=F32_ATOL,
            )


class TestCharRepsPerCall:
    REFUSED, RESET = TestTokenTable.REFUSED, TestTokenTable.RESET

    @pytest.fixture(scope="class")
    def vocabs30(self, corpus):
        extra = (self.REFUSED, self.RESET)
        return build_vocabs(corpus[:30] + [AnnotatedLog(extra, (Tag("O"), Tag("O")))])

    @staticmethod
    def spy_char_forward(monkeypatch):
        seen = []
        real = tagger._char_forward

        def spy(char_ids, table, bias):
            seen.append((char_ids, table))
            return real(char_ids, table, bias)

        monkeypatch.setattr(tagger, "_char_forward", spy)
        return seen

    @pytest.mark.parametrize("kernel", [1, 2, 3, 5])
    def test_grouped_reps_equal_per_batch_path_bitwise(self, vocabs30, kernel):
        # tolerance: none; every real position sums the same table entries in
        # the same order whatever group, width or batch its row runs in
        wv, cv = vocabs30
        hp = dataclasses.replace(TINY_HP, char_kernel=kernel, max_word_len=30)
        rng = np.random.default_rng(kernel)
        alphabet = cv.chars() + ["\u03a9", "\u20ac"]  # and two characters outside it (UNK)
        tokens = ["".join(rng.choice(alphabet, size=rng.integers(1, 34))) for _ in range(400)]
        tokens = list(dict.fromkeys(tokens + [self.REFUSED, self.RESET]))  # token_table's rows
        for dtype in (np.float32, np.float64):
            m = init_model(hp, wv, cv, seed=kernel, dtype=dtype)
            table = token_table(m, [tuple(tokens)])[0]
            rep, cache = char_reps(table.char_ids, m)
            assert rep.dtype == dtype
            assert len(tokens) > CHAR_GROUP_ROWS and len(cache["groups"]) == 2
            for batch in np.array_split(rng.permutation(len(tokens)), 3):  # as decode batches
                oracle = per_batch_char_reps(table.char_ids[batch], m)
                np.testing.assert_array_equal(rep[batch], oracle)

    def test_long_words_sharing_a_prefix_get_equal_reps(self, vocabs30, monkeypatch):
        # two tokens that share their first max_word_len characters are two
        # table rows, convolved once each, to bitwise equal reps
        seen = self.spy_char_forward(monkeypatch)
        wv, cv = vocabs30
        m = init_model(dataclasses.replace(TINY_HP, max_word_len=30), wv, cv, seed=4)
        assert self.REFUSED[:30] == self.RESET[:30]
        msgs = [("worker", self.REFUSED), (self.RESET, "5", self.REFUSED), (self.RESET,)]
        table = token_table(m, msgs)[0]
        rep = char_reps(table.char_ids, m)[0]
        assert [len(chars) for chars, _ in seen] == [4]
        np.testing.assert_array_equal(rep[1], rep[2])  # first seen: worker, refused, reset, 5
        assert not np.array_equal(rep[0], rep[1])
        assert decode(m, msgs) == [decode(m, [msg])[0] for msg in msgs]

    @staticmethod
    def convolved(seen):
        """The char rows ``_char_forward`` saw, PAD stripped, sorted."""
        return sorted(tuple(row[row != PAD]) for chars, _ in seen for row in chars)

    def test_decode_builds_one_char_table_and_convolves_each_token_once(
        self, tiny_model, corpus, monkeypatch
    ):
        # a read-only model builds its char table once, whatever the calls;
        # a call that fits the token store convolves its misses once each,
        # and a larger one every token of its table once
        seen = self.spy_char_forward(monkeypatch)
        calls = {"table": 0, "forward": 0}
        real_table, real_forward = tagger._char_table, tagger._forward

        def table_spy(model):
            calls["table"] += 1
            return real_table(model)

        def forward_spy(*args):
            calls["forward"] += 1
            return real_forward(*args)

        monkeypatch.setattr(tagger, "_char_table", table_spy)
        monkeypatch.setattr(tagger, "_forward", forward_spy)
        monkeypatch.setattr(tagger, "BATCH_TOKENS", 64)  # a call of several batches
        m = read_only(tiny_model)
        msgs = [log.tokens for log in corpus[:20]] * 2
        table = token_table(m, msgs)[0]
        assert len(table.char_ids) <= tagger.STORE_ROWS
        decode(m, msgs)
        assert calls["forward"] >= 2  # batches
        assert all(table is seen[0][1] for _, table in seen)
        want = sorted(tuple(row[row != PAD]) for row in table.char_ids)
        assert self.convolved(seen) == want
        seen.clear()
        decode(m, msgs)  # every token a store hit
        assert seen == []
        big = [log.tokens for log in corpus] + [tuple(f"w{i}" for i in range(tagger.STORE_ROWS))]
        table = token_table(m, big)[0]
        decode(m, big)
        assert self.convolved(seen) == sorted(tuple(row[row != PAD]) for row in table.char_ids)
        assert calls["table"] == 1

    def test_groups_are_fixed_slices_of_the_length_sorted_rows(self, tiny_model, monkeypatch):
        seen = self.spy_char_forward(monkeypatch)
        m = tiny_model
        letters = m.char_vocab.chars()[:20]
        assert len(letters) == 20
        two, three = (["".join(t) for t in itertools.product(letters, repeat=r)] for r in (2, 3))
        # 20 three-char rows, then 300 two-char rows: sorted by length, the
        # first group is CHAR_GROUP_ROWS two-char rows, and the second the
        # other 44 with the 20 three-char rows, trimmed to three characters
        table = token_table(m, [tuple(three[:20] + two[:300])])[0]
        char_reps(table.char_ids, m)
        assert [chars.shape for chars, _ in seen] == [(CHAR_GROUP_ROWS, 2), (64, 3)]

    def test_more_spellings_than_the_group_cap_split_with_reps_unchanged(
        self, tiny_model, monkeypatch
    ):
        seen = self.spy_char_forward(monkeypatch)
        m = tiny_model
        letters = m.char_vocab.chars()[:10]
        words = ["".join(t) for t in itertools.product(letters, repeat=3)]
        words = words[: 2 * CHAR_GROUP_ROWS + 88]  # all three characters long
        table = token_table(m, [tuple(words)])[0]
        rep, _ = char_reps(table.char_ids, m)
        assert [len(chars) for chars, _ in seen] == [CHAR_GROUP_ROWS, CHAR_GROUP_ROWS, 88]
        np.testing.assert_array_equal(rep, per_batch_char_reps(table.char_ids, m))


class TestForward:
    def test_emission_shape_and_determinism(self, tiny_model, corpus):
        m = tiny_model
        tokens = corpus[0].tokens
        e1 = forward_one(m, tokens)
        e2 = forward_one(m, tokens)
        assert e1.shape == (len(tokens), 21)
        np.testing.assert_array_equal(e1, e2)

    def test_dropout_seed_controls_train_mode(self, tiny_model, corpus):
        m = tiny_model
        rows, index, lengths = batch_inputs(m, [corpus[0].tokens])
        a, b, c = (_train_forward(rows, m, index, lengths, _prepared(m), seed)[0][0]
                   for seed in (1, 1, 2))
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n_logs", [1, 3, 8])
    def test_rate_0_training_emissions_equal_the_decode_path_bitwise(
        self, vocabs, corpus, n_logs, dtype
    ):
        # at rate 0 training masks every position's row with the real-step
        # mask and projects it on its own; decoding projects each distinct
        # row once and reads it through the index
        wv, cv = vocabs
        m = init_model(dataclasses.replace(TINY_HP, dropout=0.0), wv, cv, seed=7, dtype=dtype)
        token_lists = [log.tokens for log in corpus[:n_logs]]
        rows, index, lengths = batch_inputs(m, token_lists)
        real = np.arange(index.shape[1]) < lengths[:, None]
        if n_logs > 1:
            assert not real.all()
        got = _train_forward(rows, m, index, lengths, _prepared(m), 5)[0][real]
        np.testing.assert_array_equal(got, batch_emissions(m, token_lists)[0][real])

    @pytest.mark.parametrize("dropout", [0.0, 0.2])
    def test_only_a_nonzero_rate_draws_from_a_generator(
        self, vocabs, corpus, monkeypatch, dropout
    ):
        wv, cv = vocabs
        m = init_model(dataclasses.replace(TINY_HP, dropout=dropout), wv, cv, seed=7)
        batch = train_batch(m, corpus[:3])

        def no_generator(*args):
            raise AssertionError("a generator was drawn")

        monkeypatch.setattr(np.random, "default_rng", no_generator)
        if dropout:
            with pytest.raises(AssertionError, match="a generator was drawn"):
                loss_and_gradients(m, *batch, dropout_seed=4)
        else:
            loss, _ = loss_and_gradients(m, *batch, dropout_seed=4)
            assert np.isfinite(loss)

    def test_char_ablation_equals_zeroed_char_channel(self, vocabs, corpus):
        # the baseline model ("no char channel") must produce exactly the
        # emissions of the full model when the char output is forced to zero
        wv, cv = vocabs
        ablated = init_model(
            dataclasses.replace(TINY_HP, use_char_channel=False),
            wv, cv, seed=9,
        )
        zeroed = init_model(TINY_HP, wv, cv, seed=9)
        zeroed.params["char_emb"][:] = 0.0
        zeroed.params["char_b"][:] = 0.0
        np.testing.assert_allclose(
            forward_one(ablated, corpus[1].tokens),
            forward_one(zeroed, corpus[1].tokens),
            rtol=1e-6,
        )


class TestGradients:
    def test_finite_differences_tiny_model(self, vocabs, corpus):
        wv, cv = vocabs
        m = init_model(TINY_HP, wv, cv, seed=4, dtype=np.float64)
        batch = train_batch(m, corpus[:3])
        loss, grads = loss_and_gradients(m, *batch, dropout_seed=13)
        grads = dense_grads(m, grads)
        h = 1e-5
        rng = np.random.default_rng(0)
        for name, arr in list(m.params.items()):
            for i in rng.choice(arr.size, size=min(5, arr.size), replace=False):
                losses = []
                for d in (h, -h):  # replaced, not written: the arrays are read-only
                    m.params[name] = arr.copy()
                    m.params[name].ravel()[i] += d
                    losses.append(loss_and_gradients(m, *batch, dropout_seed=13)[0])
                m.params[name] = arr
                fd = (losses[0] - losses[1]) / (2 * h)
                an = grads[name].ravel()[i]
                assert an == pytest.approx(fd, abs=1e-6), f"{name}[{i}]"

    @pytest.mark.parametrize("dtype, rtol, atol", [
        (np.float64, 1e-12, 1e-12), (np.float32, F32_RTOL, F32_ATOL),
    ])
    def test_batch_equals_mean_of_per_log(self, vocabs, corpus, dtype, rtol, atol):
        # log i of a batch draws dropout from seed + i, as a batch of one at
        # that seed does, so only summation order separates the two
        wv, cv = vocabs
        m = init_model(TINY_HP, wv, cv, seed=5, dtype=dtype)
        one = AnnotatedLog(("lone",), (Tag("O"),))
        logs = [corpus[0], one, corpus[11], corpus[4], corpus[7]]  # 6, 1, 9, 7, 8 tokens
        batch = train_batch(m, logs)
        assert len({len(log.tokens) for log in logs}) > 3
        loss, grads = loss_and_gradients(m, *batch, dropout_seed=21)
        per = [loss_and_gradients(m, *train_batch(m, [log]), dropout_seed=21 + i)
               for i, log in enumerate(logs)]
        assert loss == pytest.approx(np.mean([l for l, _ in per]), rel=rtol, abs=atol)
        for name, grad in dense_grads(m, grads).items():
            mean = sum(dense_grads(m, g)[name] for _, g in per) / len(per)
            np.testing.assert_allclose(grad, mean, rtol=rtol, atol=atol, err_msg=name)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gradients_are_fresh_arrays_in_params_order(self, vocabs, corpus, dtype):
        # clip and Adam scale and read them in place, and clip sums its
        # per-tensor norms in this order; the word embeddings' gradient is
        # its rows read, sorted and distinct, and their values
        wv, cv = vocabs
        m = init_model(TINY_HP, wv, cv, seed=6, dtype=dtype)
        logs = corpus[:5]
        _, grads = loss_and_gradients(m, *train_batch(m, logs), dropout_seed=2)
        assert list(grads) == list(m.params)
        assert isinstance(grads["word_emb"], RowGrad)
        rows = grads["word_emb"].rows
        want = sorted({wv.lookup(tok) for log in logs for tok in log.tokens})
        assert rows.tolist() == want and PAD not in want
        arrays = [g.values if isinstance(g, RowGrad) else g for g in grads.values()]
        for name, grad in zip(grads, arrays):
            shape = (len(rows), TINY_HP.word_dim) if name == "word_emb" else m.params[name].shape
            assert grad.dtype == dtype and grad.shape == shape, name
            for other in (*arrays, *m.params.values()):
                assert other is grad or not np.shares_memory(grad, other), name

    def test_char_gradients_are_zeros_without_the_char_channel(self, vocabs, corpus):
        wv, cv = vocabs
        m = init_model(dataclasses.replace(TINY_HP, use_char_channel=False), wv, cv, seed=6)
        _, grads = loss_and_gradients(m, *train_batch(m, corpus[:5]), dropout_seed=2)
        for name in ("char_emb", "char_W", "char_b"):
            assert grads[name].shape == m.params[name].shape, name
            assert grads[name].dtype == m.params[name].dtype, name
            assert not grads[name].any(), name

    @pytest.mark.parametrize("b_len", [1, 2, 3, 4, 5, 8])
    @pytest.mark.parametrize("dtype, rtol, atol", [
        (np.float64, 1e-12, 1e-12), (np.float32, F32_RTOL, F32_ATOL),
    ])
    def test_mean_at_the_crf_equals_mean_at_the_end(self, vocabs, corpus, b_len, dtype,
                                                    rtol, atol):
        # the backward pass is linear in the CRF's gradients, and a scale by
        # 1/B is exact when B is a power of two
        wv, cv = vocabs
        m = init_model(TINY_HP, wv, cv, seed=7, dtype=dtype)
        batch = train_batch(m, corpus[10 : 10 + b_len])
        loss, grads = loss_and_gradients(m, *batch, dropout_seed=30)
        grads = dense_grads(m, grads)
        want_loss, want = reference_loss_and_gradients(m, *batch, dropout_seed=30)
        assert list(grads) == list(want)
        if b_len & (b_len - 1) == 0:
            assert loss == want_loss
            for name, grad in grads.items():
                assert grad.tobytes() == want[name].tobytes(), name
        else:
            assert loss == pytest.approx(want_loss, rel=rtol, abs=atol)
            for name, grad in grads.items():
                np.testing.assert_allclose(grad, want[name], rtol=rtol, atol=atol, err_msg=name)

    def test_frozen_transition_gradient_zero(self, tiny_model, corpus):
        m = tiny_model
        _, grads = loss_and_gradients(m, *train_batch(m, corpus[:4]))
        assert (grads["trans"][m.frozen_trans] == 0).all()
        assert (grads["start"][m.frozen_start] == 0).all()

    def test_log_z_sums_over_iob_valid_paths_only(self, vocabs):
        # I-VAR's emission outscores any stored frozen score, so a forbidden
        # start on it would dominate log Z; read at -inf, it counts for nothing
        wv, cv = vocabs
        hp = dataclasses.replace(TINY_HP, dropout=0.0)
        m = init_model(hp, wv, cv, seed=4, mode=BINARY, dtype=np.float64)
        i_var = m.tag_index(Tag.parse("I-VAR"))
        m.params["proj_b"][i_var] = 20000.0
        allowed = ~m.frozen_trans
        m.params["trans"][allowed] = np.linspace(-1.0, 1.0, np.count_nonzero(allowed))
        gold = AnnotatedLog(("alpha", "beta", "7"), tuple(map(Tag.parse, ("O", "B-VAR", "O"))))
        loss, grads = loss_and_gradients(m, *train_batch(m, [gold]))
        E = batch_emissions(m, [gold.tokens])[0][0]
        p = m.params

        def score(path):
            return (p["start"][path[0]] + E[np.arange(len(path)), path].sum()
                    + sum(p["trans"][a, b] for a, b in zip(path, path[1:])) + p["end"][path[-1]])

        def iob_valid(path):
            tags = [m.tags[k] for k in path]
            return all(map(is_valid_transition, (None, *tags), tags))

        paths = itertools.product(range(m.n_tags), repeat=len(gold.tokens))
        log_z = np.logaddexp.reduce([score(path) for path in paths if iob_valid(path)])
        assert loss == pytest.approx(log_z - score([m.tag_index(t) for t in gold.tags]), rel=1e-12)
        assert (grads["trans"][m.frozen_trans] == 0).all()
        assert (grads["start"][m.frozen_start] == 0).all()

    def test_pad_embedding_gradients_zero(self, tiny_model, corpus):
        m = tiny_model
        _, grads = loss_and_gradients(m, *train_batch(m, corpus[:4]))
        grads = dense_grads(m, grads)
        assert (grads["word_emb"][PAD] == 0).all()
        assert (grads["char_emb"][PAD] == 0).all()


class TestLstmForward:
    """The two-direction ``_lstm_forward`` against one per-direction loop
    each, float64 within 1e-12 and float32 within F32_RTOL/F32_ATOL, and
    against the broadcast step it replaced, bitwise; decoding's windows
    against the training call and the kernel they replaced, bitwise."""

    SHAPES = list(itertools.product((1, 3, 8, 16, 32, 64, 96), (1, 2, 13, 35)))

    @pytest.mark.parametrize("b_len, t_len", SHAPES)
    @pytest.mark.parametrize("dtype, rtol, atol", [
        (np.float64, 1e-12, 1e-12), (np.float32, F32_RTOL, F32_ATOL),
    ])
    def test_matches_per_direction_reference(self, b_len, t_len, dtype, rtol, atol):
        (rows, Wx, Wh, b, index), _ = lstm_case(b_len, t_len, dtype, 200 * b_len + t_len)
        h, cache = lstm_forward(rows, Wx, Wh, b, index)
        assert h.shape == (2, b_len, t_len, Wh[0].shape[0])
        for d, got_d in enumerate(activations(cache)):
            want_h, want = reference_lstm_forward(rows, Wx[d], Wh[d], b[d], index[d])
            np.testing.assert_allclose(h[d], want_h, rtol=rtol, atol=atol, err_msg=f"h[{d}]")
            for name in ("hs", "cs", "gates"):
                got = got_d[name]
                assert got.dtype == dtype and got.shape == want[name].shape, name
                np.testing.assert_allclose(got, want[name], rtol=rtol, atol=atol,
                                           err_msg=f"{name}[{d}]")

    @pytest.mark.parametrize("b_len, t_len", SHAPES)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equals_broadcast_step_bitwise(self, b_len, t_len, dtype):
        (rows, Wx, Wh, b, index), _ = lstm_case(b_len, t_len, dtype, 200 * b_len + t_len)
        h, cache = lstm_forward(rows, Wx, Wh, b, index)
        want_h, want = broadcast_lstm_forward(lstm_gates(rows, Wx, b, index), np.stack(Wh))
        assert h.tobytes() == want_h.tobytes()
        for d, got in enumerate(activations(cache)):
            for name in ("hs", "cs", "gates"):
                assert got[name].tobytes() == want[d][name].tobytes(), f"{name}[{d}]"

    @pytest.mark.parametrize("b_len", (1, 3, 32))
    @pytest.mark.parametrize("t_len", (1, 2, 13, 35))
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_every_window_equals_the_training_call_bitwise(self, b_len, t_len, dtype):
        # decoding's windows of gathered gates change no bit of the outputs,
        # and the training call (one window, its cache kept) matches the
        # kernel that gathered every step at once, outputs and cache
        (rows, Wx, Wh, b, index), _ = lstm_case(b_len, t_len, dtype, 300 * b_len + t_len)
        want_h, want = gathered_lstm_forward(
            halve_sigmoid_gates(lstm_gates(rows, Wx, b, index)), scaled_Wh(Wh))
        h, cache = lstm_forward(rows, Wx, Wh, b, index)
        assert h.tobytes() == want_h.tobytes()
        cache["gates"] = gates_by_step(cache["gates"])
        for name in ("hs", "cs", "gates"):
            assert cache[name].tobytes() == want[name].tobytes(), name
        for window in sorted({1, 2, 3, t_len, t_len + 1}):
            h_w, no_cache = lstm_forward(rows, Wx, Wh, b, index, window)
            assert no_cache is None
            assert h_w.dtype == dtype and h_w.tobytes() == want_h.tobytes(), window


class TestLstmBackward:
    """The fused two-direction ``_lstm_backward`` against per-direction
    oracles: a per-step loop within tolerance, and the all-steps and
    per-direction kernels it replaced bitwise."""

    SHAPES = list(itertools.product((1, 3, 8), (1, 2, 13, 35)))
    NAMES = ("d_inputs", "d_wx", "d_wh", "d_b")

    @staticmethod
    def case(b_len, t_len, dtype):
        """The fused kernel's arguments, the output gradients zero on padded
        steps as in training, and per direction the oracles' arguments: its
        (B, T, H) output gradient, the input rows and the row each step
        read, the direction's weights and ``activations`` of the fused cache."""
        (rows, Wx, Wh, b, index), real = lstm_case(b_len, t_len, dtype, 100 * b_len + t_len)
        h_dim = Wh[0].shape[0]
        _, cache = lstm_forward(rows, Wx, Wh, b, index)
        rng = np.random.default_rng(b_len + 100 * t_len)
        d_hs = [np.where(real[..., None], rng.standard_normal((b_len, t_len, h_dim)),
                         0.0).astype(dtype) for _ in range(2)]
        fused = (np.stack(d_hs, axis=1).transpose(2, 1, 0, 3), rows,
                 np.stack(index, axis=1).T, Wx, scaled_Wh(Wh), cache, real)
        directions = [(d_hs[d], rows, index[d], Wx[d], Wh[d], cache_d)
                      for d, cache_d in enumerate(activations(cache))]
        return fused, directions

    @staticmethod
    def direction(got, d):
        """Direction d's input, Wx, Wh and bias gradients of a fused result."""
        return (got[0][d], *got[1 + d])

    @pytest.mark.parametrize("b_len, t_len", SHAPES)
    @pytest.mark.parametrize("dtype, rtol, atol", [
        (np.float64, 1e-12, 1e-12), (np.float32, F32_RTOL, F32_ATOL),
    ])
    def test_matches_per_step_reference(self, b_len, t_len, dtype, rtol, atol):
        fused, directions = self.case(b_len, t_len, dtype)
        got = tagger._lstm_backward(*fused)
        for d, args in enumerate(directions):
            want = reference_lstm_backward(*args)
            for name, g, w in zip(self.NAMES, self.direction(got, d), want):
                assert g.dtype == dtype and g.shape == w.shape, name
                np.testing.assert_allclose(g, w, rtol=rtol, atol=atol, err_msg=f"{name}[{d}]")

    @pytest.mark.parametrize("b_len, t_len", SHAPES)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equals_per_direction_kernel_bitwise(self, b_len, t_len, dtype):
        fused, directions = self.case(b_len, t_len, dtype)
        got = tagger._lstm_backward(*fused)
        real = fused[-1]
        for d, args in enumerate(directions):
            want = per_direction_lstm_backward(*args, real)
            for name, g, w in zip(self.NAMES, self.direction(got, d), want):
                assert g.shape == w.shape and g.tobytes() == w.tobytes(), f"{name}[{d}]"

    @pytest.mark.parametrize("b_len, t_len", SHAPES)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_real_steps_equal_all_steps_bitwise(self, b_len, t_len, dtype):
        # dz is zero on padded steps, so leaving them out of the weight
        # products and the bias sum changes no bit at these shapes, whose
        # products have an inner dimension of at most B * T = 280. Larger
        # ones can cross a BLAS block boundary: with OpenBLAS, B = 8, T = 49
        # differs in the last bits in float64, and B = 16, T = 35 in float32
        fused, directions = self.case(b_len, t_len, dtype)
        got = tagger._lstm_backward(*fused)
        real = fused[-1]
        for d, args in enumerate(directions):
            want = all_steps_lstm_backward(*args)
            d_in, *d_w = self.direction(got, d)
            assert d_in[real].tobytes() == want[0][real].tobytes(), f"d_inputs[{d}]"
            assert not d_in[~real].any(), f"d_inputs[{d}]"
            for name, g, w in zip(self.NAMES[1:], d_w, want[1:]):
                assert g.dtype == dtype and g.shape == w.shape, name
                assert g.tobytes() == w.tobytes(), f"{name}[{d}]"


class TestPinnedModel:
    """``decode`` on the pinned benchmark model, through the token store and
    through a per-call table, against ``broadcast_forward``: emissions
    bitwise equal on every step, so tags equal too."""

    def test_decode_emissions_equal_the_broadcast_step_bitwise(self, monkeypatch):
        model = load_model(PINNED_MODEL)
        held = generate_synthetic(seed=1, n_templates=20, n_logs=1300)[0][900:]
        bulk = [log.tokens for log in held]  # a call larger than the store
        assert len({tok for tokens in bulk for tok in tokens}) > tagger.STORE_ROWS
        joined = [sum((log.tokens for log in held[k : k + 4]), ()) for k in range(0, 40, 4)]
        seen = []
        forward = tagger._forward

        def spy(proj, model, index, lengths, view):
            # the projection doubled back to ``x @ Wx + b``: halving was exact
            unscaled = proj * 2.0
            unscaled[..., 2 * (proj.shape[-1] // 4) : 3 * (proj.shape[-1] // 4)] *= 0.5
            out = forward(proj, model, index, lengths, view)
            seen.append((out[0], unscaled, index, lengths))
            return out

        monkeypatch.setattr(tagger, "_forward", spy)
        decode(model, bulk)
        decode(model, joined[:1])  # one line: the stream workload's batch of one
        decode(model, joined)
        assert len(seen) > 3 and {len(n) for *_, n in seen} > {1}
        for emissions, unscaled, index, lengths in seen:
            want = broadcast_forward(unscaled, model, index, lengths)
            assert emissions.tobytes() == want.tobytes()


class TestPadding:
    """A padded step never reaches a real step, so it may read any input row."""

    LOGS = (0, 11, 4, 7)  # corpus logs of 6, 9, 7 and 8 tokens

    @staticmethod
    def padded_at(row):
        """``_distinct_rows`` with every padded step pointed at ``row``."""
        def distinct_rows(ids, lengths):
            used, index = _distinct_rows(ids, lengths)
            index[np.arange(index.shape[1]) >= lengths[:, None]] = row % len(used)
            return used, index
        return distinct_rows

    @pytest.mark.parametrize("dropout", [0.0, 0.2])
    def test_real_step_emissions_do_not_depend_on_the_padded_row(
        self, vocabs, corpus, dropout
    ):
        wv, cv = vocabs
        m = init_model(dataclasses.replace(TINY_HP, dropout=dropout), wv, cv, seed=6)
        table, ids, lengths = forward_batch(m, [corpus[i].tokens for i in self.LOGS])
        used, index = _distinct_rows(ids, lengths)
        rows = _input_rows(m, table.word_ids[used], char_reps(table.char_ids[used], m)[0])
        assert not np.array_equal(rows[0], rows[-1])
        real = np.arange(ids.shape[1]) < lengths[:, None]
        emissions = []
        for row in (0, len(used) - 1):
            index[~real] = row
            emissions.append(
                _train_forward(rows, m, index, lengths, _prepared(m), 3)[0][real])
        np.testing.assert_array_equal(*emissions)

    @pytest.mark.parametrize("dropout", [0.0, 0.2])
    def test_loss_and_gradients_do_not_depend_on_the_padded_row(
        self, vocabs, corpus, monkeypatch, dropout
    ):
        wv, cv = vocabs
        m = init_model(dataclasses.replace(TINY_HP, dropout=dropout), wv, cv, seed=6)
        batch = train_batch(m, [corpus[i] for i in self.LOGS])
        runs = []
        for row in (0, -1):
            monkeypatch.setattr(tagger, "_distinct_rows", self.padded_at(row))
            runs.append(loss_and_gradients(m, *batch, dropout_seed=8))
        (loss_a, grads_a), (loss_b, grads_b) = runs
        assert loss_a == loss_b
        grads_b = dense_grads(m, grads_b)
        for name, grad in dense_grads(m, grads_a).items():
            np.testing.assert_array_equal(grad, grads_b[name], err_msg=name)

    def test_decode_allocates_nothing_sized_by_max_word_len(self, vocabs):
        # char rows are as wide as the longest token given, not max_word_len
        wv, cv = vocabs
        m = init_model(dataclasses.replace(TINY_HP, max_word_len=30), wv, cv, seed=2)
        twin = TaggerModel(dataclasses.replace(m.hp, max_word_len=10**6), m.mode,
                           m.word_vocab, m.char_vocab, m.params)
        line = ("Starting", "executor", "ID", "5")
        decode(twin, [line])
        tracemalloc.start()
        try:
            (tags,) = decode(twin, [line])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20
        assert tags == decode(m, [line])[0]


class TestDecode:
    def test_decoded_paths_are_iob_valid(self, vocabs, corpus):
        wv, cv = vocabs
        for seed in range(5):
            m = init_model(TINY_HP, wv, cv, seed=seed)
            for tags in decode(m, [log.tokens for log in corpus[:10]]):
                prev = None
                for t in tags:
                    assert is_valid_transition(prev, t)
                    prev = t

    def test_frozen_transitions_lose_against_any_finite_scores(self, vocabs):
        # an emission gap far beyond -FROZEN_SCORE still cannot start on I-TID
        wv, cv = vocabs
        m = init_model(TINY_HP, wv, cv, seed=0)
        m.params["proj_b"][m.tag_index(Tag.parse("I-TID"))] = 1e6
        (tags,) = decode(m, [("alpha", "beta", "7")])
        check_iob(tags)
        assert Tag.parse("I-TID") in tags

    def test_empty_messages_get_empty_tag_lists(self, tiny_model):
        m = tiny_model
        assert decode(m, []) == []
        assert decode(m, [()]) == [[]]
        assert decode(m, [(), ()]) == [[], []]
        alpha, beta = decode(m, [("alpha",), ("beta", "7")])
        assert decode(m, [("alpha",), (), ("beta", "7"), ()]) == [alpha, [], beta, []]

    def test_a_long_line_holds_at_most_3_5_kb_per_token(self):
        # decoding keeps no per-step LSTM gates or cell states, only a window
        # of gates and one c buffer: at default sizes its peak is both
        # directions' outputs, about 2.7 KB per token, where keeping every
        # step's gates and states took 7.8 KB
        logs = generate_synthetic(seed=1, n_templates=20, n_logs=600)[0]
        line = tuple(tok for log in logs for tok in log.tokens)[:4000]
        wv, cv = build_vocabs(logs[:200])
        m = init_model(Hyperparams(), wv, cv, seed=0)
        tagger.decode_ids(m, [line[:10]])  # builds the prepared view and the token store
        tracemalloc.start()
        try:
            (path,) = tagger.decode_ids(m, [line])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(path) == len(line) == 4000
        assert peak <= 3.5 * 1024 * len(line)

    def test_tag_log_deterministic(self, tiny_model):
        raw = "Starting executor ID 5 on host meso-07"
        a = tag_log(tiny_model, raw)
        b = tag_log(tiny_model, raw)
        assert a == b
        assert a.tokens == tuple(raw.split())


class TestTokenStore:
    """A read-only model's token store against ``storeless_decode``.

    Tags are equal in every case. A token's projection is a function of the
    token alone (``_project`` never multiplies a single row), so emissions
    are bitwise equal wherever the oracle projected at least two rows; a
    batch of one distinct token, which the oracle projects as one row (a
    gemv), agrees to 1e-6 of its largest emission.
    """

    @pytest.fixture
    def spy(self, monkeypatch):
        """Each ``_forward`` call's emissions and lengths, and each ``_project`` call's rows."""
        seen = {"forward": [], "project": []}
        forward, project = tagger._forward, tagger._project

        def forward_spy(proj, model, index, lengths, *args):
            out = forward(proj, model, index, lengths, *args)
            seen["forward"].append((out[0], lengths))
            return out

        def project_spy(view, rows):
            seen["project"].append(len(rows))
            return project(view, rows)

        monkeypatch.setattr(tagger, "_forward", forward_spy)
        monkeypatch.setattr(tagger, "_project", project_spy)
        return seen

    @staticmethod
    def check(model, token_lists, spy):
        """Decode through the store and the oracle; return the projected row counts."""
        spy["forward"].clear()
        spy["project"].clear()
        tags = decode(model, token_lists)
        got, projected = list(spy["forward"]), list(spy["project"])
        want_tags, want = storeless_decode(model, token_lists)
        assert tags == want_tags
        assert len(got) == len(want)
        for (emissions, n), (oracle, want_n, n_rows) in zip(got, want):
            assert n.tolist() == want_n.tolist()
            real = np.arange(emissions.shape[1]) < n[:, None]
            if n_rows >= 2:
                assert emissions[real].tobytes() == oracle[real].tobytes()
            else:
                gap = np.abs(emissions[real] - oracle[real]).max()
                assert gap <= 1e-6 * np.abs(oracle[real]).max()
        return projected

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_store_decode_equals_storeless_decode(self, vocabs, corpus, spy, dtype):
        wv, cv = vocabs
        m = read_only(init_model(TINY_HP, wv, cv, seed=11, dtype=dtype))
        view = _prepared(m)
        rows = tagger.STORE_ROWS
        msgs = [log.tokens for log in corpus[:12]]
        first = {tok for msg in msgs for tok in msg}
        assert 20 < len(first) < rows // 2
        # all misses, then all hits
        assert self.check(m, msgs, spy) == [len(first)]
        assert self.check(m, msgs, spy) == []
        line = msgs[0]  # its tokens are the least recently used from here on
        before = storeless_decode(m, [line])[0]
        # exactly one miss, projected as a doubled row
        assert self.check(m, msgs[4:7] + [("lone-miss",) + msgs[5]], spy) == [1]
        # one distinct token: the oracle's one-row projection
        assert self.check(m, [("x", "x", "x")], spy) == [1]
        # more misses than free slots: the least recently used are evicted,
        # the call's own tokens never
        fill = tuple(f"f{i}" for i in range(rows - len(view.slots) - 10))
        self.check(m, [fill], spy)
        assert len(view.slots) == rows - 10
        more = (msgs[6][0],) + tuple(f"g{i}" for i in range(40))
        assert self.check(m, [more], spy) == [40]
        assert len(view.slots) == rows and set(more) <= set(view.slots)
        evicted = set(first) - set(view.slots)
        assert evicted and set(line) & evicted
        # a line after its tokens are evicted (before: the all-misses call)
        assert decode(m, [line]) == before
        self.check(m, [line], spy)
        # a call larger than the store: a per-call table, the store untouched
        slots = dict(view.slots)
        big = msgs + [tuple(f"h{i}" for i in range(rows))]
        self.check(m, big, spy)
        assert dict(view.slots) == slots

    def test_every_call_takes_the_lock(self, tiny_model):
        # one call that reads the store and one larger than it: each waits
        # while the view's lock is held, then gets the tags of an unlocked run
        m = read_only(tiny_model)
        view = _prepared(m)
        large = [tuple(f"t{i}" for i in range(tagger.STORE_ROWS + 1))]
        small = [("alpha", "beta", "7")]
        for token_lists in (large, small):
            done = []
            with view.lock:
                waiting = threading.Thread(target=lambda: done.append(decode(m, token_lists)))
                waiting.start()
                waiting.join(timeout=0.5)
                assert waiting.is_alive() and not done
            waiting.join(timeout=30)
            assert not waiting.is_alive() and done == [decode(m, token_lists)]

    def test_threads_get_the_tags_of_one(self, tiny_model, corpus, monkeypatch):
        # more threads than cores, a short switch interval, and a small store,
        # so that the threads' calls interleave and evict each other's tokens
        monkeypatch.setattr(tagger, "STORE_ROWS", 24)
        lines = [" ".join(log.tokens) for log in corpus] * 2
        want = [tag_log(read_only(tiny_model), raw) for raw in lines]
        m = read_only(tiny_model)
        got = {}

        def run(k):
            order = lines if k % 2 == 0 else lines[::-1]
            got[k] = [tag_log(m, raw) for raw in order]

        threads = [threading.Thread(target=run, args=(k,)) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for k in range(4):
            assert got[k] == (want if k % 2 == 0 else want[::-1]), k
