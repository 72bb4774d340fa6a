"""Training loop, fine-tuning, checkpoint selection, and model files.

The optimizer is Adam (bias-corrected moments, beta1=0.9, beta2=0.999,
eps=1e-8) on mean batch loss with global-norm gradient clipping. Adam folds
its bias corrections into two scalars, so it matches the textbook formula
to the rounding of the parameters' dtype, not bitwise. The global norm is
one ``np.dot`` per gradient tensor in the gradient's own dtype; only when
that is not finite is it taken again from float64 copies, so a huge but
finite float32 gradient is clipped, not taken for divergence. The word
embeddings' gradient is a ``RowGrad`` of the rows a minibatch read: the norm
sums those rows, and Adam adds their gradient terms there alone while still
decaying and moving every row, bitwise the dense update. After each
epoch the selection metric is computed on the validation set; the returned
model is the checkpoint with the best validation metric, earlier epoch on
ties. Runs are deterministic for a fixed seed. A minibatch whose loss or
gradient norm is not finite raises ``DivergenceError`` naming its epoch and
batch, before the optimizer step, so the parameters never take a NaN.

Model file layout: magic "VALB", u32 format version, u32-length-prefixed
UTF-8 JSON metadata (hyperparams, mode, tag ordering, vocabularies), then
named tensors (u16 name length + name, u8 rank, u32 dims, float32
little-endian row-major data), and a trailing 8-byte BLAKE2b checksum of
all preceding bytes.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .corpus import AnnotatedLog, write_atomic
from .embed import CharVocab, WordVocab, vocab_index
from .errors import ChecksumError, DivergenceError, FormatError, TagError, VersionError
from .evaluate import general_accuracy, variable_aware_accuracy
from .tagger import (
    FROZEN_SCORE,
    Hyperparams,
    RowGrad,
    TaggerModel,
    _padded,
    check_field_types,
    decode,
    loss_and_gradients,
    param_shapes,
    token_table,
)
from .taxonomy import tag_vocabulary

MAGIC = b"VALB"
FORMAT_VERSION = 1

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # Adam's moment decays and denominator term

VARIABLE_AWARE = "variable_aware_accuracy"
GENERAL = "general_accuracy"


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 30
    batch_size: int = 8
    learning_rate: float = 1e-3
    gradient_clip_norm: float = 5.0
    seed: int = 42
    freeze_word_embeddings: bool = False
    selection_metric: str = VARIABLE_AWARE

    def __post_init__(self) -> None:
        check_field_types(self)
        if self.epochs < 1 or self.batch_size < 1 or not 0 < self.learning_rate < np.inf:
            raise ValueError("invalid training configuration")
        if not 0 <= self.gradient_clip_norm < np.inf:  # 0 means no clipping
            raise ValueError("gradient_clip_norm must be finite and >= 0")
        if self.selection_metric not in (VARIABLE_AWARE, GENERAL):
            raise ValueError(f"unknown selection metric: {self.selection_metric!r}")


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    train_loss: float
    val_metric: float


class Adam:
    def __init__(self, params: dict[str, np.ndarray], lr: float):
        self.lr = lr
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray | RowGrad]) -> None:
        """One update of every parameter named in ``grads``.

        A ``RowGrad`` is a gradient that is zero outside its rows. Adam stays
        dense there: every row's moments decay and every row moves, since an
        unread row's m is not zero once it has been read. Only the
        ``(1-beta1)*g`` and ``(1-beta2)*g*g`` terms are added at the rows
        alone; elsewhere they are +0.0, and adding +0.0 leaves a moment as it
        is (m and v are never -0.0), so the step is bitwise the dense one.

        No parameter is written in place: each new value is a new array in
        ``params``, so the arrays a decoded model holds never change.
        """
        self.t += 1
        bc1 = 1.0 - BETA1**self.t
        bc2 = 1.0 - BETA2**self.t
        # lr * (m/bc1) / (sqrt(v/bc2) + eps) with the bias corrections folded
        # into two scalars, a * m / (sqrt(v) + eps'): m and v in place, one
        # temporary, which becomes the new parameter, and 12 passes per tensor
        a = self.lr * math.sqrt(bc2) / bc1
        eps = EPS * math.sqrt(bc2)
        for k, g in grads.items():
            m, v = self.m[k], self.v[k]
            m *= BETA1
            v *= BETA2
            if isinstance(g, RowGrad):
                rows, g = g
                m[rows] += g * (1.0 - BETA1)
                v[rows] += g * (1.0 - BETA2) * g
                tmp = np.sqrt(v)
            else:
                tmp = np.multiply(g, 1.0 - BETA1)
                m += tmp
                np.multiply(g, 1.0 - BETA2, out=tmp)
                tmp *= g
                v += tmp
                np.sqrt(v, out=tmp)
            tmp += eps
            np.divide(m, tmp, out=tmp)
            tmp *= a
            params[k] = np.subtract(params[k], tmp, out=tmp)


def clip_global_norm(grads: dict[str, np.ndarray | RowGrad], max_norm: float) -> float:
    """Scale ``grads`` in place to a global L2 norm of at most ``max_norm``
    (no clipping when it is 0) and return the norm before clipping; a
    gradient that is not finite is left as it is.

    The squared norm is one ``np.dot`` per tensor in the gradient's own
    dtype, summed as Python floats; a ``RowGrad`` counts and scales its
    rows' values, since the rest of its gradient is zero. When that total is
    not finite (float32 squares overflow once the norm passes about 1.8e19,
    or an entry is NaN or inf) it is summed again from float64 copies, so a
    huge but finite gradient still gets a finite norm and is clipped.
    """
    arrays = [g.values if isinstance(g, RowGrad) else g for g in grads.values()]
    with np.errstate(over="ignore", invalid="ignore"):  # retried in float64 below
        total = math.sqrt(sum(float(np.dot(g.ravel(), g.ravel())) for g in arrays))
    if not math.isfinite(total):
        total = math.sqrt(sum(float((g.astype(np.float64) ** 2).sum()) for g in arrays))
    if 0 < max_norm < total < np.inf:
        scale = max_norm / total
        for g in arrays:
            g *= scale
    return total


def _val_metric(model: TaggerModel, val: list[AnnotatedLog], metric: str) -> float:
    tags = decode(model, [log.tokens for log in val])
    preds = [AnnotatedLog(log.tokens, tuple(t)) for log, t in zip(val, tags)]
    fn = variable_aware_accuracy if metric == VARIABLE_AWARE else general_accuracy
    return fn(preds, val)


@np.errstate(over="ignore", invalid="ignore")
def train(
    init: TaggerModel,
    train_set: list[AnnotatedLog],
    val_set: list[AnnotatedLog],
    cfg: TrainConfig,
) -> tuple[TaggerModel, list[EpochStats]]:
    """Train from ``init``; return the best checkpoint and per-epoch history.

    ``init`` is left as it is: the working model starts with ``init``'s
    arrays, and Adam puts every update in a new array, so nothing is
    copied; a checkpoint is a model over the arrays of its epoch, and a
    tensor training never updates (the frozen ``word_emb``) is ``init``'s
    own array. Validation decodes each epoch's model, which makes its
    tensors read-only. The run has numpy's overflow and invalid-value
    warnings off: a loss or gradient norm that is not finite raises
    ``DivergenceError``, and that is the report. Raises TagError, before
    training, if either set holds a tag outside the model's alphabet."""
    if not train_set or not val_set:
        raise ValueError("train and validation sets must be non-empty")
    alphabet = set(init.tags)
    for name, logs in (("training", train_set), ("validation", val_set)):
        foreign = next((t for log in logs for t in log.tags if t not in alphabet), None)
        if foreign is not None:
            raise TagError(f"the {name} set holds the tag {foreign}, which is not in "
                           f"the alphabet of a {init.mode} model")
    model = replace(init, params=dict(init.params))
    table, ids, lengths = token_table(model, [log.tokens for log in train_set])
    gold = np.fromiter((model.tag_index(t) for log in train_set for t in log.tags),
                       dtype=np.int64, count=len(ids))
    starts = np.cumsum(lengths) - lengths

    opt = Adam(model.params, cfg.learning_rate)
    rng = np.random.default_rng(cfg.seed)
    history: list[EpochStats] = []
    best: TaggerModel | None = None
    best_metric = -np.inf

    for epoch in range(cfg.epochs):
        order = rng.permutation(len(train_set))
        losses = []
        for b_idx, lo in enumerate(range(0, len(order), cfg.batch_size)):
            batch = order[lo : lo + cfg.batch_size]
            n = lengths[batch]
            dropout_seed = cfg.seed * 1_000_003 + epoch * 10_007 + b_idx * 131
            loss, grads = loss_and_gradients(
                model, table, _padded(ids, starts[batch], n), n,
                _padded(gold, starts[batch], n), dropout_seed,
            )
            if not np.isfinite(loss):
                raise DivergenceError(
                    f"non-finite loss at epoch {epoch}, batch {b_idx}"
                )
            if cfg.freeze_word_embeddings:  # clip and Adam skip it, so it never moves
                del grads["word_emb"]
            if not np.isfinite(clip_global_norm(grads, cfg.gradient_clip_norm)):
                raise DivergenceError(
                    f"non-finite gradient at epoch {epoch}, batch {b_idx}"
                )
            opt.step(model.params, grads)
            losses.append(loss)
        metric = _val_metric(model, val_set, cfg.selection_metric)
        history.append(EpochStats(epoch, float(np.mean(losses)), metric))
        if best is None or metric > best_metric:
            best, best_metric = replace(model, params=dict(model.params)), metric
    return best, history


def finetune(
    pretrained: TaggerModel,
    target_train: list[AnnotatedLog],
    target_val: list[AnnotatedLog],
    cfg: TrainConfig,
) -> tuple[TaggerModel, list[EpochStats]]:
    """Continue optimization from pretrained weights on a small target sample.

    The pretrained vocabularies are reused; target tokens outside them go
    through UNK and the character channel. As with ``train``,
    ``pretrained`` is left as it is and shares the arrays training never
    updates with the tuned model.
    """
    return train(pretrained, target_train, target_val, cfg)


# ---------------------------------------------------------------------------
# serialization


def _metadata(model: TaggerModel) -> dict:
    return {
        "format": FORMAT_VERSION,
        "mode": model.mode,
        "n_tags": model.n_tags,
        "hyperparams": asdict(model.hp),
        "tag_order": [str(t) for t in model.tags],
        "word_vocab": {"words": model.word_vocab.words(),
                       "min_freq": model.word_vocab.min_freq},
        "char_vocab": {"chars": model.char_vocab.chars()},
    }


def save_model(model: TaggerModel, path: str | Path) -> None:
    """Write the model file with ``write_atomic``."""
    blob = bytearray()
    blob += MAGIC
    blob += struct.pack("<I", FORMAT_VERSION)
    meta = json.dumps(_metadata(model), ensure_ascii=False).encode("utf-8")
    blob += struct.pack("<I", len(meta))
    blob += meta
    blob += struct.pack("<I", len(model.params))
    for name in sorted(model.params):
        arr = np.ascontiguousarray(model.params[name], dtype="<f4")
        nb = name.encode("utf-8")
        blob += struct.pack("<H", len(nb))
        blob += nb
        blob += struct.pack("<B", arr.ndim)
        blob += struct.pack(f"<{arr.ndim}I", *arr.shape)
        blob += arr.tobytes()
    blob += hashlib.blake2b(bytes(blob), digest_size=8).digest()
    write_atomic(path, bytes(blob))


def _is_str_list(value: object, max_len: int | None = None) -> bool:
    """A list of distinct non-empty strings (each at most ``max_len`` long)."""
    return (
        isinstance(value, list)
        and all(isinstance(v, str) and v and (max_len is None or len(v) <= max_len)
                for v in value)
        and len(set(value)) == len(value)
    )


def _read_metadata(meta: object, path: str | Path) -> tuple[Hyperparams, str, WordVocab, CharVocab]:
    """Hyperparameters, mode and vocabularies from checked model metadata."""
    if not isinstance(meta, dict):
        raise FormatError(f"{path}: metadata is not a JSON object")
    missing = sorted({"format", "mode", "n_tags", "hyperparams", "tag_order",
                      "word_vocab", "char_vocab"} - set(meta))
    if missing:
        raise FormatError(f"{path}: metadata lacks {', '.join(missing)}")
    if meta["format"] != FORMAT_VERSION:
        raise FormatError(f"{path}: metadata format {meta['format']!r} != {FORMAT_VERSION}")
    raw_hp = meta["hyperparams"]
    names = [f.name for f in fields(Hyperparams)]
    if not isinstance(raw_hp, dict) or set(raw_hp) != set(names):
        raise FormatError(f"{path}: hyperparams must have exactly {', '.join(names)}")
    mode = meta["mode"]
    try:
        hp = Hyperparams(**raw_hp)
        tags = tag_vocabulary(mode)  # raises ValueError for an unknown mode
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    if meta["tag_order"] != [str(t) for t in tags]:
        raise FormatError(
            f"{path}: stored tag ordering does not match the alphabet for mode {mode!r}"
        )
    if meta["n_tags"] != len(tags):
        raise FormatError(f"{path}: n_tags {meta['n_tags']!r} != {len(tags)} for mode {mode!r}")
    wv_meta, cv_meta = meta["word_vocab"], meta["char_vocab"]
    if not (isinstance(wv_meta, dict) and set(wv_meta) == {"words", "min_freq"}
            and _is_str_list(wv_meta["words"])
            and isinstance(wv_meta["min_freq"], int) and wv_meta["min_freq"] >= 1):
        raise FormatError(f"{path}: word_vocab must hold distinct words and a min_freq >= 1")
    if not (isinstance(cv_meta, dict) and set(cv_meta) == {"chars"}
            and _is_str_list(cv_meta["chars"], max_len=1)):
        raise FormatError(f"{path}: char_vocab must hold distinct single characters")
    wv = WordVocab(vocab_index(wv_meta["words"]), wv_meta["min_freq"])
    cv = CharVocab(vocab_index(cv_meta["chars"]))
    return hp, mode, wv, cv


def load_model(path: str | Path) -> TaggerModel:
    """Read a model file.

    Verifies magic, version and checksum, then every metadata key and every
    tensor's name and shape against the stored hyperparameters, vocabulary
    sizes and tag alphabet, that every tensor value is finite, and that the
    IOB-forbidden entries of ``trans`` and ``start`` hold ``FROZEN_SCORE``;
    any mismatch raises ``FormatError``.

    Like every model, the loaded one keeps what decoding derives from its
    tensors, a token store among it, across calls; its first decode makes
    the tensors read-only, so an in-place write raises after it.
    """
    blob = Path(path).read_bytes()
    if len(blob) < 16 or blob[:4] != MAGIC:
        raise FormatError(f"{path}: not a model file (bad magic)")
    digest = hashlib.blake2b(blob[:-8], digest_size=8).digest()
    if digest != blob[-8:]:
        raise ChecksumError(f"{path}: checksum mismatch (truncated or corrupted)")
    body = memoryview(blob)[:-8]
    off = 4
    (version,) = struct.unpack_from("<I", body, off)
    off += 4
    if version != FORMAT_VERSION:
        raise VersionError(f"{path}: unknown format version {version}")
    params: dict[str, np.ndarray] = {}
    try:
        (meta_len,) = struct.unpack_from("<I", body, off)
        off += 4
        meta = json.loads(bytes(body[off : off + meta_len]).decode("utf-8"))
        off += meta_len
        (n_tensors,) = struct.unpack_from("<I", body, off)
        off += 4
        for _ in range(n_tensors):
            (name_len,) = struct.unpack_from("<H", body, off)
            off += 2
            name = bytes(body[off : off + name_len]).decode("utf-8")
            off += name_len
            (ndim,) = struct.unpack_from("<B", body, off)
            off += 1
            shape = struct.unpack_from(f"<{ndim}I", body, off)
            off += 4 * ndim
            count = int(np.prod(shape)) if ndim else 1
            arr = np.frombuffer(body, dtype="<f4", count=count, offset=off).reshape(shape)
            off += 4 * count
            if name in params:
                raise FormatError(f"{path}: tensor {name} stored twice")
            params[name] = arr.copy()
    except (struct.error, ValueError) as exc:  # includes JSON and UTF-8 errors
        raise FormatError(f"{path}: malformed model body: {exc}") from exc
    if off != len(body):
        raise FormatError(f"{path}: trailing bytes after tensor section")

    model = TaggerModel(*_read_metadata(meta, path), params)
    expected = param_shapes(model.hp, len(model.word_vocab), len(model.char_vocab), model.n_tags)
    if set(params) != set(expected):
        raise FormatError(
            f"{path}: tensors {sorted(params)} != expected {sorted(expected)}"
        )
    for name, shape in expected.items():
        if params[name].shape != shape:
            raise FormatError(
                f"{path}: tensor {name} has shape {params[name].shape}, but the "
                f"hyperparameters and vocabularies give {shape}"
            )
        if not np.isfinite(params[name]).all():
            raise FormatError(f"{path}: tensor {name} holds a value that is not finite")
    for name, frozen in (("trans", model.frozen_trans), ("start", model.frozen_start)):
        if (params[name][frozen] != FROZEN_SCORE).any():
            raise FormatError(
                f"{path}: tensor {name} holds an IOB-forbidden entry that is not "
                f"{FROZEN_SCORE}"
            )
    return model
