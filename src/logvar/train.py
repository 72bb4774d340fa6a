"""Training loop, fine-tuning, checkpoint selection, and model files.

The optimizer is Adam (bias-corrected moments, beta1=0.9, beta2=0.999,
eps=1e-8) on mean batch loss with global-norm gradient clipping. Adam folds
its bias corrections into two scalars, so it matches the textbook formula
to the rounding of the parameters' dtype, not bitwise. The global norm is
one ``np.dot`` per gradient tensor in the gradient's own dtype; only when
that is not finite is it taken again from float64 copies, so a huge but
finite float32 gradient is clipped, not taken for divergence. The word
embeddings' gradient is a ``RowGrad`` of the rows a minibatch read, and the
norm sums those rows. Adam has one update, in which a dense gradient is a
gradient at every row: it adds a gradient's terms at its rows alone and
decays and moves every row, so a ``RowGrad`` step is bitwise the step on
its dense gradient. After each epoch the selection metric is computed on
the validation set; the returned model is the checkpoint with the best
validation metric, earlier epoch on ties. Runs are deterministic for a
fixed seed. A minibatch whose loss or gradient norm is not finite raises
``DivergenceError`` naming its epoch and batch, before the optimizer step,
so no NaN gradient reaches a parameter. A finite step can still overflow a
parameter to inf; the next minibatch's loss, or the epoch's validation,
then raises ``DivergenceError``.

Model file layout: magic "VALB", u32 format version, u32-length-prefixed
UTF-8 JSON metadata (hyperparams, mode, tag ordering, vocabularies), u32
tensor count, then named tensors (u16 name length + UTF-8 name, u8 rank,
u32 dims, float32 little-endian row-major data), and a trailing 8-byte
BLAKE2b checksum of all preceding bytes. Every integer is little-endian.
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
from .errors import (
    ChecksumError, DivergenceError, EmptyInput, FormatError, NonFiniteScores, TagError,
    VersionError,
)
from .evaluate import general_accuracy, variable_aware_accuracy
from .tagger import (
    FROZEN_SCORE,
    Hyperparams,
    RowGrad,
    TaggerModel,
    _padded,
    batch_dropout_seed,
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

# the metrics(preds, golds) a checkpoint may be selected by, each named after its function
SELECTION_METRICS = {f.__name__: f for f in (variable_aware_accuracy, general_accuracy)}


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 30
    batch_size: int = 8
    learning_rate: float = 1e-3
    gradient_clip_norm: float = 5.0
    seed: int = 42
    freeze_word_embeddings: bool = False
    selection_metric: str = variable_aware_accuracy.__name__

    def __post_init__(self) -> None:
        check_field_types(self)
        if self.epochs < 1 or self.batch_size < 1 or not 0 < self.learning_rate < np.inf:
            raise ValueError("invalid training configuration")
        if not 0 <= self.gradient_clip_norm < np.inf:  # 0 means no clipping
            raise ValueError("gradient_clip_norm must be finite and >= 0")
        if self.selection_metric not in SELECTION_METRICS:
            raise ValueError(f"unknown selection metric: {self.selection_metric!r}")


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    train_loss: float
    val_metric: float


class Adam:
    def __init__(self, params: dict[str, np.ndarray], lr: float):
        """An optimizer of the tensors in ``params``, each with its moments at zero."""
        self.lr = lr
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray | RowGrad]) -> None:
        """One update of every parameter named in ``grads``.

        One update serves both kinds of gradient: a ``RowGrad`` is a gradient
        that is zero outside its rows, and a dense gradient is a gradient at
        every row. Every row's moments decay and every row moves, since an
        unread row's m is not zero once it has been read. Only the
        ``(1-beta1)*g`` and ``(1-beta2)*g*g`` terms are added at the rows
        alone; elsewhere they are +0.0, and adding +0.0 leaves a moment as it
        is (m and v are never -0.0), so a ``RowGrad`` step is bitwise the step
        on its dense gradient.

        No parameter is written in place: each new value is a new array in
        ``params``, so the arrays a decoded model holds never change.
        """
        self.t += 1
        bc1 = 1.0 - BETA1**self.t
        bc2 = 1.0 - BETA2**self.t
        # lr * (m/bc1) / (sqrt(v/bc2) + eps) with the bias corrections folded
        # into two scalars, a * m / (sqrt(v) + eps'): m and v in place, one
        # temporary of g's size for the gradient terms and one that becomes
        # the new parameter, and 12 passes per tensor
        a = self.lr * math.sqrt(bc2) / bc1
        eps = EPS * math.sqrt(bc2)
        for k, g in grads.items():
            m, v = self.m[k], self.v[k]
            m *= BETA1
            v *= BETA2
            rows, g = g if isinstance(g, RowGrad) else (..., g)
            tmp = g * (1.0 - BETA1)
            m[rows] += tmp
            np.multiply(g, 1.0 - BETA2, out=tmp)
            tmp *= g
            v[rows] += tmp
            tmp = np.sqrt(v)
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
    return SELECTION_METRICS[metric](preds, val)


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
    own array. Every minibatch reads the working model's ``_prepared`` view,
    which makes its tensors read-only. The run has numpy's overflow and
    invalid-value warnings off: a loss, gradient norm or validation score
    that is not finite raises ``DivergenceError``, and that is the report.
    Raises EmptyInput, before training, if either set holds no logs (its
    ``which`` is "training" or "validation"), and TagError if either holds
    a tag outside the model's alphabet."""
    sets = (("training", train_set), ("validation", val_set))
    for name, logs in sets:
        if not logs:
            raise EmptyInput(f"the {name} set holds no logs", which=name)
    alphabet = set(init.tags)
    for name, logs in sets:
        foreign = next((t for log in logs for t in log.tags if t not in alphabet), None)
        if foreign is not None:
            raise TagError(f"the {name} set holds the tag {foreign}, which is not in "
                           f"the alphabet of a {init.mode} model")
    model = replace(init, params=dict(init.params))
    table, ids, lengths = token_table(model, [log.tokens for log in train_set])
    gold = np.fromiter((model.tag_index(t) for log in train_set for t in log.tags),
                       dtype=np.int64, count=len(ids))
    starts = np.cumsum(lengths) - lengths

    frozen = ("word_emb",) if cfg.freeze_word_embeddings else ()
    opt = Adam({k: v for k, v in model.params.items() if k not in frozen}, cfg.learning_rate)
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
            loss, grads = loss_and_gradients(
                model, table, _padded(ids, starts[batch], n), n,
                _padded(gold, starts[batch], n), batch_dropout_seed(cfg.seed, epoch, b_idx),
            )
            if not np.isfinite(loss):
                raise DivergenceError(f"non-finite loss at epoch {epoch}, batch {b_idx}")
            for name in frozen:  # clip and Adam skip it, so it never moves
                del grads[name]
            if not np.isfinite(clip_global_norm(grads, cfg.gradient_clip_norm)):
                raise DivergenceError(f"non-finite gradient at epoch {epoch}, batch {b_idx}")
            opt.step(model.params, grads)
            losses.append(loss)
        try:
            metric = _val_metric(model, val_set, cfg.selection_metric)
        except NonFiniteScores as exc:  # the epoch's last step overflowed a parameter
            raise DivergenceError(f"non-finite validation scores at epoch {epoch}") from exc
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
    meta = json.dumps(_metadata(model), ensure_ascii=False).encode("utf-8")
    parts = [MAGIC, struct.pack("<II", FORMAT_VERSION, len(meta)), meta,
             struct.pack("<I", len(model.params))]
    for name in sorted(model.params):
        arr = np.asarray(model.params[name], dtype="<f4", order="C")  # a scalar keeps rank 0
        nb = name.encode("utf-8")
        parts += [struct.pack(f"<H{len(nb)}sB{arr.ndim}I", len(nb), nb, arr.ndim, *arr.shape),
                  arr.tobytes()]
    blob = b"".join(parts)
    write_atomic(path, blob + hashlib.blake2b(blob, digest_size=8).digest())


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

    Verifies, in this order, the magic, the checksum (``ChecksumError``),
    the format version (``VersionError``), the body's layout, every metadata
    key, every tensor's name and shape against the stored hyperparameters,
    vocabulary sizes and tag alphabet, that every tensor value is finite,
    and that the IOB-forbidden entries of ``trans`` and ``start`` hold
    ``FROZEN_SCORE``. Every other mismatch raises ``FormatError``, which
    both named errors subclass.

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

    def take(fmt: str) -> tuple:
        """The little-endian ``fmt`` fields at the cursor, which moves past them."""
        nonlocal off
        values = struct.unpack_from("<" + fmt, body, off)
        off += struct.calcsize("<" + fmt)
        return values

    (version,) = take("I")
    if version != FORMAT_VERSION:
        raise VersionError(f"{path}: unknown format version {version}")
    params: dict[str, np.ndarray] = {}
    try:
        (meta_len,) = take("I")
        meta = json.loads(take(f"{meta_len}s")[0].decode("utf-8"))
        (n_tensors,) = take("I")
        for _ in range(n_tensors):
            (name_len,) = take("H")
            name = take(f"{name_len}s")[0].decode("utf-8")
            (ndim,) = take("B")
            shape = take(f"{ndim}I")
            # a scalar's count is 1, the product of ()
            arr = np.frombuffer(body, "<f4", int(np.prod(shape)), off).reshape(shape)
            off += arr.nbytes
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
