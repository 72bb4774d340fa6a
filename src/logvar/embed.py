"""Vocabularies and numeric encoding of logs for the tagger.

Word lookup is lowercased (public pretrained vectors are lowercased);
character lookup preserves case, since casing is a character-level signal.
Index 0 is PAD and index 1 is UNK in both vocabularies; encoding is total,
unseen symbols map to UNK.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import AnnotatedLog, read_lines
from .errors import DimensionMismatch, EmptyInput, FormatError

PAD = 0
UNK = 1
_RESERVED = ("<pad>", "<unk>")


@dataclass(frozen=True)
class WordVocab:
    index: dict[str, int]
    min_freq: int

    def __len__(self) -> int:
        return len(self.index) + len(_RESERVED)

    def lookup(self, token: str) -> int:
        return self.index.get(token.lower(), UNK)

    def words(self) -> list[str]:
        """Vocabulary words in index order (reserved entries excluded)."""
        return sorted(self.index, key=self.index.get)


@dataclass(frozen=True)
class CharVocab:
    index: dict[str, int]

    def __len__(self) -> int:
        return len(self.index) + len(_RESERVED)

    def lookup(self, char: str) -> int:
        return self.index.get(char, UNK)

    def chars(self) -> list[str]:
        return sorted(self.index, key=self.index.get)


def vocab_index(symbols: Sequence[str]) -> dict[str, int]:
    """Symbol -> id, numbered in order after the reserved PAD and UNK ids."""
    return {s: i + len(_RESERVED) for i, s in enumerate(symbols)}


@dataclass(frozen=True)
class EncodedLog:
    word_ids: np.ndarray  # (T,) int
    char_ids: np.ndarray  # (T, longest kept token) int, PAD-filled


def build_vocabs(train: list[AnnotatedLog], min_freq: int = 1) -> tuple[WordVocab, CharVocab]:
    """Vocabularies from a training set.

    Words are lowercased and kept when they occur at least ``min_freq``
    times; the char vocabulary keeps every character seen, case-preserved.
    An empty training set raises EmptyInput.
    """
    if not train:
        raise EmptyInput("the training set holds no logs")
    if min_freq < 1:
        raise ValueError("min_freq must be >= 1")
    word_counts: Counter[str] = Counter()
    chars: set[str] = set()
    for log in train:
        for tok in log.tokens:
            word_counts[tok.lower()] += 1
            chars.update(tok)
    words = sorted(w for w, n in word_counts.items() if n >= min_freq)
    return WordVocab(vocab_index(words), min_freq), CharVocab(vocab_index(sorted(chars)))


def load_word_vectors(
    path: str | Path, vocab: WordVocab, dim: int, seed: int = 0
) -> tuple[np.ndarray, float]:
    """Embedding matrix initialized from a text vector file.

    Each line is a word and its ``dim`` values, separated by single spaces;
    trailing whitespace is ignored. A first line of exactly two integers is
    the ``<count> <dim>`` header of word2vec and fastText ``.vec`` files,
    and its dim must be ``dim``. A line whose lowercased word is in the
    vocabulary is copied to its row (the last such line wins) and must hold
    finite float32 values; the other rows (including UNK) are uniform in
    [-0.25, 0.25] and PAD is zeroed. Returns the (|vocab|, dim) matrix and
    the coverage ratio, distinct rows copied / (|vocab| - 2). The file is
    streamed; errors name its path and line.
    """
    rng = np.random.default_rng(seed)
    matrix = rng.uniform(-0.25, 0.25, size=(len(vocab), dim)).astype(np.float32)
    matrix[PAD] = 0.0
    found: set[int] = set()
    for lineno, line in enumerate(read_lines(path), start=1):
        parts = line.rstrip().split(" ")  # fastText ends each line with a space
        if lineno == 1 and len(parts) == 2 and all(part.isdecimal() for part in parts):
            if int(parts[1]) != dim:
                raise DimensionMismatch(
                    f"{path}: line 1: header gives dim {int(parts[1])}, expected {dim}"
                )
            continue
        if len(parts) < 2:
            raise FormatError(f"{path}: line {lineno}: not a word-vector line")
        word, values = parts[0], parts[1:]
        if len(values) != dim:
            raise DimensionMismatch(
                f"{path}: line {lineno}: vector has {len(values)} entries, expected {dim}"
            )
        idx = vocab.index.get(word.lower())
        if idx is None:
            continue
        try:
            with np.errstate(over="ignore"):
                row = np.asarray([float(v) for v in values], dtype=np.float32)
        except ValueError as exc:
            raise FormatError(f"{path}: line {lineno}: {exc}") from exc
        if not np.isfinite(row).all():
            raise FormatError(f"{path}: line {lineno}: a value is not a finite float32")
        matrix[idx] = row
        found.add(idx)
    coverage = len(found) / max(len(vocab) - len(_RESERVED), 1)
    return matrix, coverage


def encode_log(
    tokens: Sequence[str], wv: WordVocab, cv: CharVocab, max_word_len: int
) -> EncodedLog:
    """Word ids and char-id rows for a list of tokens, each truncated to
    ``max_word_len`` characters and right-padded to the longest (one column at least)."""
    if max_word_len < 1:
        raise ValueError("max_word_len must be >= 1")
    t = len(tokens)
    word_ids = np.fromiter((wv.lookup(tok) for tok in tokens), dtype=np.int64, count=t)
    kept = [tok[:max_word_len] for tok in tokens]
    lengths = np.fromiter(map(len, kept), dtype=np.intp, count=t)
    filled = np.arange(lengths.max(initial=1)) < lengths[:, None]
    char_ids = np.full(filled.shape, PAD, dtype=np.int64)
    lookup = cv.index.get  # CharVocab.lookup without a method call per character
    char_ids[filled] = [lookup(ch, UNK) for tok in kept for ch in tok]
    return EncodedLog(word_ids, char_ids)
