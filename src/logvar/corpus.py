"""Tokenization, file I/O, template-alignment annotation, splits.

Every text file the toolkit reads (annotation, word-vector, config and
structured CSV files, raw log lines) goes through ``read_lines``: UTF-8,
split on "\n" alone with one trailing "\r" stripped per line, so a lone
"\r", a form feed or a Unicode line separator stays inside its line. A
byte that is not UTF-8, and every error a reader finds, raises naming the
file and line ("{path}: line N: ..."). Every file the toolkit writes goes
through ``write_atomic``, which creates the parent directory and renames a
finished temporary file over the target, so no reader sees half a file.

Annotation file format: UTF-8 text, one "token<TAB>tag" per line, logs
separated by exactly one blank line, lines starting with "# " are comments.
"""

from __future__ import annotations

import math
import re
from collections.abc import Iterator
from dataclasses import dataclass
from decimal import Decimal
from pathlib import Path

import numpy as np

from .errors import AlignmentError, EmptyLog, FormatError, IOBError, TagError
from .taxonomy import BINARY_CATEGORY, Tag, OUTSIDE, check_iob

DEFAULT_WILDCARD = "<*>"
WILDCARDS = (DEFAULT_WILDCARD, "*")

# Read with errors="surrogateescape", each byte that is not UTF-8 becomes
# one of these lone surrogates, which decoding valid UTF-8 never yields.
_UNDECODED = re.compile("[\udc80-\udcff]")


def read_lines(path: str | Path) -> Iterator[str]:
    """Stream a text file's lines, split on "\n" alone, less one trailing
    "\r" each; a byte that is not UTF-8 raises FormatError."""
    with open(path, encoding="utf-8", errors="surrogateescape", newline="\n") as fh:
        for lineno, line in enumerate(fh, 1):
            if _UNDECODED.search(line):
                raise FormatError(f"{path}: line {lineno}: not UTF-8 text")
            yield line.removesuffix("\n").removesuffix("\r")


def write_atomic(path: str | Path, data: str | bytes) -> None:
    """Write ``data`` (a str as UTF-8) to ``path``: create the parent
    directory, write ``<path>.tmp``, then rename it over ``path``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(data.encode("utf-8") if isinstance(data, str) else data)
    tmp.replace(path)


def tokenize(raw: str) -> list[str]:
    """Split a log message content on whitespace runs.

    Punctuation stays attached to tokens and casing is preserved; the
    message header (timestamp, level, ...) is assumed already stripped.
    """
    tokens = raw.split()
    if not tokens:
        raise EmptyLog("log message contains no non-whitespace characters")
    return tokens


@dataclass(frozen=True)
class AnnotatedLog:
    """A tokenized log message with one IOB tag per token."""

    tokens: tuple[str, ...]
    tags: tuple[Tag, ...]

    def __post_init__(self) -> None:
        if len(self.tokens) != len(self.tags):
            raise ValueError(
                f"{len(self.tokens)} tokens but {len(self.tags)} tags"
            )
        if len(self.tokens) == 0:
            raise ValueError("empty log")
        for tok in self.tokens:
            if tok.split() != [tok]:  # empty, or holds whitespace
                raise ValueError(f"invalid token: {tok!r}")
        check_iob(list(self.tags))

    @property
    def text(self) -> str:
        return " ".join(self.tokens)


def read_annotations(path: str | Path) -> list[AnnotatedLog]:
    """Read annotated logs from a CoNLL-style file.

    A malformed line, an unknown tag or an IOB-ill-formed block raises,
    naming the file and line.
    """
    logs: list[AnnotatedLog] = []
    tokens: list[str] = []
    tags: list[Tag] = []

    def flush(lineno: int) -> None:
        if tokens:
            try:
                logs.append(AnnotatedLog(tuple(tokens), tuple(tags)))
            except (ValueError, IOBError) as exc:
                raise IOBError(f"{path}: line {lineno}: {exc}") from exc
            tokens.clear()
            tags.clear()

    lineno = 0
    for lineno, line in enumerate(read_lines(path), start=1):
        if line.startswith("# "):
            continue
        if not line.strip():
            flush(lineno)
            continue
        parts = line.split("\t")
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise FormatError(f"{path}: line {lineno}: expected 'token<TAB>tag', got {line!r}")
        try:
            tag = Tag.parse(parts[1])
        except TagError as exc:
            raise TagError(f"{path}: line {lineno}: {exc}") from exc
        tokens.append(parts[0])
        tags.append(tag)
    flush(lineno)
    return logs


def write_annotations(logs: list[AnnotatedLog], path: str | Path) -> None:
    """Write annotated logs in the format read_annotations consumes."""
    write_atomic(path, "\n".join(
        "".join(f"{tok}\t{tag}\n" for tok, tag in zip(log.tokens, log.tags)) for log in logs
    ))


def derive_binary_annotations(content: str, template: str) -> AnnotatedLog:
    """Align content tokens against a wildcard template, tagging variables.

    Static template tokens must match content tokens exactly, in order;
    each wildcard ("<*>" or "*") absorbs a run of one or more content
    tokens, tagged B-VAR then I-VAR. Of the alignments that exist, the one
    taken gives each wildcard, left to right, the fewest tokens.
    """
    ctoks = tokenize(content)
    ttoks = tokenize(template)
    n, m = len(ctoks), len(ttoks)
    # ok[i][j]: content tokens i.. align with template tokens j..
    ok = [[False] * (m + 1) for _ in range(n + 1)]
    ok[n][m] = True
    for i in range(n - 1, -1, -1):
        for j in range(m - 1, -1, -1):
            if ttoks[j] in WILDCARDS:
                # the wildcard takes token i, then ends or takes more
                ok[i][j] = ok[i + 1][j + 1] or ok[i + 1][j]
            else:
                ok[i][j] = ctoks[i] == ttoks[j] and ok[i + 1][j + 1]
    if not ok[0][0]:
        raise AlignmentError(
            f"the {n} content tokens do not align with template {template!r}: each "
            f"static token must match in order and each wildcard take one or more tokens"
        )
    tags: list[Tag] = []
    i = 0
    for j, t in enumerate(ttoks):
        if t in WILDCARDS:
            k = 1
            while not ok[i + k][j + 1]:
                k += 1
            tags.append(Tag("B", BINARY_CATEGORY))
            tags.extend([Tag("I", BINARY_CATEGORY)] * (k - 1))
            i += k
        else:
            tags.append(OUTSIDE)
            i += 1
    return AnnotatedLog(tuple(ctoks), tuple(tags))


@dataclass(frozen=True)
class SplitSpec:
    train_frac: float
    val_frac: float
    test_frac: float
    seed: int

    def __post_init__(self) -> None:
        for f in (self.train_frac, self.val_frac, self.test_frac):
            if not 0.0 < f < 1.0:
                raise ValueError(f"split fraction {f} outside (0, 1)")
        total = self.train_frac + self.val_frac + self.test_frac
        if not math.isclose(total, 1.0, abs_tol=1e-9):
            raise ValueError(f"split fractions sum to {total}, expected 1.0")

    def sizes(self, n: int) -> tuple[int, int]:
        """The train and val sizes of a split of ``n`` logs: floor(frac * n)
        of each fraction read as the decimal it prints as, in exact integer
        arithmetic, so that 0.7 of 90 is 63 (0.7 * 90 is 62.99... in floats)."""
        ratios = (Decimal(repr(f)).as_integer_ratio() for f in (self.train_frac, self.val_frac))
        return tuple(n * num // den for num, den in ratios)


def split_dataset(
    logs: list[AnnotatedLog], spec: SplitSpec
) -> tuple[list[AnnotatedLog], list[AnnotatedLog], list[AnnotatedLog]]:
    """Random disjoint train/val/test partition, deterministic per seed.

    Train and val get ``spec.sizes(N)`` logs, floor(frac * N) each; the
    remainder goes to test.
    """
    if len(logs) < 5:
        raise ValueError("need at least 5 logs to split")
    n = len(logs)
    order = np.random.default_rng(spec.seed).permutation(n)
    n_train, n_val = spec.sizes(n)
    train = [logs[k] for k in order[:n_train]]
    val = [logs[k] for k in order[n_train : n_train + n_val]]
    test = [logs[k] for k in order[n_train + n_val :]]
    return train, val, test
