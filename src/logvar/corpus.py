"""Tokenization, annotation file I/O, template-alignment annotation, splits.

Annotation file format: UTF-8 text, one "token<TAB>tag" per line, logs
separated by exactly one blank line, lines starting with "# " are comments.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import AlignmentError, EmptyLog, FormatError, IOBError, TagError
from .taxonomy import BINARY_CATEGORY, Tag, OUTSIDE, check_iob

WILDCARDS = ("<*>", "*")

# Read with errors="surrogateescape", each byte that is not UTF-8 becomes
# one of these lone surrogates, which decoding valid UTF-8 never yields.
_UNDECODED = re.compile("[\udc80-\udcff]")


def check_utf8(path: str | Path, lineno: int, line: str) -> None:
    """Raise FormatError naming the file and line if ``line`` held non-UTF-8 bytes.

    ``line`` must come from a file opened with errors="surrogateescape".
    """
    if _UNDECODED.search(line):
        raise FormatError(f"{path}: line {lineno}: not UTF-8 text")


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


def read_annotations(path: str | Path, strict: bool = True) -> list[AnnotatedLog]:
    """Read annotated logs from a CoNLL-style file.

    With ``strict`` (default), any malformed line, unknown tag, or
    IOB-ill-formed block raises; otherwise offending blocks are skipped
    and the rest returned. Bytes that are not UTF-8 raise FormatError in
    either mode.
    """
    logs: list[AnnotatedLog] = []
    tokens: list[str] = []
    tags: list[Tag] = []
    block_bad = False

    def flush(lineno: int) -> None:
        nonlocal block_bad
        if tokens:
            if not block_bad:
                try:
                    logs.append(AnnotatedLog(tuple(tokens), tuple(tags)))
                except (ValueError, IOBError) as exc:
                    if strict:
                        raise IOBError(f"line {lineno}: {exc}") from exc
            tokens.clear()
            tags.clear()
        block_bad = False

    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        lineno = 0
        for lineno, line in enumerate(fh, start=1):
            check_utf8(path, lineno, line)
            line = line.rstrip("\n")
            if line.startswith("# "):
                continue
            if not line.strip():
                flush(lineno)
                continue
            parts = line.split("\t")
            if len(parts) != 2 or not parts[0] or not parts[1]:
                if strict:
                    raise FormatError(f"line {lineno}: expected 'token<TAB>tag', got {line!r}")
                block_bad = True
                continue
            try:
                tag = Tag.parse(parts[1])
            except TagError as exc:
                if strict:
                    raise TagError(f"line {lineno}: {exc}") from exc
                block_bad = True
                continue
            tokens.append(parts[0])
            tags.append(tag)
        flush(lineno)
    return logs


def write_annotations(logs: list[AnnotatedLog], path: str | Path) -> None:
    """Write annotated logs in the format read_annotations consumes."""
    tmp = Path(path).with_suffix(Path(path).suffix + ".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        for i, log in enumerate(logs):
            if i:
                fh.write("\n")
            for tok, tag in zip(log.tokens, log.tags):
                fh.write(f"{tok}\t{tag}\n")
    tmp.replace(path)


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


def split_dataset(
    logs: list[AnnotatedLog], spec: SplitSpec
) -> tuple[list[AnnotatedLog], list[AnnotatedLog], list[AnnotatedLog]]:
    """Random disjoint train/val/test partition, deterministic per seed.

    Train and val get floor(frac * N) logs each; the remainder goes to test.
    """
    if len(logs) < 5:
        raise ValueError("need at least 5 logs to split")
    n = len(logs)
    order = np.random.default_rng(spec.seed).permutation(n)
    n_train = int(spec.train_frac * n)
    n_val = int(spec.val_frac * n)
    train = [logs[k] for k in order[:n_train]]
    val = [logs[k] for k in order[n_train : n_train + n_val]]
    test = [logs[k] for k in order[n_train + n_val :]]
    return train, val, test
