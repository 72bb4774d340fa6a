"""Tokenization, annotation file I/O, template-alignment annotation, splits.

Annotation file format: UTF-8 text, one "token<TAB>tag" per line, logs
separated by exactly one blank line, lines starting with "# " are comments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import AlignmentError, EmptyLog, FormatError, IOBError, TagError
from .taxonomy import BINARY_CATEGORY, Tag, OUTSIDE, check_iob

WILDCARDS = ("<*>", "*")


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
    and the rest returned.
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

    with open(path, encoding="utf-8") as fh:
        lineno = 0
        for lineno, line in enumerate(fh, start=1):
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
    tokens, tagged B-VAR then I-VAR. Alignment is greedy left-to-right:
    a wildcard takes the fewest tokens compatible with the next static
    anchor.
    """
    ctoks = tokenize(content)
    ttoks = tokenize(template)
    tags: list[Tag] = []
    i = 0
    j = 0
    while j < len(ttoks):
        t = ttoks[j]
        if t in WILDCARDS:
            anchor = ttoks[j + 1] if j + 1 < len(ttoks) else None
            taken = 0
            while i < len(ctoks):
                if anchor is not None:
                    # stop at the first anchor match once the wildcard
                    # has absorbed at least one token
                    if taken >= 1 and (anchor in WILDCARDS or ctoks[i] == anchor):
                        break
                elif taken >= 1:
                    break
                tags.append(Tag("B" if taken == 0 else "I", BINARY_CATEGORY))
                taken += 1
                i += 1
            if anchor is None and taken >= 1:
                # trailing wildcard absorbs everything that is left
                while i < len(ctoks):
                    tags.append(Tag("I", BINARY_CATEGORY))
                    i += 1
            if taken == 0:
                raise AlignmentError(
                    f"wildcard at template position {j} matched zero tokens"
                )
        else:
            if i >= len(ctoks) or ctoks[i] != t:
                got = ctoks[i] if i < len(ctoks) else "<end>"
                raise AlignmentError(
                    f"static template token {t!r} (position {j}) does not match "
                    f"content token {got!r} (position {i})"
                )
            tags.append(OUTSIDE)
            i += 1
        j += 1
    if i != len(ctoks):
        raise AlignmentError(
            f"{len(ctoks) - i} trailing content tokens not covered by the template"
        )
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
