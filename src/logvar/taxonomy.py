"""Variable-category taxonomy, IOB tag alphabet, and tag-sequence structure rules.

Ten categories of dynamic variables are distinguished, each with a canonical
abbreviation. Token tags use the IOB scheme: "O" for static tokens,
"B-<ABBREV>" for the first token of a variable, "I-<ABBREV>" for its
continuation. Binary mode uses a reserved pseudo-category "VAR" so that
static-vs-variable annotations fit the same machinery with a 3-tag alphabet.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import IOBError, TagError


class VariableCategory(enum.Enum):
    OBJECT_ID = "OID"
    LOCATION_INDICATOR = "LOI"
    OBJECT_NAME = "OBN"
    TYPE_INDICATOR = "TID"
    SWITCH_INDICATOR = "SID"
    TIME_DURATION = "TDA"
    COMPUTING_RESOURCES = "CRS"
    OBJECT_AMOUNT = "OBA"
    STATUS_CODE = "STC"
    OTHER_PARAMETERS = "OTP"

    @property
    def abbrev(self) -> str:
        return self.value

    @classmethod
    def from_abbrev(cls, abbrev: str) -> "VariableCategory":
        try:
            return cls(abbrev)
        except ValueError:
            raise TagError(f"unknown variable category abbreviation: {abbrev!r}") from None


# Reserved pseudo-category for binary (static/variable) annotations.
# Deliberately not a VariableCategory member: it never appears in the
# 21-tag multiclass alphabet.
BINARY_CATEGORY = "VAR"

CATEGORY_ABBREVS: tuple[str, ...] = tuple(c.value for c in VariableCategory)

_VALID_CATEGORY_STRINGS = frozenset(CATEGORY_ABBREVS) | {BINARY_CATEGORY}


@dataclass(frozen=True, order=True)
class Tag:
    """One IOB tag: prefix "O", "B", or "I"; category abbreviation for B/I.

    The category is stored as its abbreviation string so that the reserved
    binary pseudo-category fits alongside the ten real categories.
    """

    prefix: str
    category: str | None = None

    def __post_init__(self) -> None:
        if self.prefix == "O":
            if self.category is not None:
                raise TagError("O tag carries no category")
        elif self.prefix in ("B", "I"):
            if self.category not in _VALID_CATEGORY_STRINGS:
                raise TagError(f"unknown variable category abbreviation: {self.category!r}")
        else:
            raise TagError(f"invalid tag prefix: {self.prefix!r}")

    def __str__(self) -> str:
        if self.prefix == "O":
            return "O"
        return f"{self.prefix}-{self.category}"

    @classmethod
    def parse(cls, text: str) -> "Tag":
        if text == "O":
            return OUTSIDE
        if len(text) > 2 and text[1] == "-" and text[0] in ("B", "I"):
            return cls(text[0], text[2:])
        raise TagError(f"unparseable tag: {text!r}")

    @property
    def is_outside(self) -> bool:
        return self.prefix == "O"


OUTSIDE = Tag("O")

MULTICLASS = "multiclass"
BINARY = "binary"


def tag_vocabulary(mode: str = MULTICLASS) -> list[Tag]:
    """The fixed, ordered tag alphabet for a tagging mode.

    Multiclass: 21 tags, O first, then B-/I- pairs in canonical category
    order. Binary: [O, B-VAR, I-VAR]. This ordering is part of the model
    file contract; models record it and assert it on load.
    """
    if mode == MULTICLASS:
        tags = [OUTSIDE]
        for abbrev in CATEGORY_ABBREVS:
            tags.append(Tag("B", abbrev))
            tags.append(Tag("I", abbrev))
        return tags
    if mode == BINARY:
        return [OUTSIDE, Tag("B", BINARY_CATEGORY), Tag("I", BINARY_CATEGORY)]
    raise ValueError(f"unknown tagging mode: {mode!r}")


def is_valid_transition(prev: Tag | None, nxt: Tag | None) -> bool:
    """IOB well-formedness of one adjacent tag pair.

    ``None`` stands for sequence start (as prev) or sequence end (as nxt).
    An I-X tag may only follow B-X or I-X of the same category; everything
    else, including any transition into sequence end, is allowed.
    """
    if nxt is None or nxt.prefix != "I":
        return True
    if prev is None or prev.is_outside:
        return False
    return prev.category == nxt.category


def check_iob(tags: list[Tag]) -> None:
    """Raise IOBError if the tag sequence is not IOB-well-formed."""
    prev: Tag | None = None
    for i, tag in enumerate(tags):
        if not is_valid_transition(prev, tag):
            raise IOBError(f"invalid tag transition at position {i}: {prev} -> {tag}")
        prev = tag
