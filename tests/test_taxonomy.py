import pytest

from logvar.errors import TagError
from logvar.taxonomy import (
    BINARY,
    CATEGORY_ABBREVS,
    Tag,
    VariableCategory,
    is_valid_transition,
    tag_vocabulary,
)

ALL_TAGS = tag_vocabulary()


def test_ten_categories_with_canonical_abbreviations():
    assert CATEGORY_ABBREVS == (
        "OID", "LOI", "OBN", "TID", "SID", "TDA", "CRS", "OBA", "STC", "OTP"
    )
    assert len(set(CATEGORY_ABBREVS)) == 10


def test_category_abbrev_round_trip():
    for abbrev in CATEGORY_ABBREVS:
        assert VariableCategory.from_abbrev(abbrev).abbrev == abbrev


def test_unknown_abbrev_rejected():
    with pytest.raises(TagError):
        VariableCategory.from_abbrev("XYZ")


def test_tag_vocabulary_has_21_members_o_first():
    assert len(ALL_TAGS) == 21
    assert str(ALL_TAGS[0]) == "O"
    assert [str(t) for t in ALL_TAGS[1:5]] == ["B-OID", "I-OID", "B-LOI", "I-LOI"]


def test_tag_vocabulary_is_stable():
    again = tag_vocabulary()
    assert again == ALL_TAGS
    assert again.index(Tag("B", "OID")) == ALL_TAGS.index(Tag("B", "OID"))


def test_binary_vocabulary():
    tags = tag_vocabulary(BINARY)
    assert [str(t) for t in tags] == ["O", "B-VAR", "I-VAR"]


@pytest.mark.parametrize("text", ["O", "B-OID", "I-OTP", "B-VAR", "I-CRS"])
def test_tag_parse_print_round_trip(text):
    assert str(Tag.parse(text)) == text


@pytest.mark.parametrize("text", ["", "B-", "X-OID", "B-XYZ", "o", "I"])
def test_tag_parse_rejects_garbage(text):
    with pytest.raises(TagError):
        Tag.parse(text)


def test_transition_rules():
    O, B_OID, I_OID, I_LOI = (Tag.parse(t) for t in ("O", "B-OID", "I-OID", "I-LOI"))
    assert not is_valid_transition(O, I_OID)
    assert is_valid_transition(B_OID, I_OID)
    assert not is_valid_transition(B_OID, I_LOI)
    assert is_valid_transition(I_OID, I_OID)
    assert not is_valid_transition(None, I_OID)  # sequence start
    assert is_valid_transition(None, B_OID)
    assert is_valid_transition(B_OID, None)  # sequence end always fine
    assert is_valid_transition(O, O)
    assert is_valid_transition(I_OID, B_OID)
