import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from logvar.corpus import AnnotatedLog
from logvar.errors import EmptyInput, TokenMismatch
from logvar.evaluate import (
    category_prf,
    evaluate,
    general_accuracy,
    spans,
    variable_aware_accuracy,
)
from logvar.taxonomy import Tag, check_iob, is_valid_transition, tag_vocabulary


def mklog(text, tags):
    return AnnotatedLog(tuple(text.split()), tuple(Tag.parse(t) for t in tags.split()))


# four-log fixture:
#   L1 exact match; L2 right binary split, wrong category; L3 a variable
#   predicted static; L4 all-static, exact.
GOLDS = [
    mklog("a 1 b", "O B-OID O"),
    mklog("c 2 d", "O B-OID O"),
    mklog("e 3 f", "O B-OID O"),
    mklog("g h", "O O"),
]
PREDS = [
    mklog("a 1 b", "O B-OID O"),
    mklog("c 2 d", "O B-LOI O"),
    mklog("e 3 f", "O O O"),
    mklog("g h", "O O"),
]


class TestAccuracies:
    def test_identity_gives_one(self):
        assert general_accuracy(GOLDS, GOLDS) == 1.0
        assert variable_aware_accuracy(GOLDS, GOLDS) == 1.0

    def test_fixture_general(self):
        assert general_accuracy(PREDS, GOLDS) == 0.75

    def test_fixture_variable_aware(self):
        assert variable_aware_accuracy(PREDS, GOLDS) == 0.5

    def test_token_mismatch_hard_error(self):
        bad = [mklog("a X b", "O B-OID O")] + PREDS[1:]
        with pytest.raises(TokenMismatch, match="log 0"):
            general_accuracy(bad, GOLDS)

    def test_length_mismatch(self):
        with pytest.raises(TokenMismatch):
            variable_aware_accuracy(PREDS[:2], GOLDS)

    def test_no_logs_is_an_empty_input(self):
        with pytest.raises(EmptyInput):
            general_accuracy([], [])

    def test_general_compares_the_outside_masks(self):
        # another category and another span boundary, the same tokens variable
        gold = [mklog("x 1 2", "O B-OID I-OID")]
        assert general_accuracy([mklog("x 1 2", "O B-OID B-LOI")], gold) == 1.0
        assert general_accuracy([mklog("x 1 2", "O O B-OID")], gold) == 0.0

    def test_permutation_invariance(self):
        order = [2, 0, 3, 1]
        assert general_accuracy(
            [PREDS[i] for i in order], [GOLDS[i] for i in order]
        ) == general_accuracy(PREDS, GOLDS)


class TestSpans:
    def test_merging_runs(self):
        tags = [Tag.parse(t) for t in "O B-CRS I-CRS O B-OID".split()]
        assert spans(tags) == [("CRS", 1, 3), ("OID", 4, 5)]

    def test_adjacent_b_tags_are_separate_spans(self):
        tags = [Tag.parse(t) for t in "B-OID B-OID".split()]
        assert spans(tags) == [("OID", 0, 1), ("OID", 1, 2)]

    def test_empty(self):
        assert spans([]) == []


class TestCategoryPRF:
    def test_three_span_fixture(self):
        # gold OID spans in 3 logs; predictions: one correct, one
        # mislabeled as LOI, one missed entirely
        golds = [
            mklog("a 1", "O B-OID"),
            mklog("b 2", "O B-OID"),
            mklog("c 3", "O B-OID"),
        ]
        preds = [
            mklog("a 1", "O B-OID"),
            mklog("b 2", "O B-LOI"),
            mklog("c 3", "O O"),
        ]
        scores, macro = category_prf(preds, golds)
        assert scores["OID"].precision == 1.0
        assert scores["OID"].recall == pytest.approx(1 / 3)
        assert scores["OID"].f1 == pytest.approx(0.5)
        assert scores["LOI"].precision == 0.0
        assert scores["LOI"].recall == 0.0
        assert scores["LOI"].f1 == 0.0

    def test_perfect_predictions(self):
        scores, macro = category_prf(GOLDS, GOLDS)
        for s in scores.values():
            assert (s.precision, s.recall, s.f1) == (1.0, 1.0, 1.0)
        assert macro["f1"] == 1.0

    def test_boundary_mismatch_is_not_a_hit(self):
        golds = [mklog("x 1 2", "O B-OID I-OID")]
        preds = [mklog("x 1 2", "O B-OID B-OID")]
        scores, _ = category_prf(preds, golds)
        assert scores["OID"].tp == 0
        assert scores["OID"].fp == 2
        assert scores["OID"].fn == 1

    def test_token_level_alternative(self):
        golds = [mklog("x 1 2", "O B-OID I-OID")]
        preds = [mklog("x 1 2", "O B-OID B-OID")]
        scores, _ = category_prf(preds, golds, token_level=True)
        assert scores["OID"].tp == 2  # both variable positions have category OID

    def test_inactive_categories_excluded_from_macro(self):
        golds = [mklog("a 1", "O B-OID")]
        preds = [mklog("a 1", "O B-OID")]
        scores, macro = category_prf(preds, golds)
        assert set(scores) == {"OID"}
        assert macro["precision"] == 1.0


ALL_TAGS = tag_vocabulary()


def random_pair(rng, n_logs=20):
    golds, preds = [], []
    for _ in range(n_logs):
        n = int(rng.integers(1, 8))
        toks = tuple(f"t{k}" for k in range(n))

        def random_tags():
            while True:
                tags = tuple(ALL_TAGS[i] for i in rng.integers(0, len(ALL_TAGS), size=n))
                try:
                    check_iob(list(tags))
                    return tags
                except Exception:
                    continue

        golds.append(AnnotatedLog(toks, random_tags()))
        preds.append(AnnotatedLog(toks, random_tags()))
    return preds, golds


def test_variable_aware_never_exceeds_general():
    rng = np.random.default_rng(0)
    for _ in range(200):
        preds, golds = random_pair(rng, n_logs=5)
        assert variable_aware_accuracy(preds, golds) <= general_accuracy(preds, golds)


def iob_repaired(tags):
    """``tags`` with each I- tag that may not follow its predecessor made a B- tag."""
    out = []
    for tag in tags:
        ok = is_valid_transition(out[-1] if out else None, tag)
        out.append(tag if ok else Tag("B", tag.category))
    return tuple(out)


@given(st.lists(st.sampled_from(ALL_TAGS), min_size=1, max_size=8).map(iob_repaired))
def test_general_accuracy_ignores_categories(tags):
    log = AnnotatedLog(tuple(f"t{k}" for k in range(len(tags))), tags)
    relabeled = tuple(t if t.is_outside else Tag(t.prefix, "LOI") for t in tags)
    assert general_accuracy([AnnotatedLog(log.tokens, relabeled)], [log]) == 1.0


def test_report_serialization_round_trip():
    import json

    report = evaluate(PREDS, GOLDS)
    data = json.loads(report.to_json())
    assert data["general_accuracy"] == 0.75
    assert data["variable_aware_accuracy"] == 0.5
    assert "OID" in data["categories"]
    assert "macro" in data
    text = report.to_text()
    assert "0.7500" in text and "0.5000" in text
