import copy
import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import logvar.tagger as tagger
from logvar.corpus import AnnotatedLog
from logvar.embed import build_vocabs
from logvar.errors import LogvarError, ModeError
from logvar.parse import (
    TemplateStore,
    extract_template,
    parse_corpus,
    reconstruct,
    template_hash,
)
from logvar.synth import generate_synthetic
from logvar.tagger import (
    FROZEN_SCORE, Hyperparams, decode, decode_ids, init_model, tag_log, tag_logs,
)
from logvar.taxonomy import BINARY, MULTICLASS, OUTSIDE, Tag, VariableCategory, check_iob


def mklog(text, tags):
    return AnnotatedLog(tuple(text.split()), tuple(Tag.parse(t) for t in tags.split()))


SPARK = mklog("Starting executor ID 5 on host meso-07", "O O O B-OID O O B-OBN")


class TestExtractTemplate:
    def test_abstract_everything(self):
        result = extract_template(SPARK)
        assert result.template == "Starting executor ID <*> on host <*>"
        assert result.canonical_template == result.template

    def test_preserve_oid(self):
        result = extract_template(SPARK, {VariableCategory.OBJECT_ID})
        assert result.template == "Starting executor ID 5 on host <*>"
        by_cat = {e.category: e for e in result.extractions}
        assert by_cat["OID"].value == "5"
        assert by_cat["OBN"].value == "meso-07"

    def test_canonical_invariant_under_preserve(self):
        base = extract_template(SPARK)
        for preserve in ({VariableCategory.OBJECT_ID}, set(VariableCategory)):
            other = extract_template(SPARK, preserve)
            assert other.canonical_template == base.canonical_template
            assert other.template_id == base.template_id

    def test_all_static_log(self):
        log = mklog("nothing dynamic here", "O O O")
        result = extract_template(log)
        assert result.template == log.text
        assert result.extractions == ()

    def test_multi_token_run_merges(self):
        log = mklog("used 126 MB total", "O B-CRS I-CRS O")
        result = extract_template(log)
        assert result.canonical_template == "used <*> total"
        assert result.extractions[0].value == "126 MB"
        assert (result.extractions[0].start, result.extractions[0].end) == (1, 2 + 1)

    def test_wildcard_override(self):
        result = extract_template(SPARK, wildcard="*")
        assert result.template == "Starting executor ID * on host *"

    def test_wildcard_count_equals_runs(self):
        log = mklog("a 1 2 b 3", "O B-OID I-OID O B-STC")
        result = extract_template(log)
        assert result.canonical_template.count("<*>") == 2

    def test_reconstruction(self):
        for log in (SPARK, mklog("used 126 MB total", "O B-CRS I-CRS O")):
            assert reconstruct(extract_template(log)) == log.text

    def test_reconstruction_with_literal_wildcard_token(self):
        for log in (mklog("<*> got 5 <*>", "O O B-OBA O"),
                    mklog("x <*> 7 8", "O O B-OBA I-OBA"),
                    mklog("<*> <*>", "O O")):
            for preserve in (set(), {VariableCategory.OBJECT_AMOUNT}):
                assert reconstruct(extract_template(log, preserve)) == log.text

    def test_literal_wildcard_token_does_not_collide_with_a_slot(self):
        static = extract_template(mklog("x <*>", "O O"))
        slot = extract_template(mklog("x 5", "O B-OBA"))
        assert static.canonical_template == slot.canonical_template == "x <*>"
        assert static.template_id != slot.template_id
        # a literal wildcard inside a variable is a slot like any other value
        assert extract_template(mklog("x <*>", "O B-OBA")).template_id == slot.template_id
        store = TemplateStore()
        for result in (static, slot, static):
            store.intern(result.canonical_template, result.template_id)
        assert [(e["template_id"], e["count"]) for e in store.summary()] == [
            (static.template_id, 2), (slot.template_id, 1)]

    def test_template_id_is_the_canonical_hash_without_literal_wildcards(self):
        result = extract_template(SPARK)
        assert result.template_id == template_hash(result.canonical_template, [3, 6])
        assert result.template_id == hashlib.blake2b(
            b"Starting executor ID <*> on host <*>", digest_size=8).hexdigest()

    def test_template_id_independent_of_wildcard(self):
        base = extract_template(SPARK)
        for wildcard in ("*", "{}", "<VAR>"):
            other = extract_template(SPARK, wildcard=wildcard)
            assert other.canonical_template == base.canonical_template
            assert other.template_id == base.template_id
            assert other.template != base.template


class TestTemplateStore:
    def test_interning_counts(self):
        store = TemplateStore()
        id1 = store.intern("a <*> b", template_hash("a <*> b", [1]))
        id2 = store.intern("a <*> b", template_hash("a <*> b", [1]))
        id3 = store.intern("c <*>", template_hash("c <*>", [1]))
        assert id1 == id2 != id3
        summary = store.summary()
        assert summary[0]["count"] == 2
        assert summary[0]["ordinal"] == 0
        assert summary[1]["ordinal"] == 1

    def test_ordinals_follow_first_seen_order(self):
        store = TemplateStore()
        for canonical in ("c <*>", "a <*>", "c <*>", "b", "a <*>", "c <*>"):
            store.intern(canonical, template_hash(canonical, []))
        assert [(e["ordinal"], e["canonical_template"], e["count"]) for e in store.summary()] \
            == [(0, "c <*>", 3), (1, "a <*>", 2), (2, "b", 1)]
        assert list(store.summary()[0]) == ["template_id", "ordinal", "canonical_template",
                                            "count"]

    def test_hash_stable(self):
        assert template_hash("a <*> b", [1]) == template_hash("a <*> b", [1])
        assert len(template_hash("x", [])) == 16  # 64-bit hex

    def test_literal_wildcard_and_slot_are_two_entries(self):
        # both canonicals are "a <*> <*>": slot 2 behind a static "<*>", then slots 1 and 2
        store = TemplateStore()
        for log in (mklog("a <*> 7", "O O B-OBA"), mklog("a 5 7", "O B-OBA B-OBA")):
            result = extract_template(log)
            store.intern(result.canonical_template, result.template_id)
        assert [(e["template_id"], e["canonical_template"], e["count"])
                for e in store.summary()] == [
            ("1b9a47e353f98267", "a <*> <*>", 1), ("a3de0bceae1926fe", "a <*> <*>", 1)]


@pytest.fixture(scope="module")
def model():
    logs, _ = generate_synthetic(seed=4, n_templates=5, n_logs=60)
    wv, cv = build_vocabs(logs)
    hp = Hyperparams(word_dim=8, char_emb_dim=6, char_filters=4,
                     char_kernel=3, lstm_hidden=4, max_word_len=12)
    return init_model(hp, wv, cv, seed=0)


class TestParseCorpus:
    def test_order_and_none_for_empty(self, model):
        results, store = parse_corpus(model, ["alpha beta", "", "gamma 7"])
        assert len(results) == 3
        assert results[1] is None
        assert results[0] is not None and results[2] is not None

    def test_same_value_shape_same_template(self, model):
        # untrained models still tag deterministically, so two identical
        # messages must intern to one template id
        results, store = parse_corpus(model, ["alpha beta 1", "alpha beta 1"])
        assert results[0].template_id == results[1].template_id
        entry = store.entries[results[0].template_id]
        assert entry["count"] == 2

    @pytest.mark.parametrize("wildcard", ["", "a b", "x\ty"])
    def test_a_wildcard_of_other_than_one_token_is_refused_before_decoding(
        self, model, monkeypatch, wildcard
    ):
        # a rendered template would lose a token, or gain one, against its
        # canonical template
        with pytest.raises(ValueError, match="one token"):
            extract_template(SPARK, wildcard=wildcard)

        def no_decoding(*args):
            raise AssertionError("decoded")

        monkeypatch.setattr("logvar.parse.decode_ids", no_decoding)
        with pytest.raises(ValueError, match="one token"):
            parse_corpus(model, ["a b 12"], wildcard=wildcard)

    def test_binary_model_rejected(self):
        logs, _ = generate_synthetic(seed=4, n_templates=5, n_logs=60)
        wv, cv = build_vocabs(logs)
        hp = Hyperparams(word_dim=8, char_emb_dim=6, char_filters=4,
                         char_kernel=3, lstm_hidden=4, max_word_len=12)
        binary = init_model(hp, wv, cv, seed=0, mode=BINARY)
        with pytest.raises(ModeError, match="multiclass"):
            parse_corpus(binary, ["a b"])

    def test_batch_composition_does_not_change_output(self, model, monkeypatch):
        # a budget of one padded token tags every line alone
        line = "alpha beta 17 gamma delta-4"
        shorter = [f"a{i} {i}" for i in range(40)]
        longer = [f"x {i} " * 6 + f"y{i}" for i in range(40)]
        alone = parse_corpus(model, [line])[0][0]
        reference = None
        for budget in (1, 16, tagger.BATCH_TOKENS, 10_000):
            monkeypatch.setattr(tagger, "BATCH_TOKENS", budget)
            for others in (shorter, longer):
                results, _ = parse_corpus(model, others[:5] + [line] + others[5:])
                assert results[5] == alone
            results, store = parse_corpus(model, shorter + [line] + longer)
            reference = reference or (results, store.summary())
            assert results == reference[0]
            assert store.summary() == reference[1]


def favouring_static(model, bias):
    """A copy of ``model`` whose O emission score is raised by ``bias``.

    The untrained fixture model tags every token as a variable; a bias of
    0.03 makes it tag some tokens static, and 1.0 every token.
    """
    biased = copy.deepcopy(model)
    biased.params["proj_b"][biased.tag_index(OUTSIDE)] += bias
    return biased


class TestLoneSurrogates:
    # a raw byte that is not UTF-8, as reading with errors="surrogateescape" keeps it
    LINE = "open /tmp/caf\udc80 failed 7"

    def test_line_with_a_lone_surrogate_parses_and_reconstructs(self, model):
        (result,), store = parse_corpus(favouring_static(model, 1.0), [self.LINE])
        assert result.canonical_template == self.LINE  # every token static
        assert reconstruct(result) == self.LINE
        assert store.entries[result.template_id]["count"] == 1

    def test_ids_of_valid_non_ascii_text_are_its_utf8_hash(self):
        canonical = "naïve ☃ <*> 🙂"
        expected = hashlib.blake2b(canonical.encode("utf-8"), digest_size=8).hexdigest()
        assert template_hash(canonical, [2]) == expected


# whitespace that str.split() breaks on, control characters, the wildcard
# and its pieces, non-ASCII letters, an emoji and an undecodable byte
ODD_PIECES = [" ", "\t", "\x0b", "\x0c", "\x1c", "\x85", "\xa0", "\u2028", "\u3000",
              "\x00", "\x07", "\x1b", "<*>", "<", "*", ">", "a", "B", "7", "-", ".",
              "/", "=", "é", "🙂", "\udc80"]


@pytest.fixture(scope="module", params=[0.0, 0.03, 1.0], ids=["variables", "mixed", "static"])
def fuzz_model(model, request):
    return favouring_static(model, request.param)


@settings(max_examples=60, deadline=None)
@given(lines=st.lists(st.lists(st.sampled_from(ODD_PIECES), max_size=12).map("".join),
                      min_size=1, max_size=5))
def test_fuzz_raw_lines_parse_or_raise_a_logvar_error(fuzz_model, lines):
    try:
        results, _ = parse_corpus(fuzz_model, lines)
        tagged = tag_logs(fuzz_model, lines)
    except LogvarError:
        return
    for line, result, annotated in zip(lines, results, tagged):
        tokens = line.split()
        if not tokens:
            assert result is None and annotated is None
            continue
        assert annotated.tokens == tuple(tokens)
        check_iob(list(annotated.tags))
        assert reconstruct(result) == " ".join(tokens)


def random_model(data, base, modes=(MULTICLASS,)):
    """A model over ``base``'s vocabularies and sizes with drawn weights: a
    seed, a bias toward static tokens, and at times allowed transitions and
    starts far below the score stored at the IOB-forbidden ones."""
    seed = data.draw(st.integers(0, 2**16), label="seed")
    model = init_model(base.hp, base.word_vocab, base.char_vocab, seed=seed,
                       mode=data.draw(st.sampled_from(modes), label="mode"))
    bias = data.draw(st.sampled_from([0.0, 0.03, 1.0]) | st.floats(-1.0, 1.0), label="bias")
    model.params["proj_b"][model.tag_index(OUTSIDE)] += bias
    if data.draw(st.booleans(), label="negative transitions"):
        model.params["trans"][~model.frozen_trans] = 10 * FROZEN_SCORE
        model.params["start"][~model.frozen_start] = 10 * FROZEN_SCORE
    return model


ODD_LINES = st.lists(st.lists(st.sampled_from(ODD_PIECES), max_size=12).map("".join),
                     min_size=1, max_size=6)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), lines=ODD_LINES)
def test_every_decoded_path_is_iob_well_formed(model, data, lines):
    # decoding reads the forbidden entries as -inf, so no path crosses one
    # even where every allowed one scores below their stored FROZEN_SCORE
    decoded = random_model(data, model, modes=(MULTICLASS, BINARY))
    token_lists = [tuple(line.split()) for line in lines]
    for tokens, path in zip(token_lists, decode_ids(decoded, token_lists)):
        assert len(path) == len(tokens)
        check_iob([decoded.tags[k] for k in path])


@settings(max_examples=60, deadline=None)
@given(data=st.data(), lines=ODD_LINES | st.just(["Starting executor ID 5 on host meso-07",
                                                  "x <*> 7 y", "used 126 MB total"]),
       preserve=st.sets(st.sampled_from(list(VariableCategory))),
       wildcard=st.sampled_from(["<*>", "*"]))
def test_parse_corpus_is_extract_template_over_decoded_tags(model, data, lines, preserve,
                                                            wildcard):
    decoded = random_model(data, model)
    results, store = parse_corpus(decoded, lines, preserve, wildcard)
    token_lists = [tuple(line.split()) for line in lines]
    expected = [extract_template(AnnotatedLog(tokens, tuple(tags)), preserve, wildcard)
                if tokens else None
                for tokens, tags in zip(token_lists, decode(decoded, token_lists))]
    assert results == expected
    counts = {}
    for result in filter(None, expected):
        counts[result.template_id] = counts.get(result.template_id, 0) + 1
    assert [(e["template_id"], e["count"]) for e in store.summary()] == list(counts.items())


@settings(max_examples=30, deadline=None)
@given(data=st.data(), lines=ODD_LINES)
def test_tags_are_the_decoded_ids_read_in_the_tag_alphabet(model, data, lines):
    decoded = random_model(data, model, modes=(MULTICLASS, BINARY))
    token_lists = [tuple(line.split()) for line in lines]
    paths = decode_ids(decoded, token_lists)
    expected = [AnnotatedLog(tokens, tuple(decoded.tags[k] for k in path)) if tokens else None
                for tokens, path in zip(token_lists, paths)]
    assert decode(decoded, token_lists) == [[decoded.tags[k] for k in path] for path in paths]
    assert tag_logs(decoded, lines) == expected
    assert [tag_log(decoded, line) for line, log in zip(lines, expected) if log] == [
        log for log in expected if log]
