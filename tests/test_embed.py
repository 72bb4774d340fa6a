import warnings

import numpy as np
import pytest

from logvar.corpus import AnnotatedLog
from logvar.embed import PAD, UNK, build_vocabs, encode_log, load_word_vectors
from logvar.errors import DimensionMismatch, EmptyInput, FormatError
from logvar.taxonomy import OUTSIDE


def log_of(text):
    toks = tuple(text.split())
    return AnnotatedLog(toks, tuple(OUTSIDE for _ in toks))


TRAIN = [log_of("ID id Id foo"), log_of("bar ID ab5"), log_of("foo baz")]


class TestBuildVocabs:
    def test_lowercased_threshold(self):
        wv, _ = build_vocabs(TRAIN, min_freq=2)
        assert wv.lookup("ID") != UNK  # "id" appears 4x after lowercasing
        assert wv.lookup("foo") != UNK
        assert wv.lookup("baz") == UNK  # seen once

    def test_char_vocab_contents(self):
        _, cv = build_vocabs([log_of("ab5")])
        assert len(cv) == 5  # PAD, UNK, a, b, 5
        assert cv.lookup("a") != UNK
        assert cv.lookup("z") == UNK

    def test_chars_preserve_case(self):
        _, cv = build_vocabs([log_of("Ab")])
        assert cv.lookup("A") != cv.lookup("a")

    def test_empty_train_rejected(self):
        with pytest.raises(EmptyInput):
            build_vocabs([])


class TestEncode:
    def setup_method(self):
        self.wv, self.cv = build_vocabs(TRAIN)

    def test_char_row_padding(self):
        enc = encode_log(log_of("a5").tokens, self.wv, self.cv, max_word_len=6)
        row = enc.char_ids[0]
        assert row[0] == self.cv.lookup("a")
        assert row[1] == self.cv.lookup("5")
        assert all(row[2:] == PAD)

    def test_unseen_word_maps_to_unk_chars_still_meaningful(self):
        enc = encode_log(log_of("idfoo").tokens, self.wv, self.cv, max_word_len=8)
        assert enc.word_ids[0] == UNK
        assert enc.char_ids[0][0] == self.cv.lookup("i")

    def test_truncation(self):
        enc = encode_log(log_of("abcdefgh").tokens, self.wv, self.cv, max_word_len=3)
        assert enc.char_ids.shape == (1, 3)
        assert (enc.char_ids[0] != PAD).all()

    def test_char_rows_are_as_wide_as_the_longest_kept_token(self):
        tokens = log_of("ab abcdefgh").tokens
        assert encode_log(tokens, self.wv, self.cv, max_word_len=10**6).char_ids.shape == (2, 8)
        assert encode_log(tokens, self.wv, self.cv, max_word_len=5).char_ids.shape == (2, 5)
        assert encode_log((), self.wv, self.cv, max_word_len=30).char_ids.shape == (0, 1)

    def test_encoding_total_and_deterministic(self):
        log = log_of("completely unseen Zz9")
        a = encode_log(log.tokens, self.wv, self.cv, max_word_len=30)
        b = encode_log(log.tokens, self.wv, self.cv, max_word_len=30)
        assert (a.word_ids == b.word_ids).all()
        assert (a.char_ids == b.char_ids).all()


class TestLoadWordVectors:
    def write_vectors(self, tmp_path, lines):
        path = tmp_path / "vecs.txt"
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_copy_and_coverage(self, tmp_path):
        wv, _ = build_vocabs(TRAIN)
        n_words = len(wv) - 2
        path = self.write_vectors(
            tmp_path, ["id 1.0 2.0 3.0", "foo 0.5 0.5 0.5", "zzz 9 9 9"]
        )
        matrix, coverage = load_word_vectors(path, wv, dim=3)
        assert matrix.shape == (len(wv), 3)
        np.testing.assert_allclose(matrix[wv.lookup("ID")], [1.0, 2.0, 3.0])
        assert coverage == pytest.approx(2 / n_words)

    def test_pad_row_zero_unk_random(self, tmp_path):
        wv, _ = build_vocabs(TRAIN)
        path = self.write_vectors(tmp_path, ["id 1 1 1"])
        matrix, _ = load_word_vectors(path, wv, dim=3)
        assert (matrix[PAD] == 0).all()
        assert (np.abs(matrix[UNK]) <= 0.25).all()

    def test_dimension_mismatch(self, tmp_path):
        wv, _ = build_vocabs(TRAIN)
        path = self.write_vectors(tmp_path, ["id 1 2"])
        with pytest.raises(DimensionMismatch):
            load_word_vectors(path, wv, dim=3)

    def test_fasttext_vec_file_with_header_and_trailing_spaces(self, tmp_path):
        wv, _ = build_vocabs(TRAIN)
        path = self.write_vectors(tmp_path, ["3 3", "id 1.0 2.0 3.0 ", "zzz 9 9 9 ", "foo 4 5 6 "])
        matrix, coverage = load_word_vectors(path, wv, dim=3)
        np.testing.assert_array_equal(matrix[wv.lookup("id")], [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(matrix[wv.lookup("foo")], [4.0, 5.0, 6.0])
        assert coverage == pytest.approx(2 / (len(wv) - 2))
        # without the header, and with a CRLF line end
        path.write_text("id 1.0 2.0 3.0 \r\nfoo 4 5 6\n")
        again, _ = load_word_vectors(path, wv, dim=3)
        np.testing.assert_array_equal(again, matrix)

    def test_header_dim_mismatch_names_line_1(self, tmp_path):
        wv, _ = build_vocabs(TRAIN)
        path = self.write_vectors(tmp_path, ["3 4", "id 1 2 3 4 "])
        with pytest.raises(DimensionMismatch, match=r"vecs\.txt: line 1: .*dim 4, expected 3"):
            load_word_vectors(path, wv, dim=3)
        # two integers after line 1 are a word and its one value
        path = self.write_vectors(tmp_path, ["id 1 2 3", "3 4"])
        with pytest.raises(DimensionMismatch, match="line 2: vector has 1 entries"):
            load_word_vectors(path, wv, dim=3)

    def test_malformed_line(self, tmp_path):
        wv, _ = build_vocabs(TRAIN)
        path = self.write_vectors(tmp_path, ["id 1 2 notafloat"])
        with pytest.raises(FormatError):
            load_word_vectors(path, wv, dim=3)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e39"])
    def test_value_not_a_finite_float32_names_file_and_line(self, tmp_path, value):
        wv, _ = build_vocabs(TRAIN)
        path = self.write_vectors(tmp_path, ["id 1 2 3", f"foo 1 {value} 3"])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FormatError, match=r"vecs\.txt: line 2: .*not a finite float32"):
                load_word_vectors(path, wv, dim=3)

    def test_coverage_counts_distinct_words_and_the_last_line_wins(self, tmp_path):
        wv, _ = build_vocabs([log_of("the cat")])
        path = self.write_vectors(tmp_path, ["the 1 1 1", "The 2 2 2", "the 3 3 3"])
        matrix, coverage = load_word_vectors(path, wv, dim=3)
        assert coverage == 0.5
        np.testing.assert_array_equal(matrix[wv.lookup("the")], [3.0, 3.0, 3.0])

    def test_non_utf8_bytes_name_file_and_line(self, tmp_path):
        wv, _ = build_vocabs(TRAIN)
        path = tmp_path / "vecs.txt"
        path.write_bytes(b"id 1 2 3\nfoo\xe9 1 2 3\n")
        with pytest.raises(FormatError, match=r"vecs\.txt: line 2: not UTF-8"):
            load_word_vectors(path, wv, dim=3)
