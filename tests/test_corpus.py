import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logvar.corpus import (
    AnnotatedLog,
    SplitSpec,
    derive_binary_annotations,
    read_annotations,
    split_dataset,
    tokenize,
    write_annotations,
    write_atomic,
)
from logvar.errors import (
    AlignmentError,
    EmptyLog,
    FormatError,
    IOBError,
    LogvarError,
    TagError,
)
from logvar.synth import generate_synthetic
from logvar.taxonomy import OUTSIDE, Tag


def mklog(text, tags):
    return AnnotatedLog(tuple(text.split()), tuple(Tag.parse(t) for t in tags.split()))


class TestTokenize:
    def test_spark_example(self):
        toks = tokenize("Starting executor ID 5 on host meso-07")
        assert len(toks) == 7
        assert toks[-1] == "meso-07"

    def test_single_token(self):
        assert tokenize("x") == ["x"]

    def test_whitespace_runs_collapse(self):
        assert tokenize("  a   b ") == ["a", "b"]

    def test_empty_raises(self):
        with pytest.raises(EmptyLog):
            tokenize("   \t ")


class TestAnnotatedLog:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            AnnotatedLog(("a", "b"), (OUTSIDE,))

    def test_ill_formed_iob_rejected(self):
        with pytest.raises(IOBError):
            mklog("a b", "O I-OID")

    def test_token_with_whitespace_rejected(self):
        with pytest.raises(ValueError):
            AnnotatedLog(("a b",), (OUTSIDE,))


SIMPLE_FILE = """\
# a comment
Starting\tO
5\tB-OID
meso-07\tB-OBN

Took\tO
20\tB-TDA
"""


class TestAnnotationIO:
    def test_read_blocks(self, tmp_path):
        path = tmp_path / "ann.tsv"
        path.write_text(SIMPLE_FILE)
        logs = read_annotations(path)
        assert len(logs) == 2
        assert logs[0].tokens == ("Starting", "5", "meso-07")
        assert logs[0].tags[2] == Tag("B", "OBN")

    def test_unknown_tag(self, tmp_path):
        path = tmp_path / "ann.tsv"
        path.write_text("foo\tB-XYZ\n")
        with pytest.raises(TagError):
            read_annotations(path)

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "ann.tsv"
        path.write_text("ok\tO\nnotabs\n")
        with pytest.raises(FormatError, match="line 2"):
            read_annotations(path)

    def test_round_trip(self, tmp_path):
        logs, _ = generate_synthetic(seed=9, n_templates=5, n_logs=50)
        path = tmp_path / "ann.tsv"
        write_annotations(logs, path)
        assert read_annotations(path) == logs

    def test_non_utf8_bytes_name_file_and_line(self, tmp_path):
        path = tmp_path / "ann.tsv"
        path.write_bytes("a\tO\n\nb\tO\n".encode() + b"\xffc\tO\n")
        with pytest.raises(FormatError, match=r"ann\.tsv: line 4: not UTF-8"):
            read_annotations(path)

    @settings(max_examples=60, deadline=None)
    @given(data=st.binary(max_size=200))
    def test_arbitrary_bytes_give_logs_or_a_logvar_error(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("fuzz") / "ann.tsv"
        path.write_bytes(data)
        try:
            logs = read_annotations(path)
        except LogvarError:
            return
        assert all(isinstance(log, AnnotatedLog) for log in logs)


class TestWriteAtomic:
    @pytest.mark.parametrize("data", ["text \u00e9\n", b"\x00\xffbytes"], ids=["str", "bytes"])
    def test_creates_missing_directories_and_leaves_no_temp_file(self, tmp_path, data):
        path = tmp_path / "a" / "b" / "out.txt"
        write_atomic(path, "old")
        write_atomic(path, data)
        assert path.read_bytes() == (data.encode() if isinstance(data, str) else data)
        assert list(path.parent.iterdir()) == [path]


class TestDeriveBinary:
    def test_openstack_example(self):
        log = derive_binary_annotations(
            "Took 20 seconds to spawn", "Took <*> seconds to spawn"
        )
        assert [str(t) for t in log.tags] == ["O", "B-VAR", "O", "O", "O"]

    def test_no_wildcards_all_static(self):
        log = derive_binary_annotations("a b c", "a b c")
        assert all(t.is_outside for t in log.tags)

    def test_multi_token_wildcard(self):
        log = derive_binary_annotations("a x y b", "a <*> b")
        assert [str(t) for t in log.tags] == ["O", "B-VAR", "I-VAR", "O"]

    def test_bare_star_accepted(self):
        log = derive_binary_annotations("a x b", "a * b")
        assert [str(t) for t in log.tags] == ["O", "B-VAR", "O"]

    def test_trailing_wildcard_takes_rest(self):
        log = derive_binary_annotations("a x y z", "a <*>")
        assert [str(t) for t in log.tags] == ["O", "B-VAR", "I-VAR", "I-VAR"]

    def test_wildcard_run_may_contain_the_next_static_token(self):
        log = derive_binary_annotations("a x b y b c", "a <*> b c")
        assert [str(t) for t in log.tags] == ["O", "B-VAR", "I-VAR", "I-VAR", "O", "O"]

    def test_static_mismatch_raises(self):
        with pytest.raises(AlignmentError):
            derive_binary_annotations("a b", "a c")

    def test_zero_token_wildcard_raises(self):
        with pytest.raises(AlignmentError):
            derive_binary_annotations("a b", "a <*> b")

    def test_unconsumed_content_raises(self):
        with pytest.raises(AlignmentError):
            derive_binary_annotations("a b c", "a b")

    def test_length_always_matches_content(self):
        log = derive_binary_annotations("x 1 y 2 2 z", "x <*> y <*> z")
        assert len(log.tags) == len(tokenize("x 1 y 2 2 z"))


class TestSplit:
    def test_paper_fractions(self):
        logs, _ = generate_synthetic(seed=1, n_templates=20, n_logs=2000)
        tr, va, te = split_dataset(logs, SplitSpec(0.2, 0.2, 0.6, seed=5))
        assert (len(tr), len(va), len(te)) == (400, 400, 1200)

    def test_deterministic(self):
        logs, _ = generate_synthetic(seed=2, n_templates=5, n_logs=100)
        a = split_dataset(logs, SplitSpec(0.2, 0.2, 0.6, seed=7))
        b = split_dataset(logs, SplitSpec(0.2, 0.2, 0.6, seed=7))
        assert a == b

    def test_partition_property(self):
        logs, _ = generate_synthetic(seed=3, n_templates=5, n_logs=101)
        tr, va, te = split_dataset(logs, SplitSpec(0.3, 0.3, 0.4, seed=1))
        combined = sorted(l.text for l in tr + va + te)
        assert combined == sorted(l.text for l in logs)

    def test_sizes_floor_the_decimal_fraction(self):
        # in floats 0.7 * 90 is 62.99..., and 0.29 * 100 is 28.99...
        logs, _ = generate_synthetic(seed=3, n_templates=5, n_logs=100)
        assert [len(p) for p in split_dataset(logs[:90], SplitSpec(0.7, 0.1, 0.2, seed=1))] \
            == [63, 9, 18]
        assert [len(p) for p in split_dataset(logs, SplitSpec(0.29, 0.29, 0.42, seed=1))] \
            == [29, 29, 42]
        for k in range(1, 100):
            rest = (100 - k) / 200
            as_train, as_val = SplitSpec(k / 100, rest, rest, 0), SplitSpec(rest, k / 100, rest, 0)
            for n in range(5, 2001):
                assert as_train.sizes(n)[0] == as_val.sizes(n)[1] == k * n // 100, (k, n)

    def test_bad_fractions_rejected(self):
        with pytest.raises(ValueError):
            SplitSpec(0.5, 0.5, 0.5, seed=0)
        with pytest.raises(ValueError):
            SplitSpec(1.0, 0.2, -0.2, seed=0)

    def test_too_few_logs(self):
        logs, _ = generate_synthetic(seed=4, n_templates=5, n_logs=50)
        with pytest.raises(ValueError):
            split_dataset(logs[:3], SplitSpec(0.2, 0.2, 0.6, seed=0))


class TestSynthetic:
    def test_counts_and_coverage(self):
        logs, spec = generate_synthetic(seed=1, n_templates=20, n_logs=2000)
        assert len(logs) == 2000
        counts = {}
        for log in logs:
            for t in log.tags:
                if t.prefix == "B":
                    counts[t.category] = counts.get(t.category, 0) + 1
        assert len(counts) == 10
        assert min(counts.values()) >= 20

    def test_deterministic(self):
        a, sa = generate_synthetic(seed=6, n_templates=6, n_logs=80)
        b, sb = generate_synthetic(seed=6, n_templates=6, n_logs=80)
        assert a == b
        assert sa.to_dict() == sb.to_dict()

    # BLAKE2b digests of whole corpora, recorded when draws were still made
    # with ``rng.choice``: the generator's output is pinned byte for byte
    DIGESTS = {
        (1, 20, 4900): "3acd10ff6599d1c31c3266fd0aebcf24",
        (6, 5, 50): "a04b5bbf3713bd61b547b581f8d945fb",
        (101, 10, 200): "aee0226517c9c973267b493fc46f8d93",
        (202, 12, 300): "aac242402be15d9cbf9e27f8b3bb3edf",
    }

    @pytest.mark.parametrize("args", list(DIGESTS))
    def test_output_is_pinned(self, args):
        logs, spec = generate_synthetic(*args)
        h = hashlib.blake2b(digest_size=16)
        h.update(json.dumps(spec.to_dict(), sort_keys=True).encode())
        for log in logs:
            h.update(("\t".join(log.tokens) + "\n" + " ".join(map(str, log.tags)) + "\n").encode())
        assert h.hexdigest() == self.DIGESTS[args]

    def test_invariants_hold_by_construction(self):
        logs, _ = generate_synthetic(seed=7, n_templates=5, n_logs=60)
        # AnnotatedLog construction validates lengths, tokens, and IOB form
        assert all(len(l.tokens) == len(l.tags) >= 1 for l in logs)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            generate_synthetic(seed=0, n_templates=4, n_logs=100)
        with pytest.raises(ValueError):
            generate_synthetic(seed=0, n_templates=5, n_logs=49)


@given(st.integers(0, 2**32 - 1))
def test_split_is_partition_for_any_seed(seed):
    logs, _ = generate_synthetic(seed=11, n_templates=5, n_logs=53)
    tr, va, te = split_dataset(logs, SplitSpec(0.25, 0.25, 0.5, seed=seed))
    assert len(tr) + len(va) + len(te) == len(logs)
    assert sorted(l.text for l in tr + va + te) == sorted(l.text for l in logs)
