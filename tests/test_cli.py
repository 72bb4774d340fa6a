import argparse
import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logvar.cli import _RENAMED, _config_defaults, _from_args, build_parser, main
from logvar.corpus import AnnotatedLog, read_annotations, read_lines, write_annotations
from logvar.embed import build_vocabs, load_word_vectors
from logvar.errors import FormatError
from logvar.evaluate import to_binary_annotations
from logvar.synth import generate_synthetic
from logvar.tagger import Hyperparams, init_model
from logvar.taxonomy import BINARY, OUTSIDE
from logvar.train import TrainConfig, load_model, save_model


@pytest.fixture(scope="module")
def corpus_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "corpus.tsv"
    logs, _ = generate_synthetic(seed=3, n_templates=5, n_logs=120)
    write_annotations(logs, path)
    return path


@pytest.fixture(scope="module")
def trained_model(tmp_path_factory, corpus_file):
    d = tmp_path_factory.mktemp("run")
    assert main([
        "split", "--input", str(corpus_file), "--ratios", "0.2,0.2,0.6",
        "--seed", "1", "--out-dir", str(d),
    ]) == 0
    model_path = d / "model.valb"
    rc = main([
        "train", "--train", str(d / "train.tsv"), "--val", str(d / "val.tsv"),
        "--out", str(model_path), "--epochs", "3", "--seed", "1",
        "--word-dim", "8", "--char-emb-dim", "6", "--char-filters", "4",
        "--lstm-hidden", "6", "--max-word-len", "12",
    ])
    assert rc == 0
    return d, model_path


class TestSplit:
    def test_sizes_and_rerun_identical(self, corpus_file, tmp_path):
        args = ["split", "--input", str(corpus_file), "--ratios", "0.2,0.2,0.6",
                "--seed", "9", "--out-dir", str(tmp_path)]
        assert main(args) == 0
        first = (tmp_path / "train.tsv").read_bytes()
        assert len(read_annotations(tmp_path / "train.tsv")) == 24
        assert len(read_annotations(tmp_path / "test.tsv")) == 72
        assert main(args) == 0
        assert (tmp_path / "train.tsv").read_bytes() == first

    def test_bad_ratios_usage_error(self, corpus_file, tmp_path, capsys):
        rc = main(["split", "--input", str(corpus_file), "--ratios", "0.5,0.5,0.5",
                   "--out-dir", str(tmp_path)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "usage"

    def test_run_config_echoed(self, corpus_file, tmp_path):
        main(["split", "--input", str(corpus_file), "--out-dir", str(tmp_path)])
        assert (tmp_path / "run-config.txt").exists()


class TestTrain:
    def test_model_file_written(self, trained_model):
        _, model_path = trained_model
        assert model_path.exists()

    def test_freeze_word_embeddings_reaches_run_config_and_training(
        self, trained_model, tmp_path
    ):
        d, _ = trained_model
        out = tmp_path / "frozen.valb"
        assert main([
            "train", "--train", str(d / "train.tsv"), "--val", str(d / "val.tsv"),
            "--out", str(out), "--epochs", "1", "--seed", "1", "--freeze-word-embeddings",
            "--word-dim", "8", "--char-emb-dim", "6", "--char-filters", "4",
            "--lstm-hidden", "6", "--max-word-len", "12",
        ]) == 0
        lines = (tmp_path / "run-config.txt").read_text().splitlines()
        assert "freeze_word_embeddings = True" in lines
        saved = load_model(out)
        init = init_model(saved.hp, saved.word_vocab, saved.char_vocab, seed=1)
        assert (saved.params["word_emb"] == init.params["word_emb"]).all()
        assert not (saved.params["char_emb"] == init.params["char_emb"]).all()

    def test_missing_val_file_fails(self, trained_model, tmp_path):
        d, _ = trained_model
        rc = main(["train", "--train", str(d / "train.tsv"),
                   "--val", str(tmp_path / "nope.tsv"),
                   "--out", str(tmp_path / "m.valb"), "--epochs", "1"])
        assert rc != 0 or not (tmp_path / "m.valb").exists()

    def test_binary_mode_metadata(self, tmp_path, corpus_file):
        d = tmp_path
        main(["split", "--input", str(corpus_file), "--out-dir", str(d), "--seed", "1"])
        # derive binary annotations through training with --mode binary needs
        # binary tags; use derive-annotations output instead
        csv_path = d / "structured.csv"
        csv_path.write_text(
            "Content,EventTemplate\n"
            "Took 20 seconds,Took <*> seconds\n"
            "Took 31 seconds,Took <*> seconds\n"
            "Took 44 seconds,Took <*> seconds\n"
            "Took 58 seconds,Took <*> seconds\n"
            "Took 62 seconds,Took <*> seconds\n"
            "Took 75 seconds,Took <*> seconds\n"
        )
        main(["derive-annotations", "--structured", str(csv_path),
              "--out", str(d / "binary.tsv")])
        rc = main([
            "train", "--train", str(d / "binary.tsv"), "--val", str(d / "binary.tsv"),
            "--out", str(d / "binary.valb"), "--mode", "binary", "--epochs", "1",
            "--word-dim", "6", "--char-emb-dim", "4", "--char-filters", "3",
            "--lstm-hidden", "4",
        ])
        assert rc == 0
        assert load_model(d / "binary.valb").n_tags == 3


class TestBadInput:
    @pytest.mark.parametrize("argv", [
        ["train", "--train", "{d}/train.tsv", "--val", "{empty}", "--out", "{tmp}/m.valb"],
        ["train", "--train", "{empty}", "--val", "{d}/val.tsv", "--out", "{tmp}/m.valb"],
        ["finetune", "--model", "{model}", "--train", "{d}/train.tsv", "--val", "{empty}",
         "--out", "{tmp}/m.valb"],
        ["finetune", "--model", "{model}", "--train", "{empty}", "--val", "{d}/val.tsv",
         "--out", "{tmp}/m.valb"],
        ["eval", "--gold", "{empty}", "--pred", "{empty}", "--report", "{tmp}/r.json"],
        ["split", "--input", "{tiny}", "--out-dir", "{tmp}"],
    ], ids=["train-empty-val", "train-empty-train", "finetune-empty-val", "finetune-empty-train",
            "eval-no-logs", "split-too-few"])
    def test_content_error_names_its_file(self, trained_model, tmp_path, capsys, argv):
        # valid flags, and a file that holds too few logs: exit 1, not a usage error
        d, model_path = trained_model
        empty = tmp_path / "empty.tsv"
        empty.write_text("")
        tiny = tmp_path / "tiny.tsv"
        tiny.write_text("a\tO\n\nb\tO\n")
        fields = {"d": d, "model": model_path, "empty": empty, "tiny": tiny, "tmp": tmp_path}
        assert main([a.format(**fields) for a in argv]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "EmptyInput"
        named = empty if "{empty}" in argv else tiny
        assert err["message"].startswith(f"{named}: ")
        assert sorted(tmp_path.iterdir()) == sorted([empty, tiny])  # no output, no run-config

    @pytest.mark.parametrize("argv", [
        ["train", "--train", "{d}/train.tsv", "--val", "{d}/val.tsv", "--out", "{tmp}/m.valb",
         "--epochs", "0"],
        ["train", "--train", "{d}/train.tsv", "--val", "{d}/val.tsv", "--out", "{tmp}/m.valb",
         "--dropout", "1.5"],
        ["train", "--train", "{d}/train.tsv", "--val", "{d}/val.tsv", "--out", "{tmp}/m.valb",
         "--learning-rate", "nan"],
        ["train", "--train", "{d}/train.tsv", "--val", "{d}/val.tsv", "--out", "{tmp}/m.valb",
         "--clip-norm", "-1"],
    ], ids=["zero-epochs", "dropout-above-one", "nan-learning-rate", "negative-clip-norm"])
    def test_usage_error_not_traceback(self, trained_model, tmp_path, capsys, argv):
        d, model_path = trained_model
        fields = {"d": d, "model": model_path, "tmp": tmp_path}
        assert main([a.format(**fields) for a in argv]) == 2
        assert json.loads(capsys.readouterr().err.strip())["error"] == "usage"
        assert not (tmp_path / "m.valb").exists()

    def test_malformed_val_file_is_named(self, trained_model, tmp_path, capsys):
        d, _ = trained_model
        bad = tmp_path / "bad-val.tsv"
        bad.write_text("a\tO\nno tab here\n")
        assert main(["train", "--train", str(d / "train.tsv"), "--val", str(bad),
                     "--out", str(tmp_path / "m.valb"), "--epochs", "1"]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "FormatError"
        assert err["message"].startswith(f"{bad}: line 2: ")
        assert not (tmp_path / "m.valb").exists()

    def test_overflow_in_an_epochs_last_step_is_a_divergence_error(
        self, corpus_file, tmp_path, capsys
    ):
        # the one Adam step overflows a parameter to inf; validation then
        # meets non-finite scores, which train reports as divergence
        logs = read_annotations(corpus_file)
        write_annotations(logs[:4], tmp_path / "t.tsv")
        write_annotations(logs[4:8], tmp_path / "v.tsv")
        assert main(["train", "--train", str(tmp_path / "t.tsv"), "--val", str(tmp_path / "v.tsv"),
                     "--out", str(tmp_path / "m.valb"), "--batch-size", "8",
                     "--learning-rate", "1e30", "--epochs", "1"]) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "DivergenceError", "message": "non-finite validation scores at epoch 0"}
        assert not (tmp_path / "m.valb").exists()

    def test_output_onto_a_directory_leaves_no_temporary_file(self, trained_model, tmp_path,
                                                             capsys):
        _, model_path = trained_model
        raw = tmp_path / "raw.txt"
        raw.write_text("alpha 1\n")
        (tmp_path / "out" / "tagged.tsv").mkdir(parents=True)
        assert main(["tag", "--model", str(model_path), "--input", str(raw),
                     "--output", str(tmp_path / "out" / "tagged.tsv")]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "io"
        assert [p.name for p in (tmp_path / "out").iterdir()] == ["tagged.tsv"]


    @pytest.mark.parametrize("command", ["finetune", "train"])
    def test_tag_outside_the_model_alphabet_is_a_tag_error(self, trained_model, tmp_path,
                                                           capsys, command):
        d, model_path = trained_model
        binary = tmp_path / "binary.tsv"
        write_annotations([to_binary_annotations(log)
                           for log in read_annotations(d / "train.tsv")], binary)
        model_and_train = {
            "finetune": ["--model", str(model_path), "--train", str(binary)],
            "train": ["--mode", "binary", "--train", str(d / "train.tsv")],
        }[command]
        assert main([command, *model_and_train, "--val", str(binary),
                     "--out", str(tmp_path / "m.valb")]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "TagError"
        assert err["message"].startswith("the training set holds the tag B-")
        assert not (tmp_path / "m.valb").exists()

    @pytest.mark.parametrize("argv, message", [
        (["split", "--input", "{corpus}", "--seed", "x", "--out-dir", "{tmp}/a"],
         "logvar split: argument --seed: invalid int value: 'x'"),
        (["split", "--input", "{corpus}"],
         "logvar split: the following arguments are required: --out-dir"),
        (["splat", "--input", "{corpus}"], "logvar: argument command: invalid choice: 'splat'"),
    ], ids=["bad-int", "missing-required", "unknown-command"])
    def test_argparse_error_is_one_json_usage_line(self, corpus_file, tmp_path, capsys,
                                                    argv, message):
        fields = {"corpus": corpus_file, "tmp": tmp_path}
        assert main([a.format(**fields) for a in argv]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        err = json.loads(err)
        assert err["error"] == "usage"
        assert err["message"].startswith(message)
        assert not (tmp_path / "a").exists()

    def test_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["split", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: logvar split")


class TestDefaults:
    def test_train_defaults_are_the_dataclass_defaults(self):
        parser, _ = build_parser()
        args = parser.parse_args(["train", "--train", "t.tsv", "--val", "v.tsv", "--out", "m"])
        assert _from_args(Hyperparams, args) == Hyperparams()
        assert _from_args(TrainConfig, args) == TrainConfig()

    @pytest.mark.parametrize("command, configs", [
        ("train", (TrainConfig, Hyperparams)), ("finetune", (TrainConfig,))])
    def test_each_config_field_has_one_option_of_its_type_and_default(self, command, configs):
        actions = build_parser()[1][command]._actions
        for cls in configs:
            for f in dataclasses.fields(cls):
                dest = _RENAMED.get(f.name, f.name)
                [action] = [a for a in actions if a.dest == dest]
                assert action.option_strings == ["--" + dest.replace("_", "-")]
                if isinstance(f.default, bool):  # a flag sets it off its default
                    assert isinstance(action, argparse._StoreTrueAction)
                    assert action.default is False
                else:
                    assert action.type is (None if isinstance(f.default, str) else type(f.default))
                    assert action.default == f.default and type(action.default) is type(f.default)


class TestOptionCensus:
    """Every option string and configuration field, pinned: a new knob (or a
    removed one) shows up as an edit of these lists."""

    TOP_LEVEL = ["--config"]
    TRAIN_FLAGS = ["--epochs", "--batch-size", "--learning-rate", "--clip-norm", "--seed",
                   "--freeze-word-embeddings", "--selection-metric"]
    HP_FLAGS = ["--word-dim", "--char-emb-dim", "--char-filters", "--char-kernel",
                "--lstm-hidden", "--dropout", "--max-word-len", "--no-char-channel",
                "--min-freq"]
    COMMANDS = {
        "split": ["--input", "--ratios", "--seed", "--out-dir"],
        "train": ["--train", "--val", "--out", "--mode", "--vectors", *TRAIN_FLAGS, *HP_FLAGS],
        "finetune": ["--model", "--train", "--val", "--out", *TRAIN_FLAGS],
        "tag": ["--model", "--input", "--output"],
        "parse": ["--model", "--input", "--preserve", "--wildcard", "--output", "--templates"],
        "eval": ["--gold", "--pred", "--report", "--token-level", "--collapse-binary"],
        "derive-annotations": ["--structured", "--content-col", "--template-col", "--out"],
        "synth": ["--seed", "--templates", "--logs", "--out"],
    }
    HYPERPARAMS = ["word_dim", "char_emb_dim", "char_filters", "char_kernel", "lstm_hidden",
                   "dropout", "max_word_len", "use_char_channel"]
    TRAIN_CONFIG = ["epochs", "batch_size", "learning_rate", "gradient_clip_norm", "seed",
                    "freeze_word_embeddings", "selection_metric"]

    @staticmethod
    def options(parser):
        return [opt for action in parser._actions for opt in action.option_strings
                if opt not in ("-h", "--help")]

    def test_subcommand_options(self):
        parser, commands = build_parser()
        assert self.options(parser) == self.TOP_LEVEL
        assert {name: self.options(p) for name, p in commands.items()} == self.COMMANDS

    def test_configuration_fields(self):
        assert [f.name for f in dataclasses.fields(Hyperparams)] == self.HYPERPARAMS
        assert [f.name for f in dataclasses.fields(TrainConfig)] == self.TRAIN_CONFIG


class TestTagParse:
    def test_tag_blocks(self, trained_model, tmp_path):
        d, model_path = trained_model
        raw = tmp_path / "raw.txt"
        raw.write_text("alpha beta 1\ngamma delta 2\nepsilon 3\n")
        out = tmp_path / "tagged.tsv"
        assert main(["tag", "--model", str(model_path), "--input", str(raw),
                     "--output", str(out)]) == 0
        blocks = [b for b in out.read_text().split("\n\n") if b.strip()]
        assert len(blocks) == 3

    def test_tag_deterministic(self, trained_model, tmp_path):
        d, model_path = trained_model
        raw = tmp_path / "raw.txt"
        raw.write_text("alpha beta 1\n")
        out1, out2 = tmp_path / "o1.tsv", tmp_path / "o2.tsv"
        main(["tag", "--model", str(model_path), "--input", str(raw), "--output", str(out1)])
        main(["tag", "--model", str(model_path), "--input", str(raw), "--output", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_tag_empty_line_skipped(self, trained_model, tmp_path, capsys):
        d, model_path = trained_model
        raw = tmp_path / "raw.txt"
        raw.write_text("alpha 1\n\nbeta 2\n")
        out = tmp_path / "tagged.tsv"
        assert main(["tag", "--model", str(model_path), "--input", str(raw),
                     "--output", str(out)]) == 0
        assert "skipped" in capsys.readouterr().err
        blocks = [b for b in out.read_text().split("\n\n") if b.strip()]
        assert len(blocks) == 2

    def test_parse_outputs(self, trained_model, tmp_path):
        d, model_path = trained_model
        raw = tmp_path / "raw.txt"
        raw.write_text("alpha beta 1\nalpha beta 2\n")
        out = tmp_path / "parsed.jsonl"
        tpl = tmp_path / "templates.jsonl"
        assert main(["parse", "--model", str(model_path), "--input", str(raw),
                     "--preserve", "", "--output", str(out), "--templates", str(tpl)]) == 0
        records = [json.loads(l) for l in out.read_text().splitlines()]
        assert len(records) == 2
        assert {"line_no", "template_id", "template", "extractions"} <= set(records[0])

    def test_input_of_empty_lines_gives_empty_outputs(self, trained_model, tmp_path, capsys):
        _, model_path = trained_model
        raw = tmp_path / "raw.txt"
        raw.write_text("\n \n\t\n")
        out, tpl, tagged = tmp_path / "p.jsonl", tmp_path / "t.jsonl", tmp_path / "tagged.tsv"
        assert main(["parse", "--model", str(model_path), "--input", str(raw),
                     "--output", str(out), "--templates", str(tpl)]) == 0
        assert main(["tag", "--model", str(model_path), "--input", str(raw),
                     "--output", str(tagged)]) == 0
        assert out.read_bytes() == tpl.read_bytes() == tagged.read_bytes() == b""
        assert capsys.readouterr().err.count("empty log, skipped") == 6

    def test_parse_with_a_binary_model_is_a_mode_error(self, tmp_path, capsys):
        logs = [AnnotatedLog(("alpha", "1"), (OUTSIDE, OUTSIDE))]
        hp = Hyperparams(word_dim=4, char_emb_dim=3, char_filters=2, lstm_hidden=2)
        model_path = tmp_path / "binary.valb"
        save_model(init_model(hp, *build_vocabs(logs), mode=BINARY), model_path)
        raw = tmp_path / "raw.txt"
        raw.write_text("alpha 1\n")
        out = tmp_path / "p.jsonl"
        assert main(["parse", "--model", str(model_path), "--input", str(raw),
                     "--output", str(out)]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ModeError"
        assert err["message"].startswith(f"{model_path}: ")
        assert "multiclass" in err["message"]
        assert not out.exists()
        assert not (tmp_path / "run-config.txt").exists()

    @pytest.mark.parametrize("wildcard, via", [("", "flag"), ("a b", "flag"), ("a b", "config")])
    def test_a_wildcard_of_other_than_one_token_is_a_usage_error(
        self, trained_model, tmp_path, capsys, wildcard, via
    ):
        _, model_path = trained_model
        raw = tmp_path / "raw.txt"
        raw.write_text("a b 12\n")
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        argv = ["parse", "--model", str(model_path), "--input", str(raw),
                "--output", str(out_dir / "p.jsonl"), "--templates", str(out_dir / "t.jsonl")]
        if via == "flag":
            argv += ["--wildcard", wildcard]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"wildcard = {wildcard}\n")
            argv = ["--config", str(cfg), *argv]
        assert main(argv) == 2
        (line,) = capsys.readouterr().err.splitlines()
        err = json.loads(line)
        assert err["error"] == "usage"
        assert repr(wildcard) in err["message"]
        assert list(out_dir.iterdir()) == []  # no output, no .tmp file, no run-config.txt

    def test_parse_unknown_preserve_category(self, trained_model, tmp_path, capsys):
        d, model_path = trained_model
        raw = tmp_path / "raw.txt"
        raw.write_text("alpha 1\n")
        rc = main(["parse", "--model", str(model_path), "--input", str(raw),
                   "--preserve", "OID,XYZ", "--output", str(tmp_path / "p.jsonl")])
        assert rc == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert "OID" in err["message"]  # lists valid abbreviations


class TestRawLines:
    def test_lines_split_on_newline_alone(self, tmp_path):
        path = tmp_path / "raw.txt"
        path.write_bytes("a\x0cb\r\nc\x85d\u2028e\x1c\n\nf\rg".encode())
        assert list(read_lines(path)) == ["a\x0cb", "c\x85d\u2028e\x1c", "", "f\rg"]
        path.write_bytes(b"")
        assert list(read_lines(path)) == []

    def test_form_feed_stays_inside_its_line(self, trained_model, tmp_path):
        d, model_path = trained_model
        raw = tmp_path / "raw.txt"
        raw.write_text("alpha\x0cbeta 1\ngamma 2\n")
        out = tmp_path / "parsed.jsonl"
        assert main(["parse", "--model", str(model_path), "--input", str(raw),
                     "--output", str(out)]) == 0
        records = [json.loads(l) for l in out.read_text().splitlines()]
        assert [r["line_no"] for r in records] == [1, 2]

    @pytest.mark.parametrize("command", ["parse", "tag", "config", "derive-annotations"])
    def test_non_utf8_input_is_a_format_error(self, trained_model, tmp_path, capsys, command):
        d, model_path = trained_model
        bad = tmp_path / "input.txt"
        if command == "config":
            bad.write_bytes(b"seed = 9\n\xffratios = 0.2,0.2,0.6\n")
            argv = ["--config", str(bad), "split", "--input", str(d / "train.tsv"),
                    "--out-dir", str(tmp_path / "s")]
        elif command == "derive-annotations":
            bad.write_bytes(b"Content,EventTemplate\n\xff 1,x <*>\n")
            argv = [command, "--structured", str(bad), "--out", str(tmp_path / "o.tsv")]
        else:
            bad.write_bytes(b"alpha 1\n\xffbeta 2\n")
            argv = [command, "--model", str(model_path), "--input", str(bad),
                    "--output", str(tmp_path / "out")]
        assert main(argv) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "FormatError"
        assert "input.txt: line 2" in err["message"]


def _run(argv):
    """Run a command as ``main`` does, but let its errors propagate."""
    args = build_parser()[0].parse_args(argv)
    return args.func(args)


def _annotation_tokens(path, tmp_path, model_path):
    return [log.tokens for log in read_annotations(path)]


def _vector_rows(path, tmp_path, model_path):
    wv, _ = build_vocabs([AnnotatedLog(("a", "b", "c"), (OUTSIDE,) * 3)])
    matrix, _ = load_word_vectors(path, wv, dim=2)
    return matrix[[wv.lookup(w) for w in "abc"]].tolist()


def _config_values(path, tmp_path, model_path):
    parser, commands = build_parser()
    args = parser.parse_args(
        ["--config", str(path), "split", "--input", "in.tsv", "--out-dir", str(tmp_path)])
    return _config_defaults(args, parser, commands)


def _parsed_line_numbers(path, tmp_path, model_path):
    out = tmp_path / "parsed.jsonl"
    _run(["parse", "--model", str(model_path), "--input", str(path), "--output", str(out)])
    return [json.loads(line)["line_no"] for line in out.read_text().splitlines()]


def _derived_tokens(path, tmp_path, model_path):
    out = tmp_path / "derived.tsv"
    _run(["derive-annotations", "--structured", str(path), "--out", str(out)])
    return [log.tokens for log in read_annotations(out)]


BOM = "\ufeff".encode()  # the UTF-8 byte-order mark, EF BB BF

# Each text input, three lines of it and what reading them gives. Line 2
# holds a lone "\r" and a form feed; if either broke the line, the reading
# would differ (a comment's tail would become a line of its own).
TEXT_INPUTS = {
    "annotations": (_annotation_tokens, ("a\tO", "# note\rb\tO\x0c", "c\tO"), [("a", "c")]),
    "vectors": (_vector_rows, ("a 1 2", "b 3\r 4\x0c", "c 5 6"), [[1, 2], [3, 4], [5, 6]]),
    "config": (_config_values, ("seed = 9", "# note\rseed = 5\x0c", "ratios = 0.2,0.2,0.6"),
               {"seed": 9, "ratios": "0.2,0.2,0.6"}),
    "parse": (_parsed_line_numbers, ("alpha 1", "beta\r2\x0cgamma", "delta 3"), [1, 2, 3]),
    "derive-annotations": (
        _derived_tokens,
        ("Content,EventTemplate", '"took\r5\x0cs",took <*> s', "took 7 s,took <*> s"),
        [("took", "5", "s"), ("took", "7", "s")],
    ),
}


class TestOneLinePolicy:
    """Every text input splits lines the same way and names the file and line."""

    @pytest.mark.parametrize("name", list(TEXT_INPUTS))
    def test_same_split_and_error_for_every_text_input(self, trained_model, tmp_path, name):
        _, model_path = trained_model
        read, lines, expected = TEXT_INPUTS[name]
        first, second, third = (line.encode() for line in lines)
        good = tmp_path / "good.txt"
        good.write_bytes(first + b"\r\n" + second + b"\r\n" + third + b"\r\n")
        assert read(good, tmp_path, model_path) == expected
        bad = tmp_path / "bad.txt"
        bad.write_bytes(first + b"\r\n" + second + b"\r\n\xff" + third + b"\r\n")
        with pytest.raises(FormatError) as info:
            read(bad, tmp_path, model_path)
        assert str(info.value).startswith(f"{bad}: line 3: ")

    @pytest.mark.parametrize("bom", [b"", BOM], ids=["plain", "bom"])
    @pytest.mark.parametrize("name", list(TEXT_INPUTS))
    def test_one_leading_byte_order_mark_is_dropped(self, trained_model, tmp_path, name, bom):
        _, model_path = trained_model
        read, lines, expected = TEXT_INPUTS[name]
        path = tmp_path / "input.txt"
        path.write_bytes(bom + "\n".join(lines).encode() + b"\n")
        assert read(path, tmp_path, model_path) == expected

    @pytest.mark.parametrize("bom", [b"", BOM], ids=["plain", "bom"])
    def test_identical_raw_lines_after_a_bom_share_a_template(self, trained_model, tmp_path,
                                                              capsys, bom):
        _, model_path = trained_model
        raw = tmp_path / "raw.txt"
        raw.write_bytes(bom + b"connection closed by peer\n" * 2)
        out = tmp_path / "parsed.jsonl"
        assert main(["parse", "--model", str(model_path), "--input", str(raw),
                     "--output", str(out)]) == 0
        assert "parsed 2 logs into 1 templates" in capsys.readouterr().out
        first, second = (json.loads(line) for line in out.read_text().splitlines())
        assert first["template"] == second["template"]
        assert "\ufeff" not in first["template"]

    @pytest.mark.parametrize("bom", [b"", BOM], ids=["plain", "bom"])
    def test_vec_header_after_a_bom_is_read(self, tmp_path, bom):
        path = tmp_path / "vectors.vec"
        path.write_bytes(bom + b"3 2\na 1 2\nb 3 4\nc 5 6\n")
        assert _vector_rows(path, tmp_path, None) == [[1, 2], [3, 4], [5, 6]]

    def test_only_one_byte_order_mark_is_dropped(self, tmp_path):
        path = tmp_path / "raw.txt"
        path.write_bytes(BOM * 2 + b"a\n" + BOM + b"b\n")
        assert list(read_lines(path)) == ["\ufeffa", "\ufeffb"]

    def test_lone_carriage_return_outside_quotes_is_a_csv_format_error(self, tmp_path):
        path = tmp_path / "structured.csv"
        path.write_bytes(b"Content,EventTemplate\ntook\r5 s,took <*> s\n")
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: line 2: "):
            _run(["derive-annotations", "--structured", str(path),
                  "--out", str(tmp_path / "o.tsv")])


class TestEval:
    def test_fixture_report(self, tmp_path, capsys):
        gold = tmp_path / "gold.tsv"
        pred = tmp_path / "pred.tsv"
        gold.write_text(
            "a\tO\n1\tB-OID\n\nc\tO\n2\tB-OID\n\ne\tO\n3\tB-OID\n\ng\tO\nh\tO\n"
        )
        pred.write_text(
            "a\tO\n1\tB-OID\n\nc\tO\n2\tB-LOI\n\ne\tO\n3\tO\n\ng\tO\nh\tO\n"
        )
        report = tmp_path / "report.json"
        assert main(["eval", "--gold", str(gold), "--pred", str(pred),
                     "--report", str(report)]) == 0
        data = json.loads(report.read_text())
        assert data["general_accuracy"] == 0.75
        assert data["variable_aware_accuracy"] == 0.5

    def test_collapse_binary(self, tmp_path):
        gold = tmp_path / "gold.tsv"
        pred = tmp_path / "pred.tsv"
        # Category disagrees (OID vs LOI) but both mark the token as a variable,
        # so collapsing to VAR makes the prediction exact.
        gold.write_text("a\tO\n1\tB-OID\n\nc\tO\n2\tB-OID\n")
        pred.write_text("a\tO\n1\tB-LOI\n\nc\tO\n2\tB-OID\n")
        report = tmp_path / "report.json"
        assert main(["eval", "--gold", str(gold), "--pred", str(pred),
                     "--report", str(report)]) == 0
        data = json.loads(report.read_text())
        assert data["variable_aware_accuracy"] == 0.5

        report2 = tmp_path / "report2.json"
        assert main(["eval", "--gold", str(gold), "--pred", str(pred),
                     "--collapse-binary", "--report", str(report2)]) == 0
        data2 = json.loads(report2.read_text())
        assert data2["variable_aware_accuracy"] == 1.0
        assert list(data2["categories"]) == ["VAR"]

    def test_token_mismatch_nonzero_exit(self, tmp_path, capsys):
        gold = tmp_path / "gold.tsv"
        pred = tmp_path / "pred.tsv"
        gold.write_text("a\tO\n")
        pred.write_text("b\tO\n")
        rc = main(["eval", "--gold", str(gold), "--pred", str(pred),
                   "--report", str(tmp_path / "r.json")])
        assert rc == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "TokenMismatch"
        assert "0" in err["message"]  # offending log index

    def test_non_utf8_gold_is_a_format_error(self, tmp_path, capsys):
        gold = tmp_path / "gold.tsv"
        pred = tmp_path / "pred.tsv"
        gold.write_bytes(b"\xffa\tO\n")
        pred.write_text("a\tO\n")
        rc = main(["eval", "--gold", str(gold), "--pred", str(pred),
                   "--report", str(tmp_path / "r.json")])
        assert rc == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "FormatError"
        assert "gold.tsv: line 1" in err["message"]


class TestDeriveAnnotations:
    def test_spark_style_row(self, tmp_path):
        csv_path = tmp_path / "structured.csv"
        csv_path.write_text(
            "LineId,Content,EventTemplate\n"
            '1,Took 20 seconds to spawn,Took <*> seconds to spawn\n'
        )
        out = tmp_path / "derived.tsv"
        assert main(["derive-annotations", "--structured", str(csv_path),
                     "--out", str(out)]) == 0
        logs = read_annotations(out)
        assert [str(t) for t in logs[0].tags] == ["O", "B-VAR", "O", "O", "O"]

    def test_unalignable_row_goes_to_errors_sidecar(self, tmp_path, capsys):
        csv_path = tmp_path / "structured.csv"
        csv_path.write_text(
            "Content,EventTemplate\n"
            "a b,a c\n"
            "x 1 y,x <*> y\n"
        )
        out = tmp_path / "derived.tsv"
        assert main(["derive-annotations", "--structured", str(csv_path),
                     "--out", str(out)]) == 0
        assert len(read_annotations(out)) == 1
        sidecar = out.with_suffix(out.suffix + ".errors")
        assert sidecar.exists()
        assert "line 2" in sidecar.read_text()


    def test_short_row_goes_to_errors_sidecar(self, tmp_path):
        csv_path = tmp_path / "structured.csv"
        csv_path.write_text("Content,EventTemplate\nonly content\nx 1,x <*>\n")
        out = tmp_path / "derived.tsv"
        assert main(["derive-annotations", "--structured", str(csv_path),
                     "--out", str(out)]) == 0
        assert [log.tokens for log in read_annotations(out)] == [("x", "1")]
        assert out.with_suffix(out.suffix + ".errors").read_text().startswith("line 2: ")

    @pytest.mark.parametrize("text, line", [
        # a quoted field over lines 2-3, then an unalignable row on line 4
        ('Content,EventTemplate\n"a\nb 1","a b <*>"\nx y,x z\n', 4),
        # a row over lines 2-4 (a newline in each field), a blank line 5
        ('Content,EventTemplate\n"a\nb","a\nb"\n\nx y,x z\n', 6),
        # a quoted field that holds an empty line
        ('Content,EventTemplate\n"a\n\nb 1","a b <*>"\nx 1,x <*>\nx y,x z\n', 6),
        # an extra field holding a newline
        ('Content,EventTemplate\nx 1,x <*>,"extra\nfield"\nx y,x z\n', 4),
    ])
    def test_errors_name_the_first_line_of_a_multiline_row(self, tmp_path, text, line):
        csv_path = tmp_path / "structured.csv"
        csv_path.write_text(text)
        out = tmp_path / "derived.tsv"
        assert main(["derive-annotations", "--structured", str(csv_path),
                     "--out", str(out)]) == 0
        errors = out.with_suffix(out.suffix + ".errors").read_text().splitlines()
        assert len(errors) == 1 and errors[0].startswith(f"line {line}: "), errors


class TestSynth:
    def test_deterministic_with_spec_sidecar(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a.tsv", tmp_path / "b.tsv"
        for out in (out1, out2):
            assert main(["synth", "--seed", "5", "--templates", "5",
                         "--logs", "60", "--out", str(out)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        spec = json.loads((out1.parent / "a.tsv.spec.json").read_text())
        assert spec["seed"] == 5
        assert len(spec["templates"]) == 5
        assert "category coverage" in capsys.readouterr().out


class TestConfigFile:
    @pytest.mark.parametrize("text, line, key", [
        ("seed = 3\nbatch-size = 4\n", 2, "batch-size"),
        ("epoch = 3\nseed = 3\n", 1, "epoch"),
    ], ids=["dashes", "typo"])
    def test_key_of_no_command_is_a_usage_error(self, corpus_file, tmp_path, capsys,
                                                 text, line, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        assert main(["--config", str(cfg), "split", "--input", str(corpus_file),
                     "--out-dir", str(tmp_path / "a")]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "usage"
        assert err["message"] == f"{cfg}: line {line}: no command has an option {key!r}"
        assert not (tmp_path / "a").exists()

    @pytest.mark.parametrize("command", ["parse", "parse-hash-wildcard", "train"])
    def test_run_config_fed_back_gives_the_same_run(self, trained_model, tmp_path, capsys,
                                                    monkeypatch, command):
        d, model_path = trained_model
        monkeypatch.chdir(tmp_path)  # a value "None" read as a path would land here
        raw = tmp_path / "raw.txt"
        raw.write_text("alpha beta 1\n\ngamma 2\n")
        required, options, out_flag = {
            "parse": (["parse", "--model", str(model_path), "--input", str(raw)],
                      ["--preserve", "OID"], "--output"),
            "parse-hash-wildcard": (["parse", "--model", str(model_path), "--input", str(raw)],
                                    ["--wildcard", "#"], "--output"),
            "train": (["train", "--train", str(d / "train.tsv"), "--val", str(d / "val.tsv")],
                      ["--epochs", "2", "--word-dim", "6", "--char-emb-dim", "4",
                       "--char-filters", "3", "--lstm-hidden", "4"], "--out"),
        }[command]
        first, again = tmp_path / "first" / "out", tmp_path / "again" / "out"
        assert main([*required, *options, out_flag, str(first)]) == 0
        shown = capsys.readouterr()
        assert "None" not in (first.parent / "run-config.txt").read_text()
        assert main(["--config", str(first.parent / "run-config.txt"), *required,
                     out_flag, str(again)]) == 0
        rerun = capsys.readouterr()
        assert rerun.out.replace(str(again), str(first)) == shown.out
        assert rerun.err == shown.err
        assert again.read_bytes() == first.read_bytes()
        assert not list(tmp_path.rglob("None"))

    @pytest.mark.parametrize("value", ["ture", "", "on"])
    def test_boolean_of_another_spelling_is_a_usage_error(self, trained_model, tmp_path,
                                                          capsys, value):
        d, _ = trained_model
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"epochs = 1\nfreeze_word_embeddings = {value}\n")
        assert main(["--config", str(cfg), "train", "--train", str(d / "train.tsv"),
                     "--val", str(d / "val.tsv"), "--out", str(tmp_path / "m.valb")]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "usage"
        assert err["message"].startswith(f"{cfg}: line 2: freeze_word_embeddings = {value!r} ")
        assert not (tmp_path / "m.valb").exists()

    @pytest.mark.parametrize("line, message", [
        ("seed = x", "seed = 'x' is not a valid int"),
        ("ratios = 0.2,0.2,0.6\nseed = x", "seed = 'x' is not a valid int"),
        ("selection_metric = loss", "selection_metric = 'loss' is not one of "),
    ], ids=["type", "type-on-line-2", "choices"])
    def test_value_its_option_rejects_is_a_usage_error(self, trained_model, tmp_path, capsys,
                                                       line, message):
        d, _ = trained_model
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        command = (["split", "--input", str(d / "train.tsv"), "--out-dir", str(tmp_path / "a")]
                   if line.startswith(("seed", "ratios")) else
                   ["train", "--train", str(d / "train.tsv"), "--val", str(d / "val.tsv"),
                    "--out", str(tmp_path / "a" / "m.valb")])
        assert main(["--config", str(cfg), *command]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "usage"
        lineno = line.count("\n") + 1
        assert err["message"].startswith(f"{cfg}: line {lineno}: {message}")
        assert not (tmp_path / "a").exists()

    @pytest.mark.parametrize("value, flag", [
        ("1", True), ("true", True), ("YES", True), ("True", True),
        ("0", False), ("false", False), ("No", False), ("False", False),
    ])
    def test_boolean_spellings(self, tmp_path, value, flag):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"token_level = {value}\n")
        parser, commands = build_parser()
        args = parser.parse_args(
            ["--config", str(cfg), "eval", "--gold", "g", "--pred", "p", "--report", "r"])
        assert _config_defaults(args, parser, commands) == {"token_level": flag}

    def test_only_a_line_starting_with_a_hash_is_a_comment(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("  # a comment\nwildcard = <#> # kept\n")
        parser, commands = build_parser()
        args = parser.parse_args(
            ["--config", str(cfg), "parse", "--model", "m", "--input", "i", "--output", "o"])
        assert _config_defaults(args, parser, commands) == {"wildcard": "<#> # kept"}

    def test_config_defaults_with_flag_override(self, tmp_path, corpus_file):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# defaults\nseed = 9\nratios = 0.2,0.2,0.6\n")
        assert main(["--config", str(cfg), "split", "--input", str(corpus_file),
                     "--out-dir", str(tmp_path / "a")]) == 0
        assert main(["split", "--input", str(corpus_file), "--seed", "9",
                     "--out-dir", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a" / "train.tsv").read_bytes() == \
               (tmp_path / "b" / "train.tsv").read_bytes()

    def test_flags_override_config_int_and_boolean(self, tmp_path, corpus_file):
        # one file serves both commands: keys a command has no option for are skipped
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 9\ntoken_level = true\ncollapse_binary = false\n")

        def echoed(out_dir):
            lines = (out_dir / "run-config.txt").read_text().splitlines()
            return dict(line.split(" = ", 1) for line in lines)

        assert main(["--config", str(cfg), "split", "--input", str(corpus_file),
                     "--seed", "3", "--out-dir", str(tmp_path / "a")]) == 0
        assert main(["split", "--input", str(corpus_file), "--seed", "3",
                     "--out-dir", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a" / "train.tsv").read_bytes() == \
               (tmp_path / "b" / "train.tsv").read_bytes()
        assert echoed(tmp_path / "a")["seed"] == "3"
        assert "token_level" not in echoed(tmp_path / "a")

        gold = tmp_path / "gold.tsv"
        gold.write_text("a\tO\n1\tB-OID\n")
        report_dir = tmp_path / "eval"
        report_dir.mkdir()
        assert main(["--config", str(cfg), "eval", "--gold", str(gold), "--pred", str(gold),
                     "--report", str(report_dir / "r.json"), "--collapse-binary"]) == 0
        run = echoed(report_dir)
        assert run["collapse_binary"] == "True"  # the flag beats the config's false
        assert run["token_level"] == "True"  # from the config
        assert "seed" not in run


FUZZ_TAG_LINES = "Starting executor ID 5 on host meso-07\na\nx <*> 7 y\n"


@pytest.fixture(scope="module")
def fuzz_model(tmp_path_factory):
    """A tiny saved model's bytes and a folder holding the raw lines to tag."""
    logs, _ = generate_synthetic(seed=8, n_templates=5, n_logs=50)
    wv, cv = build_vocabs(logs[:20])
    hp = Hyperparams(word_dim=4, char_emb_dim=3, char_filters=3, char_kernel=3,
                     lstm_hidden=3, max_word_len=6)
    folder = tmp_path_factory.mktemp("cli-fuzz")
    save_model(init_model(hp, wv, cv, seed=0), folder / "model.valb")
    (folder / "lines.txt").write_text(FUZZ_TAG_LINES)
    return (folder / "model.valb").read_bytes(), folder


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_fuzz_tag_model_bytes_exit_zero_or_one_json_error(fuzz_model, data):
    # truncated or bit-flipped model bytes, with the checksum left stale or
    # sealed again (so that the flips reach the parser and the tagger)
    blob, folder = fuzz_model
    blob = bytearray(blob)
    flips = data.draw(st.lists(st.tuples(st.integers(0, len(blob) - 1), st.integers(0, 7)),
                               max_size=4))
    for pos, bit in flips:
        blob[pos] ^= 1 << bit
    del blob[data.draw(st.integers(0, len(blob))):]
    if data.draw(st.booleans()) and len(blob) > 8:
        blob[-8:] = hashlib.blake2b(bytes(blob[:-8]), digest_size=8).digest()
    (folder / "mutated.valb").write_bytes(bytes(blob))
    out = folder / "out" / "tagged.tsv"
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["tag", "--model", str(folder / "mutated.valb"),
                     "--input", str(folder / "lines.txt"), "--output", str(out)])
    lines = err.getvalue().splitlines()
    if code == 0:
        assert lines == []
        assert [log.tokens for log in read_annotations(out)] == [
            tuple(raw.split()) for raw in FUZZ_TAG_LINES.splitlines()]
    else:
        assert code == 1, lines
        (line,) = lines
        assert set(json.loads(line)) == {"error", "message"}
    assert list(folder.rglob("*.tmp")) == []


def _run_fuzzed(folder, argv):
    """``main(argv)``'s exit code and stderr lines, checked: exit 0, or exit 1
    or 2 with one JSON error line on stderr; no traceback; no ``.tmp`` left."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    lines = err.getvalue().splitlines()
    assert "Traceback" not in err.getvalue()
    if code != 0:
        assert code in (1, 2), lines
        (line,) = lines
        assert set(json.loads(line)) == {"error", "message"}
    assert list(folder.rglob("*.tmp")) == []
    return code, lines


# bytes that split, end or spoil a line or a token
ODD_BYTES = st.sampled_from([b"\n", b"\r", b"\r\n", b" ", b"\t", b"\x0c", b"\x00", b"\xff",
                             b"\xc3", "\u00a0".encode(), "\u2028".encode(), "\u00e9".encode(),
                             b"<*>", b"#"])


@settings(max_examples=100, deadline=None)
@given(raw=st.lists(st.one_of(ODD_BYTES, st.binary(max_size=12),
                              st.text(st.characters(codec="utf-8"), max_size=8).map(str.encode)),
                    max_size=20).map(b"".join),
       command=st.sampled_from(["tag", "parse"]))
def test_fuzz_raw_log_bytes_through_tag_and_parse(fuzz_model, raw, command):
    _, folder = fuzz_model
    (folder / "raw.txt").write_bytes(raw)
    out = folder / "raw-out" / "out"
    code, lines = _run_fuzzed(folder, [command, "--model", str(folder / "model.valb"),
                                       "--input", str(folder / "raw.txt"), "--output", str(out)])
    if code == 0:
        text = raw.decode("utf-8").split("\n")
        if text[-1] == "":
            text.pop()  # the last line's "\n" ends it
        lines_in = [line.removesuffix("\r") for line in text]
        empty = [i for i, line in enumerate(lines_in, 1) if not line.split()]
        assert lines == [f"line {i}: empty log, skipped" for i in empty]
        written = (read_annotations(out) if command == "tag"
                   else out.read_text(encoding="utf-8").splitlines())
        assert len(written) == len(lines_in) - len(empty)
    else:
        assert json.loads(lines[0])["error"] == "FormatError"  # a byte that is not UTF-8


# values an option's type, choices or range may refuse, or take oddly
ODD_VALUES = st.one_of(
    st.sampled_from(["", "nan", "-inf", "inf", "1e309", "-0", "0", "-1", "1_000", "0x10",
                     "\u0661\u0662", "1" * 5000, "1e-320", "yes", "NO", "binary", "multiclass",
                     "general_accuracy", "OID,OTP", "O,,", "0.2,0.2,0.6", "1,1,-1",
                     "0.5,0.5,1e-17", "#", "= =", "<*>", "\x00", "\x0c", "\u2028"]),
    st.integers().map(str), st.floats().map(repr),
    st.text(st.characters(codec="utf-8", exclude_characters="\n"), max_size=12),
)


@pytest.fixture(scope="module")
def fuzz_commands(fuzz_model):
    """Each command's argv with every path and every size pinned by a flag,
    so that a config file changes only the other options."""
    _, folder = fuzz_model
    logs, _ = generate_synthetic(seed=8, n_templates=5, n_logs=50)
    write_annotations(logs[:12], folder / "train.tsv")
    write_annotations(logs[12:18], folder / "val.tsv")
    (folder / "vectors.txt").write_text("executor 1 2 3 4\n")
    (folder / "structured.csv").write_text("Content,EventTemplate\ntook 5 s,took <*> s\n")
    out = folder / "cfg-out"

    def f(name):
        return str(folder / name)

    sizes = ["--epochs", "1", "--word-dim", "4", "--char-emb-dim", "3", "--char-filters", "3",
             "--char-kernel", "3", "--lstm-hidden", "3", "--max-word-len", "6",
             "--min-freq", "1"]
    return {
        "split": ["split", "--input", f("train.tsv"), "--out-dir", str(out / "split")],
        "train": ["train", "--train", f("train.tsv"), "--val", f("val.tsv"),
                  "--out", str(out / "m.valb"), "--vectors", f("vectors.txt"), *sizes],
        "finetune": ["finetune", "--model", f("model.valb"), "--train", f("train.tsv"),
                     "--val", f("val.tsv"), "--out", str(out / "t.valb"), "--epochs", "1"],
        "tag": ["tag", "--model", f("model.valb"), "--input", f("lines.txt"),
                "--output", str(out / "tagged.tsv")],
        "parse": ["parse", "--model", f("model.valb"), "--input", f("lines.txt"),
                  "--output", str(out / "parsed.jsonl"), "--templates", str(out / "t.jsonl")],
        "eval": ["eval", "--gold", f("val.tsv"), "--pred", f("val.tsv"),
                 "--report", str(out / "report.json")],
        "derive-annotations": ["derive-annotations", "--structured", f("structured.csv"),
                               "--out", str(out / "derived.tsv")],
        "synth": ["synth", "--templates", "2", "--logs", "5", "--out", str(out / "s.tsv")],
    }


_PARSER, _COMMANDS = build_parser()
CONFIG_KEYS = sorted({action.dest for p in (_PARSER, *_COMMANDS.values()) for action in p._actions
                      if action.dest != "help"})


@settings(max_examples=150, deadline=None)
@given(entries=st.lists(st.tuples(st.sampled_from(CONFIG_KEYS), ODD_VALUES),
                        min_size=1, max_size=4),
       command=st.sampled_from(["split", "train", "finetune", "tag", "parse", "eval",
                                "derive-annotations", "synth"]))
def test_fuzz_config_values_of_known_keys(fuzz_model, fuzz_commands, entries, command):
    _, folder = fuzz_model
    cfg = folder / "fuzz.cfg"
    cfg.write_text("".join(f"{key} = {value}\n" for key, value in entries), encoding="utf-8")
    _run_fuzzed(folder, ["--config", str(cfg), *fuzz_commands[command]])


def _csv_line(fields):
    """``fields`` as one CSV row, quoted as the csv module quotes it, in bytes."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(fields)
    return buf.getvalue().encode()


# tokens of a structured row or an annotation line, some of them odd
ODD_TOKENS = st.one_of(
    st.sampled_from(["took", "5", "s", "<*>", "*", "a,b", 'q"q', "é", "a b", "\u00a0",
                     "x\ny", "\r", "\x0c", "", "#", "# x"]),
    st.text(st.characters(codec="utf-8"), max_size=4),
)
# a content and a template that wildcards some of its tokens, or bytes that
# spoil a row
CSV_ROWS = st.one_of(
    st.lists(st.tuples(ODD_TOKENS, st.booleans()), max_size=5).map(lambda toks: _csv_line(
        [" ".join(t for t, _ in toks), " ".join("<*>" if wild else t for t, wild in toks)])),
    st.lists(st.one_of(ODD_BYTES, st.sampled_from([b",", b'"']), st.binary(max_size=6)),
             max_size=6).map(lambda parts: b"".join(parts) + b"\n"),
)


@settings(max_examples=100, deadline=None)
@given(header=st.one_of(st.just(b"Content,EventTemplate\n"),
                        st.sampled_from([b"EventTemplate,Content,Id\r\n", b"Content\n", b"",
                                         "\ufeffContent,EventTemplate\n".encode()])),
       rows=st.lists(CSV_ROWS, max_size=6))
def test_fuzz_structured_csv_through_derive_annotations(fuzz_model, header, rows):
    _, folder = fuzz_model
    (folder / "fuzz.csv").write_bytes(header + b"".join(rows))
    out = folder / "csv-out" / "derived.tsv"
    code, lines = _run_fuzzed(folder, ["derive-annotations", "--structured",
                                       str(folder / "fuzz.csv"), "--out", str(out)])
    assert code != 2, lines  # the flags are valid: what the file holds is no usage error
    if code == 0:
        read_annotations(out)  # what it writes reads back


# annotation lines: well-formed ones, and odd tokens, tags and bytes
GOOD_TOKENS = st.sampled_from(["a", "5", "took", "é", "<*>", "0x1f"])
GOOD_TAGS = st.sampled_from(["O", "B-OID", "B-TID"])
GOOD_LINES = st.tuples(GOOD_TOKENS, GOOD_TAGS).map(lambda p: "\t".join(p).encode())
ODD_LINES = st.one_of(
    st.tuples(ODD_TOKENS, GOOD_TAGS).map(lambda p: "\t".join(p).encode()),
    st.tuples(GOOD_TOKENS, st.sampled_from(["I-OID", "I-VAR", "B-XYZ", "o", "O ", "", "I-"])).map(
        lambda p: "\t".join(p).encode()),
    st.sampled_from([b"# note", b"#\tO", b"a\tO\tO", b"a O", b"\r"]),
    st.binary(max_size=8),
)


@st.composite
def annotation_files(draw):
    """Blocks of well-formed lines, each ended by a blank line, with up to
    two odd lines put in anywhere."""
    lines = []
    for block in draw(st.lists(st.lists(GOOD_LINES, min_size=1, max_size=4), min_size=2,
                               max_size=10)):
        lines += [*block, b""]
    for pos, line in draw(st.lists(st.tuples(st.integers(0, len(lines)), ODD_LINES),
                                   max_size=2)):
        lines.insert(pos, line)
    return b"\n".join(lines)


@settings(max_examples=100, deadline=None)
@given(raw=annotation_files(),
       command=st.sampled_from(["split", "eval"]), against_itself=st.booleans(),
       flags=st.lists(st.sampled_from(["--token-level", "--collapse-binary"]), unique=True))
def test_fuzz_annotation_files_through_split_and_eval(fuzz_model, fuzz_commands, raw, command,
                                                     against_itself, flags):
    # fuzz_commands writes val.tsv, the other pred file
    _, folder = fuzz_model
    path = folder / "fuzz.tsv"
    path.write_bytes(raw)
    out = folder / "tsv-out"
    if command == "split":
        argv = ["split", "--input", str(path), "--out-dir", str(out)]
    else:
        pred = path if against_itself else folder / "val.tsv"
        argv = ["eval", "--gold", str(path), "--pred", str(pred),
                "--report", str(out / "report.json"), *flags]
    code, lines = _run_fuzzed(folder, argv)
    assert code != 2, lines  # the flags are valid: what the file holds is no usage error
    if code == 1:  # IOBError is for ill-formed tag sequences alone
        error = json.loads(lines[0])
        assert error["error"] in ("FormatError", "TagError", "IOBError", "TokenMismatch",
                                  "EmptyInput"), error
        assert error["error"] != "IOBError" or "invalid tag transition" in error["message"]
    if code == 0 and command == "split":
        parts = [read_annotations(out / f"{name}.tsv") for name in ("train", "val", "test")]
        assert sorted(map(repr, sum(parts, []))) == sorted(map(repr, read_annotations(path)))
    elif code == 0:
        report = json.loads((out / "report.json").read_text())
        assert report["n_logs"] == len(read_annotations(path))
        if against_itself:
            assert report["general_accuracy"] == 1.0


# values of a vector line: float32 numbers, finite or not, and text that is not a number
VEC_VALUES = st.one_of(
    st.floats(width=32).map(repr),
    st.sampled_from(["nan", "-inf", "1e309", "3.5e38", "-0", "0x10", "", "1_0", "\u0663", "1e"]),
)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), word_dim=st.integers(1, 4), freeze=st.booleans(),
       newline=st.sampled_from([b"\n", b"\r\n", b" \n"]))
def test_fuzz_vector_files_through_train(fuzz_model, fuzz_commands, data, word_dim, freeze,
                                         newline):
    # fuzz_commands writes train.tsv and val.tsv; vector lines name their words
    _, folder = fuzz_model
    words = sorted({tok for log in read_annotations(folder / "train.tsv") for tok in log.tokens})
    # a count of values, most often the right one
    count = st.one_of(st.just(word_dim), st.integers(0, 5))
    header = data.draw(st.one_of(st.none(), st.tuples(st.integers(0, 9), count)))
    lines = [] if header is None else [f"{header[0]} {header[1]}".encode()]
    lines += data.draw(st.lists(st.one_of(
        st.tuples(st.one_of(st.sampled_from(words), st.sampled_from(words).map(str.upper),
                            ODD_TOKENS),
                  count.flatmap(lambda k: st.lists(VEC_VALUES, min_size=k, max_size=k))).map(
            lambda p: " ".join([p[0], *p[1]]).encode()),
        st.sampled_from(words).map(lambda w: f"{w} {' '.join(['0.5'] * word_dim)}".encode()),
        ODD_BYTES,
    ), max_size=6))
    (folder / "fuzz.vec").write_bytes(newline.join(lines))
    out = folder / "vec-out" / "m.valb"
    argv = ["train", "--train", str(folder / "train.tsv"), "--val", str(folder / "val.tsv"),
            "--out", str(out), "--vectors", str(folder / "fuzz.vec"), "--epochs", "1",
            "--word-dim", str(word_dim), "--char-emb-dim", "3", "--char-filters", "3",
            "--lstm-hidden", "3", "--max-word-len", "6"]
    code, lines = _run_fuzzed(folder, argv + ["--freeze-word-embeddings"] * freeze)
    assert code != 2, lines  # the flags are valid: what the file holds is no usage error
    if code == 0:
        assert load_model(out).params["word_emb"].shape[1] == word_dim
