"""Command-line interface wiring the toolkit into reproducible workflows.

Subcommands: split, train, finetune, tag, parse, eval, derive-annotations,
synth. Flags may also come from a config file of `key = value` lines
(`--config`); command-line flags win. Every command writes outputs
atomically, is byte-reproducible for fixed inputs and seed, and returns the
path of its primary output; `main` then echoes the options that are set to
`run-config.txt` next to it.

Exit codes: 0 on success. 2 for the command line itself, one JSON line
`{"error": "usage", ...}` on stderr: a flag or config value that argparse
or a check of its range refuses, and `{"error": "io", ...}` for a file that
cannot be opened or written. 1 for an input's content, one JSON line naming
the `LogvarError` subclass, and the file where one is known: a malformed
file, too few logs (`EmptyInput`), a model of the wrong mode (`ModeError`),
scores that overflow while tagging, a run that diverges. Valid flags never
exit 2 because of what the files they name hold.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from pathlib import Path

from . import synth
from .corpus import (
    AnnotatedLog,
    SplitSpec,
    derive_binary_annotations,
    read_annotations,
    read_lines,
    split_dataset,
    write_annotations,
    write_atomic,
)
from .embed import build_vocabs, load_word_vectors
from .errors import AlignmentError, EmptyInput, EmptyLog, FormatError, LogvarError, ModeError
from .evaluate import evaluate, to_binary_annotations
from .parse import DEFAULT_WILDCARD, parse_corpus, result_record
from .tagger import Hyperparams, TaggerModel, init_model, tag_logs
from .taxonomy import BINARY, CATEGORY_ABBREVS, MULTICLASS, VariableCategory
from .train import (
    SELECTION_METRICS, TrainConfig, load_model, save_model, train,
)

DEFAULT_SEED = 42


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose errors raise UsageError; its subparsers share its class."""

    def error(self, message: str):
        raise UsageError(f"{self.prog}: {message}")


def _echo_run_config(out_path: str | Path, args: argparse.Namespace) -> None:
    lines = [f"{k} = {v}" for k, v in sorted(vars(args).items()) if k != "func" and v is not None]
    write_atomic(Path(out_path).parent / "run-config.txt", "\n".join(lines) + "\n")


@contextmanager
def _about(path: str, **paths: str) -> Iterator[None]:
    """Name the file an EmptyInput or ModeError raised inside is about:
    ``paths[exc.which]`` when the error's ``which`` (say "validation") is a
    key of ``paths``, and ``path`` otherwise."""
    try:
        yield
    except (EmptyInput, ModeError) as exc:
        raise type(exc)(f"{paths.get(getattr(exc, 'which', None), path)}: {exc}") from exc


def _parse_ratios(text: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise UsageError("--ratios must be three comma-separated fractions")
    a, b, c = (float(p) for p in parts)
    return a, b, c


def _parse_preserve(text: str) -> set[VariableCategory]:
    if not text.strip():
        return set()
    out = set()
    for abbrev in text.split(","):
        abbrev = abbrev.strip()
        if abbrev not in CATEGORY_ABBREVS:
            raise UsageError(
                f"unknown category {abbrev!r} in --preserve; "
                f"valid: {', '.join(CATEGORY_ABBREVS)}"
            )
        out.add(VariableCategory.from_abbrev(abbrev))
    return out


# the config fields whose option is not named after the field, and the
# choices and help of some fields' options
_RENAMED = {"gradient_clip_norm": "clip_norm", "use_char_channel": "no_char_channel"}
_EXTRA = {"selection_metric": {"choices": list(SELECTION_METRICS)},
          "use_char_channel": {"help": "char-ablated baseline (word embeddings only)"}}


def _add_config_flags(p: argparse.ArgumentParser, cls: type) -> None:
    """One option per field of the config dataclass ``cls``, ``--`` and the
    field's name (or its ``_RENAMED`` name), of the field's type and default.
    A bool field's option is a store_true flag; a field that defaults to
    True is set False by it."""
    for f in dataclasses.fields(cls):
        kind = type(f.default)
        opts = ({"action": "store_true"} if kind is bool
                else {"type": None if kind is str else kind, "default": f.default})
        p.add_argument("--" + _RENAMED.get(f.name, f.name).replace("_", "-"), **opts,
                       **_EXTRA.get(f.name, {}))


def _from_args(cls: type, args: argparse.Namespace):
    """A ``cls`` with each field from its option (``_add_config_flags``)."""
    values = {}
    for f in dataclasses.fields(cls):
        value = getattr(args, _RENAMED.get(f.name, f.name))
        values[f.name] = not value if f.default is True else value
    return cls(**values)


def cmd_split(args: argparse.Namespace) -> Path:
    spec = SplitSpec(*_parse_ratios(args.ratios), seed=args.seed)
    logs = read_annotations(args.input)
    with _about(args.input):
        train_set, val_set, test_set = split_dataset(logs, spec)
    out = Path(args.out_dir)
    write_annotations(train_set, out / "train.tsv")
    write_annotations(val_set, out / "val.tsv")
    write_annotations(test_set, out / "test.tsv")
    print(f"split {len(logs)} logs -> {len(train_set)}/{len(val_set)}/{len(test_set)}")
    return out / "train.tsv"


def cmd_train(args: argparse.Namespace) -> str:
    train_set = read_annotations(args.train)
    val_set = read_annotations(args.val)
    with _about(args.train):
        wv, cv = build_vocabs(train_set, min_freq=args.min_freq)
    hp = _from_args(Hyperparams, args)
    pretrained = None
    if args.vectors:
        pretrained, coverage = load_word_vectors(args.vectors, wv, hp.word_dim, seed=args.seed)
        print(f"pretrained vector coverage: {coverage:.3f}")
    model = init_model(hp, wv, cv, pretrained=pretrained, seed=args.seed, mode=args.mode)
    return _fit(model, train_set, val_set, args)


def cmd_finetune(args: argparse.Namespace) -> str:
    model = load_model(args.model)
    return _fit(model, read_annotations(args.train), read_annotations(args.val), args)


def _fit(model: TaggerModel, train_set: list[AnnotatedLog], val_set: list[AnnotatedLog],
         args: argparse.Namespace) -> str:
    """The tail of ``train`` and ``finetune``: train from ``model`` (fresh or
    loaded), save the best checkpoint and print the history."""
    with _about(args.train, validation=args.val):
        best, history = train(model, train_set, val_set, _from_args(TrainConfig, args))
    save_model(best, args.out)
    for h in history:
        print(f"epoch {h.epoch:3d}  loss {h.train_loss:.4f}  val {h.val_metric:.4f}")
    print(f"saved best checkpoint to {args.out}")
    return args.out


def _nonempty(results: Iterable[object]) -> Iterator[tuple[int, object]]:
    """(line number, result) of each result that is not None; a None is an empty line, reported."""
    for i, result in enumerate(results, start=1):
        if result is None:
            print(f"line {i}: empty log, skipped", file=sys.stderr)
        else:
            yield i, result


def cmd_tag(args: argparse.Namespace) -> str:
    model = load_model(args.model)
    tagged = [log for _, log in _nonempty(tag_logs(model, list(read_lines(args.input))))]
    write_annotations(tagged, args.output)
    return args.output


def cmd_parse(args: argparse.Namespace) -> str:
    model = load_model(args.model)
    preserve = _parse_preserve(args.preserve)
    with _about(args.model):
        results, store = parse_corpus(model, list(read_lines(args.input)), preserve,
                                      wildcard=args.wildcard)
    records = [result_record(i, result) for i, result in _nonempty(results)]
    write_atomic(args.output, "".join(r + "\n" for r in records))
    if args.templates:
        write_atomic(args.templates, "".join(json.dumps(e, ensure_ascii=False) + "\n"
                                             for e in store.summary()))
    print(f"parsed {len(records)} logs into {len(store.entries)} templates")
    return args.output


def cmd_eval(args: argparse.Namespace) -> str:
    golds = read_annotations(args.gold)
    preds = read_annotations(args.pred)
    if args.collapse_binary:
        golds = [to_binary_annotations(l) for l in golds]
        preds = [to_binary_annotations(l) for l in preds]
    with _about(args.gold):
        report = evaluate(preds, golds, token_level=args.token_level)
    write_atomic(args.report, report.to_json() + "\n")
    print(report.to_text())
    return args.report


def cmd_derive_annotations(args: argparse.Namespace) -> Path:
    out = Path(args.out)
    derived: list[AnnotatedLog] = []
    errors: list[str] = []
    # the csv module ends rows itself (a quoted field may hold a "\n"), so each
    # line gets back the "\n" that read_lines takes off; a short row's missing
    # fields read as empty, an empty log
    reader = csv.DictReader((line + "\n" for line in read_lines(args.structured)), restval="")
    try:
        for column in (args.content_col, args.template_col):
            if column not in (reader.fieldnames or ()):
                raise FormatError(f"{args.structured}: the header row has no column {column!r}")
        for row in reader:
            # the row ends on line reader.line_num and spans one more line per
            # newline held in its fields (blank lines before it are skipped)
            fields = [v for v in row.values() if isinstance(v, str)] + row.get(None, [])
            first = reader.line_num - sum(v.count("\n") for v in fields)
            try:
                derived.append(
                    derive_binary_annotations(row[args.content_col], row[args.template_col])
                )
            except (AlignmentError, EmptyLog) as exc:
                errors.append(f"line {first}: {exc}")
    except csv.Error as exc:  # e.g. a lone "\r" outside a quoted field
        raise FormatError(f"{args.structured}: line {reader.reader.line_num}: {exc}") from exc
    write_annotations(derived, out)
    if errors:
        sidecar = out.with_suffix(out.suffix + ".errors")
        write_atomic(sidecar, "\n".join(errors) + "\n")
        print(f"{len(errors)} rows could not be aligned (see {sidecar})", file=sys.stderr)
    print(f"derived {len(derived)} binary-annotated logs")
    return out


def cmd_synth(args: argparse.Namespace) -> Path:
    logs, spec = synth.generate_synthetic(args.seed, args.templates, args.logs)
    out = Path(args.out)
    write_annotations(logs, out)
    write_atomic(
        out.with_suffix(out.suffix + ".spec.json"), json.dumps(spec.to_dict(), indent=2) + "\n"
    )
    counts: dict[str, int] = {c: 0 for c in CATEGORY_ABBREVS}
    for log in logs:
        for tag in log.tags:
            if tag.prefix == "B":
                counts[tag.category] += 1
    print("category coverage (B- spans):")
    for cat, n in counts.items():
        print(f"  {cat}: {n}")
    return out


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each subcommand's parser by name."""
    parser = _Parser(prog="logvar", description="variable-aware log abstraction toolkit")
    parser.add_argument("--config", help="key = value config file; flags override it")
    sub = parser.add_subparsers(dest="command", required=True)
    commands: dict[str, argparse.ArgumentParser] = {}

    p = commands["split"] = sub.add_parser(
        "split", help="split an annotation file into train/val/test")
    p.add_argument("--input", required=True)
    p.add_argument("--ratios", default="0.2,0.2,0.6")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_split)

    p = commands["train"] = sub.add_parser(
        "train", help="train a tagger and save the best checkpoint")
    p.add_argument("--train", required=True)
    p.add_argument("--val", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--mode", default=MULTICLASS, choices=[MULTICLASS, BINARY])
    p.add_argument("--vectors", help="pretrained word vector file (text format)")
    _add_config_flags(p, TrainConfig)
    _add_config_flags(p, Hyperparams)
    p.add_argument("--min-freq", type=int, default=1)
    p.set_defaults(func=cmd_train)

    p = commands["finetune"] = sub.add_parser(
        "finetune", help="fine-tune a saved model on a small sample")
    p.add_argument("--model", required=True)
    p.add_argument("--train", required=True)
    p.add_argument("--val", required=True)
    p.add_argument("--out", required=True)
    _add_config_flags(p, TrainConfig)
    p.set_defaults(func=cmd_finetune)

    p = commands["tag"] = sub.add_parser(
        "tag", help="tag raw log lines with a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True, help="file of raw log lines")
    p.add_argument("--output", required=True, help="annotation-format output")
    p.set_defaults(func=cmd_tag)

    p = commands["parse"] = sub.add_parser(
        "parse", help="extract templates, preserving selected categories")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--preserve", default="", help="comma-separated category abbreviations")
    p.add_argument("--wildcard", default=DEFAULT_WILDCARD)
    p.add_argument("--output", required=True, help="line-delimited JSON records")
    p.add_argument("--templates", help="templates summary file")
    p.set_defaults(func=cmd_parse)

    p = commands["eval"] = sub.add_parser(
        "eval", help="score predictions against gold annotations")
    p.add_argument("--gold", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--report", required=True, help="JSON report output")
    p.add_argument("--token-level", action="store_true")
    p.add_argument("--collapse-binary", action="store_true",
                   help="relabel all variable categories to VAR before scoring")
    p.set_defaults(func=cmd_eval)

    p = commands["derive-annotations"] = sub.add_parser(
        "derive-annotations", help="binary annotations from a structured content/template file")
    p.add_argument("--structured", required=True, help="CSV with content and template columns")
    p.add_argument("--content-col", default="Content")
    p.add_argument("--template-col", default="EventTemplate")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_derive_annotations)

    p = commands["synth"] = sub.add_parser(
        "synth", help="generate a synthetic annotated corpus")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--templates", type=int, default=20)
    p.add_argument("--logs", type=int, default=2000)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    return parser, commands


def _config_defaults(args: argparse.Namespace, parser: argparse.ArgumentParser,
                     commands: dict[str, argparse.ArgumentParser]) -> dict[str, object]:
    """Values from the ``--config`` file for the options of ``args.command``.

    Each line is ``key = value``, the key an option's dest; a line whose
    first non-blank character is ``#`` is a comment, and a ``#`` elsewhere is
    part of the value. Keys of other commands' options are skipped, so one
    file can serve several commands; a key no command has raises UsageError.
    A flag's value is 1/true/yes or 0/false/no in any case; any other value
    is converted with its option's type and must be one of its choices. A
    value that is not raises UsageError naming the file, the line and the key.
    """
    known = {action.dest for p in (parser, *commands.values()) for action in p._actions
             if action.default is not argparse.SUPPRESS}  # not --help
    actions = {action.dest: action for action in commands[args.command]._actions}
    defaults: dict[str, object] = {}
    for lineno, line in enumerate(read_lines(args.config), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        where = f"{args.config}: line {lineno}"
        if "=" not in line:
            raise UsageError(f"{where}: expected 'key = value'")
        key, text = (part.strip() for part in line.split("=", 1))
        if key not in known:
            raise UsageError(f"{where}: no command has an option {key!r}")
        action = actions.get(key)
        if action is None:  # another command's option, or --config itself
            continue
        if isinstance(action.default, bool):
            if text.lower() not in ("1", "true", "yes", "0", "false", "no"):
                raise UsageError(f"{where}: {key} = {text!r} is not 1/true/yes or 0/false/no")
            defaults[key] = text.lower() in ("1", "true", "yes")
            continue
        try:
            value = action.type(text) if action.type else text
        except ValueError:
            raise UsageError(f"{where}: {key} = {text!r} is not a valid "
                             f"{action.type.__name__}") from None
        if action.choices is not None and value not in action.choices:
            raise UsageError(f"{where}: {key} = {text!r} is not one of {action.choices}")
        defaults[key] = value
    return defaults


def main(argv: list[str] | None = None) -> int:
    parser, commands = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = parser.parse_args(argv)
        if args.config:
            # config values become the command's defaults; flags override them
            commands[args.command].set_defaults(**_config_defaults(args, parser, commands))
            args = parser.parse_args(argv)
        _echo_run_config(args.func(args), args)
        return 0
    except (UsageError, ValueError) as exc:  # ValueError: an argument out of range
        print(json.dumps({"error": "usage", "message": str(exc)}), file=sys.stderr)
        return 2
    except OSError as exc:
        print(json.dumps({"error": "io", "message": str(exc)}), file=sys.stderr)
        return 2
    except LogvarError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
