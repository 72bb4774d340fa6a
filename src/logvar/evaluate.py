"""Evaluation measures over gold/predicted annotated logs.

Three measures: general accuracy (the static/variable split of a log is
entirely correct), variable-aware accuracy (the full tag sequence of a log,
including categories, is entirely correct), and per-category span-level
precision/recall/F1. Variable-aware accuracy can never exceed general
accuracy on the same predictions.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass

from .corpus import AnnotatedLog
from .errors import EmptyInput, TokenMismatch
from .taxonomy import BINARY_CATEGORY, Tag


def to_binary_annotations(log: AnnotatedLog) -> AnnotatedLog:
    """Relabel every variable category to the reserved binary pseudo-category.

    This is the collapse-at-eval path: multiclass predictions become
    comparable against binary (static/variable) gold annotations.
    """
    return AnnotatedLog(
        log.tokens,
        tuple(t if t.is_outside else Tag(t.prefix, BINARY_CATEGORY) for t in log.tags),
    )


def _check_pairs(preds: list[AnnotatedLog], golds: list[AnnotatedLog]) -> None:
    if len(preds) != len(golds):
        raise TokenMismatch(f"{len(preds)} predictions vs {len(golds)} gold logs")
    if not golds:
        raise EmptyInput("no logs to evaluate")
    for i, (p, g) in enumerate(zip(preds, golds)):
        if p.tokens != g.tokens:
            raise TokenMismatch(f"log {i}: token sequences differ")


def general_accuracy(preds: list[AnnotatedLog], golds: list[AnnotatedLog]) -> float:
    """Fraction of logs whose static-vs-variable split matches exactly: the same
    tokens are outside a variable, whatever the categories and spans of the rest."""
    _check_pairs(preds, golds)
    correct = sum(
        [t.is_outside for t in p.tags] == [t.is_outside for t in g.tags]
        for p, g in zip(preds, golds)
    )
    return correct / len(golds)


def variable_aware_accuracy(preds: list[AnnotatedLog], golds: list[AnnotatedLog]) -> float:
    """Fraction of logs whose full tag sequence matches tag-for-tag."""
    _check_pairs(preds, golds)
    correct = sum(p.tags == g.tags for p, g in zip(preds, golds))
    return correct / len(golds)


def spans(tags: tuple[Tag, ...] | list[Tag]) -> list[tuple[str, int, int]]:
    """Maximal B-X(+I-X) runs as (category, start, end) with end exclusive."""
    out: list[tuple[str, int, int]] = []
    start = None
    cat = None
    for i, tag in enumerate(tags):
        if tag.prefix == "B":
            if start is not None:
                out.append((cat, start, i))
            start, cat = i, tag.category
        elif tag.prefix == "I":
            continue
        else:
            if start is not None:
                out.append((cat, start, i))
                start = None
    if start is not None:
        out.append((cat, start, len(tags)))
    return out


@dataclass(frozen=True)
class CategoryScore:
    tp: int
    fp: int
    fn: int

    @property
    def precision(self) -> float:
        return self.tp / (self.tp + self.fp) if self.tp + self.fp else 0.0

    @property
    def recall(self) -> float:
        return self.tp / (self.tp + self.fn) if self.tp + self.fn else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if p + r else 0.0


def category_prf(
    preds: list[AnnotatedLog], golds: list[AnnotatedLog], token_level: bool = False
) -> tuple[dict[str, CategoryScore], dict[str, float]]:
    """Per-category precision/recall/F1 plus unweighted macro averages.

    Span-level by default: a predicted span is a true positive iff a gold
    span with the same category and identical boundaries exists. With
    ``token_level``, B-X/I-X tags are matched per position instead.
    Categories with no activity (TP=FP=FN=0) are excluded from the macros.
    """
    _check_pairs(preds, golds)
    tp: Counter[str] = Counter()
    fp: Counter[str] = Counter()
    fn: Counter[str] = Counter()
    for p, g in zip(preds, golds):
        if token_level:
            pred_items = Counter((t.category, i) for i, t in enumerate(p.tags) if not t.is_outside)
            gold_items = Counter((t.category, i) for i, t in enumerate(g.tags) if not t.is_outside)
        else:
            pred_items = Counter(spans(p.tags))
            gold_items = Counter(spans(g.tags))
        for item, n in pred_items.items():
            hit = min(n, gold_items.get(item, 0))
            tp[item[0]] += hit
            fp[item[0]] += n - hit
        for item, n in gold_items.items():
            fn[item[0]] += n - min(n, pred_items.get(item, 0))
    cats = sorted(set(tp) | set(fp) | set(fn))
    scores = {c: CategoryScore(tp[c], fp[c], fn[c]) for c in cats}
    if scores:
        macro = {
            "precision": sum(s.precision for s in scores.values()) / len(scores),
            "recall": sum(s.recall for s in scores.values()) / len(scores),
            "f1": sum(s.f1 for s in scores.values()) / len(scores),
        }
    else:
        macro = {"precision": 0.0, "recall": 0.0, "f1": 0.0}
    return scores, macro


@dataclass(frozen=True)
class MetricsReport:
    general_accuracy: float
    variable_aware_accuracy: float
    categories: dict[str, CategoryScore]
    macro: dict[str, float]
    n_logs: int

    def to_json(self) -> str:
        return json.dumps(
            {
                "n_logs": self.n_logs,
                "general_accuracy": self.general_accuracy,
                "variable_aware_accuracy": self.variable_aware_accuracy,
                "categories": {
                    c: {
                        "tp": s.tp, "fp": s.fp, "fn": s.fn,
                        "precision": s.precision, "recall": s.recall, "f1": s.f1,
                    }
                    for c, s in self.categories.items()
                },
                "macro": self.macro,
            },
            indent=2,
        )

    def to_text(self) -> str:
        lines = [
            f"logs evaluated        {self.n_logs}",
            f"general accuracy      {self.general_accuracy:.4f}",
            f"variable-aware acc.   {self.variable_aware_accuracy:.4f}",
            "",
            f"{'category':<10}{'P':>8}{'R':>8}{'F1':>8}{'TP':>7}{'FP':>7}{'FN':>7}",
        ]
        for c, s in self.categories.items():
            lines.append(
                f"{c:<10}{s.precision:>8.4f}{s.recall:>8.4f}{s.f1:>8.4f}"
                f"{s.tp:>7}{s.fp:>7}{s.fn:>7}"
            )
        lines.append(
            f"{'macro':<10}{self.macro['precision']:>8.4f}"
            f"{self.macro['recall']:>8.4f}{self.macro['f1']:>8.4f}"
        )
        return "\n".join(lines)


def evaluate(
    preds: list[AnnotatedLog], golds: list[AnnotatedLog], token_level: bool = False
) -> MetricsReport:
    scores, macro = category_prf(preds, golds, token_level=token_level)
    return MetricsReport(
        general_accuracy=general_accuracy(preds, golds),
        variable_aware_accuracy=variable_aware_accuracy(preds, golds),
        categories=scores,
        macro=macro,
        n_logs=len(golds),
    )
