"""Synthetic annotated-log corpus generator for self-contained experiments.

Each corpus is built from randomly constructed templates: 2-8 static
pseudo-words interleaved with 1-4 variable slots. Slot fillers follow
category-plausible lexical shapes (ids, paths/IPs, numerics, hyphenated
names, ...). Different seeds yield disjoint static vocabularies, which is
what makes cross-family transfer experiments meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .corpus import DEFAULT_WILDCARD, AnnotatedLog
from .taxonomy import OUTSIDE, Tag, VariableCategory

_LETTERS = np.array(list("abcdefghijklmnopqrstuvwxyz"))
_HEX = np.array(list("0123456789abcdef"))
_DIGITS = np.array(list("0123456789"))
_UNITS = ["KB", "MB", "GB"]
_EXTS = ["log", "dat", "tmp", "cfg"]


@dataclass(frozen=True)
class TemplateSpec:
    elements: tuple[str | VariableCategory, ...]  # static word, or the category of a slot

    @property
    def canonical(self) -> str:
        return " ".join(e if isinstance(e, str) else DEFAULT_WILDCARD for e in self.elements)


@dataclass(frozen=True)
class GeneratorSpec:
    seed: int
    n_templates: int
    n_logs: int
    templates: tuple[TemplateSpec, ...] = field(repr=False)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "n_templates": self.n_templates,
            "n_logs": self.n_logs,
            "templates": [
                {
                    "canonical": t.canonical,
                    "categories": [e.abbrev for e in t.elements if not isinstance(e, str)],
                }
                for t in self.templates
            ],
        }


# A draw is ``pool[rng.integers(0, len(pool))]``, not ``rng.choice(pool)``:
# both read the same stream and give the same element, and the index form
# costs less than half as much per call.


def _chars(rng: np.random.Generator, pool: np.ndarray, lo: int, hi: int) -> str:
    return "".join(pool[rng.integers(0, len(pool), size=rng.integers(lo, hi))])


def _word(rng: np.random.Generator, lo: int = 3, hi: int = 9) -> str:
    return _chars(rng, _LETTERS, lo, hi)


def _fill_slot(rng: np.random.Generator, cat: VariableCategory) -> list[str]:
    """Category-plausible value, as one or more whitespace tokens."""
    c = VariableCategory
    if cat is c.OBJECT_ID:
        if rng.random() < 0.5:
            return [_chars(rng, _HEX, 6, 11)]
        return [_chars(rng, _DIGITS, 5, 11)]
    if cat is c.LOCATION_INDICATOR:
        if rng.random() < 0.5:
            return [".".join(str(rng.integers(0, 256)) for _ in range(4))]
        return [f"/{_word(rng)}/{_word(rng)}.{_EXTS[rng.integers(0, len(_EXTS))]}"]
    if cat is c.OBJECT_NAME:
        return [f"{_word(rng, 3, 7)}-{rng.integers(0, 100):02d}"]
    if cat is c.TYPE_INDICATOR:
        return [str(rng.integers(0, 10))]
    if cat is c.SWITCH_INDICATOR:
        return [str(rng.integers(0, 4))]
    if cat is c.TIME_DURATION:
        if rng.random() < 0.5:
            return [f"{rng.integers(0, 600)}.{rng.integers(0, 1000):03d}"]
        return [str(rng.integers(1, 100000))]
    if cat is c.COMPUTING_RESOURCES:
        amount = str(rng.integers(1, 4096))
        unit = _UNITS[rng.integers(0, len(_UNITS))]
        if rng.random() < 0.5:
            return [amount + unit]
        return [amount, unit]  # two-token value exercising I- tags
    if cat is c.OBJECT_AMOUNT:
        return [str(rng.integers(0, 100000))]
    if cat is c.STATUS_CODE:
        if rng.random() < 0.5:
            return [f"0x{_chars(rng, _HEX, 2, 3)}"]
        return [str(rng.integers(0, 256))]
    # OTHER_PARAMETERS: mixed shapes
    if rng.random() < 0.5:
        return [f"{rng.integers(0, 10000):04d}"]
    return [f"{_word(rng, 2, 5)}{rng.integers(0, 100)}"]


def _make_templates(
    rng: np.random.Generator, n_templates: int
) -> tuple[TemplateSpec, ...]:
    # static vocabulary private to this corpus family
    pool = sorted({_word(rng) for _ in range(70)})
    categories = list(VariableCategory)
    # cycle a reshuffled category list so all 10 categories get slots
    cat_cycle: list[VariableCategory] = []
    templates: list[TemplateSpec] = []
    seen = set()
    while len(templates) < n_templates:
        n_static = int(rng.integers(2, 9))
        n_slots = int(rng.integers(1, 5))
        while len(cat_cycle) < n_slots:
            order = rng.permutation(len(categories))
            cat_cycle.extend(categories[k] for k in order)
        slot_cats = [cat_cycle.pop(0) for _ in range(n_slots)]
        statics = [pool[rng.integers(0, len(pool))] for _ in range(n_static)]
        elements: list[str | None] = list(statics)
        for _ in range(n_slots):
            elements.insert(int(rng.integers(0, len(elements) + 1)), None)
        # the slots take their categories left to right
        tpl = TemplateSpec(tuple(slot_cats.pop(0) if e is None else e for e in elements))
        if tpl.canonical in seen:
            continue  # identical wildcard skeletons would merge downstream
        seen.add(tpl.canonical)
        templates.append(tpl)
    return tuple(templates)


def generate_synthetic(
    seed: int, n_templates: int, n_logs: int
) -> tuple[list[AnnotatedLog], GeneratorSpec]:
    """Deterministic synthetic corpus with ground-truth tags."""
    if n_templates < 5:
        raise ValueError("need at least 5 templates")
    if n_logs < 10 * n_templates:
        raise ValueError("need at least 10 logs per template")
    rng = np.random.default_rng(seed)
    templates = _make_templates(rng, n_templates)
    spec = GeneratorSpec(seed, n_templates, n_logs, templates)

    logs: list[AnnotatedLog] = []
    for _ in range(n_logs):
        tpl = templates[int(rng.integers(0, n_templates))]
        tokens: list[str] = []
        tags: list[Tag] = []
        for elem in tpl.elements:
            if isinstance(elem, str):
                tokens.append(elem)
                tags.append(OUTSIDE)
            else:
                value = _fill_slot(rng, elem)
                tokens.extend(value)
                tags.append(Tag("B", elem.abbrev))
                tags.extend(Tag("I", elem.abbrev) for _ in value[1:])
        logs.append(AnnotatedLog(tuple(tokens), tuple(tags)))
    return logs, spec
