"""Templates from tagged logs, with selected variable categories preserved.

Contiguous B-X(+I-X) runs form one variable occurrence each. Occurrences
whose category is in the preserve set keep their concrete (space-joined)
value in the rendered template; all others become the wildcard token. The
canonical template always abstracts every variable to DEFAULT_WILDCARD, so
neither preservation nor the choice of wildcard changes template ids. A
template's identity is its canonical template and the positions of its
slots, which differ from the positions of the DEFAULT_WILDCARD tokens only
when a static token is literally the wildcard.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from .corpus import AnnotatedLog
from .evaluate import spans
# tag_log stays importable here: the benchmark's layer trace hooks logvar.parse.tag_log
from .tagger import TaggerModel, tag_log, tag_logs  # noqa: F401
from .taxonomy import MULTICLASS, VariableCategory

DEFAULT_WILDCARD = "<*>"


@dataclass(frozen=True, slots=True)
class Extraction:
    category: str
    value: str
    start: int
    end: int  # exclusive token index

    def to_dict(self) -> dict:
        return {"category": self.category, "value": self.value,
                "start": self.start, "end": self.end}


@dataclass(frozen=True, slots=True)
class ParseResult:
    template: str
    canonical_template: str
    template_id: str
    extractions: tuple[Extraction, ...]


@dataclass
class TemplateStore:
    """Template id -> (canonical template, first-seen ordinal, occurrence count)."""

    entries: dict[str, dict] = field(default_factory=dict)

    def intern(self, canonical: str, template_id: str) -> str:
        """Count one occurrence of a template under its id and return the id."""
        entry = self.entries.get(template_id)
        if entry is None:
            entry = {"canonical_template": canonical, "ordinal": len(self.entries), "count": 0}
            self.entries[template_id] = entry
        entry["count"] += 1
        return template_id

    def summary(self) -> list[dict]:
        return [
            {"template_id": tid, "ordinal": e["ordinal"],
             "canonical_template": e["canonical_template"], "count": e["count"]}
            for tid, e in sorted(self.entries.items(), key=lambda kv: kv[1]["ordinal"])
        ]


def template_hash(canonical: str, slots: list[int]) -> str:
    """Stable 64-bit identifier of a template.

    ``slots`` are the canonical-token indices of the variable slots. They
    are hashed with the canonical string only when they differ from the
    indices of its DEFAULT_WILDCARD tokens, so a template without a literal
    wildcard token is identified by its canonical string.
    Tokens hold no whitespace, so the newline separator is unambiguous.
    The string is hashed as UTF-8 with lone surrogates (from undecodable
    input bytes) passed through, which is lossless.
    """
    payload = canonical
    if canonical.count(DEFAULT_WILDCARD) > len(slots):
        # some static token contains the wildcard text
        tokens = canonical.split(" ")
        if slots != [i for i, tok in enumerate(tokens) if tok == DEFAULT_WILDCARD]:
            payload += "\n" + " ".join(map(str, slots))
    return hashlib.blake2b(payload.encode("utf-8", "surrogatepass"), digest_size=8).hexdigest()


def extract_template(
    log: AnnotatedLog,
    preserve: set[VariableCategory] | frozenset[VariableCategory] = frozenset(),
    wildcard: str = DEFAULT_WILDCARD,
) -> ParseResult:
    preserve_abbrevs = {c.abbrev for c in preserve}
    runs = spans(log.tags)
    out_tokens: list[str] = []
    canon_tokens: list[str] = []
    slots: list[int] = []
    extractions: list[Extraction] = []
    pos = 0
    for cat, start, end in runs:
        out_tokens.extend(log.tokens[pos:start])
        canon_tokens.extend(log.tokens[pos:start])
        value = " ".join(log.tokens[start:end])
        out_tokens.append(value if cat in preserve_abbrevs else wildcard)
        slots.append(len(canon_tokens))
        canon_tokens.append(DEFAULT_WILDCARD)
        extractions.append(Extraction(cat, value, start, end))
        pos = end
    out_tokens.extend(log.tokens[pos:])
    canon_tokens.extend(log.tokens[pos:])
    canonical = " ".join(canon_tokens)
    return ParseResult(
        template=" ".join(out_tokens),
        canonical_template=canonical,
        template_id=template_hash(canonical, slots),
        extractions=tuple(extractions),
    )


def reconstruct(result: ParseResult) -> str:
    """Rebuild the original message from the canonical template + extractions.

    Each static token is one canonical-template token and each extraction
    one slot, so slots are located by the extractions' token positions, not
    by matching the wildcard string, which a log may contain literally.
    """
    canon = result.canonical_template.split(" ")
    rebuilt: list[str] = []
    slot = pos = 0  # canonical-template index, original token index
    for ex in result.extractions:
        rebuilt.extend(canon[slot : slot + ex.start - pos])
        rebuilt.append(ex.value)
        slot += ex.start - pos + 1
        pos = ex.end
    rebuilt.extend(canon[slot:])
    return " ".join(rebuilt)


def parse_corpus(
    model: TaggerModel,
    raw_logs: list[str],
    preserve: set[VariableCategory] | frozenset[VariableCategory] = frozenset(),
    wildcard: str = DEFAULT_WILDCARD,
) -> tuple[list[ParseResult | None], TemplateStore]:
    """Tag and template every raw log; empty lines yield None entries.

    Output order matches input order. Tagging runs in length-sorted batches
    (``tag_logs``); template ids and ordinals are assigned in a single
    ordered pass afterwards, so neither depends on how lines were batched.
    """
    if model.mode != MULTICLASS:
        raise ValueError("parse_corpus requires a multiclass model")
    store = TemplateStore()
    results: list[ParseResult | None] = []
    for annotated in tag_logs(model, raw_logs):
        if annotated is None:
            results.append(None)
            continue
        result = extract_template(annotated, preserve, wildcard)
        store.intern(result.canonical_template, result.template_id)
        results.append(result)
    return results, store


def result_record(line_no: int, result: ParseResult) -> str:
    """One line-delimited JSON record for parsed output files."""
    return json.dumps(
        {
            "line_no": line_no,
            "template_id": result.template_id,
            "template": result.template,
            "extractions": [e.to_dict() for e in result.extractions],
        },
        ensure_ascii=False,
    )
