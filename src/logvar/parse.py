"""Templates from tagged logs, with selected variable categories preserved.

Contiguous B-X(+I-X) runs form one variable occurrence each. Occurrences
whose category is in the preserve set keep their concrete (space-joined)
value in the rendered template; all others become the wildcard token. The
canonical template always abstracts every variable to DEFAULT_WILDCARD, so
neither preservation nor the choice of wildcard changes template ids. A
template's identity is its canonical template and the positions of its
slots, which differ from the positions of the DEFAULT_WILDCARD tokens only
when a static token is literally the wildcard.

One builder, ``_result``, makes every record from a message's tokens and
its variable runs, which ``evaluate.spans`` finds in its tags.
``extract_template`` feeds it a tagged log; ``parse_corpus`` feeds it the
tokens and the tags that ``tagger.decode_ids``' indices name in
``model.tags``, so that parsing builds no ``AnnotatedLog`` per line.
Decoded paths are IOB-well-formed by construction (``tagger._crf_scores``),
so they are not checked again.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import NamedTuple

from .corpus import DEFAULT_WILDCARD, AnnotatedLog
from .errors import ModeError
from .evaluate import spans
from .tagger import TaggerModel, decode_ids, tokenize_all
# tag_log stays importable here: the benchmark's layer trace hooks logvar.parse.tag_log
from .tagger import tag_log  # noqa: F401
from .taxonomy import MULTICLASS, VariableCategory


class Extraction(NamedTuple):
    """One variable occurrence: a tuple, so cheap to build, and so equal to
    a plain tuple of the same four values."""

    category: str
    value: str
    start: int
    end: int  # exclusive token index

    def to_dict(self) -> dict:
        return self._asdict()


@dataclass(frozen=True, slots=True)
class ParseResult:
    template: str
    canonical_template: str
    template_id: str
    extractions: tuple[Extraction, ...]


@dataclass
class TemplateStore:
    """Template id -> canonical template and occurrence count; ordinals are first-seen order."""

    entries: dict[str, dict] = field(default_factory=dict)

    def intern(self, canonical: str, template_id: str) -> str:
        """Count one occurrence of a template under its id and return the id."""
        entry = self.entries.get(template_id)
        if entry is None:
            entry = self.entries[template_id] = {"canonical_template": canonical, "count": 0}
        entry["count"] += 1
        return template_id

    def summary(self) -> list[dict]:
        return [
            {"template_id": tid, "ordinal": ordinal,
             "canonical_template": e["canonical_template"], "count": e["count"]}
            for ordinal, (tid, e) in enumerate(self.entries.items())
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


def _one_token(wildcard: str) -> str:
    """``wildcard``, which must be one token, so that a rendered template
    has as many tokens as its canonical template; ValueError otherwise."""
    if wildcard.split() != [wildcard]:
        raise ValueError(f"the wildcard must be one token, not {wildcard!r}")
    return wildcard


def _result(
    tokens: tuple[str, ...], runs: list, preserve: set[str], wildcard: str
) -> ParseResult:
    """The record of a message of ``tokens`` whose variable occurrences are
    ``runs``, each (category abbreviation, start, end), in order;
    ``preserve`` holds the abbreviations whose values stay in the template."""
    out_tokens: list[str] = []
    canon_tokens: list[str] = []
    slots: list[int] = []
    extractions: list[Extraction] = []
    pos = 0
    for cat, start, end in runs:
        out_tokens.extend(tokens[pos:start])
        canon_tokens.extend(tokens[pos:start])
        value = " ".join(tokens[start:end])
        out_tokens.append(value if cat in preserve else wildcard)
        slots.append(len(canon_tokens))
        canon_tokens.append(DEFAULT_WILDCARD)
        extractions.append(Extraction(cat, value, start, end))
        pos = end
    out_tokens.extend(tokens[pos:])
    canon_tokens.extend(tokens[pos:])
    canonical = " ".join(canon_tokens)
    return ParseResult(
        template=" ".join(out_tokens),
        canonical_template=canonical,
        template_id=template_hash(canonical, slots),
        extractions=tuple(extractions),
    )


def extract_template(
    log: AnnotatedLog,
    preserve: set[VariableCategory] | frozenset[VariableCategory] = frozenset(),
    wildcard: str = DEFAULT_WILDCARD,
) -> ParseResult:
    """The record of a tagged log: its template, canonical template, id and
    extractions. Raises ValueError for a wildcard that is not one token."""
    return _result(log.tokens, spans(log.tags), {c.abbrev for c in preserve}, _one_token(wildcard))


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

    Output order matches input order. Each line is tokenized once, and one
    ``decode_ids`` call tags them all in length-sorted batches; each record
    is built from the line's tokens and tag indices, the result
    ``extract_template`` gives for the line's tagged log. Template ids and
    ordinals are assigned in a single ordered pass afterwards, so neither
    depends on how lines were batched. Raises ValueError, before decoding,
    for a wildcard that is not one token, and ModeError for a model that is
    not multiclass.
    """
    wildcard = _one_token(wildcard)
    if model.mode != MULTICLASS:
        raise ModeError(f"parse needs a {MULTICLASS} model, not a {model.mode} one")
    tags = model.tags
    kept = {c.abbrev for c in preserve}
    token_lists = tokenize_all(raw_logs)
    results = [_result(tokens, spans([tags[k] for k in path]), kept, wildcard) if tokens else None
               for tokens, path in zip(token_lists, decode_ids(model, token_lists))]
    store = TemplateStore()
    for result in results:
        if result is not None:
            store.intern(result.canonical_template, result.template_id)
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
