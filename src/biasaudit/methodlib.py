"""The bias-detection method library: validated records plus retrieval.

Retrieval is deterministic and offline: a scenario tag filter followed by
IDF-weighted token overlap between the query text and each entry's
intention.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from importlib import resources

from .errors import DuplicateIdError, SchemaError, UnknownIdError
from .metrics import Scenario

_REQUIRED_FIELDS = ("id", "intention", "method", "title", "article_link",
                    "field", "year", "tags")
_BIAS_TAGS = {"distribution", "correlation"}
_DATA_TAGS = {s.value for s in Scenario}


@dataclass(frozen=True)
class MethodEntry:
    id: str
    intention: str
    method: dict  # ordered step-name -> step-text
    title: str
    article_link: str
    field_name: str
    year: int
    tags: dict = field(default_factory=dict)

    def to_record(self) -> dict:
        return {"id": self.id, "intention": self.intention,
                "method": self.method, "title": self.title,
                "article_link": self.article_link, "field": self.field_name,
                "year": self.year, "tags": self.tags}

    @classmethod
    def from_record(cls, rec: dict, position: int | None = None) -> "MethodEntry":
        if not isinstance(rec, dict):
            raise SchemaError(f"entry {position!r}: expected an object, "
                              f"got {rec!r}")
        where = f"entry {rec.get('id', position)!r}"
        missing = [f for f in _REQUIRED_FIELDS if f not in rec]
        if missing:
            raise SchemaError(f"{where}: missing fields {missing}")
        if not str(rec["intention"]).strip():
            raise SchemaError(f"{where}: intention must be non-empty")
        if not isinstance(rec["method"], dict) or not rec["method"]:
            raise SchemaError(f"{where}: method must be a non-empty step map")
        tags = rec["tags"]
        if not isinstance(tags, dict):
            raise SchemaError(f"{where}: tags must be an object, got {tags!r}")
        if tags.get("bias_type") not in _BIAS_TAGS:
            raise SchemaError(f"{where}: tags.bias_type must be one of {_BIAS_TAGS}")
        if tags.get("data_type") not in _DATA_TAGS:
            raise SchemaError(f"{where}: tags.data_type must be one of {_DATA_TAGS}")
        try:
            year = int(rec["year"])
        except (TypeError, ValueError):
            raise SchemaError(f"{where}: year must be an integer") from None
        return cls(id=str(rec["id"]), intention=str(rec["intention"]),
                   method=dict(rec["method"]), title=str(rec["title"]),
                   article_link=str(rec["article_link"]),
                   field_name=str(rec["field"]), year=year, tags=dict(tags))


@dataclass(frozen=True)
class RetrievalQuery:
    scenario: Scenario
    free_text: str = ""
    top_k: int = 5

    def __post_init__(self):
        if self.top_k < 1:
            raise ValueError("top_k must be >= 1")


def load_library(path) -> list:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SchemaError(f"library {path}: {exc}") from exc
    if not isinstance(payload, list):
        raise SchemaError(f"{path}: library file must hold a list of records")
    entries = []
    seen = set()
    for pos, rec in enumerate(payload):
        entry = MethodEntry.from_record(rec, position=pos)
        if entry.id in seen:
            raise DuplicateIdError(f"duplicate method id {entry.id!r} at position {pos}")
        seen.add(entry.id)
        entries.append(entry)
    return entries


def builtin_library() -> list:
    """The library shipped with the package."""
    return load_library(resources.files("biasaudit.data") / "method_library.json")


def list_intentions(entries) -> list:
    return [(e.id, e.intention) for e in entries]


def get_method_by_id(entries, method_id: str) -> MethodEntry:
    for e in entries:
        if e.id == method_id:
            return e
    raise UnknownIdError(f"no method with id {method_id!r} (lookup is case-sensitive)")


_TOKEN_RE = re.compile(r"[a-z0-9]+")


def _tokens(text: str) -> set:
    return set(_TOKEN_RE.findall(text.lower()))


def retrieve(entries, query: RetrievalQuery) -> list:
    """Scenario-tag filter, then IDF-weighted token-overlap ranking."""
    candidates = [e for e in entries
                  if e.tags.get("data_type") == query.scenario.value]
    if not candidates:
        return []
    docs = {e.id: _tokens(e.intention) for e in candidates}
    df: dict = {}
    for toks in docs.values():
        for t in toks:
            df[t] = df.get(t, 0) + 1
    n_docs = len(candidates)
    idf = {t: math.log((1 + n_docs) / (1 + c)) + 1.0 for t, c in df.items()}
    q = _tokens(query.free_text)

    def score(entry):
        toks = docs[entry.id]
        overlap = q & toks
        if not q or not toks:
            return 0.0
        weight = sum(idf.get(t, 1.0) for t in overlap)
        return weight / math.sqrt(len(q) * len(toks))

    ranked = sorted(candidates, key=lambda e: (-score(e), e.id))
    return ranked[:query.top_k]
