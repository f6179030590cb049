"""Concept lexicon, relation triple store, and document corpus handling.

All inputs are plain UTF-8 text files:

* lexicon TSV, one concept per line:
  ``CUI<TAB>preferred_name<TAB>synonym1|synonym2|...<TAB>semantic_type``
  (the synonym column may be empty);
* triple TSV: ``head_cui<TAB>relation<TAB>tail_cui``; lines starting with
  ``#`` are comments, and an optional ``# relations: a,b,c`` header pins the
  allowed relation inventory (otherwise it is derived from the file);
* corpus JSONL, one ``{"id": ..., "title": ..., "text": ...}`` object
  per line.

Blank lines are skipped in every text input. Every loaded structure is
immutable after construction and safe for concurrent reads. The line reader
here is the only code that opens a text input; it, the JSONL reader and
writer, and the versioned JSON container helpers serve every artifact and
model file of the package.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, TypeVar

from .errors import CasegraphError, FormatError, ParseError, ValidationError

T = TypeVar("T")

_WORD_RE = re.compile(r"[^\W_]+")


def normalize_surface(s: str) -> str:
    """Lowercase and fold every run of non-alphanumeric characters to one space.

    Idempotent; returns "" for strings without alphanumeric content.
    """
    return " ".join(_WORD_RE.findall(s.lower()))


def read_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """Yield ``(line number, line)`` for every non-blank line of a UTF-8 text file.

    Lines are numbered from 1 and lose their line ending (``\\n``, ``\\r\\n``
    or ``\\r``) but no other whitespace. A line that is not valid UTF-8
    raises ``ParseError`` naming the path and line.
    """
    # Undecodable bytes become lone surrogates, which a valid line never holds.
    with open(path, encoding="utf-8", errors="surrogateescape") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.rstrip("\n")
            if not line.strip():
                continue
            try:
                line.encode("utf-8")
            except UnicodeEncodeError as exc:
                byte = ord(line[exc.start]) - 0xDC00
                raise ParseError(f"{path}: line {lineno}: invalid UTF-8 (byte 0x{byte:02x})") from None
            yield lineno, line


@dataclass(frozen=True)
class Concept:
    cui: str
    preferred_name: str
    synonyms: tuple[str, ...]
    semantic_type: str


@dataclass(frozen=True)
class Triple:
    head: str
    relation: str
    tail: str


@dataclass(frozen=True)
class Document:
    id: str
    title: str
    text: str

    def content(self) -> str:
        """Text the pipeline operates on: title and body joined by a blank line."""
        if self.title:
            return self.title + "\n\n" + self.text
        return self.text


@dataclass
class Lexicon:
    """Concept table plus a normalized surface-form index.

    ``surface_index`` maps each normalized surface to the cuis that carry it,
    in file order (first entry is the highest-priority candidate).
    """

    concepts: dict[str, Concept] = field(default_factory=dict)
    surface_index: dict[str, list[str]] = field(default_factory=dict)
    max_surface_token_len: int = 0
    _order: list[str] = field(default_factory=list, repr=False)

    def lookup(self, surface: str) -> list[str]:
        """Candidate cuis for a surface, in lexicon priority order."""
        return list(self.surface_index.get(normalize_surface(surface), ()))

    def __len__(self) -> int:
        return len(self.concepts)

    def _index_surface(self, surface: str, cui: str) -> None:
        key = normalize_surface(surface)
        if not key:
            return
        bucket = self.surface_index.setdefault(key, [])
        if cui not in bucket:
            bucket.append(cui)
        width = len(key.split(" "))
        if width > self.max_surface_token_len:
            self.max_surface_token_len = width

    def _add(self, cui: str, preferred_name: str, synonyms: list[str], semantic_type: str) -> None:
        if not cui:
            raise ValidationError("concept with empty cui")
        if not preferred_name:
            raise ValidationError(f"concept {cui} has an empty preferred name")
        existing = self.concepts.get(cui)
        if existing is not None:
            if existing.preferred_name != preferred_name:
                raise ValidationError(
                    f"duplicate cui {cui} with conflicting preferred names "
                    f"({existing.preferred_name!r} vs {preferred_name!r})"
                )
            merged = list(existing.synonyms)
            semantic_type = existing.semantic_type
        else:
            merged = []
            self._order.append(cui)
        seen = {normalize_surface(s) for s in merged}
        for syn in synonyms:
            key = normalize_surface(syn)
            if key and key not in seen:
                merged.append(syn)
                seen.add(key)
        self.concepts[cui] = Concept(cui, preferred_name, tuple(merged), semantic_type)
        self._index_surface(preferred_name, cui)
        for syn in synonyms:
            self._index_surface(syn, cui)


def build_lexicon(rows: list[tuple[str, str, list[str], str]]) -> Lexicon:
    """Assemble a lexicon from (cui, preferred_name, synonyms, semantic_type) rows."""
    lexicon = Lexicon()
    for cui, name, synonyms, semtype in rows:
        lexicon._add(cui, name, list(synonyms), semtype)
    return lexicon


def load_lexicon(path: str | Path) -> Lexicon:
    """Read a lexicon TSV file; see the module docstring for the format."""
    lexicon = Lexicon()
    for lineno, line in read_lines(path):
        cols = line.split("\t")
        if len(cols) != 4:
            raise ParseError(f"{path}: line {lineno}: expected 4 tab-separated columns, got {len(cols)}")
        cui, name, syn_col, semtype = cols
        synonyms = [s for s in syn_col.split("|") if s]
        lexicon._add(cui, name, synonyms, semtype)
    return lexicon


def lexicon_to_dict(lexicon: Lexicon) -> dict:
    return {
        "concepts": [
            {
                "cui": c.cui,
                "name": c.preferred_name,
                "synonyms": list(c.synonyms),
                "semantic_type": c.semantic_type,
            }
            for c in (lexicon.concepts[cui] for cui in lexicon._order)
        ],
        "surface_index": {k: list(v) for k, v in lexicon.surface_index.items()},
        "max_surface_token_len": lexicon.max_surface_token_len,
    }


def lexicon_from_dict(data: dict) -> Lexicon:
    lexicon = Lexicon()
    for row in data["concepts"]:
        lexicon.concepts[row["cui"]] = Concept(
            row["cui"], row["name"], tuple(row["synonyms"]), row["semantic_type"]
        )
        lexicon._order.append(row["cui"])
    lexicon.surface_index = {k: list(v) for k, v in data["surface_index"].items()}
    lexicon.max_surface_token_len = data["max_surface_token_len"]
    return lexicon


@dataclass
class TripleStore:
    """Deduplicated (head, relation, tail) facts with a pair projection."""

    triples: set[Triple] = field(default_factory=set)
    by_pair: dict[tuple[str, str], set[str]] = field(default_factory=dict)
    relations: list[str] = field(default_factory=list)
    entities: set[str] = field(default_factory=set)

    def relations_between(self, head: str, tail: str) -> set[str]:
        return set(self.by_pair.get((head, tail), ()))

    def has_triple(self, head: str, relation: str, tail: str) -> bool:
        return Triple(head, relation, tail) in self.triples

    def __len__(self) -> int:
        return len(self.triples)

    def _add(self, triple: Triple) -> None:
        if triple.head == triple.tail:
            raise ValidationError(f"self-loop triple on {triple.head}")
        if triple in self.triples:
            return
        self.triples.add(triple)
        self.by_pair.setdefault((triple.head, triple.tail), set()).add(triple.relation)
        if triple.relation not in self.relations:
            self.relations.append(triple.relation)
        self.entities.add(triple.head)
        self.entities.add(triple.tail)


def build_triple_store(triples: list[tuple[str, str, str]]) -> TripleStore:
    """Assemble a store from (head, relation, tail) tuples; duplicates collapse."""
    store = TripleStore()
    for head, relation, tail in triples:
        store._add(Triple(head, relation, tail))
    return store


_RELATION_HEADER_RE = re.compile(r"#\s*relations\s*:\s*(.*)$")


def load_triples(path: str | Path) -> TripleStore:
    """Read a triple TSV file; see the module docstring for the format."""
    store = TripleStore()
    declared: list[str] | None = None
    for lineno, line in read_lines(path):
        if line.lstrip().startswith("#"):
            match = _RELATION_HEADER_RE.match(line.strip())
            if match:
                declared = [r.strip() for r in match.group(1).split(",") if r.strip()]
                store.relations = list(declared)
            continue
        cols = line.split("\t")
        if len(cols) != 3:
            raise ParseError(f"{path}: line {lineno}: expected 3 tab-separated columns, got {len(cols)}")
        head, relation, tail = cols
        if declared is not None and relation not in declared:
            raise ValidationError(
                f"{path}: line {lineno}: relation {relation!r} not in the declared inventory"
            )
        try:
            store._add(Triple(head, relation, tail))
        except ValidationError as exc:
            raise ValidationError(f"{path}: line {lineno}: {exc}") from None
    return store


def triples_to_dict(store: TripleStore) -> dict:
    return {
        "relations": list(store.relations),
        "triples": sorted([t.head, t.relation, t.tail] for t in store.triples),
    }


def triples_from_dict(data: dict) -> TripleStore:
    store = TripleStore()
    store.relations = list(data["relations"])
    for head, relation, tail in data["triples"]:
        store._add(Triple(head, relation, tail))
    return store


def read_jsonl(path: str | Path, decode: Callable[[object], T], what: str) -> list[T]:
    """Decode every non-blank line of a JSONL file; each error names its line.

    A ``KeyError`` or ``TypeError`` from ``decode`` means the line is not
    ``what`` record (e.g. "a mention"); a package error it raises keeps its
    type and gains the path and line number.
    """
    values = []
    for lineno, line in read_lines(path):
        try:
            values.append(decode(json.loads(line.strip())))
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: line {lineno}: invalid JSON ({exc.msg})") from None
        except (KeyError, TypeError) as exc:
            raise ParseError(f"{path}: line {lineno}: not {what} record ({exc})") from None
        except CasegraphError as exc:
            raise type(exc)(f"{path}: line {lineno}: {exc}") from None
    return values


def jsonl(records: Iterable[dict]) -> str:
    """One key-sorted JSON object per line: the text ``read_jsonl`` reads back."""
    return "".join(json.dumps(record, sort_keys=True) + "\n" for record in records)


def load_corpus(path: str | Path) -> list[Document]:
    """Read a corpus JSONL file; document ids must be unique."""
    seen: set[str] = set()

    def decode(obj) -> Document:
        doc = Document(str(obj["id"]), str(obj["title"]), str(obj["text"]))
        try:
            "".join((doc.id, doc.title, doc.text)).encode("utf-8")
        except UnicodeEncodeError as exc:
            raise ParseError(f"document text is not encodable as UTF-8 ({exc.reason})") from None
        if doc.id in seen:
            raise ValidationError(f"duplicate document id {doc.id}")
        seen.add(doc.id)
        return doc

    return read_jsonl(path, decode, "a document")


def save_container(path: str | Path, fmt: str, version: int, body: dict) -> None:
    """Write ``body`` as one compact, key-sorted JSON object tagged with format and version."""
    payload = {**body, "format": fmt, "version": version}
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")


def load_container(path: str | Path, fmt: str, version: int, decode: Callable[[dict], T]) -> T:
    """Read a container written by ``save_container`` and decode its payload.

    Bad JSON, a wrong format tag or version, and missing or ill-typed keys
    all raise ``FormatError`` naming the path.
    """
    with open(path, encoding="utf-8") as handle:
        try:
            payload = json.load(handle)
        except ValueError as exc:
            raise FormatError(f"{path}: not a JSON {fmt} container ({exc})") from None
    if not isinstance(payload, dict) or payload.get("format") != fmt:
        raise FormatError(f"{path}: not a {fmt} container")
    if payload.get("version") != version:
        raise FormatError(f"{path}: unsupported {fmt} version {payload.get('version')!r} (expected {version})")
    try:
        return decode(payload)
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from None
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: malformed {fmt} container ({exc!r})") from None
