"""Concept lexicon, relation triple store, and document corpus handling.

All inputs are plain UTF-8 text files:

* lexicon TSV, one concept per line:
  ``CUI<TAB>preferred_name<TAB>synonym1|synonym2|...<TAB>semantic_type``
  (the synonym column may be empty);
* triple TSV: ``head_cui<TAB>relation<TAB>tail_cui``; lines starting with
  ``#`` are comments, and an optional ``# relations: a,b,c`` header pins the
  allowed relation inventory (otherwise it is derived from the file);
* corpus JSONL, one ``{"id": ..., "title": ..., "text": ...}`` object
  per line, each of the three a JSON string.

Blank lines are skipped in every text input. Every loaded structure is
immutable after construction and safe for concurrent reads. The line reader
here is the only code that opens a text input; it, the JSONL reader and
writer, and the versioned JSON container helpers serve every artifact and
model file of the package. A container's numeric columns are JSON strings:
base64 of little-endian ``int32`` or ``float64`` arrays (``pack``/``unpack``).
A part of a container may be given already ``Encoded``: its JSON text is
spliced in, with the bytes of encoding the whole payload at once.

An index (container version 6) stores the lexicon and the triple store in
that form (``lexicon_to_dict``, ``triples_to_dict``). The lexicon is its
cuis, preferred names and semantic types as lists in concept order, the
synonyms as one flat list with an ``int32`` pointer, and the surfaces
ascending with an ``int32`` pointer into one column of bucket entries,
each the position of a cui. The triple store is its relations in store
order, its entities ascending, and one ``int32`` column of (head,
relation, tail) id rows in ascending order. Loading rebuilds both with
array checks and refuses what no lexicon or store build can make.
"""

from __future__ import annotations

import base64
import binascii
import json
import re
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, repeat
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, TypeVar

import numpy as np

from .errors import CasegraphError, ConfigError, FormatError, ParseError, ValidationError

T = TypeVar("T")

_WORD_RE = re.compile(r"[^\W_]+")


def normalize_surface(s: str) -> str:
    """Lowercase and fold every run of non-alphanumeric characters to one space.

    Idempotent; returns "" for strings without alphanumeric content.
    """
    return " ".join(_WORD_RE.findall(s.lower()))


def normalize_token(token: str) -> str:
    """``normalize_surface`` of one token, cheap for ASCII.

    An ASCII alphanumeric token normalises to its lowercase. Any other token
    takes the full rule: a non-ASCII lowercase may split into several runs
    (``'İ'.lower()`` is ``'i'`` plus a combining dot).
    """
    if token.isascii() and token.isalnum():
        return token.lower()
    return normalize_surface(token)


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


class Triple(NamedTuple):
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
    # Derived from the concepts, and dropped by ``_add``: the prefixes, built
    # when first read, and the JSON text of ``lexicon_to_dict``, built on the
    # first index save (``engine.index_to_dict``).
    _prefixes = None
    _encoded = None

    @property
    def prefixes(self) -> frozenset[str]:
        """Every leading run of words of every indexed surface, the surface itself included."""
        if self._prefixes is None:
            self._prefixes = frozenset(" ".join(words[:k]) for words in map(str.split, self.surface_index) for k in range(1, len(words) + 1))
        return self._prefixes

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

    def _add(self, cui: str, preferred_name: str, synonyms: list[str], semantic_type: str) -> None:
        if not cui:
            raise ValidationError("concept with empty cui")
        if not preferred_name:
            raise ValidationError(f"concept {cui} has an empty preferred name")
        self._prefixes = self._encoded = None
        existing = self.concepts.get(cui)
        merged = []
        if existing is not None:
            if existing.preferred_name != preferred_name:
                raise ValidationError(
                    f"duplicate cui {cui} with conflicting preferred names "
                    f"({existing.preferred_name!r} vs {preferred_name!r})"
                )
            merged = list(existing.synonyms)
            semantic_type = existing.semantic_type
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
    """The stored form: the concepts' fields as lists, synonyms and surface buckets flattened with ``int32`` pointers.

    The surfaces ascend, and a bucket holds the positions of its cuis in ``cuis``.
    """
    concepts = list(lexicon.concepts.values())
    position = {cui: i for i, cui in enumerate(lexicon.concepts)}
    surfaces = sorted(lexicon.surface_index)
    buckets = [lexicon.surface_index[surface] for surface in surfaces]
    return {
        "cuis": list(lexicon.concepts),
        "names": [c.preferred_name for c in concepts],
        "semantic_types": [c.semantic_type for c in concepts],
        "synonyms": list(chain.from_iterable(c.synonyms for c in concepts)),
        "synonym_ptr": pack(pointer(len(c.synonyms) for c in concepts)),
        "surfaces": surfaces,
        "surface_ptr": pack(pointer(map(len, buckets))),
        "surface_concepts": pack([position[cui] for cui in chain.from_iterable(buckets)]),
    }


def lexicon_from_dict(data: dict) -> Lexicon:
    """The lexicon that ``lexicon_to_dict`` stored; FormatError unless a lexicon build could have made it.

    Those are the rules of ``Lexicon._add``: cuis are distinct and non-empty,
    preferred names non-empty, and every surface is non-empty and maps to a
    non-empty bucket of distinct concepts. A surface has no leading,
    trailing or repeated space. The surfaces ascend strictly, which is also
    the order of the loaded surface index.
    """
    cuis, names, types = (strings(data[key], f"lexicon {key}") for key in ("cuis", "names", "semantic_types"))
    synonyms, surfaces = strings(data["synonyms"], "lexicon synonyms"), strings(data["surfaces"], "lexicon surfaces")
    if not len(cuis) == len(names) == len(types):
        raise FormatError("lexicon cuis, names and semantic_types must have one item per concept")
    if len(set(cuis)) < len(cuis):
        raise FormatError(f"lexicon concept {next(cui for cui, n in Counter(cuis).items() if n > 1)} is stored twice")
    if "" in cuis:
        raise FormatError("lexicon concept with empty cui")
    if "" in names:
        raise FormatError(f"lexicon concept {cuis[names.index('')]} has an empty preferred name")
    synonym_ptr = unpack(data["synonym_ptr"], "lexicon synonym_ptr")
    check_pointer(synonym_ptr, len(cuis), len(synonyms), "lexicon synonyms", "concepts")
    # Joined by newlines, a bad surface leaves one of these marks. A good one
    # leaves one only if it holds a newline, so each surface confirms a mark.
    joined = "\n" + "\n".join(surfaces) + "\n"
    if any(bad in joined for bad in ("\n\n", "\n ", " \n", "  ")):
        bad = next((s for s in surfaces if not s or s[0] == " " or s[-1] == " " or "  " in s), None)
        if bad is not None:
            raise FormatError(f"lexicon surface {bad!r} must be non-empty words joined by single spaces")
    if not ascends(surfaces):
        raise FormatError("lexicon surfaces must ascend strictly")
    surface_ptr = unpack(data["surface_ptr"], "lexicon surface_ptr")
    concepts = unpack(data["surface_concepts"], "lexicon surface_concepts")
    check_pointer(surface_ptr, len(surfaces), len(concepts), "lexicon surface buckets", "surfaces")
    i = first_true(np.diff(surface_ptr) == 0)
    if i >= 0:
        raise FormatError(f"lexicon surface {surfaces[i]!r} has no concepts")
    owners = np.repeat(np.arange(len(surfaces)), np.diff(surface_ptr))
    i = first_true((concepts < 0) | (concepts >= len(cuis)))
    if i >= 0:
        raise FormatError(f"lexicon surface {surfaces[owners[i]]!r}: concept id {concepts[i]} outside [0, {len(cuis)})")
    keys = np.sort(owners * len(cuis) + concepts)
    i = first_true(keys[1:] == keys[:-1])
    if i >= 0:
        surface, concept = divmod(int(keys[i]), len(cuis))
        raise FormatError(f"lexicon surface {surfaces[surface]!r} lists concept {cuis[concept]} twice")
    bounds = synonym_ptr.tolist()
    grouped = [tuple(synonyms[start:end]) for start, end in zip(bounds, bounds[1:])]
    flat = np.array(cuis, dtype=object)[concepts].tolist()
    bounds = surface_ptr.tolist()
    return Lexicon(
        dict(zip(cuis, map(Concept, cuis, names, grouped, types))),
        {surface: flat[start:end] for surface, start, end in zip(surfaces, bounds, bounds[1:])},
    )


@dataclass
class TripleStore:
    """Deduplicated (head, relation, tail) facts with a pair projection."""

    triples: set[Triple] = field(default_factory=set)
    by_pair: dict[tuple[str, str], set[str]] = field(default_factory=dict)
    relations: list[str] = field(default_factory=list)
    entities: set[str] = field(default_factory=set)
    _encoded = None  # the JSON text of ``triples_to_dict``, as for ``Lexicon``; dropped by ``_add``

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
        self._encoded = None
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
                # Relations of earlier triples stay listed; each relation is listed once.
                store.relations = list(dict.fromkeys([*store.relations, *declared]))
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
    """The stored form: relations in store order, entities ascending, and one ``int32`` column of (head, relation, tail) id rows, ascending."""
    entities = sorted(store.entities)
    entity = {name: i for i, name in enumerate(entities)}
    relation = {name: i for i, name in enumerate(store.relations)}
    rows = sorted((entity[h], relation[r], entity[t]) for h, r, t in store.triples)
    return {"relations": list(store.relations), "entities": entities, "triples": pack(list(chain.from_iterable(rows)))}


def triples_from_dict(data: dict) -> TripleStore:
    """The store that ``triples_to_dict`` stored; FormatError unless a store build could have made it.

    Relations are distinct, entities ascend strictly and each is in a
    triple, and the id rows ascend strictly (no triple twice), name listed
    entities and relations, and join two distinct entities.
    """
    relations = strings(data["relations"], "triple store relations")
    if len(set(relations)) < len(relations):
        raise FormatError("triple store relations must be distinct")
    entities = strings(data["entities"], "triple store entities", ascending=True)
    ids = unpack(data["triples"], "triple store triples")
    if len(ids) % 3:
        raise FormatError(f"stored triples must be (head, relation, tail) id rows, got {len(ids)} ids")
    rows = ids.reshape(-1, 3)
    heads, rels, tails = rows.T
    for column, size, what in ((heads, len(entities), "head"), (rels, len(relations), "relation"), (tails, len(entities), "tail")):
        i = first_true((column < 0) | (column >= size))
        if i >= 0:
            raise FormatError(f"stored triple {i}: {what} id {column[i]} outside [0, {size})")
    # A row ascends from the one before it if the first id in which they differ is larger.
    steps = np.diff(rows, axis=0)
    i = first_true(steps[np.arange(len(steps)), np.argmax(steps != 0, axis=1)] <= 0)
    if i >= 0:
        raise FormatError(f"stored triples must ascend strictly by id, and triple {i + 1} does not")
    i = first_true(heads == tails)
    if i >= 0:
        raise FormatError(f"stored self-loop triple on {entities[heads[i]]}")
    i = first_true(np.bincount(np.concatenate([heads, tails]), minlength=len(entities)) == 0)
    if i >= 0:
        raise FormatError(f"triple store entity {entities[i]} is in no stored triple")
    # (head, relation, tail) in name order, which orders by_pair as adding the sorted triples one by one does.
    position = {name: i for i, name in enumerate(sorted(relations))}
    rank = np.array([position[name] for name in relations], np.int64)
    order = np.lexsort((tails, rank[rels], heads))
    names = np.array(entities, dtype=object)
    head_names, tail_names = names[heads[order]].tolist(), names[tails[order]].tolist()
    relation_names = np.array(relations, dtype=object)[rels[order]].tolist()
    by_pair: dict[tuple[str, str], set[str]] = {}
    for pair, relation in zip(zip(head_names, tail_names), relation_names):
        if pair in by_pair:
            by_pair[pair].add(relation)
        else:
            by_pair[pair] = {relation}
    triples = set(map(tuple.__new__, repeat(Triple), zip(head_names, relation_names, tail_names)))  # no Python __new__ per fact
    return TripleStore(triples, by_pair, list(relations), set(entities))


def read_jsonl(path: str | Path, decode: Callable[[object], T], what: str) -> list[T]:
    """Decode every non-blank line of a JSONL file; each error names its line.

    A ``KeyError`` or ``TypeError`` from ``decode`` means the line is not
    ``what`` record (e.g. "a mention"); a package error it raises keeps its
    type and gains the path and line number. Invalid JSON, nesting too deep
    for the decoder included, is a ``ParseError``.
    """
    values = []
    for lineno, line in read_lines(path):
        try:
            values.append(decode(json.loads(line.strip())))
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: line {lineno}: invalid JSON ({exc.msg})") from None
        except RecursionError:
            raise ParseError(f"{path}: line {lineno}: invalid JSON (nested too deeply)") from None
        except (KeyError, TypeError) as exc:
            raise ParseError(f"{path}: line {lineno}: not {what} record ({exc})") from None
        except CasegraphError as exc:
            raise type(exc)(f"{path}: line {lineno}: {exc}") from None
    return values


def read_doc_records(path: str | Path, decode: Callable[[object], tuple[str, T]], what: str) -> dict[str, T]:
    """``read_jsonl`` of ``(doc id, value)`` records, keyed by doc id; a repeated doc id is a ValidationError."""
    records: dict[str, T] = {}

    def keep(obj) -> None:
        doc_id, value = decode(obj)
        if doc_id in records:
            raise ValidationError(f"duplicate document id {doc_id}")
        records[doc_id] = value

    read_jsonl(path, keep, what)
    return records


def jsonl(records: Iterable[dict]) -> str:
    """One key-sorted JSON object per line: the text ``read_jsonl`` reads back."""
    return "".join(json.dumps(record, sort_keys=True) + "\n" for record in records)


def load_corpus(path: str | Path) -> list[Document]:
    """Read a corpus JSONL file; document ids must be unique."""

    def decode(obj) -> tuple[str, Document]:
        doc = Document(obj["id"], obj["title"], obj["text"])
        if not {type(doc.id), type(doc.title), type(doc.text)} <= {str}:
            raise ParseError("document id, title and text must be strings")
        try:
            "".join((doc.id, doc.title, doc.text)).encode("utf-8")
        except UnicodeEncodeError as exc:
            raise ParseError(f"document text is not encodable as UTF-8 ({exc.reason})") from None
        return doc.id, doc

    return list(read_doc_records(path, decode, "a document").values())


@dataclass(frozen=True)
class Encoded:
    """A container part already written as its compact, key-sorted JSON text."""

    text: str


# ``json.dumps(..., sort_keys=True, separators=(",", ":"))`` without building an encoder per call.
_COMPACT = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def encode(part) -> Encoded:
    """``part`` as the text that ``save_container`` writes for it."""
    return Encoded(_COMPACT.encode(part))


def save_container(path: str | Path, fmt: str, version: int, body: dict) -> None:
    """Write ``body`` as one compact, key-sorted JSON object tagged with format and version.

    A value of ``body`` may be ``Encoded``; its text is spliced in as it is.
    The file holds exactly ``json.dumps(payload, sort_keys=True,
    separators=(",", ":")) + "\\n"`` of the payload with every such text
    decoded. The whole text is built before the file is opened, so a failure
    while encoding leaves the file as it was.
    """
    payload = {**body, "format": fmt, "version": version}
    pieces = []
    for key, value in sorted(payload.items()):
        pieces += (",", _COMPACT.encode(key), ":", value.text if isinstance(value, Encoded) else _COMPACT.encode(value))
    pieces[0] = "{"  # the first separator opens the object
    text = "".join([*pieces, "}\n"])  # one join: one copy of a text that is mostly the parts
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def load_container(path: str | Path, fmt: str, version: int, decode: Callable[[dict], T]) -> T:
    """Read a container written by ``save_container`` and decode its payload.

    Bad JSON (nested too deeply included), a wrong format tag or version,
    missing or ill-typed keys and stored settings out of range all raise
    ``FormatError`` naming the path.
    """
    with open(path, encoding="utf-8") as handle:
        try:
            payload = json.load(handle)
        except ValueError as exc:
            raise FormatError(f"{path}: not a JSON {fmt} container ({exc})") from None
        except RecursionError:
            raise FormatError(f"{path}: not a JSON {fmt} container (nested too deeply)") from None
    if not isinstance(payload, dict) or payload.get("format") != fmt:
        raise FormatError(f"{path}: not a {fmt} container")
    if payload.get("version") != version:
        raise FormatError(f"{path}: unsupported {fmt} version {payload.get('version')!r} (expected {version})")
    try:
        return decode(payload)
    except (ConfigError, FormatError) as exc:  # ConfigError: stored settings out of range
        raise FormatError(f"{path}: {exc}") from None
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: malformed {fmt} container ({exc!r})") from None


def strings(values, what: str, ascending: bool = False) -> list[str]:
    """``values`` if it is a list of strings, ascending strictly if asked; FormatError naming ``what`` otherwise."""
    if type(values) is not list or not set(map(type, values)) <= {str}:
        raise FormatError(f"{what} must be a list of strings")
    if ascending and not ascends(values):
        raise FormatError(f"{what} must ascend strictly")
    return values


def ascends(values: list[str]) -> bool:
    """Whether ``values`` ascend strictly."""
    return all(map(str.__lt__, values, values[1:]))


def pointer(sizes: Iterable[int]) -> np.ndarray:
    """The pointer of a CSR layout whose rows have ``sizes`` items: 0, then the running totals."""
    return np.concatenate([[0], np.cumsum(np.fromiter(sizes, np.int64))])


def check_pointer(ptr: np.ndarray, rows: int, items: int, what: str, unit: str) -> None:
    """FormatError unless ``ptr`` splits ``items`` items into ``rows`` rows: from 0 to ``items``, never decreasing."""
    if len(ptr) != rows + 1 or ptr[0] != 0 or ptr[-1] != items:
        raise FormatError(f"{what} cover different {unit} than the {rows} indexed")
    if np.any(np.diff(ptr) < 0):
        raise FormatError(f"{what} row pointers must not decrease")


def first_true(bad: np.ndarray) -> int:
    """The first position where ``bad`` holds, or -1."""
    found = np.flatnonzero(bad)
    return int(found[0]) if len(found) else -1


# The little-endian item type of each kind of container column, and what its items are called.
_COLUMN_TYPES = {"int32": (np.dtype("<i4"), "int32 integers"), "float64": (np.dtype("<f8"), "float64 numbers")}


def pack(values, kind: str = "int32") -> str:
    """A numeric column as base64 of its little-endian ``int32`` or ``float64`` items.

    ValidationError for an integer outside the ``int32`` range.
    """
    if kind == "int32":
        try:
            values = np.asarray(values, np.int64)
        except OverflowError:
            raise ValidationError("a column value lies outside the int32 range") from None
        if len(values) and (values.min() < -(2**31) or values.max() >= 2**31):
            raise ValidationError("a column value lies outside the int32 range")
    return base64.b64encode(np.asarray(values, _COLUMN_TYPES[kind][0]).tobytes()).decode("ascii")


def unpack(text, what: str, kind: str = "int32") -> np.ndarray:
    """The column that ``pack`` wrote, as an ``int64`` or ``float64`` array.

    FormatError naming ``what`` unless ``text`` is a base64 string of a whole
    number of items.
    """
    item, items = _COLUMN_TYPES[kind]
    try:
        raw = base64.b64decode(text, validate=True) if type(text) is str else None
    except (binascii.Error, ValueError):
        raw = None
    if raw is None or len(raw) % item.itemsize:
        raise FormatError(f"{what} must be base64 of little-endian {items}")
    return np.frombuffer(raw, item).astype(np.int64 if kind == "int32" else np.float64)
