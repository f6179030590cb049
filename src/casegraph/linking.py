"""Tokenization, sentence splitting, and dictionary entity linking.

All offsets in this module are byte offsets into the UTF-8 encoding of the
input text, so spans can be recovered with ``text.encode()[start:end]``
regardless of the consumer language.

Each stage returns a columnar record of one document: ``tokenize`` its
``Tokens``, ``split_sentences`` its ``Sentences`` and ``link`` its
``Mentions``. A record holds one list per field, and is a read-only
``Sequence`` whose item ``i`` is the stage's dataclass (``Token``,
``SentenceSpan``, ``Mention``), built when it is first read. The pipeline
reads the columns, so only a caller that reads items pays for the objects. A
record equals a record with the same columns; ``list(record)`` gives its
items. A caller holding a list of mentions, as read from a file, converts
it once with ``Mentions.of``.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .errors import ParseError, ValidationError
from .kb import Lexicon, _WORD_RE, jsonl, normalize_token, read_doc_records

_SENTENCE_END_RE = re.compile(r"[.?!](?=\s|\Z)")
# The ASCII characters that ``kb._WORD_RE`` matches, as a byte mask, and a
# table that turns every other ASCII character into a space.
_ASCII_ALNUM = np.array([b < 128 and chr(b).isalnum() for b in range(256)])
_ASCII_SPACES = str.maketrans({chr(b): " " for b in range(128) if not chr(b).isalnum()})


@dataclass(frozen=True)
class Token:
    text: str
    start: int
    end: int


@dataclass(frozen=True)
class SentenceSpan:
    start: int
    end: int
    token_start: int
    token_end: int


@dataclass(frozen=True)
class Mention:
    """A linked span: ``candidates`` holds cuis in lexicon priority order."""

    start: int
    end: int
    surface: str
    candidates: tuple[str, ...]
    primary_cui: str
    score: float


class Record(Sequence):
    """A read-only sequence held as columns: item ``i`` is built from entry ``i`` of each column when it is first read.

    A subclass is a dataclass whose ``_columns`` name, in order, the columns
    that hold the constructor arguments of its ``_item`` class. A record
    keeps the items it built, so every read of item ``i`` gives the same
    object, as a list would, and pairs that share a mention share its object.
    """

    _item: type
    _columns: tuple[str, ...]

    @classmethod
    def of(cls, items: Sequence):
        """``items`` as a record of this kind; a record of this kind is returned as it is.

        Only a record whose fields are its items' fields, with defaults for
        any other, can be built from items: ``Tokens`` come from ``tokenize``.
        """
        if isinstance(items, cls):
            return items
        names = [f.name for f in fields(cls._item)]
        return cls(**{column: [getattr(item, name) for item in items] for column, name in zip(cls._columns, names)})

    def __len__(self) -> int:
        return len(getattr(self, self._columns[0]))

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        built = self.__dict__.setdefault("_built", [None] * len(self))
        item = built[i]
        if item is None:
            item = built[i] = self._build(i)
        return item

    def _build(self, i: int):
        return self._item(*(getattr(self, column)[i] for column in self._columns))


@dataclass
class Tokens(Record):
    """A text's tokens: their ``texts``, normal forms ``norms`` (``kb.normalize_token``) and byte ``starts``/``ends``."""

    texts: list[str]
    starts: list[int]
    ends: list[int]
    norms: list[str]
    _item = Token
    _columns = ("texts", "starts", "ends")


@dataclass
class Sentences(Record):
    """A text's sentences: their byte ``starts``/``ends`` and token ranges ``token_starts``/``token_ends``."""

    starts: list[int]
    ends: list[int]
    token_starts: list[int]
    token_ends: list[int]
    _item = SentenceSpan
    _columns = ("starts", "ends", "token_starts", "token_ends")


@dataclass
class Mentions(Record):
    """A text's mentions, one column per ``Mention`` field, and once aligned to
    the text's tokens (``aligned``) the first and last token of each."""

    starts: list[int]
    ends: list[int]
    surfaces: list[str]
    candidates: list[tuple[str, ...]]
    primaries: list[str]
    scores: list[float]
    firsts: list[int] | None = None
    lasts: list[int] | None = None
    _item = Mention
    _columns = ("starts", "ends", "surfaces", "candidates", "primaries", "scores")

    def aligned(self, tokens: Tokens) -> Mentions:
        """These mentions with their first and last token among ``tokens``; aligned mentions are returned as they are.

        A mention must start and end on token boundaries; one that does not
        is a ``ValidationError``.
        """
        if self.firsts is not None:
            return self
        starts, ends = tokens.starts, tokens.ends
        firsts, lasts = [], []
        for start, end in zip(self.starts, self.ends):
            first = bisect_left(starts, start)
            if first == len(starts) or starts[first] != start:
                raise ValidationError(f"mention at byte {start} does not align with a token boundary")
            last = bisect_left(ends, end, first)
            if last == len(ends):
                raise ValidationError(f"mention at byte {start} ends at byte {end}, past the last token")
            if ends[last] != end:
                raise ValidationError(f"mention at byte {start} ends at byte {end}, inside a token")
            firsts.append(first)
            lasts.append(last)
        return replace(self, firsts=firsts, lasts=lasts)


def _byte_offsets(text: str) -> Sequence[int]:
    """Byte offset of every code point boundary (len(text) + 1 entries).

    For ASCII text a character offset is the byte offset, so the offsets are
    ``range(len(text) + 1)`` and cost nothing. Otherwise a code point starts
    at every byte of its UTF-8 encoding that is not a continuation byte
    (``0b10xxxxxx``), and the encoding's length closes the last one.
    """
    if text.isascii():
        return range(len(text) + 1)
    data = np.frombuffer(text.encode("utf-8"), dtype=np.uint8)
    return np.flatnonzero((data & 0xC0) != 0x80).tolist() + [len(data)]


def tokenize(text: str) -> Tokens:
    """Maximal alphanumeric runs in document order, with byte offsets and normal forms.

    In ASCII text the runs are those of ``[0-9A-Za-z]``: a run starts or ends
    wherever the alphanumeric mask of the bytes changes, the runs are the
    words left when every other character becomes a space, and their normal
    forms are those words lowercased. Any other text is matched by
    ``kb._WORD_RE`` and normalised token by token: a non-ASCII lowercase may
    split a token into several words.
    """
    if text.isascii():
        alnum = np.zeros(len(text) + 2, bool)  # padded: a run at either end of the text changes the mask too
        alnum[1:-1] = _ASCII_ALNUM[np.frombuffer(text.encode("ascii"), np.uint8)]
        bounds = np.flatnonzero(alnum[1:] != alnum[:-1]).tolist()
        words = text.translate(_ASCII_SPACES)
        return Tokens(words.split(), bounds[::2], bounds[1::2], words.lower().split())
    matches = list(_WORD_RE.finditer(text))
    texts = [m.group() for m in matches]
    offsets = _byte_offsets(text)
    return Tokens(
        texts,
        [offsets[m.start()] for m in matches],
        [offsets[m.end()] for m in matches],
        [normalize_token(token) for token in texts],
    )


def split_sentences(text: str, tokens: Tokens) -> Sentences:
    """Split after ``.``, ``?`` or ``!`` followed by whitespace or end of text.

    Spans are trimmed to the first/last non-whitespace character, so together
    they partition the non-whitespace text; a text without a terminator is a
    single sentence. ``tokens`` must come from ``tokenize(text)``: a
    sentence's tokens end before the first token that starts at or past its
    end, and start where the previous sentence's end.

    Whitespace is ``str.isspace`` throughout: the regex ``\\s`` of a str
    pattern, ``str.strip`` and ``str.isspace`` share one whitespace rule.
    """
    cuts = [m.end() for m in _SENTENCE_END_RE.finditer(text)]
    if not cuts or cuts[-1] != len(text):
        cuts.append(len(text))
    offsets = _byte_offsets(text)
    starts, ends = [], []
    prev = 0
    for cut in cuts:
        segment = text[prev:cut]
        trimmed = segment.rstrip()
        if trimmed:
            starts.append(offsets[prev + len(segment) - len(segment.lstrip())])
            ends.append(offsets[prev + len(trimmed)])
        prev = cut
    token_ends = [bisect_left(tokens.starts, end) for end in ends]
    return Sentences(starts, ends, [0, *token_ends][:-1], token_ends)


def link(text: str, lexicon: Lexicon, tokens: Tokens | None = None) -> Mentions:
    """Greedy left-to-right longest-match linking against the lexicon.

    Token windows are compared with the indexed surfaces by normal form;
    after a match the scan resumes past the matched window, so mentions never
    overlap. ``candidates`` preserves the lexicon priority order and the
    primary (first) candidate carries score 1.0. The mentions come aligned to
    ``tokens``.
    """
    if tokens is None:
        tokens = tokenize(text)
    norms, surface_index, prefixes = tokens.norms, lexicon.surface_index, lexicon.prefixes
    firsts, lasts, candidates = [], [], []
    resume = 0
    # Only a token whose normal form starts a surface can start a window, and
    # a window grows only while its words start a surface.
    for i in [i for i, word in enumerate(norms) if word in prefixes]:
        if i < resume:
            continue
        key, end = norms[i], i + 1
        while True:
            bucket = surface_index.get(key)
            if bucket:
                resume, cuis = end, bucket
            if end == len(norms):
                break
            key = f"{key} {norms[end]}"
            if key not in prefixes:
                break
            end += 1
        if resume > i:
            firsts.append(i)
            lasts.append(resume - 1)
            candidates.append(tuple(cuis))
    starts = [tokens.starts[i] for i in firsts]
    ends = [tokens.ends[i] for i in lasts]
    data = text.encode("utf-8")
    surfaces = [data[start:end].decode("utf-8") for start, end in zip(starts, ends)]
    primaries = [cuis[0] for cuis in candidates]
    return Mentions(starts, ends, surfaces, candidates, primaries, [1.0] * len(firsts), firsts, lasts)


def mention_to_dict(mention: Mention) -> dict:
    return {
        "start": mention.start,
        "end": mention.end,
        "surface": mention.surface,
        "candidates": list(mention.candidates),
        "primary": mention.primary_cui,
        "score": mention.score,
    }


def mention_from_dict(data: dict) -> Mention:
    """The mention of a mention record; ParseError unless its fields have their JSON types."""
    start, end, surface, candidates, primary, score = (
        data[key] for key in ("start", "end", "surface", "candidates", "primary", "score")
    )
    if type(start) is not int or type(end) is not int:
        raise ParseError(f"mention start and end must be integers, got {start!r} and {end!r}")
    if type(surface) is not str or type(primary) is not str:
        raise ParseError("mention surface and primary must be strings")
    if type(candidates) is not list or not set(map(type, candidates)) <= {str}:
        raise ParseError("mention candidates must be a list of strings")
    if type(score) not in (int, float):
        raise ParseError(f"mention score must be a JSON number, got {score!r}")
    return Mention(start, end, surface, tuple(candidates), primary, score)


def mentions_jsonl(per_doc: dict[str, list[Mention]]) -> str:
    """One ``{"doc_id", "mentions"}`` object per line, in the given order."""
    return jsonl({"doc_id": doc_id, "mentions": [mention_to_dict(m) for m in ms]} for doc_id, ms in per_doc.items())


def read_mentions(path: str | Path) -> dict[str, list[Mention]]:
    def decode(obj) -> tuple[str, list[Mention]]:
        if type(obj["doc_id"]) is not str or type(obj["mentions"]) is not list:
            raise ParseError("a mention record needs a string doc_id and a list of mentions")
        return obj["doc_id"], [mention_from_dict(m) for m in obj["mentions"]]

    return read_doc_records(path, decode, "a mention")
