"""Tokenization, sentence splitting, and dictionary entity linking.

All offsets in this module are byte offsets into the UTF-8 encoding of the
input text, so spans can be recovered with ``text.encode()[start:end]``
regardless of the consumer language.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ParseError
from .kb import Lexicon, _WORD_RE, jsonl, normalize_token, read_doc_records

_SENTENCE_END_RE = re.compile(r"[.?!](?=\s|\Z)")


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


def tokenize(text: str) -> list[Token]:
    """Maximal alphanumeric runs in document order, with byte offsets."""
    if text.isascii():
        return [Token(m.group(), *m.span()) for m in _WORD_RE.finditer(text)]
    offsets = _byte_offsets(text)
    return [
        Token(m.group(), offsets[m.start()], offsets[m.end()])
        for m in _WORD_RE.finditer(text)
    ]


def split_sentences(text: str, tokens: list[Token]) -> list[SentenceSpan]:
    """Split after ``.``, ``?`` or ``!`` followed by whitespace or end of text.

    Spans are trimmed to the first/last non-whitespace character, so together
    they partition the non-whitespace text; a text without a terminator is a
    single sentence. ``tokens`` must come from ``tokenize(text)``.

    Whitespace is ``str.isspace`` throughout: the regex ``\\s`` of a str
    pattern, ``str.strip`` and ``str.isspace`` share one whitespace rule.
    """
    cuts = [m.end() for m in _SENTENCE_END_RE.finditer(text)]
    if not cuts or cuts[-1] != len(text):
        cuts.append(len(text))

    offsets = _byte_offsets(text)
    spans: list[SentenceSpan] = []
    prev = 0
    token_idx = 0
    for cut in cuts:
        segment = text[prev:cut]
        trimmed = segment.rstrip()
        first = prev + len(segment) - len(segment.lstrip())
        last_end = prev + len(trimmed)
        prev = cut
        if not trimmed:
            continue
        start_b, end_b = offsets[first], offsets[last_end]
        tok_start = token_idx
        while token_idx < len(tokens) and tokens[token_idx].start < end_b:
            token_idx += 1
        spans.append(SentenceSpan(start_b, end_b, tok_start, token_idx))
    return spans


def link(text: str, lexicon: Lexicon, tokens: list[Token] | None = None) -> list[Mention]:
    """Greedy left-to-right longest-match linking against the lexicon.

    Token windows up to the lexicon's longest indexed surface are compared by
    normalized form; after a match the scan resumes past the matched window,
    so mentions never overlap. ``candidates`` preserves the lexicon priority
    order and the primary (first) candidate carries score 1.0.
    """
    if tokens is None:
        tokens = tokenize(text)
    if not tokens or not lexicon.surface_index:
        return []
    norm = [normalize_token(t.text) for t in tokens]
    text_bytes = text.encode("utf-8")
    mentions: list[Mention] = []
    first_words = lexicon.first_words
    n = len(tokens)
    i = 0
    while i < n:
        # A window can match only if its first word starts a surface. A
        # token that normalises to several words is always probed.
        if norm[i] not in first_words and " " not in norm[i]:
            i += 1
            continue
        matched = 0
        cuis: list[str] = []
        for width in range(min(lexicon.max_surface_token_len, n - i), 0, -1):
            key = " ".join(norm[i : i + width])
            bucket = lexicon.surface_index.get(key)
            if bucket:
                matched = width
                cuis = bucket
                break
        if not matched:
            i += 1
            continue
        start = tokens[i].start
        end = tokens[i + matched - 1].end
        surface = text_bytes[start:end].decode("utf-8")
        mentions.append(Mention(start, end, surface, tuple(cuis), cuis[0], 1.0))
        i += matched
    return mentions


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


def write_mentions(per_doc: dict[str, list[Mention]], path: str | Path) -> None:
    Path(path).write_text(mentions_jsonl(per_doc), encoding="utf-8")


def read_mentions(path: str | Path) -> dict[str, list[Mention]]:
    def decode(obj) -> tuple[str, list[Mention]]:
        if type(obj["doc_id"]) is not str or type(obj["mentions"]) is not list:
            raise ParseError("a mention record needs a string doc_id and a list of mentions")
        return obj["doc_id"], [mention_from_dict(m) for m in obj["mentions"]]

    return read_doc_records(path, decode, "a mention")
