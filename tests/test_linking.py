from __future__ import annotations

import json
import random
import re
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from casegraph.kb import build_lexicon, normalize_surface, normalize_token
from casegraph.linking import (
    link,
    mention_to_dict,
    mentions_jsonl,
    read_mentions,
    split_sentences,
    tokenize,
)

# Letters, digits, CJK, accents, punctuation, and whitespace; no combining
# marks or case-ignorable apostrophes, which have no byte-stable lowercase.
_TEXT_ALPHABET = "abcXYZ019 éüñα中文.!?,-\t\n"

# ASCII, 2-, 3- and 4-byte code points, sentence terminators, and every
# class of whitespace that ``str.isspace`` knows: ASCII controls, the
# information separators, NEL, no-break space and the ideographic space.
_FRONT_END_ALPHABET = "aZ09_.?!,é中😀 \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u3000"


class TestTokenize:
    def test_alphanumeric_runs_with_offsets(self):
        tokens = tokenize("Aspirin, 81mg.")
        assert [t.text for t in tokens] == ["Aspirin", "81mg"]
        assert (tokens[0].start, tokens[0].end) == (0, 7)
        assert (tokens[1].start, tokens[1].end) == (9, 13)

    def test_empty(self):
        assert list(tokenize("")) == []

    def test_multibyte_offsets_slice_exactly(self):
        for text in ("naïve café visit", "治疗 高血压 patients", "Ärzte prüfen 2x täglich!"):
            data = text.encode("utf-8")
            for token in tokenize(text):
                assert data[token.start : token.end].decode("utf-8") == token.text

    @given(st.text(alphabet=_TEXT_ALPHABET, max_size=60))
    def test_slice_equality_and_normalization_agreement(self, text):
        data = text.encode("utf-8")
        tokens = tokenize(text)
        for token in tokens:
            assert data[token.start : token.end].decode("utf-8") == token.text
        assert " ".join(normalize_surface(t.text) for t in tokens) == normalize_surface(text)


class TestSplitSentences:
    def test_two_terminators(self):
        text = "A b. C d."
        spans = split_sentences(text, tokenize(text))
        assert len(spans) == 2

    def test_no_terminator_single_sentence(self):
        text = "no terminator"
        spans = split_sentences(text, tokenize(text))
        assert len(spans) == 1
        assert (spans[0].start, spans[0].end) == (0, len(text))

    def test_abstract_with_three_terminators(self):
        text = "Patient admitted with chest pain. ECG showed changes! Was it ischemia? "
        tokens = tokenize(text)
        spans = split_sentences(text, tokens)
        assert len(spans) == 3
        covered = []
        for span in spans:
            covered.extend(range(span.token_start, span.token_end))
        assert covered == list(range(len(tokens)))

    def test_decimal_number_not_a_boundary(self):
        text = "Dose 2.5 mg daily."
        assert len(split_sentences(text, tokenize(text))) == 1

    def test_spans_trimmed_to_non_whitespace(self):
        text = "One.   Two."
        spans = split_sentences(text, tokenize(text))
        data = text.encode("utf-8")
        for span in spans:
            fragment = data[span.start : span.end].decode("utf-8")
            assert fragment == fragment.strip()


class TestFrontEndOracle:
    """The offset and trimming fast paths against per-character oracles."""

    @settings(max_examples=300)
    @given(st.text(alphabet=_FRONT_END_ALPHABET, max_size=80))
    def test_tokenize_and_split_match_oracles(self, text):
        tokens = tokenize(text)
        assert list(tokens) == helpers.oracle_tokenize(text)
        assert list(split_sentences(text, tokens)) == helpers.oracle_split_sentences(text, tokens)

    def test_whitespace_rules_agree_on_every_code_point(self):
        space = re.compile(r"\s")
        for code in range(sys.maxunicode + 1):
            ch = chr(code)
            assert ch.isspace() == (ch.strip() == "") == bool(space.match(ch)), hex(code)

    @given(st.text(alphabet="aZ09éİß中_-", max_size=6))
    def test_normalize_token_matches_normalize_surface(self, token):
        assert normalize_token(token) == normalize_surface(token)


class TestLink:
    def test_longest_match_beats_shorter(self, lexicon):
        mentions = link("Acute myocardial infarction treated with aspirin.", lexicon)
        assert [m.primary_cui for m in mentions] == ["C0155626", "C0004057"]
        assert mentions[0].surface == "Acute myocardial infarction"
        assert mentions[0].score == 1.0

    def test_empty_text(self, lexicon):
        assert list(link("", lexicon)) == []

    def test_a_concept_added_after_linking_is_linked(self):
        # Linking reads the lexicon's prefixes; adding a concept used to leave them stale.
        lexicon = build_lexicon([("C1", "aspirin", [], "drug")])
        assert [m.primary_cui for m in link("aspirin treats heart attack", lexicon)] == ["C1"]
        lexicon._add("C2", "heart attack", [], "disease")
        assert [m.primary_cui for m in link("aspirin treats heart attack", lexicon)] == ["C1", "C2"]

    def test_no_shared_surface(self, lexicon):
        assert list(link("completely unrelated words here", lexicon)) == []

    def test_mentions_ordered_and_non_overlapping(self, lexicon):
        text = "Heart attack after heart attack; aspirin for hypertension."
        mentions = link(text, lexicon)
        assert len(mentions) == 4
        for before, after in zip(mentions, mentions[1:]):
            assert before.end <= after.start

    def test_surface_normalizes_to_index_key(self, lexicon):
        text = "High  blood pressure responded to acetylsalicylic-acid."
        for mention in link(text, lexicon):
            assert normalize_surface(mention.surface) in lexicon.surface_index

    def test_longest_match_dominance_by_reprobing(self, lexicon):
        text = "Acute myocardial infarction with heart attack and htn."
        tokens = tokenize(text)
        norm = [normalize_surface(t.text) for t in tokens]
        starts = [t.start for t in tokens]
        for mention in link(text, lexicon, tokens=tokens):
            first = starts.index(mention.start)
            width = 1
            while tokens[first + width - 1].end < mention.end:
                width += 1
            for wider in range(width + 1, len(tokens) - first + 1):
                assert " ".join(norm[first : first + wider]) not in lexicon.surface_index

    def test_deterministic_serialization(self, lexicon):
        text = "Hypertension, heart attack, aspirin."
        first = json.dumps([mention_to_dict(m) for m in link(text, lexicon)])
        second = json.dumps([mention_to_dict(m) for m in link(text, lexicon)])
        assert first == second

    def test_matches_exhaustive_span_oracle(self, lexicon):
        rng = random.Random(42)
        for _ in range(25):
            text = helpers.random_fixture_text(lexicon, rng)
            assert list(link(text, lexicon)) == helpers.oracle_link(text, lexicon)

    def test_token_normalising_to_several_words_is_probed(self):
        # 'İx' lowercases to 'i', a combining dot and 'x': one token, two words.
        lexicon = build_lexicon([("C1", "i x", [], "T1"), ("C2", "x ray", [], "T1")])
        text = "See İx, then İx ray."
        assert list(link(text, lexicon)) == helpers.oracle_link(text, lexicon)
        assert [m.surface for m in link(text, lexicon)] == ["İx", "İx"]

    def test_candidates_keep_priority_order(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("C9\tcold\t\tT1\nC8\tCold\t\tT1\n", encoding="utf-8")
        from casegraph.kb import load_lexicon

        lexicon = load_lexicon(path)
        (mention,) = link("a cold morning", lexicon)
        assert mention.candidates == ("C9", "C8")
        assert mention.primary_cui == "C9"


class TestMentionIO:
    def test_round_trip(self, lexicon, tmp_path):
        per_doc = {
            "d1": list(link("Heart attack treated with aspirin.", lexicon)),
            "d2": list(link("No concepts here.", lexicon)),
        }
        path = tmp_path / "mentions.jsonl"
        path.write_text(mentions_jsonl(per_doc), encoding="utf-8")
        assert read_mentions(path) == per_doc
