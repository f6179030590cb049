"""The analysis record of ``engine.analyze`` against the per-stage oracles.

Texts mix ASCII with 2-, 3- and 4-byte code points, separate words by every
class of whitespace that ``str.isspace`` knows and by sentence terminators,
and hold tokens such as ``İx`` whose lowercase is several words. Mentions
come from the linker or, as ``extract`` and ``build-graphs`` read them from a
file, shuffled, overlapping and duplicated.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from casegraph import kb, linking, relations
from casegraph.config import PipelineConfig
from casegraph.engine import analyze, document_network
from casegraph.kb import Document, build_lexicon, normalize_surface
from casegraph.linking import Mention
from casegraph.relations import ExtractorHyperparams, ExtractorModel, featurize_pairs

WORDS = ["aspirin", "Heart", "attack", "İx", "ray", "café", "治疗", "x😀", "STRASSE", "straße", "x²", "fever", "rash", "of"]
SEPARATORS = [" ", "\t", "\n", "\r\n", "\x0b", "\x0c", "\x1c", "\x1f", "\x85", "\xa0", " ", "　", ". ", "! ", "?\n", ", ", "-", "_", ".", "。"]
LEXICON = build_lexicon([
    ("C1", "Aspirin", ["aspirin"], "T121"),
    ("C2", "Heart attack", ["heart attack"], "T047"),
    ("C3", "Ix", ["i x"], "T047"),
    ("C4", "Ix ray", ["i x ray", "x ray"], "T060"),
    ("C5", "Cafe", ["café"], "T001"),
    ("C6", "Zhiliao", ["治疗"], "T121"),
    ("C7", "Strasse", ["straße", "strasse"], "T001"),
    ("C8", "Fever rash", ["fever rash", "fever"], "T047"),
])
EXAMPLES = settings(max_examples=200)

texts = st.lists(st.tuples(st.sampled_from(WORDS), st.booleans(), st.sampled_from(SEPARATORS)), max_size=24).map(
    lambda words: "".join((word.upper() if upper else word) + separator for word, upper, separator in words)
)
windows = st.sampled_from([0, 2, 30])


def assert_matches_oracles(analysis, content: str, mentions: list[Mention], window: int) -> None:
    tokens = helpers.oracle_tokenize(content)
    sentences = helpers.oracle_split_sentences(content, tokens)
    pairs = helpers.oracle_generate_candidates("d", mentions, sentences, tokens, window)
    assert list(analysis.tokens) == tokens
    assert analysis.tokens.norms == [normalize_surface(token.text) for token in tokens]
    assert list(analysis.sentences) == sentences
    assert list(analysis.mentions) == mentions
    assert list(analysis.pairs) == pairs
    features = featurize_pairs(analysis.pairs, analysis.tokens, LEXICON)
    assert features == [helpers.oracle_featurize(pair, tokens, LEXICON) for pair in pairs]


@EXAMPLES
@given(texts, windows)
def test_linked_record_matches_oracles(text, window):
    doc = Document("d", "Title", text)
    analysis = analyze(doc, LEXICON, window)
    assert_matches_oracles(analysis, doc.content(), helpers.oracle_link(doc.content(), LEXICON), window)


@EXAMPLES
@given(texts, windows, st.data())
def test_file_mentions_record_matches_oracles(text, window, data):
    doc = Document("d", "", text)
    content = doc.content()
    tokens = helpers.oracle_tokenize(content)
    mentions = []
    if tokens:
        spans = st.tuples(st.integers(0, len(tokens) - 1), st.integers(0, 3), st.sampled_from(["C1", "C2", "C9"]))
        for first, width, cui in data.draw(st.lists(spans, max_size=10)):
            start, end = tokens[first].start, tokens[min(first + width, len(tokens) - 1)].end
            mentions.append(Mention(start, end, content.encode()[start:end].decode(), (cui, "C1"), cui, 0.5))
    if mentions:
        mentions += data.draw(st.lists(st.sampled_from(mentions), max_size=4))  # exact duplicates
    mentions = data.draw(st.permutations(mentions))
    assert_matches_oracles(analyze(doc, LEXICON, window, mentions), content, mentions, window)


def test_non_ascii_model_mode_document_normalises_each_token_once(monkeypatch):
    # Extraction used to normalise each between-token again after linking had.
    doc = Document("d", "", "İx  ray of café, fever rash of straße　治疗 aspirin. HEART attack of x😀 x² aspirin")
    tokens = linking.tokenize(doc.content())
    calls = []
    for module in (kb, linking, relations):
        original = getattr(module, "normalize_token", None)
        if original is not None:
            monkeypatch.setattr(module, "normalize_token", lambda token, _original=original: calls.append(token) or _original(token))
    extractor = ExtractorModel({"bet:of": 0}, np.zeros((2, 1)), ["NA", "rel"], ExtractorHyperparams())
    net = document_network(doc, LEXICON, PipelineConfig(mode="model"), extractor=extractor)
    assert len(net.nodes) > 1
    assert 0 < len(calls) <= len(tokens)


def test_items_are_built_once_and_shared():
    # A caller holding many pairs, as train-extractor does, holds each mention once.
    analysis = analyze(Document("d", "", "Aspirin for heart attack after aspirin. Fever rash."), LEXICON, 30)
    assert analysis.mentions[0] is analysis.mentions[0]
    mentions = {id(mention) for mention in analysis.mentions}
    sentences = {id(sentence) for sentence in analysis.sentences}
    assert len(analysis.pairs) == 6
    for pair in analysis.pairs:
        assert {id(pair.head_mention), id(pair.tail_mention)} <= mentions
        assert id(pair.sentence) in sentences
