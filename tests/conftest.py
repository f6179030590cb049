from __future__ import annotations

import pytest
from hypothesis import settings

import helpers
from casegraph.kb import load_lexicon, load_triples

# Every property test is deterministic: the same examples on every run, no
# example database on disk, and no per-example time limit on a loaded host.
settings.register_profile("casegraph", derandomize=True, database=None, deadline=None)
settings.load_profile("casegraph")


@pytest.fixture
def lexicon(tmp_path):
    path = tmp_path / "lexicon.tsv"
    path.write_text(helpers.FIXTURE_LEXICON_TSV, encoding="utf-8")
    return load_lexicon(path)


@pytest.fixture
def kb(tmp_path):
    path = tmp_path / "triples.tsv"
    path.write_text(helpers.FIXTURE_TRIPLES_TSV, encoding="utf-8")
    return load_triples(path)
