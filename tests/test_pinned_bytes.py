"""The kernel path's output bytes, pinned by SHA-256 digest on every machine.

A ``kbmatch`` index without enrichment, fusion or a TransE model, its
collection graph and its runs at λ 1 score by the WL kernel alone: integer
dots over the square root of integer self-dots, which no BLAS reduction
reaches. So their bytes, unlike those of an embedding cosine, do not depend
on the CPU or on the BLAS kernel, and fixed digests hold everywhere. A
change that alters these bytes on purpose updates ``PINNED`` and says so in
CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json

import pytest

import helpers
from casegraph.cli import dispatch

PINNED = {
    "index": "f0eced221419dd69fdb6d39e2c954a9c171c7a192bc2a99192a810ad6d730cba",
    "graph tau 0": "fe0f8cae53bd1f448d5b0ba60ddd6a55f61ddacc9e59ab43e9759114d63b780d",
    "graph tau 0.3": "57d22f35f8e94a818be9c9b8cfe9e202683089982b0fb9450ae79d4c455eef57",
    "graph tau 0.5": "de29e090085c5ddb472f3dccb703784178fc46db33ba53dc04b1f0c1d0cc4499",
    "run": "8aa955c81b9362f141f54d91d0980fca36c5bf18f7f5d1223725898644398860",
    "run pruned": "304c18fa549df8969f8ea42775e088555dbe6be37dd84c2418eff09b5bc3923d",
}


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory) -> dict[str, bytes]:
    tmp = tmp_path_factory.mktemp("pinned")
    fixtures = helpers.write_pipeline_fixtures(tmp, num_docs=30, seed=3)
    docs = fixtures["docs"]
    queries = tmp / "queries.jsonl"
    cases = [docs[0].content(), docs[17].content(), "Aspirin and insulin.", "Nothing the lexicon knows."]
    lines = [json.dumps({"id": f"q{i}", "title": "", "text": text}) + "\n" for i, text in enumerate(cases)]
    queries.write_text("".join(lines), encoding="utf-8")
    index = tmp / "corpus.idx"
    built = {"index": index}
    assert dispatch([
        "index", "--lexicon", fixtures["lexicon"], "--corpus", fixtures["corpus"], "--triples", fixtures["triples"],
        "--mode", "kbmatch", "--no-enrich", "--no-fuse", "--out", str(index),
    ]) == 0
    for tau in ("0", "0.3", "0.5"):
        built[f"graph tau {tau}"] = out = tmp / f"graph-{tau}.dot"
        assert dispatch(["collection-graph", "--index", str(index), "--lambda", "1", "--tau-doc", tau, "--out", str(out)]) == 0
    for name, prune in (("run", "--no-prune"), ("run pruned", "--prune")):
        built[name] = out = tmp / f"{name.replace(' ', '-')}.txt"
        argv = ["search", "--index", str(index), "--query-file", str(queries), "--lambda", "1", "--k", "30", prune]
        assert dispatch([*argv, "--out", str(out)]) == 0
    return {name: path.read_bytes() for name, path in built.items()}


def test_pruning_changes_a_query_of_the_runs(artifacts):
    # Otherwise the pruned digest would pin nothing the unpruned one does not.
    run, pruned = (artifacts[name].decode().splitlines() for name in ("run", "run pruned"))
    assert set(pruned) < set(run)
    assert {line.split()[0] for line in set(run) - set(pruned)} >= {"q0", "q3"}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_bytes_match_the_pinned_digest(artifacts, name):
    assert hashlib.sha256(artifacts[name]).hexdigest() == PINNED[name]
