"""Damaged artifacts fed through ``cli.dispatch``: a failure is a typed error.

Every run must exit 0, 1 (usage) or 2 (data) with at most one ``error:``
line on stderr and no traceback. Hypothesis draws the damage
deterministically (``derandomize``), so the suite stays reproducible.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from casegraph.cli import dispatch
from casegraph.engine import load_index

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
) | st.lists(st.floats(), max_size=5)  # vector-like, of any length


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("fuzz")
    fixtures = helpers.write_pipeline_fixtures(tmp, num_docs=6, seed=3)
    model = tmp / "transe.json"
    assert dispatch(["train-transe", "--triples", fixtures["triples"], "--dim", "3", "--epochs", "2", "--out", str(model)]) == 0
    networks = helpers.write_pipeline_networks(fixtures, tmp / "networks.jsonl")
    return tmp, fixtures, networks, model.read_text(encoding="utf-8")


@pytest.fixture(scope="module")
def index_pipeline(pipeline):
    """A kbmatch index with enrichment and fusion, holding a TransE model."""
    tmp, fixtures, _, model = pipeline
    (tmp / "index-transe.json").write_text(model, encoding="utf-8")
    path = tmp / "corpus.idx"
    assert dispatch([
        "index", "--lexicon", fixtures["lexicon"], "--corpus", fixtures["corpus"], "--triples", fixtures["triples"],
        "--transe-model", str(tmp / "index-transe.json"), "--enrich", "--fuse", "--tau-lp", "0.001", "--out", str(path),
    ]) == 0
    return tmp, fixtures, path.read_text(encoding="utf-8")


@pytest.fixture(scope="module")
def extractor_pipeline(pipeline):
    """A trained extractor, the fixture's mentions and a model-mode index holding the extractor."""
    tmp, fixtures, _, _ = pipeline
    docs = ["--lexicon", fixtures["lexicon"], "--corpus", fixtures["corpus"]]
    model, mentions, index = tmp / "extractor.json", tmp / "mentions.jsonl", tmp / "model.idx"
    assert dispatch(["train-extractor", *docs, "--triples", fixtures["triples"], "--epochs", "2", "--out", str(model)]) == 0
    assert dispatch(["link", *docs, "--out", str(mentions)]) == 0
    assert dispatch(["index", *docs, "--mode", "model", "--extractor-model", str(model), "--out", str(index)]) == 0
    return tmp, fixtures, str(mentions), model.read_text(encoding="utf-8"), index.read_text(encoding="utf-8")


@pytest.fixture(scope="module")
def edges_pipeline(pipeline):
    """The fixture's mentions and their kbmatch edges JSONL."""
    tmp, fixtures, _, _ = pipeline
    docs = ["--lexicon", fixtures["lexicon"], "--corpus", fixtures["corpus"]]
    mentions, edges = tmp / "edge-mentions.jsonl", tmp / "edges.jsonl"
    assert dispatch(["link", *docs, "--out", str(mentions)]) == 0
    argv = ["extract", *docs, "--mentions", str(mentions), "--mode", "kbmatch", "--triples", fixtures["triples"]]
    assert dispatch([*argv, "--out", str(edges)]) == 0
    return tmp, fixtures, str(mentions), edges.read_text(encoding="utf-8")


@st.composite
def damaged_json(draw, valid: str) -> str:
    """A truncated copy of a valid JSON file, one with a value replaced or a
    key dropped somewhere inside, or a JSON document of the wrong shape."""
    kind = draw(st.sampled_from(["truncated", "mutated", "wrong type"]))
    if kind == "truncated":
        return valid[: draw(st.integers(0, len(valid) - 1))]
    if kind == "wrong type":
        return json.dumps(draw(json_values))
    payload = json.loads(valid)
    node = payload
    while True:
        key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
        if isinstance(node[key], (dict, list)) and node[key] and draw(st.booleans()):
            node = node[key]
        elif isinstance(node, dict) and draw(st.integers(0, 4)) == 0:
            del node[key]
            return json.dumps(payload)
        else:
            node[key] = draw(json_values)
            return json.dumps(payload)


def leaves(node, path: tuple = ()):
    """The paths to the scalars of a JSON value."""
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from leaves(child, (*path, key))
    else:
        yield path


@st.composite
def damaged_jsonl(draw, valid: str) -> str:
    """A truncated copy of a valid JSONL file, or one with a line damaged as
    ``damaged_json`` does or with one of its scalars replaced."""
    kind = draw(st.sampled_from(["truncated", "damaged line", "replaced scalar"]))
    if kind == "truncated":
        return valid[: draw(st.integers(0, len(valid) - 1))]
    lines = valid.splitlines()
    i = draw(st.integers(0, len(lines) - 1))
    if kind == "damaged line":
        lines[i] = draw(damaged_json(lines[i]))
    else:
        record = json.loads(lines[i])
        *path, key = draw(st.sampled_from(list(leaves(record))))
        node = record
        for step in path:
            node = node[step]
        node[key] = draw(json_values)
        lines[i] = json.dumps(record)
    return "".join(line + "\n" for line in lines)


@st.composite
def damaged_tsv(draw, valid: str, sep: str = "\t", numbers: bool = False) -> str:
    """A truncated copy of a valid file of ``sep``-separated cells, one with a
    line's cell replaced, dropped or added, or one with an extra line of cells
    or a relation header. With ``numbers``, a cell may also become an integer."""
    kind = draw(st.sampled_from(["truncated", "replaced cell", "dropped cell", "added cell", "extra line"]))
    if kind == "truncated":
        return valid[: draw(st.integers(0, len(valid) - 1))]
    lines = valid.splitlines()
    # Cells of the file itself make duplicates and dangling references; drawn text makes the rest.
    cell = st.sampled_from(sorted({c for line in lines for c in line.split(sep)})) | st.text(max_size=6)
    if numbers:
        cell |= st.integers(-3, 2**11).map(str)
    i = draw(st.integers(0, len(lines) - 1))
    if kind == "extra line":
        cells = draw(st.lists(cell, max_size=5))
        lines.insert(i, draw(st.sampled_from([sep.join(cells), "# relations: " + ",".join(cells)])))
    else:
        cells = lines[i].split(sep)
        j = draw(st.integers(0, len(cells) - 1))
        if kind == "replaced cell":
            cells[j] = draw(cell)
        elif kind == "dropped cell":
            del cells[j]
        else:
            cells.insert(j, draw(cell))
        lines[i] = sep.join(cells)
    return "".join(line + "\n" for line in lines)


def run_quietly(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = dispatch(argv)
    return code, err.getvalue()


def damaged_model_files(data, tmp: Path, valid: str, name: str) -> list[Path]:
    """Two damaged copies of a valid model file: one as ``damaged_json`` damages it, and one
    whose payload has a column or list damaged as ``damaged_model_part`` damages an index's model part."""
    payload = json.loads(valid)
    tag = {key: payload.pop(key) for key in ("format", "version")}
    texts = [data.draw(damaged_json(valid)), json.dumps({**data.draw(damaged_model_part(payload)), **tag})]
    paths = [tmp / f"{name}-json.json", tmp / f"{name}-columns.json"]
    for path, text in zip(paths, texts):
        path.write_text(text, encoding="utf-8")
    return paths


def assert_typed_failure(code: int, err: str) -> None:
    """Exit 0, 1 or 2, no traceback, and one ``error:`` line exactly when the run failed."""
    assert code in (0, 1, 2), err
    assert "Traceback" not in err
    assert sum(line.startswith("error:") for line in err.splitlines()) == (code != 0), err


@settings(max_examples=100)
@given(data=st.data())
def test_damaged_transe_model(pipeline, data):
    tmp, fixtures, networks, valid = pipeline
    out = str(tmp / "out")
    for model in damaged_model_files(data, tmp, valid, "damaged"):
        for argv in (
            ["eval-lp", "--triples", fixtures["triples"]],
            ["enrich", "--networks", networks, "--fuse"],
            ["index", "--lexicon", fixtures["lexicon"], "--corpus", fixtures["corpus"], "--triples", fixtures["triples"], "--enrich", "--fuse"],
        ):
            assert_typed_failure(*run_quietly([*argv, "--transe-model", str(model), "--out", out]))


@settings(max_examples=150)
@given(data=st.data())
def test_damaged_index(index_pipeline, data):
    tmp, fixtures, valid = index_pipeline
    index = tmp / "damaged.idx"
    index.write_text(data.draw(damaged_json(valid)), encoding="utf-8")
    out = str(tmp / "out")
    for argv in (
        ["search", "--query-file", fixtures["corpus"], "--prune"],
        ["search", "--query-file", fixtures["corpus"]],
        ["collection-graph", "--tau-doc", "0.1"],
    ):
        code, err = run_quietly([*argv, "--index", str(index), "--out", out])
        assert code in (0, 1, 2), err
        assert "Traceback" not in err
        assert sum(line.startswith("error:") for line in err.splitlines()) <= 1, err


@pytest.fixture(scope="module")
def index_layout(index_pipeline):
    """Positions in the valid index: a document with two nodes or more and an edge, and a document after it.

    ``node`` and ``edge`` are the document's first node and edge in their
    columns, ``head`` the position of that edge's head within the document,
    and ``size`` its number of nodes.
    """
    tmp, _, valid = index_pipeline
    (tmp / "layout.idx").write_text(valid, encoding="utf-8")
    index = load_index(tmp / "layout.idx")
    nets = [index.networks[doc_id] for doc_id in index.rows.doc_ids]
    row = next(i for i, net in enumerate(nets[:-1]) if len(net.nodes) >= 2 and net.edges)
    return {
        "node": sum(len(net.nodes) for net in nets[:row]),  # the row's first node
        "edge": sum(len(net.edges) for net in nets[:row]),  # the row's first edge
        "head": sorted(nets[row].nodes).index(nets[row].edges[0].head),
        "size": len(nets[row].nodes),
    }


# Each case damages one stored column of a valid index: (part, column, kind,
# edit of the decoded list given the layout, text the error line must hold).
# Every cui and relation of a table is used, so the largest id is the last.
COLUMN_DAMAGES = {
    "decreasing node pointer": ("networks", "node_ptr", "int32", lambda c, at: c.__setitem__(1, c[2] + 1), "must not decrease"),
    "decreasing span pointer": ("networks", "span_ptr", "int32", lambda c, at: c.__setitem__(1, c[2] + 1), "must not decrease"),
    "decreasing edge pointer": ("networks", "edge_ptr", "int32", lambda c, at: c.__setitem__(1, c[2] + 1), "must not decrease"),
    "cui id at the table length": (
        "networks", "node_cuis", "int32", lambda c, at: c.__setitem__(at["node"], max(c) + 1), "node cui id"
    ),
    "cuis out of order": (
        "networks", "node_cuis", "int32",
        lambda c, at: c.__setitem__(slice(at["node"], at["node"] + 2), [c[at["node"] + 1], c[at["node"]]]),
        "node cuis must ascend strictly",
    ),
    "odd span run": (
        "networks", "span_ptr", "int32", lambda c, at: c.__setitem__(at["node"] + 1, c[at["node"] + 1] - 1), "even-length span list"
    ),
    "empty span run": (
        "networks", "span_ptr", "int32", lambda c, at: c.__setitem__(at["node"] + 1, c[at["node"]]), "even-length span list"
    ),
    "head == tail": ("networks", "tails", "int32", lambda c, at: c.__setitem__(at["edge"], at["head"]), "self-loop edge on"),
    "endpoint in another document": (
        "networks", "tails", "int32", lambda c, at: c.__setitem__(at["edge"], at["size"]), "has no node"
    ),
    "relation id out of range": (
        "networks", "edge_relations", "int32", lambda c, at: c.__setitem__(at["edge"], max(c) + 1), "edge relation id"
    ),
    "provenance id out of range": (
        "networks", "provenances", "int32", lambda c, at: c.__setitem__(at["edge"], 3), "edge provenance id 3 outside [0, 3)"
    ),
    "confidence 0": ("networks", "confidences", "float64", lambda c, at: c.__setitem__(at["edge"], 0.0), "outside (0, 1]"),
    "confidence 1.5": ("networks", "confidences", "float64", lambda c, at: c.__setitem__(at["edge"], 1.5), "outside (0, 1]"),
    "confidence NaN": ("networks", "confidences", "float64", lambda c, at: c.__setitem__(at["edge"], math.nan), "outside (0, 1]"),
}


@pytest.mark.parametrize("damage", sorted(COLUMN_DAMAGES))
def test_damaged_index_column(index_pipeline, index_layout, damage):
    tmp, fixtures, valid = index_pipeline
    part, key, kind, edit, text = COLUMN_DAMAGES[damage]
    payload = json.loads(valid)
    helpers.edit_column(payload[part], key, lambda column: edit(column, index_layout), kind)
    assert_index_refused(tmp, fixtures, payload, text)


@pytest.mark.parametrize(
    "damage",
    [
        lambda column: column[:-1],  # bad padding
        lambda column: column[:-4],  # 1-3 bytes short: no whole number of items
        lambda column: column[:4] + "!" + column[4:],  # a lax decoder would skip the "!"
        lambda column: "é" + column[1:],
    ],
    ids=["truncated by one character", "truncated by one quantum", "non-base64 text", "non-ASCII text"],
)
@pytest.mark.parametrize(
    "part, key",
    [
        ("networks", "node_cuis"), ("networks", "confidences"), ("lexicon", "surface_concepts"),
        ("kb", "triples"), ("transe", "entity_vectors"),
    ],
)
def test_index_column_not_base64(index_pipeline, damage, part, key):
    tmp, fixtures, valid = index_pipeline
    payload = json.loads(valid)
    payload[part][key] = damage(payload[part][key])
    assert_index_refused(tmp, fixtures, payload, "must be base64")


def assert_index_refused(tmp: Path, fixtures: dict, payload: dict, text: str) -> None:
    """``search`` on the index ``payload`` exits 2 with one error line that holds ``text``, and no traceback."""
    index = tmp / "column-damaged.idx"
    index.write_text(json.dumps(payload), encoding="utf-8")
    code, err = run_quietly(["search", "--index", str(index), "--query-file", fixtures["corpus"], "--out", str(tmp / "out")])
    assert code == 2 and "Traceback" not in err, err
    assert err.startswith("error: ") and len(err.splitlines()) == 1 and text in err, err


@settings(max_examples=100)
@given(data=st.data())
def test_damaged_extractor_model(extractor_pipeline, data):
    tmp, fixtures, mentions, valid, valid_index = extractor_pipeline
    docs = ["--lexicon", fixtures["lexicon"], "--corpus", fixtures["corpus"]]
    runs = []
    for model in damaged_model_files(data, tmp, valid, "damaged-extractor"):
        runs += [
            ["extract", *docs, "--mentions", mentions, "--mode", "model", "--extractor-model", str(model)],
            ["index", *docs, "--mode", "model", "--extractor-model", str(model)],
        ]
    # The same kinds of damage to an index's extractor, which holds the model as columns.
    payload = json.loads(valid_index)
    try:
        embedded = json.loads(data.draw(damaged_json(json.dumps(payload["extractor"]))))
    except ValueError:
        embedded = None
    if embedded is not None:
        payload["extractor"] = embedded
        index = tmp / "damaged-extractor.idx"
        index.write_text(json.dumps(payload), encoding="utf-8")
        runs.append(["search", "--index", str(index), "--query-file", fixtures["corpus"]])
    for argv in runs:
        assert_typed_failure(*run_quietly([*argv, "--out", str(tmp / "out")]))


_BASE64 = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"


@st.composite
def damaged_model_part(draw, part: dict) -> dict:
    """``part`` (a model part of an index) with one of its columns or lists damaged.

    A column is truncated, has a base64 character flipped, or loses or gains
    a quantum of four characters; a list has two entries swapped, or loses
    or repeats an entry.
    """
    key = draw(st.sampled_from(sorted(k for k, v in part.items() if type(v) in (str, list) and v)))
    value = part[key]
    if type(value) is str:
        kind = draw(st.sampled_from(["truncated", "flipped", "shorter", "longer"]))
        i = draw(st.integers(0, len(value) - 1))
        if kind == "truncated":
            value = value[:i]
        elif kind == "flipped":
            value = value[:i] + draw(st.sampled_from(_BASE64)) + value[i + 1 :]
        elif kind == "shorter":
            value = value[:-4]
        else:
            value = value[: i - i % 4] + draw(st.text(_BASE64, min_size=4, max_size=4)) + value[i - i % 4 :]
    else:
        value = list(value)
        kind = draw(st.sampled_from(["swapped", "dropped", "repeated"]))
        i, j = draw(st.integers(0, len(value) - 1)), draw(st.integers(0, len(value) - 1))
        if kind == "swapped":
            value[i], value[j] = value[j], value[i]
        elif kind == "dropped":
            del value[i]
        else:
            value.insert(i, value[j])
    return {**part, key: value}


@settings(max_examples=80)
@given(data=st.data())
def test_damaged_index_model_columns(index_pipeline, extractor_pipeline, data):
    # The lexicon, triple store and TransE model of the kbmatch index, and the extractor of the model-mode one.
    tmp, fixtures, valid = index_pipeline
    part = data.draw(st.sampled_from(["lexicon", "kb", "transe", "extractor"]))
    payload = json.loads(extractor_pipeline[4] if part == "extractor" else valid)
    payload[part] = data.draw(damaged_model_part(payload[part]))
    index = tmp / "damaged-model-part.idx"
    index.write_text(json.dumps(payload), encoding="utf-8")
    code, err = run_quietly(["search", "--index", str(index), "--query-file", fixtures["corpus"], "--out", str(tmp / "out")])
    assert_typed_failure(code, err)


def assert_typed_failure(code: int, err: str) -> None:
    assert code in (0, 1, 2), err
    assert "Traceback" not in err
    assert sum(line.startswith("error:") for line in err.splitlines()) == (code != 0), err


@settings(max_examples=100)
@given(data=st.data())
def test_damaged_networks(pipeline, data):
    tmp, _, networks, _ = pipeline
    damaged = tmp / "damaged-networks.jsonl"
    damaged.write_text(data.draw(damaged_jsonl(Path(networks).read_text(encoding="utf-8"))), encoding="utf-8")
    argv = ["enrich", "--networks", str(damaged), "--transe-model", str(tmp / "transe.json"), "--tau-lp", "0.001", "--fuse"]
    assert_typed_failure(*run_quietly([*argv, "--out", str(tmp / "out")]))


@settings(max_examples=100)
@given(data=st.data())
def test_damaged_edges(edges_pipeline, data):
    tmp, fixtures, mentions, valid = edges_pipeline
    damaged = tmp / "damaged-edges.jsonl"
    damaged.write_text(data.draw(damaged_jsonl(valid)), encoding="utf-8")
    for argv in (
        ["build-graphs", "--lexicon", fixtures["lexicon"], "--corpus", fixtures["corpus"], "--mentions", mentions, "--edges", str(damaged)],
        ["train-transe", "--triples", fixtures["triples"], "--extra-edges", str(damaged), "--dim", "3", "--epochs", "1"],
    ):
        assert_typed_failure(*run_quietly([*argv, "--out", str(tmp / "out")]))


@settings(max_examples=100)
@given(data=st.data())
def test_damaged_mentions(extractor_pipeline, edges_pipeline, data):
    tmp, fixtures, mentions, _, _ = extractor_pipeline
    damaged = tmp / "damaged-mentions.jsonl"
    damaged.write_text(data.draw(damaged_jsonl(Path(mentions).read_text(encoding="utf-8"))), encoding="utf-8")
    docs = ["--lexicon", fixtures["lexicon"], "--corpus", fixtures["corpus"], "--mentions", str(damaged)]
    for argv in (
        ["extract", *docs, "--mode", "kbmatch", "--triples", fixtures["triples"]],
        ["extract", *docs, "--mode", "model", "--extractor-model", str(tmp / "extractor.json")],
        ["build-graphs", *docs, "--edges", str(tmp / "edges.jsonl")],
    ):
        assert_typed_failure(*run_quietly([*argv, "--out", str(tmp / "out")]))


@settings(max_examples=80)
@given(data=st.data())
def test_damaged_corpus(pipeline, edges_pipeline, index_pipeline, data):
    tmp, fixtures, _, _ = pipeline
    _, _, mentions, _ = edges_pipeline
    corpus = tmp / "damaged-corpus.jsonl"
    corpus.write_text(data.draw(damaged_jsonl(Path(fixtures["corpus"]).read_text(encoding="utf-8"))), encoding="utf-8")
    (tmp / "query.idx").write_text(index_pipeline[2], encoding="utf-8")
    docs = ["--lexicon", fixtures["lexicon"], "--corpus", str(corpus)]
    for argv in (
        ["link", *docs],
        ["index", *docs, "--triples", fixtures["triples"]],
        *readers_of_inputs(docs, fixtures["triples"], mentions),
        ["build-graphs", *docs, "--mentions", mentions, "--edges", str(tmp / "edges.jsonl")],
        ["search", "--index", str(tmp / "query.idx"), "--query-file", str(corpus)],
    ):
        assert_typed_failure(*run_quietly([*argv, "--out", str(tmp / "out")]))


def readers_of_inputs(docs: list[str], triples: str, mentions: str) -> list[list[str]]:
    """The commands other than ``index`` that read a corpus, a lexicon and a triple store."""
    return [
        ["extract", *docs, "--mentions", mentions, "--mode", "kbmatch", "--triples", triples],
        ["train-extractor", *docs, "--triples", triples, "--epochs", "1"],
    ]


@settings(max_examples=80)
@given(data=st.data())
def test_damaged_lexicon(pipeline, edges_pipeline, data):
    tmp, fixtures, _, _ = pipeline
    _, _, mentions, _ = edges_pipeline
    lexicon = tmp / "damaged-lexicon.tsv"
    lexicon.write_text(data.draw(damaged_tsv(Path(fixtures["lexicon"]).read_text(encoding="utf-8"))), encoding="utf-8")
    docs = ["--lexicon", str(lexicon), "--corpus", fixtures["corpus"]]
    for argv in (
        ["link", *docs],
        *readers_of_inputs(docs, fixtures["triples"], mentions),
        ["build-graphs", *docs, "--mentions", mentions, "--edges", str(tmp / "edges.jsonl")],
    ):
        assert_typed_failure(*run_quietly([*argv, "--out", str(tmp / "out")]))
    assert_index_typed_failure(tmp, [*docs, "--triples", fixtures["triples"]])


@settings(max_examples=80)
@given(data=st.data())
def test_damaged_triples(pipeline, edges_pipeline, data):
    tmp, fixtures, _, _ = pipeline
    _, _, mentions, _ = edges_pipeline
    triples = tmp / "damaged-triples.tsv"
    triples.write_text(data.draw(damaged_tsv(Path(fixtures["triples"]).read_text(encoding="utf-8"))), encoding="utf-8")
    docs = ["--lexicon", fixtures["lexicon"], "--corpus", fixtures["corpus"]]
    for argv in (
        ["train-transe", "--triples", str(triples), "--dim", "3", "--epochs", "1"],
        ["eval-lp", "--triples", str(triples), "--transe-model", str(tmp / "transe.json")],
        *readers_of_inputs(docs, str(triples), mentions),
    ):
        assert_typed_failure(*run_quietly([*argv, "--out", str(tmp / "out")]))
    assert_index_typed_failure(tmp, ["--lexicon", fixtures["lexicon"], "--corpus", fixtures["corpus"], "--triples", str(triples)])


def assert_index_typed_failure(tmp: Path, args: list[str]) -> None:
    """``index`` with these arguments fails only as a typed error, and an index it writes passes the loader's checks."""
    index = tmp / "damaged-input.idx"
    index.unlink(missing_ok=True)
    code, err = run_quietly(["index", *args, "--out", str(index)])
    assert_typed_failure(code, err)
    if code == 0:
        load_index(index)


@pytest.fixture(scope="module")
def evaluate_pipeline(index_pipeline):
    """A run of the fixture's documents as queries against the index, and qrels judging each query's own document and another."""
    tmp, fixtures, index = index_pipeline
    (tmp / "evaluate.idx").write_text(index, encoding="utf-8")
    run = tmp / "run.txt"
    argv = ["search", "--index", str(tmp / "evaluate.idx"), "--query-file", fixtures["corpus"], "--k", "3", "--out", str(run)]
    assert dispatch(argv) == 0
    docs = [doc.id for doc in fixtures["docs"]]
    qrels = "".join(f"{doc} 0 {doc} 2\n{doc} 0 {docs[i - 1]} {i % 3}\n" for i, doc in enumerate(docs))
    return tmp, run.read_text(encoding="utf-8"), qrels


def evaluate_damaged(tmp: Path, run: str, qrels: str) -> None:
    """``evaluate`` on these run and qrels texts, in both formats, fails only as a typed error."""
    (tmp / "damaged-run.txt").write_text(run, encoding="utf-8")
    (tmp / "damaged-qrels.txt").write_text(qrels, encoding="utf-8")
    for fmt in ("text", "json"):
        argv = ["evaluate", "--run", str(tmp / "damaged-run.txt"), "--qrels", str(tmp / "damaged-qrels.txt"), "--format", fmt]
        assert_typed_failure(*run_quietly([*argv, "--out", str(tmp / "out")]))


@settings(max_examples=100)
@given(data=st.data())
def test_damaged_run(evaluate_pipeline, data):
    tmp, run, qrels = evaluate_pipeline
    evaluate_damaged(tmp, data.draw(damaged_tsv(run, sep=" ", numbers=True)), qrels)


@settings(max_examples=100)
@given(data=st.data())
def test_damaged_qrels(evaluate_pipeline, data):
    tmp, run, qrels = evaluate_pipeline
    evaluate_damaged(tmp, run, data.draw(damaged_tsv(qrels, sep=" ", numbers=True)))


@pytest.mark.parametrize("grade", [54, 1024])
def test_qrels_grade_beyond_53(evaluate_pipeline, grade):
    # A grade of 1024 used to overflow inside nDCG and exit 3 with a traceback.
    tmp, run, qrels = evaluate_pipeline
    (tmp / "grade-qrels.txt").write_text(qrels + f"x 0 y {grade}\n", encoding="utf-8")
    code, err = run_quietly(["evaluate", "--run", str(tmp / "run.txt"), "--qrels", str(tmp / "grade-qrels.txt")])
    assert code == 2 and err.startswith("error: ") and len(err.splitlines()) == 1, err
    assert f"line {len(qrels.splitlines()) + 1}: relevance {grade} above 53" in err
