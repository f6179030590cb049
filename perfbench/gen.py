"""Seeded synthetic inputs for the benchmark, written in casegraph's own formats.

One ``Spec`` fixes the sizes; one seed fixes every random choice, so the same
(spec, seed) always writes byte-identical files:

* ``lexicon.tsv`` - KB entities plus lexicon-only concepts. Names are
  pseudo-words, often with a head noun ("... syndrome"), so many surfaces
  span several tokens; a few synonyms are shared between two concepts.
* ``triples.tsv`` - a ``# relations:`` header and the facts. Entities sit in
  groups on a 2-D grid and every relation is a fixed grid shift, so the
  facts have exact translational structure for TransE to learn. Heads and
  tails are drawn with Zipf popularity, which gives degree skew.
* ``train.tsv`` / ``test.tsv`` - a seeded held-out split of the facts; every
  test entity and relation still occurs in the training part.
* ``corpus.jsonl`` - topical abstracts. A topic is a KB neighbourhood; its
  documents state the topic's facts with relation-specific wording, add
  co-mentions and filler, and have log-normally distributed lengths.
* ``queries.jsonl`` / ``qrels.txt`` - one case per topic, rendered afresh
  with a preference for synonyms; short ones list 2-3 concepts, long ones
  are case narratives. The topic's documents are its relevant documents.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from statistics import NormalDist

RELATIONS = ("associated_with", "causes", "diagnoses", "interacts_with", "prevents", "treats")
SHIFTS = {
    "associated_with": (1, 1),
    "causes": (1, 0),
    "diagnoses": (0, 1),
    "interacts_with": (2, -1),
    "prevents": (-1, 2),
    "treats": (2, 1),
}
# Active connectors keep the head first; passive ones put the tail first.
ACTIVE = {
    "associated_with": ["is associated with", "correlates with", "is linked to"],
    "causes": ["causes", "induces", "leads to"],
    "diagnoses": ["detects", "is used to diagnose", "confirms"],
    "interacts_with": ["interacts with", "binds", "potentiates"],
    "prevents": ["prevents", "protects against", "reduces the risk of"],
    "treats": ["treats", "is effective against", "relieves"],
}
PASSIVE = {
    "associated_with": ["is often seen with"],
    "causes": ["is caused by", "results from"],
    "diagnoses": ["is detected by", "was confirmed by"],
    "interacts_with": ["is potentiated by"],
    "prevents": ["is prevented by"],
    "treats": ["is treated with", "responds to"],
}
SEMTYPES = ("anatomy", "disease", "drug", "finding", "procedure")
HEAD_NOUNS = {
    "anatomy": ["tissue", "gland", "nerve"],
    "disease": ["syndrome", "disease", "disorder"],
    "drug": ["inhibitor", "agonist", "sulfate"],
    "finding": ["deficiency", "elevation", "lesion"],
    "procedure": ["therapy", "scan", "resection"],
}
CO_MENTION = ["{a} and {b} were both recorded", "we measured {a} alongside {b}", "{a} was compared with {b}"]
FILLER = [
    "the study enrolled adult patients",
    "follow up lasted twelve months",
    "outcomes were assessed by two clinicians",
    "the cohort was recruited at three centres",
    "baseline characteristics were similar",
    "no adverse events were reported",
]
OPENERS = ["In this cohort,", "Overall,", "Notably,", "In most patients", "We found that", ""]
SYLLABLES = [c + v for c in "bdfgklmnprstvz" for v in "aeiou"]


@dataclass(frozen=True)
class Spec:
    grid: tuple[int, int]  # groups on a rows x cols grid
    group_size: int  # entities per group
    extra_concepts: int  # lexicon concepts outside the KB
    triples_per_cell: int  # facts drawn per (group, relation) with a valid target group, before dedup
    docs: int
    docs_per_topic: int
    mean_sentences: float  # median of the log-normal document length, in sentences
    queries: int
    test_triples: int


@dataclass
class Entity:
    cui: str
    group: int
    semtype: str
    name: str
    synonyms: list[str]


def _word(rng: random.Random, taken: set[str]) -> str:
    while True:
        word = "".join(rng.choice(SYLLABLES) for _ in range(rng.randint(2, 4)))
        if word not in taken:
            taken.add(word)
            return word


def _concepts(spec: Spec, rng: random.Random) -> tuple[list[Entity], list[Entity]]:
    rows, cols = spec.grid
    taken: set[str] = set()
    kb_entities = []
    extras = []
    total = rows * cols * spec.group_size + spec.extra_concepts
    for i in range(total):
        group = i // spec.group_size if i < rows * cols * spec.group_size else -1
        if group >= 0:
            semtype = SEMTYPES[(group // cols + group % cols) % len(SEMTYPES)]
        else:
            semtype = rng.choice(SEMTYPES)
        name = _word(rng, taken)
        if rng.random() < 0.5:
            name += " " + rng.choice(HEAD_NOUNS[semtype])
        synonyms = []
        for _ in range(rng.choice((0, 1, 1, 2, 3))):
            synonym = _word(rng, taken)
            if rng.random() < 0.4:
                synonym = _word(rng, taken) + " " + synonym
            synonyms.append(synonym)
        entity = Entity(f"C{i + 1:07d}", group, semtype, name, synonyms)
        (kb_entities if group >= 0 else extras).append(entity)
    # Ambiguity: a few concepts also carry another concept's synonym.
    everyone = kb_entities + extras
    for entity in rng.sample(everyone, max(1, len(everyone) // 30)):
        donor = rng.choice(everyone)
        if donor is not entity and donor.synonyms:
            entity.synonyms.append(donor.synonyms[0])
    return kb_entities, extras


def _facts(spec: Spec, entities: list[Entity], rng: random.Random) -> list[tuple[str, str, str]]:
    """Exactly ``triples_per_cell`` distinct facts per valid (group, relation) cell.

    Every entity is in at least one fact, so the entity and fact counts, and
    with them the cost of training, are the same for every seed.
    """
    rows, cols = spec.grid
    members: dict[int, list[Entity]] = {}
    for entity in entities:
        members.setdefault(entity.group, []).append(entity)
    popularity = {e.cui: 1.0 / (rank + 1) ** 0.8 for rank, e in enumerate(rng.sample(entities, len(entities)))}
    cells: dict[tuple[int, str], set[tuple[str, str, str]]] = {}
    target: dict[tuple[int, str], int] = {}
    for group in range(rows * cols):
        r, c = divmod(group, cols)
        for relation in RELATIONS:
            dr, dc = SHIFTS[relation]
            if 0 <= r + dr < rows and 0 <= c + dc < cols:
                cells[(group, relation)] = set()
                target[(group, relation)] = (r + dr) * cols + c + dc

    def draw(pool: list[Entity]) -> Entity:
        return rng.choices(pool, [popularity[e.cui] for e in pool])[0]

    for entity in entities:
        as_head = [cell for cell in cells if cell[0] == entity.group]
        as_tail = [cell for cell in cells if target[cell] == entity.group]
        cell = rng.choice(as_head + as_tail)
        if cell in as_head:
            cells[cell].add((entity.cui, cell[1], draw(members[target[cell]]).cui))
        else:
            cells[cell].add((draw(members[cell[0]]).cui, cell[1], entity.cui))
    for (group, relation), facts in cells.items():
        while len(facts) < spec.triples_per_cell:
            facts.add((draw(members[group]).cui, relation, draw(members[target[(group, relation)]]).cui))
    return sorted(f for facts in cells.values() for f in facts)


def _split(facts: list[tuple[str, str, str]], n_test: int, rng: random.Random):
    """Hold out facts whose entities and relation stay covered by the rest."""
    uses: dict[str, int] = {}
    for head, relation, tail in facts:
        for key in (head, relation, tail):
            uses[key] = uses.get(key, 0) + 1
    test = set()
    for fact in rng.sample(facts, len(facts)):
        if len(test) == n_test:
            break
        if all(uses[key] > 1 for key in fact):
            test.add(fact)
            for key in fact:
                uses[key] -= 1
    return [f for f in facts if f not in test], sorted(test)


def _surface(entity: Entity, rng: random.Random, prefer_synonym: bool) -> str:
    if entity.synonyms and (prefer_synonym or rng.random() < 0.4):
        return rng.choice(entity.synonyms)
    return entity.name


def _sentence(body: str, rng: random.Random) -> str:
    opener = rng.choice(OPENERS)
    text = f"{opener} {body}" if opener else body
    return text[0].upper() + text[1:] + "."


# Sentence kinds cycle in this order, so every document of a given length has
# the same mix: 3 fact statements, 1 co-mention and 1 filler per 5 sentences;
# fillers alternate between a hub concept and a lexicon-only concept.
KINDS = ("fact", "pair", "fact", "filler", "fact")


def _render(topic, by_cui, facts_by_cui, extras, hubs, rng, n_sentences, prefer_synonym=False) -> str:
    concepts = topic
    local = sorted({f for cui in concepts for f in facts_by_cui.get(cui, ()) if f[0] in concepts and f[2] in concepts})
    sentences = []
    fillers = 0
    for k in range(n_sentences):
        kind = KINDS[k % len(KINDS)]
        if kind == "fact" and local:
            head, relation, tail = rng.choice(local)
            h = _surface(by_cui[head], rng, prefer_synonym)
            t = _surface(by_cui[tail], rng, prefer_synonym)
            if rng.random() < 0.75:
                body = f"{h} {rng.choice(ACTIVE[relation])} {t}"
            else:
                body = f"{t} {rng.choice(PASSIVE[relation])} {h}"
        elif kind != "filler":
            a, b = rng.sample(concepts, 2)
            body = rng.choice(CO_MENTION).format(
                a=_surface(by_cui[a], rng, prefer_synonym), b=_surface(by_cui[b], rng, prefer_synonym)
            )
        else:
            pool = hubs if fillers % 2 == 0 else extras
            fillers += 1
            body = f"{rng.choice(FILLER)} and {_surface(rng.choice(pool), rng, prefer_synonym)} was noted"
        sentences.append(_sentence(body, rng))
    return " ".join(sentences)


def _topics(n_topics, entities, facts, rng):
    # Sizes cycle instead of being drawn, so that every seed yields the same
    # amount of work and seeds differ only in content.
    neighbours: dict[str, list[str]] = {}
    for head, _, tail in facts:
        neighbours.setdefault(head, []).append(tail)
        neighbours.setdefault(tail, []).append(head)
    pool = [e.cui for e in entities if e.cui in neighbours]
    rng.shuffle(pool)
    # More topics than entities: seeds repeat, each time with a fresh neighbourhood.
    seeds = [pool[i % len(pool)] for i in range(n_topics)]
    topics = []
    for seed in seeds:
        chosen = [seed]
        frontier = sorted(set(neighbours[seed]))
        rng.shuffle(frontier)
        for j, cui in enumerate(frontier[: 3 + len(topics) % 4]):
            chosen.append(cui)
            second = sorted(set(neighbours[cui]) - set(chosen))
            if second and j % 2:
                chosen.append(rng.choice(second))
        topics.append(list(dict.fromkeys(chosen)))
    return topics


def _lengths(spec: Spec, rng: random.Random) -> list[int]:
    """Log-normal document lengths taken at fixed quantiles, in seeded order.

    The multiset of lengths is the same for every seed, so the volume of text
    (and with it the cost of a run) does not change with the seed.
    """
    normal = NormalDist(math.log(spec.mean_sentences), 0.6)
    lengths = [max(2, min(60, round(math.exp(normal.inv_cdf((i + 0.5) / spec.docs))))) for i in range(spec.docs)]
    rng.shuffle(lengths)
    return lengths


def generate(spec: Spec, seed: int, out_dir: Path) -> dict[str, Path]:
    """Write every input file for ``spec`` and ``seed`` into ``out_dir``."""
    rng = random.Random(seed)
    entities, extras = _concepts(spec, rng)
    facts = _facts(spec, entities, rng)
    train_facts, test_facts = _split(facts, spec.test_triples, rng)
    by_cui = {e.cui: e for e in entities + extras}
    facts_by_cui: dict[str, list] = {}
    for fact in facts:
        facts_by_cui.setdefault(fact[0], []).append(fact)
        facts_by_cui.setdefault(fact[2], []).append(fact)
    degree = sorted(entities, key=lambda e: (-len(facts_by_cui.get(e.cui, ())), e.cui))
    hubs = degree[: max(3, len(degree) // 50)]
    n_topics = max(spec.queries, -(-spec.docs // spec.docs_per_topic))
    topics = _topics(n_topics, entities, facts, rng)

    paths = {name: out_dir / name for name in ("lexicon.tsv", "triples.tsv", "train.tsv", "test.tsv", "corpus.jsonl", "queries.jsonl", "qrels.txt")}
    lex_rows = [f"{e.cui}\t{e.name}\t{'|'.join(e.synonyms)}\t{e.semtype}\n" for e in entities + extras]
    paths["lexicon.tsv"].write_text("".join(lex_rows), encoding="utf-8")
    header = f"# relations: {','.join(RELATIONS)}\n"
    for name, rows in (("triples.tsv", facts), ("train.tsv", train_facts), ("test.tsv", test_facts)):
        paths[name].write_text(header + "".join(f"{h}\t{r}\t{t}\n" for h, r, t in rows), encoding="utf-8")

    docs = []
    qrels = []
    lengths = _lengths(spec, rng)
    for i in range(spec.docs):
        topic_no = i % len(topics)
        topic = topics[topic_no]
        doc_id = f"d{i + 1:06d}"
        title = f"{by_cui[topic[0]].name} in clinical practice"
        text = _render(topic, by_cui, facts_by_cui, extras, hubs, rng, lengths[i])
        docs.append(json.dumps({"id": doc_id, "title": title, "text": text}, sort_keys=True) + "\n")
        if topic_no < spec.queries:
            qrels.append(f"q{topic_no + 1:05d} 0 {doc_id} 1\n")
    paths["corpus.jsonl"].write_text("".join(docs), encoding="utf-8")

    queries = []
    # Three in ten cases are short (2-3 concepts); the others are narratives
    # of 4-6 sentences, which always mention a hub concept. A fixed mix keeps
    # the median case inside the narratives for every seed.
    for q in range(spec.queries):
        topic = topics[q]
        if q % 10 < 3:
            picked = [topic[0]] + rng.sample(topic[1:], min(len(topic) - 1, 1 + q % 2))
            text = ", ".join(_surface(by_cui[c], rng, True) for c in picked)
        else:
            text = _render(topic, by_cui, facts_by_cui, extras, hubs, rng, 4 + q % 3, prefer_synonym=True)
        queries.append(json.dumps({"id": f"q{q + 1:05d}", "title": "", "text": text}, sort_keys=True) + "\n")
    paths["queries.jsonl"].write_text("".join(queries), encoding="utf-8")
    paths["qrels.txt"].write_text("".join(sorted(qrels)), encoding="utf-8")
    return paths
