"""Shared fixtures: the toy pipeline (built once) and random corpus makers."""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

from splithygiene import attribution, corpus, experiments, kgstore, partitioner, qlang, synthesis
from splithygiene.qlang import NlqPattern, parse_query

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))
import world  # noqa: E402

PIZZA_SEED_NLQ = "Is Peter Piper Pizza in the pizza industry?"
PIZZA_SEED_QUERY = (
    "ASK WHERE {<http://dbpedia.org/resource/Peter_Piper_Pizza> "
    "<http://dbpedia.org/ontology/industry> <http://dbpedia.org/resource/Pizza>}"
)
INDUSTRY_TEMPLATE_NLQ = "Is <B> in the <A> industry?"
INDUSTRY_TEMPLATE_QUERY = (
    "SELECT DISTINCT ?a, ?b WHERE {?b <http://dbpedia.org/ontology/industry> ?a}"
)
COMICS_INSTANCE_NLQ = "Is robot comics in the publishing industry?"
COMICS_INSTANCE_QUERY = (
    "ASK WHERE {<http://dbpedia.org/resource/Robot_Comics> "
    "<http://dbpedia.org/ontology/industry> <http://dbpedia.org/resource/Publishing>}"
)
AIRCRAFT_INSTANCE_NLQ = "Is tiger aircraft in the aerospace industry?"
AIRCRAFT_INSTANCE_QUERY = (
    "ASK WHERE {<http://dbpedia.org/resource/Tiger_Aircraft> "
    "<http://dbpedia.org/ontology/industry> <http://dbpedia.org/resource/Aerospace>}"
)


@pytest.fixture(scope="session")
def toy_config():
    return experiments.RunConfig()


@pytest.fixture(scope="session")
def toy_data(toy_config):
    return experiments.build_pipeline_data(toy_config)


@pytest.fixture(scope="session")
def scaled_world(tmp_path_factory):
    """The config and pipeline data of the benchmark world 4x the toy (16,407 instances)."""
    path = tmp_path_factory.mktemp("world4")
    world.write_world(path, seed=1, scale=4)
    config = experiments.RunConfig(seeds_path=str(path / "seeds.jsonl"), kg_path=str(path / "world.nt"),
                                   instance_limit=100_000)
    return config, experiments.build_pipeline_data(config)


@pytest.fixture(scope="session")
def toy_baseline_corpus(toy_data, toy_config):
    """The n-gram and memorizer indexes over the toy corpus, and each instance id's row in both."""
    return experiments.baseline_corpus(toy_data, toy_config)


@pytest.fixture(scope="session")
def pizza_seed():
    pair = corpus.QAPair.from_text(PIZZA_SEED_NLQ, PIZZA_SEED_QUERY)
    # tokens: is peter piper pizza in the pizza industry ?
    forms = {
        "B": corpus.SurfaceForm(1, 4),
        "A": corpus.SurfaceForm(6, 7),
    }
    return corpus.Seed(id="pizza-seed", pair=pair, surface_forms=forms)


@pytest.fixture(scope="session")
def industry_template(pizza_seed):
    return synthesis.extract_template(pizza_seed)


def make_instance(instance_id, nlq_text, query_text, origin=None):
    return corpus.Instance(
        id=instance_id,
        pair=corpus.QAPair.from_text(nlq_text, query_text),
        origin_template_id=origin,
    )


# ---------------------------------------------------------------------------
# Random corpora for property tests
# ---------------------------------------------------------------------------

_NS = "http://rand.example.org/"
_WORDS = ["alpha", "beta", "gamma", "delta", "omega", "sigma", "kappa", "theta"]
_ENTITY_WORDS = ["Rook", "Pawn", "Lance", "Tiger", "Otter", "Heron", "Maple", "Birch",
                 "Coral", "Slate", "Amber", "Perch"]


def random_template(rnd: random.Random, tid: str):
    """A random 1-2 slot template over the shared word and predicate pools."""
    n_slots = rnd.choice([1, 1, 2])
    labels = ["A", "B"][:n_slots]
    parts = [rnd.choice(_WORDS)]
    for label in labels:
        parts.append(f"<{label}>")
        parts.append(rnd.choice(_WORDS))
    nlq_pattern = NlqPattern.from_text(" ".join(parts))
    labels = list(nlq_pattern.labels)
    preds = [f"{_NS}p{rnd.randrange(6)}" for _ in range(rnd.choice([1, 1, 2]))]
    terms = []
    for i, pred in enumerate(preds):
        subj = f"?j{i}" if rnd.random() < 0.4 else None
        obj = f"?k{i}" if subj is None and rnd.random() < 0.3 else None
        terms.append((subj, pred, obj))
    # place each label into a free subject/object position
    free = [(i, pos) for i, (s, p, o) in enumerate(terms) for pos in ("s", "o")
            if (s is None if pos == "s" else o is None)]
    rnd.shuffle(free)
    if len(free) < len(labels):
        return None
    placements = {}
    for label, (i, pos) in zip(labels, free):
        placements[(i, pos)] = label
    body = []
    for i, (subj, pred, obj) in enumerate(terms):
        s = subj or (f"<Placeholder:{placements[(i, 's')]}>" if (i, "s") in placements
                     else f"<{_NS}e{rnd.randrange(8)}>")
        o = obj or (f"<Placeholder:{placements[(i, 'o')]}>" if (i, "o") in placements
                    else f"<{_NS}e{rnd.randrange(8)}>")
        body.append(f"{s} <{pred}> {o}")
    query = parse_query("ASK WHERE { " + " . ".join(body) + " }")
    try:  # None when the NLQ and query disagree on labels
        return synthesis.Template(
            id=tid,
            nlq_pattern=nlq_pattern,
            query_pattern=query,
            origin_seed_id=f"seed-{tid}",
        )
    except ValueError:
        return None


def subsuming_template(rnd: random.Random, tid: str, base) -> synthesis.Template:
    """Same NLQ pattern as `base`, query extended by one extra triple.

    Every instance of the result is also attributed to `base`, which forces
    the ambiguity and demotion paths in sanitized partitioning.
    """
    entities = [f"{_NS}{w}_One" for w in _ENTITY_WORDS[:6]]
    extra = (
        qlang.Iri(rnd.choice(entities)),
        qlang.Iri(f"{_NS}p{rnd.randrange(6)}"),
        qlang.Var("extra"),
    )
    query = qlang.QueryAst(
        form=base.query_pattern.form,
        select_vars=base.query_pattern.select_vars,
        patterns=base.query_pattern.patterns + (extra,),
    )
    return synthesis.Template(
        id=tid,
        nlq_pattern=base.nlq_pattern,
        query_pattern=query,
        origin_seed_id=f"seed-{tid}",
    )


def random_corpus(rnd: random.Random):
    """Random graph + templates + generated instances + attribution index."""
    entities = [f"{_NS}{w}_{v}" for w in _ENTITY_WORDS[:6] for v in ("One", "Two", "Three")]
    triples = set()
    for _ in range(rnd.randrange(60, 160)):
        triples.add((rnd.choice(entities), f"{_NS}p{rnd.randrange(6)}", rnd.choice(entities)))
    graph = kgstore.Graph(triples)
    templates = []
    attempts = 0
    while len(templates) < rnd.randrange(4, 9) and attempts < 60:
        attempts += 1
        if templates and rnd.random() < 0.4:
            t = subsuming_template(rnd, f"rt{len(templates)}", rnd.choice(templates))
        else:
            t = random_template(rnd, f"rt{len(templates)}")
        if t is not None and not any(x.nlq_pattern == t.nlq_pattern
                                     and x.query_pattern == t.query_pattern for x in templates):
            templates.append(t)
    instances = []
    for t in templates:
        instances.extend(synthesis.generate_instances(t, graph, rnd.randrange(5, 25), rnd.randrange(10_000)))
    instances, _ = corpus.dedup(instances)
    index = attribution.build_index(instances, templates)
    return graph, templates, instances, index


def random_template_split(rnd: random.Random, templates) -> partitioner.TemplateSplit:
    ids = sorted(t.id for t in templates)
    n_test = rnd.randrange(1, max(2, len(ids)))
    test = set(rnd.sample(ids, n_test))
    return partitioner.TemplateSplit(test_template_ids=frozenset(test))
