"""The bundled toy files are the source: these tests pin their bytes and the invariants generation relies on."""

from __future__ import annotations

import hashlib
from collections import Counter

import pytest

from splithygiene import toydata
from splithygiene.corpus import read_seeds
from splithygiene.kgstore import LoadReport, load_ntriples
from splithygiene.qlang import Word, tokenize_nlq
from splithygiene.synthesis import entity_label, extract_template


@pytest.fixture(scope="module")
def toy_graph():
    return load_ntriples(toydata.toy_kg_path())


def test_packaged_files_are_pinned():
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in (toydata.toy_seeds_path(), toydata.toy_kg_path())}
    assert digests == {"seeds.jsonl": "cfe23b227d3fe7319060ff92603c87511c3cd55022080750d61469d57149f9aa",
                       "toy.nt": "5f08353f9b53f1eb6586ea776047998a73954ea7b05481adfc52513e13185a3e"}


def test_world_size(toy_graph):
    assert len(toy_graph) == 964
    assert toy_graph.load_report == LoadReport(skipped_literals=0, malformed_lines=())
    assert len(toydata.family_templates()) == 48


def _entities(graph) -> set[str]:
    return {term for s, _, o in graph.triples for term in (s, o)}


def test_entities_lie_under_resource_with_unique_labels(toy_graph):
    entities = _entities(toy_graph)
    assert len(entities) == 280
    assert all(iri.startswith(toydata.RESOURCE) for iri in entities)
    assert len({entity_label(iri) for iri in entities}) == len(entities)


def test_no_label_word_is_a_pattern_word(toy_graph):
    # slot matching on a generated question is unambiguous only if no entity word can stand for a template word
    label_words = {word for iri in _entities(toy_graph) for word in tokenize_nlq(entity_label(iri))}
    pattern_words = {e.token for t in toydata.family_templates() for e in t.nlq_pattern.elements if isinstance(e, Word)}
    assert pattern_words and not label_words & pattern_words


def test_seeds_are_valid_and_extractable():
    seeds = read_seeds(toydata.toy_seeds_path())
    assert len(seeds) == 48
    templates = [extract_template(seed) for seed in seeds]
    assert len({(t.nlq_pattern, t.query_pattern) for t in templates}) == 48
    assert toydata.family_templates() == templates


def test_every_template_generates_at_least_10_instances(toy_data):
    per_template = Counter(i.origin_template_id for i in toy_data.instances)
    assert set(per_template) == {t.id for t in toy_data.templates}
    assert min(per_template.values()) >= 10


def test_instance_volume(toy_data):
    assert 2500 <= len(toy_data.instances) <= 6000
