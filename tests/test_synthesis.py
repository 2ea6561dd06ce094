from __future__ import annotations

import dataclasses
import json

import pytest

from conftest import (
    COMICS_INSTANCE_NLQ,
    COMICS_INSTANCE_QUERY,
    INDUSTRY_TEMPLATE_NLQ,
    INDUSTRY_TEMPLATE_QUERY,
    PIZZA_SEED_NLQ,
    PIZZA_SEED_QUERY,
)
from splithygiene import corpus, experiments, kgstore, qlang, synthesis
from splithygiene.errors import AdjacentSlots, UnlocatableEntity
from splithygiene.qlang import Iri, NlqPattern, Placeholder, match_nlq, parse_query, serialize
from references import ref_bind_placeholders, ref_concrete_predicates, ref_eval, ref_read_back

DBR = "http://dbpedia.org/resource/"
DBO_INDUSTRY = "http://dbpedia.org/ontology/industry"


# ---------------------------------------------------------------------------
# extract_template
# ---------------------------------------------------------------------------

def test_extract_template_from_seed(pizza_seed, industry_template):
    t = industry_template
    assert t.nlq_pattern == NlqPattern.from_text(INDUSTRY_TEMPLATE_NLQ)
    assert t.query_pattern.form == qlang.ASK
    assert t.query_pattern.patterns == (
        (Placeholder("B"), Iri(DBO_INDUSTRY), Placeholder("A")),
    )
    assert t.placeholder_labels == ("A", "B")
    assert t.origin_seed_id == pizza_seed.id


def test_extract_template_locates_iri_by_label_convention():
    pair = corpus.QAPair.from_text(
        "is robot comics in the publishing industry ?", COMICS_INSTANCE_QUERY)
    seed = corpus.Seed(id="s", pair=pair, surface_forms={"B": corpus.SurfaceForm(1, 3)})
    t = synthesis.extract_template(seed)
    assert t.query_pattern.patterns[0][0] == Placeholder("B")


def test_extract_template_locates_an_iri_whose_label_tokenizes_its_punctuation():
    # "Oslo_Jr." is labelled "oslo jr.", which the question tokenizer reads as "oslo jr ."
    iri = "http://toy.example.org/resource/Oslo_Jr."
    pair = corpus.QAPair.from_text("is delta forge based in oslo jr. ?", f"ASK WHERE {{ <e:df> <p:hq> <{iri}> }}")
    assert pair.nlq[5:8] == ("oslo", "jr", ".")
    seed = corpus.Seed(id="s", pair=pair, surface_forms={"A": corpus.SurfaceForm(5, 8)})
    t = synthesis.extract_template(seed)
    assert t.query_pattern.patterns[0][2] == Placeholder("A")
    assert [str(e) for e in t.nlq_pattern.elements] == ["is", "delta", "forge", "based", "in", "<A>", "?"]


def test_extract_template_zero_slots_keeps_pair():
    pair = corpus.QAPair.from_text("is this fixed ?", "ASK WHERE { <e:s> <p:p> <e:o> }")
    seed = corpus.Seed(id="s", pair=pair, surface_forms={})
    t = synthesis.extract_template(seed)
    assert t.placeholder_labels == ()
    assert t.query_pattern == pair.query_ast
    assert [e.token for e in t.nlq_pattern.elements] == list(pair.nlq)


def test_extract_template_unlocatable_entity():
    pair = corpus.QAPair.from_text("is something else here ?", "ASK WHERE { <e:s> <p:p> <e:o> }")
    seed = corpus.Seed(id="s", pair=pair, surface_forms={"A": corpus.SurfaceForm(1, 2)})
    with pytest.raises(UnlocatableEntity):
        synthesis.extract_template(seed)


def test_extract_template_adjacent_slots():
    pair = corpus.QAPair.from_text(
        "is robot comics publishing here ?",
        f"ASK WHERE {{ <{DBR}Robot_Comics> <p:p> <{DBR}Publishing> }}")
    seed = corpus.Seed(id="s", pair=pair, surface_forms={
        "B": corpus.SurfaceForm(1, 3), "A": corpus.SurfaceForm(3, 4)})
    with pytest.raises(AdjacentSlots):
        synthesis.extract_template(seed)


def test_entity_label():
    assert synthesis.entity_label(f"{DBR}Robot_Comics") == "robot comics"
    assert synthesis.entity_label("http://x.org/onto#Some_Thing") == "some thing"


# ---------------------------------------------------------------------------
# derive_binding_query
# ---------------------------------------------------------------------------

def test_binding_query_matches_printed_select_form(industry_template):
    binding = synthesis.derive_binding_query(industry_template)
    assert binding == parse_query(INDUSTRY_TEMPLATE_QUERY)
    assert serialize(binding) == (
        "SELECT DISTINCT ?a, ?b WHERE "
        f"{{ ?b <{DBO_INDUSTRY}> ?a }}")


def test_binding_query_zero_slots_unchanged():
    pair = corpus.QAPair.from_text("fixed thing ?", "ASK WHERE { <e:s> <p:p> <e:o> }")
    t = synthesis.extract_template(corpus.Seed(id="s", pair=pair, surface_forms={}))
    assert synthesis.derive_binding_query(t) == t.query_pattern


def test_binding_query_two_slots_two_triples():
    t = synthesis.Template(
        id="t",
        nlq_pattern=NlqPattern.from_text("who links <A> with <B> ?"),
        query_pattern=parse_query(
            "ASK WHERE { <Placeholder:A> <p:p> ?x . ?x <p:q> <Placeholder:B> }"),
        origin_seed_id="s",
    )
    binding = synthesis.derive_binding_query(t)
    assert binding.form == qlang.SELECT_DISTINCT
    assert binding.select_vars == ("a", "b")
    assert len(binding.patterns) == 2


def test_binding_query_variable_collision_rejected():
    t = synthesis.Template(
        id="t",
        nlq_pattern=NlqPattern.from_text("who links <A> here ?"),
        query_pattern=parse_query("ASK WHERE { <Placeholder:A> <p:p> ?a }"),
        origin_seed_id="s",
    )
    with pytest.raises(ValueError):
        synthesis.derive_binding_query(t)


# ---------------------------------------------------------------------------
# generate_instances
# ---------------------------------------------------------------------------

def test_generate_reproduces_table_instance(industry_template):
    graph = kgstore.Graph([(f"{DBR}Robot_Comics", DBO_INDUSTRY, f"{DBR}Publishing")])
    (inst,) = synthesis.generate_instances(industry_template, graph, limit=5, rng_seed=1)
    assert inst.pair.nlq == qlang.tokenize_nlq(COMICS_INSTANCE_NLQ)
    assert inst.pair.query_ast == parse_query(COMICS_INSTANCE_QUERY)
    assert inst.origin_template_id == industry_template.id


def test_generate_limit_zero(industry_template):
    graph = kgstore.Graph([(f"{DBR}Robot_Comics", DBO_INDUSTRY, f"{DBR}Publishing")])
    assert synthesis.generate_instances(industry_template, graph, 0, 1) == []


def test_generate_emits_every_row_when_limit_allows(industry_template):
    triples = [(f"{DBR}Company_{i}", DBO_INDUSTRY, f"{DBR}Industry_{i % 3}") for i in range(9)]
    graph = kgstore.Graph(triples)
    expected_rows = ref_eval(triples, synthesis.derive_binding_query(industry_template))
    instances = synthesis.generate_instances(industry_template, graph, limit=50, rng_seed=3)
    assert len(instances) == len(expected_rows) == 9
    assert len({i.pair.query_text for i in instances}) == 9


def test_generate_deterministic(industry_template):
    triples = [(f"{DBR}Company_{i}", DBO_INDUSTRY, f"{DBR}Industry_{i}") for i in range(20)]
    graph = kgstore.Graph(triples)
    a = synthesis.generate_instances(industry_template, graph, 5, rng_seed=9)
    b = synthesis.generate_instances(industry_template, graph, 5, rng_seed=9)
    assert a == b
    c = synthesis.generate_instances(industry_template, graph, 5, rng_seed=10)
    assert [i.pair for i in c] != [i.pair for i in a]


def test_generate_drops_rows_binding_an_entity_labelled_by_no_token(industry_template):
    # the first four local names label as "" or as underscores only; "_x_" labels as "x"
    empty = [f"{DBR}", f"{DBR}__", "e:thing#", "e:thing#_"]
    triples = [(subject, DBO_INDUSTRY, f"{DBR}Pizza") for subject in empty + [f"{DBR}_x_", f"{DBR}Ok"]]
    instances = synthesis.generate_instances(industry_template, kgstore.Graph(triples), 50, rng_seed=3)
    assert sorted(inst.pair.nlq for inst in instances) == [
        ("is", "ok", "in", "the", "pizza", "industry", "?"),
        ("is", "x", "in", "the", "pizza", "industry", "?"),
    ]


def test_generate_zero_slot_template_checks_graph():
    hit = kgstore.Graph([("e:s", "p:p", "e:o"), ("e:s", "p:p", "e:m"), ("e:m", "p:q", "e:o"), ("e:o", "p:q", "e:o")])
    miss = kgstore.Graph([("e:s", "p:p", "e:other")])
    for nlq, query in (
        ("fixed thing ?", "ASK WHERE { <e:s> <p:p> <e:o> }"),
        ("what does it touch ?", "SELECT DISTINCT ?x WHERE { <e:s> <p:p> ?x . ?x <p:q> <e:o> }"),
    ):
        pair = corpus.QAPair.from_text(nlq, query)
        t = synthesis.extract_template(corpus.Seed(id="s", pair=pair, surface_forms={}))
        [inst] = synthesis.generate_instances(t, hit, 5, 1)
        assert inst.id == "t-s-0"
        assert inst.pair.nlq == tuple(nlq.split())
        assert inst.pair.query_text == serialize(t.query_pattern) == query
        assert inst.origin_template_id == "t-s"
        assert synthesis.generate_instances(t, miss, 5, 1) == []


def test_generated_questions_read_back_unchanged(tmp_path, toy_config):
    # a label with trailing punctuation: generation tokenizes it as the corpus reader will
    kg = tmp_path / "toy.nt"
    kg.write_text(toy_config.resolved_kg_path().read_text(encoding="utf-8").replace("/Oslo>", "/Oslo_Jr.>"),
                  encoding="utf-8")
    _, templates, _ = experiments.extract_stage(toy_config.resolved_seeds_path())
    instances, _ = experiments.generate_stage(templates, kgstore.load_ntriples(kg), toy_config.instance_limit,
                                              toy_config.rng_seeds[0])
    assert sum("jr" in inst.pair.nlq for inst in instances) >= 10
    corpus.write_parallel(tmp_path, "c", instances)
    read = corpus.read_parallel(tmp_path / "c.nlq", tmp_path / "c.ql")
    assert [(i.pair.nlq, i.pair.query_ast) for i in read] == [(i.pair.nlq, i.pair.query_ast) for i in instances]


def test_generated_instances_invert_and_hold(toy_data, toy_config):
    """Slot-matching the origin pattern recovers the substituted labels, and
    every generated query still holds on the generating graph."""
    graph = kgstore.load_ntriples(toy_config.resolved_kg_path())
    by_id = {t.id: t for t in toy_data.templates}
    for inst in toy_data.instances[::7]:
        template = by_id[inst.origin_template_id]
        bindings = match_nlq(template.nlq_pattern, inst.pair.nlq)
        assert bindings is not None
        rebuilt = qlang.substitute_slots(
            template.nlq_pattern,
            {label: qlang.span_tokens(inst.pair.nlq, span) for label, span in bindings.items()},
        )
        assert rebuilt == inst.pair.nlq
        result = kgstore.evaluate(graph, inst.pair.query_ast)
        assert result is True or (not isinstance(result, bool) and result)


def _assert_forms_equal_the_reference_binder(templates, graph) -> int:
    """Every binding row of every template: the compiled text and predicates equal the term-by-term
    rebuild's, and matching the text reads back the reference read-back of the rebuild."""
    checked = 0
    for template in templates:
        form = template.query_form
        rows = (kgstore.evaluate(graph, synthesis.derive_binding_query(template)) if template.placeholder_labels
                else [{}])
        for row in rows:
            expected = ref_bind_placeholders(template, row)
            assert form.fill(row) == serialize(expected)
            assert form.fill_predicates(row) == tuple(qlang.extract_predicates(expected))
            assert form.match(form.fill(row)) == ref_read_back(template, expected)
            checked += 1
    return checked


def test_query_form_equals_the_reference_binder_on_the_toy_and_4x_worlds(toy_data, toy_config, scaled_world):
    config, data = scaled_world
    for templates, kg_path, rows in ((toy_data.templates, toy_config.resolved_kg_path(), 3_000),
                                     (data.templates, config.resolved_kg_path(), 16_000)):
        assert _assert_forms_equal_the_reference_binder(templates, kgstore.load_ntriples(kg_path)) > rows


def test_query_form_fills_repeated_predicate_and_prefix_labelled_placeholders():
    query = parse_query("SELECT DISTINCT ?x WHERE { <Placeholder:A> <Placeholder:A1> ?x . ?x <p:q> <Placeholder:A> . "
                        "<Placeholder:A1> <p:r> <e:o> }")
    template = synthesis.Template("t", NlqPattern.from_text("is <A> or <A1> ?"), query, "s")
    row = {"a": "e:one", "a1": "e:two"}
    expected = ref_bind_placeholders(template, row)
    assert template.query_form.fill(row) == serialize(expected) == (
        "SELECT DISTINCT ?x WHERE { <e:one> <e:two> ?x . ?x <p:q> <e:one> . <e:two> <p:r> <e:o> }")
    assert template.query_form.fill_predicates(row) == ("e:two", "p:q", "p:r")
    assert template.query_form.match(template.query_form.fill(row)) == {"A": "e:one", "A1": "e:two"}
    # a placeholder's two places must hold one IRI
    assert template.query_form.match(template.query_form.fill(row).replace("<e:one> <e:two> ?x", "<e:o> <e:two> ?x")) \
        is None


def test_generate_tokenizes_one_label_per_iri_and_holds_no_ast_until_asked(industry_template):
    graph = kgstore.Graph([(f"{DBR}Robot_Comics", DBO_INDUSTRY, f"{DBR}Publishing"),
                           (f"{DBR}Tiger_Aircraft", DBO_INDUSTRY, f"{DBR}Publishing")])
    entities: dict = {}
    other = synthesis.Template("t-other", NlqPattern.from_text("what does <B> make in <A> ?"),
                               industry_template.query_pattern, "s")
    instances = [inst for template in (industry_template, other)
                 for inst in synthesis.generate_instances(template, graph, 5, 1, entities)]
    assert len(instances) == 4 and sorted(entities) == [f"{DBR}{n}" for n in ("Publishing", "Robot_Comics",
                                                                               "Tiger_Aircraft")]
    assert entities[f"{DBR}Robot_Comics"] == ("robot", "comics")
    assert not any(hasattr(obj, "__dict__") for inst in instances for obj in (inst, inst.pair))
    # one predicates tuple per template, shared by its rows
    assert {id(inst.pair.predicates) for inst in instances} == {id(t.query_form.predicates)
                                                                for t in (industry_template, other)}
    for inst in instances:
        assert inst.pair.query_ast == inst.pair.query_ast == parse_query(inst.pair.query_text)
        assert inst.pair.predicates == tuple(qlang.extract_predicates(inst.pair.query_ast)) == (DBO_INDUSTRY,)


def test_generate_instantiates_a_5000_pattern_template():
    n = 5000
    body = " . ".join(f"<Placeholder:A> <p:{i}> <e:o{i}>" for i in range(n))
    template = synthesis.Template("t", NlqPattern.from_text("is <A> everywhere ?"),
                                  parse_query(f"ASK WHERE {{ {body} }}"), "s")
    graph = kgstore.Graph([(s, f"p:{i}", f"e:o{i}") for i in range(n) for s in ("e:Here", "e:There")])
    instances = synthesis.generate_instances(template, graph, 10, 1)
    assert sorted(inst.pair.nlq for inst in instances) == [("is", "e:here", "everywhere", "?"),
                                                           ("is", "e:there", "everywhere", "?")]
    for inst in instances:
        assert inst.pair.query_ast == parse_query(inst.pair.query_text)
        assert len(inst.pair.query_ast.patterns) == n


# ---------------------------------------------------------------------------
# template de-duplication / templates.jsonl
# ---------------------------------------------------------------------------

def test_dedup_templates(tmp_path, industry_template):
    # another seed whose question and query patterns are the pizza seed's
    records = [("pizza-seed", PIZZA_SEED_NLQ, PIZZA_SEED_QUERY, [6, 7], [1, 4]),
               ("comics-seed", COMICS_INSTANCE_NLQ, COMICS_INSTANCE_QUERY, [5, 6], [1, 3])]
    (tmp_path / "seeds.jsonl").write_text("".join(
        json.dumps({"id": i, "nlq": nlq, "query": query, "surface_forms": {"A": {"span": a}, "B": {"span": b}}}) + "\n"
        for i, nlq, query, a, b in records), encoding="utf-8")
    seeds, templates, removed = experiments.extract_stage(tmp_path / "seeds.jsonl")
    assert [s.id for s in seeds] == ["pizza-seed", "comics-seed"]
    assert templates == [industry_template]
    assert removed == {"seeds": 0, "templates": 1}


def test_template_predicates_skip_placeholder_predicates(industry_template):
    query = parse_query("ASK WHERE { <Placeholder:A> <p:q> <e:o> . <e:o> <Placeholder:B> <e:x> . "
                        "<e:x> <p:r> <Placeholder:B> . <e:y> <p:q> <e:z> }")
    template = synthesis.Template("t", NlqPattern.from_text("is <A> or <B> ?"), query, "s")
    assert template.predicates == ("p:q", "p:r", "p:q")
    assert list(template.predicates) == ref_concrete_predicates(query)
    assert industry_template.predicates == (DBO_INDUSTRY,)


def test_template_placeholder_labels_are_the_sorted_slot_labels():
    query = parse_query("ASK WHERE { <Placeholder:B> <p:p> ?x . ?x <p:q> <Placeholder:A> }")
    template = synthesis.Template("t", NlqPattern.from_text("who links <B> with <A> ?"), query, "s")
    assert template.placeholder_labels == ("A", "B")
    assert synthesis.derive_binding_query(template).select_vars == ("a", "b")
    with pytest.raises(TypeError):
        dataclasses.replace(template, placeholder_labels=("B", "A"))
    with pytest.raises(ValueError, match="NLQ and query disagree on labels"):
        synthesis.Template("t", NlqPattern.from_text("who links <B> here ?"), query, "s")


def test_templates_jsonl_round_trip(tmp_path, industry_template, toy_data):
    path = tmp_path / "templates.jsonl"
    templates = [industry_template] + list(toy_data.templates[:5])
    synthesis.write_templates(path, templates)
    back = synthesis.read_templates(path)
    assert [t.id for t in back] == [t.id for t in templates]
    assert [t.nlq_pattern for t in back] == [t.nlq_pattern for t in templates]
    assert [t.query_pattern for t in back] == [t.query_pattern for t in templates]
