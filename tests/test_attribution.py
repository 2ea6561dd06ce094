from __future__ import annotations

import random

from conftest import (
    AIRCRAFT_INSTANCE_NLQ,
    AIRCRAFT_INSTANCE_QUERY,
    make_instance,
    random_corpus,
)
from splithygiene import attribution, corpus, synthesis
from splithygiene.qlang import NlqPattern, parse_query

DBR = "http://dbpedia.org/resource/"


def _template(tid, nlq, query):
    ast = parse_query(query)
    return synthesis.Template(
        id=tid,
        nlq_pattern=NlqPattern.from_text(nlq),
        query_pattern=ast,
        origin_seed_id=f"seed-{tid}",
        placeholder_labels=tuple(sorted(ast.placeholder_labels())),
    )


# ---------------------------------------------------------------------------
# template_matches_seed
# ---------------------------------------------------------------------------

def test_template_matches_its_seed(pizza_seed, industry_template):
    assert attribution.template_matches_seed(industry_template, pizza_seed)


def test_template_mismatched_predicate(pizza_seed):
    t = _template(
        "t-founder", "is <B> in the <A> industry ?",
        "ASK WHERE { <Placeholder:B> <http://dbpedia.org/ontology/founder> <Placeholder:A> }")
    assert not attribution.template_matches_seed(t, pizza_seed)


def test_template_mismatched_wording(pizza_seed):
    t = _template(
        "t-words", "is <B> within the <A> industry ?",
        "ASK WHERE { <Placeholder:B> <http://dbpedia.org/ontology/industry> <Placeholder:A> }")
    assert not attribution.template_matches_seed(t, pizza_seed)


def test_placeholder_predicates_are_skipped_in_seed_matching(pizza_seed):
    t = _template(
        "t-ph-pred", "is <B> in the <A> industry ?",
        "ASK WHERE { <Placeholder:B> <Placeholder:A> <e:Anything> }")
    # with the placeholder-predicate pattern skipped, both predicate lists
    # would have to be empty; the seed has one predicate, so no match
    assert not attribution.template_matches_seed(t, pizza_seed)


# ---------------------------------------------------------------------------
# attribute_instance
# ---------------------------------------------------------------------------

def test_attribute_instance_to_its_template(industry_template):
    inst = make_instance("i2", AIRCRAFT_INSTANCE_NLQ, AIRCRAFT_INSTANCE_QUERY)
    assert attribution.attribute_instance(inst, [industry_template]) == [industry_template.id]


def test_attribute_against_empty_template_set():
    inst = make_instance("i", "is this here ?", "ASK WHERE { <e:s> <p:p> <e:o> }")
    assert attribution.attribute_instance(inst, []) == []


def test_attribution_recovers_origin_for_generated_corpus(toy_data):
    for inst in toy_data.instances:
        assert inst.origin_template_id in toy_data.index.attributed(inst.id)


def test_attribution_sorted_by_template_id(industry_template):
    import dataclasses
    twin = dataclasses.replace(industry_template, id="a-first")
    inst = make_instance("i2", AIRCRAFT_INSTANCE_NLQ, AIRCRAFT_INSTANCE_QUERY)
    assert attribution.attribute_instance(inst, [industry_template, twin]) == [
        "a-first", industry_template.id]


def test_attribution_monotone_under_more_templates(toy_data):
    rnd = random.Random(5)
    some = rnd.sample(list(toy_data.templates), 10)
    more = some + [t for t in toy_data.templates if t not in some][:10]
    for inst in toy_data.instances[::101]:
        before = set(attribution.attribute_instance(inst, some))
        after = set(attribution.attribute_instance(inst, more))
        assert before <= after


# ---------------------------------------------------------------------------
# build_index
# ---------------------------------------------------------------------------

def test_index_single_instance(industry_template):
    inst = make_instance("i2", AIRCRAFT_INSTANCE_NLQ, AIRCRAFT_INSTANCE_QUERY)
    index = attribution.build_index([inst], [industry_template])
    assert index.attributed("i2") == (industry_template.id,)
    assert index.counts == {industry_template.id: 1}
    assert index.ambiguous_ids == frozenset()


def test_index_flags_ambiguous_instances(industry_template):
    import dataclasses
    twin = dataclasses.replace(industry_template, id="twin")
    inst = make_instance("i2", AIRCRAFT_INSTANCE_NLQ, AIRCRAFT_INSTANCE_QUERY)
    index = attribution.build_index([inst], [industry_template, twin])
    assert index.ambiguous_ids == frozenset({"i2"})


def test_index_counts_match_brute_force_recount(toy_data):
    recount = {t.id: 0 for t in toy_data.templates}
    for inst in toy_data.instances:
        for t in toy_data.templates:
            if t.id in attribution.attribute_instance(inst, [t]):
                recount[t.id] += 1
    assert recount == toy_data.index.counts


def test_index_equals_per_instance_attribution_on_random_corpora():
    rnd = random.Random(31)
    for _ in range(5):
        _, templates, instances, index = random_corpus(rnd)
        for inst in instances:
            assert index.attributed(inst.id) == tuple(
                attribution.attribute_instance(inst, templates))


# ---------------------------------------------------------------------------
# attribution.tsv
# ---------------------------------------------------------------------------

def test_attribution_tsv_round_trip(tmp_path, toy_data):
    path = tmp_path / "attribution.tsv"
    instances = toy_data.instances[:50]
    attribution.write_attribution(path, instances, toy_data.index)
    back = attribution.read_attribution(path)
    assert back == {i.id: toy_data.index.attributed(i.id) for i in instances}


def test_attribution_tsv_empty_field_for_unattributed(tmp_path, industry_template):
    inst = make_instance("lonely", "nothing matches this ?", "ASK WHERE { <e:s> <p:q> <e:o> }")
    index = attribution.build_index([inst], [industry_template])
    attribution.write_attribution(tmp_path / "a.tsv", [inst], index)
    assert (tmp_path / "a.tsv").read_text() == "lonely\t\n"
    assert attribution.read_attribution(tmp_path / "a.tsv") == {"lonely": ()}
