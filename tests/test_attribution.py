from __future__ import annotations

import dataclasses
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    AIRCRAFT_INSTANCE_NLQ,
    AIRCRAFT_INSTANCE_QUERY,
    COMICS_INSTANCE_NLQ,
    make_instance,
    random_corpus,
)
from references import ref_attribute_instance, ref_template_matches_seed
from splithygiene import attribution, corpus, experiments, partitioner, qlang, synthesis
from splithygiene.errors import PatternError, PlaceholderPredicate
from splithygiene.qlang import Iri, NlqPattern, Placeholder, QueryAst, Slot, Word, match_nlq, parse_query

DBR = "http://dbpedia.org/resource/"


def _template(tid, nlq, query):
    return synthesis.Template(
        id=tid,
        nlq_pattern=NlqPattern.from_text(nlq),
        query_pattern=parse_query(query),
        origin_seed_id=f"seed-{tid}",
    )


# ---------------------------------------------------------------------------
# the seed rule (the template-split oracle)
# ---------------------------------------------------------------------------

def test_template_matches_its_seed(pizza_seed, industry_template):
    assert ref_template_matches_seed(industry_template, pizza_seed)


def test_template_mismatched_predicate(pizza_seed):
    t = _template(
        "t-founder", "is <B> in the <A> industry ?",
        "ASK WHERE { <Placeholder:B> <http://dbpedia.org/ontology/founder> <Placeholder:A> }")
    assert not ref_template_matches_seed(t, pizza_seed)


def test_template_mismatched_wording(pizza_seed):
    t = _template(
        "t-words", "is <B> within the <A> industry ?",
        "ASK WHERE { <Placeholder:B> <http://dbpedia.org/ontology/industry> <Placeholder:A> }")
    assert not ref_template_matches_seed(t, pizza_seed)


def test_placeholder_predicates_are_skipped_in_seed_matching(pizza_seed):
    t = _template(
        "t-ph-pred", "is <B> in the <A> industry ?",
        "ASK WHERE { <Placeholder:B> <Placeholder:A> <e:Anything> }")
    # with the placeholder-predicate pattern skipped, both predicate lists
    # would have to be empty; the seed has one predicate, so no match
    assert not ref_template_matches_seed(t, pizza_seed)


# ---------------------------------------------------------------------------
# attributing one instance
# ---------------------------------------------------------------------------

def _attributed(inst, templates) -> tuple[str, ...]:
    return attribution.build_index([inst], templates).attributed(inst.id)


def test_attribute_instance_to_its_template(industry_template):
    inst = make_instance("i2", AIRCRAFT_INSTANCE_NLQ, AIRCRAFT_INSTANCE_QUERY)
    assert _attributed(inst, [industry_template]) == (industry_template.id,)


def test_attribute_against_empty_template_set():
    inst = make_instance("i", "is this here ?", "ASK WHERE { <e:s> <p:p> <e:o> }")
    assert _attributed(inst, []) == ()


def test_attribution_recovers_origin_for_generated_corpus(toy_data):
    for inst in toy_data.instances:
        assert inst.origin_template_id in toy_data.index.attributed(inst.id)


def test_attribution_sorted_by_template_id(industry_template):
    import dataclasses
    twin = dataclasses.replace(industry_template, id="a-first")
    inst = make_instance("i2", AIRCRAFT_INSTANCE_NLQ, AIRCRAFT_INSTANCE_QUERY)
    assert _attributed(inst, [industry_template, twin]) == ("a-first", industry_template.id)


def test_attribution_monotone_under_more_templates(toy_data):
    rnd = random.Random(5)
    some = rnd.sample(list(toy_data.templates), 10)
    more = some + [t for t in toy_data.templates if t not in some][:10]
    for inst in toy_data.instances[::101]:
        before = set(_attributed(inst, some))
        after = set(_attributed(inst, more))
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
            if t.id in _attributed(inst, [t]):
                recount[t.id] += 1
    assert recount == toy_data.index.counts


def test_index_equals_per_instance_attribution_on_random_corpora():
    rnd = random.Random(31)
    for _ in range(5):
        _, templates, instances, index = random_corpus(rnd)
        for inst in instances:
            assert index.attributed(inst.id) == _attributed(inst, templates)


# ---------------------------------------------------------------------------
# attribution.tsv
# ---------------------------------------------------------------------------

def test_attribution_tsv_round_trip(tmp_path, toy_data):
    path = tmp_path / "attribution.tsv"
    instances = toy_data.instances[:50]
    attribution.write_attribution(path, instances, toy_data.index)
    back = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        instance_id, joined = line.split("\t")
        back[instance_id] = tuple(joined.split(",")) if joined else ()
    assert back == {i.id: toy_data.index.attributed(i.id) for i in instances}


def test_attribution_tsv_empty_field_for_unattributed(tmp_path, industry_template):
    inst = make_instance("lonely", "nothing matches this ?", "ASK WHERE { <e:s> <p:q> <e:o> }")
    index = attribution.build_index([inst], [industry_template])
    attribution.write_attribution(tmp_path / "a.tsv", [inst], index)
    assert (tmp_path / "a.tsv").read_text() == "lonely\t\n"


# ---------------------------------------------------------------------------
# pre-filtered index against the unfiltered reference loop
# ---------------------------------------------------------------------------

_POOL = ["alpha", "beta", "gamma", "delta", "omega", "sigma", "kappa", "theta", "zeta"]


def _assert_index_equals_reference(instances, templates):
    index = attribution.build_index(instances, templates)
    expected = {inst.id: tuple(ref_attribute_instance(inst, templates)) for inst in instances}
    assert index.by_instance == expected
    counts = {t.id: 0 for t in templates}
    for tids in expected.values():
        for tid in tids:
            counts[tid] += 1
    assert index.counts == counts
    assert index.ambiguous_ids == frozenset(i for i, tids in expected.items() if len(tids) >= 2)
    return expected


def _word_positions(pattern, nlq) -> dict[int, int]:
    """Element index -> question position of each literal word, under the pattern's match."""
    bindings = match_nlq(pattern, nlq)
    out, pos = {}, 0
    for e, el in enumerate(pattern.elements):
        if isinstance(el, Word):
            out[e] = pos
            pos += 1
        else:
            pos = bindings[el.label][1]
    return out


def _with_elements(template, tid, elements):
    return dataclasses.replace(template, id=tid, nlq_pattern=NlqPattern(tuple(elements)))


def _with_patterns(template, tid, patterns):
    query = QueryAst(template.query_pattern.form, template.query_pattern.select_vars, tuple(patterns))
    return dataclasses.replace(template, id=tid, query_pattern=query)


def _adversaries(rnd, template, inst, tid):
    """(kind, template, target instance) cases built from a template and an instance it generated.

    The near-miss, repeated-word, wrong-order and predicate-order cases pass
    one or both pre-filters and are meant to fail at the target; the case
    and placeholder-predicate cases are meant to be attributed to it.
    """
    elements = list(template.nlq_pattern.elements)
    words = [e for e, el in enumerate(elements) if isinstance(el, Word)]
    e = rnd.choice(words)
    token = elements[e].token
    out = []
    # near miss: one literal word changed, the new word often elsewhere in the question
    near = elements.copy()
    near[e] = Word(rnd.choice([w for w in _POOL if w != token.casefold()]))
    out.append(("near_miss", _with_elements(template, f"{tid}-near", near), inst))
    # case variant of one word; the straße/STRASSE pair also rewrites the question token
    variant = rnd.choice(["upper", "title", "strasse"])
    cased = elements.copy()
    target = inst
    if variant == "strasse":
        template_form, question_form = rnd.choice([("STRASSE", "straße"), ("straße", "STRASSE"),
                                                   ("Straße", "strasse")])
        cased[e] = Word(template_form)
        nlq = list(inst.nlq)
        nlq[_word_positions(template.nlq_pattern, inst.nlq)[e]] = question_form
        target = dataclasses.replace(inst, id=f"{inst.id}-{tid}", nlq=tuple(nlq))
    else:
        cased[e] = Word(token.upper() if variant == "upper" else token.title())
    out.append((variant, _with_elements(template, f"{tid}-case", cased), target))
    # a literal word repeated: same word set, one more token to match
    repeated = elements[:e + 1] + [Word(token)] + elements[e + 1:]
    out.append(("repeated", _with_elements(template, f"{tid}-rep", repeated), inst))
    # two different literal words swapped: same word set, wrong order
    distinct = [w for w in words if elements[w].token != token]
    if distinct:
        f = rnd.choice(distinct)
        swapped = elements.copy()
        swapped[e], swapped[f] = elements[f], elements[e]
        out.append(("wrong_order", _with_elements(template, f"{tid}-swap", swapped), inst))
    # the query's triple patterns reversed: same predicates, other order
    patterns = template.query_pattern.patterns
    preds = template.predicates
    if preds != preds[::-1]:
        out.append(("preds_out_of_order", _with_patterns(template, f"{tid}-rev", patterns[::-1]), inst))
    # the only predicate a placeholder: no concrete predicate to test
    labels = template.nlq_pattern.labels
    other = Placeholder(labels[1]) if len(labels) > 1 else Iri("http://rand.example.org/e0")
    lone = (Iri("http://rand.example.org/e1"), Placeholder(labels[0]), other)
    out.append(("placeholder_predicate", _with_patterns(template, f"{tid}-ph", [lone]), inst))
    return out


def test_index_equals_unfiltered_reference_on_random_corpora():
    fail_kinds = ("near_miss", "repeated", "wrong_order", "preds_out_of_order")
    seen = dict.fromkeys(fail_kinds + ("case_variant", "strasse", "placeholder_predicate"), 0)
    for case in range(500):
        rnd = random.Random(case)
        _, templates, instances, index = random_corpus(rnd)
        by_id = {t.id: t for t in templates}
        pairs = [(tid, inst) for inst in instances for tid in index.attributed(inst.id)]
        cases = []
        for n, (tid, inst) in enumerate(rnd.sample(pairs, min(4, len(pairs)))):
            cases += _adversaries(rnd, by_id[tid], inst, f"adv{n}")
        extra = [target for _, _, target in cases if target not in instances]
        result = _assert_index_equals_reference(instances + extra, templates + [t for _, t, _ in cases])
        for kind, template, target in cases:
            attributed = template.id in result[target.id]
            if kind in fail_kinds:
                seen[kind] += not attributed
            elif kind == "placeholder_predicate":
                seen[kind] += attributed
            else:
                seen["case_variant"] += attributed
                seen["strasse"] += attributed and kind == "strasse"
    assert min(seen.values()) >= 20, seen


def test_index_equals_unfiltered_reference_on_default_toy_data(toy_data):
    _assert_index_equals_reference(toy_data.instances, toy_data.templates)


def _counted_matcher(monkeypatch) -> list[int]:
    """Count the matcher calls made through attribution from now on, in the returned one-item list."""
    calls = [0]

    def counted(pattern, nlq):
        calls[0] += 1
        return match_nlq(pattern, nlq)

    monkeypatch.setattr(attribution, "match_nlq", counted)
    return calls


def test_index_equals_unfiltered_reference_on_scaled_world(scaled_world, monkeypatch):
    _, data = scaled_world
    assert len(data.instances) > 15_000
    calls = _counted_matcher(monkeypatch)
    _assert_index_equals_reference(data.instances, data.templates)
    # 16,407 questions have 68 skeletons; the matcher runs on each one's pre-filtered templates
    assert 0 < calls[0] <= 100


def test_prefilter_keeps_matcher_calls_few_on_default_toy_data(toy_data, monkeypatch):
    calls = _counted_matcher(monkeypatch)
    index = attribution.build_index(toy_data.instances, toy_data.templates)
    assert index.by_instance == toy_data.index.by_instance
    # every toy instance times every template is 157,248 pairs; the pre-filter left ~4,200,
    # and matching once per question skeleton (84 of them) leaves ~110
    assert 0 < calls[0] <= 150



def test_split_templates_makes_no_matcher_call_on_default_toy_data(toy_data, toy_config, monkeypatch):
    # every toy seed question's skeleton is already in the corpus's match table
    index = attribution.build_index(toy_data.instances, toy_data.templates)
    seed_test = experiments.seed_split_ids(toy_data, toy_config)
    calls = _counted_matcher(monkeypatch)
    tsplit = partitioner.split_templates(index, toy_data.seeds, seed_test)
    assert calls[0] == 0
    assert set(index.templates) - tsplit.test_template_ids and tsplit.test_template_ids


def test_a_whole_exp1_calls_the_matcher_only_to_build_the_index(toy_config, tmp_path, monkeypatch):
    calls = _counted_matcher(monkeypatch)
    experiments.run_experiment("exp1", dataclasses.replace(toy_config, workdir=str(tmp_path)))
    # one call per (skeleton, template passing the word test) of the corpus; splitting and prediction add none
    assert calls[0] == 108


# pattern words whose case-fold differs from their lowercase ("ß" folds to "ss"), a digraph with a
# title case, and a slot marker's spelling; the question tokens add their case variants and entity words
_TABLE_WORDS = ["is", "the", "ss", "ß", "strasse", "ǆ", "of", "<a>"]
_TABLE_TOKENS = _TABLE_WORDS + ["STRASSE", "Straße", "SS", "ǅ", "Ǆ", "IS", "<A>", "<B>", "rook", "otter"]


def _table_pattern(elements):
    try:
        return NlqPattern(tuple(elements))
    except PatternError:
        return None


_TABLE_PATTERNS = st.lists(st.one_of(st.sampled_from(_TABLE_WORDS).map(Word), st.sampled_from("AB").map(Slot)),
                           min_size=1, max_size=5).map(_table_pattern).filter(lambda p: p is not None)


@settings(max_examples=300, deadline=None)
@given(patterns=st.lists(_TABLE_PATTERNS, min_size=1, max_size=6),
       questions=st.lists(st.lists(st.sampled_from(_TABLE_TOKENS), max_size=5).map(tuple), min_size=1, max_size=20))
def test_the_match_table_equals_the_matcher(patterns, questions):
    templates = [SimpleNamespace(id=f"t{i}", nlq_pattern=p) for i, p in enumerate(patterns)]
    # short questions over few tokens repeat skeletons, often with template words inside the slot
    # spans; case variants repeat them with other tokens, and either order may fill the table first
    questions += [tuple(t.upper() for t in q) for q in questions] + [tuple(t.casefold() for t in q) for q in questions]
    for order in (questions, questions[::-1]):
        matches = attribution.nlq_matcher(templates)
        for question in order + order:
            assert matches(question) == tuple(attribution.nlq_matches(templates, question)), question


def test_the_match_table_matches_once_per_skeleton(industry_template, monkeypatch):
    calls = _counted_matcher(monkeypatch)
    matches = attribution.nlq_matcher([industry_template])
    comics, aircraft = qlang.tokenize_nlq(COMICS_INSTANCE_NLQ), qlang.tokenize_nlq(AIRCRAFT_INSTANCE_NLQ)
    # one skeleton: the entity words are no template's words; "IS" case-folds to the word "is"
    for question in (comics, aircraft, ("IS",) + comics[1:]):
        assert matches(question) == tuple(attribution.nlq_matches([industry_template], question))
    assert calls[0] == 4  # one for the table, three for the direct calls
    assert matches(comics)[0][1] == {"B": (1, 3), "A": (5, 6)}
    assert matches(("is", "in", "the", "industry", "?")) == ()


def test_placeholder_predicate_instance_raises_even_when_no_template_words_match(industry_template):
    inst = make_instance("ph", "nothing like it here ?", "ASK WHERE { <e:s> <Placeholder:A> <e:o> }")
    assert not industry_template.nlq_pattern.words <= set(inst.nlq)
    with pytest.raises(PlaceholderPredicate):
        attribution.build_index([inst], [industry_template])
    with pytest.raises(PlaceholderPredicate):
        attribution.build_index([inst], [])
