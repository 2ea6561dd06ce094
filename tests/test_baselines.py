from __future__ import annotations

import dataclasses
import math
import random
from collections import Counter

import numpy as np
import pytest
from click.testing import CliRunner

from conftest import (
    COMICS_INSTANCE_NLQ,
    COMICS_INSTANCE_QUERY,
    AIRCRAFT_INSTANCE_NLQ,
    AIRCRAFT_INSTANCE_QUERY,
    make_instance,
    random_corpus,
)
import references
from references import ref_memorizer_predict
from splithygiene import attribution, baselines, corpus, experiments, metrics, partitioner, qlang, synthesis
from splithygiene.cli import main
from splithygiene.errors import EmptyCorpus

DBR = "http://dbpedia.org/resource/"
DBO_INDUSTRY = "http://dbpedia.org/ontology/industry"


def _memorizer(train, index):
    """The memorizer trained on every row of an index over `train`, the way `memorize` trains it."""
    return baselines.train_memorizer(baselines.memorizer_index(train, index), range(len(train)))


def _predict(model, question):
    """The prediction for one question, asked alone."""
    (prediction,) = baselines.memorizer_predict(model, [question])
    return prediction


def _pizza_world(industry_template):
    inst = make_instance("i1", COMICS_INSTANCE_NLQ, COMICS_INSTANCE_QUERY,
                         origin=industry_template.id)
    index = attribution.build_index([inst], [industry_template])
    return inst, index


# ---------------------------------------------------------------------------
# train_memorizer
# ---------------------------------------------------------------------------

def test_memorizer_stores_seen_templates_and_label_index(industry_template):
    inst, index = _pizza_world(industry_template)
    model = _memorizer([inst], index)
    assert set(model.templates) == {industry_template.id}
    assert model.label_index == {
        "robot comics": f"{DBR}Robot_Comics",
        "publishing": f"{DBR}Publishing",
    }
    assert model.entity_namespace == DBR


def test_memorizer_empty_train(industry_template):
    index = attribution.build_index([], [industry_template])
    model = _memorizer([], index)
    assert model.templates == {} and model.label_index == {} and model.fallback == []


def test_memorizer_only_attributed_templates_are_seen(industry_template):
    import dataclasses
    other = dataclasses.replace(
        industry_template, id="t-other",
        nlq_pattern=qlang.NlqPattern.from_text("who owns <A> ?"),
        query_pattern=qlang.parse_query(
            "ASK WHERE { <Placeholder:A> <http://dbpedia.org/ontology/owner> <e:x> }"))
    inst, _ = _pizza_world(industry_template)
    index = attribution.build_index([inst], [industry_template, other])
    model = _memorizer([inst], index)
    assert set(model.templates) == {industry_template.id}


def test_memorizer_reads_its_templates_from_the_index_in_id_order(industry_template):
    later = dataclasses.replace(industry_template, id="t-z")
    inst, _ = _pizza_world(industry_template)
    index = attribution.build_index([inst], [later, industry_template])
    assert list(index.templates) == ["t-pizza-seed", "t-z"]
    assert index.tally([inst]) == {"t-pizza-seed": 1, "t-z": 1}
    model = _memorizer([inst], index)
    assert list(model.templates) == ["t-pizza-seed", "t-z"]
    assert model.templates["t-z"] is later


# ---------------------------------------------------------------------------
# placeholder read-back
# ---------------------------------------------------------------------------

_ALIGN_IRIS = [qlang.Iri(v) for v in ("e:a", "e:b", "e:c")]
_ALIGN_VARS = [qlang.Var(v) for v in ("x", "y")]
_ALIGN_PREDS = [qlang.Iri("p:p"), qlang.Iri("p:q")]


def _head(rnd, patterns) -> tuple[str, tuple[str, ...]]:
    """ASK, or SELECT DISTINCT over one or two of the patterns' variables."""
    names = sorted({t.name for p in patterns for t in p if isinstance(t, qlang.Var)})
    if not names or rnd.random() < 0.5:
        return qlang.ASK, ()
    return qlang.SELECT_DISTINCT, tuple(rnd.sample(names, rnd.randrange(1, len(names) + 1)))


def _align_case(rnd):
    """A random template and an instance query holding a noisy copy of its patterns, form and SELECT list."""
    labels = rnd.sample(["A", "B"], rnd.randrange(0, 3))
    holders = [qlang.Placeholder(label) for label in labels]
    t_pats = []
    for _ in range(rnd.randrange(1, 5)):
        ends = holders + _ALIGN_VARS + _ALIGN_IRIS[:2]
        pred = rnd.choice(holders) if holders and rnd.random() < 0.1 else rnd.choice(_ALIGN_PREDS)
        t_pats.append((rnd.choice(ends), pred, rnd.choice(ends)))
    for holder in holders:  # every label occurs
        if not any(holder in p for p in t_pats):
            t_pats.insert(rnd.randrange(len(t_pats) + 1), (holder, rnd.choice(_ALIGN_PREDS), rnd.choice(_ALIGN_IRIS)))
    nlq = " ".join(["w"] + [f"<{label}> w" for label in labels])
    t_head = _head(rnd, t_pats)
    template = synthesis.Template("t", qlang.NlqPattern.from_text(nlq), qlang.QueryAst(*t_head, tuple(t_pats)), "s")
    binding = {label: rnd.choice(_ALIGN_IRIS) for label in labels}

    def concrete(term):
        if isinstance(term, qlang.Placeholder):
            return binding[term.label] if rnd.random() < 0.9 else rnd.choice(_ALIGN_IRIS)
        return term if rnd.random() < 0.95 else rnd.choice(_ALIGN_IRIS + _ALIGN_VARS)

    i_pats = [tuple(concrete(t) for t in p) for p in t_pats if rnd.random() < 0.9]
    for _ in range(rnd.choice([0, 0, 0, 1, 2])):
        i_pats.insert(rnd.randrange(len(i_pats) + 1), tuple(concrete(t) for t in rnd.choice(t_pats)))
    if not i_pats:
        i_pats = [(rnd.choice(_ALIGN_IRIS), rnd.choice(_ALIGN_PREDS), rnd.choice(_ALIGN_IRIS))]
    i_pats = [(s, p if isinstance(p, qlang.Iri) else rnd.choice(_ALIGN_PREDS), o) for s, p, o in i_pats]
    i_vars = {t.name for p in i_pats for t in p if isinstance(t, qlang.Var)}
    i_head = t_head if rnd.random() < 0.9 and i_vars.issuperset(t_head[1]) else _head(rnd, i_pats)
    return template, qlang.QueryAst(*i_head, tuple(i_pats))


def _respaced(rnd, text: str) -> str:
    """The query text with other spacing and perhaps a "." before its closing brace: it parses as the text does."""
    spaced = "".join(rnd.choice([" ", "  ", "\n", " \t "]) if c == " " else c for c in text)
    return spaced[:-1] + rnd.choice(["}", ". }"])


def test_query_form_match_equals_the_reference_read_back_on_random_cases():
    outcomes = Counter()
    for case in range(2000):
        rnd = random.Random(case)
        template, instance_ast = _align_case(rnd)
        expected = references.ref_read_back(template, instance_ast)
        text = qlang.serialize(instance_ast)
        assert template.query_form.match(text) == expected, case
        assert template.query_form.match(_respaced(rnd, text)) == expected, case
        outcomes["none" if expected is None else "bound" if expected else "empty"] += 1
        outcomes[instance_ast.form] += expected is not None
    assert min(outcomes.values()) >= 50, outcomes


def test_query_form_reads_back_a_5000_pattern_query():
    n = 5000
    body = " . ".join(f"<Placeholder:A> <p:{i}> <Placeholder:B>" for i in range(n))
    template = synthesis.Template("t", qlang.NlqPattern.from_text("is <A> with <B> ?"),
                                  qlang.parse_query(f"ASK WHERE {{ {body} }}"), "s")
    form = template.query_form
    filled = form.fill({"a": "e:a", "b": "e:b"})
    for text, expected in ((filled, {"A": "e:a", "B": "e:b"}),
                           (filled.replace(" . ", " .\n"), {"A": "e:a", "B": "e:b"}),  # spaced otherwise
                           (filled.replace(f"<p:{n - 1}> <e:b>", f"<p:{n - 1}> <e:c>"), None),  # B binds two IRIs
                           (filled.replace(" }", " . <e:a> <p:0> <e:b> }"), None)):  # one pattern more
        assert form.match(text) == expected
        assert references.ref_read_back(template, qlang.parse_query(text)) == expected


def test_a_subsumed_template_harvests_no_label_from_a_longer_query():
    # the shorter template matches the question with B = "oslo and in the pizza industry", and its one
    # pattern is the query's first; only the template whose query the row fills reads its IRIs back
    dbo = "http://dbpedia.org/ontology/"
    short = synthesis.Template("t-hq", qlang.NlqPattern.from_text("Is <A> headquartered in <B>?"), qlang.parse_query(
        f"ASK WHERE {{ <Placeholder:A> <{dbo}headquarter> <Placeholder:B> }}"), "s0")
    longer = synthesis.Template(
        "t-hq-industry", qlang.NlqPattern.from_text("Is <A> headquartered in <B> and in the <C> industry?"),
        qlang.parse_query(f"ASK WHERE {{ <Placeholder:A> <{dbo}headquarter> <Placeholder:B> . "
                          f"<Placeholder:A> <{dbo}industry> <Placeholder:C> }}"), "s1")
    row = make_instance("line-0", "is acme headquartered in oslo and in the pizza industry ?",
                        f"ASK WHERE {{ <{DBR}Acme> <{dbo}headquarter> <{DBR}Oslo> . "
                        f"<{DBR}Acme> <{dbo}industry> <{DBR}Pizza> }}")
    index = attribution.build_index([row], [short, longer])
    assert index.attributed(row.id) == ("t-hq", "t-hq-industry")
    labels = baselines._harvest(row, index)
    assert labels == references.ref_harvest(row, index)
    assert sorted(labels) == [("acme", f"{DBR}Acme"), ("oslo", f"{DBR}Oslo"), ("pizza", f"{DBR}Pizza")]
    assert _memorizer([row], index).label_index == dict(labels)


def _chain_query(n, tail):
    return "ASK WHERE { " + " . ".join(["?x <p:p> ?y"] * n + [tail]) + " }"


def test_memorize_trains_on_an_attributed_but_unalignable_instance(tmp_path):
    (tmp_path / "train.nlq").write_text("is zed ok ?\n")
    (tmp_path / "train.ql").write_text(_chain_query(30, "?x <p:q> <e:z>") + "\n")
    synthesis.write_templates(tmp_path / "t.jsonl", [synthesis.Template(
        "t", qlang.NlqPattern.from_text("is <A> ok ?"),
        qlang.parse_query(_chain_query(15, "?w <p:q> <Placeholder:A>")), "s")])
    result = CliRunner().invoke(main, [
        "memorize", "--train-nlq", str(tmp_path / "train.nlq"), "--train-ql", str(tmp_path / "train.ql"),
        "--templates", str(tmp_path / "t.jsonl"), "--input", str(tmp_path / "train.nlq"),
        "--out", str(tmp_path / "pred.ql")])
    assert result.exit_code == 0, result.output
    assert (tmp_path / "pred.ql").read_text() == _chain_query(15, "?w <p:q> <http://example.org/resource/Zed>") + "\n"


# ---------------------------------------------------------------------------
# memorizer_predict
# ---------------------------------------------------------------------------

def test_predict_unseen_labels_via_iri_convention(industry_template):
    inst, index = _pizza_world(industry_template)
    model = _memorizer([inst], index)
    predicted = _predict(model, qlang.tokenize_nlq(AIRCRAFT_INSTANCE_NLQ))
    assert predicted == qlang.serialize(qlang.parse_query(AIRCRAFT_INSTANCE_QUERY)).split()


def test_predict_training_question_verbatim(industry_template):
    inst, index = _pizza_world(industry_template)
    model = _memorizer([inst], index)
    predicted = _predict(model, inst.nlq)
    assert predicted == qlang.serialize(inst.query_ast).split()


def test_predict_fallback_is_jaccard_nearest(industry_template):
    train = [
        make_instance("t-a", "which stars orbit nothing ?", "ASK WHERE { <e:a> <p:p> <e:b> }"),
        make_instance("t-b", "does gravity hold here ?", "ASK WHERE { <e:c> <p:p> <e:d> }"),
    ]
    index = attribution.build_index(train, [industry_template])
    model = _memorizer(train, index)
    question = qlang.tokenize_nlq("does gravity hold there ?")

    def jaccard(a, b):
        a, b = set(a), set(b)
        return len(a & b) / len(a | b)

    best = max(train, key=lambda i: jaccard(question, i.nlq))
    assert _predict(model, question) == best.query_text.split()
    assert best.id == "t-b"


def test_predict_fallback_tie_breaks_on_lowest_id(industry_template):
    train = [
        make_instance("z-late", "alpha beta gamma ?", "ASK WHERE { <e:z> <p:p> <e:z2> }"),
        make_instance("a-early", "alpha beta gamma ?", "ASK WHERE { <e:a> <p:p> <e:a2> }"),
    ]
    index = attribution.build_index(train, [industry_template])
    model = _memorizer(train, index)
    predicted = _predict(model, qlang.tokenize_nlq("alpha beta gamma ?"))
    assert predicted == train[1].query_text.split()


def test_predict_prefers_template_with_fewest_slot_tokens(industry_template, toy_data):
    # toy corpus: every instance should be reproduced exactly by prediction
    # when its template is seen and all labels were harvested
    split_instances = toy_data.instances[:300]
    index = toy_data.index
    model = _memorizer(split_instances, index)
    for inst in split_instances[::23]:
        predicted = _predict(model, inst.nlq)
        assert predicted == qlang.serialize(inst.query_ast).split()
    # both seen templates match; the lower id has fewer literal words, binds more slot tokens and loses
    short = dataclasses.replace(industry_template, id="a-short", nlq_pattern=qlang.NlqPattern.from_text("is <B> ?"),
                                query_pattern=qlang.parse_query(f"ASK WHERE {{ <Placeholder:B> <{DBO_INDUSTRY}> ?x }}"))
    inst = make_instance("i1", COMICS_INSTANCE_NLQ, COMICS_INSTANCE_QUERY, origin=industry_template.id)
    index = attribution.build_index([inst], [industry_template, short])
    model = _memorizer([inst], index)
    assert list(model.templates) == ["a-short", industry_template.id]
    question = qlang.tokenize_nlq(AIRCRAFT_INSTANCE_NLQ)
    expected = qlang.serialize(qlang.parse_query(AIRCRAFT_INSTANCE_QUERY)).split()
    assert _predict(model, question) == ref_memorizer_predict(model, question) == expected


def _instance(instance_id, tokens, n):
    """A train instance with the given question tokens, case kept as given."""
    query = f"ASK WHERE {{ <e:n{n}> <p:p> <e:x> }}"
    return corpus.Instance(instance_id, tuple(tokens), query, ("p:p",))


def _jaccard(a, b):
    a, b = set(a), set(b)
    return len(a & b) / len(a | b) if a | b else 0.0


def test_predict_fallback_ties_across_fractions_go_to_lowest_id(industry_template):
    # 1/2 and 2/4 are the same double: both instances tie and the lower id wins
    train = [_instance("z-half", ["alpha"], 0), _instance("m-half", ["alpha", "beta", "x", "y"], 1),
             _instance("a-third", ["alpha", "q", "r"], 2)]
    index = attribution.build_index(train, [industry_template])
    model = _memorizer(train, index)
    question = ("alpha", "beta", "alpha")
    assert _jaccard(question, train[0].nlq) == _jaccard(question, train[1].nlq) == 0.5
    assert _predict(model, question) == train[1].query_text.split()
    assert ref_memorizer_predict(model, question) == train[1].query_text.split()


def test_predict_fallback_without_overlap_takes_lowest_id(industry_template):
    train = [_instance("b", ["alpha"], 0), _instance("a", ["beta", "gamma"], 1), _instance("c", ["x"], 2)]
    index = attribution.build_index(train, [industry_template])
    model = _memorizer(train, index)
    for question in (("never", "seen", "?"), ("ALPHA",), ()):
        assert _predict(model, question) == train[1].query_text.split()
        assert ref_memorizer_predict(model, question) == train[1].query_text.split()


def test_predict_prefilter_casefolds_template_words(industry_template):
    # "straße", "Straße" and "STRASSE" are equal only under casefold, not under lower()
    template = dataclasses.replace(industry_template, nlq_pattern=qlang.NlqPattern.from_tokens(
        ["is", "<B>", "in", "the", "<A>", "straße", "?"]))
    inst = make_instance("i1", "Is robot comics in the publishing straße?", COMICS_INSTANCE_QUERY,
                         origin=template.id)
    index = attribution.build_index([inst], [template])
    model = _memorizer([inst], index)
    expected = qlang.serialize(qlang.parse_query(AIRCRAFT_INSTANCE_QUERY)).split()
    for word in ("STRASSE", "Straße"):
        question = ("IS", "Tiger", "aircraft", "In", "THE", "aerospace", word, "?")
        assert _predict(model, question) == expected
        assert ref_memorizer_predict(model, question) == expected


_NOISE_WORDS = ["alpha", "beta", "gamma", "rook", "one", "two", "q1", "q2", "q3", "?"]


def _case_variant(rnd, tokens):
    return tuple(rnd.choice((t, t.upper(), t.title())) for t in tokens)


def _memorizer_case(rnd):
    """A random train set with held-out templates and noise (ids may repeat), its index, and mixed questions."""
    _, templates, instances, _ = random_corpus(rnd)
    held_out = {t.id for t in templates if rnd.random() < 0.4}
    train = [inst for inst in instances if inst.origin_template_id not in held_out and rnd.random() < 0.8]
    for n in range(rnd.randrange(0, 25)):
        tokens = [rnd.choice(_NOISE_WORDS) for _ in range(rnd.randrange(1, 7))]
        if rnd.random() < 0.2:
            tokens = _case_variant(rnd, tokens)
        train.append(_instance(f"n{rnd.randrange(30):02d}", tokens, n))  # ids may repeat
    rnd.shuffle(train)
    index = attribution.build_index(train, templates)
    questions = [inst.nlq for inst in instances]
    questions += [_case_variant(rnd, q) for q in questions]
    questions += [tuple(rnd.choice(_NOISE_WORDS + ["unseen", "zzz"]) for _ in range(rnd.randrange(1, 8)))
                  for _ in range(10)]
    questions += [("unseen", "zzz", "unseen"), ()]
    return train, index, questions


def test_predict_equals_linear_scan_on_random_corpora():
    seen = {"template": 0, "fraction_tie": 0, "no_overlap": 0, "repeated": 0, "case_variant": 0}
    for case in range(500):
        rnd = random.Random(case)
        train, index, questions = _memorizer_case(rnd)
        model = _memorizer(train, index)
        train_tokens = {t for inst in model.fallback for t in inst.nlq}
        for question, predicted in zip(questions, baselines.memorizer_predict(model, questions), strict=True):
            expected = ref_memorizer_predict(model, question)
            assert predicted == expected, (case, question)
            matched = [tid for tid, t in model.templates.items()
                       if qlang.match_nlq(t.nlq_pattern, question) is not None]
            seen["template"] += bool(matched)
            seen["repeated"] += len(set(question)) < len(question)
            seen["case_variant"] += bool(matched) and any(t != t.lower() for t in question)
            if matched or not model.fallback:
                continue
            seen["no_overlap"] += not set(question) & train_tokens
            scores = [(_jaccard(question, inst.nlq), len(set(question) & set(inst.nlq)))
                      for inst in model.fallback]
            best = max(score for score, _ in scores)
            seen["fraction_tie"] += best > 0 and len({o for score, o in scores if score == best}) > 1
    assert min(seen.values()) >= 20, seen


def test_predict_equals_linear_scan_on_default_sanitized_split(toy_data, toy_config):
    seed_test = experiments.seed_split_ids(toy_data, toy_config)
    tsplit = partitioner.split_templates(toy_data.index, toy_data.seeds, seed_test)
    split = partitioner.sanitized_partition(toy_data.instances, tsplit, toy_data.index,
                                            toy_config.rng_seeds[0])
    model = _memorizer(split.train, toy_data.index)
    assert len(split.test) > 500
    predicted = baselines.memorizer_predict(model, [inst.nlq for inst in split.test])
    for inst, prediction in zip(split.test, predicted, strict=True):
        assert prediction == ref_memorizer_predict(model, inst.nlq)


def test_predict_does_not_depend_on_the_batch_or_its_blocks(monkeypatch, toy_data, toy_config):
    # template hits and fallbacks mixed; every block size gives the same answer to each question
    seed_test = experiments.seed_split_ids(toy_data, toy_config)
    _, split = experiments._sanitized_split(toy_data, toy_config, seed_test)
    model = _memorizer(split.train, toy_data.index)
    questions = [inst.nlq for inst in split.test + split.valid + split.train[::10]]
    whole = baselines.memorizer_predict(model, questions)
    order = list(range(len(questions)))
    random.Random(5).shuffle(order)
    assert baselines.memorizer_predict(model, [questions[i] for i in order]) == [whole[i] for i in order]
    assert [_predict(model, q) for q in questions[::17]] == whole[::17]
    blocks = Counter()
    nearest = baselines._nearest_block

    def counted(model, qsize, *args):
        blocks[baselines._BLOCK] += 1
        return nearest(model, qsize, *args)

    monkeypatch.setattr(baselines, "_nearest_block", counted)
    for size in (1, 1000, 7919, baselines._BLOCK):
        monkeypatch.setattr(baselines, "_BLOCK", size)
        assert baselines.memorizer_predict(model, questions) == whole, size
    fallbacks = len(split.test)  # the held-out templates; valid and train questions hit seen ones
    assert blocks[1] == fallbacks and 1 < blocks[7919] < blocks[1000] < fallbacks, blocks


def _assert_sample_equals_the_linear_scan(data, train, test, seed):
    """A seeded sample of 40 test questions: the memorizer trained on `train` predicts as the reference does."""
    rows = {inst.id: row for row, inst in enumerate(data.instances)}
    model = baselines.train_memorizer(baselines.memorizer_index(data.instances, data.index),
                                      [rows[inst.id] for inst in train])
    sample = random.Random(seed).sample(test, 40)
    predicted = baselines.memorizer_predict(model, [inst.nlq for inst in sample])
    for inst, prediction in zip(sample, predicted, strict=True):
        assert prediction == ref_memorizer_predict(model, inst.nlq), inst.id


def test_batched_fallback_equals_the_linear_scan_on_a_scaled_sanitized_split(scaled_world):
    config, data = scaled_world
    _, split = experiments._sanitized_split(data, config, experiments.seed_split_ids(data, config))
    assert len(split.train) > 12_000 and len(split.test) > 2_500
    _assert_sample_equals_the_linear_scan(data, split.train, split.test, 4)


def test_table_predictions_equal_the_linear_scan_on_a_scaled_leaky_split(scaled_world):
    # leaky test questions hit seen templates: the predictions read the match table
    config, data = scaled_world
    for rng_seed in config.rng_seeds[:2]:
        split = partitioner.leaky_partition(data.instances, config.ratios, rng_seed)
        assert len(split.test) > 1_500
        _assert_sample_equals_the_linear_scan(data, split.train, split.test, rng_seed)


def _assert_same_memorizer(model, ref, index):
    """Field for field: the same template and instance objects in the same order, equal tables.

    The fallback tables must be the reference postings cut in two: a rare
    token keeps its positions, and a frequent one (its case-fold a literal
    word of an index template) lists the groups of the positions holding it,
    where a group is the positions holding one set of frequent tokens.
    """
    assert [(tid, id(t)) for tid, t in model.templates.items()] == [(tid, id(t)) for tid, t in ref.templates.items()]
    assert list(model.label_index.items()) == list(ref.label_index.items())
    assert [id(inst) for inst in model.fallback] == [id(inst) for inst in ref.fallback]
    assert model.sizes.dtype == ref.sizes.dtype and np.array_equal(model.sizes, ref.sizes)
    assert model.entity_namespace == ref.entity_namespace
    words = {w for t in index.templates.values() for w in t.nlq_pattern.words}
    assert model.index.frequent.tolist() == [token.casefold() in words for token in model.index.vocab]
    sets = [frozenset(t for t in inst.nlq if t.casefold() in words) for inst in ref.fallback]
    assert len(set(zip(sets, model.group.tolist()))) == len(set(sets)) == model.best.size
    members: dict[int, list[int]] = {}
    for p, g in enumerate(model.group.tolist()):
        members.setdefault(g, []).append(p)
    assert sorted(members) == list(range(model.best.size))
    assert model.best.tolist() == [min(members[g], key=lambda p: ref.sizes[p]) for g in sorted(members)]
    for token, i in model.index.vocab.items():
        positions = ref.postings.get(token, np.empty(0, dtype=np.int64))
        rare = model.rare_positions[model.rare_starts[i]:model.rare_starts[i + 1]]
        groups = model.group_ids[model.group_starts[i]:model.group_starts[i + 1]]
        if model.index.frequent[i]:
            assert rare.size == 0 and groups.tolist() == sorted(set(model.group[positions].tolist())), token
        else:
            assert groups.size == 0 and rare.tolist() == positions.tolist(), token


def test_memorizer_rows_equal_the_per_partition_trainer_on_random_corpora():
    # The corpus holds the train set in another order, plus rows outside it; equal ids
    # must keep their training order in the fallback, whatever their corpus order.
    seen = Counter()
    for case in range(300):
        rnd = random.Random(case)
        train, index, _ = _memorizer_case(rnd)
        others = [_instance(f"n{rnd.randrange(30):02d}", [rnd.choice(_NOISE_WORDS)], 100 + n)
                  for n in range(rnd.randrange(0, 6))]
        corpus = train + others
        rnd.shuffle(corpus)
        row_of = {id(inst): row for row, inst in enumerate(corpus)}
        rows = [row_of[id(inst)] for inst in train]
        model = baselines.train_memorizer(baselines.memorizer_index(corpus, index), rows)
        _assert_same_memorizer(model, references.ref_train_memorizer(train, index), index)
        by_id: dict[str, list[int]] = {}
        for row in rows:
            by_id.setdefault(corpus[row].id, []).append(row)
        seen["repeated id out of corpus order"] += any(r != sorted(r) for r in by_id.values())
        seen["labels"] += bool(model.label_index)
        seen["empty train"] += not train
    assert seen["repeated id out of corpus order"] >= 50 and seen["labels"] >= 50 and seen["empty train"], seen


def test_memorizer_rows_equal_the_per_partition_trainer_on_toy_partitions(toy_data, toy_config,
                                                                          toy_baseline_corpus):
    _, mem_index, rows = toy_baseline_corpus
    parts = _toy_partitions(toy_data, toy_config)
    leaky, fractions = parts[:5], parts[6:]
    assert len(leaky) == 5 and len(fractions) == 4
    for split in leaky + fractions:
        model = baselines.train_memorizer(mem_index, [rows[i.id] for i in split.train])
        _assert_same_memorizer(model, references.ref_train_memorizer(split.train, toy_data.index),
                               toy_data.index)


def _exp1_calls(tmp_path, monkeypatch, toy_data, toy_config, bindings) -> Counter:
    """Calls to each (module, name) binding during exp1 and one build_index over the toy corpus.

    Keyed (name, where): where is "harvest" inside `_harvest`, "predict" inside
    `memorizer_predict`, "build_index" inside that call, else None.
    """
    calls = Counter()
    where = [None]

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name, where[-1]] += 1
            return fn(*args, **kwargs)
        return wrapper

    def inside(label, fn):
        def wrapper(*args, **kwargs):
            where.append(label)
            try:
                return fn(*args, **kwargs)
            finally:
                where.pop()
        return wrapper

    for module, name in bindings:
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    monkeypatch.setattr(baselines, "_harvest", inside("harvest", baselines._harvest))
    monkeypatch.setattr(baselines, "memorizer_predict", inside("predict", baselines.memorizer_predict))
    experiments.run_experiment("exp1", dataclasses.replace(toy_config, workdir=str(tmp_path)), toy_data)
    index = inside("build_index", attribution.build_index)(toy_data.instances, toy_data.templates)
    assert index == toy_data.index
    return calls


def _fresh(inst, origin):
    """The instance with the given origin, as a new row: the fixtures' rows stay as built."""
    return dataclasses.replace(inst, origin_template_id=origin)


def test_text_harvest_equals_the_reference_harvest_on_the_toy_and_4x_worlds(toy_data, scaled_world):
    # without origins every attributed template is read, subsumed ones included: their form misses a
    # longer query, which then binds nothing, as the reference's term-by-term read-back says
    missed = 0
    for data in (toy_data, scaled_world[1]):
        index = data.index
        for inst in data.instances:
            for origin in (inst.origin_template_id, None):
                row = _fresh(inst, origin)
                assert baselines._harvest(row, index) == references.ref_harvest(row, index), (inst.id, origin)
            ast = references.ref_parse_query(inst.query_text)
            for tid in index.attributed(inst.id):
                template = index.templates[tid]
                iris = template.query_form.match(inst.query_text)
                assert iris == references.ref_read_back(template, ast), (inst.id, tid)
                missed += iris is None
    assert missed > 1000


def test_harvest_aligns_a_query_its_form_does_not_match(industry_template):
    # a query spaced otherwise is read back from its canonical text; one pattern more, or a placeholder
    # where the row needs an IRI, binds nothing
    form = industry_template.query_form
    canonical = COMICS_INSTANCE_QUERY.replace("{", "{ ").replace("}", " }")
    assert form.pattern.fullmatch(COMICS_INSTANCE_QUERY) is None
    assert form.match(COMICS_INSTANCE_QUERY) == form.match(canonical) == {
        "A": f"{DBR}Publishing", "B": f"{DBR}Robot_Comics"}
    for text, labels in ((COMICS_INSTANCE_QUERY, [("publishing", f"{DBR}Publishing"),
                                                  ("robot comics", f"{DBR}Robot_Comics")]),
                         (canonical.replace(" }", f" . <{DBR}Robot_Comics> <p:extra> ?x }}"), []),
                         (canonical.replace(f"{DBR}Publishing", "Placeholder:A"), [])):
        row = make_instance("i1", COMICS_INSTANCE_NLQ, text, origin=industry_template.id)
        index = attribution.build_index([row], [industry_template])
        assert baselines._harvest(row, index) == references.ref_harvest(row, index) == labels, text


def test_memorizer_index_harvests_once_per_corpus_instance(tmp_path, monkeypatch, toy_data, toy_config):
    # exp1 trains six memorizers on overlapping train sets; the harvest reads the IRIs once per
    # (corpus instance, harvested template), from the query text, and its bindings from the match table
    calls = _exp1_calls(tmp_path, monkeypatch, toy_data, toy_config,
                        [(attribution, "match_nlq"), (synthesis.QueryForm, "match"), (qlang, "parse_query")])
    index = toy_data.index
    harvested = sum(1 if inst.origin_template_id in index.attributed(inst.id) else len(index.attributed(inst.id))
                    for inst in toy_data.instances)
    assert 0 < calls["match", "harvest"] <= harvested, (calls, harvested)
    # every toy row's query is its origin template's query filled in, so no harvest parses one
    assert calls["parse_query", "harvest"] == 0, calls
    assert calls["match_nlq", "harvest"] == 0 < calls["match_nlq", "build_index"], calls


def test_memorizer_predict_tries_templates_most_literal_words_first(tmp_path, monkeypatch, toy_data, toy_config):
    # the table already holds every corpus question's skeleton, so prediction never calls the matcher
    calls = _exp1_calls(tmp_path, monkeypatch, toy_data, toy_config, [(attribution, "match_nlq")])
    assert calls["match_nlq", "predict"] == 0 < calls["match_nlq", "build_index"] <= 150, calls
    # split_templates reads every seed skeleton from the same table
    assert calls["match_nlq", None] == 0, calls


def test_memorizer_harvests_only_the_rows_a_training_selects(tmp_path, monkeypatch, toy_data, toy_config):
    # exp2 trains on nested fractions of the sanitized train set; its valid and test rows are never harvested
    harvested, selected = Counter(), set()
    harvest, train = baselines._harvest, baselines.train_memorizer

    def counted_harvest(inst, index):
        harvested[id(inst)] += 1
        return harvest(inst, index)

    def recorded_train(mindex, rows):
        selected.update(int(r) for r in rows)
        return train(mindex, rows)

    monkeypatch.setattr(baselines, "_harvest", counted_harvest)
    monkeypatch.setattr(baselines, "train_memorizer", recorded_train)
    experiments.run_experiment("exp2", dataclasses.replace(toy_config, workdir=str(tmp_path)), toy_data)
    assert max(harvested.values()) == 1
    assert 0 < sum(harvested.values()) <= len(selected) < len(toy_data.instances)


def test_a_harvest_that_aligns_parsed_queries_leaves_no_ast_on_its_rows(tmp_path, toy_data, toy_config):
    # a split read without its manifest has no origins, so every attributed template is read, and a
    # subsumed template's form misses the longer query: those queries are parsed to their canonical text
    seed = toy_config.rng_seeds[0]
    split = partitioner.leaky_partition(toy_data.instances, toy_config.ratios, seed)
    experiments.write_partition(tmp_path, split, "leaky", seed, toy_config.ratios, toy_data.config_digest)
    train = corpus.read_parallel(tmp_path / "train.nlq", tmp_path / "train.ql")
    index = attribution.build_index(train, toy_data.templates)
    missed = sum(index.templates[tid].query_form.match(inst.query_text) is None
               for inst in train for tid in index.attributed(inst.id))
    model = _memorizer(train, index)
    assert missed > 100
    assert not any(hasattr(inst, "__dict__") for inst in train)
    assert all(inst.query_ast == inst.query_ast for inst in train)
    assert list(model.label_index.items()) == list(references.ref_train_memorizer(train, index).label_index.items())
    questions = [inst.nlq for inst in split.test]
    assert baselines.memorizer_predict(model, questions) == [ref_memorizer_predict(model, q) for q in questions]


@pytest.mark.parametrize("iri", [
    "http://x.org/resource/Ada_Varga",  # "/"
    "http://x.org/ns#Ada_Varga",  # "#"
    "http://x.org/ns#people/Ada_Varga",  # "#", then "/"
    "http://x.org/people/ns#Ada_Varga",  # "/", then "#"
])
def test_label_and_namespace_split_an_iri_at_one_place(iri):
    assert synthesis.label_to_iri_form(synthesis.entity_label(iri), synthesis._namespace(iri)) == iri


def test_namespace_defaults_when_no_separator_follows_the_scheme():
    assert synthesis._namespace("http://Ada_Varga") == synthesis._namespace("https://x") == synthesis._DEFAULT_NAMESPACE


# ---------------------------------------------------------------------------
# n-gram language model
# ---------------------------------------------------------------------------

def _lm(sentences, order, k, evals=()):
    """A model of every sentence, over an index of those sentences followed by `evals`; and the rows of `evals`."""
    index = baselines.ngram_index([*sentences, *evals], order)
    lm = baselines.train_ngram_lm(index, range(len(sentences)), k)
    return lm, list(range(len(sentences), len(sentences) + len(evals)))


def _log_probs(sentences, order, k, queries):
    """log P(token | history) of each (history, token) query: the score of `token` after `history` in one row."""
    lm, rows = _lm(sentences, order, k, [[*history, token] for history, token in queries])
    return [scored[len(history)] for scored, (history, _) in zip(baselines.score_rows(lm, rows), queries)]


def test_lm_repeated_sentence_perplexity_tends_to_1():
    sentence = ["ASK", "WHERE", "{", "<a>", "<b>", "<c>", "}"]
    lm, rows = _lm([sentence] * 50, order=3, k=1e-9, evals=[sentence])
    assert baselines.lm_perplexity(lm, rows) == pytest.approx(1.0, abs=1e-4)


def test_lm_uniform_unigram_tends_to_vocab_size():
    # one long sentence over 8 equally frequent symbols: with k -> 0 the
    # per-token perplexity approaches the symbol count once the
    # end-of-sentence event is amortized away
    symbols = [f"s{i}" for i in range(8)]
    length = 400
    sentence = [symbols[i % 8] for i in range(length)]
    lm, rows = _lm([sentence], order=1, k=1e-12, evals=[sentence])
    p_sym = (length / 8) / (length + 1)
    p_eos = 1 / (length + 1)
    expected = math.exp(-(length * math.log(p_sym) + math.log(p_eos)) / (length + 1))
    got = baselines.lm_perplexity(lm, rows)
    assert got == pytest.approx(expected, rel=1e-6)
    assert got == pytest.approx(8.0, rel=0.05)


def test_lm_two_sentence_bigram_hand_computed():
    # corpus: "x y" and "x z"; order 2, k = 0.1
    # vocab = {x, y, z, </s>, <unk>}, so V = 5
    lm, rows = _lm([["x", "y"], ["x", "z"]], order=2, k=0.1, evals=[["x", "y"]])
    v = 5
    p_x_bos = (2 + 0.1) / (2 + 0.1 * v)       # context (<s>,): x seen twice
    p_y_x = (1 + 0.1) / (2 + 0.1 * v)         # context (x,): y once of two
    p_eos_y = (1 + 0.1) / (1 + 0.1 * v)       # context (y,): only </s>
    expected = [p_x_bos, p_y_x, p_eos_y]
    scored = baselines.score_rows(lm, rows)[0]
    assert scored == pytest.approx([math.log(p) for p in expected])
    expected_ppl = math.exp(-sum(math.log(p) for p in expected) / 3)
    assert baselines.lm_perplexity(lm, rows) == pytest.approx(expected_ppl)


def test_lm_backoff_on_unseen_context():
    lm, _ = _lm([["x", "y", "z"]], order=3, k=0.1)
    # context ("q", "q") is unseen at order 3 and ("q",) at order 2: falls
    # back to the unigram table
    v = lm.vocab_size
    unigram_total = lm.context_totals[1][()]
    expected = math.log((1 + 0.1) / (unigram_total + 0.1 * v))
    assert _log_probs([["x", "y", "z"]], 3, 0.1, [(["q", "q"], "x")]) == pytest.approx([expected])


def test_lm_unknown_tokens_map_to_unk():
    # no train row holds either token, so both score as unseen
    unseen, unk = _log_probs([["x", "y"]], 2, 0.5, [(["x"], "never-seen"), (["x"], baselines.UNK)])
    assert unseen < 0
    assert unseen == unk


def test_lm_a_trained_unk_lends_no_count_to_an_unseen_token():
    # corpus: "x <unk>"; order 2, k = 0.5; vocab = {x, <unk>, </s>}, so V = 3
    corpus = [["x", baselines.UNK]]
    unseen, unk = _log_probs(corpus, 2, 0.5, [(["x"], "never-seen"), (["x"], baselines.UNK)])
    assert unseen == math.log((0 + 0.5) / (1 + 0.5 * 3))  # context (x,): only <unk>, never "never-seen"
    assert unk == math.log((1 + 0.5) / (1 + 0.5 * 3))
    ref = references.ref_train_ngram_lm(corpus, 2, 0.5)
    assert references.ref_token_log_prob(ref, ["x"], "never-seen") == unseen


def test_lm_distributions_normalize():
    rnd = random.Random(3)
    vocab = [f"w{i}" for i in range(6)]
    corpus = [[rnd.choice(vocab) for _ in range(rnd.randrange(1, 7))] for _ in range(30)]
    symbols = sorted(_lm(corpus, order=3, k=0.1)[0].vocab)
    histories = ([], ["w0"], ["w0", "w1"], ["zzz"], ["w3", "w3"])
    scored = _log_probs(corpus, 3, 0.1, [(history, w) for history in histories for w in symbols])
    for start in range(0, len(scored), len(symbols)):
        total = sum(math.exp(lp) for lp in scored[start:start + len(symbols)])
        assert total == pytest.approx(1.0, abs=1e-9)


def test_lm_validation_errors():
    with pytest.raises(EmptyCorpus):
        _lm([], order=2, k=0.1)
    with pytest.raises(EmptyCorpus):
        baselines.train_ngram_lm(baselines.ngram_index([["x"]], 2), [], 0.1)
    with pytest.raises(ValueError):
        _lm([["x"]], order=0, k=0.1)
    with pytest.raises(ValueError):
        _lm([["x"]], order=2, k=0.0)
    for k in (math.nan, math.inf):
        with pytest.raises(ValueError, match="smoothing constant must be finite and > 0"):
            _lm([["x"]], order=2, k=k)
    lm, _ = _lm([["x"]], order=2, k=0.1)
    with pytest.raises(EmptyCorpus):
        baselines.lm_perplexity(lm, [])


def test_lm_names_a_smoothing_constant_whose_product_with_the_vocabulary_overflows():
    # vocab = {x, </s>, <unk>}: 1e308 * 3 is inf, so every quotient would be 0 and its log undefined
    with pytest.raises(ValueError, match=r"^smoothing constant 1e\+308 overflows: k \* \|vocab\| = 1e\+308 \* 3 "
                                         r"is not finite$"):
        _lm([["x"]], order=2, k=1e308)



def test_lm_names_a_smoothing_constant_whose_least_probability_underflows():
    # 1e-323 is twice the least float. With 4 events (x and </s>, twice) and vocab = {x, </s>, <unk>}, an unseen
    # token would score log(1e-323 / 4) = log(0.0); with 2 events, 1e-323 / 2 is the least float, not 0
    with pytest.raises(ValueError, match=r"^smoothing constant 1e-323 underflows: the least probability "
                                         r"k / \(events \+ k \* \|vocab\|\) = 1e-323 / \(4 \+ 1e-323 \* 3\) is 0$"):
        _lm([["x"], ["x"]], order=1, k=1e-323)
    lm, rows = _lm([["x"]], order=1, k=1e-323, evals=[["y"]])
    assert baselines.score_rows(lm, rows)[0][0] == math.log(5e-324)

def test_lm_perplexity_uses_metrics_definition():
    lm, rows = _lm([["x", "y"], ["y", "x"]], order=2, k=0.2, evals=[["x", "y"], ["y"]])
    scored = baselines.score_rows(lm, rows)
    assert baselines.lm_perplexity(lm, rows) == metrics.perplexity(scored)


def test_lm_unigram_context_total_counts_tokens_and_end_markers():
    # the benchmark's tracer reads context_totals[1].get((), 0) as the train token count
    corpus = [["a", "b", "c"], [], ["a", "<s>", "</s>", "<unk>"], ["b"]]
    index = baselines.ngram_index(corpus, 3)
    rows = [0, 1, 2]
    lm = baselines.train_ngram_lm(index, rows, 0.1)
    assert lm.context_totals[1].get((), 0) == sum(len(corpus[r]) for r in rows) + len(rows) == 10
    assert lm.context_totals[1][()] == 10


_SPECIALS = [baselines.BOS, baselines.EOS, baselines.UNK]


def _random_lm_case(rnd: random.Random):
    """(corpus, train rows, eval sentences, order, k) over a small alphabet with special tokens."""
    alphabet = [f"w{i}" for i in range(rnd.randrange(1, 9))]
    alphabet += rnd.sample(_SPECIALS, rnd.randrange(0, 4))

    def sentence(extra=()):
        pool = alphabet + list(extra)
        return [rnd.choice(pool) for _ in range(rnd.choice([0, 1, 2, 3, 5, 8, 13]))]

    corpus = [sentence() for _ in range(rnd.randrange(1, 14))]
    rows = [rnd.randrange(len(corpus)) for _ in range(rnd.randrange(1, len(corpus) + 2))]
    evals = [sentence(extra=("oov", "OOV2")) for _ in range(rnd.randrange(1, 6))]
    evals += rnd.sample(corpus, min(2, len(corpus)))
    return corpus, rows, evals, rnd.randrange(1, 7), rnd.choice([1e-9, 0.1, 2.5])


def test_lm_equals_reference_on_random_corpora():
    """Every per-token float of the indexed LM equals the dict-of-Counters reference's, with ==."""
    rnd = random.Random(2026)
    seen = Counter()
    for _ in range(600):
        corpus, rows, evals, order, k = _random_lm_case(rnd)
        sentences = corpus + evals
        # the eval rows, then two rows of the whole index, repeats allowed
        scored_rows = [*range(len(corpus), len(sentences)), *rnd.choices(range(len(sentences)), k=2)]
        scored = [sentences[r] for r in scored_rows]
        lm = baselines.train_ngram_lm(baselines.ngram_index(sentences, order), rows, k)
        ref = references.ref_train_ngram_lm([corpus[r] for r in rows], order, k)
        assert lm.vocab == ref.vocab
        assert lm.context_totals[1][()] == ref.context_totals[1][()]
        assert baselines.score_rows(lm, scored_rows) == [references.ref_score_sentence(ref, s) for s in scored]
        assert baselines.lm_perplexity(lm, scored_rows) == references.ref_lm_perplexity(ref, scored)
        train_tokens = {t for r in rows for t in corpus[r]}
        oov = any(t not in train_tokens for s in scored for t in s)
        seen["order", order] += 1
        seen["k", k] += 1
        seen["empty sentence"] += any(not s for s in sentences)
        seen["repeated row"] += len(set(rows)) < len(rows)
        seen["oov eval token"] += oov
        seen["oov eval token, trained <unk>"] += oov and baselines.UNK in train_tokens
        for special in _SPECIALS:
            seen["literal", special] += any(special in s for s in sentences)
    for order in range(1, 7):
        assert seen["order", order] >= 50, seen
    for k in (1e-9, 0.1, 2.5):
        assert seen["k", k] >= 100, seen
    for case in ("empty sentence", "repeated row", "oov eval token", "oov eval token, trained <unk>"):
        assert seen[case] >= 100, seen
    for special in _SPECIALS:
        assert seen["literal", special] >= 100, seen


def _toy_partitions(toy_data, toy_config):
    """The ten partitions exp1 and exp2 evaluate: five leaky, the sanitized one, four fractions."""
    parts = [partitioner.leaky_partition(toy_data.instances, toy_config.ratios, seed)
             for seed in toy_config.rng_seeds]
    _, sanitized = experiments._sanitized_split(
        toy_data, toy_config, experiments.seed_split_ids(toy_data, toy_config))
    parts.append(sanitized)
    parts += [partitioner.subsample_train(sanitized, f, toy_config.rng_seeds[0]) for f in toy_config.fractions]
    return parts


def test_lm_equals_reference_on_toy_partitions(toy_data, toy_config, toy_baseline_corpus):
    lm_index, _, rows = toy_baseline_corpus
    parts = _toy_partitions(toy_data, toy_config)
    assert len(parts) == 10
    for split in parts:
        lm = baselines.train_ngram_lm(lm_index, [rows[i.id] for i in split.train], toy_config.lm_k)
        ref = references.ref_train_ngram_lm([i.query_text.split() for i in split.train],
                                            toy_config.lm_order, toy_config.lm_k)
        assert lm.context_totals[1][()] == ref.context_totals[1][()]
        for part in (split.valid, split.test):
            sents = [i.query_text.split() for i in part]
            part_rows = [rows[i.id] for i in part]
            assert sents
            assert baselines.score_rows(lm, part_rows) == [references.ref_score_sentence(ref, s) for s in sents]
            assert baselines.lm_perplexity(lm, part_rows) == references.ref_lm_perplexity(ref, sents)
