from __future__ import annotations

import dataclasses
import math
import random

import pytest

from conftest import (
    COMICS_INSTANCE_NLQ,
    COMICS_INSTANCE_QUERY,
    AIRCRAFT_INSTANCE_NLQ,
    AIRCRAFT_INSTANCE_QUERY,
    make_instance,
    random_corpus,
)
from references import ref_memorizer_predict
from splithygiene import attribution, baselines, corpus, experiments, metrics, partitioner, qlang
from splithygiene.errors import EmptyCorpus

DBR = "http://dbpedia.org/resource/"


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
    model = baselines.train_memorizer([inst], [industry_template], index)
    assert set(model.templates) == {industry_template.id}
    assert model.label_index == {
        "robot comics": f"{DBR}Robot_Comics",
        "publishing": f"{DBR}Publishing",
    }
    assert model.entity_namespace == DBR


def test_memorizer_empty_train(industry_template):
    index = attribution.build_index([], [industry_template])
    model = baselines.train_memorizer([], [industry_template], index)
    assert model.templates == {} and model.label_index == {} and model.fallback == []


def test_memorizer_only_attributed_templates_are_seen(industry_template):
    import dataclasses
    other = dataclasses.replace(
        industry_template, id="t-other",
        nlq_pattern=qlang.NlqPattern.from_text("who owns <A> ?"),
        query_pattern=qlang.parse_query(
            "ASK WHERE { <Placeholder:A> <http://dbpedia.org/ontology/owner> <e:x> }"),
        placeholder_labels=("A",))
    inst, _ = _pizza_world(industry_template)
    index = attribution.build_index([inst], [industry_template, other])
    model = baselines.train_memorizer([inst], [industry_template, other], index)
    assert set(model.templates) == {industry_template.id}


# ---------------------------------------------------------------------------
# memorizer_predict
# ---------------------------------------------------------------------------

def test_predict_unseen_labels_via_iri_convention(industry_template):
    inst, index = _pizza_world(industry_template)
    model = baselines.train_memorizer([inst], [industry_template], index)
    predicted = baselines.memorizer_predict(model, qlang.tokenize_nlq(AIRCRAFT_INSTANCE_NLQ))
    assert predicted == qlang.serialize(qlang.parse_query(AIRCRAFT_INSTANCE_QUERY)).split()


def test_predict_training_question_verbatim(industry_template):
    inst, index = _pizza_world(industry_template)
    model = baselines.train_memorizer([inst], [industry_template], index)
    predicted = baselines.memorizer_predict(model, inst.pair.nlq)
    assert predicted == qlang.serialize(inst.pair.query_ast).split()


def test_predict_fallback_is_jaccard_nearest(industry_template):
    train = [
        make_instance("t-a", "which stars orbit nothing ?", "ASK WHERE { <e:a> <p:p> <e:b> }"),
        make_instance("t-b", "does gravity hold here ?", "ASK WHERE { <e:c> <p:p> <e:d> }"),
    ]
    index = attribution.build_index(train, [industry_template])
    model = baselines.train_memorizer(train, [industry_template], index)
    question = qlang.tokenize_nlq("does gravity hold there ?")

    def jaccard(a, b):
        a, b = set(a), set(b)
        return len(a & b) / len(a | b)

    best = max(train, key=lambda i: jaccard(question, i.pair.nlq))
    assert baselines.memorizer_predict(model, question) == best.pair.query_text.split()
    assert best.id == "t-b"


def test_predict_fallback_tie_breaks_on_lowest_id(industry_template):
    train = [
        make_instance("z-late", "alpha beta gamma ?", "ASK WHERE { <e:z> <p:p> <e:z2> }"),
        make_instance("a-early", "alpha beta gamma ?", "ASK WHERE { <e:a> <p:p> <e:a2> }"),
    ]
    index = attribution.build_index(train, [industry_template])
    model = baselines.train_memorizer(train, [industry_template], index)
    predicted = baselines.memorizer_predict(model, qlang.tokenize_nlq("alpha beta gamma ?"))
    assert predicted == train[1].pair.query_text.split()


def test_predict_prefers_template_with_fewest_slot_tokens(industry_template, toy_data):
    # toy corpus: every instance should be reproduced exactly by prediction
    # when its template is seen and all labels were harvested
    split_instances = toy_data.instances[:300]
    index = toy_data.index
    model = baselines.train_memorizer(split_instances, toy_data.templates, index)
    for inst in split_instances[::23]:
        predicted = baselines.memorizer_predict(model, inst.pair.nlq)
        assert predicted == qlang.serialize(inst.pair.query_ast).split()


def _instance(instance_id, tokens, n):
    """A train instance with the given question tokens, case kept as given."""
    query = f"ASK WHERE {{ <e:n{n}> <p:p> <e:x> }}"
    return corpus.Instance(id=instance_id, pair=corpus.QAPair(tuple(tokens), query, qlang.parse_query(query)))


def _jaccard(a, b):
    a, b = set(a), set(b)
    return len(a & b) / len(a | b) if a | b else 0.0


def test_predict_fallback_ties_across_fractions_go_to_lowest_id(industry_template):
    # 1/2 and 2/4 are the same double: both instances tie and the lower id wins
    train = [_instance("z-half", ["alpha"], 0), _instance("m-half", ["alpha", "beta", "x", "y"], 1),
             _instance("a-third", ["alpha", "q", "r"], 2)]
    index = attribution.build_index(train, [industry_template])
    model = baselines.train_memorizer(train, [industry_template], index)
    question = ("alpha", "beta", "alpha")
    assert _jaccard(question, train[0].pair.nlq) == _jaccard(question, train[1].pair.nlq) == 0.5
    assert baselines.memorizer_predict(model, question) == train[1].pair.query_text.split()
    assert ref_memorizer_predict(model, question) == train[1].pair.query_text.split()


def test_predict_fallback_without_overlap_takes_lowest_id(industry_template):
    train = [_instance("b", ["alpha"], 0), _instance("a", ["beta", "gamma"], 1), _instance("c", ["x"], 2)]
    index = attribution.build_index(train, [industry_template])
    model = baselines.train_memorizer(train, [industry_template], index)
    for question in (("never", "seen", "?"), ("ALPHA",), ()):
        assert baselines.memorizer_predict(model, question) == train[1].pair.query_text.split()
        assert ref_memorizer_predict(model, question) == train[1].pair.query_text.split()


def test_predict_prefilter_casefolds_template_words(industry_template):
    # "straße", "Straße" and "STRASSE" are equal only under casefold, not under lower()
    template = dataclasses.replace(industry_template, nlq_pattern=qlang.NlqPattern.from_tokens(
        ["is", "<B>", "in", "the", "<A>", "straße", "?"]))
    inst = make_instance("i1", "Is robot comics in the publishing straße?", COMICS_INSTANCE_QUERY,
                         origin=template.id)
    index = attribution.build_index([inst], [template])
    model = baselines.train_memorizer([inst], [template], index)
    expected = qlang.serialize(qlang.parse_query(AIRCRAFT_INSTANCE_QUERY)).split()
    for word in ("STRASSE", "Straße"):
        question = ("IS", "Tiger", "aircraft", "In", "THE", "aerospace", word, "?")
        assert baselines.memorizer_predict(model, question) == expected
        assert ref_memorizer_predict(model, question) == expected


_NOISE_WORDS = ["alpha", "beta", "gamma", "rook", "one", "two", "q1", "q2", "q3", "?"]


def _case_variant(rnd, tokens):
    return tuple(rnd.choice((t, t.upper(), t.title())) for t in tokens)


def _memorizer_case(rnd):
    """A random memorizer with held-out templates, noisy train and mixed questions."""
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
    model = baselines.train_memorizer(train, templates, index)
    questions = [inst.pair.nlq for inst in instances]
    questions += [_case_variant(rnd, q) for q in questions]
    questions += [tuple(rnd.choice(_NOISE_WORDS + ["unseen", "zzz"]) for _ in range(rnd.randrange(1, 8)))
                  for _ in range(10)]
    questions += [("unseen", "zzz", "unseen"), ()]
    return model, questions


def test_predict_equals_linear_scan_on_random_corpora():
    seen = {"template": 0, "fraction_tie": 0, "no_overlap": 0, "repeated": 0, "case_variant": 0}
    for case in range(500):
        rnd = random.Random(case)
        model, questions = _memorizer_case(rnd)
        train_tokens = {t for inst in model.fallback for t in inst.pair.nlq}
        for question in questions:
            expected = ref_memorizer_predict(model, question)
            assert baselines.memorizer_predict(model, question) == expected, (case, question)
            matched = [tid for tid, t in model.templates.items()
                       if qlang.match_nlq(t.nlq_pattern, question) is not None]
            seen["template"] += bool(matched)
            seen["repeated"] += len(set(question)) < len(question)
            seen["case_variant"] += bool(matched) and any(t != t.lower() for t in question)
            if matched or not model.fallback:
                continue
            seen["no_overlap"] += not set(question) & train_tokens
            scores = [(_jaccard(question, inst.pair.nlq), len(set(question) & set(inst.pair.nlq)))
                      for inst in model.fallback]
            best = max(score for score, _ in scores)
            seen["fraction_tie"] += best > 0 and len({o for score, o in scores if score == best}) > 1
    assert min(seen.values()) >= 20, seen


def test_predict_equals_linear_scan_on_default_sanitized_split(toy_data, toy_config):
    seed_test = experiments.seed_split_ids(toy_data, toy_config)
    tsplit = partitioner.split_templates(toy_data.templates, toy_data.seeds, seed_test)
    split = partitioner.sanitized_partition(toy_data.instances, tsplit, toy_data.index,
                                            toy_config.rng_seeds[0])
    model = baselines.train_memorizer(split.train, toy_data.templates, toy_data.index)
    assert len(split.test) > 500
    for inst in split.test:
        assert baselines.memorizer_predict(model, inst.pair.nlq) == ref_memorizer_predict(model, inst.pair.nlq)


# ---------------------------------------------------------------------------
# n-gram language model
# ---------------------------------------------------------------------------

def test_lm_repeated_sentence_perplexity_tends_to_1():
    sentence = ["ASK", "WHERE", "{", "<a>", "<b>", "<c>", "}"]
    lm = baselines.train_ngram_lm([sentence] * 50, order=3, k=1e-9)
    assert baselines.lm_perplexity(lm, [sentence]) == pytest.approx(1.0, abs=1e-4)


def test_lm_uniform_unigram_tends_to_vocab_size():
    # one long sentence over 8 equally frequent symbols: with k -> 0 the
    # per-token perplexity approaches the symbol count once the
    # end-of-sentence event is amortized away
    symbols = [f"s{i}" for i in range(8)]
    length = 400
    sentence = [symbols[i % 8] for i in range(length)]
    lm = baselines.train_ngram_lm([sentence], order=1, k=1e-12)
    p_sym = (length / 8) / (length + 1)
    p_eos = 1 / (length + 1)
    expected = math.exp(-(length * math.log(p_sym) + math.log(p_eos)) / (length + 1))
    got = baselines.lm_perplexity(lm, [sentence])
    assert got == pytest.approx(expected, rel=1e-6)
    assert got == pytest.approx(8.0, rel=0.05)


def test_lm_two_sentence_bigram_hand_computed():
    # corpus: "x y" and "x z"; order 2, k = 0.1
    # vocab = {x, y, z, </s>, <unk>}, so V = 5
    lm = baselines.train_ngram_lm([["x", "y"], ["x", "z"]], order=2, k=0.1)
    v = 5
    p_x_bos = (2 + 0.1) / (2 + 0.1 * v)       # context (<s>,): x seen twice
    p_y_x = (1 + 0.1) / (2 + 0.1 * v)         # context (x,): y once of two
    p_eos_y = (1 + 0.1) / (1 + 0.1 * v)       # context (y,): only </s>
    expected = [p_x_bos, p_y_x, p_eos_y]
    scored = baselines.score_sentence(lm, ["x", "y"])
    assert scored == pytest.approx([math.log(p) for p in expected])
    expected_ppl = math.exp(-sum(math.log(p) for p in expected) / 3)
    assert baselines.lm_perplexity(lm, [["x", "y"]]) == pytest.approx(expected_ppl)


def test_lm_backoff_on_unseen_context():
    lm = baselines.train_ngram_lm([["x", "y", "z"]], order=3, k=0.1)
    # context ("q", "q") is unseen at order 3 and ("q",) at order 2: falls
    # back to the unigram table
    v = lm.vocab_size
    unigram_total = lm.context_totals[1][()]
    expected = math.log((1 + 0.1) / (unigram_total + 0.1 * v))
    assert baselines.token_log_prob(lm, ["q", "q"], "x") == pytest.approx(expected)


def test_lm_unknown_tokens_map_to_unk():
    lm = baselines.train_ngram_lm([["x", "y"]], order=2, k=0.5)
    lp = baselines.token_log_prob(lm, ["x"], "never-seen")
    assert lp < 0
    assert lp == baselines.token_log_prob(lm, ["x"], baselines.UNK)


def test_lm_distributions_normalize():
    rnd = random.Random(3)
    vocab = [f"w{i}" for i in range(6)]
    corpus = [[rnd.choice(vocab) for _ in range(rnd.randrange(1, 7))] for _ in range(30)]
    lm = baselines.train_ngram_lm(corpus, order=3, k=0.1)
    symbols = sorted(lm.vocab)
    for history in ([], ["w0"], ["w0", "w1"], ["zzz"], ["w3", "w3"]):
        total = sum(math.exp(baselines.token_log_prob(lm, history, w)) for w in symbols)
        assert total == pytest.approx(1.0, abs=1e-9)


def test_lm_validation_errors():
    with pytest.raises(EmptyCorpus):
        baselines.train_ngram_lm([], order=2, k=0.1)
    with pytest.raises(ValueError):
        baselines.train_ngram_lm([["x"]], order=0, k=0.1)
    with pytest.raises(ValueError):
        baselines.train_ngram_lm([["x"]], order=2, k=0.0)
    for k in (math.nan, math.inf):
        with pytest.raises(ValueError, match="smoothing constant must be finite and > 0"):
            baselines.train_ngram_lm([["x"]], order=2, k=k)
    lm = baselines.train_ngram_lm([["x"]], order=2, k=0.1)
    with pytest.raises(EmptyCorpus):
        baselines.lm_perplexity(lm, [])


def test_lm_perplexity_uses_metrics_definition():
    lm = baselines.train_ngram_lm([["x", "y"], ["y", "x"]], order=2, k=0.2)
    sents = [["x", "y"], ["y"]]
    scored = [baselines.score_sentence(lm, s) for s in sents]
    assert baselines.lm_perplexity(lm, sents) == pytest.approx(metrics.perplexity(scored))
