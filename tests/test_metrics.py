from __future__ import annotations

import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import make_instance
from splithygiene import attribution, metrics, partitioner
from splithygiene.errors import EmptyCorpus, InvalidLogProb
from references import ref_corpus_bleu

ASK_Q = "ASK WHERE { <e:s%d> <p:p> <e:o> }"


# ---------------------------------------------------------------------------
# corpus_bleu
# ---------------------------------------------------------------------------

def test_bleu_identity_is_100():
    sents = [["ASK", "WHERE", "{", "<a>", "<b>", "<c>", "}"],
             ["SELECT", "DISTINCT", "?x", "WHERE", "{", "?x", "<p>", "<o>", "}"]]
    report = metrics.corpus_bleu(sents, sents)
    assert report.bleu == pytest.approx(100.0)
    assert report.brevity_penalty == 1.0
    assert report.precisions == (1.0, 1.0, 1.0, 1.0)


def test_bleu_zero_when_no_unigram_overlap():
    cands = [["a", "b", "c", "d"], ["e", "f", "g", "h"]]
    refs = [["w", "x", "y", "z"], ["p", "q", "r", "s"]]
    assert metrics.corpus_bleu(cands, refs).bleu == 0.0


def test_bleu_clipped_unigrams_and_zero_p4():
    # candidate "the the the cat" against reference "the cat sat down":
    # clipping caps "the" at its single reference occurrence, so the unigram
    # precision is (1+1)/4; there is no common 4-gram, so the score is 0
    cand = ["the", "the", "the", "cat"]
    ref = ["the", "cat", "sat", "down"]
    expected = ref_corpus_bleu([cand], [ref])
    assert expected["precisions"][0] == 0.5
    report = metrics.corpus_bleu([cand], [ref])
    assert report.precisions[0] == pytest.approx(expected["precisions"][0])
    assert report.precisions[3] == 0.0
    assert report.bleu == 0.0


def test_bleu_brevity_penalty_applies_to_short_candidates():
    cand = [["the", "cat"]]
    ref = [["the", "cat", "sat", "down"]]
    report = metrics.corpus_bleu(cand, ref)
    assert report.brevity_penalty == pytest.approx(math.exp(1 - 4 / 2))
    assert report.candidate_len == 2 and report.reference_len == 4


def test_bleu_empty_corpus_raises():
    with pytest.raises(EmptyCorpus):
        metrics.corpus_bleu([], [])


def test_bleu_length_mismatch_raises():
    with pytest.raises(ValueError):
        metrics.corpus_bleu([["a"]], [["a"], ["b"]])


def _random_corpus_pair(rnd, max_pairs=20, max_len=15):
    vocab = ["a", "b", "c", "d", "e", "f"]
    n = rnd.randrange(1, max_pairs + 1)
    cands = [[rnd.choice(vocab) for _ in range(rnd.randrange(0, max_len + 1))] for _ in range(n)]
    refs = [[rnd.choice(vocab) for _ in range(rnd.randrange(1, max_len + 1))] for _ in range(n)]
    return cands, refs


def test_bleu_matches_reference_on_random_corpora():
    rnd = random.Random(7)
    for _ in range(300):
        cands, refs = _random_corpus_pair(rnd)
        expected = ref_corpus_bleu(cands, refs)
        report = metrics.corpus_bleu(cands, refs)
        assert report.bleu == pytest.approx(expected["bleu"], abs=1e-9)
        assert list(report.precisions) == pytest.approx(expected["precisions"], abs=1e-12)
        assert report.brevity_penalty == pytest.approx(expected["bp"], abs=1e-12)


def test_bleu_equals_reference_exactly_when_most_pairs_are_identical():
    # identical pairs take the counting shortcut; short ones have no n-grams at the higher orders
    rnd = random.Random(9)
    short_identical = 0
    for _ in range(300):
        cands, refs = _random_corpus_pair(rnd, max_len=6)
        for i in rnd.sample(range(len(refs)), (len(refs) + 1) // 2 + rnd.randrange(len(refs) // 2 + 1)):
            cands[i] = list(refs[i])
            short_identical += len(refs[i]) < 4
        assert sum(c == r for c, r in zip(cands, refs)) * 2 >= len(refs)
        expected = ref_corpus_bleu(cands, refs)
        report = metrics.corpus_bleu(cands, refs)
        assert report.bleu == expected["bleu"]
        assert list(report.precisions) == expected["precisions"]
        assert report.brevity_penalty == expected["bp"]
        assert (report.candidate_len, report.reference_len) == (expected["candidate_len"], expected["reference_len"])
    assert short_identical >= 100


_TOKEN = st.one_of(st.sampled_from(["a", "b", "c", "?", "{", "}"]), st.integers(0, 2**17).map(lambda i: f"w{i}"))
_SENTENCE = st.lists(_TOKEN, max_size=60)


@st.composite
def _bleu_pair(draw):
    """A candidate and a reference: equal, one side empty, an edit of the candidate, or unrelated."""
    cand = draw(_SENTENCE)
    kind = draw(st.sampled_from(["same", "empty reference", "empty candidate", "edited", "unrelated"]))
    if kind == "same":
        return cand, list(cand)
    if kind == "empty reference":
        return cand, []
    if kind == "empty candidate":
        return [], cand
    if kind == "edited":
        ref = list(cand)
        for _ in range(draw(st.integers(0, 4))):
            if ref:
                del ref[draw(st.integers(0, len(ref) - 1))]
            ref.insert(draw(st.integers(0, len(ref))), draw(_TOKEN))
        return cand, ref
    return cand, draw(_SENTENCE)


def _wide_corpus(pairs=200, length=340):
    """More than 2**16 distinct tokens, first seen in the order v0, v1, ...

    Each reference is a shuffle of its candidate. The last pair holds the
    tokens first seen 2**16 apart, which a 16-bit token id would conflate.
    """
    rnd = random.Random(13)
    out = []
    for p in range(pairs):
        cand = [f"v{p * length + i}" for i in range(length)]
        out.append((cand, rnd.sample(cand, length)))
    assert pairs * length > 2**16 + 1
    out.append((["v0", "v1"], [f"v{2**16}", f"v{2**16 + 1}"]))
    return out


@settings(max_examples=60, deadline=None)
@given(pairs=st.lists(_bleu_pair(), min_size=1, max_size=25))
@example(pairs=_wide_corpus())
def test_bleu_equals_the_reference_on_generated_corpora(pairs):
    # one vocabulary over more than 2**16 tokens, and mixes of equal, empty and edited pairs
    cands, refs = [c for c, _ in pairs], [r for _, r in pairs]
    expected = ref_corpus_bleu(cands, refs)
    report = metrics.corpus_bleu(cands, refs)
    assert report.bleu == expected["bleu"]
    assert list(report.precisions) == expected["precisions"]
    assert report.brevity_penalty == expected["bp"]
    assert (report.candidate_len, report.reference_len) == (expected["candidate_len"], expected["reference_len"])


def test_bleu_invariant_under_pair_permutation():
    rnd = random.Random(8)
    cands, refs = _random_corpus_pair(rnd, max_pairs=12)
    base = metrics.corpus_bleu(cands, refs).bleu
    order = list(range(len(cands)))
    for _ in range(5):
        rnd.shuffle(order)
        shuffled = metrics.corpus_bleu([cands[i] for i in order], [refs[i] for i in order]).bleu
        assert shuffled == pytest.approx(base, abs=1e-12)


# ---------------------------------------------------------------------------
# perplexity
# ---------------------------------------------------------------------------

def test_perplexity_certain_model_is_1():
    assert metrics.perplexity([[0.0, 0.0], [0.0]]) == pytest.approx(1.0)


def test_perplexity_uniform_16_symbols():
    lp = math.log(1 / 16)
    assert metrics.perplexity([[lp] * 5, [lp] * 3]) == pytest.approx(16.0)


def test_perplexity_two_token_closed_form():
    assert metrics.perplexity([[math.log(0.5), math.log(1 / 8)]]) == pytest.approx(4.0)


def test_perplexity_rejects_bad_log_probs():
    with pytest.raises(InvalidLogProb):
        metrics.perplexity([[0.1]])
    with pytest.raises(InvalidLogProb):
        metrics.perplexity([[float("nan")]])
    with pytest.raises(InvalidLogProb):
        metrics.perplexity([[float("-inf")]])


def test_perplexity_rejects_empty_input():
    with pytest.raises(EmptyCorpus):
        metrics.perplexity([])
    with pytest.raises(EmptyCorpus):
        metrics.perplexity([[]])


def test_perplexity_at_least_1_for_probabilities():
    rnd = random.Random(9)
    for _ in range(50):
        sents = [[math.log(rnd.uniform(1e-6, 1.0)) for _ in range(rnd.randrange(1, 8))]
                 for _ in range(rnd.randrange(1, 5))]
        assert metrics.perplexity(sents) >= 1.0


# ---------------------------------------------------------------------------
# leakage_report
# ---------------------------------------------------------------------------

def _toy_split_corpus(n_templates=5, per_template=20):
    from splithygiene.qlang import NlqPattern, parse_query
    from splithygiene import synthesis
    words = ["red", "blue", "green", "gold", "grey"]
    templates, instances = [], []
    for t in range(n_templates):
        word = words[t]
        ast = parse_query(f"ASK WHERE {{ <e:{word}> <p:{word}> <Placeholder:A> }}")
        templates.append(synthesis.Template(
            id=f"t{t}", nlq_pattern=NlqPattern.from_text(f"does {word} touch <A> ?"),
            query_pattern=ast, origin_seed_id=f"s{t}"))
        for k in range(per_template):
            instances.append(make_instance(
                f"t{t}-i{k}", f"does {word} touch thing {k} ?",
                f"ASK WHERE {{ <e:{word}> <p:{word}> <e:Thing_{k}> }}", origin=f"t{t}"))
    return templates, instances, attribution.build_index(instances, templates)


def test_leakage_zero_on_sanitized_split():
    templates, instances, index = _toy_split_corpus()
    tsplit = partitioner.TemplateSplit(
        train_template_ids=frozenset({"t1", "t2", "t3", "t4"}),
        test_template_ids=frozenset({"t0"}))
    split = partitioner.sanitized_partition(instances, tsplit, index, rng_seed=4)
    stats = metrics.leakage_report(split, index)
    assert stats.test_seen_fraction == 0.0
    assert stats.valid_seen_fraction == 1.0


def test_leakage_one_on_leaky_toy_split():
    templates, instances, index = _toy_split_corpus()
    split = partitioner.leaky_partition(instances, (0.8, 0.1, 0.1), rng_seed=12)
    # brute-force expectation over the attribution sets
    seen = {t for inst in split.train for t in index.attributed(inst.id)}
    expected = sum(1 for inst in split.test if set(index.attributed(inst.id)) & seen) / len(split.test)
    stats = metrics.leakage_report(split, index)
    assert stats.test_seen_fraction == pytest.approx(expected)
    assert stats.test_seen_fraction == 1.0


def test_leakage_is_zero_on_empty_splits():
    templates, instances, index = _toy_split_corpus(n_templates=2, per_template=3)
    split = partitioner.Split3(train=tuple(instances), valid=(), test=())
    stats = metrics.leakage_report(split, index)
    assert stats.test_seen_fraction == 0.0
    assert stats.valid_seen_fraction == 0.0

