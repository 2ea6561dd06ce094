from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_instance, random_corpus, random_template_split
from references import ref_sanitized_partition, ref_split_templates, ref_template_matches_seed
from splithygiene import attribution, corpus, experiments, partitioner, rng, synthesis
from splithygiene.errors import RatioError
from splithygiene.qlang import NlqPattern, parse_query

ASK_Q = "ASK WHERE { <e:s%d> <p:p> <e:o> }"


def _ids(instances):
    return [i.id for i in instances]


def _toy_corpus(n_templates=5, per_template=20):
    """n_templates one-slot templates, each with its own predicate and wording."""
    words = ["red", "blue", "green", "gold", "grey", "pink", "teal", "plum"]
    templates = []
    instances = []
    seeds = []
    for t in range(n_templates):
        word = words[t]
        nlq = f"does {word} touch <A> ?"
        query = f"ASK WHERE {{ <e:{word}> <p:{word}> <Placeholder:A> }}"
        template = synthesis.Template(
            id=f"t{t}",
            nlq_pattern=NlqPattern.from_text(nlq),
            query_pattern=parse_query(query),
            origin_seed_id=f"s{t}",
        )
        templates.append(template)
        seed_pair = corpus.QAPair.from_text(
            f"does {word} touch thing zero ?",
            f"ASK WHERE {{ <e:{word}> <p:{word}> <e:Thing_Zero> }}")
        seeds.append(corpus.Seed(id=f"s{t}", pair=seed_pair,
                                 surface_forms={"A": corpus.SurfaceForm(3, 5)}))
        for k in range(per_template):
            instances.append(make_instance(
                f"t{t}-i{k}",
                f"does {word} touch thing {k} ?",
                f"ASK WHERE {{ <e:{word}> <p:{word}> <e:Thing_{k}> }}",
                origin=f"t{t}",
            ))
    index = attribution.build_index(instances, templates)
    return templates, seeds, instances, index


# ---------------------------------------------------------------------------
# rng.seeded_cut
# ---------------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(n=st.integers(0, 50), seed=st.integers(0, 2**64 - 1), data=st.data())
def test_seeded_cut_blocks_are_ordered_disjoint_nested_prefixes_of_the_permutation(n, seed, data):
    items = [f"i{k}" for k in range(n, 0, -1)]
    position = {item: k for k, item in enumerate(items)}
    bounds = sorted(data.draw(st.lists(st.integers(0, n), max_size=4)))
    sizes = [b - a for a, b in zip([0] + bounds, bounds)]
    blocks = rng.seeded_cut(items, sizes, seed, "cut")
    assert [len(block) for block in blocks] == sizes
    for block in blocks:
        assert [position[item] for item in block] == sorted(position[item] for item in block)
    union = [item for block in blocks for item in block]
    assert len(set(union)) == len(union)
    order = rng.permutation(n, seed, "cut")
    assert set(union) == {items[i] for i in order[:sum(sizes)]}
    small, large = sorted(data.draw(st.tuples(st.integers(0, n), st.integers(0, n))))
    assert set(rng.seeded_cut(items, [small], seed, "cut")[0]) <= set(rng.seeded_cut(items, [large], seed, "cut")[0])


@pytest.mark.parametrize("sizes", [(-1, 3), (2, 2)])
def test_seeded_cut_rejects_sizes_that_do_not_fit(sizes):
    with pytest.raises(ValueError):
        rng.seeded_cut(["a", "b", "c"], sizes, 0, "cut")


# ---------------------------------------------------------------------------
# leaky_partition
# ---------------------------------------------------------------------------

def test_leaky_counts_match_published_split_sizes():
    ids = [f"id-{i}" for i in range(894_499)]
    split = partitioner.leaky_partition(ids, (0.8, 0.1, 0.1), rng_seed=42)
    assert split.counts == (715_600, 89_449, 89_450)


def test_leaky_counts_small():
    split = partitioner.leaky_partition([f"i{k}" for k in range(10)], (0.8, 0.1, 0.1), 0)
    assert split.counts == (8, 1, 1)


def test_leaky_deterministic_and_complete():
    items = [f"i{k}" for k in range(97)]
    a = partitioner.leaky_partition(items, (0.8, 0.1, 0.1), 5)
    b = partitioner.leaky_partition(items, (0.8, 0.1, 0.1), 5)
    assert (a.train, a.valid, a.test) == (b.train, b.valid, b.test)
    assert sorted(a.train + a.valid + a.test) == sorted(items)
    assert len(set(a.train) & set(a.valid)) == 0
    assert len(set(a.train) & set(a.test)) == 0
    assert len(set(a.valid) & set(a.test)) == 0
    c = partitioner.leaky_partition(items, (0.8, 0.1, 0.1), 6)
    assert (a.train, a.valid, a.test) != (c.train, c.valid, c.test)


@pytest.mark.parametrize("ratios, counts", [
    ((0.0, 0.5, 0.5000000001), (0, 1638, 1638)),
    ((0.0, 0.0, 1.0000000001), (0, 0, 3276)),
    ((0.8, 0.1, 0.1000000005), (2621, 327, 328)),
])
def test_leaky_ratios_inside_the_sum_tolerance_still_partition_the_input(ratios, counts):
    items = list(range(3276))
    split = partitioner.leaky_partition(items, ratios, 101)
    assert split.counts == counts
    assert sorted(split.train + split.valid + split.test) == items


@pytest.mark.parametrize("ratios", [(0.8, 0.1), (0.8, 0.2, 0.1), (-0.1, 0.6, 0.5), (0.5, 0.25, 0.2)])
def test_leaky_ratio_validation(ratios):
    with pytest.raises(RatioError):
        partitioner.leaky_partition(["a", "b"], ratios, 0)


# ---------------------------------------------------------------------------
# split_templates
# ---------------------------------------------------------------------------

def test_split_templates_routes_by_seed_membership(pizza_seed, industry_template):
    index = attribution.build_index([], [industry_template])
    tsplit = partitioner.split_templates(index, [pizza_seed], {pizza_seed.id})
    assert industry_template.id in tsplit.test_template_ids
    assert set(index.templates) - tsplit.test_template_ids == set()


def test_split_templates_empty_test_ids():
    templates, seeds, _, index = _toy_corpus()
    tsplit = partitioner.split_templates(index, seeds, set())
    assert tsplit.test_template_ids == frozenset()
    assert set(index.templates) - tsplit.test_template_ids == {t.id for t in templates}


def test_split_templates_two_matching_test_seeds():
    templates, seeds, _, index = _toy_corpus(n_templates=8)
    # brute-force expectation: template t goes to test iff it matches a test seed
    test_seed_ids = {"s2", "s5"}
    expected_test = {
        t.id for t in templates
        if any(ref_template_matches_seed(t, s) for s in seeds if s.id in test_seed_ids)
    }
    tsplit = partitioner.split_templates(index, seeds, test_seed_ids)
    assert tsplit.test_template_ids == expected_test == {"t2", "t5"}
    assert len(set(index.templates) - tsplit.test_template_ids) == 6


def test_split_templates_equals_the_all_pairs_rule_on_toy_and_scaled_seeds(toy_data, scaled_world):
    # a renamed copy of every fifth seed can land on the other side of its twin
    seen_both = 0
    for data in (toy_data, scaled_world[1]):
        seeds = data.seeds + [dataclasses.replace(s, id=f"{s.id}-twin") for s in data.seeds[::5]]
        for fraction, rng_seed in ((0.2, 101), (0.5, 7), (0.9, 8)):
            held_out = set(experiments.held_out_seed_ids(seeds, fraction, rng_seed))
            expected = ref_split_templates(data.templates, seeds, held_out)
            # the corpus table holds every seed skeleton; a table with no corpus matches each one afresh
            for index in (data.index, attribution.build_index([], data.templates)):
                tsplit = partitioner.split_templates(index, seeds, held_out)
                train = set(index.templates) - tsplit.test_template_ids
                assert (train, tsplit.test_template_ids, tsplit.both_matched_ids) == expected
            assert train and tsplit.test_template_ids
            seen_both += bool(tsplit.both_matched_ids)
    assert seen_both, "no split had a template matching seeds on both sides"


def test_split_templates_both_sides_goes_to_test(pizza_seed, industry_template):
    import dataclasses
    train_twin = dataclasses.replace(pizza_seed, id="train-twin")
    tsplit = partitioner.split_templates(
        attribution.build_index([], [industry_template]), [pizza_seed, train_twin], {pizza_seed.id})
    assert industry_template.id in tsplit.test_template_ids
    assert industry_template.id in tsplit.both_matched_ids


# ---------------------------------------------------------------------------
# sanitized_partition
# ---------------------------------------------------------------------------

def test_sanitized_counts_on_unambiguous_corpus():
    templates, seeds, instances, index = _toy_corpus(n_templates=5, per_template=20)
    tsplit = partitioner.split_templates(index, seeds, {"s0"})
    split = partitioner.sanitized_partition(instances, tsplit, index, rng_seed=3)
    assert split.counts == (72, 8, 20)
    assert all(i.origin_template_id == "t0" for i in split.test)


def _same_wording_templates():
    """Two templates sharing an NLQ pattern but using different predicates."""
    out = []
    for tid, pred in (("tA", "p:red"), ("tB", "p:blue")):
        out.append(synthesis.Template(
            id=tid,
            nlq_pattern=NlqPattern.from_text("does red touch <A> ?"),
            query_pattern=parse_query(f"ASK WHERE {{ <e:red> <{pred}> <Placeholder:A> }}"),
            origin_seed_id=f"seed-{tid}",
        ))
    return out


def test_sanitized_ambiguous_instances_stay_in_train_pool():
    templates = _same_wording_templates()
    instances = [
        make_instance(f"a{k}", f"does red touch item {k} ?",
                      f"ASK WHERE {{ <e:red> <p:red> <e:Item_{k}> }}")
        for k in range(4)
    ] + [
        make_instance(f"b{k}", f"does red touch item {10 + k} ?",
                      f"ASK WHERE {{ <e:red> <p:blue> <e:Item_{10 + k}> }}")
        for k in range(4)
    ] + [
        make_instance(
            "both", "does red touch thing x ?",
            "ASK WHERE { <e:red> <p:red> <e:Thing_X> . <e:red> <p:blue> <e:Thing_X> }"),
    ]
    index = attribution.build_index(instances, templates)
    assert set(index.attributed("both")) == {"tA", "tB"}
    tsplit = partitioner.TemplateSplit(test_template_ids=frozenset({"tA"}))
    split = partitioner.sanitized_partition(instances, tsplit, index, rng_seed=3)
    assert "both" in _ids(split.train) + _ids(split.valid)
    # the pooled ambiguous instance carries tA, so the tA-only candidates are
    # demoted too and the test split drains rather than leak
    assert split.counts[2] == 0
    # held out with every template it is attributed to, the ambiguous instance reaches test
    tsplit = partitioner.TemplateSplit(test_template_ids=frozenset({"tA", "tB"}))
    split = partitioner.sanitized_partition(instances, tsplit, index, rng_seed=3)
    assert set(_ids(split.test)) == set(_ids(instances))


def test_sanitized_unattributed_instances_never_reach_test():
    templates, seeds, instances, index = _toy_corpus()
    stray = make_instance("stray", "nothing like the rest ?", ASK_Q % 0)
    all_instances = instances + [stray]
    index = attribution.build_index(all_instances, templates)
    tsplit = partitioner.split_templates(index, seeds, {"s0"})
    split = partitioner.sanitized_partition(all_instances, tsplit, index, rng_seed=3)
    assert "stray" in _ids(split.train) + _ids(split.valid)


def test_sanitized_no_shared_template_cross_product():
    templates, seeds, instances, index = _toy_corpus(n_templates=6, per_template=15)
    tsplit = partitioner.split_templates(index, seeds, {"s1", "s4"})
    split = partitioner.sanitized_partition(instances, tsplit, index, rng_seed=8)
    assert split.counts[2] == 30
    train_pool = list(split.train) + list(split.valid)
    for t_inst in split.test:
        for p_inst in train_pool:
            shared = set(index.attributed(t_inst.id)) & set(index.attributed(p_inst.id))
            assert not shared


def test_sanitized_invariant_on_random_corpora_with_demotion():
    rnd = random.Random(2024)
    demoted_somewhere = False
    for _ in range(40):
        _, templates, instances, index = random_corpus(rnd)
        if not instances:
            continue
        tsplit = random_template_split(rnd, templates)
        split = partitioner.sanitized_partition(instances, tsplit, index, rnd.randrange(100))
        assert sorted(_ids(split.train) + _ids(split.valid) + _ids(split.test)) == sorted(_ids(instances))
        pool_templates = {t for i in list(split.train) + list(split.valid)
                          for t in index.attributed(i.id)}
        for t_inst in split.test:
            assert not (set(index.attributed(t_inst.id)) & pool_templates)
        candidates = [i for i in instances
                      if set(index.attributed(i.id)) & tsplit.test_template_ids
                      and not set(index.attributed(i.id)) & (set(index.templates) - tsplit.test_template_ids)
                      and index.attributed(i.id)]
        if len(split.test) < len(candidates):
            demoted_somewhere = True
    assert demoted_somewhere, "expected at least one corpus to exercise demotion"


def _same_split_as_the_two_set_rule(instances, tsplit, index, rng_seed):
    split = partitioner.sanitized_partition(instances, tsplit, index, rng_seed)
    train = set(index.templates) - tsplit.test_template_ids
    expected = ref_sanitized_partition(instances, train, tsplit.test_template_ids, index, rng_seed)
    assert [_ids(part) for part in (split.train, split.valid, split.test)] == [_ids(part) for part in expected]
    return split


def test_one_held_out_set_splits_as_the_two_set_rule_on_random_corpora():
    # any held-out set, none and every template included: the train side is the rest of the index's templates;
    # a stray question that no template matches is unattributed, so it meets neither side
    rnd = random.Random(30)
    tested = 0
    for _ in range(40):
        _, templates, instances, _ = random_corpus(rnd)
        instances.insert(rnd.randrange(len(instances) + 1), make_instance("stray", "zzz qqq ?", ASK_Q % 0))
        index = attribution.build_index(instances, templates)
        for share in (0.0, rnd.random(), 1.0):
            tsplit = partitioner.TemplateSplit(frozenset(t.id for t in templates if rnd.random() < share))
            tested += bool(_same_split_as_the_two_set_rule(instances, tsplit, index, rnd.randrange(100)).test)
    assert tested > 20


def test_one_held_out_set_splits_as_the_two_set_rule_on_toy_and_scaled_seed_splits(toy_data, scaled_world):
    for data in (toy_data, scaled_world[1]):
        for fraction, rng_seed in ((0.2, 101), (0.5, 7), (0.9, 8)):
            held_out = experiments.held_out_seed_ids(data.seeds, fraction, rng_seed)
            tsplit = partitioner.split_templates(data.index, data.seeds, held_out)
            split = _same_split_as_the_two_set_rule(data.instances, tsplit, data.index, rng_seed)
            assert split.test and split.train


def test_sanitized_deterministic():
    templates, seeds, instances, index = _toy_corpus()
    tsplit = partitioner.split_templates(index, seeds, {"s0", "s3"})
    a = partitioner.sanitized_partition(instances, tsplit, index, rng_seed=11)
    b = partitioner.sanitized_partition(instances, tsplit, index, rng_seed=11)
    assert (_ids(a.train), _ids(a.valid), _ids(a.test)) == (_ids(b.train), _ids(b.valid), _ids(b.test))


# ---------------------------------------------------------------------------
# subsample_train
# ---------------------------------------------------------------------------

def test_subsample_full_fraction_is_identity():
    split = partitioner.leaky_partition([f"i{k}" for k in range(40)], (0.8, 0.1, 0.1), 1)
    assert partitioner.subsample_train(split, 1.0, 5) == split


def test_subsample_floor_rule():
    items = [make_instance(f"i{k}", f"thing {k} ?", ASK_Q % k) for k in range(180)]
    split = partitioner.Split3(train=tuple(items[:160]), valid=tuple(items[160:170]),
                               test=tuple(items[170:]))
    sub = partitioner.subsample_train(split, 0.25, 7)
    assert len(sub.train) == 40
    assert sub.valid == split.valid and sub.test == split.test


def test_subsample_nested_across_fractions():
    split = partitioner.leaky_partition([f"i{k}" for k in range(400)], (0.8, 0.1, 0.1), 2)
    samples = {f: set(partitioner.subsample_train(split, f, rng_seed=13).train)
               for f in (0.125, 0.25, 0.5, 1.0)}
    assert samples[0.125] < samples[0.25] < samples[0.5] < samples[1.0]
    assert samples[1.0] == set(split.train)


@pytest.mark.parametrize("fraction", [0.0, -0.5, 1.2, float("nan"), float("inf")])
def test_subsample_fraction_validation(fraction):
    split = partitioner.leaky_partition(["a", "b", "c"], (0.8, 0.1, 0.1), 0)
    with pytest.raises(RatioError):
        partitioner.subsample_train(split, fraction, 0)


# ---------------------------------------------------------------------------
# seen_fractions
# ---------------------------------------------------------------------------

def _brute_seen_fraction(split, part, index):
    seen = {t for inst in split.train for t in index.attributed(inst.id)}
    return sum(1 for inst in part if set(index.attributed(inst.id)) & seen) / len(part) if part else 0.0


def test_leakage_zero_on_sanitized_split():
    templates, _, instances, index = _toy_corpus()
    tsplit = partitioner.TemplateSplit(test_template_ids=frozenset({"t0"}))
    split = partitioner.sanitized_partition(instances, tsplit, index, rng_seed=4)
    stats = partitioner.seen_fractions(split, index)
    assert stats["test"] == 0.0
    assert stats["valid"] == 1.0


def test_leakage_one_on_leaky_toy_split():
    templates, _, instances, index = _toy_corpus()
    split = partitioner.leaky_partition(instances, (0.8, 0.1, 0.1), rng_seed=12)
    # brute-force expectation over the attribution sets
    seen = {t for inst in split.train for t in index.attributed(inst.id)}
    expected = sum(1 for inst in split.test if set(index.attributed(inst.id)) & seen) / len(split.test)
    stats = partitioner.seen_fractions(split, index)
    assert stats["test"] == pytest.approx(expected)
    assert stats["test"] == 1.0


def test_leakage_is_zero_on_empty_splits():
    templates, _, instances, index = _toy_corpus(n_templates=2, per_template=3)
    split = partitioner.Split3(train=tuple(instances), valid=(), test=())
    stats = partitioner.seen_fractions(split, index)
    assert stats["test"] == 0.0
    assert stats["valid"] == 0.0


def test_seen_fractions_equal_a_brute_force_count_on_random_corpora():
    # subsuming random templates make ambiguous rows, which the toy corpus never has; a small
    # train sample leaves some of them with one template seen and another not
    rnd = random.Random(41)
    partly_seen = leaked = 0
    for _ in range(40):
        _, templates, instances, index = random_corpus(rnd)
        tsplit = random_template_split(rnd, templates)
        leaky = partitioner.leaky_partition(instances, (0.8, 0.1, 0.1), rnd.randrange(100))
        for split in (leaky, partitioner.subsample_train(leaky, 0.1, rnd.randrange(100)),
                      partitioner.sanitized_partition(instances, tsplit, index, rnd.randrange(100))):
            stats = partitioner.seen_fractions(split, index)
            assert list(stats) == ["valid", "test"]
            seen = {t for inst in split.train for t in index.attributed(inst.id)}
            for name, part in (("valid", split.valid), ("test", split.test)):
                assert stats[name] == _brute_seen_fraction(split, part, index)
                partly_seen += sum(1 for inst in part if set(index.attributed(inst.id)) & seen
                                   and not set(index.attributed(inst.id)) <= seen)
            leaked += stats["test"] > 0
    assert partly_seen and leaked


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

def test_diagnostics_counters():
    templates, seeds, instances, index = _toy_corpus(n_templates=3, per_template=5)
    stray = make_instance("stray", "nothing like the rest ?", ASK_Q % 0)
    all_instances = instances + [stray]
    index = attribution.build_index(all_instances, templates)
    tsplit = partitioner.split_templates(index, seeds, {"s0"})
    split = partitioner.sanitized_partition(all_instances, tsplit, index, rng_seed=3)
    diag = partitioner.diagnostics(split, index, tsplit)
    assert diag["unattributed_count"] == 1
    assert diag["ambiguous_count"] == 0
    assert diag["template_histograms"]["test"] == {"t0": 5}


def test_diagnostics_equal_a_per_instance_count_on_random_corpora():
    rnd = random.Random(77)
    ambiguous_somewhere = False
    for _ in range(30):
        _, templates, instances, index = random_corpus(rnd)
        tsplit = random_template_split(rnd, templates)
        split = partitioner.sanitized_partition(instances, tsplit, index, rnd.randrange(100))
        diag = partitioner.diagnostics(split, index)
        every = list(split.train) + list(split.valid) + list(split.test)
        assert diag["ambiguous_count"] == sum(1 for i in every if i.id in index.ambiguous_ids)
        assert diag["unattributed_count"] == sum(1 for i in every if not index.attributed(i.id))
        for name, part in (("train", split.train), ("valid", split.valid), ("test", split.test)):
            hist: dict[str, int] = {}
            for inst in part:
                for tid in index.attributed(inst.id):
                    hist[tid] = hist.get(tid, 0) + 1
            assert list(diag["template_histograms"][name].items()) == sorted(hist.items())
        ambiguous_somewhere |= diag["ambiguous_count"] > 0
    assert ambiguous_somewhere
