"""Acceptance suite: one test per release criterion, one printed line each.

Run with plain `pytest`; the PASS lines are emitted outside capture so they
always reach the terminal. Every tolerance is pinned here, not configurable.
"""

from __future__ import annotations

import itertools
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import random_corpus, random_template_split
from references import ref_corpus_bleu, ref_eval, ref_match_nlq
from splithygiene import baselines, experiments, kgstore, metrics, partitioner, qlang
from test_kgstore import _random_case
from test_qlang import _all_patterns


def _announce(capsys, number: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        status = "PASS" if ok else "FAIL"
        print(f"\nACCEPTANCE {status} [{number}] {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def sanitized_world(toy_data, toy_config):
    seed_test = experiments.seed_split_ids(toy_data, toy_config)
    tsplit, split = experiments._sanitized_split(toy_data, toy_config, seed_test)
    return seed_test, tsplit, split


def test_criterion_1_split_arithmetic(capsys):
    ids = [f"id-{i}" for i in range(894_499)]
    started = time.perf_counter()
    split = partitioner.leaky_partition(ids, (0.8, 0.1, 0.1), rng_seed=20)
    elapsed = time.perf_counter() - started
    ok = split.counts == (715_600, 89_449, 89_450) and elapsed < 5.0
    _announce(capsys, 1, ok,
              f"split arithmetic: counts={split.counts}, {elapsed:.2f}s (< 5 s)")


def test_criterion_2_sanitization_invariant(capsys, toy_data, toy_config, sanitized_world):
    started = time.perf_counter()
    _, _, sanitized = sanitized_world
    toy_leak = metrics.leakage_report(sanitized, toy_data.index).test_seen_fraction
    failures = []
    if toy_leak != 0.0:
        failures.append(f"toy corpus leaked {toy_leak}")
    rnd = random.Random(20_26)
    checked = 0
    while checked < 100:
        _, templates, instances, index = random_corpus(rnd)
        if not instances:
            continue
        checked += 1
        tsplit = random_template_split(rnd, templates)
        split = partitioner.sanitized_partition(instances, tsplit, index, rnd.randrange(1000))
        leak = metrics.leakage_report(split, index).test_seen_fraction
        if leak != 0.0:
            failures.append(f"random corpus #{checked} leaked {leak}")
    leaky_fractions = []
    for seed in toy_config.rng_seeds:
        leaky = partitioner.leaky_partition(toy_data.instances, toy_config.ratios, seed)
        leaky_fractions.append(metrics.leakage_report(leaky, toy_data.index).test_seen_fraction)
    if min(leaky_fractions) < 0.99:
        failures.append(f"leaky seen fraction fell to {min(leaky_fractions)}")
    elapsed = time.perf_counter() - started
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s")
    _announce(capsys, 2, not failures,
              "sanitization invariant: toy + 100 random corpora leak 0.0 exactly, "
              f"leaky min {min(leaky_fractions):.4f} (>= 0.99), {elapsed:.1f}s (< 30 s)"
              + ("; " + "; ".join(failures) if failures else ""))


def test_criterion_3_bleu_gap_direction(capsys, toy_data, toy_config, sanitized_world):
    _, _, sanitized = sanitized_world
    leaky = partitioner.leaky_partition(toy_data.instances, toy_config.ratios,
                                        toy_config.rng_seeds[0])
    leaky_bleu = experiments._evaluate_partition(leaky, toy_data, toy_config)["memorizer_bleu"]["test"]
    sanitized_bleu = experiments._evaluate_partition(sanitized, toy_data, toy_config)["memorizer_bleu"]["test"]
    gap = leaky_bleu - sanitized_bleu
    ok = leaky_bleu >= 90.0 and sanitized_bleu <= 65.0 and gap >= 25.0
    _announce(capsys, 3, ok,
              f"memorizer BLEU gap: leaky {leaky_bleu:.1f} (>= 90), "
              f"sanitized {sanitized_bleu:.1f} (<= 65), gap {gap:.1f} (>= 25)")


def test_criterion_4_perplexity_gap_direction(capsys, toy_data, toy_config, sanitized_world):
    started = time.perf_counter()
    _, _, sanitized = sanitized_world
    lm = baselines.train_ngram_lm(
        [i.pair.query_text.split() for i in sanitized.train],
        order=toy_config.lm_order, k=toy_config.lm_k)
    valid_ppl = baselines.lm_perplexity(lm, [i.pair.query_text.split() for i in sanitized.valid])
    test_ppl = baselines.lm_perplexity(lm, [i.pair.query_text.split() for i in sanitized.test])
    elapsed = time.perf_counter() - started
    ok = test_ppl >= 1.5 * valid_ppl and elapsed < 60.0
    _announce(capsys, 4, ok,
              f"perplexity gap: test {test_ppl:.2f} vs valid {valid_ppl:.2f} "
              f"(ratio {test_ppl / valid_ppl:.2f} >= 1.5), {elapsed:.1f}s (< 60 s)")


def test_criterion_5_fraction_sweep_trend(capsys, toy_data, toy_config, sanitized_world):
    _, _, sanitized = sanitized_world
    test_refs = [i.pair.query_text.split() for i in sanitized.test]
    ppls = []
    for fraction in toy_config.fractions:
        sub = partitioner.subsample_train(sanitized, fraction, toy_config.rng_seeds[0])
        lm = baselines.train_ngram_lm([i.pair.query_text.split() for i in sub.train],
                                      order=toy_config.lm_order, k=toy_config.lm_k)
        ppls.append(baselines.lm_perplexity(lm, test_refs))
    inversions = [(a, b) for a, b in zip(ppls, ppls[1:]) if b > a]
    ok = len(inversions) <= 1 and all(b <= a * 1.05 for a, b in inversions)
    _announce(capsys, 5, ok,
              "fraction sweep non-increasing: "
              + " -> ".join(f"{p:.2f}" for p in ppls)
              + f" ({len(inversions)} inversion(s), tolerance one <= 5%)")


def test_criterion_6_halved_holdout(capsys, toy_data, toy_config, sanitized_world):
    seed_test, _, sanitized = sanitized_world
    lm1 = baselines.train_ngram_lm([i.pair.query_text.split() for i in sanitized.train],
                                   order=toy_config.lm_order, k=toy_config.lm_k)
    exp1_ppl = baselines.lm_perplexity(lm1, [i.pair.query_text.split() for i in sanitized.test])
    halved = experiments.halve_seed_test_ids(seed_test, toy_config.rng_seeds[0])
    _, san2 = experiments._sanitized_split(toy_data, toy_config, halved)
    lm2 = baselines.train_ngram_lm([i.pair.query_text.split() for i in san2.train],
                                   order=toy_config.lm_order, k=toy_config.lm_k)
    exp3_ppl = baselines.lm_perplexity(lm2, [i.pair.query_text.split() for i in san2.test])
    leak = metrics.leakage_report(san2, toy_data.index).test_seen_fraction
    ok = exp3_ppl <= 1.1 * exp1_ppl and leak == 0.0
    _announce(capsys, 6, ok,
              f"halved holdout: ppl {exp3_ppl:.2f} <= 1.1 x {exp1_ppl:.2f} "
              f"(ratio {exp3_ppl / exp1_ppl:.2f}), leakage {leak}")


def test_criterion_7_oracle_suites(capsys, toy_data):
    failures = []

    rnd = random.Random(77)
    vocab = ["a", "b", "c", "d", "e", "f"]
    for n in range(1000):
        count = rnd.randrange(1, 21)
        cands = [[rnd.choice(vocab) for _ in range(rnd.randrange(0, 16))] for _ in range(count)]
        refs = [[rnd.choice(vocab) for _ in range(rnd.randrange(1, 16))] for _ in range(count)]
        got = metrics.corpus_bleu(cands, refs).bleu
        want = ref_corpus_bleu(cands, refs)["bleu"]
        if abs(got - want) > 1e-9:
            failures.append(f"BLEU corpus #{n}: {got} vs {want}")
            break

    rnd = random.Random(78)
    for n in range(500):
        triples, ast = _random_case(rnd)
        if kgstore.evaluate(kgstore.Graph(triples), ast) != ref_eval(triples, ast):
            failures.append(f"BGP eval case #{n} diverged")
            break

    misses = sum(1 for inst in toy_data.instances
                 if inst.origin_template_id not in toy_data.index.attributed(inst.id))
    if misses:
        failures.append(f"attribution missed {misses} origins")

    patterns = _all_patterns(max_slots=2, max_words=3)
    alphabet = ("x", "y", "z")
    for pattern in patterns:
        for n in range(0, 7):
            for nlq in itertools.product(alphabet, repeat=n):
                if qlang.match_nlq(pattern, nlq) != ref_match_nlq(pattern, nlq):
                    failures.append(f"match_nlq diverged on {pattern} vs {nlq}")
                    break
    rnd = random.Random(79)
    big_patterns = _all_patterns(max_slots=3, max_words=4)
    for _ in range(4000):
        pattern = rnd.choice(big_patterns)
        nlq = tuple(rnd.choice(alphabet) for _ in range(rnd.randrange(0, 13)))
        if qlang.match_nlq(pattern, nlq) != ref_match_nlq(pattern, nlq):
            failures.append(f"match_nlq diverged on {pattern} vs {nlq}")
            break

    _announce(capsys, 7, not failures,
              "oracle suites: 1000 BLEU corpora (1e-9), 500 BGP cases, "
              f"origin recovery {len(toy_data.instances)}/{len(toy_data.instances)}, "
              "match enumeration exhaustive<=7 + 4000 sampled to 12 tokens"
              + ("; " + "; ".join(failures[:3]) if failures else ""))


def _run_preset(preset: str, workdir: Path, config_path: Path, hash_seed: str) -> None:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    subprocess.run(
        [sys.executable, "-m", "splithygiene.cli", "run", preset,
         "--config", str(config_path), "--workdir", str(workdir)],
        check=True, env=env, capture_output=True, text=True,
    )


def _tree_bytes(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_criterion_8_determinism(capsys, tmp_path):
    config_path = tmp_path / "run.conf"
    config_path.write_text("rng_seeds = 101, 102\ninstance_limit = 40\n")
    failures = []
    for preset in experiments.PRESETS:
        runs = []
        for label, hash_seed in (("first", "0"), ("second", "12345")):
            workdir = tmp_path / f"{preset}-{label}"
            _run_preset(preset, workdir, config_path, hash_seed)
            runs.append(_tree_bytes(workdir))
        if runs[0] != runs[1]:
            failures.append(f"{preset}: repeat run differs")
    _announce(capsys, 8, not failures,
              "determinism: exp1/exp2/exp3 byte-identical across repeat runs "
              "and hash seeds"
              + ("; " + "; ".join(failures) if failures else ""))
