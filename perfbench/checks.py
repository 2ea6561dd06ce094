"""Output checks, made from outside the package on the files a run wrote.

Each check returns a list of problems; an empty list means the check
passed. The benchmark counts a run as failed when any check reports a
problem, and that count is the ``error_rate`` it reports.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

METRICS = ("lm_perplexity", "memorizer_bleu", "template_seen_fraction")
SPLITS = ("test", "valid")


def tree_digests(root) -> dict[str, str]:
    """SHA-256 of every file under root, keyed by its relative POSIX path."""
    root = Path(root)
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*")) if path.is_file()
    }


def tree_bytes(root) -> int:
    return sum(path.stat().st_size for path in Path(root).rglob("*") if path.is_file())


def compare_trees(expected: dict[str, str], actual: dict[str, str]) -> list[str]:
    """Problems that make two output trees differ, by relative path."""
    problems = [f"missing {p}" for p in sorted(expected.keys() - actual.keys())]
    problems += [f"unexpected {p}" for p in sorted(actual.keys() - expected.keys())]
    problems += [f"bytes differ in {p}" for p in sorted(expected.keys() & actual.keys())
                 if expected[p] != actual[p]]
    return problems


def read_attribution(path) -> dict[str, set[str]]:
    out = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        instance_id, _, joined = line.partition("\t")
        out[instance_id] = set(joined.split(",")) if joined else set()
    return out


def check_sanitized(attribution_tsv, manifest_json) -> list[str]:
    """No sanitized test instance shares an attributed template with train or valid."""
    attributed = read_attribution(attribution_tsv)
    assignments = json.loads(Path(manifest_json).read_text(encoding="utf-8"))["assignments"]
    unknown = sorted(i for i in assignments if i not in attributed)
    if unknown:
        return [f"{manifest_json}: {len(unknown)} instances missing from {attribution_tsv}, e.g. {unknown[0]}"]
    seen = {t for i, split in assignments.items() if split != "test" for t in attributed[i]}
    test_ids = [i for i, split in assignments.items() if split == "test"]
    if not test_ids:
        return [f"{manifest_json}: empty sanitized test split"]
    leaks = sorted(i for i in test_ids if attributed[i] & seen)
    if leaks:
        return [f"{manifest_json}: {len(leaks)} test instances share a template with train/valid, e.g. {leaks[0]}"]
    return []


def read_report(path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def expected_report_keys(preset: str, rng_seeds, fractions) -> set[tuple]:
    """(scheme, rng_seed, fraction, metric, split, statistic) rows a preset must write."""
    def rows(scheme, seed, fraction, statistics=("value",)):
        return {(scheme, str(seed), repr(float(fraction)), m, s, st)
                for m in METRICS for s in SPLITS for st in statistics}

    first = rng_seeds[0]
    if preset == "exp1":
        keys = set().union(*(rows("leaky", seed, 1.0) for seed in rng_seeds))
        keys |= rows("leaky", "all", 1.0, ("mean", "stdev") if len(rng_seeds) > 1 else ("mean",))
        return keys | rows("sanitized", first, 1.0)
    if preset == "exp2":
        return set().union(*(rows("sanitized", first, f) for f in fractions))
    raise ValueError(f"no expected report rows for preset {preset!r}")


def check_report(report_csv, preset: str, rng_seeds, fractions) -> list[str]:
    """report.csv holds exactly the expected (metric, split) rows, each with a number."""
    rows = read_report(report_csv)
    keys = [(r["scheme"], r["rng_seed"], r["fraction"], r["metric"], r["split"], r["statistic"]) for r in rows]
    expected = expected_report_keys(preset, rng_seeds, fractions)
    problems = []
    if len(keys) != len(set(keys)):
        problems.append(f"{report_csv}: duplicate rows")
    if set(keys) != expected:
        missing, extra = sorted(expected - set(keys)), sorted(set(keys) - expected)
        problems.append(f"{report_csv}: rows differ; missing {missing[:3]}, unexpected {extra[:3]}")
    for row in rows:
        try:
            float(row["value"])
        except ValueError:
            problems.append(f"{report_csv}: non-numeric value in {row['metric']}/{row['split']}")
            break
    return problems


def check_bleu_gap(report_csv) -> list[str]:
    """Every leaky test BLEU exceeds the sanitized test BLEU."""
    rows = [r for r in read_report(report_csv)
            if r["metric"] == "memorizer_bleu" and r["split"] == "test" and r["statistic"] == "value"]
    leaky = [float(r["value"]) for r in rows if r["scheme"] == "leaky"]
    sanitized = [float(r["value"]) for r in rows if r["scheme"] == "sanitized"]
    if not leaky or len(sanitized) != 1:
        return [f"{report_csv}: missing test BLEU rows"]
    if min(leaky) <= sanitized[0]:
        return [f"{report_csv}: leaky test BLEU {min(leaky)!r} <= sanitized {sanitized[0]!r}"]
    return []


def check_corpus(corpus_manifest, attribution_tsv, n_templates: int) -> list[str]:
    """Every template generated an instance and every instance is attributed."""
    doc = json.loads(Path(corpus_manifest).read_text(encoding="utf-8"))
    origins = set(doc["origins"].values())
    problems = []
    if len(origins) != n_templates:
        problems.append(f"{corpus_manifest}: {len(origins)} of {n_templates} templates generated instances")
    attributed = read_attribution(attribution_tsv)
    unattributed = sum(1 for ts in attributed.values() if not ts)
    if unattributed:
        problems.append(f"{attribution_tsv}: {unattributed} unattributed instances")
    if len(attributed) != len(doc["ids"]):
        problems.append(f"{attribution_tsv}: {len(attributed)} rows for {len(doc['ids'])} instances")
    return problems


def check_split_counts(manifest_json, n_instances: int) -> list[str]:
    counts = json.loads(Path(manifest_json).read_text(encoding="utf-8"))["counts"]
    if sum(counts) != n_instances or min(counts) <= 0:
        return [f"{manifest_json}: split counts {counts} do not partition {n_instances} instances"]
    return []
