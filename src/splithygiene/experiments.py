"""The pipeline stages and the experiment presets that wire them together.

The stage functions (template extraction, generation, the held-out seed
split, the partition writer) are the ones the CLI stage subcommands call, so
a preset and a chain of subcommands build the same corpus and splits.

exp1 compares template-naive (leaky) partitions, replicated over several rng
seeds, against one sanitized partition. exp2 sweeps nested training
fractions on the sanitized partition. exp3 rebuilds the sanitized partition
after returning half of the held-out seed ids to the training side.

Reports are CSV + JSON; every row carries the rng seed and the digest of the
inputs that produced it, and contains no timestamps.
"""

from __future__ import annotations

import csv
import io
import json
import re
import statistics
from dataclasses import dataclass, field, fields
from pathlib import Path

from . import rng, toydata
from .attribution import AttributionIndex, build_index, write_attribution
from .baselines import lm_perplexity, memorizer_predict, train_memorizer, train_ngram_lm
from .corpus import (
    LEAKY,
    SANITIZED,
    dedup,
    file_digest,
    make_manifest,
    read_seeds,
    write_split,
    write_text,
)
from .kgstore import load_ntriples
from .metrics import corpus_bleu, leakage_report
from .partitioner import (
    Split3,
    diagnostics,
    leaky_partition,
    sanitized_partition,
    split_templates,
    subsample_train,
)
from .synthesis import dedup_templates, extract_template, generate_instances, write_templates

PRESETS = ("exp1", "exp2", "exp3")

_REPORT_COLUMNS = (
    "experiment", "scheme", "rng_seed", "fraction", "metric", "split",
    "statistic", "value", "config_digest",
)


@dataclass(frozen=True)
class RunConfig:
    """Documented config keys; files default to the bundled toy dataset."""

    seeds_path: str = ""
    kg_path: str = ""
    workdir: str = "."
    rng_seeds: tuple[int, ...] = (101, 102, 103, 104, 105)
    ratios: tuple[float, float, float] = (0.8, 0.1, 0.1)
    seed_test_fraction: float = 0.2
    fractions: tuple[float, ...] = (0.125, 0.25, 0.5, 1.0)
    instance_limit: int = 100
    lm_order: int = 5
    lm_k: float = 0.1

    def resolved_seeds_path(self) -> Path:
        return Path(self.seeds_path) if self.seeds_path else toydata.toy_seeds_path()

    def resolved_kg_path(self) -> Path:
        return Path(self.kg_path) if self.kg_path else toydata.toy_kg_path()


def _split_list(raw: str) -> list[str]:
    """Split on the commas that lie outside double-quoted strings."""
    parts = [""]
    for i, chunk in enumerate(re.split(r'("[^"]*")', raw)):
        pieces = [chunk] if i % 2 else chunk.split(",")  # odd chunks are quoted strings
        parts[-1] += pieces[0]
        parts += pieces[1:]
    return parts


def _parse_value(raw: str):
    raw = raw.strip()
    parts = _split_list(raw)
    if len(parts) > 1:
        return tuple(_parse_value(part) for part in parts if part.strip())
    if raw.startswith('"') and raw.endswith('"') and len(raw) >= 2:
        return raw[1:-1]
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        pass
    return raw


def load_config(path) -> RunConfig:
    """Flat key = value file; unknown keys are rejected."""
    known = {f.name: f for f in fields(RunConfig)}
    values: dict = {}
    for line_no, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValueError(f"{path}:{line_no}: expected key = value")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in known:
            raise ValueError(f"{path}:{line_no}: unknown config key {key!r}")
        value = _parse_value(raw)
        if key in ("rng_seeds", "ratios", "fractions") and not isinstance(value, tuple):
            value = (value,)
        values[key] = value
    return RunConfig(**values)


@dataclass
class PipelineData:
    """Everything derived from the inputs before any partitioning."""

    seeds: list
    templates: list
    instances: list
    index: AttributionIndex
    graph: object
    config_digest: str
    dedup_removed: dict[str, int] = field(default_factory=dict)


def extract_stage(seeds_path) -> tuple[list, list, dict[str, int]]:
    """Read seeds and extract one template per seed, de-duplicating both.

    Returns (seeds, templates, removed), where removed counts the duplicates
    dropped from the seeds and from the templates.
    """
    seeds, seeds_removed = dedup(read_seeds(seeds_path))
    templates, templates_removed = dedup_templates(extract_template(s) for s in seeds)
    return seeds, templates, {"seeds": seeds_removed, "templates": templates_removed}


def generate_stage(templates, graph, limit: int, rng_seed: int) -> tuple[list, int]:
    """Instantiate every template and de-duplicate; returns (instances, removed)."""
    instances = []
    for template in templates:
        instances.extend(generate_instances(template, graph, limit, rng_seed))
    return dedup(instances)


def build_pipeline_data(config: RunConfig) -> PipelineData:
    """Load seeds and KG, extract templates, generate and attribute instances.

    Each stage is de-duplicated. Generation is keyed by the first rng seed
    and the template id, so the corpus is one deterministic function of the
    config.
    """
    seeds_path = config.resolved_seeds_path()
    kg_path = config.resolved_kg_path()
    digest = file_digest([seeds_path, kg_path])
    seeds, templates, removed = extract_stage(seeds_path)
    graph = load_ntriples(kg_path)
    instances, removed["instances"] = generate_stage(
        templates, graph, config.instance_limit, config.rng_seeds[0])
    return PipelineData(
        seeds=seeds,
        templates=templates,
        instances=instances,
        index=build_index(instances, templates),
        graph=graph,
        config_digest=digest,
        dedup_removed=removed,
    )


def held_out_seed_ids(seeds, fraction: float, rng_seed: int) -> list[str]:
    """A seeded sample of `fraction` of the seed ids, sorted."""
    ids = [s.id for s in seeds]
    n_test = round(len(ids) * fraction)
    order = rng.permutation(len(ids), rng_seed, "seed-split")
    return sorted(ids[i] for i in order[:n_test])


def seed_split_ids(data: PipelineData, config: RunConfig) -> list[str]:
    """Held-out seed ids: a seeded sample of seed_test_fraction of all seeds."""
    return held_out_seed_ids(data.seeds, config.seed_test_fraction, config.rng_seeds[0])


def halve_seed_test_ids(seed_test_ids, rng_seed: int) -> list[str]:
    """Keep half of the held-out seed ids; the other half rejoins training."""
    ids = sorted(seed_test_ids)
    order = rng.permutation(len(ids), rng_seed, "seed-test-halving")
    keep = (len(ids) + 1) // 2
    return sorted(ids[i] for i in order[:keep])


def _evaluate_partition(split: Split3, data: PipelineData, config: RunConfig) -> dict[str, dict[str, float]]:
    """Baseline metrics for one partition: memorizer BLEU, LM ppl, leakage."""
    memorizer = train_memorizer(split.train, data.templates, data.index)
    lm = train_ngram_lm(
        [inst.pair.query_text.split() for inst in split.train],
        order=config.lm_order,
        k=config.lm_k,
    )
    leakage = leakage_report(split, data.index)
    out: dict[str, dict[str, float]] = {
        "memorizer_bleu": {},
        "lm_perplexity": {},
        "template_seen_fraction": {
            "valid": leakage.valid_seen_fraction,
            "test": leakage.test_seen_fraction,
        },
    }
    for name, part in (("valid", split.valid), ("test", split.test)):
        refs = [inst.pair.query_text.split() for inst in part]
        preds = [memorizer_predict(memorizer, inst.pair.nlq) for inst in part]
        out["memorizer_bleu"][name] = corpus_bleu(preds, refs).bleu if part else 0.0
        out["lm_perplexity"][name] = lm_perplexity(lm, refs) if part else 0.0
    return out


def _rows_for(results, experiment, scheme, rng_seed, fraction, digest):
    rows = []
    for metric, by_split in sorted(results.items()):
        for split_name, value in sorted(by_split.items()):
            rows.append({
                "experiment": experiment,
                "scheme": scheme,
                "rng_seed": str(rng_seed),
                "fraction": repr(float(fraction)),
                "metric": metric,
                "split": split_name,
                "statistic": "value",
                "value": repr(float(value)),
                "config_digest": digest,
            })
    return rows


def _aggregate_rows(rows, experiment, scheme, digest):
    """Mean and stdev across rng seeds for every (metric, split) pair."""
    grouped: dict[tuple, list[float]] = {}
    for row in rows:
        if row["scheme"] != scheme or row["statistic"] != "value":
            continue
        grouped.setdefault((row["metric"], row["split"], row["fraction"]), []).append(float(row["value"]))
    out = []
    for (metric, split_name, fraction), values in sorted(grouped.items()):
        stats = [("mean", statistics.fmean(values))]
        if len(values) >= 2:
            stats.append(("stdev", statistics.stdev(values)))
        for stat, value in stats:
            out.append({
                "experiment": experiment,
                "scheme": scheme,
                "rng_seed": "all",
                "fraction": fraction,
                "metric": metric,
                "split": split_name,
                "statistic": stat,
                "value": repr(float(value)),
                "config_digest": digest,
            })
    return out


def _write_report(out_dir: Path, rows) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=_REPORT_COLUMNS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    write_text(out_dir / "report.csv", buffer.getvalue())
    write_text(out_dir / "report.json", json.dumps(rows, indent=2) + "\n")


def write_partition(out_dir, split: Split3, scheme: str, rng_seed: int, ratios, digest: str,
                    index: AttributionIndex | None = None, tsplit=None) -> None:
    """Write the split files and manifest.json, plus diagnostics.json when an index is given."""
    write_split(out_dir, split, make_manifest(split, scheme, rng_seed, ratios, digest))
    if index is not None:
        write_text(Path(out_dir) / "diagnostics.json",
                   json.dumps(diagnostics(split, index, tsplit), indent=2, sort_keys=True) + "\n")


def _sanitized_split(data: PipelineData, config: RunConfig, seed_test_ids):
    tsplit = split_templates(data.templates, data.seeds, seed_test_ids)
    split = sanitized_partition(data.instances, tsplit, data.index, config.rng_seeds[0])
    return tsplit, split


def run_experiment(preset: str, config: RunConfig, data: PipelineData | None = None) -> list[dict]:
    """Run one preset end to end; returns the report rows it wrote.

    On failure the rows gathered so far are still written, with a final
    `incomplete` row naming the stage that broke, and the error is re-raised
    with that stage in its message.
    """
    if preset not in PRESETS:
        raise ValueError(f"unknown preset {preset!r}; expected one of {PRESETS}")
    rows: list[dict] = []
    stage = "pipeline"
    out_dir = Path(config.workdir) / preset
    try:
        data = data or build_pipeline_data(config)
        digest = data.config_digest
        out_dir.mkdir(parents=True, exist_ok=True)
        write_templates(out_dir / "templates.jsonl", data.templates)
        write_attribution(out_dir / "attribution.tsv", data.instances, data.index)

        seed_test = seed_split_ids(data, config)
        if preset == "exp1":
            for seed in config.rng_seeds:
                stage = f"leaky-{seed}"
                split = leaky_partition(data.instances, config.ratios, seed)
                write_partition(out_dir / stage, split, LEAKY, seed, config.ratios, digest, data.index)
                rows += _rows_for(_evaluate_partition(split, data, config),
                                  "exp1", LEAKY, seed, 1.0, digest)
            rows += _aggregate_rows(rows, "exp1", LEAKY, digest)

        stage = "sanitized-halved" if preset == "exp3" else "sanitized"
        if preset == "exp3":
            seed_test = halve_seed_test_ids(seed_test, config.rng_seeds[0])
        tsplit, split = _sanitized_split(data, config, seed_test)
        write_partition(out_dir / "sanitized", split, SANITIZED, config.rng_seeds[0],
                        config.ratios, digest, data.index, tsplit)
        if preset == "exp2":
            for fraction in config.fractions:
                stage = f"fraction-{fraction}"
                sub = subsample_train(split, fraction, config.rng_seeds[0])
                rows += _rows_for(_evaluate_partition(sub, data, config),
                                  "exp2", SANITIZED, config.rng_seeds[0], fraction, digest)
        else:
            rows += _rows_for(_evaluate_partition(split, data, config),
                              preset, SANITIZED, config.rng_seeds[0], 1.0, digest)
    except Exception as exc:
        rows.append({
            "experiment": preset, "scheme": "", "rng_seed": "", "fraction": "",
            "metric": "incomplete", "split": stage, "statistic": "value",
            "value": "", "config_digest": "",
        })
        try:
            _write_report(out_dir, rows)
        except OSError:
            pass
        raise RuntimeError(f"{preset} failed during stage {stage!r}: {exc}") from exc
    _write_report(out_dir, rows)
    return rows


def consolidate_reports(workdir) -> str:
    """Concatenate every report.csv under workdir into one CSV string."""
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=_REPORT_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for path in sorted(Path(workdir).glob("*/report.csv")):
        with open(path, encoding="utf-8", newline="") as fh:
            for row in csv.DictReader(fh):
                writer.writerow(row)
    return buffer.getvalue()
