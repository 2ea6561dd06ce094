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
import math
import re
import statistics
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import TYPE_CHECKING

from . import qlang, rng, toydata
from .attribution import AttributionIndex, build_index, write_attribution
from .corpus import (
    LEAKY,
    MAX_LM_ORDER,
    SANITIZED,
    dedup,
    file_digest,
    make_manifest,
    read_lines,
    read_seeds,
    read_text,
    unique_ids,
    write_split,
    write_text,
)
from .errors import ConfigError, EmptyCorpus, RatioError
from .kgstore import Graph, load_ntriples
from .partitioner import (
    Split3,
    _check_fraction,
    _check_ratios,
    diagnostics,
    leaky_partition,
    sanitized_partition,
    seen_fractions,
    split_templates,
    subsample_train,
)
from .synthesis import extract_template, generate_instances, write_templates

if TYPE_CHECKING:  # baselines and metrics load numpy: the functions that run them import them
    from .baselines import MemorizerIndex, NGramIndex

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

    def __post_init__(self):
        """Check every key's type, then its range, by the check of the stage that reads it where there is one."""
        def tuple_of(values, check) -> bool:
            return isinstance(values, tuple) and bool(values) and all(map(check, values))

        def distinct(values) -> bool:
            return len(set(values)) == len(values)

        expected = {
            "seeds_path": (isinstance(self.seeds_path, str), "a string"),
            "kg_path": (isinstance(self.kg_path, str), "a string"),
            "workdir": (isinstance(self.workdir, str), "a string"),
            # a repeated rng seed or fraction would be reported as another replicate or sweep point
            "rng_seeds": (tuple_of(self.rng_seeds, lambda s: _is_int(s) and 0 <= s < 2**64)
                          and distinct(self.rng_seeds), "one or more distinct integers in [0, 2**64)"),
            "ratios": (tuple_of(self.ratios, _is_real) and len(self.ratios) == 3, "three numbers"),
            "seed_test_fraction": (_is_real(self.seed_test_fraction), "a number"),
            "fractions": (tuple_of(self.fractions, _is_real) and distinct(self.fractions),
                          "one or more distinct numbers"),
            "instance_limit": (_is_int(self.instance_limit) and self.instance_limit >= 0, "an integer >= 0"),
            "lm_order": (_is_int(self.lm_order) and 1 <= self.lm_order <= MAX_LM_ORDER,
                         f"an integer in [1, {MAX_LM_ORDER}]"),
            "lm_k": (_is_real(self.lm_k) and math.isfinite(self.lm_k) and self.lm_k > 0, "a finite number > 0"),
        }
        for key, (ok, what) in expected.items():
            if not ok:
                raise ConfigError(key, f"{key}: expected {what}, got {getattr(self, key)!r}")
        for key, check in (("ratios", _check_ratios), ("seed_test_fraction", _check_seed_test_fraction),
                           ("fractions", lambda fractions: [_check_fraction(f) for f in fractions])):
            try:
                check(getattr(self, key))
            except RatioError as exc:
                raise ConfigError(key, f"{key}: {exc}") from None

    def resolved_seeds_path(self) -> Path:
        return Path(self.seeds_path) if self.seeds_path else toydata.toy_seeds_path()

    def resolved_kg_path(self) -> Path:
        return Path(self.kg_path) if self.kg_path else toydata.toy_kg_path()


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


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
    """Flat key = value file; unknown or repeated keys and values of the wrong type or range are rejected."""
    known = {f.name: f for f in fields(RunConfig)}
    values: dict = {}
    key_lines: dict[str, int] = {}
    for line_no, line in enumerate(read_lines(path), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValueError(f"{path}:{line_no}: expected key = value")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in known:
            raise ValueError(f"{path}:{line_no}: unknown config key {key!r}")
        if key in values:
            raise ConfigError(key, f"{path}:{line_no}: {key}: given twice, first on line {key_lines[key]}")
        value = _parse_value(raw)
        if key in ("rng_seeds", "ratios", "fractions") and not isinstance(value, tuple):
            value = (value,)
        values[key] = value
        key_lines[key] = line_no
    try:
        return RunConfig(**values)
    except ConfigError as exc:
        raise ConfigError(exc.key, f"{path}:{key_lines[exc.key]}: {exc}") from None


@dataclass
class PipelineData:
    """Everything derived from the inputs before any partitioning."""

    seeds: list
    templates: list
    instances: list
    index: AttributionIndex
    config_digest: str
    dedup_removed: dict[str, int] = field(default_factory=dict)


def extract_stage(seeds_path) -> tuple[list, list, dict[str, int]]:
    """Read seeds and extract one template per seed, de-duplicating both.

    Returns (seeds, templates, removed), where removed counts the duplicates
    dropped from the seeds and from the templates. Each record is extracted as
    it is read, so an extraction error names the file and line; so do two kept seeds with one id.
    """
    extracted = read_seeds(seeds_path, extract_template)
    read = [seed for seed, _ in extracted]
    seeds, seeds_removed = dedup(read)
    unique_ids(seeds_path, read, seeds)
    kept = {id(seed) for seed in seeds}
    templates, templates_removed = dedup(
        (t for seed, t in extracted if id(seed) in kept),
        key=lambda t: (t.nlq_pattern.marker_text(), qlang.serialize(t.query_pattern)))
    return seeds, templates, {"seeds": seeds_removed, "templates": templates_removed}


def load_graph(kg_path) -> Graph:
    """Load an N-Triples graph, warning on stderr of each kind of line it skipped."""
    graph = load_ntriples(kg_path)
    report = graph.load_report
    if report.malformed_lines:
        print(f"warning: {len(report.malformed_lines)} malformed KG lines skipped", file=sys.stderr)
    if report.skipped_literals:
        print(f"warning: {report.skipped_literals} literal-object KG lines skipped", file=sys.stderr)
    return graph


def generate_stage(templates, graph, limit: int, rng_seed: int) -> tuple[list, int]:
    """Instantiate every template and de-duplicate; returns (instances, removed).

    The graph is let go before de-duplication, so a graph that no caller
    holds (both callers pass a freshly loaded one) is freed before the
    de-duplication table is built.
    """
    instances = []
    entities: dict = {}
    for template in templates:
        instances.extend(generate_instances(template, graph, limit, rng_seed, entities))
    del graph, entities
    return dedup(instances)


def build_pipeline_data(config: RunConfig) -> PipelineData:
    """Load seeds and KG, extract templates, generate and attribute instances.

    Each stage is de-duplicated. Generation is keyed by the first rng seed
    and the template id, so the corpus is one deterministic function of the
    config. The KG is freed once generation ends. A corpus with no instance
    raises EmptyCorpus naming the seeds and KG files.
    """
    seeds_path = config.resolved_seeds_path()
    kg_path = config.resolved_kg_path()
    digest = file_digest([seeds_path, kg_path])
    seeds, templates, removed = extract_stage(seeds_path)
    instances, removed["instances"] = generate_stage(
        templates, load_graph(kg_path), config.instance_limit, config.rng_seeds[0])
    if not instances:
        raise EmptyCorpus(f"{seeds_path} and {kg_path} generate no instance (instance_limit = {config.instance_limit})")
    return PipelineData(
        seeds=seeds,
        templates=templates,
        instances=instances,
        index=build_index(instances, templates),
        config_digest=digest,
        dedup_removed=removed,
    )


def _check_seed_test_fraction(fraction) -> None:
    if not 0 <= fraction <= 1:
        raise RatioError(f"seed test fraction must be in [0, 1]: {fraction}")


def held_out_seed_ids(seeds, fraction: float, rng_seed: int) -> list[str]:
    """A seeded sample of `fraction` of the seed ids, sorted; `fraction` is in [0, 1]."""
    _check_seed_test_fraction(fraction)
    ids = [s.id for s in seeds]
    (held_out,) = rng.seeded_cut(ids, (round(len(ids) * fraction),), rng_seed, "seed-split")
    return sorted(held_out)


def seed_split_ids(data: PipelineData, config: RunConfig) -> list[str]:
    """Held-out seed ids: a seeded sample of seed_test_fraction of all seeds."""
    return held_out_seed_ids(data.seeds, config.seed_test_fraction, config.rng_seeds[0])


def halve_seed_test_ids(seed_test_ids, rng_seed: int) -> list[str]:
    """Keep half of the held-out seed ids; the other half rejoins training."""
    ids = sorted(seed_test_ids)
    (kept,) = rng.seeded_cut(ids, ((len(ids) + 1) // 2,), rng_seed, "seed-test-halving")
    return list(kept)


def baseline_corpus(data: PipelineData, config: RunConfig) -> tuple[NGramIndex, MemorizerIndex, dict[str, int]]:
    """The n-gram index over every instance's query tokens, the memorizer index
    over every instance, and each instance id's row in both."""
    from .baselines import memorizer_index, ngram_index

    lm_index = ngram_index((inst.query_text.split() for inst in data.instances), config.lm_order)
    rows = {inst.id: row for row, inst in enumerate(data.instances)}
    return lm_index, memorizer_index(data.instances, data.index), rows


def _evaluate_partition(split: Split3, data: PipelineData, config: RunConfig, lm_index: NGramIndex,
                        mem_index: MemorizerIndex, rows: dict[str, int]) -> dict[str, dict[str, float]]:
    """Baseline metrics for one partition: memorizer BLEU, LM ppl, leakage.

    Both models select the train rows of indexes that cover the whole corpus;
    `rows` maps each instance id to its row. The memorizer is trained, scored
    and dropped before the LM is trained, so one model's tables are alive at a time.
    """
    from .baselines import lm_perplexity, memorizer_predict, train_memorizer, train_ngram_lm
    from .metrics import corpus_bleu

    parts = {"valid": split.valid, "test": split.test}
    train_rows = [rows[inst.id] for inst in split.train]
    memorizer = train_memorizer(mem_index, train_rows)
    bleu = {name: corpus_bleu(memorizer_predict(memorizer, [inst.nlq for inst in part]),
                              [inst.query_text.split() for inst in part]).bleu if part else 0.0
            for name, part in parts.items()}
    del memorizer
    lm = train_ngram_lm(lm_index, train_rows, config.lm_k)
    del train_rows
    ppl = {name: lm_perplexity(lm, [rows[inst.id] for inst in part]) if part else 0.0 for name, part in parts.items()}
    return {"memorizer_bleu": bleu, "lm_perplexity": ppl, "template_seen_fraction": seen_fractions(split, data.index)}


def _row(*values) -> dict[str, str]:
    """One report row: a value for each of _REPORT_COLUMNS, in order."""
    return dict(zip(_REPORT_COLUMNS, values, strict=True))


def _rows_for(results, experiment, scheme, rng_seed, fraction, digest):
    rows = []
    for metric, by_split in sorted(results.items()):
        for split_name, value in sorted(by_split.items()):
            rows.append(_row(experiment, scheme, str(rng_seed), repr(float(fraction)), metric,
                             split_name, "value", repr(float(value)), digest))
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
            out.append(_row(experiment, scheme, "all", fraction, metric, split_name, stat,
                            repr(float(value)), digest))
    return out


def _write_report(out_dir: Path, rows) -> None:
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=_REPORT_COLUMNS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    write_text(out_dir / "report.csv", buffer.getvalue())
    write_text(out_dir / "report.json", json.dumps(rows, indent=2) + "\n")


def write_partition(out_dir, split: Split3, scheme: str, rng_seed: int, ratios, digest: str,
                    index: AttributionIndex | None = None, tsplit=None) -> None:
    """Write the split files and manifest.json, plus diagnostics.json when an index is given.

    Ratios that a leaky split would reject raise RatioError before anything is
    written, for either scheme, so a leaky manifest records three finite ratios
    that sum to 1; a sanitized one records ``valid_fraction`` in their place.
    """
    _check_ratios(ratios)
    write_split(out_dir, split, make_manifest(split, scheme, rng_seed, ratios, digest))
    if index is not None:
        write_text(Path(out_dir) / "diagnostics.json",
                   json.dumps(diagnostics(split, index, tsplit), indent=2, sort_keys=True) + "\n")


def _sanitized_split(data: PipelineData, config: RunConfig, seed_test_ids):
    tsplit = split_templates(data.index, data.seeds, seed_test_ids)
    split = sanitized_partition(data.instances, tsplit, data.index, config.rng_seeds[0])
    return tsplit, split


def run_experiment(preset: str, config: RunConfig, data: PipelineData | None = None) -> list[dict]:
    """Run one preset end to end; returns the report rows it wrote.

    On failure the rows gathered so far are still written, with a final
    `incomplete` row naming the stage that broke, and the error is re-raised.
    """
    if preset not in PRESETS:
        raise ValueError(f"unknown preset {preset!r}; expected one of {PRESETS}")
    rows: list[dict] = []
    stage = "pipeline"
    out_dir = Path(config.workdir) / preset
    try:
        data = data or build_pipeline_data(config)
        digest = data.config_digest
        write_templates(out_dir / "templates.jsonl", data.templates)
        write_attribution(out_dir / "attribution.tsv", data.instances, data.index)
        baseline = baseline_corpus(data, config)

        seed_test = seed_split_ids(data, config)
        if preset == "exp1":
            for seed in config.rng_seeds:
                stage = f"leaky-{seed}"
                split = leaky_partition(data.instances, config.ratios, seed)
                write_partition(out_dir / stage, split, LEAKY, seed, config.ratios, digest, data.index)
                rows += _rows_for(_evaluate_partition(split, data, config, *baseline),
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
                rows += _rows_for(_evaluate_partition(sub, data, config, *baseline),
                                  "exp2", SANITIZED, config.rng_seeds[0], fraction, digest)
        else:
            rows += _rows_for(_evaluate_partition(split, data, config, *baseline),
                              preset, SANITIZED, config.rng_seeds[0], 1.0, digest)
    except Exception:
        rows.append(_row(preset, "", "", "", "incomplete", stage, "value", "", ""))
        try:
            _write_report(out_dir, rows)
        except OSError:
            pass
        raise
    _write_report(out_dir, rows)
    return rows


def consolidate_reports(workdir) -> str:
    """Concatenate every report.csv under workdir into one CSV string; a non-UTF-8 one raises InputFileError."""
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=_REPORT_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for path in sorted(Path(workdir).glob("*/report.csv")):
        writer.writerows(csv.DictReader(io.StringIO(read_text(path), newline="")))
    return buffer.getvalue()
