"""Command-line interface.

Stages are exposed as subcommands (extract, generate, attribute, partition,
memorize, lm, eval, report) plus `run` for the exp1/exp2/exp3 presets. The
stage subcommands call the same stage functions as the presets, so a chain of
them builds the corpus and splits a preset builds. `generate` and `partition`
take --rng-seed; `run` and `report` take --config and --workdir, the workdir
defaulting to $SPLITHYGIENE_WORKDIR or the current directory. Exit codes:
0 success, 2 validation/usage error, 1 runtime error.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
from pathlib import Path

import click

from . import experiments, qlang
from .attribution import build_index, write_attribution
from .baselines import lm_perplexity, memorizer_predict, score_sentence, train_memorizer, train_ngram_lm
from .corpus import (
    LEAKY,
    SANITIZED,
    dedup,
    file_digest,
    read_parallel,
    read_seeds,
    write_lines,
    write_parallel,
    write_text,
)
from .errors import SplitHygieneError
from .kgstore import load_ntriples
from .metrics import corpus_bleu, perplexity
from .partitioner import leaky_partition, sanitized_partition, split_templates
from .synthesis import read_templates, write_templates

_WORKDIR_ENV = "SPLITHYGIENE_WORKDIR"


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


class _Main(click.Group):
    """Maps validation errors of any subcommand to exit code 2, other I/O errors to 1."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (SplitHygieneError, FileNotFoundError, ValueError) as exc:
            _fail(2, str(exc))
        except OSError as exc:
            _fail(1, str(exc))


_rng_seed_option = click.option("--rng-seed", type=int, default=0, show_default=True,
                                help="Seed for every shuffle.")


def _config_options(fn):
    fn = click.option("--workdir", type=click.Path(), default=None,
                      help=f"Working directory (default: ${_WORKDIR_ENV} or '.').")(fn)
    return click.option("--config", "config_path", type=click.Path(), default=None,
                        help="Flat key=value config file.")(fn)


def _load_config(config_path, workdir) -> experiments.RunConfig:
    cfg = experiments.load_config(config_path) if config_path else experiments.RunConfig()
    if workdir is None:
        workdir = os.environ.get(_WORKDIR_ENV, cfg.workdir)
    return dataclasses.replace(cfg, workdir=str(workdir))


@click.group(cls=_Main)
def main():
    """Template-generated corpora, split hygiene, and leakage metrics."""


@main.command()
@click.option("--seeds", "seeds_path", type=click.Path(exists=True), required=True)
@click.option("--out", "out_path", type=click.Path(), required=True, help="templates.jsonl output.")
def extract(seeds_path, out_path):
    """Extract templates from a seeds.jsonl file."""
    _, templates, removed = experiments.extract_stage(seeds_path)
    write_templates(out_path, templates)
    click.echo(f"extracted {len(templates)} templates ({removed['templates']} duplicates dropped)")


@main.command()
@click.option("--templates", "templates_path", type=click.Path(exists=True), required=True)
@click.option("--kg", "kg_path", type=click.Path(exists=True), required=True)
@click.option("--limit", type=int, default=100, show_default=True, help="Instances per template.")
@click.option("--out-dir", type=click.Path(), required=True)
@_rng_seed_option
def generate(templates_path, kg_path, limit, out_dir, rng_seed):
    """Instantiate templates against an N-Triples graph."""
    templates = read_templates(templates_path)
    graph = load_ntriples(kg_path)
    if graph.load_report.malformed_lines:
        click.echo(f"warning: {len(graph.load_report.malformed_lines)} malformed KG lines skipped", err=True)
    if graph.load_report.skipped_literals:
        click.echo(f"warning: {graph.load_report.skipped_literals} literal-object KG lines skipped", err=True)
    instances, removed = experiments.generate_stage(templates, graph, limit, rng_seed)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_parallel(out, "instances", instances)
    doc = {
        "ids": [i.id for i in instances],
        "origins": {i.id: i.origin_template_id for i in instances if i.origin_template_id},
    }
    write_text(out / "instances.manifest.json", json.dumps(doc, indent=2) + "\n")
    click.echo(f"generated {len(instances)} instances ({removed} duplicates dropped)")


@main.command()
@click.option("--nlq", "nlq_path", type=click.Path(exists=True), required=True)
@click.option("--ql", "ql_path", type=click.Path(exists=True), required=True)
@click.option("--manifest", "manifest_path", type=click.Path(exists=True), default=None)
@click.option("--templates", "templates_path", type=click.Path(exists=True), required=True)
@click.option("--out", "out_path", type=click.Path(), required=True, help="attribution.tsv output.")
def attribute(nlq_path, ql_path, manifest_path, templates_path, out_path):
    """Attribute each instance to the templates that could have generated it."""
    instances = read_parallel(nlq_path, ql_path, manifest_path)
    index = build_index(instances, read_templates(templates_path))
    write_attribution(out_path, instances, index)
    click.echo(f"attributed {len(instances)} instances ({len(index.ambiguous_ids)} ambiguous, "
               f"{len(index.unattributed_ids)} unattributed)")


@main.command()
@click.option("--scheme", type=click.Choice([LEAKY, SANITIZED]), required=True)
@click.option("--nlq", "nlq_path", type=click.Path(exists=True), required=True)
@click.option("--ql", "ql_path", type=click.Path(exists=True), required=True)
@click.option("--manifest", "manifest_path", type=click.Path(exists=True), default=None)
@click.option("--ratios", default="0.8,0.1,0.1", show_default=True)
@click.option("--templates", "templates_path", type=click.Path(exists=True), default=None,
              help="Required for the sanitized scheme.")
@click.option("--seeds", "seeds_path", type=click.Path(exists=True), default=None,
              help="Required for the sanitized scheme.")
@click.option("--seed-test-fraction", type=float, default=0.2, show_default=True)
@click.option("--out-dir", type=click.Path(), required=True)
@_rng_seed_option
def partition(scheme, nlq_path, ql_path, manifest_path, ratios, templates_path,
              seeds_path, seed_test_fraction, out_dir, rng_seed):
    """Split a parallel corpus into train/valid/test."""
    ratio_tuple = tuple(float(r) for r in ratios.split(","))
    instances = read_parallel(nlq_path, ql_path, manifest_path)
    index = tsplit = None
    if scheme == LEAKY:
        split = leaky_partition(instances, ratio_tuple, rng_seed)
    else:
        if not templates_path or not seeds_path:
            _fail(2, "sanitized partitioning needs --templates and --seeds")
        templates = read_templates(templates_path)
        seeds, _ = dedup(read_seeds(seeds_path))
        index = build_index(instances, templates)
        seed_test_ids = experiments.held_out_seed_ids(seeds, seed_test_fraction, rng_seed)
        tsplit = split_templates(templates, seeds, seed_test_ids)
        split = sanitized_partition(instances, tsplit, index, rng_seed)
    experiments.write_partition(out_dir, split, scheme, rng_seed, ratio_tuple,
                                file_digest([nlq_path, ql_path]), index, tsplit)
    click.echo(f"split counts: train={split.counts[0]} valid={split.counts[1]} test={split.counts[2]}")


@main.command()
@click.option("--train-nlq", type=click.Path(exists=True), required=True)
@click.option("--train-ql", type=click.Path(exists=True), required=True)
@click.option("--train-manifest", type=click.Path(exists=True), default=None)
@click.option("--templates", "templates_path", type=click.Path(exists=True), required=True)
@click.option("--input", "input_path", type=click.Path(exists=True), required=True,
              help="NLQ file to predict queries for.")
@click.option("--out", "out_path", type=click.Path(), required=True, help="pred.ql output.")
def memorize(train_nlq, train_ql, train_manifest, templates_path, input_path, out_path):
    """Train the template memorizer and predict queries for an NLQ file."""
    train = read_parallel(train_nlq, train_ql, train_manifest)
    templates = read_templates(templates_path)
    index = build_index(train, templates)
    model = train_memorizer(train, templates, index)
    lines = Path(input_path).read_text(encoding="utf-8").splitlines()
    preds = [" ".join(memorizer_predict(model, qlang.tokenize_nlq(line))) for line in lines]
    write_lines(out_path, preds)
    click.echo(f"wrote {len(preds)} predictions")


@main.command()
@click.option("--train-ql", type=click.Path(exists=True), required=True)
@click.option("--eval-ql", type=click.Path(exists=True), required=True)
@click.option("--order", type=int, default=5, show_default=True)
@click.option("--k", type=float, default=0.1, show_default=True)
@click.option("--out-logp", type=click.Path(), default=None, help="Optional pred.logp output.")
def lm(train_ql, eval_ql, order, k, out_logp):
    """Train the n-gram query LM and report perplexity on an evaluation file."""
    train = [line.split() for line in Path(train_ql).read_text(encoding="utf-8").splitlines()]
    eval_sents = [line.split() for line in Path(eval_ql).read_text(encoding="utf-8").splitlines()]
    model = train_ngram_lm(train, order=order, k=k)
    if out_logp:
        scored = [score_sentence(model, sent) for sent in eval_sents]
        write_lines(out_logp, [" ".join(repr(lp) for lp in sent) for sent in scored])
    value = lm_perplexity(model, eval_sents)
    click.echo(json.dumps({"metric": "lm_perplexity", "value": value}))


@main.command("eval")
@click.option("--pred", "pred_path", type=click.Path(exists=True), required=True)
@click.option("--test", "test_path", type=click.Path(exists=True), required=True)
@click.option("--logp", "logp_path", type=click.Path(exists=True), default=None,
              help="Optional per-token natural-log probabilities, one line per sentence.")
@click.option("--out", "out_path", type=click.Path(), default=None, help="Write the report JSON here.")
def eval_cmd(pred_path, test_path, logp_path, out_path):
    """Score predictions against references: BLEU, and perplexity from --logp."""
    preds = [line.split() for line in Path(pred_path).read_text(encoding="utf-8").splitlines()]
    refs = [line.split() for line in Path(test_path).read_text(encoding="utf-8").splitlines()]
    report = corpus_bleu(preds, refs)
    doc = {
        "bleu": report.bleu,
        "precisions": list(report.precisions),
        "brevity_penalty": report.brevity_penalty,
        "candidate_len": report.candidate_len,
        "reference_len": report.reference_len,
    }
    if logp_path:
        sents = [[float(x) for x in line.split()]
                 for line in Path(logp_path).read_text(encoding="utf-8").splitlines()]
        doc["perplexity"] = perplexity(sents)
    text = json.dumps(doc, indent=2) + "\n"
    if out_path:
        write_text(out_path, text)
    click.echo(text, nl=False)


@main.command()
@_config_options
def report(config_path, workdir):
    """Consolidate every preset report under the workdir into one CSV."""
    cfg = _load_config(config_path, workdir)
    out = Path(cfg.workdir) / "consolidated.csv"
    write_text(out, experiments.consolidate_reports(cfg.workdir))
    click.echo(str(out))


@main.command()
@click.argument("preset", type=click.Choice(list(experiments.PRESETS)))
@click.option("--seeds", "seeds_path", type=click.Path(exists=True), default=None,
              help="seeds.jsonl (default: bundled toy seeds).")
@click.option("--kg", "kg_path", type=click.Path(exists=True), default=None,
              help="N-Triples graph (default: bundled toy graph).")
@_config_options
def run(preset, seeds_path, kg_path, config_path, workdir):
    """Run an experiment preset end to end."""
    cfg = _load_config(config_path, workdir)
    overrides = {}
    if seeds_path:
        overrides["seeds_path"] = seeds_path
    if kg_path:
        overrides["kg_path"] = kg_path
    if overrides:
        cfg = dataclasses.replace(cfg, **overrides)
    rows = experiments.run_experiment(preset, cfg)
    click.echo(f"{preset}: wrote {len(rows)} report rows under {Path(cfg.workdir) / preset}")


if __name__ == "__main__":
    main()
