"""Command-line interface.

Stages are exposed as subcommands (extract, generate, attribute, partition,
memorize, lm, eval, report) plus `run` for the exp1/exp2/exp3 presets. The
stage subcommands call the same stage functions as the presets, so a chain of
them builds the corpus and splits a preset builds. `generate` and `partition`
take --rng-seed; `run` and `report` take --config and --workdir, the workdir
defaulting to $SPLITHYGIENE_WORKDIR or the current directory. Exit codes:
0 success, 2 validation/usage error, 1 runtime error.

The commands that run a baseline or a metric import `baselines` and `metrics`
themselves, and `rng` draws in pure Python, so the preparation steps (extract,
generate, attribute, partition) never load numpy. Importing this module sets
OPENBLAS_NUM_THREADS to 1 unless the environment sets it: the package calls
no BLAS routine, so OpenBLAS's worker threads would only compete with the
main thread for the CPU.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
from pathlib import Path

import click

from . import experiments
from .attribution import build_index, write_attribution
from .corpus import (
    LEAKY,
    MAX_LM_ORDER,
    SANITIZED,
    dedup,
    file_digest,
    nlq_tokens,
    read_logp,
    read_lines,
    read_parallel,
    read_seeds,
    unique_ids,
    write_corpus,
    write_lines,
    write_text,
)
from .errors import EmptyCorpus, InputFileError, LineCountMismatch, RatioError, SplitHygieneError
from .partitioner import _check_ratios, leaky_partition, sanitized_partition, split_templates
from .synthesis import read_templates, write_templates

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # read once, when a command first loads numpy

_WORKDIR_ENV = "SPLITHYGIENE_WORKDIR"
_DEFAULTS = experiments.RunConfig()


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


class _Main(click.Group):
    """Maps validation errors of any subcommand to exit code 2, other I/O errors to 1.

    A path an option or a config key names is a usage error when a file it needs is missing, when a
    directory stands where a file should be, or when a regular file stands where a directory should be:
    opening a path under a file raises NotADirectoryError, and making that file a directory FileExistsError.
    """

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (SplitHygieneError, FileNotFoundError, IsADirectoryError, NotADirectoryError, FileExistsError,
                ValueError) as exc:
            _fail(2, str(exc))
        except OSError as exc:
            _fail(1, str(exc))


_rng_seed_option = click.option("--rng-seed", type=click.IntRange(0, 2**64 - 1), default=0, show_default=True,
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
@click.option("--limit", type=click.IntRange(min=0), default=_DEFAULTS.instance_limit, show_default=True,
              help="Instances per template.")
@click.option("--out-dir", type=click.Path(), required=True)
@_rng_seed_option
def generate(templates_path, kg_path, limit, out_dir, rng_seed):
    """Instantiate templates against an N-Triples graph."""
    templates = read_templates(templates_path)
    instances, removed = experiments.generate_stage(templates, experiments.load_graph(kg_path), limit, rng_seed)
    write_corpus(out_dir, instances)
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


def _parse_ratios(text: str) -> tuple[float, ...]:
    """The --ratios value as numbers; a value that is not three finite numbers summing to 1 raises RatioError."""
    try:
        ratios = tuple(float(r) for r in text.split(","))
        _check_ratios(ratios)
    except (ValueError, RatioError) as exc:
        raise RatioError(f"--ratios {text!r}: {exc}") from None
    return ratios


@main.command()
@click.option("--scheme", type=click.Choice([LEAKY, SANITIZED]), required=True)
@click.option("--nlq", "nlq_path", type=click.Path(exists=True), required=True)
@click.option("--ql", "ql_path", type=click.Path(exists=True), required=True)
@click.option("--manifest", "manifest_path", type=click.Path(exists=True), default=None)
@click.option("--ratios", default=",".join(map(str, _DEFAULTS.ratios)), show_default=True,
              help="Train/valid/test ratios of the leaky scheme; checked for both schemes, but the "
                   "sanitized scheme routes test by template and cuts its pool 90/10.")
@click.option("--templates", "templates_path", type=click.Path(exists=True), default=None,
              help="Required for the sanitized scheme.")
@click.option("--seeds", "seeds_path", type=click.Path(exists=True), default=None,
              help="Required for the sanitized scheme.")
@click.option("--seed-test-fraction", type=float, default=_DEFAULTS.seed_test_fraction, show_default=True)
@click.option("--out-dir", type=click.Path(), required=True)
@_rng_seed_option
def partition(scheme, nlq_path, ql_path, manifest_path, ratios, templates_path,
              seeds_path, seed_test_fraction, out_dir, rng_seed):
    """Split a parallel corpus into train/valid/test."""
    ratio_tuple = _parse_ratios(ratios)
    experiments._check_seed_test_fraction(seed_test_fraction)
    if scheme == SANITIZED and not (templates_path and seeds_path):
        _fail(2, "sanitized partitioning needs --templates and --seeds")
    instances = read_parallel(nlq_path, ql_path, manifest_path)
    index = tsplit = None
    if scheme == LEAKY:
        split = leaky_partition(instances, ratio_tuple, rng_seed)
    else:
        templates = read_templates(templates_path)
        read = read_seeds(seeds_path)
        seeds = unique_ids(seeds_path, read, dedup(read)[0])
        index = build_index(instances, templates)
        seed_test_ids = experiments.held_out_seed_ids(seeds, seed_test_fraction, rng_seed)
        tsplit = split_templates(index, seeds, seed_test_ids)
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
    from .baselines import memorizer_index, memorizer_predict, train_memorizer

    train = read_parallel(train_nlq, train_ql, train_manifest)
    index = build_index(train, read_templates(templates_path))
    model = train_memorizer(memorizer_index(train, index), range(len(train)))
    words: dict[str, tuple[str, ...]] = {}
    questions = [nlq_tokens(line, input_path, i, words) for i, line in enumerate(read_lines(input_path), start=1)]
    preds = [" ".join(pred) for pred in memorizer_predict(model, questions)]
    write_lines(out_path, preds)
    click.echo(f"wrote {len(preds)} predictions")


@main.command()
@click.option("--train-ql", type=click.Path(exists=True), required=True)
@click.option("--eval-ql", type=click.Path(exists=True), required=True)
@click.option("--order", type=int, default=_DEFAULTS.lm_order, show_default=True,
              help=f"N-gram order, in [1, {MAX_LM_ORDER}].")
@click.option("--k", type=float, default=_DEFAULTS.lm_k, show_default=True)
@click.option("--out-logp", type=click.Path(), default=None, help="Optional pred.logp output.")
def lm(train_ql, eval_ql, order, k, out_logp):
    """Train the n-gram query LM and report perplexity on an evaluation file."""
    from .baselines import ngram_index, score_rows, train_ngram_lm
    from .metrics import perplexity

    train = [line.split() for line in read_lines(train_ql)]
    eval_sents = [line.split() for line in read_lines(eval_ql)]
    index = ngram_index(train + eval_sents, order)  # the eval sentences are rows after the train ones
    model = train_ngram_lm(index, range(len(train)), k)
    if not eval_sents:
        raise EmptyCorpus("no evaluation sentences")
    scored = score_rows(model, range(len(train), len(train) + len(eval_sents)))
    if out_logp:
        write_lines(out_logp, (" ".join(repr(lp) for lp in sent) for sent in scored))
    click.echo(json.dumps({"metric": "lm_perplexity", "value": perplexity(scored)}))


@main.command("eval")
@click.option("--pred", "pred_path", type=click.Path(exists=True), required=True)
@click.option("--test", "test_path", type=click.Path(exists=True), required=True)
@click.option("--logp", "logp_path", type=click.Path(exists=True), default=None,
              help="Optional per-token natural-log probabilities, one line per sentence.")
@click.option("--out", "out_path", type=click.Path(), default=None, help="Write the report JSON here.")
def eval_cmd(pred_path, test_path, logp_path, out_path):
    """Score predictions against references: BLEU, and perplexity from --logp."""
    from .metrics import corpus_bleu, perplexity

    preds = [line.split() for line in read_lines(pred_path)]
    refs = [line.split() for line in read_lines(test_path)]
    if len(preds) != len(refs):
        raise LineCountMismatch(f"{pred_path} has {len(preds)} lines but {test_path} has {len(refs)}")
    doc = dataclasses.asdict(corpus_bleu(preds, refs))
    if logp_path:
        logp = read_logp(logp_path)
        if len(logp) != len(refs):
            raise LineCountMismatch(f"{logp_path} has {len(logp)} lines but {test_path} has {len(refs)}")
        for line, (values, ref) in enumerate(zip(logp, refs), start=1):
            if len(values) != len(ref) + 1:  # one per token and one for the end marker, as `lm --out-logp` writes
                raise InputFileError(f"{logp_path}:{line}: {len(values)} log probabilities, expected {len(ref) + 1} "
                                     f"for the {len(ref)} tokens of {test_path}:{line} and the end marker")
        doc["perplexity"] = perplexity(logp)
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
