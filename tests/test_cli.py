from __future__ import annotations

import csv
import dataclasses
import errno
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings, strategies as st

import references
from splithygiene import baselines, corpus, experiments, partitioner, synthesis, toydata
from splithygiene.cli import main
from splithygiene.errors import ConfigError, InputFileError, SplitHygieneError

SEEDS = str(toydata.toy_seeds_path())
KG = str(toydata.toy_kg_path())


@pytest.fixture()
def runner():
    return CliRunner()


def _ok(result):
    assert result.exit_code == 0, result.output
    return result


def test_stage_subcommands_compose(tmp_path, runner):
    templates = tmp_path / "templates.jsonl"
    _ok(runner.invoke(main, ["extract", "--seeds", SEEDS, "--out", str(templates)]))
    assert templates.exists()

    gen_dir = tmp_path / "gen"
    _ok(runner.invoke(main, [
        "generate", "--templates", str(templates), "--kg", KG,
        "--limit", "12", "--rng-seed", "5", "--out-dir", str(gen_dir)]))
    nlq = gen_dir / "instances.nlq"
    ql = gen_dir / "instances.ql"
    manifest = gen_dir / "instances.manifest.json"
    assert nlq.exists() and ql.exists() and manifest.exists()

    att = tmp_path / "attribution.tsv"
    _ok(runner.invoke(main, [
        "attribute", "--nlq", str(nlq), "--ql", str(ql), "--manifest", str(manifest),
        "--templates", str(templates), "--out", str(att)]))
    assert att.read_text().count("\n") == len(nlq.read_text().splitlines())

    split_dir = tmp_path / "split"
    _ok(runner.invoke(main, [
        "partition", "--scheme", "leaky", "--nlq", str(nlq), "--ql", str(ql),
        "--manifest", str(manifest), "--ratios", "0.8,0.1,0.1",
        "--rng-seed", "42", "--out-dir", str(split_dir)]))
    doc = json.loads((split_dir / "manifest.json").read_text())
    assert doc["scheme"] == "leaky"
    assert doc["rng_seed"] == 42
    assert sum(doc["counts"]) == len(nlq.read_text().splitlines())

    pred = tmp_path / "pred.ql"
    _ok(runner.invoke(main, [
        "memorize", "--train-nlq", str(split_dir / "train.nlq"),
        "--train-ql", str(split_dir / "train.ql"),
        "--templates", str(templates),
        "--input", str(split_dir / "test.nlq"), "--out", str(pred)]))
    assert len(pred.read_text().splitlines()) == len((split_dir / "test.nlq").read_text().splitlines())

    logp = tmp_path / "pred.logp"
    lm_result = _ok(runner.invoke(main, [
        "lm", "--train-ql", str(split_dir / "train.ql"),
        "--eval-ql", str(split_dir / "test.ql"), "--out-logp", str(logp)]))
    assert json.loads(lm_result.output)["metric"] == "lm_perplexity"

    report = tmp_path / "bleu.json"
    eval_result = _ok(runner.invoke(main, [
        "eval", "--pred", str(pred), "--test", str(split_dir / "test.ql"),
        "--logp", str(logp), "--out", str(report)]))
    doc = json.loads(report.read_text())
    assert 0.0 <= doc["bleu"] <= 100.0
    assert doc["perplexity"] > 1.0
    assert json.loads(eval_result.output) == doc


def test_sanitized_partition_subcommand(tmp_path, runner):
    templates = tmp_path / "templates.jsonl"
    _ok(runner.invoke(main, ["extract", "--seeds", SEEDS, "--out", str(templates)]))
    gen_dir = tmp_path / "gen"
    _ok(runner.invoke(main, [
        "generate", "--templates", str(templates), "--kg", KG,
        "--limit", "10", "--rng-seed", "5", "--out-dir", str(gen_dir)]))
    split_dir = tmp_path / "split"
    _ok(runner.invoke(main, [
        "partition", "--scheme", "sanitized",
        "--nlq", str(gen_dir / "instances.nlq"), "--ql", str(gen_dir / "instances.ql"),
        "--manifest", str(gen_dir / "instances.manifest.json"),
        "--templates", str(templates), "--seeds", SEEDS,
        "--seed-test-fraction", "0.2", "--rng-seed", "7", "--out-dir", str(split_dir)]))
    diag = json.loads((split_dir / "diagnostics.json").read_text())
    assert "ambiguous_count" in diag and "template_histograms" in diag
    manifest = json.loads((split_dir / "manifest.json").read_text())
    assert manifest["scheme"] == "sanitized"


def test_generate_names_limit_when_it_is_negative(tmp_path, runner):
    templates = tmp_path / "templates.jsonl"
    _ok(runner.invoke(main, ["extract", "--seeds", SEEDS, "--out", str(templates)]))
    result = runner.invoke(main, ["generate", "--templates", str(templates), "--kg", KG, "--limit", "-1",
                                  "--out-dir", str(tmp_path / "gen")])
    assert result.exit_code == 2
    assert "Invalid value for '--limit': -1 is not in the range x>=0." in result.stderr
    assert not (tmp_path / "gen").exists()


def test_partition_sanitized_requires_templates(tmp_path, runner):
    gen = tmp_path / "x.nlq"
    gen.write_text("is it here ?\n")
    ql = tmp_path / "x.ql"
    ql.write_text("ASK WHERE { <e:s> <p:p> <e:o> }\n")
    result = runner.invoke(main, [
        "partition", "--scheme", "sanitized", "--nlq", str(gen), "--ql", str(ql),
        "--out-dir", str(tmp_path / "out")])
    assert result.exit_code == 2


@pytest.mark.parametrize("given", [[], ["--seeds", SEEDS], ["--templates", "templates.jsonl"]])
def test_partition_sanitized_checks_its_options_before_reading_the_corpus(tmp_path, runner, given, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "x.nlq").write_text("is it here ?\n")
    (tmp_path / "x.ql").write_text('ASK WHERE { <e:s> <p:p> "lit" }\n')  # a line that does not parse
    (tmp_path / "templates.jsonl").write_text("")
    result = runner.invoke(main, ["partition", "--scheme", "sanitized", "--nlq", "x.nlq", "--ql", "x.ql", *given,
                                  "--out-dir", "out"])
    assert result.exit_code == 2
    assert result.stderr == "error: sanitized partitioning needs --templates and --seeds\n"
    assert not (tmp_path / "out").exists()


# imports the CLI, then runs each tab-separated argument list given after a module name; prints whether that
# module was loaded after the import and after each run
_IMPORT_PROBE = """
import json, sys
import splithygiene.cli, splithygiene.experiments
module = sys.argv[1]
loaded = [module in sys.modules]
for args in sys.argv[2:]:
    splithygiene.cli.main.main(args=args.split("\\t"), standalone_mode=False)
    loaded.append(module in sys.modules)
print(json.dumps(loaded))
"""


def test_the_cli_import_extract_and_attribute_load_no_numpy(tmp_path, runner):
    corpus_dir = tmp_path / "corpus"
    _ok(runner.invoke(main, ["extract", "--seeds", SEEDS, "--out", str(tmp_path / "t.jsonl")]))
    _ok(runner.invoke(main, ["generate", "--templates", str(tmp_path / "t.jsonl"), "--kg", KG, "--limit", "5",
                             "--out-dir", str(corpus_dir)]))
    extract = ["extract", "--seeds", SEEDS, "--out", str(tmp_path / "again.jsonl")]
    attribute = ["attribute", "--nlq", str(corpus_dir / "instances.nlq"), "--ql", str(corpus_dir / "instances.ql"),
                 "--manifest", str(corpus_dir / "instances.manifest.json"), "--templates", str(tmp_path / "t.jsonl"),
                 "--out", str(tmp_path / "attribution.tsv")]
    result = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, "numpy", "\t".join(extract), "\t".join(attribute)],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout.splitlines()[-1]) == [False, False, False]
    assert (tmp_path / "again.jsonl").read_bytes() == (tmp_path / "t.jsonl").read_bytes()
    assert (tmp_path / "attribution.tsv").read_text().count("\n") > 100


def test_the_preparation_steps_load_no_numpy(tmp_path):
    # generate and both partition schemes draw their shuffles, in pure Python
    templates, out = str(tmp_path / "t.jsonl"), tmp_path / "corpus"
    corpus_files = ["--nlq", str(out / "instances.nlq"), "--ql", str(out / "instances.ql"),
                    "--manifest", str(out / "instances.manifest.json")]
    steps = [
        ["extract", "--seeds", SEEDS, "--out", templates],
        ["generate", "--templates", templates, "--kg", KG, "--limit", "20", "--rng-seed", "3", "--out-dir", str(out)],
        ["attribute", *corpus_files, "--templates", templates, "--out", str(tmp_path / "attribution.tsv")],
        ["partition", "--scheme", "leaky", *corpus_files, "--out-dir", str(tmp_path / "leaky")],
        ["partition", "--scheme", "sanitized", *corpus_files, "--templates", templates, "--seeds", SEEDS,
         "--out-dir", str(tmp_path / "sanitized")],
    ]
    result = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, "numpy", *map("\t".join, steps)],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout.splitlines()[-1]) == [False] * 6
    for scheme in ("leaky", "sanitized"):
        assert (tmp_path / scheme / "test.nlq").read_text().count("\n") > 10


def test_no_command_loads_openssl(tmp_path):
    # SHA-256 (stream keys, config digests) comes from CPython's built-in module: hashlib would load _hashlib,
    # which maps OpenSSL's libcrypto
    templates, out, split = str(tmp_path / "t.jsonl"), tmp_path / "corpus", tmp_path / "sanitized"
    corpus_files = ["--nlq", str(out / "instances.nlq"), "--ql", str(out / "instances.ql"),
                    "--manifest", str(out / "instances.manifest.json")]
    steps = [
        ["extract", "--seeds", SEEDS, "--out", templates],
        ["generate", "--templates", templates, "--kg", KG, "--limit", "20", "--rng-seed", "3", "--out-dir", str(out)],
        ["attribute", *corpus_files, "--templates", templates, "--out", str(tmp_path / "attribution.tsv")],
        ["partition", "--scheme", "leaky", *corpus_files, "--out-dir", str(tmp_path / "leaky")],
        ["partition", "--scheme", "sanitized", *corpus_files, "--templates", templates, "--seeds", SEEDS,
         "--out-dir", str(split)],
        ["memorize", "--train-nlq", str(split / "train.nlq"), "--train-ql", str(split / "train.ql"),
         "--templates", templates, "--input", str(split / "test.nlq"), "--out", str(tmp_path / "pred.ql")],
        ["lm", "--train-ql", str(split / "train.ql"), "--eval-ql", str(split / "test.ql"),
         "--out-logp", str(tmp_path / "test.logp")],
        ["eval", "--pred", str(tmp_path / "pred.ql"), "--test", str(split / "test.ql"),
         "--logp", str(tmp_path / "test.logp"), "--out", str(tmp_path / "eval.json")],
        ["run", "exp3", "--workdir", str(tmp_path / "w")],
        ["report", "--workdir", str(tmp_path / "w")],
    ]
    result = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, "_hashlib", *map("\t".join, steps)],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout.splitlines()[-1]) == [False] * (1 + len(steps))
    assert json.loads((tmp_path / "eval.json").read_text())["perplexity"] > 1
    assert (tmp_path / "w" / "consolidated.csv").read_text().count("\n") > 1


def test_a_preset_loads_numpy_but_not_numpy_random(tmp_path):
    run = ["run", "exp3", "--workdir", str(tmp_path / "w")]
    for module, after_run in (("numpy", True), ("numpy.random", False)):
        result = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, module, "\t".join(run)],
                                capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout.splitlines()[-1]) == [False, after_run]


@pytest.mark.parametrize("given, expected", [(None, "1"), ("2", "2")])
def test_the_cli_starts_numpy_with_one_openblas_thread_unless_the_environment_says_otherwise(given, expected):
    # the package calls no BLAS routine, so an OpenBLAS worker thread only competes with the main thread
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    if given is not None:
        env["OPENBLAS_NUM_THREADS"] = given
    probe = ("import os, splithygiene.cli, numpy; tasks = '/proc/self/task'; "
             "print(os.environ['OPENBLAS_NUM_THREADS'], len(os.listdir(tasks)) if os.path.isdir(tasks) else '-')")
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    value, threads = result.stdout.split()
    assert value == expected
    if expected == "1" and threads != "-":
        assert threads == "1"


@pytest.mark.parametrize("order", ["0", "33", str(10**20)])
def test_an_lm_order_outside_the_indexable_range_exits_2_naming_it(tmp_path, runner, order):
    # a longer order than the longest query adds nothing, and one past 32 is refused before any index is built
    (tmp_path / "t.ql").write_text("a b\n")
    result = runner.invoke(main, ["lm", "--train-ql", str(tmp_path / "t.ql"), "--eval-ql", str(tmp_path / "t.ql"),
                                  "--order", order])
    assert result.exit_code == 2
    assert result.output == f"error: order must be in [1, 32], got {order}\n"


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
@pytest.mark.parametrize("command", ["generate", "partition"])
def test_an_rng_seed_option_outside_64_bits_exits_2(tmp_path, runner, command, seed):
    # a seed outside [0, 2**64) would name the stream of another seed
    for name in ("t.jsonl", "x.nlq", "x.ql"):
        (tmp_path / name).write_text("")
    args = {
        "generate": ["generate", "--templates", str(tmp_path / "t.jsonl"), "--kg", KG],
        "partition": ["partition", "--scheme", "leaky", "--nlq", str(tmp_path / "x.nlq"),
                      "--ql", str(tmp_path / "x.ql")],
    }[command]
    result = runner.invoke(main, [*args, "--rng-seed", seed, "--out-dir", str(tmp_path / "out")])
    assert result.exit_code == 2, result.output
    assert "--rng-seed" in result.output and "0<=x<=18446744073709551615" in result.output
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("seeds", [(-1,), (2**64,), (-1, 2**64 - 1), (101, 3 * 2**64 - 1)])
def test_an_rng_seed_outside_64_bits_is_a_config_error(seeds):
    with pytest.raises(ConfigError, match=r"rng_seeds: expected one or more distinct integers in \[0, 2\*\*64\)"):
        experiments.RunConfig(rng_seeds=seeds)


def test_missing_file_is_a_usage_error(tmp_path, runner):
    result = runner.invoke(main, [
        "extract", "--seeds", str(tmp_path / "none.jsonl"), "--out", str(tmp_path / "t.jsonl")])
    assert result.exit_code == 2


@pytest.mark.parametrize("command", ["extract", "generate", "attribute", "eval", "run"])
def test_a_directory_named_for_an_input_file_is_a_usage_error(tmp_path, runner, command):
    templates = tmp_path / "templates.jsonl"
    _ok(runner.invoke(main, ["extract", "--seeds", SEEDS, "--out", str(templates)]))
    folder = tmp_path / "folder"
    folder.mkdir()
    (tmp_path / "c.ql").write_text("ASK WHERE { <e:s> <p:p> <e:o> }\n")
    (tmp_path / "run.conf").write_text(f'seeds_path = "{folder}"\n')
    args = {
        "extract": ["extract", "--seeds", str(folder), "--out", str(tmp_path / "t.jsonl")],
        "generate": ["generate", "--templates", str(templates), "--kg", str(folder), "--out-dir", str(tmp_path / "g")],
        "attribute": ["attribute", "--nlq", str(folder), "--ql", str(tmp_path / "c.ql"), "--templates", str(templates),
                      "--out", str(tmp_path / "a.tsv")],
        "eval": ["eval", "--pred", str(folder), "--test", str(tmp_path / "c.ql")],
        "run": ["run", "exp3", "--config", str(tmp_path / "run.conf"), "--workdir", str(tmp_path / "w")],
    }[command]
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert result.output.splitlines()[-1] == f"error: [Errno 21] Is a directory: '{folder}'"


def test_a_template_with_an_empty_id_keeps_its_origins_through_generate(tmp_path, runner, industry_template):
    kg = tmp_path / "kg.nt"
    kg.write_text("".join(f"<http://dbpedia.org/resource/{s}> <http://dbpedia.org/ontology/industry> "
                          f"<http://dbpedia.org/resource/{o}> .\n"
                          for s, o in (("Robot_Comics", "Publishing"), ("Tiger_Aircraft", "Aerospace"))))
    synthesis.write_templates(tmp_path / "t.jsonl", [dataclasses.replace(industry_template, id="")])
    out = tmp_path / "gen"
    _ok(runner.invoke(main, ["generate", "--templates", str(tmp_path / "t.jsonl"), "--kg", str(kg),
                             "--out-dir", str(out)]))
    read = corpus.read_parallel(out / "instances.nlq", out / "instances.ql", out / "instances.manifest.json")
    assert [(inst.id, inst.origin_template_id) for inst in read] == [("-0", ""), ("-1", "")]
    # a split manifest of the same instances records the same origins
    split = partitioner.Split3(tuple(read[:1]), (), tuple(read[1:]))
    manifest = corpus.make_manifest(split, corpus.LEAKY, 0, (0.5, 0.0, 0.5), "d" * 64)
    assert manifest["origins"] == json.loads((out / "instances.manifest.json").read_text())["origins"]


@pytest.mark.parametrize("command", ["attribute", "partition", "memorize"])
def test_a_placeholder_predicate_names_its_instance_and_exits_2(tmp_path, runner, command):
    templates = str(tmp_path / "templates.jsonl")
    _ok(runner.invoke(main, ["extract", "--seeds", SEEDS, "--out", templates]))
    nlq, ql = str(tmp_path / "c.nlq"), str(tmp_path / "c.ql")
    Path(nlq).write_text("is it so ?\nis it so ?\n")
    Path(ql).write_text("ASK WHERE { <e:s> <p:p> <e:o> }\nASK WHERE { <e:s> <Placeholder:A> <e:o> }\n")
    args = {
        "attribute": ["attribute", "--nlq", nlq, "--ql", ql, "--templates", templates,
                      "--out", str(tmp_path / "a.tsv")],
        "partition": ["partition", "--scheme", "sanitized", "--nlq", nlq, "--ql", ql, "--templates", templates,
                      "--seeds", SEEDS, "--out-dir", str(tmp_path / "split")],
        "memorize": ["memorize", "--train-nlq", nlq, "--train-ql", ql, "--templates", templates, "--input", nlq,
                     "--out", str(tmp_path / "pred.ql")],
    }[command]
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    # a manifest-less corpus numbers its ids from line-0, as attribution.tsv does
    assert result.output.splitlines()[-1] == "error: instance 'line-1': predicate <Placeholder:A> is not a concrete IRI"


def _output_commands(tmp_path, runner) -> dict[str, list[str]]:
    """Each command that writes one file, with its inputs on the toy data, less the option naming its output."""
    templates = tmp_path / "templates.jsonl"
    _ok(runner.invoke(main, ["extract", "--seeds", SEEDS, "--out", str(templates)]))
    (tmp_path / "c.nlq").write_text("is this here ?\n")
    (tmp_path / "c.ql").write_text("ASK WHERE { <e:s> <p:p> <e:o> }\n")
    nlq, ql = str(tmp_path / "c.nlq"), str(tmp_path / "c.ql")
    return {
        "extract": ["extract", "--seeds", SEEDS, "--out"],
        "attribute": ["attribute", "--nlq", nlq, "--ql", ql, "--templates", str(templates), "--out"],
        "memorize": ["memorize", "--train-nlq", nlq, "--train-ql", ql, "--templates", str(templates),
                     "--input", nlq, "--out"],
        "lm": ["lm", "--train-ql", ql, "--eval-ql", ql, "--out-logp"],
        "eval": ["eval", "--pred", ql, "--test", ql, "--out"],
    }


@pytest.mark.parametrize("command", ["extract", "attribute", "eval"])
def test_an_output_in_a_missing_directory_is_named(tmp_path, runner, command):
    # the missing directory cannot be made, because a file holds its parent's name
    args = _output_commands(tmp_path, runner)[command]
    (tmp_path / "blocker").write_text("a file where a directory is needed")
    before = sorted(tmp_path.rglob("*"))
    missing = tmp_path / "blocker" / "missing"
    result = runner.invoke(main, args + [str(missing / "out.txt")])
    assert result.exit_code == 2
    assert result.output.splitlines()[-1] == f"error: [Errno 20] Not a directory: '{missing}'"
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("command", ["generate", "attribute", "partition-leaky", "partition-sanitized", "run"])
def test_a_directory_at_an_output_file_path_is_named_and_exits_2(tmp_path, runner, command):
    # a split's files are written as any other output is, so the error that names the path is not rewrapped
    templates = str(tmp_path / "templates.jsonl")
    _ok(runner.invoke(main, ["extract", "--seeds", SEEDS, "--out", templates]))
    (tmp_path / "c.nlq").write_text("is this here ?\n")
    (tmp_path / "c.ql").write_text("ASK WHERE { <e:s> <p:p> <e:o> }\n")
    rows = ["--nlq", str(tmp_path / "c.nlq"), "--ql", str(tmp_path / "c.ql")]
    out = tmp_path / "out"
    args, blocked = {
        "generate": (["generate", "--templates", templates, "--kg", KG, "--out-dir", str(out)],
                     out / "instances.nlq"),
        "attribute": (["attribute", *rows, "--templates", templates, "--out", str(out / "a.tsv")], out / "a.tsv"),
        "partition-leaky": (["partition", "--scheme", "leaky", *rows, "--out-dir", str(out)], out / "train.nlq"),
        "partition-sanitized": (["partition", "--scheme", "sanitized", *rows, "--templates", templates,
                                 "--seeds", SEEDS, "--out-dir", str(out)], out / "train.nlq"),
        "run": (["run", "exp3", "--workdir", str(out)], out / "exp3" / "sanitized" / "train.nlq"),
    }[command]
    blocked.mkdir(parents=True)
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert result.output.splitlines()[-1] == f"error: [Errno 21] Is a directory: '{blocked}'"


@pytest.mark.parametrize("command", ["extract", "generate", "attribute", "partition-leaky", "partition-sanitized",
                                     "memorize", "lm", "eval", "report", "run", "config-input"])
def test_a_file_at_a_directory_path_is_named_and_exits_2(tmp_path, runner, command):
    # the mirror of a directory at a file path: a regular file holds the name of a directory on the way
    blocker = tmp_path / "afile"
    blocker.write_text("a file where a directory is needed")
    commands = _output_commands(tmp_path, runner)
    rows = ["--nlq", str(tmp_path / "c.nlq"), "--ql", str(tmp_path / "c.ql")]
    templates = str(tmp_path / "templates.jsonl")
    (tmp_path / "run.conf").write_text(f'seeds_path = "{blocker / "x"}"\n')
    exists, under = f"[Errno 17] File exists: '{blocker}'", "[Errno 20] Not a directory: '{}'"
    args, message = {
        "generate": (["generate", "--templates", templates, "--kg", KG, "--out-dir", str(blocker)], exists),
        "partition-leaky": (["partition", "--scheme", "leaky", *rows, "--out-dir", str(blocker)], exists),
        "partition-sanitized": (["partition", "--scheme", "sanitized", *rows, "--templates", templates,
                                 "--seeds", SEEDS, "--out-dir", str(blocker)], exists),
        "report": (["report", "--workdir", str(blocker)], exists),
        "run": (["run", "exp3", "--workdir", str(blocker)], under.format(blocker / "exp3")),
        "config-input": (["run", "exp3", "--config", str(tmp_path / "run.conf"), "--workdir", str(tmp_path / "w")],
                         under.format(blocker / "x")),
    }.get(command) or (commands[command] + [str(blocker / "out.txt")], exists)
    before = sorted(tmp_path.rglob("*"))
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert result.output.splitlines()[-1] == f"error: {message}"
    if command != "config-input":  # a preset that fails on its inputs writes a report that says so
        assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("command", ["extract", "attribute", "memorize", "lm", "eval", "report"])
def test_every_command_writes_into_a_missing_directory(tmp_path, runner, command):
    out = tmp_path / "missing" / "deeper" / "out.txt"
    if command == "report":
        _ok(runner.invoke(main, ["report", "--workdir", str(out.parent)]))
        out = out.parent / "consolidated.csv"
    else:
        _ok(runner.invoke(main, _output_commands(tmp_path, runner)[command] + [str(out)]))
    assert out.read_text(encoding="utf-8")
    assert [p.name for p in out.parent.iterdir()] == [out.name]


def test_corrupt_input_is_a_validation_error(tmp_path, runner):
    bad_nlq = tmp_path / "bad.nlq"
    bad_nlq.write_text("a question ?\n")
    bad_ql = tmp_path / "bad.ql"
    bad_ql.write_text("THIS IS NOT A QUERY\n")
    result = runner.invoke(main, [
        "partition", "--scheme", "leaky", "--nlq", str(bad_nlq), "--ql", str(bad_ql),
        "--out-dir", str(tmp_path / "out")])
    assert result.exit_code == 2


def test_a_kg_iri_no_query_can_write_is_skipped_before_attribution(tmp_path, runner):
    # "{" and "}" parse in no query, so the triples naming Os{lo} are malformed KG lines
    kg = tmp_path / "toy.nt"
    kg.write_text(toydata.toy_kg_path().read_text(encoding="utf-8").replace("/Oslo>", "/Os{lo}>"), encoding="utf-8")
    templates, gen = tmp_path / "templates.jsonl", tmp_path / "gen"
    _ok(runner.invoke(main, ["extract", "--seeds", SEEDS, "--out", str(templates)]))
    result = _ok(runner.invoke(main, ["generate", "--templates", str(templates), "--kg", str(kg),
                                      "--out-dir", str(gen)]))
    assert "warning: 4 malformed KG lines skipped" in result.stderr
    assert "os{lo}" not in (gen / "instances.nlq").read_text(encoding="utf-8")
    _ok(runner.invoke(main, ["attribute", "--nlq", str(gen / "instances.nlq"), "--ql", str(gen / "instances.ql"),
                             "--templates", str(templates), "--out", str(tmp_path / "attribution.tsv")]))


def test_run_warns_of_the_kg_lines_it_skips(tmp_path, runner):
    kg = tmp_path / "toy.nt"
    kg.write_text(toydata.toy_kg_path().read_text(encoding="utf-8")
                  + 'garbage line\n<http://x.org/a> <http://x.org/b> "a literal" .\n', encoding="utf-8")
    result = _ok(runner.invoke(main, ["run", "exp3", "--kg", str(kg), "--workdir", str(tmp_path / "w")]))
    assert "warning: 1 malformed KG lines skipped\n" in result.stderr
    assert "warning: 1 literal-object KG lines skipped\n" in result.stderr


def _generate_and_attribute(tmp_path, runner, old, new):
    """Run extract, generate and attribute on the toy KG with `old` replaced by `new`; the two results."""
    kg = tmp_path / "toy.nt"
    kg.write_text(toydata.toy_kg_path().read_text(encoding="utf-8").replace(old, new), encoding="utf-8")
    templates, gen = tmp_path / "templates.jsonl", tmp_path / "gen"
    _ok(runner.invoke(main, ["extract", "--seeds", SEEDS, "--out", str(templates)]))
    generated = _ok(runner.invoke(main, ["generate", "--templates", str(templates), "--kg", str(kg),
                                         "--limit", "1000", "--out-dir", str(gen)]))
    attributed = _ok(runner.invoke(main, ["attribute", "--nlq", str(gen / "instances.nlq"),
                                          "--ql", str(gen / "instances.ql"), "--templates", str(templates),
                                          "--out", str(tmp_path / "attribution.tsv")]))
    return generated, attributed


def test_a_kg_iri_spelled_like_a_placeholder_is_a_malformed_line(tmp_path, runner):
    # "<Placeholder:X>" would read back from instances.ql as a placeholder term, not an IRI
    generated, _ = _generate_and_attribute(tmp_path, runner, "<http://toy.example.org/resource/Oslo>",
                                           "<Placeholder:X>")
    assert "warning: 4 malformed KG lines skipped" in generated.stderr
    assert "Placeholder" not in (tmp_path / "gen" / "instances.ql").read_text(encoding="utf-8")


def test_an_entity_whose_label_has_no_token_generates_no_question(tmp_path, runner):
    # ".../resource/" is labelled "": a slot takes one or more tokens, so such a question has no template
    generated, attributed = _generate_and_attribute(tmp_path, runner, "/Oslo>", "/>")
    assert "generated 0 instances" not in generated.output
    assert attributed.output.endswith(" 0 unattributed)\n"), attributed.output


def test_generate_attribute_and_memorize_take_5000_pattern_and_5000_word_templates(tmp_path, runner):
    n = 5000
    words = " ".join(f"w{i}" for i in range(n))
    body = " . ".join(f"<Placeholder:A> <p:{i}> <e:o{i}>" for i in range(n))
    templates = tmp_path / "t.jsonl"
    templates.write_text(
        json.dumps({"id": "t-words", "nlq_pattern": f"{words} <A> ?", "origin_seed_id": "s",
                    "query_pattern": "ASK WHERE { <Placeholder:A> <p:0> <e:o0> }"}) + "\n"
        + json.dumps({"id": "t-patterns", "nlq_pattern": "is <A> everywhere ?", "origin_seed_id": "s",
                      "query_pattern": f"ASK WHERE {{ {body} }}"}) + "\n")
    (tmp_path / "kg.nt").write_text("".join(f"<e:{s}> <p:{i}> <e:o{i}> .\n" for i in range(n) for s in ("Here", "There")))
    _ok(runner.invoke(main, ["generate", "--templates", str(templates), "--kg", str(tmp_path / "kg.nt"),
                             "--out-dir", str(tmp_path / "gen")]))
    gen = tmp_path / "gen"
    assert sorted((gen / "instances.nlq").read_text().splitlines()) == [
        "is e:here everywhere ?", "is e:there everywhere ?", f"{words} e:here ?", f"{words} e:there ?"]
    corpus = ["--nlq", str(gen / "instances.nlq"), "--ql", str(gen / "instances.ql"),
              "--manifest", str(gen / "instances.manifest.json")]
    _ok(runner.invoke(main, ["attribute", *corpus, "--templates", str(templates), "--out", str(tmp_path / "a.tsv")]))
    assert sorted(line.split("\t")[1] for line in (tmp_path / "a.tsv").read_text().splitlines()) == [
        "t-patterns", "t-patterns", "t-words", "t-words"]
    (tmp_path / "input.nlq").write_text("is there everywhere ?\n")
    _ok(runner.invoke(main, ["memorize", "--train-nlq", str(gen / "instances.nlq"), "--train-ql",
                             str(gen / "instances.ql"), "--templates", str(templates),
                             "--input", str(tmp_path / "input.nlq"), "--out", str(tmp_path / "pred.ql")]))
    assert (tmp_path / "pred.ql").read_text() == f"ASK WHERE {{ {body} }}\n".replace(
        "<Placeholder:A>", "<http://example.org/resource/There>")


def test_run_preset_and_report(tmp_path, runner):
    workdir = tmp_path / "w"
    _ok(runner.invoke(main, ["run", "exp3", "--workdir", str(workdir)]))
    report_csv = workdir / "exp3" / "report.csv"
    assert report_csv.exists()
    rows = report_csv.read_text().splitlines()
    assert rows[0].startswith("experiment,scheme,rng_seed")
    assert any("lm_perplexity" in row for row in rows)
    _ok(runner.invoke(main, ["report", "--workdir", str(workdir)]))
    assert (workdir / "consolidated.csv").read_text().count("lm_perplexity") >= 2


def test_report_names_the_report_that_is_not_utf8(tmp_path, runner):
    header = "experiment,scheme,rng_seed\n"
    (tmp_path / "a").mkdir()
    (tmp_path / "a" / "report.csv").write_text(header + "exp1,leaky,1\n", encoding="utf-8")
    bad = tmp_path / "b" / "report.csv"
    bad.parent.mkdir()
    bad.write_bytes(header.encode() + b"exp1,sanitized,\xff\n")
    result = runner.invoke(main, ["report", "--workdir", str(tmp_path)])
    assert result.exit_code == 2
    assert result.stderr == f"error: {bad}:2: not UTF-8 text (invalid start byte)\n"
    assert not (tmp_path / "consolidated.csv").exists()


def test_workdir_env_default(tmp_path, runner, monkeypatch):
    monkeypatch.setenv("SPLITHYGIENE_WORKDIR", str(tmp_path / "envdir"))
    _ok(runner.invoke(main, ["run", "exp3"]))
    assert (tmp_path / "envdir" / "exp3" / "report.csv").exists()


def test_config_file_round_trip(tmp_path, runner):
    config = tmp_path / "run.conf"
    config.write_text(
        "rng_seeds = 11, 12\n"
        "instance_limit = 8\n"
        "seed_test_fraction = 0.2\n"
        f"workdir = \"{tmp_path / 'w2'}\"\n"
    )
    _ok(runner.invoke(main, ["run", "exp3", "--config", str(config)]))
    report = (tmp_path / "w2" / "exp3" / "report.json").read_text()
    assert json.loads(report)[0]["rng_seed"] == "11"


def test_unknown_config_key_rejected(tmp_path, runner):
    config = tmp_path / "bad.conf"
    config.write_text("does_not_exist = 1\n")
    result = runner.invoke(main, ["run", "exp3", "--config", str(config),
                                  "--workdir", str(tmp_path / "w3")])
    assert result.exit_code == 2


def test_runtime_failure_exits_1(tmp_path, runner, monkeypatch):
    # a full disk is no fault of the command line; a file where a directory should be is (exit 2, above)
    def full(src, dst):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), dst)

    monkeypatch.setattr(corpus.os, "replace", full)
    first = tmp_path / "w" / "exp3" / "templates.jsonl"  # the first file the preset writes
    result = runner.invoke(main, ["run", "exp3", "--workdir", str(tmp_path / "w")])
    assert result.exit_code == 1
    assert result.output.splitlines()[-1] == f"error: [Errno 28] No space left on device: '{first}'"


def _report_rows(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def test_failed_stage_is_named(tmp_path, monkeypatch):
    def boom(*args, **kwargs):
        raise ValueError("synthetic failure")

    monkeypatch.setattr(experiments, "_evaluate_partition", boom)
    config = experiments.RunConfig(workdir=str(tmp_path))
    with pytest.raises(ValueError, match="^synthetic failure$"):
        experiments.run_experiment("exp3", config)
    last = _report_rows(tmp_path / "exp3" / "report.csv")[-1]
    assert (last["metric"], last["split"]) == ("incomplete", "sanitized-halved")


# stage: the first stage of exp1 that reads the key; the check at load stops the run before any stage
@pytest.mark.parametrize("line, stage", [
    ("ratios = 0.5, 0.5, 0.5", "leaky-101"),
    ("seed_test_fraction = 1.5", "pipeline"),
])
def test_invalid_preset_config_exits_2_without_traceback(tmp_path, line, stage):
    config = tmp_path / "run.conf"
    config.write_text(line + "\n")
    result = subprocess.run(
        [sys.executable, "-m", "splithygiene.cli", "run", "exp1", "--config", str(config),
         "--workdir", str(tmp_path / "w")],
        capture_output=True, text=True)
    assert result.returncode == 2, result.stderr
    assert result.stderr.startswith(f"error: {config}:1: {line.split()[0]}: ")
    assert "Traceback" not in result.stdout + result.stderr
    assert not (tmp_path / "w").exists()


@pytest.mark.parametrize("line, message", [
    ("seed_test_fraction = -0.5", "seed_test_fraction: seed test fraction must be in [0, 1]: -0.5"),
    ("fractions = 0.5, 2.0", "fractions: fraction must be in (0, 1]: 2.0"),
    ("fractions = 0, 1", "fractions: fraction must be in (0, 1]: 0"),
])
@pytest.mark.parametrize("preset", ["exp1", "exp3"])
def test_a_key_out_of_range_is_named_at_load_for_every_preset(tmp_path, runner, line, message, preset):
    # exp1 and exp3 read no fractions, yet a config that exp2 would reject is rejected for them too
    config = tmp_path / "run.conf"
    config.write_text("instance_limit = 3\n" + line + "\n")
    result = runner.invoke(main, ["run", preset, "--config", str(config), "--workdir", str(tmp_path / "w")])
    assert result.exit_code == 2, result.output
    assert result.output == f"error: {config}:2: {message}\n"
    assert not (tmp_path / "w").exists()


@pytest.mark.parametrize("line, key", [
    ("instance_limit = 1.5", "instance_limit"),
    ("instance_limit = -1", "instance_limit"),
    ("lm_order = 0", "lm_order"),
    ("lm_order = 33", "lm_order"),
    ("lm_order = 100000000000", "lm_order"),
    ("lm_k = nan", "lm_k"),
    ("rng_seeds = 7, seven", "rng_seeds"),
    ("rng_seeds = 101, 101", "rng_seeds"),
    ("rng_seeds = 101, -1", "rng_seeds"),
    ("rng_seeds = 18446744073709551616", "rng_seeds"),
    ("fractions = 0.5, 0.25, 0.5", "fractions"),
])
def test_config_of_wrong_type_or_range_exits_2_without_traceback(tmp_path, line, key):
    config = tmp_path / "run.conf"
    config.write_text("# a comment\n" + line + "\n")
    result = subprocess.run(
        [sys.executable, "-m", "splithygiene.cli", "run", "exp3", "--config", str(config),
         "--workdir", str(tmp_path / "w")],
        capture_output=True, text=True)
    assert result.returncode == 2, result.stderr
    assert result.stderr.startswith(f"error: {config}:2: {key}: expected")
    assert "Traceback" not in result.stdout + result.stderr
    assert not (tmp_path / "w").exists()


def test_repeated_config_key_exits_2_naming_the_line(tmp_path):
    config = tmp_path / "run.conf"
    config.write_text("lm_order = 3\n# the same key again\nlm_order = 5\n")
    result = subprocess.run(
        [sys.executable, "-m", "splithygiene.cli", "run", "exp3", "--config", str(config),
         "--workdir", str(tmp_path / "w")],
        capture_output=True, text=True)
    assert result.returncode == 2, result.stderr
    assert result.stderr.startswith(f"error: {config}:3: lm_order: given twice, first on line 1")
    assert "Traceback" not in result.stdout + result.stderr
    assert not (tmp_path / "w").exists()


_ONE_QUERY = "ASK WHERE { <http://x.org/This> <p:p> <e:o> }"
_SEED_LINE = json.dumps({"id": "s0", "nlq": "is this here ?", "query": _ONE_QUERY,
                         "surface_forms": {"A": {"span": [1, 2]}}})
_TEMPLATE_LINE = json.dumps({"id": "t0", "nlq_pattern": "is <A> here ?",
                             "query_pattern": "ASK WHERE { <Placeholder:A> <p:p> <e:o> }",
                             "origin_seed_id": "s0"})


@pytest.mark.parametrize("option, text, line, message", [
    ("--manifest", '{"foo": 1}', 1, "missing key 'ids'"),
    ("--manifest", "[1, 2]", 1, "expected a JSON object, got [1, 2]"),
    ("--manifest", '{"ids": [1], "origins": []}', 1, "ids: expected a list of strings, got [1]"),
    ("--manifest", '{"ids": ["line-0"], "origins": []}', 1, "origins: expected an object of strings"),
    ("--manifest", '{"ids": "x"}', 1, 'ids: expected a list of strings, got "x"'),
    ("--seeds", "{}", 2, "missing key 'id'"),
    ("--seeds", '{"id": "s1"}', 2, "missing key 'nlq'"),
    ("--seeds", "[1]", 2, "expected a JSON object, got [1]"),
    ("--seeds", _SEED_LINE.replace("[1, 2]", "[1]"), 2, "surface_forms: expected an object of"),
    ("--templates", "{}", 2, "missing key 'id'"),
    ("--templates", "[1]", 2, "expected a JSON object, got [1]"),
    ("--templates", '{"id": "t1"', 2, "not valid JSON"),
])
def test_malformed_json_input_exits_2_without_traceback(tmp_path, option, text, line, message):
    (tmp_path / "c.nlq").write_text("is this here ?\n")
    (tmp_path / "c.ql").write_text(_ONE_QUERY + "\n")
    bad = tmp_path / "bad.json"
    # a seeds or templates file gets one valid record first, so the error names line 2
    if option == "--seeds":
        bad.write_text(_SEED_LINE + "\n" + text + "\n")
        args = ["extract", "--seeds", str(bad), "--out", str(tmp_path / "t.jsonl")]
    else:
        templates = tmp_path / "t.jsonl"
        templates.write_text(_TEMPLATE_LINE + "\n")
        if option == "--templates":
            bad.write_text(_TEMPLATE_LINE + "\n" + text + "\n")
            templates = bad
        else:
            bad.write_text(text + "\n")
        args = ["attribute", "--nlq", str(tmp_path / "c.nlq"), "--ql", str(tmp_path / "c.ql"),
                "--templates", str(templates), "--out", str(tmp_path / "a.tsv")]
        if option == "--manifest":
            args += ["--manifest", str(bad)]
    result = subprocess.run([sys.executable, "-m", "splithygiene.cli", *args], capture_output=True, text=True)
    assert result.returncode == 2, result.stderr
    assert result.stderr.startswith(f"error: {bad}:{line}: ")
    assert message in result.stderr
    assert "Traceback" not in result.stdout + result.stderr


@pytest.mark.parametrize("option, record, message", [
    ("--templates", {"nlq_pattern": "is <A> here ?", "query_pattern": "ASK WHERE { <e:s> <p:p> <e:o> }"},
     "template t1: NLQ and query disagree on labels"),
    ("--seeds", {"surface_forms": {"A": {"span": [1, 9]}}}, "seed s1: span for 'A' out of bounds"),
    ("--templates", {"nlq_pattern": "is <A> <B> here ?"}, "slots <A> and <B> are adjacent"),
    ("--templates", {"query_pattern": "ASK WHERE { <e:sss> FILTER }"},
     "position 20: expected an IRI, variable, or placeholder term"),
    ("--seeds", {"nlq": "is this here now ?",
                 "surface_forms": {"A": {"span": [1, 2]}, "B": {"span": [2, 3], "iri": "e:o"}}},
     "slots <A> and <B> are adjacent"),
    ("--seeds", {"nlq": "is this the one ?", "surface_forms": {"A": {"span": [2, 3]}}},
     "no query IRI matches the span for label 'A'"),
])
def test_semantic_record_errors_name_the_file_and_line(tmp_path, option, record, message):
    valid = json.loads(_SEED_LINE if option == "--seeds" else _TEMPLATE_LINE)
    bad = tmp_path / "bad.jsonl"
    bad.write_text(json.dumps(valid) + "\n" + json.dumps({**valid, "id": valid["id"][0] + "1", **record}) + "\n")
    if option == "--seeds":
        args = ["extract", "--seeds", str(bad), "--out", str(tmp_path / "t.jsonl")]
    else:
        (tmp_path / "c.nlq").write_text("is this here ?\n")
        (tmp_path / "c.ql").write_text(_ONE_QUERY + "\n")
        args = ["attribute", "--nlq", str(tmp_path / "c.nlq"), "--ql", str(tmp_path / "c.ql"),
                "--templates", str(bad), "--out", str(tmp_path / "a.tsv")]
    result = subprocess.run([sys.executable, "-m", "splithygiene.cli", *args], capture_output=True, text=True)
    assert result.returncode == 2, result.stderr
    assert result.stderr == f"error: {bad}:2: {message}\n"


def test_read_parallel_errors_name_the_file_and_line(tmp_path):
    nlq, ql = tmp_path / "c.nlq", tmp_path / "c.ql"
    nlq.write_text("is this here ?\nis it ?\n")
    ql.write_text(_ONE_QUERY + "\nASK WHERE { <e:a> <p:p> 42 }\n")
    templates = tmp_path / "t.jsonl"
    templates.write_text(_TEMPLATE_LINE + "\n")
    args = ["attribute", "--nlq", str(nlq), "--ql", str(ql), "--templates", str(templates),
            "--out", str(tmp_path / "a.tsv")]
    result = subprocess.run([sys.executable, "-m", "splithygiene.cli", *args], capture_output=True, text=True)
    assert result.returncode == 2, result.stderr
    assert result.stderr == f"error: {ql}:2: position 24: expected an IRI, variable, or placeholder term\n"


_OTHER_S0 = json.dumps({"id": "s0", "nlq": "is that here ?", "query": _ONE_QUERY.replace("This", "That"),
                        "surface_forms": {"A": {"span": [1, 2]}}})


@pytest.mark.parametrize("command", ["extract", "partition", "run"])
def test_a_seed_id_left_twice_after_dedup_exits_2(tmp_path, command):
    seeds = tmp_path / "seeds.jsonl"
    # line 2 repeats line 1 exactly and is dropped; line 3 is another seed with the same id
    seeds.write_text(_SEED_LINE + "\n" + _SEED_LINE + "\n\n" + _OTHER_S0 + "\n")
    (tmp_path / "c.nlq").write_text("is this here ?\n")
    (tmp_path / "c.ql").write_text(_ONE_QUERY + "\n")
    (tmp_path / "t.jsonl").write_text(_TEMPLATE_LINE + "\n")
    args = {
        "extract": ["extract", "--seeds", str(seeds), "--out", str(tmp_path / "out.jsonl")],
        "partition": ["partition", "--scheme", "sanitized", "--nlq", str(tmp_path / "c.nlq"),
                      "--ql", str(tmp_path / "c.ql"), "--templates", str(tmp_path / "t.jsonl"),
                      "--seeds", str(seeds), "--out-dir", str(tmp_path / "split")],
        "run": ["run", "exp3", "--seeds", str(seeds), "--workdir", str(tmp_path / "w")],
    }[command]
    result = subprocess.run([sys.executable, "-m", "splithygiene.cli", *args], capture_output=True, text=True)
    assert result.returncode == 2, result.stderr
    assert result.stderr == f"error: {seeds}:4: duplicate id 's0'\n"


def test_a_seed_with_a_raw_line_separator_in_a_json_string_is_one_record(tmp_path, runner):
    seeds = tmp_path / "seeds.jsonl"
    record = json.loads(_SEED_LINE)
    record["nlq"] = "is this\u2028here ?"
    seeds.write_text(json.dumps(record, ensure_ascii=False) + "\n", encoding="utf-8")
    assert "\u2028" in seeds.read_text(encoding="utf-8")
    result = _ok(runner.invoke(main, ["extract", "--seeds", str(seeds), "--out", str(tmp_path / "t.jsonl")]))
    assert result.output == "extracted 1 templates (0 duplicates dropped)\n"


@pytest.mark.parametrize("preset, ratios, message", [
    ("exp2", "nan, 0, 1", "ratios must be finite: (nan, 0, 1)"),
    ("exp3", "5, 5, 5", "ratios must sum to 1: (5, 5, 5)"),
    ("exp1", "0.8, 0.1, -0.1", "ratios must be non-negative: (0.8, 0.1, -0.1)"),
])
def test_a_preset_writes_no_manifest_with_bad_ratios(tmp_path, runner, preset, ratios, message):
    config = tmp_path / "run.conf"
    config.write_text(f"ratios = {ratios}\ninstance_limit = 3\n")
    result = runner.invoke(main, ["run", preset, "--config", str(config), "--workdir", str(tmp_path / "w")])
    assert result.exit_code == 2, result.output
    assert result.output == f"error: {config}:1: ratios: {message}\n"
    assert not list((tmp_path / "w").rglob("manifest.json"))


@pytest.mark.parametrize("scheme, ratios, message", [
    ("leaky", "nan,0,1", "ratios must be finite: (nan, 0.0, 1.0)"),
    ("leaky", "a,b,c", "could not convert string to float: 'a'"),
    ("sanitized", "5,5,5", "ratios must sum to 1: (5.0, 5.0, 5.0)"),
])
def test_partition_names_a_bad_ratios_option(tmp_path, runner, scheme, ratios, message):
    (tmp_path / "c.nlq").write_text("is this here ?\n")
    (tmp_path / "c.ql").write_text(_ONE_QUERY + "\n")
    (tmp_path / "s.jsonl").write_text(_SEED_LINE + "\n")
    (tmp_path / "t.jsonl").write_text(_TEMPLATE_LINE + "\n")
    result = runner.invoke(main, ["partition", "--scheme", scheme, "--nlq", str(tmp_path / "c.nlq"),
                                  "--ql", str(tmp_path / "c.ql"), "--templates", str(tmp_path / "t.jsonl"),
                                  "--seeds", str(tmp_path / "s.jsonl"), "--ratios", ratios,
                                  "--out-dir", str(tmp_path / "split")])
    assert result.exit_code == 2, result.output
    assert result.output == f"error: --ratios '{ratios}': {message}\n"
    assert not (tmp_path / "split").exists()


def test_exact_duplicate_seeds_are_dropped_and_counted(tmp_path):
    seeds = tmp_path / "seeds.jsonl"
    seeds.write_text(_SEED_LINE + "\n" + _SEED_LINE + "\n")
    kept, templates, removed = experiments.extract_stage(seeds)
    assert [s.id for s in kept] == ["s0"] and [t.id for t in templates] == ["t-s0"]
    assert removed == {"seeds": 1, "templates": 0}


def test_repeated_ids_in_templates_or_manifest_exit_2(tmp_path):
    (tmp_path / "c.nlq").write_text("is this here ?\nis this here ?\n")
    (tmp_path / "c.ql").write_text(_ONE_QUERY + "\n" + _ONE_QUERY + "\n")
    templates, manifest = tmp_path / "t.jsonl", tmp_path / "m.json"
    templates.write_text(_TEMPLATE_LINE + "\n" + _TEMPLATE_LINE + "\n")
    manifest.write_text('{"ids": ["x", "x"]}')
    attribute = ["attribute", "--nlq", str(tmp_path / "c.nlq"), "--ql", str(tmp_path / "c.ql"),
                 "--templates", str(templates), "--out", str(tmp_path / "a.tsv")]
    partition = ["partition", "--scheme", "leaky", "--nlq", str(tmp_path / "c.nlq"), "--ql", str(tmp_path / "c.ql"),
                 "--manifest", str(manifest), "--out-dir", str(tmp_path / "split")]
    for args, message in ((attribute, f"{templates}:2: duplicate id 't0'"), (partition, f"{manifest}: duplicate id 'x'")):
        result = subprocess.run([sys.executable, "-m", "splithygiene.cli", *args], capture_output=True, text=True)
        assert result.returncode == 2, result.stderr
        assert result.stderr == f"error: {message}\n"
    assert not (tmp_path / "split").exists()


def test_eval_logp_names_the_file_and_line_of_a_bad_value(tmp_path, runner):
    (tmp_path / "pred.ql").write_text("a b\na c\n")
    logp = tmp_path / "pred.logp"
    logp.write_text("-0.5 -1.0\n-0.5 x\n")
    result = runner.invoke(main, ["eval", "--pred", str(tmp_path / "pred.ql"), "--test", str(tmp_path / "pred.ql"),
                                  "--logp", str(logp)])
    assert result.exit_code == 2
    assert result.output == f"error: {logp}:2: not a number: 'x'\n"


def test_eval_logp_names_the_file_and_line_of_an_empty_line(tmp_path, runner):
    (tmp_path / "pred.ql").write_text("a b\na c\n")
    logp = tmp_path / "pred.logp"
    logp.write_text("-0.5 -1.0\n \n")
    result = runner.invoke(main, ["eval", "--pred", str(tmp_path / "pred.ql"), "--test", str(tmp_path / "pred.ql"),
                                  "--logp", str(logp)])
    assert result.exit_code == 2
    assert result.output == f"error: {logp}:2: no log probabilities\n"


def test_eval_names_both_files_on_a_line_count_mismatch(tmp_path, runner):
    pred, test = tmp_path / "pred.ql", tmp_path / "test.ql"
    pred.write_text("a b\na c\n")
    test.write_text("a b\n")
    result = runner.invoke(main, ["eval", "--pred", str(pred), "--test", str(test)])
    assert result.exit_code == 2
    assert result.output == f"error: {pred} has 2 lines but {test} has 1\n"


def test_eval_names_both_files_when_logp_and_test_line_counts_differ(tmp_path, runner):
    test, logp = tmp_path / "test.ql", tmp_path / "pred.logp"
    test.write_text("a b\na c\n")
    logp.write_text("-0.5 -1.0 -0.1\n")
    result = runner.invoke(main, ["eval", "--pred", str(test), "--test", str(test), "--logp", str(logp)])
    assert result.exit_code == 2
    assert result.output == f"error: {logp} has 1 lines but {test} has 2\n"


def test_eval_logp_names_the_file_and_line_of_a_wrong_value_count(tmp_path, runner):
    # each test line scores its tokens and the end marker: 3 values for "a b"
    test, logp = tmp_path / "t.ql", tmp_path / "p.logp"
    test.write_text("a b\na c\n")
    logp.write_text("-0.5 -0.5 -0.5\n-0.5\n")
    result = runner.invoke(main, ["eval", "--pred", str(test), "--test", str(test), "--logp", str(logp)])
    assert result.exit_code == 2
    assert result.output == (f"error: {logp}:2: 1 log probabilities, expected 3 for the 2 tokens of {test}:2 "
                             "and the end marker\n")


def test_lm_out_logp_bytes_equal_the_reference_on_the_sanitized_split(tmp_path, runner, toy_data, toy_config):
    _, split = experiments._sanitized_split(toy_data, toy_config, experiments.seed_split_ids(toy_data, toy_config))
    experiments.write_partition(tmp_path, split, "sanitized", toy_config.rng_seeds[0], toy_config.ratios,
                                toy_data.config_digest)
    train, test, logp = tmp_path / "train.ql", tmp_path / "test.ql", tmp_path / "pred.logp"
    result = _ok(runner.invoke(main, ["lm", "--train-ql", str(train), "--eval-ql", str(test),
                                      "--out-logp", str(logp)]))
    ref = references.ref_train_ngram_lm([line.split() for line in train.read_text().splitlines()],
                                        toy_config.lm_order, toy_config.lm_k)
    sents = [line.split() for line in test.read_text().splitlines()]
    assert len(sents) == len(split.test) > 500
    expected = "".join(" ".join(repr(lp) for lp in references.ref_score_sentence(ref, s)) + "\n" for s in sents)
    assert logp.read_bytes() == expected.encode("utf-8")
    assert json.loads(result.output)["value"] == references.ref_lm_perplexity(ref, sents)


def test_memorize_writes_the_predictions_the_preset_makes_on_a_leaky_split(tmp_path, runner, toy_data, toy_config,
                                                                          toy_baseline_corpus):
    seed = toy_config.rng_seeds[0]
    split = partitioner.leaky_partition(toy_data.instances, toy_config.ratios, seed)
    experiments.write_partition(tmp_path, split, "leaky", seed, toy_config.ratios, toy_data.config_digest)
    synthesis.write_templates(tmp_path / "templates.jsonl", toy_data.templates)
    pred = tmp_path / "pred.ql"
    _ok(runner.invoke(main, ["memorize", "--train-nlq", str(tmp_path / "train.nlq"),
                             "--train-ql", str(tmp_path / "train.ql"),
                             "--train-manifest", str(tmp_path / "manifest.json"),
                             "--templates", str(tmp_path / "templates.jsonl"),
                             "--input", str(tmp_path / "test.nlq"), "--out", str(pred)]))
    _, mem_index, rows = toy_baseline_corpus
    model = baselines.train_memorizer(mem_index, [rows[inst.id] for inst in split.train])
    predicted = baselines.memorizer_predict(model, [inst.nlq for inst in split.test])
    expected = "".join(" ".join(tokens) + "\n" for tokens in predicted)
    assert len(split.test) > 300
    assert pred.read_bytes() == expected.encode("utf-8")


def test_lm_scores_the_eval_file_once(tmp_path, runner, monkeypatch):
    (tmp_path / "q.ql").write_text("a b\nb a c\n")
    calls = []
    score = baselines.score_rows
    monkeypatch.setattr(baselines, "score_rows", lambda *args: calls.append(1) or score(*args))
    result = _ok(runner.invoke(main, ["lm", "--train-ql", str(tmp_path / "q.ql"), "--eval-ql", str(tmp_path / "q.ql"),
                                      "--out-logp", str(tmp_path / "q.logp")]))
    assert len(calls) == 1
    # one index over the train lines, then the eval lines: the eval lines are rows 2 and 3
    sents = [["a", "b"], ["b", "a", "c"]]
    model = baselines.train_ngram_lm(baselines.ngram_index(sents + sents, 5), range(2), 0.1)
    assert json.loads(result.output)["value"] == baselines.lm_perplexity(model, [2, 3])


@pytest.mark.parametrize("out_logp", [[], ["--out-logp", "q.logp"]])
def test_lm_on_an_empty_eval_file_exits_2(tmp_path, runner, out_logp, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "q.ql").write_text("a b\n")
    (tmp_path / "e.ql").write_text("")
    result = runner.invoke(main, ["lm", "--train-ql", "q.ql", "--eval-ql", "e.ql", *out_logp])
    assert result.exit_code == 2
    assert result.output == "error: no evaluation sentences\n"
    assert not (tmp_path / "q.logp").exists()


def _three_thousand_a_b(tmp_path):
    train = tmp_path / "t.ql"
    train.write_text("a b\n" * 3000)  # 9,000 events, vocab = {a, b, </s>, <unk>}
    return train


@pytest.mark.parametrize("k", ["1e-320", "1e-322"])
def test_lm_names_a_smoothing_constant_whose_probabilities_underflow(tmp_path, runner, k):
    (tmp_path / "e.ql").write_text("c\n")
    result = runner.invoke(main, ["lm", "--train-ql", str(_three_thousand_a_b(tmp_path)),
                                  "--eval-ql", str(tmp_path / "e.ql"), "--order", "1", "--k", k])
    assert result.exit_code == 2
    assert result.output == (f"error: smoothing constant {k} underflows: the least probability "
                             f"k / (events + k * |vocab|) = {k} / (9000 + {k} * 4) is 0\n")


def test_lm_names_a_perplexity_that_overflows(tmp_path, runner):
    # 100 unseen tokens at log(1e-310 / 9000) each: the mean is below -709.78, where exp overflows
    (tmp_path / "e.ql").write_text(" ".join(["c"] * 100) + "\n")
    result = runner.invoke(main, ["lm", "--train-ql", str(_three_thousand_a_b(tmp_path)),
                                  "--eval-ql", str(tmp_path / "e.ql"), "--order", "1", "--k", "1e-310"])
    assert result.exit_code == 2
    assert result.output.startswith("error: mean log probability -715.")
    assert result.output.endswith(": the perplexity exp(-mean) is not a finite float\n")


@pytest.mark.parametrize("values, mean", [("-1000 -1000", "-1000.0"), ("-1e308 -1e308", "-inf")])
def test_eval_names_a_perplexity_that_is_not_a_finite_float(tmp_path, runner, values, mean):
    test, logp = tmp_path / "r.ql", tmp_path / "p.logp"
    test.write_text("a\n")
    logp.write_text(values + "\n")
    result = runner.invoke(main, ["eval", "--pred", str(test), "--test", str(test), "--logp", str(logp),
                                  "--out", str(tmp_path / "eval.json")])
    assert result.exit_code == 2
    assert result.output == f"error: mean log probability {mean}: the perplexity exp(-mean) is not a finite float\n"
    assert not (tmp_path / "eval.json").exists()


@pytest.mark.parametrize("line", ["", " \t\u2028"])
def test_memorize_rejects_an_empty_question_line(tmp_path, runner, line):
    (tmp_path / "c.nlq").write_text("is this here ?\n")
    (tmp_path / "c.ql").write_text(_ONE_QUERY + "\n")
    (tmp_path / "t.jsonl").write_text(_TEMPLATE_LINE + "\n")
    questions = tmp_path / "in.nlq"
    questions.write_text(f"is this here ?\n{line}\n", encoding="utf-8")
    result = runner.invoke(main, ["memorize", "--train-nlq", str(tmp_path / "c.nlq"),
                                  "--train-ql", str(tmp_path / "c.ql"), "--templates", str(tmp_path / "t.jsonl"),
                                  "--input", str(questions), "--out", str(tmp_path / "pred.ql")])
    assert result.exit_code == 2
    assert result.output == f"error: {questions}:2: empty NLQ line\n"
    assert not (tmp_path / "pred.ql").exists()


@pytest.mark.parametrize("second", ["", "is this here ?\n"])
def test_a_corpus_file_that_reads_other_lines_the_second_time_exits_2_and_writes_nothing(tmp_path, runner,
                                                                                        monkeypatch, second):
    # read_parallel counts the lines, then reads them again to build the rows: a pipe reads empty the second
    # time, and a file may change between the reads; here every open of c.nlq after the first reads `second`
    nlq, ql, templates = tmp_path / "c.nlq", tmp_path / "c.ql", tmp_path / "t.jsonl"
    nlq.write_text("is this here ?\n" * 2)
    ql.write_text((_ONE_QUERY + "\n") * 2)
    templates.write_text(_TEMPLATE_LINE + "\n")
    opened = []

    def reopen(file, *args, **kwargs):
        opened.append(Path(file))
        if opened[-1] == nlq and opened.count(nlq) > 1:
            return io.StringIO(second)
        return open(file, *args, **kwargs)

    monkeypatch.setattr(corpus, "open", reopen, raising=False)
    rows = second.count("\n")
    message = (f"{nlq}, {ql}: 2 lines counted, then {rows} rows read; "
               "a corpus file must be a regular file that does not change while it is read")
    with pytest.raises(InputFileError) as err:
        corpus.read_parallel(nlq, ql)
    assert str(err.value) == message
    for args in (["attribute", "--templates", str(templates), "--out", str(tmp_path / "a.tsv")],
                 ["partition", "--scheme", "leaky", "--out-dir", str(tmp_path / "split")]):
        opened.clear()
        result = runner.invoke(main, [*args, "--nlq", str(nlq), "--ql", str(ql)])
        assert result.exit_code == 2
        assert result.output == f"error: {message}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.nlq", "c.ql", "t.jsonl"]


@pytest.mark.parametrize("empty", ["instance_limit", "kg"])
def test_a_preset_whose_corpus_comes_out_empty_fails_at_stage_pipeline(tmp_path, runner, empty):
    # no instance at all, by instance_limit = 0 or by a KG that binds no template: nothing is partitioned
    config, kg = tmp_path / "run.conf", tmp_path / "empty.nt"
    config.write_text("instance_limit = 0\n" if empty == "instance_limit" else "")
    kg.write_text("")
    args = ["run", "exp1", "--config", str(config), "--workdir", str(tmp_path / "w")]
    result = runner.invoke(main, args if empty == "instance_limit" else [*args, "--kg", str(kg)])
    assert result.exit_code == 2
    expected = (KG, 0) if empty == "instance_limit" else (kg, 100)
    assert result.output == f"error: {SEEDS} and {expected[0]} generate no instance (instance_limit = {expected[1]})\n"
    out = tmp_path / "w" / "exp1"
    assert sorted(p.name for p in out.iterdir()) == ["report.csv", "report.json"]
    assert [(row["metric"], row["split"]) for row in _report_rows(out / "report.csv")] == [("incomplete", "pipeline")]


@pytest.mark.parametrize("k", ["nan", "inf"])
def test_lm_rejects_a_non_finite_k(tmp_path, runner, k):
    (tmp_path / "q.ql").write_text("a b\n")
    result = runner.invoke(main, ["lm", "--train-ql", str(tmp_path / "q.ql"), "--eval-ql", str(tmp_path / "q.ql"),
                                  "--k", k])
    assert result.exit_code == 2
    assert result.output == f"error: smoothing constant must be finite and > 0, got {k}\n"


def test_valid_json_inputs_of_the_malformed_input_cases_are_accepted(tmp_path, runner):
    (tmp_path / "c.nlq").write_text("is this here ?\n")
    (tmp_path / "c.ql").write_text(_ONE_QUERY + "\n")
    (tmp_path / "m.json").write_text('{"ids": ["x0"], "origins": {"x0": "s0"}}\n')
    (tmp_path / "s.jsonl").write_text(_SEED_LINE + "\n")
    (tmp_path / "t.jsonl").write_text(_TEMPLATE_LINE + "\n")
    _ok(runner.invoke(main, ["extract", "--seeds", str(tmp_path / "s.jsonl"), "--out", str(tmp_path / "o.jsonl")]))
    _ok(runner.invoke(main, ["attribute", "--nlq", str(tmp_path / "c.nlq"), "--ql", str(tmp_path / "c.ql"),
                             "--manifest", str(tmp_path / "m.json"), "--templates", str(tmp_path / "t.jsonl"),
                             "--out", str(tmp_path / "a.tsv")]))
    assert (tmp_path / "a.tsv").read_text() == "x0\tt0\n"


# the exceptions cli._Main maps to exit code 2
_EXIT_2 = (SplitHygieneError, FileNotFoundError, ValueError)
_CONFIG_KEYS = [f.name for f in dataclasses.fields(experiments.RunConfig)]
_SCALARS = st.one_of(
    st.integers(-3, 10**20).map(str),
    st.floats().map(repr),
    st.sampled_from(["", '""', '"a,b"', "true", "None", "1_000", "0x10", "1e400", "-0.0", "nan"]),
    st.text(max_size=8),
)
_CONFIG_LINES = st.one_of(
    st.builds("{} = {}".format, st.sampled_from(_CONFIG_KEYS),
              st.lists(_SCALARS, min_size=1, max_size=4).map(", ".join)),
    st.text(max_size=20),
)


def _is_int(value):
    return type(value) is int


def _is_real(value):
    return type(value) in (int, float)


@settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lines=st.lists(_CONFIG_LINES, max_size=6))
def test_load_config_returns_a_valid_config_or_an_exit_2_error(tmp_path, lines):
    path = tmp_path / "fuzz.conf"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    try:
        cfg = experiments.load_config(path)
    except _EXIT_2:
        return
    for key in ("seeds_path", "kg_path", "workdir"):
        assert type(getattr(cfg, key)) is str
    assert type(cfg.rng_seeds) is tuple and cfg.rng_seeds and all(map(_is_int, cfg.rng_seeds))
    assert all(0 <= seed < 2**64 for seed in cfg.rng_seeds)
    assert type(cfg.ratios) is tuple and len(cfg.ratios) == 3 and all(map(_is_real, cfg.ratios))
    assert min(cfg.ratios) >= 0 and abs(sum(cfg.ratios) - 1) <= 1e-9
    assert _is_real(cfg.seed_test_fraction) and 0 <= cfg.seed_test_fraction <= 1
    assert type(cfg.fractions) is tuple and cfg.fractions and all(map(_is_real, cfg.fractions))
    assert all(0 < f <= 1 for f in cfg.fractions)
    assert _is_int(cfg.instance_limit) and cfg.instance_limit >= 0
    assert _is_int(cfg.lm_order) and cfg.lm_order >= 1
    assert _is_real(cfg.lm_k) and math.isfinite(cfg.lm_k) and cfg.lm_k > 0


def test_the_readme_config_example_loads(tmp_path):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Config files", 1)[1]
    block = section.split("```\n", 2)[1]
    (tmp_path / "example.conf").write_text(block, encoding="utf-8")
    cfg = experiments.load_config(tmp_path / "example.conf")
    assert (cfg.seeds_path, cfg.kg_path, cfg.workdir) == ("path/to/seeds.jsonl", "path/to/graph.nt", "out")
    assert cfg.rng_seeds == (101, 102, 103, 104, 105)
    assert (cfg.ratios, cfg.fractions) == ((0.8, 0.1, 0.1), (0.125, 0.25, 0.5, 1.0))
    assert (cfg.seed_test_fraction, cfg.instance_limit, cfg.lm_order, cfg.lm_k) == (0.2, 100, 5, 0.1)


@pytest.mark.parametrize("fraction", ["1.5", "-1"])
def test_seed_test_fraction_out_of_range_is_rejected(tmp_path, runner, fraction):
    templates = tmp_path / "templates.jsonl"
    gen = tmp_path / "gen"
    _ok(runner.invoke(main, ["extract", "--seeds", SEEDS, "--out", str(templates)]))
    _ok(runner.invoke(main, ["generate", "--templates", str(templates), "--kg", KG,
                             "--limit", "3", "--out-dir", str(gen)]))
    result = runner.invoke(main, [
        "partition", "--scheme", "sanitized", "--nlq", str(gen / "instances.nlq"),
        "--ql", str(gen / "instances.ql"), "--manifest", str(gen / "instances.manifest.json"),
        "--templates", str(templates), "--seeds", SEEDS, "--seed-test-fraction", fraction,
        "--out-dir", str(tmp_path / "split")])
    assert result.exit_code == 2, result.output
    assert "seed test fraction must be in [0, 1]" in result.output


@pytest.mark.parametrize("scheme", ["leaky", "sanitized"])
def test_partition_checks_the_seed_test_fraction_before_it_reads_the_corpus(tmp_path, runner, scheme):
    (tmp_path / "c.nlq").write_text("is this here ?\n")
    (tmp_path / "c.ql").write_text("NOT A QUERY\n")
    (tmp_path / "s.jsonl").write_text(_SEED_LINE + "\n")
    (tmp_path / "t.jsonl").write_text(_TEMPLATE_LINE + "\n")
    result = runner.invoke(main, ["partition", "--scheme", scheme, "--nlq", str(tmp_path / "c.nlq"),
                                  "--ql", str(tmp_path / "c.ql"), "--templates", str(tmp_path / "t.jsonl"),
                                  "--seeds", str(tmp_path / "s.jsonl"), "--seed-test-fraction", "1.5",
                                  "--out-dir", str(tmp_path / "split")])
    assert result.exit_code == 2, result.output
    assert result.output == "error: seed test fraction must be in [0, 1]: 1.5\n"
    assert not (tmp_path / "split").exists()


def test_stage_subcommands_match_preset(tmp_path, runner):
    work = tmp_path / "stages"
    templates = work / "templates.jsonl"
    corpus = ["--nlq", str(work / "gen" / "instances.nlq"), "--ql", str(work / "gen" / "instances.ql"),
              "--manifest", str(work / "gen" / "instances.manifest.json")]
    work.mkdir()
    _ok(runner.invoke(main, ["extract", "--seeds", SEEDS, "--out", str(templates)]))
    _ok(runner.invoke(main, ["generate", "--templates", str(templates), "--kg", KG, "--limit", "40",
                             "--rng-seed", "101", "--out-dir", str(work / "gen")]))
    _ok(runner.invoke(main, ["attribute", *corpus, "--templates", str(templates),
                             "--out", str(work / "attribution.tsv")]))
    _ok(runner.invoke(main, ["partition", "--scheme", "leaky", *corpus, "--rng-seed", "101",
                             "--out-dir", str(work / "leaky-101")]))
    _ok(runner.invoke(main, ["partition", "--scheme", "sanitized", *corpus, "--templates", str(templates),
                             "--seeds", SEEDS, "--rng-seed", "101", "--out-dir", str(work / "sanitized")]))

    experiments.run_experiment("exp1", experiments.RunConfig(
        workdir=str(tmp_path), rng_seeds=(101, 102), instance_limit=40))
    preset = tmp_path / "exp1"
    split_files = [f"{part}.{ext}" for part in ("train", "valid", "test") for ext in ("nlq", "ql")]
    same_bytes = ["templates.jsonl", "attribution.tsv", "sanitized/diagnostics.json"]
    same_bytes += [f"{d}/{f}" for d in ("leaky-101", "sanitized") for f in split_files]
    for rel in same_bytes:
        assert (work / rel).read_bytes() == (preset / rel).read_bytes(), rel
    for d in ("leaky-101", "sanitized"):
        ours, theirs = (json.loads((root / d / "manifest.json").read_text()) for root in (work, preset))
        assert ours.pop("config_digest") != theirs.pop("config_digest")
        assert ours == theirs

    # the evaluation subcommands on the sanitized split reproduce the preset's test numbers
    split = work / "sanitized"
    _ok(runner.invoke(main, ["memorize", "--train-nlq", str(split / "train.nlq"),
                             "--train-ql", str(split / "train.ql"),
                             "--train-manifest", str(split / "manifest.json"),
                             "--templates", str(templates), "--input", str(split / "test.nlq"),
                             "--out", str(work / "pred.ql")]))
    bleu = json.loads(_ok(runner.invoke(main, ["eval", "--pred", str(work / "pred.ql"),
                                               "--test", str(split / "test.ql")])).output)["bleu"]
    ppl = json.loads(_ok(runner.invoke(main, ["lm", "--train-ql", str(split / "train.ql"),
                                              "--eval-ql", str(split / "test.ql")])).output)["value"]
    expected = {(row["metric"], row["split"]): float(row["value"])
                for row in _report_rows(preset / "report.csv") if row["scheme"] == "sanitized"}
    assert bleu == expected["memorizer_bleu", "test"]
    assert ppl == expected["lm_perplexity", "test"]


@pytest.mark.parametrize("args", [
    ["run", "exp3", "--rng-seed", "5"],
    ["extract", "--seeds", SEEDS, "--out", "templates.jsonl", "--config", "run.conf"],
    ["lm", "--train-ql", SEEDS, "--eval-ql", SEEDS, "--workdir", "."],
])
def test_options_a_command_does_not_read_are_rejected(args, runner, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert "No such option" in result.output


def test_config_values_keep_quoted_commas(tmp_path):
    config = tmp_path / "run.conf"
    config.write_text('seeds_path = "a,b.jsonl"\nrng_seeds = 101, 102\nkg_path = "g.nt"\n')
    cfg = experiments.load_config(config)
    assert cfg.seeds_path == "a,b.jsonl"
    assert cfg.kg_path == "g.nt"
    assert cfg.rng_seeds == (101, 102)
