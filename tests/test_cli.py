from __future__ import annotations

import json

import pytest
from click.testing import CliRunner

from splithygiene import experiments, toydata
from splithygiene.cli import main
from splithygiene.corpus import manifest_from_json

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
    doc = manifest_from_json((split_dir / "manifest.json").read_text())
    assert doc.scheme == "leaky"
    assert doc.rng_seed == 42
    assert sum(doc.counts) == len(nlq.read_text().splitlines())

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
    manifest = manifest_from_json((split_dir / "manifest.json").read_text())
    assert manifest.scheme == "sanitized"


def test_partition_sanitized_requires_templates(tmp_path, runner):
    gen = tmp_path / "x.nlq"
    gen.write_text("is it here ?\n")
    ql = tmp_path / "x.ql"
    ql.write_text("ASK WHERE { <e:s> <p:p> <e:o> }\n")
    result = runner.invoke(main, [
        "partition", "--scheme", "sanitized", "--nlq", str(gen), "--ql", str(ql),
        "--out-dir", str(tmp_path / "out")])
    assert result.exit_code == 2


def test_missing_file_is_a_usage_error(tmp_path, runner):
    result = runner.invoke(main, [
        "extract", "--seeds", str(tmp_path / "none.jsonl"), "--out", str(tmp_path / "t.jsonl")])
    assert result.exit_code == 2


def test_corrupt_input_is_a_validation_error(tmp_path, runner):
    bad_nlq = tmp_path / "bad.nlq"
    bad_nlq.write_text("a question ?\n")
    bad_ql = tmp_path / "bad.ql"
    bad_ql.write_text("THIS IS NOT A QUERY\n")
    result = runner.invoke(main, [
        "partition", "--scheme", "leaky", "--nlq", str(bad_nlq), "--ql", str(bad_ql),
        "--out-dir", str(tmp_path / "out")])
    assert result.exit_code == 2


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


def test_runtime_failure_exits_1(tmp_path, runner):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file where a directory is needed")
    result = runner.invoke(main, ["run", "exp3", "--workdir", str(blocker / "sub")])
    assert result.exit_code == 1


def test_failed_stage_is_named(tmp_path, monkeypatch):
    from splithygiene import experiments

    def boom(*args, **kwargs):
        raise ValueError("synthetic failure")

    monkeypatch.setattr(experiments, "_evaluate_partition", boom)
    config = experiments.RunConfig(workdir=str(tmp_path))
    with pytest.raises(RuntimeError, match="exp3 failed during stage 'sanitized-halved'"):
        experiments.run_experiment("exp3", config)
    report = (tmp_path / "exp3" / "report.csv").read_text()
    assert "incomplete" in report


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
