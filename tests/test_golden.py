"""Golden digests of every file that the presets and the stage commands write on the toy data.

Each tree is pinned by one SHA-256 over its files' relative paths and bytes,
so a refactor that keeps every output byte passes unedited. A change that
alters an output on purpose updates the digest here and says so in CHANGES.md.
The numbers in reports, `eval` output and `.logp` files come from libm's
`log` and `exp`, which may differ in the last bit between platforms, so those
files are hashed with every float rounded to 9 significant digits.
"""

from __future__ import annotations

import dataclasses
import hashlib
import re
from pathlib import Path

import pytest
from click.testing import CliRunner

from splithygiene import experiments, toydata
from splithygiene.cli import main

_FLOAT = re.compile(rb"(?<![\w.])-?\d+(?:\.\d+(?:e[+-]?\d+)?|e[+-]?\d+)(?![\w.])")
_ROUNDED = ("report.csv", "report.json", "eval.json", ".logp")

PRESET_DIGESTS = {
    "exp1": "f4390ae9baf8163db52a993f69f9b91d8dde7d1dd9e9ca7d350f891adaf579b9",
    "exp2": "2d902c3914c7cba46cf84067668b71c7965f30344170ad5080dee42e967fecc7",
    "exp3": "d701c9915e788e5eec9c57e00782143aec52e0c06f39e488ebbea3e9d2fbefb3",
}
CLI_DIGEST = "f8fb7d01682f17a96ce49a4a2f6b7ae8085d7261f22580e6dce410a0d0eeb846"


def _rounded(data: bytes) -> bytes:
    return _FLOAT.sub(lambda m: format(float(m[0]), ".9g").encode(), data)


def tree_digest(root: Path) -> str:
    """SHA-256 over each file's relative path and bytes, in path order; floats rounded where libm reaches."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        rel = path.relative_to(root).as_posix()
        data = path.read_bytes()
        if rel.endswith(_ROUNDED):
            data = _rounded(data)
        h.update(f"{rel}\0{len(data)}\0".encode() + data)
    return h.hexdigest()


def test_rounding_keeps_digests_and_ids_and_rounds_only_floats():
    line = b"exp1,leaky,101,1.0,memorizer_bleu,test,value,57.12345678912345,1e5ab12e3f\n-2.302585092994046 -1e-05"
    assert _rounded(line) == b"exp1,leaky,101,1,memorizer_bleu,test,value,57.1234568,1e5ab12e3f\n-2.30258509 -1e-05"


@pytest.mark.parametrize("preset", experiments.PRESETS)
def test_a_preset_writes_the_pinned_bytes(tmp_path, toy_data, toy_config, preset):
    experiments.run_experiment(preset, dataclasses.replace(toy_config, workdir=str(tmp_path)), toy_data)
    assert tree_digest(tmp_path / preset) == PRESET_DIGESTS[preset]


def test_the_stage_commands_write_the_pinned_bytes(tmp_path):
    runner = CliRunner()
    seeds, kg = str(toydata.toy_seeds_path()), str(toydata.toy_kg_path())
    work = tmp_path / "chain"
    templates = str(work / "templates.jsonl")
    gen = work / "gen"
    corpus = ["--nlq", str(gen / "instances.nlq"), "--ql", str(gen / "instances.ql"),
              "--manifest", str(gen / "instances.manifest.json")]
    split = work / "sanitized"
    for args in (
        ["extract", "--seeds", seeds, "--out", templates],
        ["generate", "--templates", templates, "--kg", kg, "--rng-seed", "101", "--out-dir", str(gen)],
        ["attribute", *corpus, "--templates", templates, "--out", str(work / "attribution.tsv")],
        ["partition", "--scheme", "leaky", *corpus, "--rng-seed", "101", "--out-dir", str(work / "leaky")],
        ["partition", "--scheme", "sanitized", *corpus, "--templates", templates, "--seeds", seeds,
         "--rng-seed", "101", "--out-dir", str(split)],
        ["memorize", "--train-nlq", str(split / "train.nlq"), "--train-ql", str(split / "train.ql"),
         "--train-manifest", str(split / "manifest.json"), "--templates", templates,
         "--input", str(split / "test.nlq"), "--out", str(work / "pred.ql")],
        ["lm", "--train-ql", str(split / "train.ql"), "--eval-ql", str(split / "test.ql"),
         "--out-logp", str(work / "pred.logp")],
        ["eval", "--pred", str(work / "pred.ql"), "--test", str(split / "test.ql"),
         "--logp", str(work / "pred.logp"), "--out", str(work / "eval.json")],
    ):
        result = runner.invoke(main, args)
        assert result.exit_code == 0, (args[0], result.output)
    assert tree_digest(work) == CLI_DIGEST
