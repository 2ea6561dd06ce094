"""Self-tests of the benchmark: python3 -m pytest -q perfbench"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
for path in (str(SRC), str(HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)

import checks  # noqa: E402
import run  # noqa: E402
import world  # noqa: E402
from splithygiene import experiments  # noqa: E402
from splithygiene.attribution import build_index, write_attribution  # noqa: E402
from splithygiene.corpus import make_manifest, read_seeds, write_split  # noqa: E402
from splithygiene.kgstore import load_ntriples  # noqa: E402
from splithygiene.synthesis import extract_template, generate_instances  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_world_is_byte_deterministic(tmp_path):
    world.write_world(tmp_path / "a", seed=3, scale=2)
    world.write_world(tmp_path / "b", seed=3, scale=2)
    world.write_world(tmp_path / "c", seed=4, scale=2)
    a, b, c = ((tmp_path / d / "world.nt").read_bytes() for d in "abc")
    assert a == b
    assert a != c
    assert (tmp_path / "a" / "seeds.jsonl").read_bytes() == (SRC / "splithygiene" / "data" / "seeds.jsonl").read_bytes()


def test_world_scales_entity_counts():
    assert len(world.build_triples(1, 2)) > 1.8 * len(world.build_triples(1, 1))


def test_world_generates_and_attributes_every_template(tmp_path):
    counts = world.write_world(tmp_path, seed=5, scale=1)
    graph = load_ntriples(tmp_path / "world.nt")
    assert graph.load_report.malformed_lines == ()
    assert len(graph) == counts["triples"]
    templates = [extract_template(s) for s in read_seeds(tmp_path / "seeds.jsonl")]
    assert len(templates) == counts["templates"] == 48
    instances = []
    for t in templates:
        generated = generate_instances(t, graph, 5, rng_seed=5)
        assert generated, f"template {t.id} generated no instance"
        instances += generated
    index = build_index(instances, templates)
    assert not index.unattributed_ids


def _sanitized_tree(tmp_path) -> Path:
    config = experiments.RunConfig(instance_limit=20, rng_seeds=(7,))
    data = experiments.build_pipeline_data(config)
    _, split = experiments._sanitized_split(data, config, experiments.seed_split_ids(data, config))
    out = tmp_path / "tree"
    write_split(out / "sanitized", split, make_manifest(split, "sanitized", 7, config.ratios, data.config_digest))
    write_attribution(out / "attribution.tsv", data.instances, data.index)
    return out


def test_checks_accept_a_clean_split_and_reject_a_planted_leak(tmp_path):
    tree = _sanitized_tree(tmp_path)
    assert checks.check_sanitized(tree / "attribution.tsv", tree / "sanitized" / "manifest.json") == []
    leaked = tmp_path / "leaked"
    shutil.copytree(tree, leaked)
    manifest_path = leaked / "sanitized" / "manifest.json"
    doc = json.loads(manifest_path.read_text(encoding="utf-8"))
    moved = next(i for i, split in doc["assignments"].items() if split == "test")
    doc["assignments"][moved] = "train"
    manifest_path.write_text(json.dumps(doc), encoding="utf-8")
    problems = checks.check_sanitized(leaked / "attribution.tsv", manifest_path)
    assert problems and "share a template" in problems[0]


def test_checks_reject_a_one_byte_difference(tmp_path):
    tree = _sanitized_tree(tmp_path)
    copy = tmp_path / "copy"
    shutil.copytree(tree, copy)
    assert checks.compare_trees(checks.tree_digests(tree), checks.tree_digests(copy)) == []
    target = copy / "sanitized" / "test.ql"
    data = bytearray(target.read_bytes())
    data[len(data) // 2] ^= 1
    target.write_bytes(bytes(data))
    assert checks.compare_trees(checks.tree_digests(tree), checks.tree_digests(copy)) == [
        "bytes differ in sanitized/test.ql"
    ]


def test_report_check_rejects_a_missing_row(tmp_path):
    seeds = (11, 12)
    rows = ["experiment,scheme,rng_seed,fraction,metric,split,statistic,value,config_digest"]
    for scheme, seed, fraction, metric, split, stat in sorted(checks.expected_report_keys("exp1", seeds, ())):
        rows.append(f"exp1,{scheme},{seed},{fraction},{metric},{split},{stat},1.0,d")
    report = tmp_path / "report.csv"
    report.write_text("\n".join(rows) + "\n", encoding="utf-8")
    assert checks.check_report(report, "exp1", seeds, ()) == []
    report.write_text("\n".join(rows[:-1]) + "\n", encoding="utf-8")
    assert checks.check_report(report, "exp1", seeds, ())


def test_tracer_wraps_every_binding_of_a_function():
    script = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
        "from tracer import Tracer\n"
        "import splithygiene.cli, splithygiene.synthesis as s, splithygiene.kgstore as k\n"
        "import splithygiene.attribution as a, splithygiene.qlang as q\n"
        "names = Tracer().install()\n"
        "assert 'qlang.match_nlq' in names and 'kgstore.evaluate' in names\n"
        "assert s.evaluate is k.evaluate and hasattr(s.evaluate, '__wrapped__')\n"
        "assert a.match_nlq is q.match_nlq and hasattr(a.match_nlq, '__wrapped__')\n"
        "assert splithygiene.cli.build_index is a.build_index\n"
    )
    subprocess.run([sys.executable, "-c", script, str(SRC), str(HERE)], check=True, timeout=60)


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    blank = run.RunResult(wall_s=1.0, setup_s=0.5, instances=10, import_s=[0.1])
    emitted_e2e = set(run.end_to_end_metrics([blank]))
    emitted_layer = set(run.per_layer_metrics(blank, blank, 0.0))
    for name in emitted_e2e | emitted_layer:
        assert NAME.fullmatch(name), name
    assert emitted_e2e == end_to_end
    assert emitted_layer == per_layer
    assert set(spec["command"][1:]) <= {"perfbench/run.py"}
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
