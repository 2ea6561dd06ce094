"""The splithygiene benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a source checkout; nothing needs to be installed or
built. The benchmark writes its inputs (config, N-Triples world, seeds)
from --seed under ``.perfbench_work/``, then runs the workload again and
again for about S seconds, each time as fresh ``python3`` child processes
(one after another, never in parallel), and checks every output tree. Run i
of a workload runs under PYTHONHASHSEED=i, so the check that every run
writes the same bytes also catches output that depends on hash order.

With ``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json as
medians over the runs. With ``--trace 1`` it makes one untraced and one
traced run and reports the per-layer metrics, with the tracing overhead as
the difference of their wall times. The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines above it name every metric with its unit and record
the environment. ``--workload all`` runs every workload in turn.

Exit codes: 0 when the result line was printed (check ``correct``), 2 when
the checkout holds no splithygiene sources or the arguments are invalid.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
from tracer import LAYERS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD = Path(__file__).resolve().parent / "child.py"
WORK = ROOT / ".perfbench_work"
DATA = SRC / "splithygiene" / "data"

MIN_RUNS = 2  # the byte-identity check needs two output trees
LAST_START_S = 120.0  # never start a run expected to end after this many seconds
CHILD_TIMEOUT_S = 150.0
FIRST_RNG_SEED = 101  # RunConfig's default first rng seed
NOISE_NOTE = (
    "single-run wall time of `splithygiene run exp1` spreads by 27-40% on a shared "
    "2-CPU Xeon VM, whether or not PYTHONHASHSEED is pinned; compare medians, not single runs"
)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

@dataclass
class Step:
    name: str
    cli_args: list[str]
    setup: bool = False  # part of set-up (the steps before the first partition)


class PresetWorkload:
    """`splithygiene run <preset>` on the bundled toy data, rng_seeds from the workload seed."""

    active_layers = LAYERS

    def __init__(self, name: str, preset: str, why: str):
        self.name, self.preset, self.why = name, preset, why

    @staticmethod
    def rng_seeds(seed: int) -> tuple[int, ...]:
        """The preset's first rng seed, then four drawn from the workload seed.

        The package keys generation, the held-out seed split and the sanitized
        split on the first rng seed. Which templates are held out sets the size
        of the sanitized test split, and so the memorizer's fallback work, so
        it stays at the preset default and the workload keeps its size; the
        workload seed varies the other leaky replicates of exp1.
        """
        return (FIRST_RNG_SEED, *random.Random(seed).sample(range(1, 1_000_000), 4))

    def prepare(self, inputs: Path, seed: int) -> dict:
        shutil.copyfile(DATA / "toy.nt", inputs / "toy.nt")
        shutil.copyfile(DATA / "seeds.jsonl", inputs / "seeds.jsonl")
        rng_seeds = self.rng_seeds(seed)
        rel = inputs.relative_to(ROOT).as_posix()
        (inputs / "run.cfg").write_text(
            f'seeds_path = "{rel}/seeds.jsonl"\n'
            f'kg_path = "{rel}/toy.nt"\n'
            f"rng_seeds = {', '.join(map(str, rng_seeds))}\n",
            encoding="utf-8",
        )
        return {"config": f"{rel}/run.cfg", "rng_seeds": rng_seeds}

    def steps(self, ctx: dict, out: str) -> list[Step]:
        return [Step("run", ["run", self.preset, "--config", ctx["config"], "--workdir", out])]

    def instances(self, out: Path) -> int:
        return len((out / self.preset / "attribution.tsv").read_text(encoding="utf-8").splitlines())

    def check(self, ctx: dict, out: Path, logs: dict) -> list[str]:
        base = out / self.preset
        fractions = (0.125, 0.25, 0.5, 1.0)
        problems = checks.check_report(base / "report.csv", self.preset, ctx["rng_seeds"], fractions)
        problems += checks.check_sanitized(base / "attribution.tsv", base / "sanitized" / "manifest.json")
        if self.preset == "exp1":
            problems += checks.check_bleu_gap(base / "report.csv")
        return problems


class PrepWorkload:
    """The CLI corpus-preparation steps on a generated world `scale` times the toy."""

    active_layers = ("qlang", "kgstore", "synthesis", "attribution", "partitioner", "corpus", "cli")

    def __init__(self, name: str, scale: int, limit: int, why: str):
        self.name, self.scale, self.limit, self.why = name, scale, limit, why

    def prepare(self, inputs: Path, seed: int) -> dict:
        import world

        counts = world.write_world(inputs, seed, self.scale)
        return {"inputs": inputs.relative_to(ROOT).as_posix(), "seed": seed, **counts}

    def steps(self, ctx: dict, out: str) -> list[Step]:
        inp, seed = ctx["inputs"], str(ctx["seed"])
        corpus = ["--nlq", f"{out}/corpus/instances.nlq", "--ql", f"{out}/corpus/instances.ql",
                  "--manifest", f"{out}/corpus/instances.manifest.json"]
        return [
            Step("extract", ["extract", "--seeds", f"{inp}/seeds.jsonl", "--out", f"{out}/templates.jsonl"], True),
            Step("generate", ["generate", "--templates", f"{out}/templates.jsonl", "--kg", f"{inp}/world.nt",
                              "--limit", str(self.limit), "--rng-seed", seed, "--out-dir", f"{out}/corpus"], True),
            Step("attribute", ["attribute", *corpus, "--templates", f"{out}/templates.jsonl",
                               "--out", f"{out}/attribution.tsv"], True),
            Step("partition-leaky", ["partition", "--scheme", "leaky", *corpus, "--rng-seed", seed,
                                     "--out-dir", f"{out}/leaky"]),
            Step("partition-sanitized", ["partition", "--scheme", "sanitized", *corpus,
                                         "--templates", f"{out}/templates.jsonl", "--seeds", f"{inp}/seeds.jsonl",
                                         "--rng-seed", seed, "--out-dir", f"{out}/sanitized"]),
        ]

    def instances(self, out: Path) -> int:
        return len((out / "corpus" / "instances.nlq").read_text(encoding="utf-8").splitlines())

    def check(self, ctx: dict, out: Path, logs: dict) -> list[str]:
        n_templates = len((out / "templates.jsonl").read_text(encoding="utf-8").splitlines())
        problems = []
        if n_templates != ctx["templates"]:
            problems.append(f"extract wrote {n_templates} templates, expected {ctx['templates']}")
        if "warning" in logs["generate"]:
            problems.append(f"generate: {logs['generate'].strip()}")
        problems += checks.check_corpus(out / "corpus" / "instances.manifest.json", out / "attribution.tsv",
                                        n_templates)
        problems += checks.check_split_counts(out / "leaky" / "manifest.json", self.instances(out))
        problems += checks.check_sanitized(out / "attribution.tsv", out / "sanitized" / "manifest.json")
        return problems


WORKLOADS = {w.name: w for w in (
    PresetWorkload("exp-leaky-mix", "exp1",
                   "exp1, 5 leaky splits vs 1 sanitized on the toy data: memorizer template hits, 6 LM trainings, BLEU"),
    PresetWorkload("exp-sanitized-sweep", "exp2",
                   "exp2 on the toy data, same inputs for every seed (exp2 reads only the fixed first rng seed): "
                   "every sanitized test prediction takes the memorizer's nearest-neighbour fallback, at 4 train sizes"),
    PrepWorkload("scaled-prep", scale=4, limit=1000,
                 why="extract/generate/attribute/partition CLI steps on a world 4x the toy: attribution, "
                     "parsing and corpus I/O, no baselines"),
)}


# ---------------------------------------------------------------------------
# Measured runs
# ---------------------------------------------------------------------------

@dataclass
class RunResult:
    hash_seed: int = 0
    wall_s: float = 0.0
    setup_s: float = 0.0
    peak_rss_mb: float = 0.0
    cpu_s: float = 0.0
    instances: int = 0
    bytes_written: int = 0
    import_s: list[float] = field(default_factory=list)
    traces: list[dict] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


def child_env(hash_seed: int) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "SPLITHYGIENE_WORKDIR")}
    env["PYTHONHASHSEED"] = str(hash_seed)
    return env


def run_child(step: Step, probe: Path, log: Path, trace: bool, hash_seed: int):
    """Run one CLI step as a child; return (exit code, rusage, end instant)."""
    cmd = [sys.executable, str(CHILD), "--src", str(SRC), "--probe", str(probe)]
    cmd += ["--trace"] if trace else []
    cmd += ["--", *step.cli_args]
    with open(log, "wb") as err:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(hash_seed), stdout=subprocess.DEVNULL, stderr=err)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage, time.monotonic()


def run_once(workload, ctx: dict, run_dir: Path, trace: bool, hash_seed: int) -> RunResult:
    """One whole workload run: every step as a fresh child, then the output checks."""
    out = run_dir / "out"
    out.mkdir(parents=True)
    rel_out = out.relative_to(ROOT).as_posix()
    result = RunResult(hash_seed=hash_seed)
    logs = {}
    setup_end = None
    start = time.monotonic()
    for i, step in enumerate(workload.steps(ctx, rel_out)):
        probe, log = run_dir / f"{i}-{step.name}.json", run_dir / f"{i}-{step.name}.log"
        code, usage, end = run_child(step, probe, log, trace, hash_seed)
        result.peak_rss_mb = max(result.peak_rss_mb, usage.ru_maxrss / 1024.0)
        result.cpu_s += usage.ru_utime + usage.ru_stime
        logs[step.name] = log.read_text(encoding="utf-8", errors="replace")
        if code != 0 or not probe.exists():
            result.problems.append(f"{step.name}: exit code {code}: {logs[step.name].strip()[-500:]}")
            break
        doc = json.loads(probe.read_text(encoding="utf-8"))
        result.import_s.append(doc["import_s"])
        if "trace" in doc:
            result.traces.append(doc["trace"])
        if doc["setup_end"] is not None:
            setup_end = doc["setup_end"]
        elif step.setup:
            setup_end = end
    result.wall_s = time.monotonic() - start
    result.setup_s = (setup_end - start) if setup_end is not None else result.wall_s
    if not result.problems:
        try:
            result.problems += workload.check(ctx, out, logs)
            result.instances = workload.instances(out)
        except (OSError, ValueError, KeyError) as exc:
            result.problems.append(f"output check could not read the outputs: {exc!r}")
        result.digests = checks.tree_digests(out)
        result.bytes_written = checks.tree_bytes(out)
    shutil.rmtree(out)
    return result


def warm_up() -> None:
    """Import the package once, untimed, so every measured run finds its bytecode cache."""
    subprocess.run([sys.executable, "-c", f"import sys; sys.path.insert(0, {str(SRC)!r}); import splithygiene.cli"],
                   cwd=ROOT, env=child_env(0), check=True, stdout=subprocess.DEVNULL)


def measure(workload, seed: int, seconds: float, trace: bool) -> tuple[dict, list[RunResult]]:
    """Untraced runs for about `seconds` (at least MIN_RUNS); with trace, one untraced and one traced."""
    base = WORK / f"{workload.name}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(base, ignore_errors=True)
    inputs = base / "inputs"
    inputs.mkdir(parents=True)
    try:
        ctx = workload.prepare(inputs, seed)
        warm_up()
        runs: list[RunResult] = []
        start = time.monotonic()
        while True:
            i = len(runs)
            runs.append(run_once(workload, ctx, base / f"run{i}", trace and i == 1, hash_seed=i))
            if trace:
                if len(runs) == 2:
                    break
                continue
            expected_end = time.monotonic() - start + max(r.wall_s for r in runs)
            if len(runs) >= MIN_RUNS and expected_end > min(seconds, LAST_START_S):
                break
    finally:
        shutil.rmtree(base, ignore_errors=True)
    reference = next((r.digests for r in runs if r.digests), None)
    for r in runs:
        if r.digests and reference is not None:
            r.problems += [f"output tree differs from the first run: {p}"
                           for p in checks.compare_trees(reference, r.digests)[:5]]
    if trace:
        traced = runs[1]
        calls = merge_traces(traced.traces)["calls"]
        for layer in workload.active_layers:
            if not any(rec[0] for name, rec in calls.items() if name.startswith(layer + ".")):
                traced.problems.append(f"traced run recorded 0 calls in layer {layer}")
    return ctx, runs


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def merge_traces(traces: list[dict]) -> dict:
    calls: dict[str, list[int]] = {}
    counters = dict(Tracer().counters)
    durations: list[int] = []
    for t in traces:
        for name, rec in t["calls"].items():
            acc = calls.setdefault(name, [0, 0, 0])
            for i in range(3):
                acc[i] += rec[i]
        for name, value in t["counters"].items():
            counters[name] += value
        durations += t["memorizer_predict_ns"]
    return {"calls": calls, "counters": counters, "durations": durations}


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * q / 100) - 1)]


def ratio(num, den) -> float:
    return num / den if den else 0.0


def end_to_end_metrics(runs: list[RunResult]) -> dict:
    ok = [r for r in runs if not r.problems] or runs
    return {
        "wall_s": (statistics.median(r.wall_s for r in ok), "s"),
        "setup_s": (statistics.median(r.setup_s for r in ok), "s"),
        "instances_per_s": (statistics.median(ratio(r.instances, r.wall_s) for r in ok), "1/s"),
        "peak_rss_mb": (statistics.median(r.peak_rss_mb for r in ok), "MB"),
    }


def per_layer_metrics(untraced: RunResult, traced: RunResult, error_rate: float) -> dict:
    t = merge_traces(traced.traces)
    calls, c = t["calls"], t["counters"]

    def secs(name):
        return calls.get(name, [0, 0, 0])[1] / 1e9

    def count(name):
        return calls.get(name, [0, 0, 0])[0]

    def self_s(layer):
        return sum(rec[2] for name, rec in calls.items() if name.startswith(layer + ".")) / 1e9

    predict_ms = [d / 1e6 for d in t["durations"]]
    out = {
        "baselines.memorizer_predict_s": (secs("baselines.memorizer_predict"), "s"),
        "baselines.memorizer_predict_calls": (count("baselines.memorizer_predict"), "count"),
        "baselines.memorizer_predict_p50_ms": (percentile(predict_ms, 50), "ms"),
        "baselines.memorizer_predict_p99_ms": (percentile(predict_ms, 99), "ms"),
        "baselines.memorizer_fallback_ratio": (
            ratio(c["baselines.memorizer_fallbacks"], count("baselines.memorizer_predict")), "ratio"),
        "baselines.memorizer_fallback_s": (c["baselines.memorizer_fallback_ns"] / 1e9, "s"),
        "baselines.train_memorizer_s": (secs("baselines.train_memorizer"), "s"),
        "baselines.train_ngram_lm_s": (secs("baselines.train_ngram_lm"), "s"),
        "baselines.lm_train_tokens": (c["baselines.lm_train_tokens"], "count"),
        "baselines.lm_perplexity_s": (secs("baselines.lm_perplexity"), "s"),
        "baselines.lm_scored_tokens": (c["baselines.lm_scored_tokens"], "count"),
        "attribution.build_index_s": (secs("attribution.build_index"), "s"),
        "attribution.pairs": (c["attribution.pairs"], "count"),
        "attribution.match_attempts": (c["attribution.match_attempts"], "count"),
        "attribution.match_hit_ratio": (ratio(c["attribution.match_hits"], c["attribution.match_attempts"]), "ratio"),
        "attribution.ambiguous": (c["attribution.ambiguous"], "count"),
        "attribution.write_attribution_s": (secs("attribution.write_attribution"), "s"),
        "qlang.parse_query_s": (secs("qlang.parse_query"), "s"),
        "qlang.parse_query_calls": (count("qlang.parse_query"), "count"),
        "qlang.match_nlq_calls": (count("qlang.match_nlq"), "count"),
        "qlang.match_nlq_hits": (c["qlang.match_nlq_hits"], "count"),
        "kgstore.load_ntriples_s": (secs("kgstore.load_ntriples"), "s"),
        "kgstore.triples": (c["kgstore.triples"], "count"),
        "kgstore.evaluate_s": (secs("kgstore.evaluate"), "s"),
        "kgstore.evaluate_calls": (count("kgstore.evaluate"), "count"),
        "kgstore.rows_out": (c["kgstore.rows_out"], "count"),
        "synthesis.extract_template_s": (secs("synthesis.extract_template"), "s"),
        "synthesis.generate_instances_s": (secs("synthesis.generate_instances"), "s"),
        "synthesis.instances_out": (c["synthesis.instances_out"], "count"),
        "partitioner.leaky_partition_s": (secs("partitioner.leaky_partition"), "s"),
        "partitioner.split_templates_s": (secs("partitioner.split_templates"), "s"),
        "partitioner.sanitized_partition_s": (secs("partitioner.sanitized_partition"), "s"),
        "partitioner.subsample_train_s": (secs("partitioner.subsample_train"), "s"),
        "partitioner.diagnostics_s": (secs("partitioner.diagnostics"), "s"),
        "partitioner.sanitized_test_kept": (c["partitioner.sanitized_test_kept"], "count"),
        "metrics.corpus_bleu_s": (secs("metrics.corpus_bleu"), "s"),
        "metrics.leakage_report_s": (secs("metrics.leakage_report"), "s"),
        "corpus.read_parallel_s": (secs("corpus.read_parallel"), "s"),
        "corpus.read_parallel_lines": (c["corpus.read_parallel_lines"], "count"),
        "corpus.write_split_s": (secs("corpus.write_split"), "s"),
        "corpus.make_manifest_s": (secs("corpus.make_manifest"), "s"),
        "corpus.dedup_s": (secs("corpus.dedup"), "s"),
        "corpus.bytes_written": (traced.bytes_written, "bytes"),
        "cli.import_s": (statistics.median(untraced.import_s) if untraced.import_s else 0.0, "s"),
        "run.cpu_s": (untraced.cpu_s, "s"),
        "run.traced_wall_s": (traced.wall_s, "s"),
        "trace_overhead_s": (traced.wall_s - untraced.wall_s, "s"),
        "error_rate": (error_rate, "ratio"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (self_s(layer), "s")
    return out


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def environment(load_before, hash_seeds: dict) -> dict:
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        model = platform.processor()
    import numpy  # a dependency of splithygiene itself

    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_before": list(load_before),
        "loadavg_after": list(os.getloadavg()),
        "pythonhashseed_per_run": hash_seeds,
        "noise": NOISE_NOTE,
    }


def run_workload(workload, seed: int, seconds: float, trace: bool) -> tuple[dict, list[RunResult]]:
    ctx, runs = measure(workload, seed, seconds, trace)
    failed = sum(1 for r in runs if r.problems)
    error_rate = failed / len(runs)
    if trace:
        metrics = per_layer_metrics(runs[0], runs[1], error_rate)
    else:
        metrics = end_to_end_metrics(runs)
    samples = sum(1 for r in runs if not r.problems) or len(runs)
    print(f"workload {workload.name} seed {seed}: {len(runs)} runs, {failed} failed -- {workload.why}")
    for r in runs:
        for problem in r.problems:
            print(f"  FAILED CHECK: {problem}")
    counts = {k: v for k, v in ctx.items() if k in ("triples", "templates")}
    print(f"  inputs: {counts or 'bundled toy data'}, rng seeds {ctx.get('rng_seeds', seed)}; "
          f"instances per run: {sorted({r.instances for r in runs})}")
    print(f"  per-run wall_s: {' '.join(f'{r.wall_s:.3f}' for r in runs)}; "
          f"setup_s: {' '.join(f'{r.setup_s:.3f}' for r in runs)}; "
          f"PYTHONHASHSEED: {' '.join(str(r.hash_seed) for r in runs)}")
    for name, (value, unit) in metrics.items():
        note = f" (median of {samples})" if not trace and unit in ("s", "1/s", "MB") else ""
        print(f"  {name:40s} {value!r:>24} {unit}{note}")
    if trace:
        self_times = {layer: metrics[f"{layer}.self_s"][0] for layer in LAYERS}
        top = max(self_times, key=self_times.get)
        lm_share = ratio(metrics["baselines.train_ngram_lm_s"][0], metrics["run.traced_wall_s"][0])
        print(f"  largest self time: {top} ({self_times[top]:.3f} s); "
              f"train_ngram_lm share of traced wall: {lm_share:.3f}; "
              f"tracing overhead: {metrics['trace_overhead_s'][0]:.3f} s")
    else:
        print(f"  {'error_rate':40s} {error_rate!r:>24} ratio ({failed} of {len(runs)} runs failed)")
    return metrics, runs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="splithygiene benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "splithygiene" / "cli.py").is_file():
        print(f"error: no splithygiene sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    load_before = os.getloadavg()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    metrics, attempted, failed, hash_seeds = {}, 0, 0, {}
    for name in names:
        m, runs = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update({prefix + k: v for k, v in m.items()})
        attempted += len(runs)
        failed += sum(1 for r in runs if r.problems)
        hash_seeds[name] = [r.hash_seed for r in runs]
    print(json.dumps({"environment": environment(load_before, hash_seeds)}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
