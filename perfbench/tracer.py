"""Span wrappers around the public functions of every splithygiene layer.

A layer is one package module. ``Tracer.install`` replaces each public
function of a layer module at every name the package binds it to, so a
``from .qlang import match_nlq`` copy in another module is wrapped too and
an import-style refactor cannot silently drop a span. Spans are aggregated
in memory per function (calls, inclusive time, self time) instead of being
kept one by one, because the hot layers make millions of calls; per-call
durations are kept for ``baselines.memorizer_predict`` only, for its
percentiles. ``Tracer.report`` returns the aggregate as a JSON-ready dict.

Self time is a span's duration minus the time of the wrapped spans called
inside it. A handful of boundaries also record counts (see ``_OBSERVERS``).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from time import perf_counter_ns

LAYERS = (
    "qlang", "kgstore", "synthesis", "attribution", "partitioner",
    "baselines", "metrics", "corpus", "experiments", "cli",
)
PACKAGE = "splithygiene"
ROOT_SPAN = "cli.main"


def _match_nlq(tracer, args, result, dt, entry):
    if result is not None:
        tracer.counters["qlang.match_nlq_hits"] += 1


def _load_ntriples(tracer, args, result, dt, entry):
    tracer.counters["kgstore.triples"] += len(result)


def _evaluate(tracer, args, result, dt, entry):
    tracer.counters["kgstore.rows_out"] += len(result) if isinstance(result, list) else int(bool(result))


def _generate_instances(tracer, args, result, dt, entry):
    tracer.counters["synthesis.instances_out"] += len(result)


def _sanitized_partition(tracer, args, result, dt, entry):
    tracer.counters["partitioner.sanitized_test_kept"] += len(result.test)


def _build_index(tracer, args, result, dt, entry):
    c = tracer.counters
    c["attribution.pairs"] += len(result.by_instance) * len(result.counts)
    c["attribution.ambiguous"] += len(result.ambiguous_ids)
    c["attribution.match_attempts"] += tracer.calls["qlang.match_nlq"][0] - entry[0]
    c["attribution.match_hits"] += c["qlang.match_nlq_hits"] - entry[1]


def _memorizer_predict(tracer, args, result, dt, entry):
    tracer.durations.append(dt)
    if tracer.counters["qlang.match_nlq_hits"] == entry[1]:
        tracer.counters["baselines.memorizer_fallbacks"] += 1
        tracer.counters["baselines.memorizer_fallback_ns"] += dt


def _train_ngram_lm(tracer, args, result, dt, entry):
    # the unigram context total is the number of training tokens plus one end marker per sentence
    tracer.counters["baselines.lm_train_tokens"] += result.context_totals[1].get((), 0)


def _score_sentence(tracer, args, result, dt, entry):
    tracer.counters["baselines.lm_scored_tokens"] += len(result)


def _read_parallel(tracer, args, result, dt, entry):
    tracer.counters["corpus.read_parallel_lines"] += len(result)


# boundary -> observer(tracer, args, result, duration_ns, (match_nlq calls, hits) at entry)
_OBSERVERS = {
    "qlang.match_nlq": _match_nlq,
    "kgstore.load_ntriples": _load_ntriples,
    "kgstore.evaluate": _evaluate,
    "synthesis.generate_instances": _generate_instances,
    "partitioner.sanitized_partition": _sanitized_partition,
    "attribution.build_index": _build_index,
    "baselines.memorizer_predict": _memorizer_predict,
    "baselines.train_ngram_lm": _train_ngram_lm,
    "baselines.score_sentence": _score_sentence,
    "corpus.read_parallel": _read_parallel,
}


class Tracer:
    """In-memory span aggregate for one process."""

    def __init__(self):
        self.calls: dict[str, list[int]] = {}  # name -> [calls, total_ns, self_ns]
        self.durations: list[int] = []  # memorizer_predict, ns per call
        self._stack = [0]  # time of wrapped children, per open span
        self.counters: dict[str, int] = {key: 0 for key in (
            "qlang.match_nlq_hits", "kgstore.triples", "kgstore.rows_out",
            "synthesis.instances_out", "partitioner.sanitized_test_kept",
            "attribution.pairs", "attribution.ambiguous", "attribution.match_attempts",
            "attribution.match_hits", "baselines.memorizer_fallbacks",
            "baselines.memorizer_fallback_ns", "baselines.lm_train_tokens",
            "baselines.lm_scored_tokens", "corpus.read_parallel_lines",
        )}

    def wrap(self, name: str, fn):
        rec = self.calls.setdefault(name, [0, 0, 0])
        stack = self._stack
        observer = _OBSERVERS.get(name)
        match_rec = self.calls.setdefault("qlang.match_nlq", [0, 0, 0])
        counters = self.counters

        @functools.wraps(fn)
        def span(*args, **kwargs):
            entry = (match_rec[0], counters["qlang.match_nlq_hits"]) if observer else None
            stack.append(0)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter_ns() - t0
                inner = stack.pop()
                stack[-1] += dt
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - inner
            if observer:
                observer(self, args, result, dt, entry)
            return result

        return span

    def install(self) -> list[str]:
        """Wrap every public layer function at every module binding; return the span names."""
        originals = {}  # id(function) -> (span name, function)
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, value in vars(module).items():
                if not attr.startswith("_") and inspect.isfunction(value) and value.__module__ == module.__name__:
                    originals[id(value)] = (f"{layer}.{attr}", value)
        wrapped = {key: self.wrap(name, fn) for key, (name, fn) in originals.items()}
        package_modules = [
            module for name, module in sys.modules.items()
            if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for module in package_modules:
            for attr, value in list(vars(module).items()):
                if id(value) in originals and originals[id(value)][1] is value:
                    setattr(module, attr, wrapped[id(value)])
        return sorted(name for name, _ in originals.values())

    def run_root(self, fn, *args, **kwargs):
        """Run fn inside the root span that stands for the cli layer."""
        return self.wrap(ROOT_SPAN, fn)(*args, **kwargs)

    def report(self) -> dict:
        return {
            "calls": dict(self.calls),
            "counters": dict(self.counters),
            "memorizer_predict_ns": list(self.durations),
        }
