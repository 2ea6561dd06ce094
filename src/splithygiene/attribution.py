"""Recover which template(s) could have generated each instance.

Two rules, both required: the template's question pattern must match the
instance NLQ (slots absorbing contiguous tokens), and the template's concrete
predicates must occur in the instance query in the same order. Attribution
keeps every matching template; downstream split logic resolves ambiguity.
"""

from __future__ import annotations

from dataclasses import dataclass

from .corpus import Instance, Seed, write_lines
from .qlang import NlqPattern, extract_predicates, match_nlq, predicates_subsequence
from .synthesis import Template


def template_predicates(template: Template) -> list[str]:
    """Concrete predicate IRIs of a template, placeholder-predicate patterns skipped."""
    return extract_predicates(template.query_pattern, skip_placeholders=True)


def template_matches_seed(template: Template, seed: Seed) -> bool:
    """True when the NLQs align slot-wise and the predicate lists are equal."""
    if match_nlq(template.nlq_pattern, seed.pair.nlq) is None:
        return False
    return template_predicates(template) == extract_predicates(seed.pair.query_ast)


def _prepare(templates) -> list[tuple[str, frozenset[str], list[str], NlqPattern]]:
    """Templates in id order, each with its literal words and concrete predicates."""
    return [(t.id, t.nlq_pattern.words, template_predicates(t), t.nlq_pattern)
            for t in sorted(templates, key=lambda t: t.id)]


def _attribute(instance: Instance, prepared) -> list[str]:
    """Ids of the prepared templates that could have generated the instance.

    Two cheap tests come first, each a necessary condition of a match: the
    template's case-folded literal words must all be among the question's
    case-folded tokens, and its predicates must be a subsequence of the
    query's. Only the templates passing both go to the matcher.
    """
    instance_preds = extract_predicates(instance.pair.query_ast)
    nlq = instance.pair.nlq
    folded = {tok.casefold() for tok in nlq}
    return [tid for tid, words, preds, pattern in prepared
            if words <= folded and predicates_subsequence(preds, instance_preds)
            and match_nlq(pattern, nlq) is not None]


@dataclass(frozen=True)
class AttributionIndex:
    """Per-instance template lists plus per-template tallies."""

    by_instance: dict[str, tuple[str, ...]]
    counts: dict[str, int]
    ambiguous_ids: frozenset[str]

    def attributed(self, instance_id: str) -> tuple[str, ...]:
        return self.by_instance.get(instance_id, ())

    @property
    def unattributed_ids(self) -> frozenset[str]:
        return frozenset(i for i, ts in self.by_instance.items() if not ts)


def build_index(instances, templates) -> AttributionIndex:
    """Attribute every instance; each template is prepared once for all of them."""
    prepared = _prepare(templates)
    by_instance = {inst.id: tuple(_attribute(inst, prepared)) for inst in instances}
    counts = {tid: 0 for tid, *_ in prepared}
    for ts in by_instance.values():
        for tid in ts:
            counts[tid] += 1
    ambiguous = frozenset(i for i, ts in by_instance.items() if len(ts) >= 2)
    return AttributionIndex(by_instance=by_instance, counts=counts, ambiguous_ids=ambiguous)


def write_attribution(path, instances, index: AttributionIndex) -> None:
    """TSV: instance_id <TAB> comma-joined template ids (empty = unattributed)."""
    write_lines(path, [f"{inst.id}\t{','.join(index.attributed(inst.id))}" for inst in instances])
