"""Recover which template(s) could have generated each instance.

Two rules, both required: the template's question pattern must match the
instance NLQ (slots absorbing contiguous tokens), and the template's concrete
predicates must occur in the instance query in the same order. Attribution
keeps every matching template; downstream split logic resolves ambiguity.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .corpus import Instance, Seed, write_lines
from .qlang import extract_predicates, match_nlq, predicates_subsequence
from .synthesis import Template


def template_matches_seed(template: Template, seed: Seed) -> bool:
    """True when the NLQs align slot-wise and the predicate lists are equal."""
    if match_nlq(template.nlq_pattern, seed.pair.nlq) is None:
        return False
    return list(template.predicates) == extract_predicates(seed.pair.query_ast)


def nlq_matches(templates, nlq):
    """Yield (template, bindings) for each of `templates` whose question pattern matches, in order.

    The matcher runs only on the templates whose case-folded literal words are
    all among the question's case-folded tokens, a necessary condition of a match.
    """
    folded = {tok.casefold() for tok in nlq}
    for template in templates:
        if template.nlq_pattern.words <= folded:
            bindings = match_nlq(template.nlq_pattern, nlq)
            if bindings is not None:
                yield template, bindings


def _attribute(instance: Instance, templates) -> list[str]:
    """Ids of the matching templates whose predicates are a subsequence of the query's."""
    instance_preds = extract_predicates(instance.pair.query_ast)
    return [t.id for t, _ in nlq_matches(templates, instance.pair.nlq)
            if predicates_subsequence(t.predicates, instance_preds)]


@dataclass(frozen=True)
class AttributionIndex:
    """Per-instance template lists, per-template tallies, and the templates by id."""

    by_instance: dict[str, tuple[str, ...]]
    counts: dict[str, int]
    ambiguous_ids: frozenset[str]
    templates: dict[str, Template]  # in id order; of two with one id, the later

    def attributed(self, instance_id: str) -> tuple[str, ...]:
        return self.by_instance.get(instance_id, ())

    def templates_of(self, instances) -> set[str]:
        """Ids of the templates attributed to any of the instances."""
        return {tid for inst in instances for tid in self.attributed(inst.id)}

    @property
    def unattributed_ids(self) -> frozenset[str]:
        return frozenset(i for i, ts in self.by_instance.items() if not ts)


def build_index(instances, templates) -> AttributionIndex:
    """Attribute every instance to the templates, tried in id order."""
    ordered = sorted(templates, key=lambda t: t.id)
    by_instance = {inst.id: tuple(_attribute(inst, ordered)) for inst in instances}
    tally = Counter(tid for ts in by_instance.values() for tid in ts)
    by_id = {t.id: t for t in ordered}
    ambiguous = frozenset(i for i, ts in by_instance.items() if len(ts) >= 2)
    return AttributionIndex(by_instance=by_instance, counts={tid: tally[tid] for tid in by_id},
                            ambiguous_ids=ambiguous, templates=by_id)


def write_attribution(path, instances, index: AttributionIndex) -> None:
    """TSV: instance_id <TAB> comma-joined template ids (empty = unattributed)."""
    write_lines(path, [f"{inst.id}\t{','.join(index.attributed(inst.id))}" for inst in instances])
