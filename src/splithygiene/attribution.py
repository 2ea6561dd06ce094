"""Recover which template(s) could have generated each instance.

Two rules, both required: the template's question pattern must match the
instance NLQ (slots absorbing contiguous tokens), and the template's concrete
predicates must occur in the instance query in the same order. Attribution
keeps every matching template; downstream split logic resolves ambiguity.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .corpus import Instance, Seed, write_lines
from .qlang import extract_predicates, match_nlq, predicates_subsequence
from .synthesis import Template


def template_predicates(template: Template) -> list[str]:
    """Concrete predicate IRIs of a template, placeholder-predicate patterns skipped."""
    return extract_predicates(template.query_pattern, skip_placeholders=True)


def template_matches_seed(template: Template, seed: Seed) -> bool:
    """True when the NLQs align slot-wise and the predicate lists are equal."""
    if match_nlq(template.nlq_pattern, seed.pair.nlq) is None:
        return False
    return template_predicates(template) == extract_predicates(seed.pair.query_ast)


def attribute_instance(instance: Instance, templates) -> list[str]:
    """Ids of all templates that could have generated the instance, sorted by id."""
    instance_preds = extract_predicates(instance.pair.query_ast)
    out = []
    for t in sorted(templates, key=lambda t: t.id):
        if match_nlq(t.nlq_pattern, instance.pair.nlq) is None:
            continue
        if predicates_subsequence(template_predicates(t), instance_preds):
            out.append(t.id)
    return out


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
    """Attribute every instance."""
    template_list = list(templates)
    by_instance = {inst.id: tuple(attribute_instance(inst, template_list)) for inst in instances}
    counts = {t.id: 0 for t in template_list}
    for ts in by_instance.values():
        for tid in ts:
            counts[tid] += 1
    ambiguous = frozenset(i for i, ts in by_instance.items() if len(ts) >= 2)
    return AttributionIndex(by_instance=by_instance, counts=counts, ambiguous_ids=ambiguous)


def write_attribution(path, instances, index: AttributionIndex) -> None:
    """TSV: instance_id <TAB> comma-joined template ids (empty = unattributed)."""
    write_lines(path, [f"{inst.id}\t{','.join(index.attributed(inst.id))}" for inst in instances])


def read_attribution(path) -> dict[str, tuple[str, ...]]:
    out: dict[str, tuple[str, ...]] = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        instance_id, _, joined = line.partition("\t")
        out[instance_id] = tuple(joined.split(",")) if joined else ()
    return out
