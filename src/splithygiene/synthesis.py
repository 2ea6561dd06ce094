"""Template extraction from seeds and instantiation into new instances.

A template pairs a question pattern (words + labeled slots) with a query
pattern whose entity positions are ``<Placeholder:X>`` terms. Instantiation
derives a SELECT DISTINCT binding query, runs it on a graph, and substitutes
each binding row back into both sides.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from . import qlang, rng
from .corpus import Instance, QAPair, Seed, write_lines
from .errors import UnlocatableEntity
from .kgstore import Graph, evaluate
from .qlang import Iri, NlqPattern, Placeholder, QueryAst, Slot, Var, Word


@dataclass(frozen=True)
class Template:
    """The generative unit: question pattern + placeholder query pattern."""

    id: str
    nlq_pattern: NlqPattern
    query_pattern: QueryAst
    origin_seed_id: str
    placeholder_labels: tuple[str, ...]

    def __post_init__(self):
        if not self.query_pattern.patterns:
            raise ValueError(f"template {self.id}: query pattern has no triples")
        nlq_labels = set(self.nlq_pattern.labels)
        query_labels = set(self.query_pattern.placeholder_labels())
        if not (nlq_labels == query_labels == set(self.placeholder_labels)):
            raise ValueError(f"template {self.id}: NLQ, query, and label list disagree on labels")


def entity_label(iri: str) -> str:
    """Human label for an entity IRI: local name, underscores as spaces, lowercased."""
    local = iri.rsplit("/", 1)[-1].rsplit("#", 1)[-1]
    return local.replace("_", " ").lower()


def _locate_iri(ast: QueryAst, span_text: str) -> str | None:
    """Find the query IRI whose local name matches the span text."""
    wanted = span_text.casefold()
    for pattern in ast.patterns:
        for term in pattern:
            if isinstance(term, Iri) and entity_label(term.value) == wanted:
                return term.value
    return None


def extract_template(seed: Seed, template_id: str | None = None) -> Template:
    """Turn a seed's labeled surface forms into slots and placeholders.

    Each labeled NLQ span becomes a slot; the corresponding entity IRI
    (supplied on the surface form, or located by matching the span text
    against IRI local names) becomes a placeholder everywhere it occurs
    in the query.
    """
    nlq = seed.pair.nlq
    label_iris: dict[str, str] = {}
    for label in sorted(seed.surface_forms):
        sf = seed.surface_forms[label]
        iri = sf.iri
        if iri is None:
            iri = _locate_iri(seed.pair.query_ast, " ".join(nlq[sf.start:sf.end]))
        if iri is None:
            raise UnlocatableEntity(label)
        if iri in label_iris.values():
            raise UnlocatableEntity(label, f"labels share the query IRI <{iri}>")
        label_iris[label] = iri

    slot_at = {sf.start: label for label, sf in seed.surface_forms.items()}
    covered = {i for sf in seed.surface_forms.values() for i in range(sf.start, sf.end)}
    elements: list[Word | Slot] = []
    for i, token in enumerate(nlq):
        if i in slot_at:
            elements.append(Slot(slot_at[i]))
        elif i not in covered:
            elements.append(Word(token))
    nlq_pattern = NlqPattern(tuple(elements))  # raises AdjacentSlots when spans touch

    iri_labels = {iri: label for label, iri in label_iris.items()}

    def swap(term):
        if isinstance(term, Iri) and term.value in iri_labels:
            return Placeholder(iri_labels[term.value])
        return term

    patterns = tuple(tuple(swap(t) for t in p) for p in seed.pair.query_ast.patterns)
    query_pattern = QueryAst(
        form=seed.pair.query_ast.form,
        select_vars=seed.pair.query_ast.select_vars,
        patterns=patterns,
    )
    return Template(
        id=template_id or f"t-{seed.id}",
        nlq_pattern=nlq_pattern,
        query_pattern=query_pattern,
        origin_seed_id=seed.id,
        placeholder_labels=tuple(sorted(label_iris)),
    )


def derive_binding_query(template: Template) -> QueryAst:
    """SELECT DISTINCT query binding every placeholder to a variable.

    Placeholder X becomes ?x; variables are selected in label order. A
    slot-free template is returned unchanged.
    """
    if not template.placeholder_labels:
        return template.query_pattern
    names = {label: label.lower() for label in template.placeholder_labels}
    existing = template.query_pattern.variables()
    clash = sorted(set(names.values()) & existing)
    if clash:
        raise ValueError(f"template {template.id}: binding variables {clash} collide with query variables")

    def swap(term):
        if isinstance(term, Placeholder):
            return Var(names[term.label])
        return term

    patterns = tuple(tuple(swap(t) for t in p) for p in template.query_pattern.patterns)
    select_vars = tuple(names[label] for label in template.placeholder_labels)
    return QueryAst(form=qlang.SELECT_DISTINCT, select_vars=select_vars, patterns=patterns)


def bind_placeholders(template: Template, row: dict[str, str]) -> QueryAst:
    """Concrete query from a binding row keyed by lowercased labels."""
    def swap(term):
        if isinstance(term, Placeholder):
            return Iri(row[term.label.lower()])
        return term

    patterns = tuple(tuple(swap(t) for t in p) for p in template.query_pattern.patterns)
    return QueryAst(
        form=template.query_pattern.form,
        select_vars=template.query_pattern.select_vars,
        patterns=patterns,
    )


def generate_instances(template: Template, graph: Graph, limit: int, rng_seed: int) -> list[Instance]:
    """Instantiate a template against a graph.

    Binding rows are shuffled with a stream keyed by (rng_seed, template id)
    and the first `limit` are substituted into both the question and the
    query; generation over many templates is therefore order-independent.
    """
    if limit < 0:
        raise ValueError("limit must be >= 0")
    if limit == 0:
        return []
    if not template.placeholder_labels:
        result = evaluate(graph, template.query_pattern)
        holds = result if isinstance(result, bool) else bool(result)
        if not holds:
            return []
        pair = QAPair.from_ast(
            tuple(e.token for e in template.nlq_pattern.elements if isinstance(e, Word)),
            template.query_pattern,
        )
        return [Instance(id=f"{template.id}-0", pair=pair, origin_template_id=template.id)]

    rows = evaluate(graph, derive_binding_query(template))
    order = rng.permutation(len(rows), rng_seed, "generate", template.id)
    instances: list[Instance] = []
    for k, row_idx in enumerate(order[:limit]):
        row = rows[row_idx]
        slot_tokens = {
            label: tuple(entity_label(row[label.lower()]).split())
            for label in template.placeholder_labels
        }
        nlq = qlang.substitute_slots(template.nlq_pattern, slot_tokens)
        pair = QAPair.from_ast(nlq, bind_placeholders(template, row))
        instances.append(Instance(id=f"{template.id}-{k}", pair=pair, origin_template_id=template.id))
    return instances


def dedup_templates(templates):
    """Drop templates whose (NLQ pattern, query pattern) repeat, keeping firsts."""
    seen: set[tuple[str, str]] = set()
    kept: list[Template] = []
    removed = 0
    for t in templates:
        key = (t.nlq_pattern.marker_text(), qlang.serialize(t.query_pattern))
        if key in seen:
            removed += 1
            continue
        seen.add(key)
        kept.append(t)
    return kept, removed


# ---------------------------------------------------------------------------
# templates.jsonl
# ---------------------------------------------------------------------------

def template_to_dict(t: Template) -> dict:
    return {
        "id": t.id,
        "nlq_pattern": t.nlq_pattern.marker_text(),
        "query_pattern": qlang.serialize(t.query_pattern),
        "origin_seed_id": t.origin_seed_id,
    }


def template_from_dict(doc: dict) -> Template:
    query_pattern = qlang.parse_query(doc["query_pattern"])
    return Template(
        id=doc["id"],
        nlq_pattern=NlqPattern.from_text(doc["nlq_pattern"]),
        query_pattern=query_pattern,
        origin_seed_id=doc["origin_seed_id"],
        placeholder_labels=tuple(sorted(query_pattern.placeholder_labels())),
    )


def write_templates(path, templates) -> None:
    write_lines(path, [json.dumps(template_to_dict(t)) for t in templates])


def read_templates(path) -> list[Template]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    return [template_from_dict(json.loads(line)) for line in lines if line.strip()]
