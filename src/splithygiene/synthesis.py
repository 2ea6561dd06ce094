"""Template extraction from seeds, instantiation into new instances, and the read-back.

A template pairs a question pattern (words + labeled slots) with a query
pattern whose entity positions are ``<Placeholder:X>`` terms. Instantiation
derives a SELECT DISTINCT binding query, runs it on a graph, and substitutes
each binding row back into both sides: the question's slots take the
entity labels' tokens, and the query is filled in from the template's
compiled `QueryForm`. The read-back goes the other way: `QueryForm.match`
reads each placeholder's IRI from a query whose canonical text fills the
form, and `label_to_iri_form` turns a label back into an IRI by the naming
convention of `entity_label`.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

from . import qlang, rng
from .corpus import STRING, Instance, QAPair, Seed, read_records, unique_ids, write_lines
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

    def __post_init__(self):
        if not self.query_pattern.patterns:
            raise ValueError(f"template {self.id}: query pattern has no triples")
        if set(self.nlq_pattern.labels) != self.query_pattern.placeholders():
            raise ValueError(f"template {self.id}: NLQ and query disagree on labels")

    @cached_property
    def placeholder_labels(self) -> tuple[str, ...]:  # sorted: the binding query selects them in this order
        return tuple(sorted(self.nlq_pattern.labels))

    @cached_property
    def predicates(self) -> tuple[str, ...]:
        """Concrete predicate IRIs in triple order, placeholder-predicate patterns skipped."""
        return tuple(p.value for _, p, _ in self.query_pattern.patterns if isinstance(p, Iri))

    @cached_property
    def query_form(self) -> "QueryForm":
        return QueryForm.compile(self.query_pattern)


@dataclass(frozen=True)
class QueryForm:
    """A template's query, compiled once to be filled in from binding rows and to read them back.

    A row maps each placeholder label, lowercased, to an IRI. ``text`` is the
    query's `qlang.serialize` text as a `str.format_map` template: the IRI
    text of placeholder X is the field ``{x}``, and every other brace is
    doubled. ``predicates`` are the query's predicates in triple order, an
    IRI or, at the positions ``holes``, a placeholder's row key. ``pattern``
    matches the text of the query with placeholder X bound to the IRI that
    its group ``X`` captures; an IRI spelled ``Placeholder:...`` would read
    back as a placeholder, so no group captures one.
    """

    text: str
    predicates: tuple[str, ...]
    holes: tuple[int, ...]
    pattern: re.Pattern

    @classmethod
    def compile(cls, query: QueryAst) -> "QueryForm":
        serialized = qlang.serialize(query)
        text = serialized.replace("{", "{{").replace("}", "}}")
        pattern = re.escape(serialized)
        for label in sorted(query.placeholders()):  # no IRI holds "<", so only a placeholder term matches
            text = text.replace(str(Placeholder(label)), str(Iri(f"{{{label.lower()}}}")))
            term = re.escape(str(Placeholder(label)))
            pattern = pattern.replace(term, f"<(?P<{label}>{qlang.CONCRETE_IRI})>", 1).replace(term, f"<(?P={label})>")
        predicates = tuple(p.label.lower() if isinstance(p, Placeholder) else p.value for _, p, _ in query.patterns)
        holes = tuple(k for k, (_, p, _) in enumerate(query.patterns) if isinstance(p, Placeholder))
        return cls(text, predicates, holes, re.compile(pattern))

    def fill(self, row: dict[str, str]) -> str:
        """The `qlang.serialize` text of the query that binds each placeholder to its row's IRI."""
        return self.text.format_map(row)

    def fill_predicates(self, row: dict[str, str]) -> tuple[str, ...]:
        """The predicates of the query that `fill` writes for the row."""
        if not self.holes:
            return self.predicates
        predicates = list(self.predicates)
        for k in self.holes:
            predicates[k] = row[predicates[k]]
        return tuple(predicates)

    def match(self, text: str) -> dict[str, str] | None:
        """Each placeholder label's IRI in a query whose canonical text `fill` writes, else None.

        The text is matched as written, then, only when that fails and the
        parsed query's `qlang.serialize` text differs, as that text: a query
        spaced otherwise reads back, one with other patterns, another form or
        another SELECT list does not.
        """
        m = self.pattern.fullmatch(text)
        if m is None:
            canonical = qlang.serialize(qlang.parse_query(text))
            m = None if canonical == text else self.pattern.fullmatch(canonical)
        return None if m is None else m.groupdict()


def split_iri(iri: str) -> tuple[str, str]:
    """(namespace, local name): the local name is what follows the IRI's last `/` or `#`."""
    cut = max(iri.rfind("/"), iri.rfind("#")) + 1
    return iri[:cut], iri[cut:]


def entity_label(iri: str) -> str:
    """Human label for an entity IRI: local name, underscores as spaces, lowercased."""
    return split_iri(iri)[1].replace("_", " ").lower()


def label_to_iri_form(text: str, namespace: str) -> str:
    """Reverse the label convention: capitalize words, join with underscores."""
    return namespace + "_".join(w.capitalize() for w in text.split())


_DEFAULT_NAMESPACE = "http://example.org/resource/"


def _namespace(iri: str) -> str:
    """The IRI before its local name (`split_iri`), or the default if no separator follows the scheme's `//`."""
    namespace = split_iri(iri)[0]
    return namespace if len(namespace) > len("http://") + 1 else _DEFAULT_NAMESPACE


def entity_namespace(iris) -> str:
    """The most common namespace of the IRIs, the first seen on a tie; the default when there are none."""
    namespaces = Counter(map(_namespace, iris))
    return namespaces.most_common(1)[0][0] if namespaces else _DEFAULT_NAMESPACE


def _locate_iri(ast: QueryAst, span: tuple[str, ...]) -> str | None:
    """Find the query IRI whose tokenized label equals the span's tokens."""
    for pattern in ast.patterns:
        for term in pattern:
            if isinstance(term, Iri) and qlang.tokenize_nlq(entity_label(term.value)) == span:
                return term.value
    return None


def _rewrite_terms(ast: QueryAst, kind: type, new, form: str | None = None,
                   select_vars: tuple[str, ...] | None = None) -> QueryAst:
    """`ast` with each term of type `kind` replaced by `new(term)`; form and select_vars kept unless given."""
    return QueryAst(
        form=ast.form if form is None else form,
        select_vars=ast.select_vars if select_vars is None else select_vars,
        patterns=tuple(tuple(new(t) if isinstance(t, kind) else t for t in p) for p in ast.patterns),
    )


def extract_template(seed: Seed) -> Template:
    """Turn a seed's labeled surface forms into slots and placeholders.

    Each labeled NLQ span becomes a slot; the corresponding entity IRI
    (supplied on the surface form, or located by matching the span text
    against IRI local names) becomes a placeholder everywhere it occurs
    in the query.
    """
    nlq = seed.pair.nlq
    query = seed.pair.query_ast  # parsed here, once: the pair keeps no AST
    label_iris: dict[str, str] = {}
    for label in sorted(seed.surface_forms):
        sf = seed.surface_forms[label]
        iri = sf.iri
        if iri is None:
            iri = _locate_iri(query, nlq[sf.start:sf.end])
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

    placeholders = {iri: Placeholder(label) for label, iri in label_iris.items()}
    return Template(
        id=f"t-{seed.id}",
        nlq_pattern=nlq_pattern,
        query_pattern=_rewrite_terms(query, Iri, lambda t: placeholders.get(t.value, t)),
        origin_seed_id=seed.id,
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
    return _rewrite_terms(template.query_pattern, Placeholder, lambda t: Var(names[t.label]),
                          qlang.SELECT_DISTINCT, tuple(names.values()))


def generate_instances(template: Template, graph: Graph, limit: int, rng_seed: int,
                       entities: dict[str, tuple[str, ...]] | None = None) -> list[Instance]:
    """Instantiate a template against a graph.

    Binding rows are shuffled with a stream keyed by (rng_seed, template id)
    and the first `limit` are substituted into both the question and the
    query; generation over many templates is therefore order-independent.
    Rows binding an entity whose label has no token are dropped before the
    shuffle. ``entities`` maps an IRI to its label's tokens; callers that
    pass one dict to many calls tokenize each label once. A row holds its
    query's text and predicates, both filled in from the template's
    `QueryForm`, and no AST.
    """
    if limit < 0:
        raise ValueError("limit must be >= 0")
    if limit == 0:
        return []
    if entities is None:
        entities = {}
    if template.placeholder_labels:
        rows = evaluate(graph, derive_binding_query(template))
    else:  # one empty binding row iff the query holds
        rows = [{}] if evaluate(graph, template.query_pattern) else []
    # a slot takes one or more tokens, so no template generates a question from an entity labelled by none
    labelless = set()
    for row in rows:
        for iri in row.values():
            tokens = entities.get(iri)
            if tokens is None:
                tokens = entities[iri] = qlang.tokenize_nlq(entity_label(iri))
            if not tokens:
                labelless.add(iri)
    if labelless:
        rows = [row for row in rows if labelless.isdisjoint(row.values())]
    order = rng.permutation(len(rows), rng_seed, "generate", template.id)
    form = template.query_form
    keys = [(label, label.lower()) for label in template.placeholder_labels]
    instances: list[Instance] = []
    for k, row_idx in enumerate(order[:limit]):
        row = rows[row_idx]
        nlq = qlang.substitute_slots(template.nlq_pattern, {label: entities[row[key]] for label, key in keys})
        pair = QAPair(nlq, form.fill(row), form.fill_predicates(row))
        instances.append(Instance(id=f"{template.id}-{k}", pair=pair, origin_template_id=template.id))
    return instances


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
    return Template(
        id=doc["id"],
        nlq_pattern=NlqPattern.from_text(doc["nlq_pattern"]),
        query_pattern=qlang.parse_query(doc["query_pattern"]),
        origin_seed_id=doc["origin_seed_id"],
    )


def write_templates(path, templates) -> None:
    write_lines(path, (json.dumps(template_to_dict(t)) for t in templates))


_TEMPLATE_KEYS = {"id": STRING, "nlq_pattern": STRING, "query_pattern": STRING, "origin_seed_id": STRING}


def read_templates(path) -> list[Template]:
    """The templates of a templates.jsonl file; two with one id raise InputFileError."""
    return unique_ids(path, read_records(path, template_from_dict, _TEMPLATE_KEYS))
