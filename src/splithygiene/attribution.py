"""Recover which template(s) could have generated each instance.

Two rules, both required: the template's question pattern must match the
instance NLQ (slots absorbing contiguous tokens), and the template's concrete
predicates must occur in the instance query in the same order. Attribution
keeps every matching template; downstream split logic resolves ambiguity.
The question rule runs once per question skeleton (see `nlq_matcher`).
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass, field
from itertools import chain

from .corpus import write_lines
from .qlang import match_nlq, predicates_subsequence
from .synthesis import Template


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


def nlq_matcher(templates) -> Callable[[tuple], tuple]:
    """A memoised ``nlq -> tuple(nlq_matches(templates, nlq))``.

    The memo is keyed by the question's skeleton: per token, the id of its
    case-fold if that is a literal word of some template, else None. The
    matcher compares a token only with a pattern word, by case-fold, and the
    pre-filter tests only pattern words, so two questions with one skeleton
    match the same templates with the same bindings (token positions). The
    bindings are shared between those questions: read them, do not change them.
    """
    templates = list(templates)
    word_ids = {word: i for i, word in enumerate(sorted(set().union(*(t.nlq_pattern.words for t in templates))))}
    table: dict[tuple, tuple] = {}

    def matches(nlq) -> tuple:
        skeleton = tuple(map(word_ids.get, map(str.casefold, nlq)))
        found = table.get(skeleton)
        if found is None:
            found = table[skeleton] = tuple(nlq_matches(templates, nlq))
        return found

    return matches


@dataclass(frozen=True)
class AttributionIndex:
    """Per-instance template lists, per-template tallies, the templates by id, and their match table."""

    by_instance: dict[str, tuple[str, ...]]
    counts: dict[str, int]
    ambiguous_ids: frozenset[str]
    templates: dict[str, Template]  # in id order; of two with one id, the later
    # nlq_matcher over the templates in id order; questions with new skeletons fill it
    matches: Callable[[tuple], tuple] = field(compare=False, repr=False)

    def attributed(self, instance_id: str) -> tuple[str, ...]:
        return self.by_instance.get(instance_id, ())

    def tally(self, instances) -> Counter:
        """How many of the instances each template is attributed to; a template with none is absent."""
        get = self.by_instance.get  # `attributed`, without a Python call per instance
        return Counter(chain.from_iterable([get(inst.id, ()) for inst in instances]))

    @property
    def unattributed_ids(self) -> frozenset[str]:
        return frozenset(i for i, ts in self.by_instance.items() if not ts)


def build_index(instances, templates) -> AttributionIndex:
    """Attribute every instance to the templates, tried in id order.

    An instance's templates depend only on its entry in the match table and
    its predicates, so each distinct pair of them is worked out once.
    """
    ordered = sorted(templates, key=lambda t: t.id)
    matches = nlq_matcher(ordered)
    by_instance = {}
    found: dict[tuple[int, tuple[str, ...]], tuple[str, ...]] = {}  # (id of a table entry, predicates) -> ids
    for inst in instances:
        preds = inst.pair.concrete_predicates()
        matched = matches(inst.pair.nlq)  # the table keeps each entry, so its id names it
        key = (id(matched), preds)
        ids = found.get(key)
        if ids is None:
            ids = found[key] = tuple(t.id for t, _ in matched if predicates_subsequence(t.predicates, preds))
        by_instance[inst.id] = ids
    tally = Counter(tid for ts in by_instance.values() for tid in ts)
    by_id = {t.id: t for t in ordered}
    ambiguous = frozenset(i for i, ts in by_instance.items() if len(ts) >= 2)
    return AttributionIndex(by_instance=by_instance, counts={tid: tally[tid] for tid in by_id},
                            ambiguous_ids=ambiguous, templates=by_id, matches=matches)


def write_attribution(path, instances, index: AttributionIndex) -> None:
    """TSV: instance_id <TAB> comma-joined template ids (empty = unattributed)."""
    write_lines(path, (f"{inst.id}\t{','.join(index.attributed(inst.id))}" for inst in instances))
