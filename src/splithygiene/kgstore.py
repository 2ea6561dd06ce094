"""In-memory triple store with basic-graph-pattern evaluation.

Stands in for a live SPARQL endpoint: holds IRI-only triples loaded from an
N-Triples file and answers the ASK / SELECT DISTINCT subset of qlang, every
pattern shape from one lookup table (see `Graph`) and one unifier.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

from .errors import InputFileError, UnboundVariable
from .qlang import ASK, IRI_TEXT, PLACEHOLDER_PREFIX, Iri, QueryAst

# An IRI a query can write: one spelled like a placeholder term would read back as a placeholder.
_IRI = rf"<(?!{re.escape(PLACEHOLDER_PREFIX)})({IRI_TEXT})>"
_TRIPLE_LINE = re.compile(rf"^{_IRI}\s+{_IRI}\s+(.+?)\s*\.\s*$")
_IRI_OBJECT = re.compile(rf"^{_IRI}$")


@dataclass(frozen=True)
class LoadReport:
    skipped_literals: int
    malformed_lines: tuple[int, ...]


class Graph:
    """Immutable set of (subject, predicate, object) IRI triples with one index.

    The index maps a pattern's bound positions, None where unbound, to the
    matching triples in sorted order, for the shapes the evaluator looks up:
    (None, p, None), (s, p, None), (None, p, o) and (None, None, None).
    """

    def __init__(self, triples, load_report: LoadReport | None = None):
        self.triples: frozenset[tuple[str, str, str]] = frozenset(triples)
        self.load_report = load_report
        index: dict[tuple, list[tuple[str, str, str]]] = {}
        for triple in sorted(self.triples):
            s, p, o = triple
            for key in ((None, None, None), (None, p, None), (s, p, None), (None, p, o)):
                index.setdefault(key, []).append(triple)
        self._index = index

    def __len__(self) -> int:
        return len(self.triples)


def _utf8_lines(fh, path):
    try:
        yield from fh
    except UnicodeDecodeError as exc:
        raise InputFileError(f"{path}: not UTF-8 text ({exc.reason})") from None


def load_ntriples(path) -> Graph:
    """Load IRI-object triples from an N-Triples file.

    Literal-object lines are skipped and counted; lines that are neither
    comments, blank, nor well-formed triples are recorded as malformed
    (1-based line numbers) in the graph's load report, not raised; so is a
    line naming an IRI that starts like a placeholder term. A file
    that is not UTF-8 raises InputFileError.
    """
    triples: set[tuple[str, str, str]] = set()
    skipped = 0
    malformed: list[int] = []
    with open(Path(path), encoding="utf-8") as fh:
        for line_no, line in enumerate(_utf8_lines(fh, path), start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            m = _TRIPLE_LINE.match(stripped)
            if not m:
                malformed.append(line_no)
                continue
            obj_text = m.group(3)
            obj = _IRI_OBJECT.match(obj_text)
            if obj:
                triples.add((m.group(1), m.group(2), obj.group(1)))
            elif obj_text.startswith('"'):
                skipped += 1
            else:
                malformed.append(line_no)
    return Graph(triples, LoadReport(skipped, tuple(malformed)))


def _bound(term, binding: dict[str, str]) -> str | None:
    """The IRI a term stands for under `binding`; None for an unbound variable."""
    return term.value if isinstance(term, Iri) else binding.get(term.name)


def _candidates(graph: Graph, pattern, binding: dict[str, str]):
    """The triples, in sorted order, that agree with the pattern's IRI positions.

    A fully bound pattern is a membership test on `graph.triples`; a variable
    predicate gets every triple, which `_unify` then narrows.
    """
    s, p, o = (_bound(term, binding) for term in pattern)
    if p is None:
        return graph._index.get((None, None, None), ())
    if s is not None and o is not None:
        return ((s, p, o),) if (s, p, o) in graph.triples else ()
    return graph._index.get((s, p, None) if s is not None else (None, p, o), ())


def _unify(pattern, triple, binding: dict[str, str]) -> dict[str, str] | None:
    """`binding` extended so that `pattern` matches `triple`, or None if it cannot."""
    for term, value in zip(pattern, triple):
        bound = _bound(term, binding)
        if bound is None:
            binding = {**binding, term.name: value}
        elif bound != value:
            return None
    return binding


def _solutions(graph: Graph, patterns, binding: dict[str, str], stop_at_first: bool):
    if not patterns:
        yield binding
        return
    # greedy: evaluate the pattern with the fewest candidates first
    candidates = [_candidates(graph, pattern, binding) for pattern in patterns]
    idx = min(range(len(patterns)), key=lambda i: len(candidates[i]))
    rest = patterns[:idx] + patterns[idx + 1:]
    for triple in candidates[idx]:
        nb = _unify(patterns[idx], triple, binding)
        if nb is None:
            continue
        for sol in _solutions(graph, rest, nb, stop_at_first):
            yield sol
            if stop_at_first:
                return


def evaluate(graph: Graph, ast: QueryAst):
    """Evaluate a placeholder-free query.

    ASK returns a bool; SELECT DISTINCT returns deduplicated binding rows,
    ordered lexicographically by the bound IRIs in select-variable order.
    """
    if ast.has_placeholders():
        raise ValueError("query still contains placeholder terms")
    if ast.form == ASK:
        return next(_solutions(graph, list(ast.patterns), {}, True), None) is not None
    pattern_vars = ast.variables()
    for v in ast.select_vars:
        if v not in pattern_vars:
            raise UnboundVariable(f"?{v} never appears in the query patterns")
    rows = {
        tuple(sol[v] for v in ast.select_vars)
        for sol in _solutions(graph, list(ast.patterns), {}, False)
    }
    return [dict(zip(ast.select_vars, row)) for row in sorted(rows)]
