"""In-memory triple store with basic-graph-pattern evaluation.

Stands in for a live SPARQL endpoint: holds IRI-only triples loaded from an
N-Triples file and answers the ASK / SELECT DISTINCT subset of qlang by a
breadth-first join, every pattern shape read from one lookup table (see
`Graph`).
"""

from __future__ import annotations

import heapq
import re
from dataclasses import dataclass
from operator import itemgetter

from .corpus import _lines
from .errors import UnboundVariable
from .qlang import ASK, CONCRETE_IRI, Iri, QueryAst, Var

_IRI = re.compile(rf"<({CONCRETE_IRI})>")  # an IRI a query can write


@dataclass(frozen=True)
class LoadReport:
    skipped_literals: int
    malformed_lines: tuple[int, ...]


class Graph:
    """Immutable set of (subject, predicate, object) IRI triples with one index.

    The index maps a pattern's bound positions, None where unbound, to the
    matching triples, for the shapes with a bound predicate that the evaluator
    looks up: (None, p, None), (s, p, None) and (None, p, o). A pattern with
    the predicate unbound reads `triples` itself.
    """

    def __init__(self, triples, load_report: LoadReport | None = None):
        self.triples: frozenset[tuple[str, str, str]] = frozenset(triples)
        self.load_report = load_report
        index: dict[tuple, list[tuple[str, str, str]]] = {}
        for triple in self.triples:
            s, p, o = triple
            for key in ((None, p, None), (s, p, None), (None, p, o)):
                index.setdefault(key, []).append(triple)
        self._index = index

    def __len__(self) -> int:
        return len(self.triples)


def load_ntriples(path) -> Graph:
    """Load IRI-object triples from an N-Triples file, in time linear in each line's length.

    The file is read by `corpus._lines` with universal newlines: CR, LF and
    CRLF each end a line. A stripped line that is not blank or a comment must
    end in a dot, and the text before it is cut at its first two blank runs:
    subject and predicate must be `<IRI>` terms, and the rest, trailing blanks
    removed, is the object. An `<IRI>` object makes a triple and a `"` one is
    a literal, skipped and counted; any other line, or one naming an IRI that
    starts like a placeholder term, is recorded as malformed (1-based line
    numbers) in the graph's load report, not raised. A file that is not UTF-8
    raises InputFileError naming the line. The graph holds one str per distinct IRI.
    """
    triples: set[tuple[str, str, str]] = set()
    names: dict[str, str] = {}  # one str per distinct IRI, however often the file names it
    skipped = 0
    malformed: list[int] = []
    for line_no, line in enumerate(_lines(path, newline=None), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        fields = stripped[:-1].split(None, 2) if stripped.endswith(".") else ()
        if len(fields) < 3:
            malformed.append(line_no)
            continue
        obj_text = fields[2].rstrip()
        s, p, o = map(_IRI.fullmatch, (fields[0], fields[1], obj_text))
        if s and p and o:
            s, p, o = s[1], p[1], o[1]
            triples.add((names.setdefault(s, s), names.setdefault(p, p), names.setdefault(o, o)))
        elif s and p and obj_text.startswith('"'):
            skipped += 1
        else:
            malformed.append(line_no)
    return Graph(triples, LoadReport(skipped, tuple(malformed)))


def _lookup(graph: Graph, s: str | None, p: str | None, o: str | None):
    """The triples that agree with the given positions; None is unbound.

    A fully bound pattern is a membership test on `graph.triples`. With the
    predicate unbound every triple is offered, and the caller checks the
    subject and object.
    """
    if p is None:
        return graph.triples
    if s is not None and o is not None:
        return ((s, p, o),) if (s, p, o) in graph.triples else ()
    return graph._index.get((s, p, None) if s is not None else (None, p, o), ())


def _join_order(graph: Graph, patterns) -> list[int]:
    """The patterns' indices in join order.

    Next comes the pattern with the most bound positions (IRIs and variables
    an earlier pattern binds), then the fewest index candidates for its IRIs,
    then the first. A heap with lazily dropped entries keeps this
    O(P log P) for P patterns.
    """
    bound = [sum(isinstance(t, Iri) for t in pattern) for pattern in patterns]
    size = [len(_lookup(graph, *(t.value if isinstance(t, Iri) else None for t in pattern))) for pattern in patterns]
    holders: dict[str, list[int]] = {}  # variable -> its patterns, once per position
    for j, pattern in enumerate(patterns):
        for t in pattern:
            if isinstance(t, Var):
                holders.setdefault(t.name, []).append(j)
    heap = [(-bound[j], size[j], j) for j in range(len(patterns))]
    heapq.heapify(heap)
    done = [False] * len(patterns)
    order: list[int] = []
    while heap:
        b, _, j = heapq.heappop(heap)
        if done[j] or -b != bound[j]:
            continue
        done[j] = True
        order.append(j)
        for name in {t.name for t in patterns[j] if isinstance(t, Var)}:
            for k in holders.pop(name, ()):
                if not done[k]:
                    bound[k] += 1
                    heapq.heappush(heap, (-bound[k], size[k], k))
    return order


def _tuple_getter(positions):
    """A function returning the items of a sequence at `positions`, always as a tuple."""
    if len(positions) == 1:
        (k,) = positions
        return lambda seq: (seq[k],)
    return itemgetter(*positions) if positions else (lambda seq: ())


def _join(graph: Graph, patterns, select_vars, first_only: bool):
    """The distinct `select_vars` rows of the patterns' solutions, or with `first_only` whether one exists.

    The join is breadth-first: each step extends every partial row (the
    values of the variables bound so far, in binding order) by one pattern,
    in `_join_order`. The last step adds its rows to the result set as it
    makes them, and with `first_only` stops at the first.
    """
    slot: dict[str, int] = {}  # variable -> its position in a partial row
    rows: list[tuple] = [()]
    order = _join_order(graph, patterns)
    for step, j in enumerate(order):
        # a position is an IRI, a bound variable, or unbound; `ext` is a row followed by `tail`
        width, tail, at, new, same, first = len(slot), [None], [], [], [], {}
        for k, term in enumerate(patterns[j]):
            if isinstance(term, Iri):
                at.append(width + len(tail))
                tail.append(term.value)
            elif term.name in first:  # a second place of a variable this pattern binds
                at.append(width)  # reads the None that starts the tail
                same.append((first[term.name], k))
            elif term.name in slot:
                at.append(slot[term.name])
            else:
                at.append(width)
                first[term.name] = k
                slot[term.name] = width + len(new)
                new.append(k)
        tail = tuple(tail)
        s_at, p_at, o_at = at
        # with the predicate unbound the lookup ignores the subject and object, so they are checked
        checks = [(k, i) for k, i in ((0, s_at), (2, o_at)) if i != width] if p_at == width else []
        key = itemgetter(*at)
        extend = _tuple_getter(new)
        last = step == len(order) - 1
        out = set() if last else []
        put = out.add if last else out.append
        project = _tuple_getter([slot[v] for v in select_vars]) if last else None
        for row in rows:
            ext = row + tail
            for t in _lookup(graph, *key(ext)):
                if checks and any(t[k] != ext[i] for k, i in checks):
                    continue
                if same and any(t[a] != t[b] for a, b in same):
                    continue
                if not last:
                    put(row + extend(t))
                elif first_only:
                    return True
                else:
                    put(project(row + extend(t)))
        rows = out
        if not rows:
            break
    return bool(rows) if first_only else rows


def evaluate(graph: Graph, ast: QueryAst):
    """Evaluate a placeholder-free query.

    ASK returns a bool; SELECT DISTINCT returns deduplicated binding rows,
    ordered lexicographically by the bound IRIs in select-variable order.
    """
    if ast.placeholders():
        raise ValueError("query still contains placeholder terms")
    if ast.form == ASK:
        return _join(graph, ast.patterns, (), True)
    pattern_vars = ast.variables()
    for v in ast.select_vars:
        if v not in pattern_vars:
            raise UnboundVariable(f"?{v} never appears in the query patterns")
    return [dict(zip(ast.select_vars, row)) for row in sorted(_join(graph, ast.patterns, ast.select_vars, False))]
