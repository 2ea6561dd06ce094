"""Question tokenization, a small formal-query language, and pattern matching.

The formal-query subset covers exactly two forms over a basic graph pattern:

    ASK WHERE { <s> <p> <o> . ... }
    SELECT DISTINCT ?a, ?b WHERE { ... }

Terms are IRIs in angle brackets, ``?var`` variables, or ``<Placeholder:A>``
markers standing for a not-yet-bound entity. Anything else (OPTIONAL, FILTER,
UNION, literals) is rejected with a ParseError carrying the offset. One
compiled regex splits a query into lexemes, and one walk over them builds the
AST or raises the error at the offset of the first lexeme out of place.

Question (NLQ) patterns interleave lowercased word tokens with labeled slots
written ``<A>``; a slot matches one or more contiguous question tokens.
"""

from __future__ import annotations

import itertools
import re
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

from .errors import AdjacentSlots, ParseError, PatternError, PlaceholderPredicate

ASK = "ask"
SELECT_DISTINCT = "select_distinct"

_SLOT_MARKER = re.compile(r"<([A-Z][A-Z0-9]*)>\Z")
# The start of a placeholder term's text; an IRI spelled so would read back as a placeholder.
PLACEHOLDER_PREFIX = "Placeholder:"
_TERM_TEXT = r"[^<>{}\s]+"  # the text of a well-formed angle term, between its brackets
# The text of a concrete IRI, between its angle brackets, as a regex; the graph loader and the
# template query forms read IRIs with it.
CONCRETE_IRI = rf"(?!{re.escape(PLACEHOLDER_PREFIX)}){_TERM_TEXT}"
_LABEL = re.compile(r"[A-Z][A-Z0-9]*\Z")


# ---------------------------------------------------------------------------
# Terms and query ASTs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Iri:
    value: str

    def __str__(self) -> str:
        return f"<{self.value}>"


@dataclass(frozen=True)
class Var:
    name: str

    def __str__(self) -> str:
        return f"?{self.name}"


@dataclass(frozen=True)
class Placeholder:
    label: str

    def __str__(self) -> str:
        return f"<{PLACEHOLDER_PREFIX}{self.label}>"


Term = Iri | Var | Placeholder
TriplePattern = tuple[Term, Term, Term]


@dataclass(frozen=True)
class QueryAst:
    """Parsed query: an ASK or SELECT DISTINCT over ordered triple patterns."""

    form: str
    select_vars: tuple[str, ...]
    patterns: tuple[TriplePattern, ...]

    def variables(self) -> set[str]:
        return {t.name for p in self.patterns for t in p if isinstance(t, Var)}

    def placeholders(self) -> set[str]:
        return {t.label for p in self.patterns for t in p if isinstance(t, Placeholder)}


def serialize(ast: QueryAst) -> str:
    """Canonical single-line text for an AST; parse(serialize(x)) == x."""
    body = " . ".join(f"{s} {p} {o}" for s, p, o in ast.patterns)
    if ast.form == ASK:
        return f"ASK WHERE {{ {body} }}"
    head = ", ".join(f"?{v}" for v in ast.select_vars)
    return f"SELECT DISTINCT {head} WHERE {{ {body} }}"


# ---------------------------------------------------------------------------
# Query parser
# ---------------------------------------------------------------------------

# The lexemes of a query: an angle term with no "<" before its ">", a variable,
# a word, or any other single non-space character. Each step of the walk below
# takes exactly one lexeme, so the lexeme's start is the offset a ParseError
# names. \s is str.isspace() and \w is str.isalnum() or "_" on every code
# point, so a word is a keyword only when no word character runs into it
# ("ASKWHERE" is no query), and a variable name is greedy ("?yWHERE" is one
# name). An angle term may not contain "<": "<[^>]*>" would rescan to the end
# of the line from every "<", making a run of them quadratic.
_LEXEME = re.compile(r"<[^<>]*>|\?[A-Za-z_][A-Za-z0-9_]*|\w+|\S")
_TERM = re.compile(_TERM_TEXT)


def parse_query(text: str) -> QueryAst:
    """Parse a query in the supported subset; raise ParseError otherwise."""
    lexemes = _LEXEME.findall(text)
    lexemes.append("")  # the end of the text; no step takes it
    if lexemes[0][:1] == "A":
        form, keywords = ASK, ("ASK",)
    else:
        form, keywords = SELECT_DISTINCT, ("SELECT", "DISTINCT")
    for i, word in enumerate(keywords):
        if lexemes[i] != word:
            raise ParseError(_offset(text, i), f"expected {word}")
    i = len(keywords)
    names: list[str] = []
    while form == SELECT_DISTINCT:
        lex = lexemes[i]
        if lex[:1] != "?":
            raise ParseError(_offset(text, i), "expected '?'")
        if lex == "?":
            raise ParseError(_offset(text, i), "malformed variable name")
        names.append(lex[1:])
        i += 1
        if lexemes[i] != ",":
            break
        i += 1
    if len(set(names)) != len(names):
        raise ParseError(_offset(text, i), "duplicate variable in SELECT list")
    if lexemes[i] != "WHERE":
        raise ParseError(_offset(text, i), "expected WHERE")
    i += 1
    if lexemes[i] != "{":
        raise ParseError(_offset(text, i), "expected '{'")
    i += 1
    if lexemes[i] == "}":
        raise ParseError(_offset(text, i), "expected at least one triple pattern")
    patterns: list[TriplePattern] = []
    while True:
        subj = _term(text, lexemes, i)
        pred = _term(text, lexemes, i + 1)
        if type(pred) is Var:
            raise ParseError(_offset(text, i + 1), "predicate must be an IRI or a placeholder")
        obj = _term(text, lexemes, i + 2)
        patterns.append((subj, pred, obj))
        i += 3
        if lexemes[i] == ".":
            i += 1
            if lexemes[i] == "}":
                break
        elif lexemes[i] == "}":
            break
        else:
            raise ParseError(_offset(text, i), "expected '.' or '}'")
    if lexemes[i + 1]:
        raise ParseError(_offset(text, i + 1), "expected end of query")
    ast = QueryAst(form, tuple(names), tuple(patterns))
    if names:  # an ASK query selects nothing
        pattern_vars = ast.variables()
        for v in names:
            if v not in pattern_vars:
                raise ParseError(0, f"SELECT variable ?{v} does not occur in the pattern")
    return ast


def _term(text: str, lexemes: list[str], i: int) -> Term:
    """The term lexeme ``i`` spells; a ParseError when it spells none."""
    lex = lexemes[i]
    if lex[:1] == "?":
        if lex == "?":
            raise ParseError(_offset(text, i), "malformed variable name")
        return Var(lex[1:])
    if lex == "<":  # no ">" closes this "<" before the next "<" or the end of the text
        start = _offset(text, i)
        raise ParseError(start, "malformed IRI" if text.find(">", start) >= 0 else "expected closing '>'")
    if lex[:1] != "<":
        raise ParseError(_offset(text, i), "expected an IRI, variable, or placeholder term")
    content = lex[1:-1]
    if error := _term_error(content):
        raise ParseError(_offset(text, i), error)
    if content.startswith(PLACEHOLDER_PREFIX):
        return Placeholder(content[len(PLACEHOLDER_PREFIX):])
    return Iri(content)


def _term_error(content: str) -> str | None:
    """The ParseError message for the angle term ``<content>``; None when it is a well-formed IRI or placeholder."""
    if not _TERM.fullmatch(content):
        return "malformed IRI"
    label = content[len(PLACEHOLDER_PREFIX):]
    if content.startswith(PLACEHOLDER_PREFIX) and not _LABEL.match(label):
        return f"malformed placeholder label {label!r}"
    return None


def _offset(text: str, i: int) -> int:
    """Where lexeme ``i`` of ``text`` starts; the end of the text when it has fewer lexemes."""
    m = next(itertools.islice(_LEXEME.finditer(text), i, None), None)
    return len(text) if m is None else m.start()


# An angle term: the lexer reads one wherever this matches, scanning left to right
# (no other lexeme holds a "<"), so the text between the matches lexes the same
# whatever the angle terms hold.
_ANGLE_TERM = re.compile(r"<([^<>]*)>")


def query_checker() -> Callable[[str], tuple[str, ...] | None]:
    """A memoised ``text -> tuple(extract_predicates(parse_query(text)))``, None for a placeholder predicate.

    The memo is keyed by the query's shape: the text outside its angle terms.
    The lexemes outside them are read from the shape alone, and every angle
    term of a query that parses is a subject, predicate or object, so a query
    of a shape that parsed before parses iff each of its angle terms is a
    well-formed IRI or placeholder; its predicates are its angle terms at the
    shape's predicate positions. `parse_query` runs once per new shape, and a
    query that fails the check is parsed again, so it raises the parser's
    ParseError, message and offset. Equal predicate tuples are one object.

    While queries come in a run of one shape, as `generate` writes them,
    each is first matched against the shape's pattern: its text, each angle
    term a `CONCRETE_IRI` group that captures only at predicate positions.
    No text of a shape that parsed holds "<" or ">", so a query that matches
    has that shape, and all its angle terms are well-formed IRIs. A run
    starts when two queries in a row have one shape; the pattern is compiled
    then, once per shape, and a query of another shape ends the run.
    """
    shapes: dict[tuple[str, ...], list] = {}  # shape -> [its predicates' positions among its angle terms, pattern]
    terms: set[str] = set()  # the texts of well-formed angle terms
    predicates: dict[tuple[str, ...], tuple[str, ...] | None] = {}
    previous: list | None = None  # the entry of the shape of the last query that was split
    run: re.Pattern | None = None  # that shape's pattern, while its queries come in a run

    def check(text: str) -> tuple[str, ...] | None:
        nonlocal previous, run
        m = None if run is None else run.fullmatch(text)
        if m is not None:
            preds = m.groups()
        else:
            parts = _ANGLE_TERM.split(text)
            angles = parts[1::2]
            shape = tuple(parts[0::2])
            known = shapes.get(shape)
            if known is None:
                known = shapes[shape] = [_predicate_positions(parse_query(text)), None]
                terms.update(angles)
            elif not terms.issuperset(angles):
                if any(map(_term_error, angles)):
                    parse_query(text)  # raises: every angle term of the shape is a subject, predicate or object
                terms.update(angles)
            if known is previous:
                if known[1] is None:
                    known[1] = _shape_pattern(shape, known[0])
                run = known[1]
            else:
                previous, run = known, None
            preds = tuple([angles[k] for k in known[0]])
        if preds not in predicates:
            predicates[preds] = None if any(p.startswith(PLACEHOLDER_PREFIX) for p in preds) else preds
        return predicates[preds]

    return check


def _shape_pattern(shape: tuple[str, ...], at: tuple[int, ...]) -> re.Pattern:
    """The texts of a shape around `CONCRETE_IRI` angle terms, the terms at positions ``at`` captured."""
    terms = [f"<(?:{CONCRETE_IRI})>"] * (len(shape) - 1)
    for k in at:
        terms[k] = f"<({CONCRETE_IRI})>"
    return re.compile("".join(re.escape(part) + term for part, term in zip(shape, terms)) + re.escape(shape[-1]))


def _predicate_positions(ast: QueryAst) -> tuple[int, ...]:
    """Where the predicates are among the query's IRI and placeholder terms, in text order."""
    places = [place for pattern in ast.patterns for place, term in enumerate(pattern) if type(term) is not Var]
    return tuple(k for k, place in enumerate(places) if place == 1)


def extract_predicates(ast: QueryAst) -> list[str]:
    """Predicate IRIs in textual triple order, duplicates preserved; a placeholder raises PlaceholderPredicate."""
    out: list[str] = []
    for _, pred, _ in ast.patterns:
        if not isinstance(pred, Iri):
            raise PlaceholderPredicate(f"predicate {pred} is not a concrete IRI")
        out.append(pred.value)
    return out


# ---------------------------------------------------------------------------
# NLQ tokenization
# ---------------------------------------------------------------------------

def tokenize_nlq(text: str, words: dict[str, tuple[str, ...]] | None = None) -> tuple[str, ...]:
    """Lowercase, whitespace-split, with trailing ?!. split off as tokens.

    ``<A>``-style slot markers pass through verbatim as single tokens. Generation
    tokenizes entity labels with it too, so a written corpus reads back unchanged.
    Each whitespace-separated word is tokenized on its own, and ``words`` maps
    a word to its tokens: callers that pass one dict to many calls tokenize
    each distinct word once.
    """
    if words is None:
        words = {}
    out: list[str] = []
    for raw in text.split():
        tokens = words.get(raw)
        if tokens is None:
            word = raw.rstrip("?!.") or raw[0]
            head = word if word[0] == "<" and _SLOT_MARKER.match(word) else word.lower()
            tokens = words[raw] = (head, *raw[len(word):])
        out += tokens
    return tuple(out)


# ---------------------------------------------------------------------------
# NLQ patterns and slot matching
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Word:
    token: str

    def __str__(self) -> str:
        return self.token


@dataclass(frozen=True)
class Slot:
    label: str

    def __str__(self) -> str:
        return f"<{self.label}>"


@dataclass(frozen=True)
class NlqPattern:
    """Question pattern: words interleaved with labeled slots."""

    elements: tuple[Word | Slot, ...]

    def __post_init__(self):
        if not any(isinstance(e, Word) for e in self.elements):
            raise PatternError("pattern needs at least one word")
        labels = [e.label for e in self.elements if isinstance(e, Slot)]
        if len(set(labels)) != len(labels):
            raise PatternError("slot labels must be unique within a pattern")
        for a, b in zip(self.elements, self.elements[1:]):
            if isinstance(a, Slot) and isinstance(b, Slot):
                raise AdjacentSlots(f"slots <{a.label}> and <{b.label}> are adjacent")

    @classmethod
    def from_tokens(cls, tokens) -> "NlqPattern":
        elems: list[Word | Slot] = []
        for tok in tokens:
            m = _SLOT_MARKER.match(tok)
            elems.append(Slot(m.group(1)) if m else Word(tok))
        return cls(tuple(elems))

    @classmethod
    def from_text(cls, text: str) -> "NlqPattern":
        return cls.from_tokens(tokenize_nlq(text))

    @cached_property
    def labels(self) -> tuple[str, ...]:
        return tuple(e.label for e in self.elements if isinstance(e, Slot))

    @cached_property
    def runs(self) -> tuple[tuple[str, ...], ...]:
        """The word tokens before, between and after the slots: one run more than there are slots."""
        runs: list[list[str]] = [[]]
        for e in self.elements:
            if isinstance(e, Word):
                runs[-1].append(e.token)
            else:
                runs.append([])
        return tuple(map(tuple, runs))

    @cached_property
    def word_count(self) -> int:
        """The number of literal-word elements."""
        return sum(isinstance(e, Word) for e in self.elements)

    @cached_property
    def words(self) -> frozenset[str]:
        """Case-folded literal words: each must be a case-folded question token for a match."""
        return frozenset(e.token.casefold() for e in self.elements if isinstance(e, Word))

    def marker_text(self) -> str:
        return " ".join(str(e) for e in self.elements)


SlotBindings = dict[str, tuple[int, int]]


def match_nlq(pattern: NlqPattern, nlq) -> SlotBindings | None:
    """Match a question against a pattern; None when it cannot match.

    Words must equal the question tokens (case-folded); each slot absorbs one
    or more contiguous tokens. Among all segmentations the leftmost-shortest
    one wins: scanning left to right, every slot takes the fewest tokens that
    still lets the rest match. Whether the rest matches depends only on the
    (element, position) pair, so a slot records the pairs that failed and never
    retries them: O(elements x tokens^2) in the worst case, not exponential in
    the slot count. The walk keeps its open slots in a list, not on the call
    stack, so a pattern of any length matches.
    """
    elems = pattern.elements
    tokens = list(nlq)
    n = len(tokens)
    m = len(elems)  # every element takes at least one token: prune when fewer tokens are left
    failed: set[tuple[int, int]] = set()
    open_slots: list[list[int]] = []  # [element, start, end] of each slot on the current path
    e = i = 0
    while True:
        while e < m and n - i >= m - e:
            el = elems[e]
            if isinstance(el, Word):
                if tokens[i].casefold() != el.token.casefold():
                    break
            elif (e, i) in failed:
                break
            else:  # the slot takes one token first
                open_slots.append([e, i, i + 1])
            e += 1
            i += 1
        if e == m and i == n:
            # the last slot first: the memorizer's harvest keeps this order
            return {elems[se].label: (start, end) for se, start, end in reversed(open_slots)}
        while open_slots:  # the innermost open slot that can take one more token does
            slot = open_slots[-1]
            se, start, end = slot
            if end < n - (m - se - 1):  # leave a token for each later element
                slot[2] = end + 1
                e, i = se + 1, end + 1
                break
            failed.add((se, start))
            open_slots.pop()
        else:
            return None


def span_tokens(nlq, span: tuple[int, int]) -> tuple[str, ...]:
    return tuple(nlq[span[0]:span[1]])


def substitute_slots(pattern: NlqPattern, slot_tokens: dict[str, tuple[str, ...]]) -> tuple[str, ...]:
    """Question tokens obtained by replacing each slot with its tokens."""
    runs = pattern.runs
    out = list(runs[0])
    for label, run in zip(pattern.labels, runs[1:]):
        out += slot_tokens[label]
        out += run
    return tuple(out)


def predicates_subsequence(template_preds, instance_preds) -> bool:
    """True iff template_preds occurs in order (not necessarily contiguously)."""
    it = iter(instance_preds)
    return all(p in it for p in template_preds)
