"""Question tokenization, a small formal-query language, and pattern matching.

The formal-query subset covers exactly two forms over a basic graph pattern:

    ASK WHERE { <s> <p> <o> . ... }
    SELECT DISTINCT ?a, ?b WHERE { ... }

Terms are IRIs in angle brackets, ``?var`` variables, or ``<Placeholder:A>``
markers standing for a not-yet-bound entity. Anything else (OPTIONAL, FILTER,
UNION, literals) is rejected with a ParseError carrying the offset. One
compiled regex accepts a well-formed query in a single match; a character
scanner runs only on the text it declines, and names the offset of the error.

Question (NLQ) patterns interleave lowercased word tokens with labeled slots
written ``<A>``; a slot matches one or more contiguous question tokens.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property

from .errors import AdjacentSlots, ParseError, PatternError, PlaceholderPredicate

ASK = "ask"
SELECT_DISTINCT = "select_distinct"

_SLOT_MARKER = re.compile(r"<([A-Z][A-Z0-9]*)>\Z")
_VAR_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_LABEL = re.compile(r"[A-Z][A-Z0-9]*\Z")
_SENTENCE_PUNCT = ("?", "!", ".")


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
        return f"<Placeholder:{self.label}>"


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

    def placeholder_labels(self) -> tuple[str, ...]:
        seen: list[str] = []
        for p in self.patterns:
            for t in p:
                if isinstance(t, Placeholder) and t.label not in seen:
                    seen.append(t.label)
        return tuple(seen)

    def has_placeholders(self) -> bool:
        return any(isinstance(t, Placeholder) for p in self.patterns for t in p)


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

class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def fail(self, expected: str) -> ParseError:
        return ParseError(self.pos, f"expected {expected}")

    def keyword(self, word: str) -> None:
        self.skip_ws()
        if not self.text.startswith(word, self.pos):
            raise self.fail(word)
        end = self.pos + len(word)
        if end < len(self.text) and (self.text[end].isalnum() or self.text[end] == "_"):
            raise self.fail(word)
        self.pos = end

    def char(self, ch: str) -> None:
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            raise self.fail(f"'{ch}'")
        self.pos += 1

    def angle_term(self) -> Iri | Placeholder:
        self.skip_ws()
        start = self.pos
        if self.peek() != "<":
            raise self.fail("'<'")
        end = self.text.find(">", start + 1)
        if end < 0:
            raise self.fail("closing '>'")
        content = self.text[start + 1:end]
        if not content or any(c in content for c in "<{}") or any(c.isspace() for c in content):
            raise ParseError(start, "malformed IRI")
        self.pos = end + 1
        if content.startswith("Placeholder:"):
            label = content[len("Placeholder:"):]
            if not _LABEL.match(label):
                raise ParseError(start, f"malformed placeholder label {label!r}")
            return Placeholder(label)
        return Iri(content)

    def variable(self) -> Var:
        self.skip_ws()
        start = self.pos
        if self.peek() != "?":
            raise self.fail("'?'")
        m = _VAR_NAME.match(self.text, start + 1)
        if not m:
            raise ParseError(start, "malformed variable name")
        self.pos = m.end()
        return Var(m.group(0))

    def term(self) -> Term:
        ch = self.peek()
        if ch == "<":
            return self.angle_term()
        if ch == "?":
            return self.variable()
        raise self.fail("an IRI, variable, or placeholder term")


# The supported subset is a regular language, so one compiled regex accepts it.
# \s is str.isspace() and \w is str.isalnum() or "_" on every code point, so
# _QUERY skips the scanner's whitespace and keeps its keyword boundaries: ASK
# and SELECT must not run into a word character ("ASKWHERE" is no query), while
# DISTINCT and WHERE are followed by "?" or "{". A variable name is greedy
# ("?yWHERE" is one name), text after "<Placeholder:" is a label, never an IRI,
# and a pattern ends at a "." or right before the closing "}".
_VAR = r"\?[A-Za-z_][A-Za-z0-9_]*(?![A-Za-z0-9_])"
_ANGLE = r"<(?:Placeholder:[A-Z][A-Z0-9]*|(?!Placeholder:)[^<>{}\s]+)>"
_TRIPLE = rf"(?:{_ANGLE}|{_VAR})\s*{_ANGLE}\s*(?:{_ANGLE}|{_VAR})"
_QUERY = re.compile(
    rf"\s*(?:ASK(?!\w)|SELECT(?!\w)\s*DISTINCT(?P<head>\s*{_VAR}(?:\s*,\s*{_VAR})*))"
    rf"\s*WHERE\s*\{{(?P<body>(?:\s*{_TRIPLE}\s*(?:\.|(?=\}})))+)\s*\}}\s*"
)
# in a head or body that _QUERY accepted, only terms contain "<" or "?"
_TERM = re.compile(r"<[^>]*>|\?[A-Za-z0-9_]+")


def parse_query(text: str, terms: dict[str, Term] | None = None) -> QueryAst:
    """Parse a query in the supported subset; raise ParseError otherwise.

    ``terms`` maps a term's text to its term object. Callers that pass one
    dict to many calls get one shared object for each distinct term.
    """
    ast = _accept(text, {} if terms is None else terms)
    return _scan(text) if ast is None else ast


def _accept(text: str, terms: dict[str, Term]) -> QueryAst | None:
    """The AST of a well-formed query, or None; the scanner names the error of the rest."""
    m = _QUERY.fullmatch(text)
    if m is None:
        return None
    get = terms.get
    flat = [get(t) or _new_term(terms, t) for t in _TERM.findall(m["body"])]
    patterns = tuple(zip(flat[0::3], flat[1::3], flat[2::3]))
    if m["head"] is None:
        return QueryAst(ASK, (), patterns)
    names = tuple(v[1:] for v in _TERM.findall(m["head"]))
    if len(set(names)) != len(names) or not {t.name for t in flat if type(t) is Var}.issuperset(names):
        return None
    return QueryAst(SELECT_DISTINCT, names, patterns)


def _new_term(terms: dict[str, Term], text: str) -> Term:
    if text[0] == "?":
        term = Var(text[1:])
    elif text.startswith("<Placeholder:"):
        term = Placeholder(text[len("<Placeholder:"):-1])
    else:
        term = Iri(text[1:-1])
    terms[text] = term
    return term


def _scan(text: str) -> QueryAst:
    """Parse character by character, raising a ParseError at the offset where the text leaves the subset."""
    sc = _Scanner(text)
    select_vars: tuple[str, ...] = ()
    if sc.peek() == "A":
        sc.keyword("ASK")
        form = ASK
    else:
        sc.keyword("SELECT")
        sc.keyword("DISTINCT")
        names: list[str] = []
        names.append(sc.variable().name)
        while sc.peek() == ",":
            sc.char(",")
            names.append(sc.variable().name)
        if len(set(names)) != len(names):
            raise ParseError(sc.pos, "duplicate variable in SELECT list")
        form = SELECT_DISTINCT
        select_vars = tuple(names)
    sc.keyword("WHERE")
    sc.char("{")
    patterns: list[TriplePattern] = []
    if sc.peek() == "}":
        raise sc.fail("at least one triple pattern")
    while True:
        subj = sc.term()
        sc.skip_ws()
        pred_pos = sc.pos
        pred = sc.term()
        if isinstance(pred, Var):
            raise ParseError(pred_pos, "predicate must be an IRI or a placeholder")
        obj = sc.term()
        patterns.append((subj, pred, obj))
        if sc.peek() == ".":
            sc.char(".")
            if sc.peek() == "}":
                break
            continue
        if sc.peek() == "}":
            break
        raise sc.fail("'.' or '}'")
    sc.char("}")
    if not sc.at_end():
        raise sc.fail("end of query")
    ast = QueryAst(form=form, select_vars=select_vars, patterns=tuple(patterns))
    pattern_vars = ast.variables()
    for v in select_vars:
        if v not in pattern_vars:
            raise ParseError(0, f"SELECT variable ?{v} does not occur in the pattern")
    return ast


def extract_predicates(ast: QueryAst, skip_placeholders: bool = False) -> list[str]:
    """Predicate IRIs in textual triple order, duplicates preserved.

    Placeholder predicates raise PlaceholderPredicate unless
    ``skip_placeholders`` is set, in which case their patterns are dropped.
    """
    out: list[str] = []
    for _, pred, _ in ast.patterns:
        if isinstance(pred, Iri):
            out.append(pred.value)
        elif skip_placeholders:
            continue
        else:
            raise PlaceholderPredicate(f"predicate {pred} is not a concrete IRI")
    return out


# ---------------------------------------------------------------------------
# NLQ tokenization
# ---------------------------------------------------------------------------

def tokenize_nlq(text: str) -> tuple[str, ...]:
    """Lowercase, whitespace-split, with trailing ?!. split off as tokens.

    ``<A>``-style slot markers pass through verbatim as single tokens.
    """
    out: list[str] = []
    for raw in text.split():
        if raw[-1] not in _SENTENCE_PUNCT:  # nothing to split off
            out.append(raw if raw[0] == "<" and _SLOT_MARKER.match(raw) else raw.lower())
            continue
        trailing: list[str] = []
        while len(raw) > 1 and raw[-1] in _SENTENCE_PUNCT and not _SLOT_MARKER.match(raw):
            trailing.append(raw[-1])
            raw = raw[:-1]
        out.append(raw if _SLOT_MARKER.match(raw) else raw.lower())
        out.extend(reversed(trailing))
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

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(e.label for e in self.elements if isinstance(e, Slot))

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
    the slot count.
    """
    elems = pattern.elements
    tokens = list(nlq)
    n = len(tokens)
    m = len(elems)  # every element takes at least one token: prune when fewer tokens are left
    bindings: SlotBindings = {}
    failed: set[tuple[int, int]] = set()

    def walk(e: int, i: int) -> bool:
        if e == m:
            return i == n
        if n - i < m - e:
            return False
        el = elems[e]
        if isinstance(el, Word):
            if tokens[i].casefold() != el.token.casefold():
                return False
            return walk(e + 1, i + 1)
        if (e, i) in failed:
            return False
        for end in range(i + 1, n - (m - e - 1) + 1):  # leave a token for each later element
            if walk(e + 1, end):
                bindings[el.label] = (i, end)
                return True
        failed.add((e, i))
        return False

    if not walk(0, 0):
        return None
    return bindings


def span_tokens(nlq, span: tuple[int, int]) -> tuple[str, ...]:
    return tuple(nlq[span[0]:span[1]])


def substitute_slots(pattern: NlqPattern, slot_tokens: dict[str, tuple[str, ...]]) -> tuple[str, ...]:
    """Question tokens obtained by replacing each slot with its tokens."""
    out: list[str] = []
    for e in pattern.elements:
        if isinstance(e, Word):
            out.append(e.token)
        else:
            out.extend(slot_tokens[e.label])
    return tuple(out)


def predicates_subsequence(template_preds, instance_preds) -> bool:
    """True iff template_preds occurs in order (not necessarily contiguously)."""
    it = iter(instance_preds)
    return all(p in it for p in template_preds)
