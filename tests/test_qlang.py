from __future__ import annotations

import itertools
import random
import signal

import pytest
from hypothesis import given, settings, strategies as st

from splithygiene.errors import AdjacentSlots, ParseError, PatternError, PlaceholderPredicate
from splithygiene.qlang import (
    ASK,
    SELECT_DISTINCT,
    Iri,
    NlqPattern,
    Placeholder,
    QueryAst,
    Slot,
    Var,
    Word,
    extract_predicates,
    match_nlq,
    parse_query,
    predicates_subsequence,
    serialize,
    span_tokens,
    substitute_slots,
    tokenize_nlq,
)
from references import ref_match_nlq, ref_subsequence, ref_tokenize_nlq

DBO_INDUSTRY = "http://dbpedia.org/ontology/industry"
DBR = "http://dbpedia.org/resource/"


# ---------------------------------------------------------------------------
# tokenize_nlq
# ---------------------------------------------------------------------------

def test_tokenize_template_nlq():
    assert tokenize_nlq("Is <B> in the <A> industry?") == (
        "is", "<B>", "in", "the", "<A>", "industry", "?")


def test_tokenize_empty():
    assert tokenize_nlq("") == ()


def test_tokenize_collapses_whitespace():
    assert tokenize_nlq("Peter  Piper   Pizza") == ("peter", "piper", "pizza")


def test_tokenize_splits_each_trailing_punct():
    assert tokenize_nlq("really?!") == ("really", "?", "!")
    assert tokenize_nlq("?") == ("?",)


def test_tokenize_keeps_slot_marker_case():
    assert tokenize_nlq("<A1> stays") == ("<A1>", "stays")


# ---------------------------------------------------------------------------
# parse_query / serialize
# ---------------------------------------------------------------------------

def test_parse_ask_single_triple():
    text = (f"ASK WHERE {{<{DBR}Peter_Piper_Pizza> <{DBO_INDUSTRY}> <{DBR}Pizza>}}")
    ast = parse_query(text)
    assert ast.form == ASK
    assert ast.select_vars == ()
    assert ast.patterns == (
        (Iri(f"{DBR}Peter_Piper_Pizza"), Iri(DBO_INDUSTRY), Iri(f"{DBR}Pizza")),
    )


def test_parse_select_distinct():
    ast = parse_query(f"SELECT DISTINCT ?a, ?b WHERE {{?b <{DBO_INDUSTRY}> ?a}}")
    assert ast.form == SELECT_DISTINCT
    assert ast.select_vars == ("a", "b")
    assert ast.patterns == ((Var("b"), Iri(DBO_INDUSTRY), Var("a")),)


def test_parse_placeholder_terms():
    ast = parse_query(f"ASK WHERE {{ <Placeholder:B> <{DBO_INDUSTRY}> <Placeholder:A> }}")
    assert ast.patterns == ((Placeholder("B"), Iri(DBO_INDUSTRY), Placeholder("A")),)


def test_parse_empty_pattern_rejected():
    with pytest.raises(ParseError):
        parse_query("ASK WHERE { }")


def test_parse_multiple_triples_and_trailing_dot():
    ast = parse_query("ASK WHERE { <a:s> <a:p> ?x . ?x <a:q> <a:o> . }")
    assert len(ast.patterns) == 2


@pytest.mark.parametrize("bad", [
    "SELECT ?a WHERE { ?a <p:x> ?a }",           # missing DISTINCT
    "ASK WHERE { ?s ?p ?o }",                    # variable predicate
    "SELECT DISTINCT ?a WHERE { <x:s> <x:p> <x:o> }",   # unbound select var
    "SELECT DISTINCT ?a, ?a WHERE { ?a <x:p> ?a }",     # duplicate select var
    "ASK WHERE { <x:s> <x:p> \"lit\" }",         # literal term
    "ASK WHERE { <x:s> <x:p> <x:o> } extra",     # trailing junk
    "ASK WHERE { OPTIONAL { <x:s> <x:p> <x:o> } }",
    "SELECT DISTINCT ?a WHERE { ?a <x:p> ?b FILTER(?b) }",
    "ASK WHERE { <x:s> <x:p> <x:o> UNION <x:s> <x:p> <x:o> }",
    "ask where { <x:s> <x:p> <x:o> }",           # keywords are uppercase
])
def test_parse_rejects_out_of_subset(bad):
    with pytest.raises(ParseError):
        parse_query(bad)


def test_parse_error_carries_position():
    try:
        parse_query("ASK WHERE { <x:s> ?p <x:o> }")
    except ParseError as exc:
        assert exc.position == 18
        assert "predicate" in exc.message
    else:
        pytest.fail("expected ParseError")


def _terms(var_ok=True):
    opts = [st.builds(Iri, st.sampled_from([f"u:{c}" for c in "abcdef"])),
            st.builds(Placeholder, st.sampled_from(["A", "B", "C"]))]
    if var_ok:
        opts.append(st.builds(Var, st.sampled_from(["x", "y", "z"])))
    return st.one_of(opts)


_patterns = st.tuples(_terms(), _terms(var_ok=False), _terms())


@st.composite
def _asts(draw):
    patterns = draw(st.lists(_patterns, min_size=1, max_size=4).map(tuple))
    variables = sorted({t.name for p in patterns for t in p if isinstance(t, Var)})
    if variables and draw(st.booleans()):
        n = draw(st.integers(1, len(variables)))
        return QueryAst(SELECT_DISTINCT, tuple(variables[:n]), patterns)
    return QueryAst(ASK, (), patterns)


@settings(max_examples=300, deadline=None)
@given(_asts())
def test_parser_round_trip(ast):
    assert parse_query(serialize(ast)) == ast


@pytest.mark.parametrize("text, position, message", [
    ("ASKWHERE { <e:s> <p:p> <e:o> }", 0, "expected ASK"),
    ("SELECT DISTINCT ?x, ?yWHERE { ?x <p:p> ?y }", 28, "expected WHERE"),
])
def test_a_keyword_needs_a_boundary_and_a_variable_name_is_greedy(text, position, message):
    with pytest.raises(ParseError) as err:
        parse_query(text)
    assert (err.value.position, err.value.message) == (position, message)


def test_parse_query_reads_the_pattern_variables_only_for_a_select_list(monkeypatch):
    forms = []
    variables = QueryAst.variables
    monkeypatch.setattr(QueryAst, "variables", lambda ast: forms.append(ast.form) or variables(ast))
    assert parse_query("ASK WHERE { ?x <p:p> ?y }").form == ASK
    assert forms == []
    assert parse_query("SELECT DISTINCT ?x WHERE { ?x <p:p> ?y }").select_vars == ("x",)
    with pytest.raises(ParseError, match=r"SELECT variable \?z does not occur"):
        parse_query("SELECT DISTINCT ?x, ?z WHERE { ?x <p:p> ?y }")
    assert forms == [SELECT_DISTINCT, SELECT_DISTINCT]


def test_parses_that_share_a_terms_dict_share_equal_terms():
    terms = {}
    first = parse_query("SELECT DISTINCT ?x WHERE { ?x <p:p> <Placeholder:A> }", terms)
    second = parse_query("ASK WHERE { <e:s> <p:p> ?x . ?x <p:p> <Placeholder:A> }", terms)
    assert second.patterns[0][1] is second.patterns[1][1] is first.patterns[0][1]
    assert second.patterns[1][0] is first.patterns[0][0]
    assert second.patterns[1][2] is first.patterns[0][2]


def _raise_timeout(signum, frame):
    raise TimeoutError("took longer than 2 s")


_LONG = 80_000


@pytest.mark.parametrize("text, position, message", [
    ("<" * _LONG, 0, "expected SELECT"),
    ("ASK WHERE { " + "<" * _LONG, 12, "expected closing '>'"),
    ("ASK WHERE { " + "<" * _LONG + ">", 12, "malformed IRI"),
    ("SELECT DISTINCT " + "?" * _LONG, 16, "malformed variable name"),
    ("ASK WHERE { <" + " " * _LONG, 12, "expected closing '>'"),
    ("ASK WHERE { <e:s> <p:p> <e:o> }" + " " * _LONG, None, None),
], ids=["lt-run", "lt-run-as-term", "lt-run-then-gt", "qmark-run", "lt-then-spaces", "valid-then-spaces"])
def test_parse_cost_is_linear_in_the_line_length(text, position, message):
    # an angle-term lexeme that may contain "<" rescans to the end of the line
    # from every "<": about 17 s on the run of "<" above
    previous = signal.signal(signal.SIGALRM, _raise_timeout)
    signal.setitimer(signal.ITIMER_REAL, 2.0)
    try:
        if position is None:
            assert parse_query(text).patterns == ((Iri("e:s"), Iri("p:p"), Iri("e:o")),)
        else:
            with pytest.raises(ParseError) as err:
                parse_query(text)
            assert (err.value.position, err.value.message) == (position, message)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# ---------------------------------------------------------------------------
# extract_predicates
# ---------------------------------------------------------------------------

def test_extract_predicates_single():
    ast = parse_query(
        f"ASK WHERE {{<{DBR}Robot_Comics> <{DBO_INDUSTRY}> <{DBR}Publishing>}}")
    assert extract_predicates(ast) == [DBO_INDUSTRY]


def test_extract_predicates_keeps_order_and_duplicates():
    ast = parse_query("ASK WHERE { <e:1> <p:P> <e:2> . <e:2> <p:P> <e:3> }")
    assert extract_predicates(ast) == ["p:P", "p:P"]
    ast2 = parse_query("ASK WHERE { <e:1> <p:P> <e:2> . <e:2> <p:Q> <e:3> }")
    assert extract_predicates(ast2) == ["p:P", "p:Q"]


def test_extract_predicates_placeholder():
    ast = parse_query("ASK WHERE { <e:1> <Placeholder:A> <e:2> . <e:2> <p:Q> <e:3> }")
    with pytest.raises(PlaceholderPredicate):
        extract_predicates(ast)
    assert extract_predicates(ast, skip_placeholders=True) == ["p:Q"]


# ---------------------------------------------------------------------------
# NlqPattern validation
# ---------------------------------------------------------------------------

def test_pattern_rejects_adjacent_slots():
    with pytest.raises(AdjacentSlots):
        NlqPattern.from_text("is <A> <B> here")


def test_pattern_rejects_all_slots_and_duplicate_labels():
    with pytest.raises(PatternError):
        NlqPattern((Slot("A"),))
    with pytest.raises(PatternError):
        NlqPattern((Word("w"), Slot("A"), Word("v"), Slot("A")))


# ---------------------------------------------------------------------------
# match_nlq
# ---------------------------------------------------------------------------

def _tokens(pattern, nlq, bindings):
    return {label: span_tokens(nlq, span) for label, span in bindings.items()}


def test_match_template_against_instance_nlq():
    pattern = NlqPattern.from_text("is <B> in the <A> industry ?")
    nlq = tokenize_nlq("Is robot comics in the publishing industry?")
    bindings = match_nlq(pattern, nlq)
    assert _tokens(pattern, nlq, bindings) == {
        "B": ("robot", "comics"), "A": ("publishing",)}


def test_match_slot_free_pattern():
    pattern = NlqPattern.from_text("who created swift ?")
    assert match_nlq(pattern, tokenize_nlq("Who created Swift?")) == {}


def test_match_failure_returns_none():
    pattern = NlqPattern.from_text("is <B> in the <A> industry ?")
    assert match_nlq(pattern, tokenize_nlq("who created swift ?")) is None


def test_match_leftmost_shortest():
    pattern = NlqPattern.from_text("x <A> y <B> z")
    nlq = ("x", "a", "y", "b", "y", "c", "z")
    expected = ref_match_nlq(pattern, nlq)
    bindings = match_nlq(pattern, nlq)
    assert bindings == expected
    assert _tokens(pattern, nlq, bindings) == {"A": ("a",), "B": ("b", "y", "c")}


def test_match_requires_full_token_match():
    pattern = NlqPattern.from_text("is <B> in the <A> industry ?")
    assert match_nlq(pattern, tokenize_nlq("Is robot comics in the publishing industry")) is None


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_match_soundness_on_synthesized_questions(data):
    words = ["w1", "w2", "w3"]
    n_slots = data.draw(st.integers(1, 3))
    labels = ["A", "B", "C"][:n_slots]
    parts = [data.draw(st.sampled_from(words))]
    for label in labels:
        parts.append(f"<{label}>")
        parts.append(data.draw(st.sampled_from(words)))
    pattern = NlqPattern.from_text(" ".join(parts))
    fills = {
        label: tuple(data.draw(st.lists(st.sampled_from(words + ["q1", "q2"]),
                                        min_size=1, max_size=3)))
        for label in labels
    }
    nlq = substitute_slots(pattern, fills)
    bindings = match_nlq(pattern, nlq)
    assert bindings is not None
    rebuilt = substitute_slots(pattern, _tokens(pattern, nlq, bindings))
    assert rebuilt == nlq


def _all_patterns(max_slots, max_words):
    """Every pattern shape over words {x, y} with up to max_slots slots."""
    shapes = []
    alphabet = ["x", "y"]
    for length in range(1, max_words + max_slots + 1):
        for combo in itertools.product(alphabet + ["A", "B", "C"], repeat=length):
            slots = [c for c in combo if c in ("A", "B", "C")]
            if len(slots) > max_slots or len(set(slots)) != len(slots):
                continue
            if len(slots) == length:  # needs at least one word
                continue
            if any(a in ("A", "B", "C") and b in ("A", "B", "C")
                   for a, b in zip(combo, combo[1:])):
                continue
            ordered = [s for s in combo if s in ("A", "B", "C")]
            if ordered != sorted(ordered):  # canonical label order, avoids relabelings
                continue
            shapes.append(NlqPattern.from_tokens(
                tok if tok in alphabet else f"<{tok}>" for tok in combo))
    return shapes


def test_match_equals_enumeration_exhaustive_small():
    patterns = _all_patterns(max_slots=2, max_words=3)
    alphabet = ("x", "y", "z")
    checked = 0
    for pattern in patterns:
        for n in range(0, 7):
            for nlq in itertools.product(alphabet, repeat=n):
                assert match_nlq(pattern, nlq) == ref_match_nlq(pattern, nlq)
                checked += 1
    assert checked > 100_000


def _many_slot_pattern(rnd, n_slots):
    """Slots separated by single words drawn mostly from one repeated token."""
    parts = [rnd.choice(("x", "x", "y"))] if rnd.random() < 0.5 else []
    for k in range(n_slots):
        parts += [f"<S{k}>", rnd.choice(("x", "x", "y"))]
    if rnd.random() < 0.5:
        parts.pop()  # end on a slot
    return NlqPattern.from_tokens(parts)


def test_match_equals_enumeration_random_to_12_tokens():
    rnd = random.Random(4242)
    patterns = _all_patterns(max_slots=3, max_words=4)
    for _ in range(4000):
        pattern = rnd.choice(patterns)
        n = rnd.randrange(0, 13)
        nlq = tuple(rnd.choice(("x", "y", "z")) for _ in range(n))
        assert match_nlq(pattern, nlq) == ref_match_nlq(pattern, nlq)
    for _ in range(1500):  # 4-5 slots over repeated tokens: many failed (element, position) retries
        pattern = _many_slot_pattern(rnd, rnd.choice((4, 5)))
        n = rnd.randrange(4, 13)
        nlq = tuple(rnd.choice(("x", "x", "x", "y", "z")) for _ in range(n))
        assert match_nlq(pattern, nlq) == ref_match_nlq(pattern, nlq)


def test_match_walks_a_5000_word_pattern_without_recursing():
    words = [f"w{i}" for i in range(5000)]
    pattern = NlqPattern.from_tokens(["<A>", *words, "<B>", "?"])
    nlq = ("the", "first", *words, "last", "one", "?")
    assert match_nlq(pattern, nlq) == {"A": (0, 2), "B": (5002, 5004)}
    assert match_nlq(pattern, nlq[:-1]) is None
    slots = NlqPattern.from_tokens([t for k in range(2500) for t in (f"<S{k}>", "x")])  # 2,500 slots
    assert match_nlq(slots, ("y", "x") * 2500) == {f"S{k}": (2 * k, 2 * k + 1) for k in range(2500)}


def test_match_cost_is_polynomial_in_the_slot_count():
    # 9 slots and a final word that never matches: a matcher without memory of
    # failed (element, position) pairs tries every segmentation, about C(40, 9)
    slots = NlqPattern.from_tokens([t for k in range(9) for t in (f"<S{k}>", "a")] + ["zzz"])
    previous = signal.signal(signal.SIGALRM, _raise_timeout)
    signal.setitimer(signal.ITIMER_REAL, 2.0)
    try:
        assert match_nlq(slots, ("a",) * 40) is None
        assert match_nlq(slots, ("a",) * 39 + ("zzz",))["S8"] == (16, 38)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@settings(max_examples=200, deadline=None)
@given(texts=st.lists(st.lists(st.sampled_from(["Is", "is", "IS?", "<A>", "<A>.", "<a>", "x.", "?!", ".", "ß",
                                                "ǅ!", "İ", "<B1>?", "<>"]), max_size=6).map(" ".join),
                      max_size=10))
def test_tokenize_with_a_shared_word_memo_equals_the_reference(texts):
    words: dict[str, tuple[str, ...]] = {}
    assert [tokenize_nlq(text, words) for text in texts] == [ref_tokenize_nlq(text) for text in texts]
    assert all(words[raw] == ref_tokenize_nlq(raw) for raw in words)


# ---------------------------------------------------------------------------
# predicates_subsequence
# ---------------------------------------------------------------------------

def test_subsequence_basics():
    assert predicates_subsequence(["P"], ["P"]) is True
    assert predicates_subsequence([], ["anything", "at", "all"]) is True
    assert predicates_subsequence([], []) is True
    expected = ref_subsequence(["P", "Q"], ["Q", "P"])
    assert expected is False
    assert predicates_subsequence(["P", "Q"], ["Q", "P"]) is False


def test_subsequence_matches_brute_force_up_to_len6():
    symbols = ["P", "Q", "R"]
    for la in range(0, 4):
        for lb in range(0, 7):
            for a in itertools.product(symbols, repeat=la):
                for b in itertools.product(symbols, repeat=lb):
                    assert predicates_subsequence(list(a), list(b)) == ref_subsequence(a, b)
