from __future__ import annotations

import random
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import PIZZA_SEED_QUERY, INDUSTRY_TEMPLATE_QUERY
from splithygiene import corpus, kgstore
from splithygiene.errors import InputFileError, UnboundVariable
from splithygiene.qlang import ASK, Iri, Placeholder, QueryAst, Var, parse_query
from references import ref_eval, ref_load_ntriples

DBR = "http://dbpedia.org/resource/"
DBO_INDUSTRY = "http://dbpedia.org/ontology/industry"


# ---------------------------------------------------------------------------
# load_ntriples
# ---------------------------------------------------------------------------

def test_load_single_triple(tmp_path):
    path = tmp_path / "g.nt"
    path.write_text(f"<{DBR}Peter_Piper_Pizza> <{DBO_INDUSTRY}> <{DBR}Pizza> .\n")
    graph = kgstore.load_ntriples(path)
    assert len(graph) == 1
    assert (f"{DBR}Peter_Piper_Pizza", DBO_INDUSTRY, f"{DBR}Pizza") in graph.triples


def test_load_duplicate_lines_collapse(tmp_path):
    path = tmp_path / "g.nt"
    line = "<e:s> <p:p> <e:o> .\n"
    path.write_text(line + line)
    assert len(kgstore.load_ntriples(path)) == 1


def test_load_holds_one_str_per_distinct_iri(tmp_path):
    path = tmp_path / "g.nt"
    path.write_text("<e:a> <p:p> <e:b> .\n<e:b> <p:p> <e:a> .\n<e:a> <p:q> <e:a> .\n<e:b> <p:p> <e:a> .\n")
    terms = [term for triple in kgstore.load_ntriples(path).triples for term in triple]
    assert len(terms) == 9
    assert len({id(term) for term in terms}) == len(set(terms)) == 4


def test_load_skips_literals_and_counts(tmp_path):
    path = tmp_path / "g.nt"
    path.write_text(
        '<e:s> <p:p> "a literal" .\n'
        "<e:s> <p:p> <e:o1> .\n"
        "<e:s> <p:p> <e:o2> .\n"
    )
    graph = kgstore.load_ntriples(path)
    assert len(graph) == 2
    assert graph.load_report.skipped_literals == 1
    assert graph.load_report.malformed_lines == ()


def test_load_collects_malformed_lines(tmp_path):
    path = tmp_path / "g.nt"
    path.write_text(
        "# a comment\n"
        "\n"
        "not a triple at all\n"
        "<e:s> <p:p> <e:o> .\n"
        "<e:s> <p:p> missing_brackets .\n"
        "<e:s> <p:p> <e:{o}> .\n"  # braces: an IRI no query can write
        "<e:{s}> <p:p> <e:o2> .\n"
        "<Placeholder:A> <p:p> <e:o> .\n"  # a placeholder's spelling: a query reads it back as no IRI
        "<e:s> <Placeholder:P> <e:o> .\n"
        "<e:s> <p:p> <Placeholder:B> .\n"
        "<e:s> <p:p> <e:Placeholder:C> .\n"
        "<e:s> <p:p> <placeholder:D> .\n"
    )
    graph = kgstore.load_ntriples(path)
    assert len(graph) == 3
    assert graph.load_report.malformed_lines == (3, 5, 6, 7, 8, 9, 10)


_TRIPLE = b"<e:s> <p:p> <e:o> ."
_BAD_TRIPLE = b"<e:s\xff> <p:p> <e:o> ."


@pytest.mark.parametrize("data, line", [
    (b"\n".join([_TRIPLE, b"# a comment", _BAD_TRIPLE, b""]), 3),
    (b"\r\n".join([_TRIPLE, b"# a comment", _BAD_TRIPLE, b""]), 3),
    (b"\r".join([_TRIPLE, b"# a comment", _BAD_TRIPLE, b""]), 3),
    # the streaming decoder fails in a later chunk, whose offsets are not the file's
    ((_TRIPLE + b"\r\n") * 5000 + _BAD_TRIPLE, 5001),
], ids=["LF", "CRLF", "CR", "CRLF past the first chunk"])
def test_non_utf8_graph_names_the_line(tmp_path, data, line):
    path = tmp_path / "g.nt"
    path.write_bytes(data)
    with pytest.raises(InputFileError, match="not UTF-8") as err:
        kgstore.load_ntriples(path)
    assert str(err.value).startswith(f"{path}:{line}: ")


_NT_TERMS = st.sampled_from(["<e:s>", "<e:o>", "<p:p>", "<e:caf\u00e9>", "<Placeholder:A>", '"a literal"', "_:b0"])
_NT_LINES = st.one_of(
    st.tuples(_NT_TERMS, _NT_TERMS, _NT_TERMS, st.sampled_from([" .", ".", " . ", "", " . # note"])).map(
        lambda t: " ".join(t[:3]) + t[3]),
    st.sampled_from(["", "  ", "# a comment", "  # indented", "\t<e:s> <p:p> <e:o> .", "<e:s> <p:p>"]),
    st.text(st.sampled_from("<>e:sp .#\"\x0b\x0c\x85\u2028\u00e9"), max_size=12),
)


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(st.tuples(_NT_LINES, st.sampled_from(["\n", "\r", "\r\n"])), max_size=12),
       final_end=st.booleans(), pad=st.sampled_from([None, -2, -1, 0, 1]),
       bad=st.one_of(st.none(), st.tuples(st.integers(0, 10**6), st.sampled_from([b"\xff", b"\x80", b"\xc3"]))),
       block=st.sampled_from([1, 2, 3, 7, 64, corpus.BLOCK]))
def test_load_ntriples_equals_the_universal_newline_reader(tmp_path_factory, lines, final_end, pad, bad, block):
    # the file's lines, the load report and a UTF-8 fault's path:line message are those of the reader that
    # iterated the file with universal newlines, whatever block size it is read in; at the full block size, `pad`
    # starts the file with a comment whose CRLF starts `pad` characters before the end of the first block, so at
    # -1 the CRLF straddles two blocks
    text = "".join(line + end for line, end in lines)
    if lines and not final_end:
        text = text[:-len(lines[-1][1])]
    if pad is not None and block == corpus.BLOCK:
        text = "#" + "x" * (corpus.BLOCK + pad - 1) + "\r\n" + text
    data = text.encode("utf-8")
    if bad is not None:
        at, byte = bad
        at %= len(data) + 1
        data = data[:at] + byte + data[at:]
    path = tmp_path_factory.mktemp("nt") / "g.nt"
    path.write_bytes(data)
    try:
        expected = ref_load_ntriples(path)
    except InputFileError as exc:
        expected = str(exc)
    with mock.patch.object(corpus, "BLOCK", block):
        try:
            graph = kgstore.load_ntriples(path)
            got = (set(graph.triples), graph.load_report.skipped_literals, graph.load_report.malformed_lines)
        except InputFileError as exc:
            got = str(exc)
    assert got == expected


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def _graph(*triples):
    return kgstore.Graph(triples)


def test_ask_true_on_matching_graph():
    graph = _graph((f"{DBR}Peter_Piper_Pizza", DBO_INDUSTRY, f"{DBR}Pizza"))
    assert kgstore.evaluate(graph, parse_query(PIZZA_SEED_QUERY)) is True


def test_ask_false_on_empty_graph():
    assert kgstore.evaluate(_graph(), parse_query(PIZZA_SEED_QUERY)) is False


def test_select_rows_on_three_triple_graph():
    triples = [
        (f"{DBR}Peter_Piper_Pizza", DBO_INDUSTRY, f"{DBR}Pizza"),
        (f"{DBR}Robot_Comics", DBO_INDUSTRY, f"{DBR}Publishing"),
        (f"{DBR}Tiger_Aircraft", DBO_INDUSTRY, f"{DBR}Aerospace"),
    ]
    ast = parse_query(INDUSTRY_TEMPLATE_QUERY)
    rows = kgstore.evaluate(_graph(*triples), ast)
    assert rows == ref_eval(triples, ast)
    assert len(rows) == 3
    assert {(r["a"], r["b"]) for r in rows} == {(o, s) for s, _, o in triples}


def test_select_distinct_deduplicates():
    triples = [("e:s1", "p:p", "e:o"), ("e:s2", "p:p", "e:o")]
    ast = parse_query("SELECT DISTINCT ?o WHERE { ?s <p:p> ?o }")
    assert kgstore.evaluate(_graph(*triples), ast) == [{"o": "e:o"}]


def test_row_order_is_lexicographic():
    triples = [("e:s2", "p:p", "e:o2"), ("e:s1", "p:p", "e:o1"), ("e:s3", "p:p", "e:o0")]
    ast = parse_query("SELECT DISTINCT ?o, ?s WHERE { ?s <p:p> ?o }")
    rows = kgstore.evaluate(_graph(*triples), ast)
    assert rows == sorted(rows, key=lambda r: (r["o"], r["s"]))


def test_evaluate_rejects_placeholders():
    ast = parse_query("ASK WHERE { <Placeholder:A> <p:p> <e:o> }")
    with pytest.raises(ValueError):
        kgstore.evaluate(_graph(("e:s", "p:p", "e:o")), ast)


def test_unbound_select_variable():
    ast = QueryAst("select_distinct", ("ghost",), ((Var("s"), Iri("p:p"), Var("o")),))
    with pytest.raises(UnboundVariable):
        kgstore.evaluate(_graph(("e:s", "p:p", "e:o")), ast)


def _random_case(rnd: random.Random):
    entities = [f"e:{i}" for i in range(rnd.randrange(3, 10))]
    preds = [f"p:{i}" for i in range(rnd.randrange(1, 4))]
    triples = {(rnd.choice(entities), rnd.choice(preds), rnd.choice(entities))
               for _ in range(rnd.randrange(1, 200))}
    variables = ["x", "y", "z", "w"]
    patterns = []
    for _ in range(rnd.randrange(1, 4)):
        s = rnd.choice([Var(rnd.choice(variables)), Iri(rnd.choice(entities))])
        p = Iri(rnd.choice(preds))
        o = rnd.choice([Var(rnd.choice(variables)), Iri(rnd.choice(entities))])
        patterns.append((s, p, o))
    pattern_vars = sorted({t.name for pat in patterns for t in pat if isinstance(t, Var)})
    if pattern_vars and rnd.random() < 0.7:
        k = rnd.randrange(1, len(pattern_vars) + 1)
        ast = QueryAst("select_distinct", tuple(rnd.sample(pattern_vars, k)), tuple(patterns))
    else:
        ast = QueryAst(ASK, (), tuple(patterns))
    return sorted(triples), ast


def test_evaluate_matches_nested_loop_reference():
    rnd = random.Random(99)
    for _ in range(200):
        triples, ast = _random_case(rnd)
        assert kgstore.evaluate(kgstore.Graph(triples), ast) == ref_eval(triples, ast)


def _random_variable_predicate_case(rnd: random.Random):
    """Like `_random_case`, but predicates are often variables, and predicate IRIs
    also occur as subjects and objects, so a variable shared between the
    predicate and the subject or object position can match."""
    nodes = [f"n:{i}" for i in range(rnd.randrange(2, 7))]
    preds = nodes[:rnd.randrange(1, 4)]
    triples = {(rnd.choice(nodes), rnd.choice(preds), rnd.choice(nodes))
               for _ in range(rnd.randrange(1, 40))}
    variables = ["x", "y", "z"]
    patterns = []
    for _ in range(rnd.randrange(1, 4)):
        s = rnd.choice([Var(rnd.choice(variables)), Iri(rnd.choice(nodes))])
        p = Var(rnd.choice(variables)) if rnd.random() < 0.6 else Iri(rnd.choice(preds))
        o = rnd.choice([Var(rnd.choice(variables)), Iri(rnd.choice(nodes))])
        patterns.append((s, p, o))
    pattern_vars = sorted({t.name for pat in patterns for t in pat if isinstance(t, Var)})
    if pattern_vars and rnd.random() < 0.7:
        k = rnd.randrange(1, len(pattern_vars) + 1)
        ast = QueryAst("select_distinct", tuple(rnd.sample(pattern_vars, k)), tuple(patterns))
    else:
        ast = QueryAst(ASK, (), tuple(patterns))
    return sorted(triples), ast


def test_variable_predicates_match_nested_loop_reference():
    rnd = random.Random(2024)
    shared_with_matches = 0
    for _ in range(500):
        triples, ast = _random_variable_predicate_case(rnd)
        result = kgstore.evaluate(kgstore.Graph(triples), ast)
        assert result == ref_eval(triples, ast)
        if result and any(isinstance(p, Var) and p in (s, o) for s, p, o in ast.patterns):
            shared_with_matches += 1
    assert shared_with_matches >= 20


def test_ask_agrees_with_select_nonemptiness():
    rnd = random.Random(17)
    for _ in range(100):
        triples, ast = _random_case(rnd)
        graph = kgstore.Graph(triples)
        pattern_vars = sorted({t.name for pat in ast.patterns for t in pat if isinstance(t, Var)})
        ask = QueryAst(ASK, (), ast.patterns)
        if pattern_vars:
            select = QueryAst("select_distinct", tuple(pattern_vars), ast.patterns)
            assert kgstore.evaluate(graph, ask) == bool(kgstore.evaluate(graph, select))
        else:
            assert kgstore.evaluate(graph, ask) == ref_eval(triples, ask)


_NODES = [f"n:{i}" for i in range(4)]  # predicates are nodes too, so a variable can sit in both places


@st.composite
def _bgp_case(draw):
    """A small graph and a query over it: variable or IRI terms anywhere, ASK or SELECT DISTINCT."""
    triples = draw(st.sets(st.tuples(*[st.sampled_from(_NODES)] * 3), max_size=12))
    term = st.one_of(st.sampled_from(["x", "y", "z", "w"]).map(Var), st.sampled_from(_NODES).map(Iri))
    patterns = draw(st.lists(st.tuples(term, term, term), min_size=1, max_size=4))
    names = sorted({t.name for pattern in patterns for t in pattern if isinstance(t, Var)})
    if names and draw(st.booleans()):
        select = draw(st.lists(st.sampled_from(names), min_size=1, unique=True))
        return sorted(triples), QueryAst("select_distinct", tuple(select), tuple(patterns))
    return sorted(triples), QueryAst(ASK, (), tuple(patterns))


def _query(form, select, *patterns):
    terms = {name: Var(name) for name in "xyzw"}
    return QueryAst(form, select, tuple(tuple(terms.get(t) or Iri(t) for t in p) for p in patterns))


@settings(max_examples=400, deadline=None)
@given(case=_bgp_case())
# a repeated variable, a variable in the predicate and the subject, a fully bound pattern, two disconnected
# patterns, an empty graph
@example(case=([("n:0", "n:0", "n:0"), ("n:0", "n:1", "n:2")], _query(ASK, (), ("x", "x", "x"))))
@example(case=([("n:0", "n:0", "n:1"), ("n:1", "n:1", "n:1")],
               _query("select_distinct", ("x", "y"), ("x", "x", "y"), ("n:0", "n:0", "n:1"))))
@example(case=([("n:0", "n:1", "n:2"), ("n:3", "n:1", "n:0")],
               _query("select_distinct", ("y", "x"), ("x", "n:1", "n:2"), ("y", "z", "n:0"))))
@example(case=([], _query("select_distinct", ("x",), ("x", "n:1", "y"))))
def test_evaluate_equals_the_nested_loop_reference_on_drawn_queries(case):
    triples, ast = case
    assert kgstore.evaluate(kgstore.Graph(triples), ast) == ref_eval(triples, ast)


def test_evaluate_joins_a_5000_pattern_query_without_recursing():
    n = 5000
    triples = [(s, f"p:{i}", f"e:o{i}") for i in range(n) for s in ("e:a", "e:b")] + [("e:c", "p:0", "e:o0")]
    body = " . ".join(f"?s <p:{i}> <e:o{i}>" for i in range(n))
    graph = kgstore.Graph(triples)
    assert kgstore.evaluate(graph, parse_query(f"SELECT DISTINCT ?s WHERE {{ {body} }}")) == [{"s": "e:a"}, {"s": "e:b"}]
    assert kgstore.evaluate(graph, parse_query(f"ASK WHERE {{ {body} . ?s <p:0> <e:a> }}")) is False
    chain = " . ".join(f"?v{i} <p:next> ?v{i + 1}" for i in range(n))  # one new variable per step
    ring = kgstore.Graph([(f"e:{i}", "p:next", f"e:{(i + 1) % 3}") for i in range(3)])
    assert kgstore.evaluate(ring, parse_query(f"ASK WHERE {{ {chain} }}")) is True
