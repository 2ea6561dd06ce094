"""Fuzzing of the readers of outside input: each returns a value or raises a SplitHygieneError.

The `lm` and `eval` commands are fuzzed end to end: each exits 0, or exits 2
with one `error:` line, never with a traceback.
"""

from __future__ import annotations

import json
import random

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings, strategies as st

import references
from splithygiene import corpus, kgstore, qlang
from splithygiene.cli import main
from splithygiene.errors import InputFileError, ParseError, SplitHygieneError

_FUZZ = settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


def _near(pieces, max_size=14, separators=(" ",)):
    """Text built from a grammar's pieces and arbitrary fragments, so the fuzz gets past the first token.

    Each piece is followed by one of ``separators``.
    """
    piece = st.tuples(st.one_of(st.sampled_from(pieces), st.text(max_size=4)), st.sampled_from(separators))
    return st.lists(piece, max_size=max_size).map(lambda pairs: "".join(p + sep for p, sep in pairs))


def _utf8(text: str) -> bytes:
    return text.encode("utf-8", "surrogatepass")


_QUERY_PIECES = ["ASK", "SELECT", "DISTINCT", "WHERE", "{", "}", ".", ",", "?x", "?y", "?", "?_1", "<e:s>",
                 "<p:p>", "<Placeholder:A>", "<Placeholder:a>", "<Placeholder:A1>", "<>", "<a b>", "<", ">",
                 "\"lit\"", "ASKWHERE", "?yWHERE", "ASK_", "DISTINCT?x", "<Placeholder:>", "<a{b>"]
# no separator, and whitespace that str.split() and the parser see but a space-joined fuzz never shows
_QUERY_SEPARATORS = ["", "\t", "\xa0", " ", "\x1c"]
_VALID_QUERIES = ["ASK WHERE { <e:s> <p:p> <e:o> }", "SELECT DISTINCT ?x WHERE { ?x <p:p> <e:o> . }",
                  "ASK WHERE { <e:s> <Placeholder:A> <e:o> }",
                  "SELECT DISTINCT ?x, ?y_2 WHERE{?x <p:p> ?y_2 . ?y_2 <Placeholder:B> <Placeholder:A>}"]
_NT_PIECES = ["<e:s>", "<p:p>", "<e:o>", ".", "\"lit\"", "#", "\n", "\r", "\r\n", "<", ">", "\x85"]
_NLQ_PIECES = ["is", "<A>", "?", "!", ".", "\n", "\r", " ", "\x0c", "Straße"]
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["ids", "origins", "assignments", "line-0", "a", "train"]), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def _parallel_files(draw):
    """(.nlq bytes, .ql bytes, manifest bytes or None): mostly line-aligned, often well-formed."""
    valid_nlq = st.sampled_from(["is this here ?", "Straße <A> !", "?", ""])
    valid_ql = st.sampled_from(_VALID_QUERIES)
    lines = draw(st.lists(st.tuples(st.one_of(valid_nlq, valid_nlq, _near(_NLQ_PIECES, 6)),
                                    st.one_of(valid_ql, valid_ql, _near(_QUERY_PIECES, 10))), max_size=4))
    nlq = _utf8("\n".join(n for n, _ in lines))
    ql = _utf8("\n".join(q for _, q in lines))
    damage = draw(st.integers(0, 6))  # 0-3 leave the files as built
    if damage == 4:
        nlq += b"\xff"
    elif damage == 5:
        ql += b"\nASK"
    elif damage == 6:
        nlq = draw(st.binary(max_size=30))
    ids = st.lists(st.sampled_from(["a", "b", "line-0"]), min_size=len(lines), max_size=len(lines))
    manifest = draw(st.one_of(
        st.none(),
        st.none(),
        st.binary(max_size=40),
        _JSON,
        st.fixed_dictionaries({"ids": ids}, optional={"origins": _JSON}),
        st.fixed_dictionaries({"assignments": st.dictionaries(st.sampled_from(["a", "b"]), _JSON)}),
    ))
    if manifest is not None and not isinstance(manifest, bytes):
        manifest = json.dumps(manifest).encode()
    return nlq, ql, manifest


@st.composite
def _rejoined(draw, texts):
    """One of ``texts`` with each space replaced by a drawn query separator."""
    words = draw(st.sampled_from(texts)).split(" ")
    seps = draw(st.lists(st.sampled_from(_QUERY_SEPARATORS), min_size=len(words) - 1, max_size=len(words) - 1))
    return words[0] + "".join(sep + word for sep, word in zip(seps, words[1:]))


def _parse_outcome(parse, text):
    try:
        return parse(text)
    except ParseError as exc:
        return exc.position, exc.message


@_FUZZ
@given(text=st.one_of(st.text(max_size=60), _near(_QUERY_PIECES, separators=_QUERY_SEPARATORS),
                      st.sampled_from(_VALID_QUERIES), _rejoined(_VALID_QUERIES)))
def test_parse_query_returns_an_ast_or_raises_a_parse_error(text):
    ast = _parse_outcome(qlang.parse_query, text)
    assert ast == _parse_outcome(references.ref_parse_query, text)
    if isinstance(ast, qlang.QueryAst):
        assert qlang.parse_query(qlang.serialize(ast)) == ast


# The lexeme walk and the tokenizer's fast path must agree with their references on every text:
# the same AST, or a ParseError with the same position and message, and the same tokens.
_NAMED_QUERIES = ["ASKWHERE { <e:s> <p:p> <e:o> }", "SELECT DISTINCT ?x, ?yWHERE { ?x <p:p> ?y }"]
_EDIT_CHARS = " \t\xa0\x1c\n<>{}?.,_:AaW1é"


def _seeded_texts(rng: random.Random, n: int):
    """The named queries, then n texts: query and question pieces joined by query separators, and
    valid queries with 1-3 characters inserted, deleted or replaced."""
    yield from _NAMED_QUERIES
    for _ in range(n // 2):
        pieces = rng.choices(_QUERY_PIECES + _NLQ_PIECES, k=rng.randint(1, 14))
        yield "".join(p + rng.choice(_QUERY_SEPARATORS) for p in pieces)
    for _ in range(n // 2):
        text = list(rng.choice(_VALID_QUERIES))
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(text) + 1)
            edit = rng.choice(("insert", "delete", "replace"))
            if edit == "insert":
                text.insert(i, rng.choice(_EDIT_CHARS))
            elif i < len(text):
                text[i:i + 1] = [] if edit == "delete" else [rng.choice(_EDIT_CHARS)]
        yield "".join(text)


def test_parse_query_and_tokenize_nlq_equal_their_references_on_20000_seeded_texts():
    accepted = 0
    for text in _seeded_texts(random.Random(9), 20000):
        ast = _parse_outcome(qlang.parse_query, text)
        assert ast == _parse_outcome(references.ref_parse_query, text), repr(text)
        accepted += isinstance(ast, qlang.QueryAst)
        assert qlang.tokenize_nlq(text) == references.ref_tokenize_nlq(text), repr(text)
    assert accepted > 1000  # the edits leave a share of the queries valid


@_FUZZ
@given(data=st.one_of(st.binary(max_size=60), _near(_NT_PIECES).map(_utf8)))
def test_load_ntriples_returns_a_graph_or_raises_a_named_error(tmp_path, data):
    path = tmp_path / "kg.nt"
    path.write_bytes(data)
    try:
        graph = kgstore.load_ntriples(path)
    except SplitHygieneError as exc:
        assert str(path) in str(exc)
        return
    assert all(len(triple) == 3 for triple in graph.triples)


@_FUZZ
@given(files=_parallel_files())
def test_read_parallel_returns_instances_or_raises_a_named_error(tmp_path, files):
    nlq, ql, manifest = files
    paths = [tmp_path / "train.nlq", tmp_path / "train.ql", tmp_path / "m.json"]
    for path, data in zip(paths, (nlq, ql, manifest or b"")):
        path.write_bytes(data)
    try:
        instances = corpus.read_parallel(*paths[:2], paths[2] if manifest is not None else None)
    except SplitHygieneError:
        return
    assert all(inst.pair.nlq for inst in instances)


_LOGP_PIECES = ["-0.5", "0", "-1e-3", "nan", "-inf", "1_0", "x", "\n", "\r\n", "\x85", " ", "\t"]


def _line_count(text: str) -> int:
    """Lines as every reader counts them: only LF ends one, and a last line needs none."""
    return text.count("\n") + (text[-1:] not in ("", "\n"))


@_FUZZ
@given(text=st.one_of(st.text(max_size=40), _near(_LOGP_PIECES)))
def test_read_logp_returns_floats_or_names_the_path_and_line(tmp_path, text):
    path = tmp_path / "pred.logp"
    path.write_bytes(_utf8(text))
    try:
        sents = corpus.read_logp(path)
    except InputFileError as exc:
        line = str(exc)[len(f"{path}:"):].split(":")[0]
        assert str(exc).startswith(f"{path}:") and 1 <= int(line) <= max(1, _line_count(text))
        return
    assert len(sents) == _line_count(text)
    assert all(type(lp) is float for sent in sents for lp in sent)


@pytest.mark.parametrize("name", ["kg.nt", "c.nlq", "c.ql", "m.json", "s.jsonl"])
def test_non_utf8_input_names_the_file(tmp_path, name):
    path = tmp_path / name
    path.write_bytes(b'<e:s> <p:p> <e:o> .\n{"ids": [\xff]}\n')
    other = tmp_path / "other"
    other.write_text("is this here ?\n")
    readers = {
        "kg.nt": lambda: kgstore.load_ntriples(path),
        "c.nlq": lambda: corpus.read_parallel(path, other),
        "c.ql": lambda: corpus.read_parallel(other, path),
        "m.json": lambda: corpus.read_parallel(other, other, path),
        "s.jsonl": lambda: corpus.read_seeds(path),
    }
    with pytest.raises(InputFileError, match="not UTF-8") as err:
        readers[name]()
    assert str(err.value).startswith(f"{path}:2:")


_TOKEN_PIECES = ["ASK", "WHERE", "{", "}", "<e:s>", "<p:p>", "?x", "<s>", "</s>", "<unk>", "\n", "\n\n", "\r\n",
                 "\x85", " ", "\t"]


def _lines(text: str) -> list[list[str]]:
    """Sentences as the CLI reads them: one per LF-ended line, split on whitespace."""
    return [line.split() for line in text.split("\n")[:_line_count(text)]]


@_FUZZ
@given(train=st.one_of(st.text(max_size=40), _near(_TOKEN_PIECES, 20)),
       evals=st.one_of(st.text(max_size=40), _near(_TOKEN_PIECES, 20)),
       order=st.integers(0, 6), k=st.sampled_from(["0.1", "2.5", "1e-9", "0", "nan", "1e308", "1e-320"]))
def test_lm_cli_exits_0_with_the_reference_perplexity_or_2_with_an_error(tmp_path, train, evals, order, k):
    paths = {name: tmp_path / f"{name}.ql" for name in ("train", "eval")}
    for name, text in (("train", train), ("eval", evals)):
        paths[name].write_bytes(_utf8(text))
    logp = tmp_path / "pred.logp"
    result = CliRunner().invoke(main, ["lm", "--train-ql", str(paths["train"]), "--eval-ql", str(paths["eval"]),
                                       "--order", str(order), "--k", k, "--out-logp", str(logp)])
    assert result.exit_code in (0, 2), result.output
    if result.exit_code == 2:
        assert result.output.startswith("error: ") and result.output.count("\n") == 1, result.output
        return
    ref = references.ref_train_ngram_lm(_lines(train), order, float(k))
    sents = _lines(evals)
    assert json.loads(result.output)["value"] == references.ref_lm_perplexity(ref, sents)
    expected = "".join(" ".join(repr(lp) for lp in references.ref_score_sentence(ref, s)) + "\n" for s in sents)
    assert logp.read_bytes() == expected.encode("utf-8")


@_FUZZ
@given(pred=st.one_of(st.text(max_size=40), _near(_TOKEN_PIECES, 16)),
       test=st.one_of(st.text(max_size=40), _near(_TOKEN_PIECES, 16)),
       logp=st.one_of(st.none(), st.text(max_size=30), _near(_LOGP_PIECES)))
def test_eval_cli_exits_0_or_2_with_an_error(tmp_path, pred, test, logp):
    args = ["eval"]
    for name, text in (("pred", pred), ("test", test), ("logp", logp)):
        if text is not None:
            path = tmp_path / f"{name}.txt"
            path.write_bytes(_utf8(text))
            args += [f"--{name}", str(path)]
    result = CliRunner().invoke(main, args)
    assert result.exit_code in (0, 2), result.output
    if result.exit_code == 2:
        assert result.output.startswith("error: ") and result.output.count("\n") == 1, result.output
    else:
        assert 0.0 <= json.loads(result.output)["bleu"] <= 100.0
