"""Fuzzing of the readers of outside input: each returns a value or raises a SplitHygieneError.

The `lm` and `eval` commands are fuzzed end to end: each exits 0, or exits 2
with one `error:` line, never with a traceback.
"""

from __future__ import annotations

import json

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings, strategies as st

import references
from splithygiene import corpus, kgstore, qlang
from splithygiene.cli import main
from splithygiene.errors import InputFileError, SplitHygieneError

_FUZZ = settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


def _near(pieces, max_size=14):
    """Text built from a grammar's pieces and arbitrary fragments, so the fuzz gets past the first token."""
    return st.lists(st.one_of(st.sampled_from(pieces), st.text(max_size=4)), max_size=max_size).map(" ".join)


def _utf8(text: str) -> bytes:
    return text.encode("utf-8", "surrogatepass")


_QUERY_PIECES = ["ASK", "SELECT", "DISTINCT", "WHERE", "{", "}", ".", ",", "?x", "?y", "?", "<e:s>",
                 "<p:p>", "<Placeholder:A>", "<Placeholder:a>", "<>", "<a b>", "<", ">", "\"lit\""]
_VALID_QUERIES = ["ASK WHERE { <e:s> <p:p> <e:o> }", "SELECT DISTINCT ?x WHERE { ?x <p:p> <e:o> . }",
                  "ASK WHERE { <e:s> <Placeholder:A> <e:o> }"]
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


@_FUZZ
@given(text=st.one_of(st.text(max_size=60), _near(_QUERY_PIECES), st.sampled_from(_VALID_QUERIES)))
def test_parse_query_returns_an_ast_or_raises_a_parse_error(text):
    try:
        ast = qlang.parse_query(text)
    except SplitHygieneError:
        return
    assert qlang.parse_query(qlang.serialize(ast)) == ast


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


@_FUZZ
@given(text=st.one_of(st.text(max_size=40), _near(_LOGP_PIECES)))
def test_read_logp_returns_floats_or_names_the_path_and_line(tmp_path, text):
    path = tmp_path / "pred.logp"
    path.write_bytes(_utf8(text))
    try:
        sents = corpus.read_logp(path)
    except InputFileError as exc:
        line = str(exc)[len(f"{path}:"):].split(":")[0]
        assert str(exc).startswith(f"{path}:") and 1 <= int(line) <= max(1, len(text.splitlines()))
        return
    assert len(sents) == len(text.splitlines())
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
    # the N-Triples reader streams and names the file; the others also name the line
    assert str(err.value).startswith(f"{path}:" if name == "kg.nt" else f"{path}:2:")


_TOKEN_PIECES = ["ASK", "WHERE", "{", "}", "<e:s>", "<p:p>", "?x", "<s>", "</s>", "<unk>", "\n", "\n\n", "\r\n",
                 "\x85", " ", "\t"]


def _lines(text: str) -> list[list[str]]:
    """Sentences as the CLI reads them: one per line, split on whitespace."""
    return [line.split() for line in text.splitlines()]


@_FUZZ
@given(train=st.one_of(st.text(max_size=40), _near(_TOKEN_PIECES, 20)),
       evals=st.one_of(st.text(max_size=40), _near(_TOKEN_PIECES, 20)),
       order=st.integers(0, 6), k=st.sampled_from(["0.1", "2.5", "1e-9", "0", "nan"]))
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
