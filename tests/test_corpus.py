from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from conftest import COMICS_INSTANCE_NLQ, COMICS_INSTANCE_QUERY, make_instance, make_seed
from splithygiene import corpus, partitioner, qlang, toydata
from splithygiene.errors import InputFileError, LineCountMismatch, SplitHygieneError
from splithygiene.partitioner import Split3
from references import _ref_read_lines, ref_dedup_keys, ref_read_parallel, ref_tokenize_nlq

ASK_Q = "ASK WHERE { <e:s%d> <p:p> <e:o> }"


def _instances(n, offset=0):
    return [make_instance(f"i{offset + k}", f"token number {offset + k} ?", ASK_Q % (offset + k))
            for k in range(n)]


# ---------------------------------------------------------------------------
# Instance
# ---------------------------------------------------------------------------

def test_instance_requires_nonempty_nlq():
    with pytest.raises(ValueError):
        make_instance("i", "", "ASK WHERE { <e:s> <p:p> <e:o> }")


def test_instance_reserialization_is_stable():
    inst = make_instance("i", "is this here ?", "ASK WHERE {  <e:s>   <p:p>  <e:o>  }")
    again = qlang.parse_query(qlang.serialize(inst.query_ast))
    assert again == inst.query_ast


# ---------------------------------------------------------------------------
# dedup
# ---------------------------------------------------------------------------

def test_dedup_identity_duplicates():
    a = make_instance("a", "is x here ?", "ASK WHERE { <e:s> <p:p> <e:o> }")
    b = make_instance("b", "is x here ?", "ASK WHERE { <e:s> <p:p> <e:o> }")
    kept, removed = corpus.dedup([a, b])
    assert kept == [a]
    assert removed == 1


def test_dedup_normalizes_query_whitespace():
    a = make_instance("a", "is x here ?", "ASK WHERE { <e:s> <p:p> <e:o> }")
    b = make_instance("b", "is x here ?", "ASK WHERE {  <e:s>  <p:p>    <e:o> }")
    kept, removed = corpus.dedup([a, b])
    assert kept == [a]
    assert removed == 1


def test_dedup_preserves_query_case():
    a = make_instance("a", "is x here ?", "ASK WHERE { <e:S> <p:p> <e:o> }")
    b = make_instance("b", "is x here ?", "ASK WHERE { <e:s> <p:p> <e:o> }")
    kept, removed = corpus.dedup([a, b])
    assert len(kept) == 2 and removed == 0


def test_dedup_three_duplicate_groups():
    groups = _instances(7)
    dupes = [make_instance(f"d{k}", groups[k].nlq_text(), groups[k].query_text)
             for k in range(3)]
    records = groups + dupes
    expected_kept = ref_dedup_keys([corpus.canonical_key(r) for r in records])
    kept, removed = corpus.dedup(records)
    assert [corpus.canonical_key(r) for r in kept] == expected_kept
    assert (len(kept), removed) == (7, 3)


@settings(max_examples=300, deadline=None)
@given(tokens=st.lists(st.text(st.sampled_from("ΣσςΑa'.\u0301\u00adİ ß"), min_size=0, max_size=4),
                       min_size=1, max_size=5))
def test_canonical_key_lowercases_each_token_on_its_own(tokens):
    # a capital sigma lowercases to a final sigma by what surrounds it: never across the joining space
    row = corpus.Instance("i", tuple(tokens), ASK_Q % 1, ("p:p",))
    assert corpus.canonical_key(row) == " ".join(t.lower() for t in tokens) + "\n" + ASK_Q % 1


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=12))
def test_dedup_idempotent(pairs):
    records = [make_instance(f"i{n}", f"word {a} ?", ASK_Q % b)
               for n, (a, b) in enumerate(pairs)]
    once, _ = corpus.dedup(records)
    twice, removed = corpus.dedup(once)
    assert twice == once and removed == 0


class _Colliding(str):
    """A key whose hash is the same for every value, so only equality tells two apart."""

    def __hash__(self):
        return 7


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(["a", "b", "c", "ab", "", "a b"]), max_size=30))
def test_dedup_settles_hash_collisions_by_equality(keys):
    records = list(enumerate(keys))
    kept, removed = corpus.dedup(records, key=lambda rec: _Colliding(rec[1]))
    assert [k for _, k in kept] == ref_dedup_keys(keys)
    assert removed == len(keys) - len(kept)
    assert [i for i, _ in kept] == [keys.index(k) for k in ref_dedup_keys(keys)]


def test_dedup_of_a_corpus_that_is_mostly_duplicates():
    originals = _instances(5)
    records = [make_instance(f"r{n}", originals[n % 5].nlq_text().upper(), originals[n % 5].query_text)
               for n in range(500)] + _instances(3, offset=5)
    kept, removed = corpus.dedup(records)
    assert [corpus.canonical_key(r) for r in kept] == ref_dedup_keys(
        [corpus.canonical_key(r) for r in records])
    assert [r.id for r in kept] == ["r0", "r1", "r2", "r3", "r4", "i5", "i6", "i7"]
    assert removed == 495


def _extract_and_generate(out, hash_seed: str) -> dict[str, bytes]:
    env = {**os.environ, "PYTHONHASHSEED": hash_seed}
    cli = [sys.executable, "-m", "splithygiene.cli"]
    out.mkdir()
    templates = out / "templates.jsonl"
    subprocess.run([*cli, "extract", "--seeds", str(toydata.toy_seeds_path()), "--out", str(templates)],
                   check=True, env=env, capture_output=True)
    subprocess.run([*cli, "generate", "--templates", str(templates), "--kg", str(toydata.toy_kg_path()),
                    "--out-dir", str(out / "corpus")], check=True, env=env, capture_output=True)
    return {p.relative_to(out).as_posix(): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


def test_extract_and_generate_write_the_same_bytes_under_any_hash_seed(tmp_path):
    # dedup keeps key hashes, which differ between hash seeds; what it keeps must not
    first = _extract_and_generate(tmp_path / "one", "1")
    assert set(first) == {"templates.jsonl", "corpus/instances.nlq", "corpus/instances.ql",
                          "corpus/instances.manifest.json"}
    assert _extract_and_generate(tmp_path / "two", "2") == first


# ---------------------------------------------------------------------------
# read_parallel / write_split
# ---------------------------------------------------------------------------

def test_read_parallel_without_manifest(tmp_path):
    (tmp_path / "c.nlq").write_text("is one here ?\nis two here ?\n")
    (tmp_path / "c.ql").write_text(ASK_Q % 1 + "\n" + ASK_Q % 2 + "\n")
    instances = corpus.read_parallel(tmp_path / "c.nlq", tmp_path / "c.ql")
    assert [i.id for i in instances] == ["line-0", "line-1"]
    assert instances[0].nlq == ("is", "one", "here", "?")


def test_read_parallel_line_count_mismatch(tmp_path):
    (tmp_path / "c.nlq").write_text("a ?\nb ?\nc ?\n")
    (tmp_path / "c.ql").write_text(ASK_Q % 1 + "\n" + ASK_Q % 2 + "\n")
    with pytest.raises(LineCountMismatch):
        corpus.read_parallel(tmp_path / "c.nlq", tmp_path / "c.ql")


def test_read_parallel_parse_error_reports_line(tmp_path):
    (tmp_path / "c.nlq").write_text("a ?\nb ?\n")
    (tmp_path / "c.ql").write_text(ASK_Q % 1 + "\nASK WHERE { <e:a> <p:p> 42 }\n")
    with pytest.raises(InputFileError) as err:
        corpus.read_parallel(tmp_path / "c.nlq", tmp_path / "c.ql")
    assert str(err.value) == (f"{tmp_path / 'c.ql'}:2: position 24: "
                              "expected an IRI, variable, or placeholder term")


def test_read_parallel_empty_question_reports_line(tmp_path):
    (tmp_path / "c.nlq").write_text("a ?\n  \n")
    (tmp_path / "c.ql").write_text(ASK_Q % 1 + "\n" + ASK_Q % 2 + "\n")
    with pytest.raises(InputFileError, match=r"c\.nlq:2: empty NLQ line\Z"):
        corpus.read_parallel(tmp_path / "c.nlq", tmp_path / "c.ql")


@pytest.mark.parametrize("text, lines", [
    ("", []),
    ("a", ["a"]),
    ("a\n\n", ["a", ""]),
    ("a\r\nb\r\r\n", ["a", "b\r"]),
    ("a\u2028b\x85c\x0cd\x1ce\rf\n", ["a\u2028b\x85c\x0cd\x1ce\rf"]),
])
def test_read_lines_ends_a_line_at_lf_only_and_drops_one_cr_before_it(tmp_path, text, lines):
    path = tmp_path / "f.txt"
    path.write_bytes(text.encode("utf-8"))
    assert corpus.read_lines(path) == lines


def test_read_lines_joins_a_long_line_once(tmp_path, monkeypatch):
    # 16,384 blocks with no LF, then a CR that ends a block before the LF that starts the next; a reader that
    # copied the unfinished line on every block took seconds here
    path = tmp_path / "f.txt"
    path.write_bytes(b"x" * ((1 << 20) - 1) + b"\r\nb")
    monkeypatch.setattr(corpus, "BLOCK", 64)
    start = time.perf_counter()
    assert corpus.read_lines(path) == _ref_read_lines(path)
    assert time.perf_counter() - start < 1.0


def test_read_parallel_reads_a_unicode_line_break_inside_a_line_as_whitespace(tmp_path):
    (tmp_path / "c.nlq").write_bytes("is one\u2028here ?\r\n".encode("utf-8"))
    (tmp_path / "c.ql").write_bytes("ASK WHERE { <e:s1>\x85<p:p> <e:o> }\r\n".encode("utf-8"))
    (inst,) = corpus.read_parallel(tmp_path / "c.nlq", tmp_path / "c.ql")
    assert inst.nlq == ("is", "one", "here", "?")
    assert inst.query_ast == qlang.parse_query(ASK_Q % 1)


def test_read_parallel_rows_hold_no_ast_until_asked(tmp_path):
    (tmp_path / "c.nlq").write_text("is one here ?\nis two here ?\n")
    (tmp_path / "c.ql").write_text(ASK_Q % 1 + "\n" + ASK_Q % 2 + "\n")
    rows = corpus.read_parallel(tmp_path / "c.nlq", tmp_path / "c.ql")
    first, second = rows
    # slotted rows: no attribute dict to keep an AST in
    assert not any(hasattr(row, "__dict__") for row in rows)
    assert first.predicates is second.predicates and first.predicates == ("p:p",)
    assert first.query_ast == first.query_ast == qlang.parse_query(ASK_Q % 1)
    assert second.query_ast.patterns[0][0] == qlang.Iri("e:s2")


# words that repeat across lines, with trailing ?!., slot-marker shapes, case and non-ASCII case mappings
_LINE_WORDS = st.sampled_from(["is", "IS", "Is?", "oslo", "jr.", "?", "!?", "..", "<A>", "<A>?", "<a>", "<AB1>.",
                               "ß", "STRASSE", "ǅ", "İ", "ΣΑΣ!", "x.y.", "<", "<>?"])


@settings(max_examples=150, deadline=None)
@given(lines=st.lists(st.lists(_LINE_WORDS, min_size=1, max_size=8).map(" ".join), min_size=1, max_size=12))
def test_read_parallel_tokenizes_each_line_as_the_reference_does(tmp_path_factory, lines):
    # the lines share one word memo: each distinct word is tokenized once for the whole file
    path = tmp_path_factory.mktemp("tok")
    (path / "c.nlq").write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    (path / "c.ql").write_text((ASK_Q % 1 + "\n") * len(lines))
    read = corpus.read_parallel(path / "c.nlq", path / "c.ql")
    assert [inst.nlq for inst in read] == [ref_tokenize_nlq(line) for line in lines]


# query lines by kind: good ones, with a concrete or a placeholder predicate, spaced by form feeds, a lone CR
# or U+2028; and bad ones, with a malformed IRI, a malformed placeholder label or no WHERE, and a blank line
_GOOD_QUERIES = ["ASK WHERE { <e:s%d> <p:p> <e:o> }", "SELECT DISTINCT ?x WHERE { ?x <p:q%d> <e:o> . ?x <p:p> ?y }",
                 "ASK WHERE {<e:s%d>\u2028<p:p>\x0c<e:o>\r}", "ASK WHERE { <e:s%d> <Placeholder:P> <e:o> }"]
_BAD_QUERIES = ["ASK WHERE { <e:s%d> <p:p> <e o> }", "ASK WHERE { <e:s> <p:p> <Placeholder:p%d> }",
                "ASK { <e:s%d> <p:p> <e:o> }", ""]


def _mostly(good, bad):
    """``good``, and one time in ten ``bad``."""
    return st.tuples(st.integers(0, 9), good, bad).map(lambda t: t[2] if t[0] == 0 else t[1])


_QUERY_LINES = _mostly(st.tuples(st.sampled_from(_GOOD_QUERIES), st.integers(0, 3)).map(lambda q: q[0] % q[1]),
                       st.sampled_from(_BAD_QUERIES).map(lambda q: q.replace("%d", "9")))
_QUESTION_LINES = _mostly(st.lists(st.sampled_from(["is", "Oslo", "here?", "é", "x\u2028y", "a\x0cb", "a\rb"]),
                                   min_size=1, max_size=4).map(" ".join),
                          st.sampled_from(["", "\x0c", " \u2028 "]))
# a run of rows whose queries share a shape, each row ending in LF or CRLF
_ROW_RUNS = st.tuples(st.integers(1, 6), _QUESTION_LINES, _QUERY_LINES, st.sampled_from(["\n", "\r\n"]))
_BAD_BYTES = st.tuples(st.sampled_from(["c.nlq", "c.ql", "m.json"]), st.integers(0, 40),
                       st.sampled_from([b"\xff", b"\xe2\x82", b"\xc3"]))


def _outcome(read, *paths):
    """The rows a reader returns, or the type and message of what it raises."""
    try:
        return read(*paths)
    except (SplitHygieneError, OSError) as exc:
        return type(exc), str(exc)


def _manifest(kind: str, n: int) -> str:
    ids = [f"i{k}" for k in range(n)]
    origins = {i: f"t{k % 3}" for k, i in enumerate(ids) if k % 4}
    return {
        "ids": json.dumps({"ids": ids, "origins": origins}),
        "ids-short": json.dumps({"ids": ids[1:]}),
        "ids-long": json.dumps({"ids": ids + ["extra"]}),
        "repeated": json.dumps({"ids": ids[:1] * 2 + ids[2:]}),
        "assignments": json.dumps({"assignments": {f"o{k}": "other" for k in range(2)} | dict.fromkeys(ids, "c"),
                                   "origins": origins}),
        "no-ids": json.dumps({"origins": origins}),
        "not-json": "{",
    }[kind]


@settings(max_examples=500, deadline=None)
@given(runs=st.lists(_ROW_RUNS, max_size=6), final_lf=st.tuples(st.booleans(), st.booleans()),
       faulty=st.booleans(), extra=st.sampled_from([None, None, None, None, "c.nlq", "c.ql"]),
       bad_bytes=st.one_of(st.just([]), st.lists(_BAD_BYTES, min_size=1, max_size=2)),
       manifest=st.sampled_from([None, "ids", "assignments", "ids-short", "ids-long", "repeated", "no-ids",
                                 "not-json"]),
       missing=st.sampled_from([None] * 9 + ["c.nlq", "c.ql", "m.json"]),
       block=st.sampled_from([1, 2, 3, 7, 64, corpus.BLOCK]))
def test_read_parallel_equals_the_whole_file_reference_on_random_file_pairs(tmp_path_factory, runs, final_lf, faulty,
                                                                           extra, bad_bytes, manifest, missing, block):
    # the streamed reader returns the rows, or raises the error, of the reader that held both files whole,
    # whatever block size it reads (a CRLF, a character or a bad byte may straddle two blocks); a pair that is
    # not `faulty` has no unequal line count, byte that is not UTF-8, missing file or bad manifest
    if not faulty:
        extra, bad_bytes, missing = None, [], None
        manifest = manifest if manifest in (None, "ids", "assignments") else None
    path = tmp_path_factory.mktemp("pair")
    rows = [(question, query, end) for n, question, query, end in runs for _ in range(n)]
    files = {"c.nlq": [question + end for question, _, end in rows], "c.ql": [query + end for _, query, end in rows]}
    if extra is not None:
        files[extra].append("is ASK WHERE { <e:s> <p:p> <e:o> }\n")
    data = {}
    for name, lines, keep_lf in zip(files, files.values(), final_lf):
        text = "".join(lines)
        data[name] = (text if keep_lf or not text.endswith("\n") else text[:-1]).encode("utf-8")
    data["m.json"] = _manifest(manifest or "ids", len(rows)).encode("utf-8")
    for name, line, byte in bad_bytes:
        pieces = data[name].split(b"\n")
        pieces[line % len(pieces)] += byte
        data[name] = b"\n".join(pieces)
    for name, content in data.items():
        if name != missing:
            (path / name).write_bytes(content)
    paths = [path / "c.nlq", path / "c.ql"] + ([path / "m.json"] if manifest else [])
    with mock.patch.object(corpus, "BLOCK", block):
        streamed = _outcome(corpus.read_parallel, *paths)
    assert streamed == _outcome(ref_read_parallel, *paths)


def test_read_parallel_peaks_near_the_rows_it_returns(tmp_path, scaled_world):
    # both files stream and the manifest is dropped before the rows are built: the read holds little beside them
    _, data = scaled_world
    corpus.write_corpus(tmp_path, data.instances)
    paths = [tmp_path / f"instances.{ext}" for ext in ("nlq", "ql", "manifest.json")]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        rows = corpus.read_parallel(*paths)
        kept, peak = (size - before for size in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert rows == data.instances and len(rows) > 16_000
    assert kept <= 490 * len(rows), kept / len(rows)
    assert peak <= 1.10 * kept, peak / kept


@pytest.mark.parametrize("sizes", [[0], [1], [corpus.BLOCK - 1], [corpus.BLOCK], [corpus.BLOCK + 1],
                                   [3, 0, corpus.BLOCK + 1, 2 * corpus.BLOCK, 5]])
def test_file_digest_hashes_the_files_concatenated(tmp_path, sizes):
    paths = [tmp_path / f"f{k}" for k in range(len(sizes))]
    for k, (path, size) in enumerate(zip(paths, sizes)):
        path.write_bytes(bytes((k + i) % 251 for i in range(size)))
    assert corpus.file_digest(paths) == hashlib.sha256(b"".join(p.read_bytes() for p in paths)).hexdigest()


def test_read_parallel_rejects_repeated_manifest_ids(tmp_path):
    (tmp_path / "c.nlq").write_text("a ?\nb ?\n")
    (tmp_path / "c.ql").write_text(ASK_Q % 1 + "\n" + ASK_Q % 2 + "\n")
    (tmp_path / "m.json").write_text('{"ids": ["x", "x"]}')
    with pytest.raises(InputFileError, match=r"m\.json: duplicate id 'x'\Z"):
        corpus.read_parallel(tmp_path / "c.nlq", tmp_path / "c.ql", tmp_path / "m.json")


def test_read_parallel_instance_from_table_lines(tmp_path):
    (tmp_path / "c.nlq").write_text(COMICS_INSTANCE_NLQ + "\n")
    (tmp_path / "c.ql").write_text(COMICS_INSTANCE_QUERY + "\n")
    (inst,) = corpus.read_parallel(tmp_path / "c.nlq", tmp_path / "c.ql")
    assert qlang.extract_predicates(inst.query_ast) == [
        "http://dbpedia.org/ontology/industry"]


def _split_of(train, valid, test):
    return Split3(train=tuple(train), valid=tuple(valid), test=tuple(test))


def test_write_split_round_trip(tmp_path):
    items = _instances(10)
    split = _split_of(items[:8], items[8:9], items[9:])
    manifest = corpus.make_manifest(split, corpus.LEAKY, 7, (0.8, 0.1, 0.1), "d" * 64)
    corpus.write_split(tmp_path, split, manifest)
    back = corpus.read_parallel(tmp_path / "train.nlq", tmp_path / "train.ql",
                                tmp_path / "manifest.json")
    assert [i.id for i in back] == [i.id for i in items[:8]]
    assert [i.nlq_text() for i in back] == [i.nlq_text() for i in items[:8]]
    assert [i.query_text for i in back] == [i.query_text for i in items[:8]]
    assert manifest["counts"] == [8, 1, 1]


# ids with quotes, backslashes, non-ASCII, surrogates and control characters
_IDS = st.text(st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\u2028é€𝄞'), st.characters()), max_size=6)


@settings(max_examples=300, deadline=None)
@given(ids=st.dictionaries(_IDS, st.sampled_from(["train", "valid", "test"]), max_size=12),
       origins=st.dictionaries(_IDS, _IDS, max_size=6), scheme=st.sampled_from([corpus.LEAKY, corpus.SANITIZED]),
       rng_seed=st.integers(-2**70, 2**70), ratio=st.floats(allow_nan=False) | st.just(0.1))
def test_json_text_writes_what_the_indenting_encoder_writes(ids, origins, scheme, rng_seed, ratio):
    # a split manifest, with empty and non-empty id maps, and a corpus manifest
    split_manifest = {"scheme": scheme, "rng_seed": rng_seed, "ratios": [ratio, 0.1, 1 - ratio],
                      "counts": [len(ids), 0, 0], "config_digest": "d" * 64, "assignments": ids, "origins": origins}
    corpus_manifest = {"ids": list(ids), "origins": origins}
    for doc in (split_manifest, corpus_manifest, {}, {"ids": [], "origins": {}}):
        assert "".join(corpus.json_text(doc)) == json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize("n", [0, 1, corpus.BATCH - 1, corpus.BATCH, corpus.BATCH + 1, 2 * corpus.BATCH + 1])
def test_json_text_chunk_boundaries(n):
    ids = [f"i{k}" for k in range(n)]
    doc = {"scheme": "leaky", "ids": ids, "assignments": {i: "train" for i in ids}, "counts": [n, 0, 0]}
    chunks = list(corpus.json_text(doc))
    assert "".join(chunks) == json.dumps(doc, indent=2) + "\n"
    assert max(chunk.count("\n    ") for chunk in chunks) <= corpus.BATCH  # one line break per member


def test_write_split_empty_test_files(tmp_path):
    items = _instances(4)
    split = _split_of(items[:3], items[3:], [])
    manifest = corpus.make_manifest(split, corpus.LEAKY, 7, (0.8, 0.1, 0.1), "d" * 64)
    corpus.write_split(tmp_path, split, manifest)
    assert (tmp_path / "test.nlq").read_bytes() == b""
    assert (tmp_path / "test.ql").read_bytes() == b""
    assert corpus.read_parallel(tmp_path / "test.nlq", tmp_path / "test.ql") == []


def test_manifest_round_trip_and_deterministic_bytes(tmp_path):
    items = _instances(10)
    split = _split_of(items[:8], items[8:9], items[9:])
    m1 = corpus.make_manifest(split, corpus.SANITIZED, 11, (0.8, 0.1, 0.1), "c" * 64)
    m2 = corpus.make_manifest(split, corpus.SANITIZED, 11, (0.8, 0.1, 0.1), "c" * 64)
    corpus.write_split(tmp_path / "a", split, m1)
    corpus.write_split(tmp_path / "b", split, m2)
    text = (tmp_path / "a" / "manifest.json").read_bytes()
    assert text == (tmp_path / "b" / "manifest.json").read_bytes()
    doc = json.loads(text)
    assert doc == m1
    assert set(doc) >= {"scheme", "rng_seed", "valid_fraction", "counts", "assignments", "config_digest"}
    assert "ratios" not in doc and doc["valid_fraction"] == 0.1


# the manifest.json bytes of a two-instance sanitized split, one instance with an origin
# template; a sanitized split records the valid fraction that cut its pool, not ratios
_GOLDEN_MANIFEST = """{
  "scheme": "sanitized",
  "rng_seed": 11,
  "valid_fraction": 0.1,
  "counts": [
    1,
    0,
    1
  ],
  "config_digest": "cccc",
  "assignments": {
    "a0": "train",
    "b1": "test"
  }%s
}
"""


@pytest.mark.parametrize("origin, tail", [
    (None, ""),
    ("t-x", ',\n  "origins": {\n    "b1": "t-x"\n  }'),
])
def test_manifest_golden_bytes(tmp_path, origin, tail):
    split = _split_of([make_instance("a0", "is zero here ?", ASK_Q % 0)], [],
                      [make_instance("b1", "is one here ?", ASK_Q % 1, origin=origin)])
    manifest = corpus.make_manifest(split, corpus.SANITIZED, 11, (0.8, 0.1, 0.1), "cccc")
    corpus.write_split(tmp_path, split, manifest)
    assert (tmp_path / "manifest.json").read_bytes() == (_GOLDEN_MANIFEST % tail).encode("utf-8")


def test_leaky_manifest_golden_bytes(tmp_path):
    split = _split_of([make_instance("a0", "is zero here ?", ASK_Q % 0)], [],
                      [make_instance("b1", "is one here ?", ASK_Q % 1)])
    corpus.write_split(tmp_path, split, corpus.make_manifest(split, corpus.LEAKY, 11, (0.5, 0.0, 0.5), "cccc"))
    assert (tmp_path / "manifest.json").read_text(encoding="utf-8") == """{
  "scheme": "leaky",
  "rng_seed": 11,
  "ratios": [
    0.5,
    0.0,
    0.5
  ],
  "counts": [
    1,
    0,
    1
  ],
  "config_digest": "cccc",
  "assignments": {
    "a0": "train",
    "b1": "test"
  }
}
"""


def test_manifest_supplies_origins(tmp_path):
    items = [make_instance("a0", "is zero here ?", ASK_Q % 0, origin="t-x")]
    split = _split_of(items, [], [])
    manifest = corpus.make_manifest(split, corpus.LEAKY, 3, (1.0, 0.0, 0.0), "d" * 64)
    corpus.write_split(tmp_path, split, manifest)
    (back,) = corpus.read_parallel(tmp_path / "train.nlq", tmp_path / "train.ql",
                                   tmp_path / "manifest.json")
    assert back.id == "a0"
    assert back.origin_template_id == "t-x"


# ---------------------------------------------------------------------------
# Seeds JSONL
# ---------------------------------------------------------------------------

def test_seeds_jsonl_round_trip(tmp_path):
    seed = make_seed("s1", "is peter piper pizza in the pizza industry ?",
                     "ASK WHERE { <e:Peter_Piper_Pizza> <p:industry> <e:Pizza> }",
                     {"B": corpus.SurfaceForm(1, 4), "A": corpus.SurfaceForm(6, 7, "e:Pizza")})
    (tmp_path / "seeds.jsonl").write_text(json.dumps({
        "id": "s1", "nlq": "is peter piper pizza in the pizza industry ?",
        "query": "ASK WHERE { <e:Peter_Piper_Pizza> <p:industry> <e:Pizza> }",
        "surface_forms": {"A": {"span": [6, 7], "iri": "e:Pizza"}, "B": {"span": [1, 4]}}}) + "\n", encoding="utf-8")
    (back,) = corpus.read_seeds(tmp_path / "seeds.jsonl")
    assert back == seed


def test_seed_span_validation():
    with pytest.raises(ValueError):
        make_seed("s", "a b c ?", "ASK WHERE { <e:s> <p:p> <e:o> }", {"A": corpus.SurfaceForm(2, 9)})
    with pytest.raises(ValueError):
        make_seed("s", "a b c ?", "ASK WHERE { <e:s> <p:p> <e:o> }",
                  {"A": corpus.SurfaceForm(0, 2), "B": corpus.SurfaceForm(1, 3)})


# ---------------------------------------------------------------------------
# Atomic writes
# ---------------------------------------------------------------------------

def test_write_text_replaces_the_target_with_lf_bytes(tmp_path):
    target = tmp_path / "report.csv"
    corpus.write_text(target, "old\n")
    corpus.write_text(target, "a\nb\n")
    assert target.read_bytes() == b"a\nb\n"
    assert [p.name for p in tmp_path.iterdir()] == ["report.csv"]


def test_write_text_failure_keeps_old_content_and_leaves_no_temp_file(tmp_path, monkeypatch):
    target = tmp_path / "manifest.json"
    corpus.write_text(target, "old\n")

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(corpus.os, "replace", fail)
    with pytest.raises(OSError, match="disk full"):
        corpus.write_text(target, "new\n")
    assert target.read_text(encoding="utf-8") == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["manifest.json"]


def test_an_error_mid_stream_keeps_old_content_and_leaves_no_temp_file(tmp_path):
    target = tmp_path / "train.nlq"
    corpus.write_text(target, "old\n")

    def lines():
        yield from (f"line {k}" for k in range(corpus.BATCH))
        raise RuntimeError("source failed")

    with pytest.raises(RuntimeError, match="source failed"):
        corpus.write_lines(target, lines())
    assert target.read_text(encoding="utf-8") == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["train.nlq"]


@pytest.mark.parametrize("n", [0, 1, corpus.BATCH, corpus.BATCH + 1])
def test_write_lines_writes_each_line_with_its_end(tmp_path, n):
    lines = ["", "é ?", "a\rb", "x\u2028y"] * (n // 4) + ["last"] * (n % 4)
    corpus.write_lines(tmp_path / "c.txt", iter(lines))
    assert (tmp_path / "c.txt").read_bytes() == "".join(line + "\n" for line in lines).encode("utf-8")


def test_write_split_streams_its_files(tmp_path, scaled_world):
    # each file goes out in batches, so the write holds a small share of what it writes, never a whole file
    config, data = scaled_world
    split = partitioner.leaky_partition(data.instances, config.ratios, config.rng_seeds[0])
    manifest = corpus.make_manifest(split, corpus.LEAKY, config.rng_seeds[0], config.ratios, data.config_digest)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        corpus.write_split(tmp_path, split, manifest)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    written = sum(p.stat().st_size for p in tmp_path.iterdir())
    assert written > 2_000_000
    assert peak <= 0.25 * written, (peak, written)
