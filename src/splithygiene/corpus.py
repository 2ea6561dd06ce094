"""Corpus records, line-aligned parallel I/O, manifests, and de-duplication.

A corpus on disk is a pair of UTF-8 text files, ``<name>.nlq`` and
``<name>.ql``, one record per line with LF endings, line-aligned. A partition
manifest is JSON holding the scheme, rng seed, the ratios (leaky) or valid
fraction (sanitized) that cut it, per-instance split assignments, counts, and
a content digest of the inputs; a corpus manifest lists a corpus's ids. Both
record origin template ids by one rule (`_origins`).
"""

from __future__ import annotations

import json
import os
import uuid
from collections import Counter
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from itertools import count, islice
from pathlib import Path

from . import qlang
from .errors import InputFileError, LineCountMismatch, ParseError, PlaceholderPredicate, SplitHygieneError
from .rng import sha256

LEAKY = "leaky"
SANITIZED = "sanitized"
VALID_FRACTION = 0.1  # the share of a sanitized split's train pool cut to valid
MAX_LM_ORDER = 32  # the longest n-gram the LM counts; an order past a corpus's longest query adds nothing
BATCH = 1024  # lines, or id-map members, encoded and written per chunk
BLOCK = 1 << 16  # characters read, or bytes hashed, per step


@dataclass(frozen=True, slots=True)
class Instance:
    """One corpus row: a question's tokens, its query's text and predicates, and the template that generated it.

    ``predicates`` are the query's predicate IRIs in triple order, None when
    one of them is a placeholder. ``origin_template_id`` is None for a row
    whose origin is not known. The row stores no AST: ``query_ast`` parses
    the query's text each time it is asked for.
    """

    id: str
    nlq: tuple[str, ...]
    query_text: str
    predicates: tuple[str, ...] | None
    origin_template_id: str | None = None

    def __post_init__(self):
        if not self.nlq:
            raise ValueError("NLQ token sequence must be non-empty")

    @property
    def query_ast(self) -> qlang.QueryAst:
        return qlang.parse_query(self.query_text)

    def concrete_predicates(self) -> tuple[str, ...]:
        """``predicates``; a placeholder predicate raises PlaceholderPredicate naming the instance id."""
        if self.predicates is None:
            try:
                qlang.extract_predicates(self.query_ast)
            except PlaceholderPredicate as exc:
                raise PlaceholderPredicate(f"instance {self.id!r}: {exc}") from None
        return self.predicates

    def nlq_text(self) -> str:
        return " ".join(self.nlq)


@dataclass(frozen=True)
class SurfaceForm:
    """A labeled span of NLQ tokens, optionally pinned to an entity IRI."""

    start: int
    end: int
    iri: str | None = None


@dataclass(frozen=True)
class Seed(Instance):
    """A curated question-query row with labeled entity surface forms; its ``origin_template_id`` is None."""

    surface_forms: dict[str, SurfaceForm] = field(default_factory=dict)

    def __post_init__(self):
        super().__post_init__()
        n = len(self.nlq)
        taken: set[int] = set()
        for label, sf in self.surface_forms.items():
            if not (0 <= sf.start < sf.end <= n):
                raise ValueError(f"seed {self.id}: span for {label!r} out of bounds")
            overlap = taken.intersection(range(sf.start, sf.end))
            if overlap:
                raise ValueError(f"seed {self.id}: span for {label!r} overlaps another span")
            taken.update(range(sf.start, sf.end))


# ---------------------------------------------------------------------------
# De-duplication
# ---------------------------------------------------------------------------

def canonical_key(rec: Instance) -> str:
    """Lowercased single-spaced NLQ + whitespace-normalized query text.

    Query text keeps its case: IRIs are case-sensitive, questions are not.
    Lowercasing the joined tokens equals joining the lowercased tokens: the
    only mapping that reads its context, a final capital sigma, stops at a space.
    """
    nlq = " ".join(rec.nlq).lower()
    query = " ".join(rec.query_text.split())
    return nlq + "\n" + query


def dedup(records, key=canonical_key):
    """Drop records whose key (default: the row's canonical key) repeats, keeping firsts in order.

    Only the hash of each kept record's key is kept, mapped to the record. A
    hash seen before is settled by recomputing the keys of the kept records
    that share it, so the result is exact and no key string is held.
    """
    kept = []
    first: dict[int, object] = {}  # key hash -> the first kept record with it
    later: dict[int, list] = {}  # key hash -> the other kept records with it
    removed = 0
    for rec in records:
        k = key(rec)
        h = hash(k)
        other = first.get(h)
        if other is None:
            first[h] = rec
        elif key(other) == k or any(key(o) == k for o in later.get(h, ())):
            removed += 1
            continue
        else:
            later.setdefault(h, []).append(rec)
        kept.append(rec)
    return kept, removed


def unique_ids(path, records, kept=None) -> list:
    """Return ``kept`` (default: all ``records``) after checking that no two share an id.

    ``records`` are read from the JSONL file at ``path``, one a non-blank line;
    ``kept`` are those of them that content de-duplication left. A repeated id
    raises InputFileError naming path, line and id.
    """
    kept = records if kept is None else kept
    seen = set()
    for rec in kept:
        if rec.id in seen:
            position = next(i for i, other in enumerate(records) if other is rec)
            line = [i for i, text in enumerate(read_lines(path), start=1) if text.strip()][position]
            raise InputFileError(f"{path}:{line}: duplicate id {rec.id!r}")
        seen.add(rec.id)
    return kept


# ---------------------------------------------------------------------------
# Parallel corpus I/O
# ---------------------------------------------------------------------------

def _not_utf8(path, newline: str | None = "\n") -> InputFileError:
    """The error naming the line, numbered as `_lines(path, newline)` numbers it, of a file's first non-UTF-8 byte."""
    line = 1  # the line the piece starts on
    with open(path, "rb") as fh:
        for data in fh:  # a binary file's pieces end at LF only
            try:
                data.decode("utf-8")
            except UnicodeDecodeError as exc:  # the reason decoding the whole file gives: the LF ends a sequence
                if newline is None:  # each CR before the fault ends a line
                    line += data.count(b"\r", 0, exc.start)
                return InputFileError(f"{path}:{line}: not UTF-8 text ({exc.reason})")
            line += 1
            if newline is None:  # each CR ends a line too, but a CRLF is one end
                line += data.count(b"\r") - data.endswith(b"\r\n")
    return InputFileError(f"{path}: not UTF-8 text")  # the file changed since the read that failed


def read_text(path) -> str:
    """A file's text; a byte sequence that is not UTF-8 raises InputFileError naming path:line."""
    try:
        return Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError:
        raise _not_utf8(path) from None


def _lines(path, newline: str | None = "\n") -> Iterator[str]:
    """A file's lines, without their ends, read BLOCK characters at a time.

    With the default ``newline`` (corpus, JSONL, config, logp) only LF ends a
    line, and a CR before it is part of the end: a U+2028, a form feed or a
    lone CR is text, so a JSON string that holds one stays on its line. With
    None (N-Triples), universal newlines: CR, LF and CRLF each end a line. A
    file that cannot be opened raises OSError when the first line is asked
    for; a non-UTF-8 byte raises InputFileError naming path:line when its
    block is read.
    """
    with open(path, encoding="utf-8", newline=newline) as fh:
        pieces = []  # the blocks of a line that no LF has ended yet
        try:
            while text := fh.read(BLOCK):
                pieces.append(text)
                if "\n" in text:  # a long line's blocks are joined once, not copied again on every block
                    text = "".join(pieces)  # finding no CR is faster than a replace that finds no CRLF
                    lines = (text.replace("\r\n", "\n") if "\r" in text else text).split("\n")
                    pieces = [lines.pop()]
                    del text  # else the joined block stays alive beside its lines while they are yielded
                    yield from lines
        except UnicodeDecodeError:  # its offset is into one block, not the file
            raise _not_utf8(path, newline) from None
    if rest := "".join(pieces):
        yield rest


def read_lines(path) -> list[str]:
    """A file's lines, by the rule of `_lines`; a byte that is not UTF-8 raises InputFileError naming path:line."""
    return list(_lines(path))


def nlq_tokens(line: str, path, i: int, words: dict | None = None) -> tuple[str, ...]:
    """The tokens of the question on line ``i`` of ``path``; a line with none raises InputFileError."""
    nlq = qlang.tokenize_nlq(line, words)
    if not nlq:
        raise InputFileError(f"{path}:{i}: empty NLQ line")
    return nlq


# (check, description) pairs for the keys of JSON records read from outside
STRING = (lambda v: isinstance(v, str), "a string")
STRING_LIST = (lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v), "a list of strings")
STRING_MAP = (lambda v: isinstance(v, dict) and all(isinstance(x, str) for x in v.values()),
              "an object of strings")


def _excerpt(value, width: int = 40) -> str:
    text = json.dumps(value, ensure_ascii=False)
    return text if len(text) <= width else text[:width - 3] + "..."


def json_record(text: str, path, line: int, required: dict, optional: dict | None = None) -> dict:
    """Parse the JSON object that starts at ``line`` of ``path`` and check its keys.

    ``required`` and ``optional`` map each key to a (check, description) pair.
    Invalid JSON, a value that is not an object, a missing required key and a
    key whose value fails its check raise InputFileError naming path, line and key.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputFileError(f"{path}:{line + exc.lineno - 1}: not valid JSON: {exc.msg}") from None
    except RecursionError:
        raise InputFileError(f"{path}:{line}: JSON nested too deeply") from None
    if not isinstance(doc, dict):
        raise InputFileError(f"{path}:{line}: expected a JSON object, got {_excerpt(doc)}")
    for key, (check, description) in {**(optional or {}), **required}.items():
        if key not in doc:
            if key in required:
                raise InputFileError(f"{path}:{line}: missing key {key!r}")
        elif not check(doc[key]):
            raise InputFileError(f"{path}:{line}: {key}: expected {description}, got {_excerpt(doc[key])}")
    return doc


def read_records(path, build, required: dict, optional: dict | None = None) -> list:
    """``build`` applied to each JSON record of a JSONL file, blank lines skipped.

    A record that passes ``json_record`` but that ``build`` rejects with a
    ValueError or SplitHygieneError raises InputFileError naming path and line.
    """
    out = []
    for i, line in enumerate(read_lines(path), start=1):
        if line.strip():
            doc = json_record(line, path, i, required, optional)
            try:
                out.append(build(doc))
            except (ValueError, SplitHygieneError) as exc:
                raise InputFileError(f"{path}:{i}: {exc}") from None
    return out


def _manifest_ids(path, split: str) -> tuple[list[str], list[str | None]]:
    """The ids a manifest lists for the split named ``split``, and each id's origin template id or None.

    Equal origin ids are one str. The document is dropped when this returns.
    """
    keys = {"assignments": STRING_MAP, "ids": STRING_LIST, "origins": STRING_MAP}
    doc = json_record(read_text(path), path, 1, {}, keys)
    if "assignments" in doc:
        ids = [k for k, v in doc["assignments"].items() if v == split]
    elif "ids" in doc:
        ids = doc["ids"]
        repeated = [i for i, n in Counter(ids).items() if n > 1]
        if repeated:
            raise InputFileError(f"{path}: duplicate id {repeated[0]!r}")
    else:
        raise InputFileError(f"{path}:1: missing key 'ids' (or 'assignments')")
    origins = doc.get("origins", {})
    shared: dict[str, str] = {}
    return ids, [None if (o := origins.get(i)) is None else shared.setdefault(o, o) for i in ids]


def read_parallel(nlq_path, query_path, manifest_path=None) -> list[Instance]:
    """Read line-aligned .nlq/.ql files into instances.

    Without a manifest, instance ids are ``line-<i>``. A manifest supplies
    ids (and origin template ids when recorded): either a partition manifest,
    whose per-split assignment order matches the file written for that split,
    or a plain ``{"ids": [...], "origins": {...}}`` object of distinct ids.
    Each query goes through one `qlang.query_checker`, so the parser runs
    once per query shape, and a row keeps its query's predicates, not its AST.
    A bad line raises InputFileError naming path and line, any parser offset kept.

    Both files are read twice, a block at a time (`_lines`): once to count
    their lines, once to build the rows, with the manifest read in between.
    Each fault is raised as it is found, in this order: the .nlq file, then
    the .ql file, cannot be read or is not UTF-8; their line counts differ;
    the manifest is bad, or lists another number of ids; the first bad line.
    A second read that gives another number of rows (a pipe, or a file
    changed between the reads) raises InputFileError naming both files.
    """
    n, n_query = (sum(1 for _ in _lines(path)) for path in (nlq_path, query_path))
    if n != n_query:
        raise LineCountMismatch(f"{nlq_path} has {n} lines but {query_path} has {n_query}")
    keys: Iterable[tuple[str, str | None]] = ((f"line-{i}", None) for i in count())
    if manifest_path is not None:
        ids, origins = _manifest_ids(manifest_path, Path(nlq_path).stem)
        if len(ids) != n:
            raise LineCountMismatch(f"manifest lists {len(ids)} ids for {nlq_path} but the file has {n} lines")
        keys = zip(ids, origins)
    out: list[Instance] = []
    check = qlang.query_checker()
    words: dict[str, tuple[str, ...]] = {}
    for i, ((key, origin), nlq_line, query_line) in enumerate(zip(keys, _lines(nlq_path), _lines(query_path)), start=1):
        nlq = nlq_tokens(nlq_line, nlq_path, i, words)
        try:
            predicates = check(query_line)
        except ParseError as exc:
            raise InputFileError(f"{query_path}:{i}: {exc}") from None
        out.append(Instance(key, nlq, query_line, predicates, origin))
    if len(out) != n:
        raise InputFileError(f"{nlq_path}, {query_path}: {n} lines counted, then {len(out)} rows read; "
                             "a corpus file must be a regular file that does not change while it is read")
    return out


def read_logp(path) -> list[list[float]]:
    """Space-separated per-token log probabilities, one line per sentence.

    A token that is not a number, or a line with no token, raises
    InputFileError naming path and line.
    """
    out = []
    for i, line in enumerate(read_lines(path), start=1):
        values = []
        for token in line.split():
            try:
                values.append(float(token))
            except ValueError:
                raise InputFileError(f"{path}:{i}: not a number: {token!r}") from None
        if not values:
            raise InputFileError(f"{path}:{i}: no log probabilities")
        out.append(values)
    return out


def write_text(path, text: str | Iterable[str]) -> None:
    """Write UTF-8 text with LF line endings; every file the package writes goes through here.

    Missing directories on the way are made first. ``text`` is a str or an
    iterable of str chunks, written one after another as they come. They go
    to a new temporary file beside the target, which then replaces the
    target in one rename: an interrupted write, or an error that the iterable
    raises mid-file, leaves either the old file or the new one, never a
    truncated one. A failed write raises the same OSError type naming `path`,
    not the temporary file.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "x", encoding="utf-8", newline="\n") as fh:
            fh.writelines((text,) if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.errno is not None:
            raise type(exc)(exc.errno, exc.strerror, str(path)) from None
        raise


def write_lines(path, lines) -> None:
    """Write one LF-terminated line per item, joined and written BATCH lines at a time."""
    def batches():
        rest = iter(lines)
        while batch := list(islice(rest, BATCH)):
            batch.append("")  # the end of the batch's last line
            yield "\n".join(batch)

    write_text(path, batches())


def write_parallel(out_dir, name: str, instances) -> None:
    """Write ``<name>.nlq`` and ``<name>.ql`` under out_dir, one instance per line."""
    out = Path(out_dir)
    write_lines(out / f"{name}.nlq", (i.nlq_text() for i in instances))
    write_lines(out / f"{name}.ql", (i.query_text for i in instances))


_SCALARS = {str, int, float, bool, type(None)}


def json_text(doc: dict[str, object]) -> Iterator[str]:
    """The chunks of ``json.dumps(doc, indent=2) + "\n"`` for a JSON object with string keys, with the same bytes.

    ``json.dumps`` encodes in pure Python when it indents. Here each value of
    the object that is a non-empty object or array of scalars (a manifest's
    id maps) goes through the C encoder BATCH members at a time, its item
    separator carrying the line break and the indent; a JSON string never
    holds a raw line break. No chunk holds more than one slice of a map.
    """
    if not doc:
        yield "{}\n"
        return
    head = "{\n"
    for key, value in doc.items():
        head += f"  {json.dumps(key)}: "
        is_object = isinstance(value, dict)
        if isinstance(value, (dict, list)) and value and set(
                map(type, value.values() if is_object else value)) <= _SCALARS:
            opening, closing = "{}" if is_object else "[]"
            items = iter(value.items() if is_object else value)
            head += opening + "\n    "
            while part := (dict if is_object else list)(islice(items, BATCH)):
                encoded = json.dumps(part, separators=(",\n    ", ": "))
                yield head + encoded[1:-1]  # the members, without the brackets around them
                head = ",\n    "
            yield "\n  " + closing
        else:
            yield head + json.dumps(value, indent=2).replace("\n", "\n  ")
        head = ",\n"
    yield "\n}\n"


def _origins(instances) -> dict[str, str]:
    """Each instance's origin template id, for the instances that have one; every manifest records these."""
    return {inst.id: inst.origin_template_id for inst in instances if inst.origin_template_id is not None}


def write_corpus(out_dir, instances) -> None:
    """Write ``instances.nlq``/``.ql`` and their corpus manifest, ``{"ids": [...], "origins": {...}}``."""
    out = Path(out_dir)
    write_parallel(out, "instances", instances)
    doc = {"ids": [inst.id for inst in instances], "origins": _origins(instances)}
    write_text(out / "instances.manifest.json", json_text(doc))


def write_split(out_dir, split3, manifest: dict) -> None:
    """Write train/valid/test as parallel .nlq/.ql files plus manifest.json."""
    out = Path(out_dir)
    for name, instances in (("train", split3.train), ("valid", split3.valid), ("test", split3.test)):
        write_parallel(out, name, instances)
    write_text(out / "manifest.json", json_text(manifest))


def make_manifest(split3, scheme: str, rng_seed: int, ratios, config_digest: str) -> dict:
    """The JSON document recording how a corpus was split; no timestamps.

    A leaky manifest records the ``ratios`` that cut it. A sanitized split
    routes test by template and cuts only its pool, so its manifest records
    ``valid_fraction`` (VALID_FRACTION) in their place. ``origins`` maps instance ids to origin
    template ids and is present only when some instance has one.
    """
    parts = {"train": split3.train, "valid": split3.valid, "test": split3.test}
    assignments = {inst.id: name for name, instances in parts.items() for inst in instances}
    origins = _origins(inst for instances in parts.values() for inst in instances)
    doc = {
        "scheme": scheme,
        "rng_seed": rng_seed,
        **({"ratios": list(ratios)} if scheme == LEAKY else {"valid_fraction": VALID_FRACTION}),
        "counts": [len(split3.train), len(split3.valid), len(split3.test)],
        "config_digest": config_digest,
        "assignments": assignments,
    }
    if origins:
        doc["origins"] = origins
    return doc


# ---------------------------------------------------------------------------
# Digests
# ---------------------------------------------------------------------------

def file_digest(paths) -> str:
    """SHA-256 of the given files' bytes, concatenated in order, read BLOCK bytes at a time.

    The hash is `rng.sha256`, CPython's built-in, so no command loads OpenSSL to hash its inputs. It runs at
    0.19-0.24 GB/s against ~1.1 GB/s for OpenSSL's: 186 MiB takes ~0.7 s more (2-CPU VM, Python 3.11).
    """
    h = sha256()
    for p in paths:
        with open(p, "rb") as fh:
            while chunk := fh.read(BLOCK):
                h.update(chunk)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Seeds on disk (JSONL)
# ---------------------------------------------------------------------------

def _is_surface_forms(value) -> bool:
    return isinstance(value, dict) and all(
        isinstance(entry, dict) and isinstance(entry.get("iri", ""), str)
        and isinstance(entry.get("span"), list) and len(entry["span"]) == 2
        and all(type(x) is int for x in entry["span"])
        for entry in value.values())


_SEED_KEYS = {"id": STRING, "nlq": STRING, "query": STRING}
_SURFACE_FORMS = {"surface_forms": (_is_surface_forms, 'an object of {"span": [start, end], "iri": ...} objects')}


def seed_from_dict(doc: dict) -> Seed:
    forms = {
        label: SurfaceForm(entry["span"][0], entry["span"][1], entry.get("iri"))
        for label, entry in doc.get("surface_forms", {}).items()
    }
    return Seed(doc["id"], qlang.tokenize_nlq(doc["nlq"]), doc["query"], qlang.query_checker()(doc["query"]),
                surface_forms=forms)


def read_seeds(path, extract=None) -> list:
    """The seeds of a seeds.jsonl file.

    With ``extract``, each item is ``(seed, extract(seed))`` instead, so an
    error that ``extract`` raises names the record's path and line.
    """
    if extract is None:
        return read_records(path, seed_from_dict, _SEED_KEYS, _SURFACE_FORMS)

    def build(doc):
        seed = seed_from_dict(doc)
        return seed, extract(seed)

    return read_records(path, build, _SEED_KEYS, _SURFACE_FORMS)
