"""Corpus records, line-aligned parallel I/O, manifests, and de-duplication.

A corpus on disk is a pair of UTF-8 text files, ``<name>.nlq`` and
``<name>.ql``, one record per line with LF endings, line-aligned. A partition
manifest is JSON holding the scheme, rng seed, ratios, per-instance split
assignments, counts, and a content digest of the inputs.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from . import qlang
from .errors import LineCountMismatch, ParseError

LEAKY = "leaky"
SANITIZED = "sanitized"


@dataclass(frozen=True)
class QAPair:
    """A natural-language question paired with a formal query."""

    nlq: tuple[str, ...]
    query_text: str
    query_ast: qlang.QueryAst

    def __post_init__(self):
        if not self.nlq:
            raise ValueError("NLQ token sequence must be non-empty")

    @classmethod
    def from_text(cls, nlq_text: str, query_text: str) -> "QAPair":
        return cls(qlang.tokenize_nlq(nlq_text), query_text, qlang.parse_query(query_text))

    @classmethod
    def from_ast(cls, nlq_tokens, ast: qlang.QueryAst) -> "QAPair":
        return cls(tuple(nlq_tokens), qlang.serialize(ast), ast)

    def nlq_text(self) -> str:
        return " ".join(self.nlq)


@dataclass(frozen=True)
class SurfaceForm:
    """A labeled span of NLQ tokens, optionally pinned to an entity IRI."""

    start: int
    end: int
    iri: str | None = None

    @property
    def span(self) -> tuple[int, int]:
        return (self.start, self.end)


@dataclass(frozen=True)
class Seed:
    """A curated question-query pair with labeled entity surface forms."""

    id: str
    pair: QAPair
    surface_forms: dict[str, SurfaceForm] = field(default_factory=dict)

    def __post_init__(self):
        n = len(self.pair.nlq)
        taken: set[int] = set()
        for label, sf in self.surface_forms.items():
            if not (0 <= sf.start < sf.end <= n):
                raise ValueError(f"seed {self.id}: span for {label!r} out of bounds")
            overlap = taken.intersection(range(sf.start, sf.end))
            if overlap:
                raise ValueError(f"seed {self.id}: span for {label!r} overlaps another span")
            taken.update(range(sf.start, sf.end))


@dataclass(frozen=True)
class Instance:
    """A question-query pair generated from (or attributed to) a template."""

    id: str
    pair: QAPair
    origin_template_id: str | None = None


@dataclass(frozen=True)
class PartitionManifest:
    """Deterministic record of how a corpus was split. No timestamps."""

    scheme: str
    rng_seed: int
    ratios: tuple[float, float, float]
    assignments: dict[str, str]
    counts: tuple[int, int, int]
    config_digest: str
    origins: dict[str, str] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# De-duplication
# ---------------------------------------------------------------------------

def canonical_key(pair: QAPair) -> str:
    """Lowercased single-spaced NLQ + whitespace-normalized query text.

    Query text keeps its case: IRIs are case-sensitive, questions are not.
    """
    nlq = " ".join(t.lower() for t in pair.nlq)
    query = " ".join(pair.query_text.split())
    return nlq + "\n" + query


def _pair_of(record) -> QAPair:
    return record.pair if hasattr(record, "pair") else record


def dedup(records):
    """Drop canonical-key duplicates, keeping first occurrences in order."""
    seen: set[str] = set()
    kept = []
    removed = 0
    for rec in records:
        key = canonical_key(_pair_of(rec))
        if key in seen:
            removed += 1
            continue
        seen.add(key)
        kept.append(rec)
    return kept, removed


# ---------------------------------------------------------------------------
# Parallel corpus I/O
# ---------------------------------------------------------------------------

def _read_lines(path) -> list[str]:
    return Path(path).read_text(encoding="utf-8").splitlines()


def read_parallel(nlq_path, query_path, manifest_path=None) -> list[Instance]:
    """Read line-aligned .nlq/.ql files into instances.

    Without a manifest, instance ids are ``line-<i>``. A manifest supplies
    ids (and origin template ids when recorded): either a partition manifest,
    whose per-split assignment order matches the file written for that split,
    or a plain ``{"ids": [...], "origins": {...}}`` object.
    """
    nlq_lines = _read_lines(nlq_path)
    query_lines = _read_lines(query_path)
    if len(nlq_lines) != len(query_lines):
        raise LineCountMismatch(
            f"{nlq_path} has {len(nlq_lines)} lines but {query_path} has {len(query_lines)}"
        )
    ids = [f"line-{i}" for i in range(len(nlq_lines))]
    origins: dict[str, str] = {}
    if manifest_path is not None:
        doc = json.loads(Path(manifest_path).read_text(encoding="utf-8"))
        if "assignments" in doc:
            split = Path(nlq_path).stem
            ids = [k for k, v in doc["assignments"].items() if v == split]
        else:
            ids = list(doc["ids"])
        origins = doc.get("origins", {})
        if len(ids) != len(nlq_lines):
            raise LineCountMismatch(
                f"manifest lists {len(ids)} ids for {nlq_path} but the file has {len(nlq_lines)} lines"
            )
    out: list[Instance] = []
    for i, (nlq_line, query_line) in enumerate(zip(nlq_lines, query_lines)):
        nlq = qlang.tokenize_nlq(nlq_line)
        if not nlq:
            raise ParseError(i, f"{nlq_path}: empty NLQ line")
        try:
            ast = qlang.parse_query(query_line)
        except ParseError as exc:
            raise ParseError(i, f"{query_path}: {exc.message}") from exc
        out.append(Instance(
            id=ids[i],
            pair=QAPair(nlq, query_line, ast),
            origin_template_id=origins.get(ids[i]),
        ))
    return out


def write_text(path, text: str) -> None:
    """Write UTF-8 text with LF line endings; every file the package writes goes through here."""
    Path(path).write_text(text, encoding="utf-8", newline="\n")


def write_lines(path, lines) -> None:
    """Write one LF-terminated line per item."""
    write_text(path, "".join(line + "\n" for line in lines))


def write_parallel(out_dir, name: str, instances) -> None:
    """Write ``<name>.nlq`` and ``<name>.ql`` under out_dir, one instance per line."""
    out = Path(out_dir)
    write_lines(out / f"{name}.nlq", [i.pair.nlq_text() for i in instances])
    write_lines(out / f"{name}.ql", [i.pair.query_text for i in instances])


def write_split(out_dir, split3, manifest: PartitionManifest) -> None:
    """Write train/valid/test as parallel .nlq/.ql files plus manifest.json."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, instances in (("train", split3.train), ("valid", split3.valid), ("test", split3.test)):
            write_parallel(out, name, instances)
        write_text(out / "manifest.json", manifest_to_json(manifest))
    except OSError as exc:
        raise OSError(f"writing split under {out}: {exc}") from exc


def record_id(record) -> str:
    """Instance id for full records; plain ids pass through unchanged."""
    return record.id if hasattr(record, "id") else str(record)


def make_manifest(split3, scheme: str, rng_seed: int, ratios, config_digest: str) -> PartitionManifest:
    assignments: dict[str, str] = {}
    origins: dict[str, str] = {}
    for name, instances in (("train", split3.train), ("valid", split3.valid), ("test", split3.test)):
        for inst in instances:
            assignments[record_id(inst)] = name
            origin = getattr(inst, "origin_template_id", None)
            if origin is not None:
                origins[record_id(inst)] = origin
    counts = (len(split3.train), len(split3.valid), len(split3.test))
    return PartitionManifest(
        scheme=scheme,
        rng_seed=rng_seed,
        ratios=tuple(ratios),
        assignments=assignments,
        counts=counts,
        config_digest=config_digest,
        origins=origins,
    )


def manifest_to_json(manifest: PartitionManifest) -> str:
    doc = {
        "scheme": manifest.scheme,
        "rng_seed": manifest.rng_seed,
        "ratios": list(manifest.ratios),
        "counts": list(manifest.counts),
        "config_digest": manifest.config_digest,
        "assignments": manifest.assignments,
    }
    if manifest.origins:
        doc["origins"] = manifest.origins
    return json.dumps(doc, indent=2) + "\n"


def manifest_from_json(text: str) -> PartitionManifest:
    doc = json.loads(text)
    return PartitionManifest(
        scheme=doc["scheme"],
        rng_seed=doc["rng_seed"],
        ratios=tuple(doc["ratios"]),
        assignments=dict(doc["assignments"]),
        counts=tuple(doc["counts"]),
        config_digest=doc["config_digest"],
        origins=dict(doc.get("origins", {})),
    )


# ---------------------------------------------------------------------------
# Digests
# ---------------------------------------------------------------------------

def corpus_digest(instances) -> str:
    """SHA-256 over the corpus exactly as its parallel files would concatenate."""
    h = hashlib.sha256()
    for inst in instances:
        h.update(inst.pair.nlq_text().encode("utf-8"))
        h.update(b"\n")
    for inst in instances:
        h.update(inst.pair.query_text.encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


def file_digest(paths) -> str:
    """SHA-256 of the given files' bytes, concatenated in order."""
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Seeds on disk (JSONL)
# ---------------------------------------------------------------------------

def seed_to_dict(seed: Seed) -> dict:
    forms = {}
    for label in sorted(seed.surface_forms):
        sf = seed.surface_forms[label]
        entry: dict = {"span": [sf.start, sf.end]}
        if sf.iri is not None:
            entry["iri"] = sf.iri
        forms[label] = entry
    return {
        "id": seed.id,
        "nlq": seed.pair.nlq_text(),
        "query": seed.pair.query_text,
        "surface_forms": forms,
    }


def seed_from_dict(doc: dict) -> Seed:
    forms = {
        label: SurfaceForm(entry["span"][0], entry["span"][1], entry.get("iri"))
        for label, entry in doc.get("surface_forms", {}).items()
    }
    return Seed(id=doc["id"], pair=QAPair.from_text(doc["nlq"], doc["query"]), surface_forms=forms)


def write_seeds(path, seeds) -> None:
    write_lines(path, [json.dumps(seed_to_dict(s)) for s in seeds])


def read_seeds(path) -> list[Seed]:
    return [seed_from_dict(json.loads(line)) for line in _read_lines(path) if line.strip()]
