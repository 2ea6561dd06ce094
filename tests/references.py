"""Independent brute-force reference implementations used as test oracles.

These deliberately share no code with the package: n-gram clipping is done by
multiset intersection, BGP evaluation by exhaustive nested loops over the
triple list, slot matching by enumerating every segmentation, and subsequence
checking by trying every index mapping. The exceptions are the package's
earlier loops kept as references for their fast replacements. The memorizer
training reference is the per-partition trainer, which harvests every train
instance's labels (reading each template back from the query that the
reference parser reads, where the package matches the query text against
the template's compiled form) and lists, for each question
token, the fallback positions holding it; a model that selects rows of a
once-per-corpus index must agree with it field for field, and its fallback
tables must be these postings cut into frequent and rare tokens. It shares
the IRI-label convention of `synthesis` (`label_to_iri_form` and the
namespace rule). The memorizer
prediction reference is the linear-scan prediction: it calls the package's
matcher and the reference binder, and differs from the indexed prediction
only in how it finds the template candidates and the nearest training
question. The binder reference rebuilds a template's query term by term,
where the package fills in a form compiled once per template. The attribution
reference tries the matcher on every template, with no pre-filter, and the
template-split reference tries it on every (template, seed) pair; both read
a template's concrete predicates with their own loop over its patterns. The
sanitized-split reference keeps the two-set candidate rule (meets the
held-out templates, misses the train ones) where the package tests that
every attributed template is held out. The N-Triples reader reference
iterates the file with universal newlines and numbers a non-UTF-8 byte by
the line ends before it in the whole file, where the package reads through
the corpus line reader. The
n-gram LM reference is the dict-of-Counters model, counted one token and
order at a time; the indexed LM must give the same float for every token.
The read-back reference compares the parsed query with the template's term
by term: the same form, the same SELECT list, as many patterns, and each
placeholder unified with one IRI, where the package matches text against a
regular expression. The parallel
reader reference reads both files whole, then the manifest, then parses
every query, where the package streams the files and checks queries
through one memo of shapes. The query parser
reference is the character scanner, which reads one character at a time where
the package walks lexemes, and the tokenizer reference runs the
trailing-punctuation loop on every token. The random stream reference is
numpy's Philox generator, which the package drew from before it drew the same
words in pure Python, keyed by the stream label's word as hashlib's SHA-256
computes it, where `rng` takes CPython's built-in SHA-256.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from splithygiene import kgstore, metrics, rng
from splithygiene.attribution import AttributionIndex
from splithygiene.baselines import BOS, EOS, UNK
from splithygiene.corpus import STRING_LIST, STRING_MAP, Instance, QAPair, json_record
from splithygiene.errors import EmptyCorpus, InputFileError, LineCountMismatch, ParseError
from splithygiene.qlang import (
    ASK,
    SELECT_DISTINCT,
    Iri,
    Placeholder,
    QueryAst,
    Slot,
    Term,
    TriplePattern,
    Var,
    Word,
    extract_predicates,
    match_nlq,
    predicates_subsequence,
    serialize,
    span_tokens,
)
from splithygiene.synthesis import _DEFAULT_NAMESPACE, _namespace, label_to_iri_form


# ---------------------------------------------------------------------------
# BLEU
# ---------------------------------------------------------------------------

def ref_corpus_bleu(candidates, references) -> dict:
    correct = [0, 0, 0, 0]
    total = [0, 0, 0, 0]
    cand_len = 0
    ref_len = 0
    for cand, ref in zip(candidates, references):
        cand = list(cand)
        ref = list(ref)
        cand_len += len(cand)
        ref_len += len(ref)
        for n in range(1, 5):
            cand_grams = [tuple(cand[i:i + n]) for i in range(len(cand) - n + 1)]
            ref_grams = Counter(tuple(ref[i:i + n]) for i in range(len(ref) - n + 1))
            total[n - 1] += len(cand_grams)
            # multiset intersection, one gram at a time
            remaining = dict(ref_grams)
            for gram in cand_grams:
                if remaining.get(gram, 0) > 0:
                    remaining[gram] -= 1
                    correct[n - 1] += 1
    precisions = [c / t if t else 0.0 for c, t in zip(correct, total)]
    if cand_len == 0:
        bp = 0.0
    elif cand_len > ref_len:
        bp = 1.0
    else:
        bp = math.exp(1 - ref_len / cand_len)
    if all(p > 0 for p in precisions):
        bleu = 100.0 * bp * math.exp(sum(math.log(p) for p in precisions) / 4)
    else:
        bleu = 0.0
    return {"bleu": bleu, "precisions": precisions, "bp": bp,
            "candidate_len": cand_len, "reference_len": ref_len}


# ---------------------------------------------------------------------------
# Basic graph pattern evaluation
# ---------------------------------------------------------------------------

def _ref_unify(pattern, triple, binding):
    out = dict(binding)
    for term, value in zip(pattern, triple):
        if isinstance(term, Iri):
            if term.value != value:
                return None
        else:  # Var
            if out.get(term.name, value) != value:
                return None
            out[term.name] = value
    return out


def ref_eval(triples, ast):
    """Exhaustive nested-loop BGP join over a triple list."""
    triples = sorted(triples)
    bindings = [{}]
    for pattern in ast.patterns:
        new = []
        for binding in bindings:
            for triple in triples:
                unified = _ref_unify(pattern, triple, binding)
                if unified is not None:
                    new.append(unified)
        bindings = new
    if ast.form == "ask":
        return bool(bindings)
    rows = {tuple(b[v] for v in ast.select_vars) for b in bindings}
    return [dict(zip(ast.select_vars, row)) for row in sorted(rows)]


# ---------------------------------------------------------------------------
# Query parsing and NLQ tokenization
# ---------------------------------------------------------------------------

_REF_SLOT_MARKER = re.compile(r"<([A-Z][A-Z0-9]*)>\Z")
_REF_VAR_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_REF_LABEL = re.compile(r"[A-Z][A-Z0-9]*\Z")
_REF_SENTENCE_PUNCT = ("?", "!", ".")


class _RefScanner:
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
            if not _REF_LABEL.match(label):
                raise ParseError(start, f"malformed placeholder label {label!r}")
            return Placeholder(label)
        return Iri(content)

    def variable(self) -> Var:
        self.skip_ws()
        start = self.pos
        if self.peek() != "?":
            raise self.fail("'?'")
        m = _REF_VAR_NAME.match(self.text, start + 1)
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


def ref_parse_query(text: str) -> QueryAst:
    """The character scanner that parsed every query before the compiled-regex acceptor."""
    sc = _RefScanner(text)
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


def ref_tokenize_nlq(text: str) -> tuple[str, ...]:
    """The tokenizer loop that ran on every token before the fast path for tokens with no trailing ?!."""
    out: list[str] = []
    for raw in text.split():
        trailing: list[str] = []
        while len(raw) > 1 and raw[-1] in _REF_SENTENCE_PUNCT and not _REF_SLOT_MARKER.match(raw):
            trailing.append(raw[-1])
            raw = raw[:-1]
        out.append(raw if _REF_SLOT_MARKER.match(raw) else raw.lower())
        out.extend(reversed(trailing))
    return tuple(out)


# ---------------------------------------------------------------------------
# Slot matching
# ---------------------------------------------------------------------------

def ref_match_all(pattern, nlq):
    """Every valid slot segmentation, as tuples of per-slot (start, end)."""
    elems = pattern.elements
    tokens = list(nlq)
    slots = [e.label for e in elems if isinstance(e, Slot)]
    results = []

    def walk(e, i, acc):
        if e == len(elems):
            if i == len(tokens):
                results.append(tuple(acc))
            return
        el = elems[e]
        if isinstance(el, Word):
            if i < len(tokens) and tokens[i].casefold() == el.token.casefold():
                walk(e + 1, i + 1, acc)
            return
        for end in range(i + 1, len(tokens) + 1):
            walk(e + 1, end, acc + [(i, end)])

    walk(0, 0, [])
    return slots, results


def ref_match_nlq(pattern, nlq):
    """Leftmost-shortest segmentation: lexicographically minimal span lengths."""
    slots, results = ref_match_all(pattern, nlq)
    if not results:
        return None
    best = min(results, key=lambda spans: tuple(end - start for start, end in spans))
    return dict(zip(slots, best))


def ref_subsequence(template_preds, instance_preds) -> bool:
    a, b = list(template_preds), list(instance_preds)
    if len(a) > len(b):
        return False
    for positions in itertools.combinations(range(len(b)), len(a)):
        if all(a[i] == b[p] for i, p in enumerate(positions)):
            return True
    return False


# ---------------------------------------------------------------------------
# De-duplication
# ---------------------------------------------------------------------------

def ref_dedup_keys(keys):
    """Pairwise-comparison dedup of canonical keys, first occurrence kept."""
    kept = []
    for key in keys:
        if not any(key == existing for existing in kept):
            kept.append(key)
    return kept


# ---------------------------------------------------------------------------
# Parallel corpus reading
# ---------------------------------------------------------------------------

def _ref_read_text(path) -> str:
    """The whole file decoded at once; a byte that is not UTF-8 is named by the LFs before it."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise InputFileError(f"{path}:{line}: not UTF-8 text ({exc.reason})") from None


def _ref_read_lines(path) -> list[str]:
    """The whole file decoded at once, CRLF turned into LF, and split at LF."""
    lines = _ref_read_text(path).replace("\r\n", "\n").split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


def ref_read_parallel(nlq_path, query_path, manifest_path=None) -> list[Instance]:
    """The reader that holds both files' lines: each file read whole, then the manifest, then the rows.

    Every query is parsed on its own, where the package checks it through
    one memo of query shapes.
    """
    nlq_lines = _ref_read_lines(nlq_path)
    query_lines = _ref_read_lines(query_path)
    if len(nlq_lines) != len(query_lines):
        raise LineCountMismatch(f"{nlq_path} has {len(nlq_lines)} lines but {query_path} has {len(query_lines)}")
    ids = [f"line-{i}" for i in range(len(nlq_lines))]
    origins: dict[str, str] = {}
    if manifest_path is not None:
        keys = {"assignments": STRING_MAP, "ids": STRING_LIST, "origins": STRING_MAP}
        doc = json_record(_ref_read_text(manifest_path), manifest_path, 1, {}, keys)
        if "assignments" in doc:
            split = Path(nlq_path).stem
            ids = [k for k, v in doc["assignments"].items() if v == split]
        elif "ids" in doc:
            ids = list(doc["ids"])
            repeated = [i for i, n in Counter(ids).items() if n > 1]
            if repeated:
                raise InputFileError(f"{manifest_path}: duplicate id {repeated[0]!r}")
        else:
            raise InputFileError(f"{manifest_path}:1: missing key 'ids' (or 'assignments')")
        origins = doc.get("origins", {})
        if len(ids) != len(nlq_lines):
            raise LineCountMismatch(
                f"manifest lists {len(ids)} ids for {nlq_path} but the file has {len(nlq_lines)} lines")
    out = []
    for i, (nlq_line, query_line) in enumerate(zip(nlq_lines, query_lines)):
        nlq = ref_tokenize_nlq(nlq_line)
        if not nlq:
            raise InputFileError(f"{nlq_path}:{i + 1}: empty NLQ line")
        try:
            ast = ref_parse_query(query_line)
        except ParseError as exc:
            raise InputFileError(f"{query_path}:{i + 1}: {exc}") from None
        predicates = [p.value for _, p, _ in ast.patterns if isinstance(p, Iri)]
        pair = QAPair(nlq, query_line, tuple(predicates) if len(predicates) == len(ast.patterns) else None)
        out.append(Instance(ids[i], pair, origins.get(ids[i])))
    return out


# ---------------------------------------------------------------------------
# N-Triples reading
# ---------------------------------------------------------------------------

_REF_LINE_END = re.compile(rb"\r\n?|\n")  # as universal newlines end a line


def ref_load_ntriples(path) -> tuple[set[tuple[str, str, str]], int, tuple[int, ...]]:
    """(triples, skipped literal lines, malformed line numbers) of an N-Triples file.

    The file is iterated as a text file with universal newlines. A byte that
    is not UTF-8 is found by decoding the whole file again, and its line is
    numbered by the CRLF, CR and LF ends before it. Lines are parsed with
    the package's own triple and IRI-object patterns.
    """
    triples, skipped, malformed = set(), 0, []
    with open(path, encoding="utf-8") as fh:
        try:
            lines = list(fh)
        except UnicodeDecodeError:
            data = Path(path).read_bytes()
            try:
                data.decode("utf-8")
            except UnicodeDecodeError as exc:
                line = len(_REF_LINE_END.findall(data, 0, exc.start)) + 1
                raise InputFileError(f"{path}:{line}: not UTF-8 text ({exc.reason})") from None
            raise
    for line_no, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        m = kgstore._TRIPLE_LINE.match(stripped)
        obj = m and kgstore._IRI_OBJECT.match(m.group(3))
        if obj:
            triples.add((m.group(1), m.group(2), obj.group(1)))
        elif m and m.group(3).startswith('"'):
            skipped += 1
        else:
            malformed.append(line_no)
    return triples, skipped, tuple(malformed)


# ---------------------------------------------------------------------------
# Memorizer training
# ---------------------------------------------------------------------------

@dataclass
class RefMemorizer:
    templates: dict
    label_index: dict[str, str]
    fallback: list
    entity_namespace: str
    postings: dict[str, np.ndarray]  # every question token: the fallback positions holding it
    sizes: np.ndarray


def ref_harvest(inst, index: AttributionIndex) -> list[tuple[str, str]]:
    """The (slot text, IRI) pairs of an instance: its origin template's if attributed, else each attributed one's.

    Each template's bindings come from the matcher and its IRIs from reading
    it back from the query that the reference parser reads from the query text.
    """
    attributed = index.attributed(inst.id)
    origin = inst.origin_template_id
    labels = []
    for tid in [origin] if origin in attributed else attributed:
        template = index.templates[tid]
        bindings = match_nlq(template.nlq_pattern, inst.pair.nlq)
        iris = ref_read_back(template, ref_parse_query(inst.pair.query_text))
        if iris is None:
            continue
        for label, span in bindings.items():
            labels.append((" ".join(span_tokens(inst.pair.nlq, span)), iris[label]))
    return labels


def ref_train_memorizer(train_instances, index: AttributionIndex) -> RefMemorizer:
    """Store the templates `index` attributes to train, and harvest a label-to-IRI index.

    Labels are harvested in training order, the first IRI bound to a text kept.
    """
    train = list(train_instances)
    label_index: dict[str, str] = {}
    for inst in train:
        for text, iri in ref_harvest(inst, index):
            label_index.setdefault(text, iri)
    namespaces = Counter(_namespace(iri) for iri in label_index.values())
    namespace = namespaces.most_common(1)[0][0] if namespaces else _DEFAULT_NAMESPACE
    seen = index.tally(train)
    fallback = sorted(train, key=lambda inst: inst.id)  # stable: ties keep training order
    distinct = [set(inst.pair.nlq) for inst in fallback]
    postings: dict[str, list[int]] = {}
    for pos, tokens in enumerate(distinct):
        for token in tokens:
            postings.setdefault(token, []).append(pos)
    return RefMemorizer(
        templates={tid: t for tid, t in index.templates.items() if tid in seen},
        label_index=label_index,
        fallback=fallback,
        entity_namespace=namespace,
        postings={token: np.array(positions, dtype=np.int64) for token, positions in postings.items()},
        sizes=np.array([len(tokens) for tokens in distinct], dtype=np.int64),
    )


# ---------------------------------------------------------------------------
# Placeholder binding
# ---------------------------------------------------------------------------

def ref_bind_placeholders(template, row: dict[str, str]) -> QueryAst:
    """The template's query with each placeholder X replaced by the IRI ``row[x]``, rebuilt term by term."""
    patterns = tuple(
        tuple(Iri(row[t.label.lower()]) if isinstance(t, Placeholder) else t for t in pattern)
        for pattern in template.query_pattern.patterns)
    return QueryAst(template.query_pattern.form, template.query_pattern.select_vars, patterns)


# ---------------------------------------------------------------------------
# Memorizer prediction
# ---------------------------------------------------------------------------

def ref_memorizer_predict(model, nlq) -> list[str]:
    """Try every seen template, then scan every training question for the best Jaccard."""
    tokens = tuple(nlq)
    matches = []
    for tid in sorted(model.templates):
        template = model.templates[tid]
        bindings = match_nlq(template.nlq_pattern, tokens)
        if bindings is None:
            continue
        slot_total = sum(end - start for start, end in bindings.values())
        matches.append((slot_total, tid, template, bindings))
    if matches:
        _, _, template, bindings = min(matches, key=lambda m: (m[0], m[1]))
        row = {}
        for label, span in bindings.items():
            text = " ".join(span_tokens(tokens, span))
            iri = model.label_index.get(text)
            if iri is None:
                iri = label_to_iri_form(text, model.entity_namespace)
            row[label.lower()] = iri
        return serialize(ref_bind_placeholders(template, row)).split()
    if not model.fallback:
        return []
    question = set(tokens)

    def jaccard(inst) -> float:
        other = set(inst.pair.nlq)
        union = question | other
        return len(question & other) / len(union) if union else 0.0

    chosen = min(model.fallback, key=lambda inst: (-jaccard(inst), inst.id))
    return chosen.pair.query_text.split()


# ---------------------------------------------------------------------------
# Placeholder read-back
# ---------------------------------------------------------------------------

def _ref_unify_term(t_term, i_term, mapping: dict[str, str]) -> bool:
    """Unify one template term with one query term, binding a placeholder in `mapping`."""
    if isinstance(t_term, Placeholder):
        return isinstance(i_term, Iri) and mapping.setdefault(t_term.label, i_term.value) == i_term.value
    return t_term == i_term


def ref_read_back(template, instance_ast):
    """Each placeholder label's IRI when the query is the template's query with one IRI per placeholder, else None."""
    t_ast = template.query_pattern
    if (t_ast.form, t_ast.select_vars) != (instance_ast.form, instance_ast.select_vars):
        return None
    if len(t_ast.patterns) != len(instance_ast.patterns):
        return None
    mapping: dict[str, str] = {}
    for t_pattern, i_pattern in zip(t_ast.patterns, instance_ast.patterns):
        for t_term, i_term in zip(t_pattern, i_pattern):
            if not _ref_unify_term(t_term, i_term, mapping):
                return None
    return mapping


# ---------------------------------------------------------------------------
# Attribution
# ---------------------------------------------------------------------------

def ref_concrete_predicates(ast) -> list[str]:
    """The IRI predicates of a query in triple order, the patterns with a placeholder predicate skipped."""
    out = []
    for _, pred, _ in ast.patterns:
        if isinstance(pred, Iri):
            out.append(pred.value)
    return out


def ref_template_matches_seed(template, seed) -> bool:
    """True when the NLQs align slot-wise and the predicate lists are equal."""
    if match_nlq(template.nlq_pattern, seed.pair.nlq) is None:
        return False
    return ref_concrete_predicates(template.query_pattern) == extract_predicates(ref_parse_query(seed.pair.query_text))


def ref_split_templates(templates, seeds, seed_test_ids) -> tuple[set[str], set[str], set[str]]:
    """(train, test, both-matched) template ids, every (template, seed) pair tried."""
    train, test, both = set(), set(), set()
    for t in templates:
        sides = {s.id in seed_test_ids for s in seeds if ref_template_matches_seed(t, s)}
        (test if True in sides else train).add(t.id)
        if len(sides) == 2:
            both.add(t.id)
    return train, test, both


def ref_sanitized_partition(instances, train_ids, test_ids, index: AttributionIndex, rng_seed: int):
    """(train, valid, test) by the two-set rule: a test candidate's attributed templates meet
    `test_ids` and miss `train_ids`; candidates sharing a template with the pool are demoted until
    none do, and the seeded cut takes a tenth of the pool, rounded down, for valid."""
    attributed = {inst.id: set(index.attributed(inst.id)) for inst in instances}
    in_test = {i: bool(ts & test_ids) and not ts & train_ids for i, ts in attributed.items()}
    while True:
        pool_templates = set().union(*(ts for i, ts in attributed.items() if not in_test[i]))
        demote = [i for i, ts in attributed.items() if in_test[i] and ts & pool_templates]
        if not demote:
            break
        in_test.update(dict.fromkeys(demote, False))
    pool = [inst for inst in instances if not in_test[inst.id]]
    n_valid = len(pool) // 10
    valid, train = rng.seeded_cut(pool, (n_valid, len(pool) - n_valid), rng_seed, "sanitized-valid")
    return list(train), list(valid), [inst for inst in instances if in_test[inst.id]]


def ref_attribute_instance(instance, templates) -> list[str]:
    """Try every template's matcher, then its predicate rule."""
    instance_preds = extract_predicates(ref_parse_query(instance.pair.query_text))
    out = []
    for t in sorted(templates, key=lambda t: t.id):
        if match_nlq(t.nlq_pattern, instance.pair.nlq) is None:
            continue
        if predicates_subsequence(ref_concrete_predicates(t.query_pattern), instance_preds):
            out.append(t.id)
    return out


# ---------------------------------------------------------------------------
# Add-k n-gram language model
# ---------------------------------------------------------------------------

@dataclass
class RefNGramLM:
    order: int
    k: float
    vocab: frozenset[str]
    counts: dict[int, dict[tuple, Counter]] = field(repr=False)
    context_totals: dict[int, dict[tuple, int]] = field(repr=False)

    @property
    def vocab_size(self) -> int:
        return len(self.vocab)


def ref_train_ngram_lm(sentences, order: int = 5, k: float = 0.1) -> RefNGramLM:
    """Count n-grams of every order up to `order` with begin/end markers."""
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if not (math.isfinite(k) and k > 0):
        raise ValueError(f"smoothing constant must be finite and > 0, got {k}")
    corpus = [list(s) for s in sentences]
    if not corpus:
        raise EmptyCorpus("no training sentences")
    vocab = {tok for sent in corpus for tok in sent}
    vocab.update((EOS, UNK))
    counts: dict[int, dict[tuple, Counter]] = {m: {} for m in range(1, order + 1)}
    totals: dict[int, dict[tuple, int]] = {m: {} for m in range(1, order + 1)}
    for sent in corpus:
        padded = [BOS] * (order - 1) + sent + [EOS]
        for pos in range(order - 1, len(padded)):
            token = padded[pos]
            for m in range(1, order + 1):
                ctx = tuple(padded[pos - m + 1:pos])
                counts[m].setdefault(ctx, Counter())[token] += 1
                totals[m][ctx] = totals[m].get(ctx, 0) + 1
    return RefNGramLM(order=order, k=k, vocab=frozenset(vocab), counts=counts, context_totals=totals)


def _ref_map_token(lm: RefNGramLM, token: str) -> str | None:
    """The token, or None for one outside the vocabulary: no sentence holds None, so it is never trained."""
    return token if token in lm.vocab or token == BOS else None


def ref_token_log_prob(lm: RefNGramLM, context, token: str) -> float:
    """log P(token | context) with add-k smoothing and unseen-context backoff."""
    w = _ref_map_token(lm, token)
    history = [_ref_map_token(lm, t) for t in context]
    v = lm.vocab_size
    for m in range(lm.order, 1, -1):
        ctx = tuple(([BOS] * (m - 1) + history)[-(m - 1):])
        total = lm.context_totals[m].get(ctx)
        if total:
            count = lm.counts[m][ctx][w]
            return math.log((count + lm.k) / (total + lm.k * v))
    total = lm.context_totals[1].get((), 0)
    count = lm.counts[1].get((), Counter())[w]
    return math.log((count + lm.k) / (total + lm.k * v))


def ref_score_sentence(lm: RefNGramLM, tokens) -> list[float]:
    """Per-token log probabilities, including the end-of-sentence marker."""
    sent = list(tokens)
    out = []
    history: list[str] = []
    for token in sent + [EOS]:
        out.append(ref_token_log_prob(lm, history, token))
        history.append(token)
    return out


def ref_lm_perplexity(lm: RefNGramLM, sentences) -> float:
    corpus = [list(s) for s in sentences]
    if not corpus:
        raise EmptyCorpus("no evaluation sentences")
    return metrics.perplexity([ref_score_sentence(lm, sent) for sent in corpus])


# ---------------------------------------------------------------------------
# random stream
# ---------------------------------------------------------------------------

def ref_stream_word(parts: tuple) -> int:
    """The first 8 bytes, big-endian, of hashlib's SHA-256 of the label's parts as text joined by U+001F."""
    return int.from_bytes(hashlib.sha256("\x1f".join(map(str, parts)).encode("utf-8")).digest()[:8], "big")


def ref_generator(seed: int, *stream) -> np.random.Generator:
    """numpy's Philox4x64-10 generator keyed by (seed, the stream label's word)."""
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(ref_stream_word(stream))])
    return np.random.Generator(np.random.Philox(key=key))
