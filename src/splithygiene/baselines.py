"""Desk-scale baseline models that expose the leaky/sanitized gap.

The memorizer stores the templates seen in training and answers by template
lookup plus a label-to-IRI index, so it is near-perfect on questions from
seen templates and falls back to nearest-neighbour copying otherwise. The
n-gram language model scores query token sequences with add-k smoothing and
backoff, providing the perplexity axis.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import metrics
from .attribution import AttributionIndex
from .errors import EmptyCorpus
from .qlang import Iri, Placeholder, QueryAst, Var, match_nlq, serialize, span_tokens
from .synthesis import Template, bind_placeholders

BOS = "<s>"
EOS = "</s>"
UNK = "<unk>"

_DEFAULT_NAMESPACE = "http://example.org/resource/"


# ---------------------------------------------------------------------------
# Template memorizer
# ---------------------------------------------------------------------------

@dataclass
class MemorizerModel:
    """Seen templates, harvested labels, and the indexes prediction reads.

    ``postings`` maps each distinct train question token to the sorted train
    positions holding it; ``sizes`` is the distinct-token count of each train
    question and ``id_rank`` the rank of each train instance in id order (then
    position). ``template_words`` holds each seen template's case-folded
    literal words.
    """

    templates: dict[str, Template]
    label_index: dict[str, str]
    fallback: list  # train instances, in training order
    postings: dict[str, np.ndarray] = field(repr=False)
    sizes: np.ndarray = field(repr=False)
    id_rank: np.ndarray = field(repr=False)
    template_words: dict[str, frozenset[str]] = field(repr=False)
    entity_namespace: str = _DEFAULT_NAMESPACE


def _unify_pattern(template_pattern, instance_pattern, mapping: dict[str, str]) -> dict[str, str] | None:
    out = dict(mapping)
    for t_term, i_term in zip(template_pattern, instance_pattern):
        if isinstance(t_term, Placeholder):
            if not isinstance(i_term, Iri):
                return None
            bound = out.get(t_term.label)
            if bound is not None and bound != i_term.value:
                return None
            out[t_term.label] = i_term.value
        elif isinstance(t_term, Iri):
            if not isinstance(i_term, Iri) or t_term.value != i_term.value:
                return None
        else:  # Var
            if not isinstance(i_term, Var) or t_term.name != i_term.name:
                return None
    return out


def align_placeholders(template: Template, instance_ast: QueryAst) -> dict[str, str] | None:
    """Map each placeholder label to the IRI it binds in the instance query.

    Template patterns are aligned to an ordered subsequence of the instance
    patterns; None when no consistent alignment exists.
    """
    t_pats = template.query_pattern.patterns
    i_pats = instance_ast.patterns

    def walk(ti: int, ii: int, mapping: dict[str, str]):
        if ti == len(t_pats):
            return mapping
        if len(i_pats) - ii < len(t_pats) - ti:
            return None
        unified = _unify_pattern(t_pats[ti], i_pats[ii], mapping)
        if unified is not None:
            result = walk(ti + 1, ii + 1, unified)
            if result is not None:
                return result
        return walk(ti, ii + 1, mapping)

    return walk(0, 0, {})


def _namespace(iri: str) -> str:
    for sep in ("#", "/"):
        pos = iri.rfind(sep)
        if pos > len("http://"):
            return iri[:pos + 1]
    return _DEFAULT_NAMESPACE


def train_memorizer(train_instances, templates, index: AttributionIndex) -> MemorizerModel:
    """Store seen templates and harvest a label-to-IRI index from train."""
    by_id = {t.id: t for t in templates}
    train = list(train_instances)
    seen_ids = sorted({tid for inst in train for tid in index.attributed(inst.id)})
    label_index: dict[str, str] = {}
    for inst in train:
        attributed = index.attributed(inst.id)
        if inst.origin_template_id in attributed:
            candidates = [inst.origin_template_id]
        else:
            candidates = list(attributed)
        for tid in candidates:
            template = by_id.get(tid)
            if template is None:
                continue
            bindings = match_nlq(template.nlq_pattern, inst.pair.nlq)
            if bindings is None:
                continue
            iris = align_placeholders(template, inst.pair.query_ast)
            if iris is None:
                continue
            for label, span in bindings.items():
                text = " ".join(span_tokens(inst.pair.nlq, span))
                label_index.setdefault(text, iris[label])
    namespaces = Counter(_namespace(iri) for iri in label_index.values())
    namespace = namespaces.most_common(1)[0][0] if namespaces else _DEFAULT_NAMESPACE
    seen = {tid: by_id[tid] for tid in seen_ids if tid in by_id}
    postings: dict[str, list[int]] = {}
    sizes = []
    for pos, inst in enumerate(train):
        distinct = set(inst.pair.nlq)
        sizes.append(len(distinct))
        for token in distinct:
            postings.setdefault(token, []).append(pos)
    id_order = sorted(range(len(train)), key=lambda pos: (train[pos].id, pos))
    id_rank = np.zeros(len(train), dtype=np.int64)
    id_rank[np.array(id_order, dtype=np.int64)] = np.arange(len(train))
    return MemorizerModel(
        templates=seen,
        label_index=label_index,
        fallback=train,
        entity_namespace=namespace,
        postings={token: np.array(positions, dtype=np.int64) for token, positions in postings.items()},
        sizes=np.array(sizes, dtype=np.int64),
        id_rank=id_rank,
        template_words={tid: t.nlq_pattern.words for tid, t in seen.items()},
    )


def label_to_iri_form(text: str, namespace: str) -> str:
    """Reverse the label convention: capitalize words, join with underscores."""
    return namespace + "_".join(w.capitalize() for w in text.split())


def memorizer_predict(model: MemorizerModel, nlq) -> list[str]:
    """Predict the formal-query token sequence for a question.

    Seen templates matching the question compete; the one binding the fewest
    slot tokens wins (then lowest template id). A template whose case-folded
    literal words are not all among the question's case-folded tokens cannot
    match and is skipped. Slot texts are resolved via the label index, falling
    back to the IRI naming convention. When no template matches, the training
    question with the highest Jaccard similarity of distinct tokens supplies
    its query verbatim, ties going to the lowest instance id. Overlaps are
    counted from the token postings, and the union is |q| + |t| - overlap, so
    each score is the same correctly rounded quotient a set-based
    ``len(q & t) / len(q | t)`` gives.
    """
    tokens = tuple(nlq)
    folded = {t.casefold() for t in tokens}
    matches = []
    for tid in sorted(model.templates):
        if not model.template_words[tid] <= folded:
            continue
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
        return serialize(bind_placeholders(template, row)).split()
    if not model.fallback:
        return []
    question = set(tokens)
    hits = [model.postings[t] for t in question if t in model.postings]
    if hits:
        overlap = np.bincount(np.concatenate(hits), minlength=len(model.fallback))
        scores = overlap / (len(question) + model.sizes - overlap)
        best = np.flatnonzero(scores == scores.max())
    else:  # every score is 0: the lowest id over all of train
        best = np.arange(len(model.fallback))
    chosen = model.fallback[best[np.argmin(model.id_rank[best])]]
    return chosen.pair.query_text.split()


# ---------------------------------------------------------------------------
# Add-k n-gram language model over query tokens
# ---------------------------------------------------------------------------

@dataclass
class NGramLM:
    order: int
    k: float
    vocab: frozenset[str]
    counts: dict[int, dict[tuple, Counter]] = field(repr=False)
    context_totals: dict[int, dict[tuple, int]] = field(repr=False)

    @property
    def vocab_size(self) -> int:
        return len(self.vocab)


def train_ngram_lm(sentences, order: int = 5, k: float = 0.1) -> NGramLM:
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
    return NGramLM(order=order, k=k, vocab=frozenset(vocab), counts=counts, context_totals=totals)


def _map_token(lm: NGramLM, token: str) -> str:
    return token if token in lm.vocab or token == BOS else UNK


def token_log_prob(lm: NGramLM, context, token: str) -> float:
    """log P(token | context) with add-k smoothing and unseen-context backoff."""
    w = _map_token(lm, token)
    history = [_map_token(lm, t) for t in context]
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


def score_sentence(lm: NGramLM, tokens) -> list[float]:
    """Per-token log probabilities, including the end-of-sentence marker."""
    sent = list(tokens)
    out = []
    history: list[str] = []
    for token in sent + [EOS]:
        out.append(token_log_prob(lm, history, token))
        history.append(token)
    return out


def lm_perplexity(lm: NGramLM, sentences) -> float:
    corpus = [list(s) for s in sentences]
    if not corpus:
        raise EmptyCorpus("no evaluation sentences")
    return metrics.perplexity([score_sentence(lm, sent) for sent in corpus])
