"""Desk-scale baseline models that expose the leaky/sanitized gap.

The memorizer stores the templates seen in training and answers by template
lookup plus a label-to-IRI index, so it is near-perfect on questions from
seen templates and falls back to nearest-neighbour copying otherwise. The
n-gram language model scores query token sequences with add-k smoothing and
backoff, providing the perplexity axis. Both are split the same way: the
per-instance work (the memorizer's label harvest and question tokens, the
LM's n-gram numbering) is done once per corpus, and each partition's model
is a selection of that corpus's train rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import metrics
from .attribution import AttributionIndex
from .errors import EmptyCorpus
from .qlang import span_tokens
from .synthesis import Template, entity_namespace, label_to_iri_form

BOS = "<s>"
EOS = "</s>"
UNK = "<unk>"

_BLOCK = 1 << 14  # candidate entries scored at once by the fallback


def _spans(starts: np.ndarray, rows) -> np.ndarray:
    """The positions ``starts[r]:starts[r + 1]`` of each row r in turn, a row listed twice counting twice."""
    rows = np.asarray(rows, dtype=np.int64).reshape(-1)
    first = starts[rows]
    sizes = starts[rows + 1] - first
    return np.repeat(first - np.cumsum(sizes) + sizes, sizes) + np.arange(sizes.sum())


# ---------------------------------------------------------------------------
# Template memorizer
# ---------------------------------------------------------------------------

@dataclass
class MemorizerModel:
    """Seen templates in id order, harvested labels, and fallback tables over some rows of an index.

    Questions are matched in the index's match table (``index.index.matches``),
    and their tokens are the ids of ``index.vocab``, frequent or rare as
    ``index.frequent`` says. ``fallback`` holds the train instances in (id,
    training position) order, and ``sizes[p]`` is the distinct-token count of
    the question at position p. The questions are grouped by the set of
    frequent tokens they hold: ``group[p]`` is position p's group and
    ``best[g]`` the position in group g with the fewest distinct tokens (the
    first on a tie). The groups holding frequent token i are
    ``group_ids[group_starts[i]:group_starts[i + 1]]``, and the positions
    holding rare token i are ``rare_positions[rare_starts[i]:rare_starts[i + 1]]``,
    ascending.
    """

    index: MemorizerIndex = field(repr=False)
    templates: dict[str, Template]
    label_index: dict[str, str]
    fallback: list
    sizes: np.ndarray = field(repr=False)
    group: np.ndarray = field(repr=False)
    best: np.ndarray = field(repr=False)
    group_starts: np.ndarray = field(repr=False)
    group_ids: np.ndarray = field(repr=False)
    rare_starts: np.ndarray = field(repr=False)
    rare_positions: np.ndarray = field(repr=False)
    entity_namespace: str


@dataclass
class MemorizerIndex:
    """The per-instance work of memorizer training, done once per corpus.

    Instance r's distinct question tokens are the ids
    ``token_ids[starts[r]:starts[r + 1]]`` of ``vocab``, and ``frequent[i]``
    says whether token i's case-fold is a literal word of some template of
    the attribution index. ``group[r]`` numbers instance r's set of frequent
    tokens: equal sets, equal numbers. ``rank[r]`` is the dense rank of
    instance r's id: equal ids rank equal, so a stable sort by rank keeps
    their training order. ``labels[r]`` lists the (slot text, IRI) pairs
    instance r harvests, in harvest order; it is None until a training
    selects row r.
    """

    instances: list
    index: AttributionIndex
    labels: list[list[tuple[str, str]] | None] = field(repr=False)
    vocab: dict[str, int] = field(repr=False)
    frequent: np.ndarray = field(repr=False)
    token_ids: np.ndarray = field(repr=False)
    starts: np.ndarray = field(repr=False)
    group: np.ndarray = field(repr=False)
    rank: np.ndarray = field(repr=False)


def _harvest(inst, index: AttributionIndex) -> list[tuple[str, str]]:
    """The (slot text, IRI) pairs an instance binds, in binding order.

    They are read under its origin template if that is attributed, else under
    each attributed template in order; the bindings come from the index's
    match table, the IRIs from the template's `QueryForm.match` of the row's
    query text. A template whose form the query does not fill adds none.
    """
    attributed = index.attributed(inst.id)
    origin = inst.origin_template_id
    bindings_of = {t.id: bindings for t, bindings in index.matches(inst.nlq)}
    labels = []
    for tid in [origin] if origin in attributed else attributed:
        iris = index.templates[tid].query_form.match(inst.query_text)
        if iris is None:
            continue
        for label, span in bindings_of[tid].items():
            labels.append((" ".join(span_tokens(inst.nlq, span)), iris[label]))
    return labels


def memorizer_index(instances, index: AttributionIndex) -> MemorizerIndex:
    """Intern every instance's distinct question tokens and group them by their frequent ones."""
    instances = list(instances)
    vocab: dict[str, int] = {}
    flat: list[int] = []
    starts = [0]
    for inst in instances:
        flat.extend(vocab.setdefault(t, len(vocab)) for t in dict.fromkeys(inst.nlq))
        starts.append(len(flat))
    words = frozenset().union(*(t.nlq_pattern.words for t in index.templates.values()))
    frequent = np.array([t.casefold() in words for t in vocab], dtype=bool)
    token_ids = np.array(flat, dtype=np.int64)
    starts = np.array(starts, dtype=np.int64)
    # each row's frequent token ids, sorted, as bytes: equal sets give equal keys
    width = max(len(vocab), 1)
    held = frequent[token_ids]
    keys = np.sort(np.repeat(np.arange(len(instances)), np.diff(starts))[held] * width + token_ids[held])
    cuts = (8 * np.searchsorted(keys, np.arange(len(instances) + 1) * width)).tolist()
    raw = (keys % width).tobytes()
    groups: dict[bytes, int] = {}
    ranks = {iid: r for r, iid in enumerate(sorted({inst.id for inst in instances}))}
    return MemorizerIndex(
        instances=instances,
        index=index,
        labels=[None] * len(instances),
        vocab=vocab,
        frequent=frequent,
        token_ids=token_ids,
        starts=starts,
        group=np.array([groups.setdefault(raw[a:b], len(groups)) for a, b in zip(cuts, cuts[1:])], dtype=np.int64),
        rank=np.array([ranks[inst.id] for inst in instances], dtype=np.int64),
    )


def _postings(keys: np.ndarray, values: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """The values of each key in [0, width), in input order: key i's are ``out[starts[i]:starts[i + 1]]``."""
    starts = np.zeros(width + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=width), out=starts[1:])
    return starts, values[np.argsort(keys, kind="stable")]


def train_memorizer(mindex: MemorizerIndex, rows) -> MemorizerModel:
    """Select the train `rows` of a memorizer index, given in training order.

    Labels are taken in training order, the first IRI bound to a text kept; a
    row is harvested the first time a training selects it. The seen templates
    are the ones the index attributes to the train rows.
    """
    rows = np.asarray(rows, dtype=np.int64).reshape(-1)
    train = rows.tolist()
    label_index: dict[str, str] = {}
    for r in train:
        labels = mindex.labels[r]
        if labels is None:
            labels = mindex.labels[r] = _harvest(mindex.instances[r], mindex.index)
        for text, iri in labels:
            label_index.setdefault(text, iri)
    seen = mindex.index.tally(mindex.instances[r] for r in train)
    fallback = rows[np.argsort(mindex.rank[rows], kind="stable")]  # ties keep training order
    sizes = np.diff(mindex.starts)[fallback]
    _, first, group = np.unique(mindex.group[fallback], return_index=True, return_inverse=True)
    by_size = np.lexsort((sizes, group))  # by group, then size, then position
    best = by_size[np.flatnonzero(np.diff(group[by_size], prepend=-1))]
    width = len(mindex.vocab)
    tokens = mindex.token_ids[_spans(mindex.starts, fallback)]
    positions = np.repeat(np.arange(fallback.size), sizes)
    rare = ~mindex.frequent[tokens]
    rare_starts, rare_positions = _postings(tokens[rare], positions[rare], width)
    members = mindex.token_ids[_spans(mindex.starts, fallback[first])]  # one member shows a group's set
    of_group = np.repeat(np.arange(first.size), sizes[first])
    held = mindex.frequent[members]
    group_starts, group_ids = _postings(members[held], of_group[held], width)
    return MemorizerModel(
        index=mindex,
        templates={tid: t for tid, t in mindex.index.templates.items() if tid in seen},
        label_index=label_index,
        fallback=[mindex.instances[r] for r in fallback.tolist()],
        sizes=sizes,
        group=group,
        best=best,
        group_starts=group_starts,
        group_ids=group_ids,
        rare_starts=rare_starts,
        rare_positions=rare_positions,
        entity_namespace=entity_namespace(label_index.values()),
    )


def _template_prediction(model: MemorizerModel, tokens: tuple) -> list[str] | None:
    """The query of the seen template matching the question with the most literal-word elements.

    Ties go to the lowest id, the first in the match table (``max`` keeps the
    first); None when no seen template matches.
    """
    seen = [(t, bindings) for t, bindings in model.index.index.matches(tokens) if model.templates.get(t.id) is t]
    if not seen:
        return None
    template, bindings = max(seen, key=lambda m: m[0].nlq_pattern.word_count)
    row = {}
    for label, span in bindings.items():
        text = " ".join(span_tokens(tokens, span))
        iri = model.label_index.get(text)
        if iri is None:
            iri = label_to_iri_form(text, model.entity_namespace)
        row[label.lower()] = iri
    return template.query_form.fill(row).split()


def _listed(starts: np.ndarray, keys: np.ndarray, owners: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The entries ``starts[k]:starts[k + 1]`` of each key in turn, with the owner of the key listing each."""
    return _spans(starts, keys), np.repeat(owners, starts[keys + 1] - starts[keys])


def _nearest_block(model: MemorizerModel, qsize: np.ndarray, tokens: np.ndarray, owner: np.ndarray) -> np.ndarray:
    """The fallback position with the best Jaccard score for each question of a block.

    Question j has ``qsize[j]`` distinct tokens; ``tokens`` are the known ones,
    ``owner`` naming the question of each.
    """
    n_groups, n = model.best.size, len(model.fallback)
    frequent = model.index.frequent[tokens]
    entries, of = _listed(model.group_starts, tokens[frequent], owner[frequent])
    fo = np.bincount(of * n_groups + model.group_ids[entries], minlength=qsize.size * n_groups)
    fo = fo.reshape(qsize.size, n_groups)  # frequent tokens shared by each (question, group)
    # a group's candidate: its best member, scored as if it shared no rare token
    score = np.divide(fo, qsize[:, None] + model.sizes[model.best] - fo, out=np.zeros(fo.shape), where=fo > 0)
    top = score.max(axis=1)
    # the positions holding a rare question token, scored exactly
    entries, of = _listed(model.rare_starts, tokens[~frequent], owner[~frequent])
    keys = np.sort(of * n + model.rare_positions[entries])
    cuts = np.flatnonzero(np.diff(keys, prepend=-1))
    q, p = np.divmod(keys[cuts], n)
    overlap = fo[q, model.group[p]] + np.diff(cuts, append=keys.size)
    exact = overlap / (qsize[q] + model.sizes[p] - overlap)
    np.maximum.at(top, q, exact)
    pick = np.where(score == top[:, None], model.best, n).min(axis=1)
    won = exact == top[q]
    np.minimum.at(pick, q[won], p[won])
    pick[top == 0] = 0  # no shared token: every score is 0, so position 0 wins
    return pick


def memorizer_predict(model: MemorizerModel, questions) -> list[list[str]]:
    """Predict the formal-query token sequence for each question.

    Seen templates matching a question compete; the one binding the fewest
    slot tokens wins (then lowest template id). A match binds the question's
    length minus the template's literal-word elements in slot tokens, so the
    match with the most literal-word elements wins, read from the match
    table with no matcher call for a known skeleton. Slot texts are resolved
    via the label index, falling back to the IRI naming convention.

    When no template matches, the training question with the highest Jaccard
    similarity of distinct tokens supplies its query verbatim; ties go to the
    lowest instance id, then the earliest training position, and with no
    shared token every score is 0 and position 0 wins. A score is the float64
    quotient overlap / (|q| + |t| - overlap), the correctly rounded
    ``len(q & t) / len(q | t)``. These questions are answered a block at a
    time: the training questions sharing a rare token with one are scored
    exactly, and each group offers its best member as if it shared none. A
    member that does share one scores higher than that stand-in, so the
    maximum is the full scan's.
    """
    questions = [tuple(question) for question in questions]
    out = [_template_prediction(model, question) for question in questions]
    unmatched = [i for i, prediction in enumerate(out) if prediction is None]
    if not model.fallback:
        return [[] if prediction is None else prediction for prediction in out]
    vocab, frequent = model.index.vocab, model.index.frequent
    distinct = [set(questions[i]) for i in unmatched]
    known = [[vocab[t] for t in question if t in vocab] for question in distinct]
    qsize = np.array([len(question) for question in distinct], dtype=np.int64)
    counts = np.array([len(ids) for ids in known], dtype=np.int64)
    tokens = np.array([t for ids in known for t in ids], dtype=np.int64)
    owner = np.repeat(np.arange(len(unmatched)), counts)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    # a question's candidate entries: one per group, plus one per posting of each of its tokens
    listed = np.where(frequent[tokens], np.diff(model.group_starts)[tokens], np.diff(model.rare_starts)[tokens])
    cost = model.best.size + np.bincount(owner, weights=listed, minlength=len(unmatched)).astype(np.int64)
    window = (np.cumsum(cost) - cost) // _BLOCK  # the questions starting in one window form a block
    bounds = [*np.flatnonzero(np.diff(window, prepend=-1)).tolist(), len(unmatched)]
    for a, b in zip(bounds, bounds[1:]):
        ta, tb = offsets[a], offsets[b]
        picks = _nearest_block(model, qsize[a:b], tokens[ta:tb], owner[ta:tb] - a)
        for i, p in zip(unmatched[a:b], picks.tolist()):
            out[i] = model.fallback[p].query_text.split()
    return out


# ---------------------------------------------------------------------------
# Add-k n-gram language model over query tokens
# ---------------------------------------------------------------------------

_BOS_ID = 0
_EOS_ID = 1


@dataclass
class NGramIndex:
    """Every n-gram of a corpus up to `order`, each with an exact integer id.

    Tokens are interned in ``token_ids`` (``<s>`` is 0, ``</s>`` is 1), and the
    order-1 gram id of a token is its token id. An order-m gram (m >= 2) is the
    pair (id of its first m-1 tokens, id of its last token); its id is the rank
    of ``prefix * width + token`` in ``keys[m]``, the sorted distinct keys of
    the corpus, so ids never collide. Sentence r owns the events
    ``starts[r]:starts[r + 1]``, one per token and one for the end marker; for
    each event ``grams[m]`` holds the id of the order-m gram ending at it. The
    context of an order-m gram is the order-(m-1) gram ``keys[m] // width``.
    """

    order: int
    token_ids: dict[str, int] = field(repr=False)
    keys: dict[int, np.ndarray] = field(repr=False)
    starts: np.ndarray = field(repr=False)
    grams: dict[int, np.ndarray] = field(repr=False)

    @property
    def width(self) -> int:
        return len(self.token_ids)


def ngram_index(sentences, order: int) -> NGramIndex:
    """Intern a corpus's tokens and number its n-grams of every order up to `order`.

    Each sentence is padded with order-1 ``<s>`` before it and ``</s>`` after it.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    token_ids = {BOS: _BOS_ID, EOS: _EOS_ID}
    flat: list[int] = []
    sizes = []
    pad = [_BOS_ID] * (order - 1)
    for sent in sentences:
        start = len(flat)
        flat += pad
        flat.extend(token_ids.setdefault(t, len(token_ids)) for t in sent)
        flat.append(_EOS_ID)
        sizes.append(len(flat) - start)
    tokens = np.array(flat, dtype=np.int64)
    del flat  # the largest transient of the build: free it before the per-order arrays
    padded = np.array(sizes, dtype=np.int64)
    offset = np.arange(tokens.size) - np.repeat(np.cumsum(padded) - padded, padded)
    width = len(token_ids)
    events = np.flatnonzero(offset >= order - 1)
    grams = {1: tokens[events].astype(np.int32)}
    keys: dict[int, np.ndarray] = {}
    ids = tokens.astype(np.int32)
    for m in range(2, order + 1):  # ids: the order-(m-1) gram ending at each position, -1 before one fits
        at = np.flatnonzero(offset >= m - 1)
        keys[m], inverse = np.unique(ids[at - 1].astype(np.int64) * width + tokens[at], return_inverse=True)
        ids = np.full(tokens.size, -1, dtype=np.int32)
        ids[at] = inverse
        del at, inverse
        grams[m] = ids[events]
    starts = np.zeros(padded.size + 1, dtype=np.int64)
    np.cumsum(padded - (order - 1), out=starts[1:])
    return NGramIndex(order=order, token_ids=token_ids, keys=keys, starts=starts, grams=grams)


@dataclass
class NGramLM:
    """Add-k counts of some rows of an NGramIndex.

    ``counts[m]`` is the train count of each order-m gram id and ``totals[m]``
    (m >= 2) the train count of each order-(m-1) context id; ``events`` is the
    number of train events, the total of the empty unigram context.
    """

    index: NGramIndex = field(repr=False)
    k: float
    vocab: frozenset[str] = field(repr=False)
    counts: dict[int, np.ndarray] = field(repr=False)
    totals: dict[int, np.ndarray] = field(repr=False)
    events: int

    @property
    def order(self) -> int:
        return self.index.order

    @property
    def vocab_size(self) -> int:
        return len(self.vocab)

    @property
    def context_totals(self) -> dict[int, dict[tuple, int]]:
        """The unigram context's train total, keyed as a dict-of-Counters model keys it.

        ``context_totals[1][()]`` is the number of train events: the tokens
        plus one end marker per sentence. The totals of longer contexts are
        in ``totals``, by context id.
        """
        return {1: {(): self.events}}


def train_ngram_lm(index: NGramIndex, rows, k: float = 0.1) -> NGramLM:
    """Count the n-grams of the index's sentence `rows`: one np.bincount per order."""
    if not (math.isfinite(k) and k > 0):
        raise ValueError(f"smoothing constant must be finite and > 0, got {k}")
    events = _spans(index.starts, rows)
    if events.size == 0:
        raise EmptyCorpus("no training sentences")
    sizes = {1: index.width, **{m: keys.size for m, keys in index.keys.items()}}
    counts = {m: np.bincount(grams[events], minlength=sizes[m]) for m, grams in index.grams.items()}
    # a context's total is the sum of its grams' counts; float64 weights are exact below 2**53
    totals = {m: np.bincount(keys // index.width, weights=counts[m], minlength=sizes[m - 1]).astype(np.int64)
              for m, keys in index.keys.items()}
    seen = np.flatnonzero(counts[1]).tolist()
    tokens = {i: token for token, i in index.token_ids.items()}
    vocab = frozenset(tokens[i] for i in seen) | {EOS, UNK}
    if not math.isfinite(k * len(vocab)):
        raise ValueError(f"smoothing constant {k} overflows: k * |vocab| = {k} * {len(vocab)} is not finite")
    if k / (events.size + k * len(vocab)) == 0.0:  # no context's total exceeds the event count
        raise ValueError(f"smoothing constant {k} underflows: the least probability k / (events + k * |vocab|) "
                         f"= {k} / ({events.size} + {k} * {len(vocab)}) is 0")
    return NGramLM(index=index, k=k, vocab=vocab, counts=counts, totals=totals, events=int(events.size))


def score_rows(lm: NGramLM, rows) -> list[list[float]]:
    """Per-token log probabilities of each of the index's sentence `rows`, the end-of-sentence marker included.

    A token no train row holds has count 0 at every order, and so has total 0
    in every context that holds it. Each token backs off to the highest order
    m >= 2 whose context has a train total > 0, else to the unigram table, and
    scores ``log((count + k) / (total + k * |vocab|))``. The gram ids and
    backoff are read from the index for all tokens at once; the quotient and
    ``math.log`` run per token on Python numbers.
    """
    index = lm.index
    rows = np.asarray(rows, dtype=np.int64).reshape(-1)
    events = _spans(index.starts, rows)
    count = lm.counts[1][index.grams[1][events]]
    total = np.full(events.size, lm.events, dtype=np.int64)
    for m in range(2, lm.order + 1):
        gram = index.grams[m][events]
        context_total = lm.totals[m][index.keys[m][gram] // index.width]
        seen = np.flatnonzero(context_total > 0)  # these score at order m, not lower
        total[seen] = context_total[seen]
        count[seen] = lm.counts[m][gram[seen]]
    k, kv = lm.k, lm.k * lm.vocab_size
    logs = [math.log((c + k) / (t + kv)) for c, t in zip(count.tolist(), total.tolist())]
    ends = np.cumsum(np.diff(index.starts)[rows]).tolist()
    return [logs[a:b] for a, b in zip([0, *ends], ends)]


def lm_perplexity(lm: NGramLM, rows) -> float:
    """The perplexity of the index's sentence `rows` under the model."""
    rows = list(rows)
    if not rows:
        raise EmptyCorpus("no evaluation sentences")
    return metrics.perplexity(score_rows(lm, rows))
