"""Corpus BLEU and perplexity: scores of predictions against references.

BLEU is computed in unsmoothed corpus mode: clipped n-gram counts (n=1..4)
pooled over the corpus, geometric mean weighted 1/4 each, times a brevity
penalty, on the 0-100 scale. A split's template leakage is measured where
it is enforced, by `partitioner.seen_fractions`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyCorpus, InvalidLogProb

MAX_ORDER = 4
_PAIRS_PER_BLOCK = 256  # differing pairs counted at once; a pair's counts need no other pair


@dataclass(frozen=True)
class BleuReport:
    bleu: float
    precisions: tuple[float, float, float, float]
    brevity_penalty: float
    candidate_len: int
    reference_len: int


def _clipped_matches(pairs) -> list[int]:
    """For each order n, the clipped n-gram matches of the (candidate, reference) pairs, summed.

    The tokens of both sides are interned together. The order-1 id of the
    token at a position of pair i is the rank of ``i * width + token``, and
    the order-n id of the n-gram ending at a position is the rank of
    ``(order-(n-1) id ending just before it) * width + token``. So an id names
    one (pair, n-gram), equal on both sides, and ids are exact integers,
    never hashed. A pair's clipped count of an n-gram is the minimum of its
    counts on the two sides.
    """
    vocab: dict[str, int] = {}
    flat: list[int] = []
    sizes: list[int] = []  # the candidate of each pair, then its reference
    for pair in pairs:
        for side in pair:
            flat.extend(vocab.setdefault(t, len(vocab)) for t in side)
            sizes.append(len(side))
    tokens = np.array(flat, dtype=np.int64)
    lengths = np.array(sizes, dtype=np.int64)
    sentence = np.repeat(np.arange(lengths.size), lengths)
    offset = np.arange(tokens.size) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    width = len(vocab)
    matches = []
    ids = sentence // 2  # before order 1, the prefix of every position is its pair
    for n in range(1, MAX_ORDER + 1):
        at = np.flatnonzero(offset >= n - 1)  # where an order-n gram ends
        prefix = ids[at] if n == 1 else ids[at - 1]
        distinct, inverse = np.unique(prefix * width + tokens[at], return_inverse=True)
        ids = np.full(tokens.size, -1, dtype=np.int64)
        ids[at] = inverse
        candidate = sentence[at] % 2 == 0
        counts = [np.bincount(inverse[side], minlength=distinct.size) for side in (candidate, ~candidate)]
        matches.append(int(np.minimum(*counts).sum()))
    return matches


def corpus_bleu(candidates, references) -> BleuReport:
    """Corpus BLEU with one reference per candidate.

    Counts are pooled before the precision quotients, so a single zero-count
    sentence cannot zero the score, but a pooled zero at any order does. A
    candidate equal to its reference matches every one of its n-grams; the
    other pairs are counted together, a block at a time (``_clipped_matches``).
    """
    cands = [list(c) for c in candidates]
    refs = [list(r) for r in references]
    if len(cands) != len(refs):
        raise ValueError(f"{len(cands)} candidates vs {len(refs)} references")
    if not cands:
        raise EmptyCorpus("no candidate/reference pairs")
    correct = [0] * MAX_ORDER
    total = [0] * MAX_ORDER
    cand_len = 0
    ref_len = 0
    differing = []
    for cand, ref in zip(cands, refs):
        cand_len += len(cand)
        ref_len += len(ref)
        same = cand == ref  # then every candidate n-gram is correct
        if not same:
            differing.append((cand, ref))
        for n in range(1, min(len(cand), MAX_ORDER) + 1):
            count = len(cand) - n + 1
            total[n - 1] += count
            if same:
                correct[n - 1] += count
    for start in range(0, len(differing), _PAIRS_PER_BLOCK):
        correct = [c + m for c, m in zip(correct, _clipped_matches(differing[start:start + _PAIRS_PER_BLOCK]))]
    precisions = tuple(c / t if t else 0.0 for c, t in zip(correct, total))
    if cand_len == 0:
        bp = 0.0
    else:
        bp = min(1.0, math.exp(1 - ref_len / cand_len))
    if all(p > 0 for p in precisions):
        score = 100.0 * bp * math.exp(sum(math.log(p) for p in precisions) / MAX_ORDER)
    else:
        score = 0.0
    return BleuReport(
        bleu=score,
        precisions=precisions,
        brevity_penalty=bp,
        candidate_len=cand_len,
        reference_len=ref_len,
    )


def perplexity(log_probs) -> float:
    """exp of the negative mean per-token natural-log probability; a result that is not finite raises InvalidLogProb."""
    total = 0.0
    count = 0
    for sentence in log_probs:
        sent = list(sentence)
        if not sent:
            raise EmptyCorpus("a sentence has no token log probabilities")
        for lp in sent:
            if not math.isfinite(lp) or lp > 0:
                raise InvalidLogProb(f"log probability {lp!r} is positive or non-finite")
            total += lp
            count += 1
    if count == 0:
        raise EmptyCorpus("no token log probabilities")
    mean = total / count
    try:
        ppl = math.exp(-mean)
    except OverflowError:
        ppl = math.inf
    if math.isinf(ppl):  # a sum of log probabilities that overflowed makes the mean -inf
        raise InvalidLogProb(f"mean log probability {mean!r}: the perplexity exp(-mean) is not a finite float")
    return ppl

