"""Corpus BLEU, perplexity, and split-leakage diagnostics.

BLEU is computed in unsmoothed corpus mode: clipped n-gram counts (n=1..4)
pooled over the corpus, geometric mean weighted 1/4 each, times a brevity
penalty, on the 0-100 scale. A separate sentence-level mode with an epsilon
floor exists for diagnostics only.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .attribution import AttributionIndex
from .errors import EmptyCorpus, InvalidLogProb
from .partitioner import Split3

MAX_ORDER = 4


@dataclass(frozen=True)
class BleuReport:
    bleu: float
    precisions: tuple[float, float, float, float]
    brevity_penalty: float
    candidate_len: int
    reference_len: int


@dataclass(frozen=True)
class LeakageStats:
    test_seen_fraction: float
    valid_seen_fraction: float
    empty_splits: tuple[str, ...] = ()


def _ngrams(tokens, n: int) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def corpus_bleu(candidates, references) -> BleuReport:
    """Corpus BLEU with one reference per candidate.

    Counts are pooled before the precision quotients, so a single zero-count
    sentence cannot zero the score, but a pooled zero at any order does.
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
    for cand, ref in zip(cands, refs):
        cand_len += len(cand)
        ref_len += len(ref)
        for n in range(1, MAX_ORDER + 1):
            cand_counts = _ngrams(cand, n)
            if not cand_counts:
                continue
            ref_counts = _ngrams(ref, n)
            total[n - 1] += sum(cand_counts.values())
            correct[n - 1] += sum(min(c, ref_counts[g]) for g, c in cand_counts.items())
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


def sentence_bleu(candidate, reference, eps: float = 1e-9) -> float:
    """Diagnostic single-pair BLEU; zero precisions are floored at eps."""
    report = corpus_bleu([candidate], [reference])
    floored = [max(p, eps) for p in report.precisions]
    return 100.0 * report.brevity_penalty * math.exp(sum(math.log(p) for p in floored) / MAX_ORDER)


def perplexity(log_probs) -> float:
    """exp of the negative mean per-token natural-log probability."""
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
    return math.exp(-total / count)


def leakage_report(split: Split3, index: AttributionIndex) -> LeakageStats:
    """How much of valid/test is template-seen with respect to train."""
    seen = {tid for inst in split.train for tid in index.attributed(inst.id)}

    def seen_fraction(instances) -> float:
        if not instances:
            return 0.0
        hits = sum(1 for inst in instances if set(index.attributed(inst.id)) & seen)
        return hits / len(instances)

    empty = tuple(
        name for name, part in (("train", split.train), ("valid", split.valid), ("test", split.test))
        if not part
    )
    return LeakageStats(
        test_seen_fraction=seen_fraction(split.test),
        valid_seen_fraction=seen_fraction(split.valid),
        empty_splits=empty,
    )
