"""Leaky and sanitized corpus partitioning, training-set subsampling, and template leakage.

Leaky partitioning shuffles instances and cuts them 80/10/10 regardless of
templates. Sanitized partitioning first splits templates by their seeds, then
routes to the test split only instances whose attributed templates are
held-out ones; everything else forms a pool that is re-split 90/10 into train
and validation. The guarantee is strict: no test instance shares an
attributed template with any train or validation instance.

One rule defines template leakage: an instance is template-seen by a set of
templates when its attributed templates meet the set (`_meets`). The
sanitized split enforces it and `seen_fractions` measures it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor, isfinite

from . import rng
from .attribution import AttributionIndex
from .corpus import VALID_FRACTION
from .errors import RatioError


@dataclass(frozen=True)
class Split3:
    """Train/valid/test instance lists; disjoint by id, union = input."""

    train: tuple
    valid: tuple
    test: tuple

    @property
    def counts(self) -> tuple[int, int, int]:
        return (len(self.train), len(self.valid), len(self.test))


@dataclass(frozen=True)
class TemplateSplit:
    """The templates a seed split holds out; every other template of the index is on the train side."""

    test_template_ids: frozenset[str]
    # templates matching both train and test seeds; routed to test
    both_matched_ids: frozenset[str] = frozenset()


def _exact(value: float) -> Fraction:
    # str() round-trips the shortest decimal, so 0.1 means 1/10, not its
    # binary approximation; split arithmetic must be exact
    return Fraction(str(value))


def _check_ratios(ratios) -> tuple[Fraction, Fraction, Fraction]:
    if len(ratios) != 3:
        raise RatioError(f"need three ratios, got {len(ratios)}")
    if not all(map(isfinite, ratios)):
        raise RatioError(f"ratios must be finite: {ratios}")
    fracs = tuple(_exact(r) for r in ratios)
    if any(f < 0 for f in fracs):
        raise RatioError(f"ratios must be non-negative: {ratios}")
    if abs(float(sum(fracs)) - 1.0) > 1e-9:
        raise RatioError(f"ratios must sum to 1: {ratios}")
    return fracs


def _check_fraction(fraction) -> Fraction:
    """A train subsample fraction, exact; one outside (0, 1] raises RatioError."""
    if not (isfinite(fraction) and 0 < _exact(fraction) <= 1):
        raise RatioError(f"fraction must be in (0, 1]: {fraction}")
    return _exact(fraction)


def _meets(index: AttributionIndex, template_ids, inst) -> bool:
    """Whether the instance's attributed templates meet `template_ids`; an unattributed one meets none."""
    return not template_ids.isdisjoint(index.attributed(inst.id))


def leaky_partition(instances, ratios=(0.8, 0.1, 0.1), rng_seed: int = 0) -> Split3:
    """Random template-naive split.

    With N instances and ratios (r_train, r_valid, r_test):
    n_valid = floor(r_valid*N), n_test = ceil(r_test*N) capped at N - n_valid,
    n_train = the rest; the seeded cut gives the train block, then valid, then
    test. The cap only acts when the ratios sum to a hair over 1.
    """
    _, r_valid, r_test = _check_ratios(ratios)
    items = list(instances)
    n = len(items)
    n_valid = floor(r_valid * n)
    n_test = min(ceil(r_test * n), n - n_valid)
    train, valid, test = rng.seeded_cut(items, (n - n_valid - n_test, n_valid, n_test), rng_seed, "leaky-partition")
    return Split3(train=train, valid=valid, test=test)


def split_templates(index: AttributionIndex, seeds, seed_test_ids) -> TemplateSplit:
    """Coordinate a split of the index's templates with a seed split.

    A template matches a seed when its question pattern matches the seed's
    question and its predicates equal the seed query's. A template goes to
    test iff it matches at least one seed whose id is in `seed_test_ids`;
    templates matching both sides are routed to test and reported via
    `both_matched_ids`. Seed questions are looked up in the index's match
    table, so a seed whose skeleton some instance has costs no matcher call.
    """
    test_seed_ids = set(seed_test_ids)
    sides: dict[str, set[bool]] = {tid: set() for tid in index.templates}  # in test, per matched seed
    for seed in seeds:
        matched = index.matches(seed.pair.nlq)
        if matched:
            preds = seed.pair.concrete_predicates()
            for t, _ in matched:
                if t.predicates == preds:
                    sides[t.id].add(seed.id in test_seed_ids)
    return TemplateSplit(
        test_template_ids=frozenset(tid for tid, side in sides.items() if True in side),
        both_matched_ids=frozenset(tid for tid, side in sides.items() if len(side) == 2),
    )


def sanitized_partition(
    instances,
    tsplit: TemplateSplit,
    index: AttributionIndex,
    rng_seed: int = 0,
) -> Split3:
    """Template-coordinated split whose test set is strictly unseen.

    An instance is a test candidate iff its attributed set is non-empty and
    every template in it is held out: an ambiguous instance is one however
    many templates it has, and unattributed instances always join the train
    pool. Candidates that still share an attributed template with any pool
    instance are demoted to the pool until none remain, which makes the
    no-shared-template guarantee unconditional. The seeded cut then takes floor(VALID_FRACTION*|pool|)
    pool instances for valid; the rest of the pool is train.
    """
    items = list(instances)
    held_out = tsplit.test_template_ids
    in_test = {inst.id: bool(ts := index.attributed(inst.id)) and held_out.issuperset(ts) for inst in items}
    while True:
        pool_templates = index.tally(inst for inst in items if not in_test[inst.id]).keys()
        demote = [inst.id for inst in items if in_test[inst.id] and _meets(index, pool_templates, inst)]
        if not demote:
            break
        for iid in demote:
            in_test[iid] = False

    test = tuple(inst for inst in items if in_test[inst.id])
    pool = [inst for inst in items if not in_test[inst.id]]
    n_valid = floor(_exact(VALID_FRACTION) * len(pool))
    valid, train = rng.seeded_cut(pool, (n_valid, len(pool) - n_valid), rng_seed, "sanitized-valid")
    return Split3(train=train, valid=valid, test=test)


def subsample_train(split: Split3, fraction: float, rng_seed: int = 0) -> Split3:
    """Replace train with the seeded cut's first floor(fraction*|train|) instances.

    The same rng_seed yields nested samples across growing fractions; valid
    and test are untouched.
    """
    k = floor(_check_fraction(fraction) * len(split.train))
    (train,) = rng.seeded_cut(split.train, (k,), rng_seed, "subsample-train")
    return Split3(train=train, valid=split.valid, test=split.test)


def seen_fractions(split: Split3, index: AttributionIndex) -> dict[str, float]:
    """The template leakage of a split: per valid and test, the share of its instances that
    train's templates have seen (0.0 for an empty part)."""
    seen = index.tally(split.train).keys()
    return {name: sum(_meets(index, seen, inst) for inst in part) / len(part) if part else 0.0
            for name, part in (("valid", split.valid), ("test", split.test))}


def diagnostics(split: Split3, index: AttributionIndex, tsplit: TemplateSplit | None = None) -> dict:
    """Ambiguity/attribution counters and per-split template histograms."""
    parts = {"train": split.train, "valid": split.valid, "test": split.test}
    ids = [inst.id for part in parts.values() for inst in part]
    unattributed = index.unattributed_ids
    out = {
        "ambiguous_count": sum(i in index.ambiguous_ids for i in ids),
        "unattributed_count": sum(i in unattributed for i in ids),
        "template_histograms": {name: dict(sorted(index.tally(part).items())) for name, part in parts.items()},
    }
    if tsplit is not None:
        out["templates_matching_both_seed_splits"] = sorted(tsplit.both_matched_ids)
    return out
