"""The pure-Python random stream against numpy's Philox generator (`references.ref_generator`)."""

from __future__ import annotations

from itertools import accumulate

import pytest
from hypothesis import given, settings, strategies as st

import references
from splithygiene import rng

SEEDS = st.one_of(st.sampled_from([0, 1, 2**63, 2**64 - 1]), st.integers(0, 2**64 - 1))
LABELS = st.tuples(st.text(max_size=6), st.integers(-5, 5))


@settings(max_examples=40, deadline=None)
@given(key0=st.integers(0, 2**64 - 1), key1=st.integers(0, 2**64 - 1))
def test_the_words_are_the_philox_words_low_half_first(key0, key1):
    import numpy as np

    words = rng.Generator(key0, key1)._next32
    # 16,000 words: the doubling batches hold the first 8,184, then each batch holds 512 blocks of 8 words
    raw = np.random.Philox(key=np.array([key0, key1], dtype=np.uint64)).random_raw(8_000)
    assert [words() | words() << 32 for _ in range(8_000)] == raw.tolist()


@settings(max_examples=200, deadline=None)
@given(n=st.integers(0, 5_000), seed=SEEDS, label=LABELS)
def test_permutation_is_the_reference_permutation(n, seed, label):
    assert rng.permutation(n, seed, *label) == references.ref_generator(seed, *label).permutation(n).tolist()


@pytest.mark.parametrize("n", sorted({2**k + extra for k in range(17) for extra in (0, 1)}))
def test_permutation_at_and_past_a_power_of_two_is_the_reference_permutation(n):
    for seed in (0, 7, 2**64 - 1):
        assert rng.permutation(n, seed, "p") == references.ref_generator(seed, "p").permutation(n).tolist()


@settings(max_examples=200, deadline=None)
@given(seed=SEEDS, sizes=st.lists(st.integers(0, 70), max_size=12))
def test_interleaved_draws_on_one_stream_are_the_reference_draws(seed, sizes):
    # a draw that ends on the low half of a 64-bit word leaves the high half to the next call
    gen, ref = rng.generator(seed, "mixed"), references.ref_generator(seed, "mixed")
    for n in sizes:
        assert gen.permutation(n) == ref.permutation(n).tolist()


def _reference_cut(items, sizes, seed, *stream):
    order = references.ref_generator(seed, *stream).permutation(len(items)).tolist()
    return [tuple(items[i] for i in sorted(order[end - size:end])) for size, end in zip(sizes, accumulate(sizes))]


@settings(max_examples=500, deadline=None)
@given(n=st.integers(0, 300), seed=SEEDS, data=st.data())
def test_seeded_cut_stopped_early_is_the_cut_of_the_whole_reference_permutation(n, seed, data):
    items = [f"i{k}" for k in range(n)]
    bounds = sorted(data.draw(st.lists(st.integers(0, n), max_size=4)))
    covering = data.draw(st.booleans())
    if covering:
        bounds.append(n)
    sizes = [b - a for a, b in zip([0] + bounds, bounds)]
    assert rng.seeded_cut(items, sizes, seed, "cut") == _reference_cut(items, sizes, seed, "cut")
    assert rng.seeded_cut(items, (n,), seed, "cut") == _reference_cut(items, (n,), seed, "cut")


@pytest.mark.parametrize("sizes", [(715_599, 89_450, 89_450), (89_449, 805_050), (447_250,)])
def test_seeded_cut_at_the_paper_size_is_the_reference_cut(sizes):
    items = range(894_499)
    assert rng.seeded_cut(items, sizes, 42, "cut") == _reference_cut(items, sizes, 42, "cut")


@pytest.mark.parametrize("method, n", [("permutation", -1), ("permutation", 2**32), ("permutation", 2**40)])
def test_a_size_outside_32_bits_is_rejected(method, n):
    with pytest.raises(ValueError, match=r"n is outside \[0, 2\*\*32\)"):
        getattr(rng.generator(0, "size"), method)(n)


@pytest.mark.parametrize("seed", [-1, 2**64, 3 * 2**64 - 1])
def test_an_rng_seed_outside_64_bits_is_rejected(seed):
    # these seeds once named the stream of seed % 2**64: -1 and 3 * 2**64 - 1 drew the permutation of 2**64 - 1
    with pytest.raises(ValueError, match="outside"):
        rng.generator(seed, "x")
    with pytest.raises(ValueError, match="outside"):
        rng.permutation(8, seed, "x")
    with pytest.raises(ValueError, match="outside"):
        rng.seeded_cut(range(8), (4, 4), seed, "x")
