"""The pure-Python random stream against numpy's Philox generator (`references.ref_generator`), and its
label's key word against hashlib's SHA-256 (`references.ref_stream_word`)."""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from itertools import accumulate

import pytest
from hypothesis import given, settings, strategies as st

import references
from splithygiene import rng

SEEDS = st.one_of(st.sampled_from([0, 1, 2**63, 2**64 - 1]), st.integers(0, 2**64 - 1))
LABELS = st.tuples(st.text(max_size=6), st.integers(-5, 5))


@pytest.mark.parametrize("parts", [
    (), ("",), ("leaky-partition",), ("generate", "t-s000"), (0,), (-5, 2**64), ("a", 1), ("a", "1"), ("a\x1f1",),
    ("ære", "Zürich", "東京"), ("\x1f",), ("\x1f", "\x1f"), ("", ""), ("x" * 200,), ("\ud7ff\U0010ffff",),
])
def test_the_stream_word_is_hashlibs_sha256_of_the_label(parts):
    # the joiner is not escaped, so ("a", 1), ("a", "1") and ("a\x1f1",) name one stream
    assert rng._stream_word(parts) == references.ref_stream_word(parts)


# digests the package takes with its SHA-256: a stream word and a file digest; with "blocked", neither built-in
# SHA-256 module can be imported, so the package falls back to hashlib. Prints whether _hashlib was loaded.
_SHA_PROBE = """
import json, sys
if sys.argv[1] == "blocked":
    sys.modules["_sha256"] = sys.modules["_sha2"] = None
from splithygiene import corpus, rng
print(json.dumps([rng._stream_word(("generate", "t-s000")), corpus.file_digest(sys.argv[2:]), "_hashlib" in sys.modules]))
"""


@pytest.mark.parametrize("mode", ["built-in", "blocked"])
def test_sha256_comes_from_hashlib_only_on_a_build_without_the_built_in(tmp_path, mode):
    paths = [tmp_path / "a", tmp_path / "b"]
    paths[0].write_bytes(bytes(range(256)) * 700)
    paths[1].write_text("Zürich\n", encoding="utf-8")
    result = subprocess.run([sys.executable, "-c", _SHA_PROBE, mode, *map(str, paths)], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    word, digest, loaded_openssl = json.loads(result.stdout)
    assert word == references.ref_stream_word(("generate", "t-s000"))
    assert digest == hashlib.sha256(b"".join(p.read_bytes() for p in paths)).hexdigest()
    assert loaded_openssl == (mode == "blocked")


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
