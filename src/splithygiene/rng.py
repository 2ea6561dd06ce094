"""Deterministic random streams.

Every shuffle draws from a Philox4x64-10 stream (Salmon et al., SC 2011) keyed by (rng_seed, stream label),
drawn in pure Python; the label isolates independent uses of one seed, so results never depend on call order.
The counter starts at 0 and is incremented before each block; each 64-bit word gives its low 32 bits first.
The label's key word is the first 8 bytes, big-endian, of the SHA-256 of its parts joined by U+001F. Every
SHA-256 of the package comes from `sha256`: CPython's built-in module, not hashlib, which maps OpenSSL's
libcrypto (~3.5 MB more resident) when it is imported.
"""

from __future__ import annotations

import struct
from array import array
from itertools import accumulate, chain

try:  # the built-in is _sha2 on Python 3.12+ and _sha256 before; hashlib only on a build that has neither
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

_MASK32, _MASK64 = (1 << 32) - 1, (1 << 64) - 1
_M0, _M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157  # round multipliers
_W0, _W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B  # key schedule increments


def _stream_word(parts: tuple) -> int:
    digest = sha256("\x1f".join(str(p) for p in parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def _philox_words(key0: int, key1: int):
    """The stream's 32-bit words under key (key0, key1), in batches of up to 512 blocks, doubling. Block b of
    a batch sits in bits 128b to 128b + 127 of four ints, one per counter word, so one int operation runs a
    round step on every block: a 64 x 64-bit product never leaves its lane."""
    keys = [((key0 + r * _W0) & _MASK64, (key1 + r * _W1) & _MASK64) for r in range(10)]
    first, lanes = 1, 1
    while True:
        ones = ((1 << 128 * lanes) - 1) // ((1 << 128) - 1)  # 1 in every lane
        low = ones * _MASK64
        c0 = int.from_bytes(b"".join(c.to_bytes(16, "little") for c in range(first, first + lanes)), "little")
        c1 = c2 = c3 = 0  # the counter's upper words: no stream draws 2^64 blocks
        for k0, k1 in keys:
            p0, p1 = _M0 * c0, _M1 * c2  # c1 and c3 keep whole products: the mask drops their high halves
            c0, c1, c2, c3 = ((p1 >> 64 ^ c1) & low) ^ k0 * ones, p1, ((p0 >> 64 ^ c3) & low) ^ k1 * ones, p0
        blocks = array("Q", bytes(32 * lanes))  # moves whole 8-byte words, so the bytes stay little-endian
        for at, c in enumerate((c0, c1, c2, c3)):
            blocks[at::4] = array("Q", (c & low).to_bytes(16 * lanes, "little"))[::2]
        yield struct.unpack(f"<{8 * lanes}I", blocks)
        first, lanes = first + lanes, min(2 * lanes, 512)


class Generator:
    """Uniform draws from one stream."""

    def __init__(self, key0: int, key1: int):
        self._next32 = chain.from_iterable(_philox_words(key0, key1)).__next__

    def permutation(self, n: int) -> list[int]:
        return self._shuffled(n, 1)

    def _shuffled(self, n: int, stop: int) -> list[int]:
        """range(n) after Fisher-Yates steps i = n - 1 down to `stop` >= 1, so positions `stop` and up are final.
        Step i swaps position i with j, the next word masked to i's bit length, drawn again while above i."""
        if not 0 <= n <= _MASK32:
            raise ValueError(f"permutation({n}): n is outside [0, 2**32)")
        arr, nxt = list(range(n)), self._next32
        mask = (1 << (n - 1).bit_length()) - 1
        for i in range(n - 1, stop - 1, -1):
            if i == mask >> 1:
                mask >>= 1
            j = nxt() & mask
            while j > i:
                j = nxt() & mask
            arr[i], arr[j] = arr[j], arr[i]
        return arr


def generator(seed: int, *stream: object) -> Generator:
    """The stream for a seed in [0, 2**64) and the given stream label parts."""
    if not 0 <= seed <= _MASK64:
        raise ValueError(f"rng seed {seed} is outside [0, 2**64)")
    return Generator(seed, _stream_word(stream))


def permutation(n: int, seed: int, *stream: object) -> list[int]:
    """Deterministic permutation of range(n) for (seed, stream)."""
    return generator(seed, *stream).permutation(n)


def seeded_cut(items, sizes, seed: int, *stream: object) -> list[tuple]:
    """Consecutive blocks of the (seed, stream) permutation of `items`, each kept in input order.

    Block j holds permutation positions sum(sizes[:j]) up to sum(sizes[:j+1]). Sizes must be
    non-negative and sum to at most len(items); items past the last block are in none. The shuffle
    stops once positions sizes[0] and up are final: the steps left would only reorder block 0.
    """
    items = list(items)
    if min(sizes, default=0) < 0 or sum(sizes) > len(items):
        raise ValueError(f"block sizes {list(sizes)} do not fit {len(items)} items")
    order = generator(seed, *stream)._shuffled(len(items), max(sizes[0] if sizes else 0, 1))
    return [tuple(items[i] for i in sorted(order[end - size:end])) for size, end in zip(sizes, accumulate(sizes))]
