"""Deterministic random streams.

Every shuffle in the package draws from a counter-based Philox generator keyed
by (rng_seed, stream label). The label isolates independent uses of the same
seed, so results never depend on call order.
"""

from __future__ import annotations

import hashlib
from itertools import accumulate


def _stream_word(parts: tuple) -> int:
    text = "\x1f".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def generator(seed: int, *stream: object) -> np.random.Generator:
    """Philox generator for the given seed and stream label parts."""
    import numpy as np  # here, not at the top: a step that draws no random number loads no numpy

    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(_stream_word(stream))])
    return np.random.Generator(np.random.Philox(key=key))


def permutation(n: int, seed: int, *stream: object) -> list[int]:
    """Deterministic permutation of range(n) for (seed, stream)."""
    return [int(i) for i in generator(seed, *stream).permutation(n)]


def seeded_cut(items, sizes, seed: int, *stream: object) -> list[tuple]:
    """Consecutive blocks of the (seed, stream) permutation of `items`, each kept in input order.

    Block j holds permutation positions sum(sizes[:j]) up to sum(sizes[:j+1]). Sizes must be
    non-negative and sum to at most len(items); items past the last block are in none.
    """
    items = list(items)
    if min(sizes, default=0) < 0 or sum(sizes) > len(items):
        raise ValueError(f"block sizes {list(sizes)} do not fit {len(items)} items")
    order = permutation(len(items), seed, *stream)
    ends = accumulate(sizes)
    return [tuple(items[i] for i in sorted(order[end - size:end])) for size, end in zip(sizes, ends)]
