"""Deterministic random streams.

Every shuffle in the package draws from a counter-based Philox generator keyed
by (rng_seed, stream label). The label isolates independent uses of the same
seed, so results never depend on call order.
"""

from __future__ import annotations

import hashlib

import numpy as np


def _stream_word(parts: tuple) -> int:
    text = "\x1f".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def generator(seed: int, *stream: object) -> np.random.Generator:
    """Philox generator for the given seed and stream label parts."""
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(_stream_word(stream))])
    return np.random.Generator(np.random.Philox(key=key))


def permutation(n: int, seed: int, *stream: object) -> list[int]:
    """Deterministic permutation of range(n) for (seed, stream)."""
    return [int(i) for i in generator(seed, *stream).permutation(n)]
