"""Distributed Bloom filter — the classic shuffle-reduction primitive.

Build a bit set over a join/filter key column in one streaming pass
(per-task local bitmaps, OR-merged), broadcast it once via ``ray.put``,
and pre-filter the big side of a join *before* its keyed exchange.
False positives only (never negatives), so composing it with any exact
join leaves results unchanged while cutting exchange volume by the
non-matching fraction — at a 100 TB fact-to-fact join the bloom is the
difference between shuffling the whole scan and shuffling ~matches.

Vectorized double hashing (Kirsch-Mitzenmacher): position_i =
(h1 + i*h2) mod m with two independent Fibonacci mixes of the int64
key — numpy end to end, no per-row Python.

Sizing: m_bits ~ 9.6 x expected keys gives ~1% FPR at k=7; the default
2^23 bits = 1 MiB handles ~0.9 M keys.  The OR-merge moves one bitmap
per input block through a single reduce task — at very large block
counts, raise block size or switch to a two-level merge (noted, not
needed at bench scale).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
import pyarrow as pa

from .agg import gathered_blocks

_MIX1 = np.uint64(0x9E3779B97F4A7C15)
_MIX2 = np.uint64(0xC2B2AE3D27D4EB4F)


class BloomFilter(NamedTuple):
    """Bitmap + the hash count it was built with (they must travel
    together: probing with a different ``k`` than inserted produces
    false NEGATIVES, which silently drop join matches)."""

    words: np.ndarray  # uint64 bitmap words
    k: int

    def contains(self, keys: np.ndarray) -> np.ndarray:
        return bloom_contains(self.words, keys, self.k)


def _mix(v: np.ndarray, mult: np.uint64) -> np.ndarray:
    with np.errstate(over="ignore"):
        h = v.astype(np.uint64) * mult
        h ^= h >> np.uint64(29)
        h *= _MIX1
        h ^= h >> np.uint64(32)
    return h


def bloom_insert(words: np.ndarray, keys: np.ndarray, k: int) -> None:
    """Set the k bit positions of every key in ``words`` (uint64 array,
    len(words)*64 = m bits).  In-place, vectorized."""
    m = np.uint64(len(words) * 64)
    h1 = _mix(keys, _MIX1)
    h2 = _mix(keys, _MIX2) | np.uint64(1)
    for i in range(k):
        with np.errstate(over="ignore"):
            pos = (h1 + np.uint64(i) * h2) % m
        np.bitwise_or.at(words, (pos >> np.uint64(6)).astype(np.int64),
                         np.uint64(1) << (pos & np.uint64(63)))


def bloom_contains(words: np.ndarray, keys: np.ndarray, k: int) -> np.ndarray:
    """Boolean membership mask (false positives possible, negatives not)."""
    m = np.uint64(len(words) * 64)
    h1 = _mix(keys, _MIX1)
    h2 = _mix(keys, _MIX2) | np.uint64(1)
    out = np.ones(len(keys), dtype=bool)
    for i in range(k):
        with np.errstate(over="ignore"):
            pos = (h1 + np.uint64(i) * h2) % m
        bit = (words[(pos >> np.uint64(6)).astype(np.int64)]
               >> (pos & np.uint64(63))) & np.uint64(1)
        out &= bit.astype(bool)
        if not out.any():
            break
    return out


def bloom_from_dataset(ds, key_col: str, m_bits: int = 1 << 23,
                       k: int = 7) -> "BloomFilter":
    """One streaming pass over ``ds[key_col]`` -> merged bitmap words.

    Each input block folds its keys into a local bitmap (one blob row);
    the driver ORs the blobs.  The result is driver-side and
    small (m_bits/8 bytes) — ``ray.put`` it once for probing stages.

    Returns a :class:`BloomFilter` carrying BOTH the bitmap and the
    ``k`` it was built with: probing with a different k than inserted
    yields FALSE NEGATIVES (dropped matches), so the hash count must
    travel with the bits rather than be re-stated at the probe site.
    """
    if m_bits % 64:
        raise ValueError("m_bits must be a multiple of 64")
    n_words = m_bits // 64

    def partial(b: pa.Table) -> pa.Table:
        words = np.zeros(n_words, dtype=np.uint64)
        keys = b[key_col].to_numpy(zero_copy_only=False)
        bloom_insert(words, keys, k)
        return pa.table({"bits": pa.array([words.tobytes()],
                                          type=pa.large_binary())})

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True, batch_size=None)

    acc = np.zeros(n_words, dtype=np.uint64)
    for t in gathered_blocks(partials):
        for blob in t["bits"]:
            acc |= np.frombuffer(blob.as_py(), dtype=np.uint64)
    return BloomFilter(acc, k)
