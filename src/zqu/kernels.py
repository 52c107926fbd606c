"""Minimum-weight scan kernel.

The exhaustive distance scan walks the span of a Howell basis in mixed-radix
order (digit 0 fastest): the words of the lowest digits form one precomputed
block, each block is offset by the word of the remaining digits, and
per-coordinate weights come from a q*q lookup table.  A scan of linear
indices [start, stop) returns (best weight, index of the first word attaining
it, words scanned), so results are bit-identical across thread partitions.
"""

from __future__ import annotations

import numpy as np

_BLOCK_TARGET = 1 << 14


def min_weight_scan(rows, ranges, table, q, n, start, stop):
    """Scan span words with linear indices in [start, stop); returns
    (min weight, first index attaining it, words scanned)."""
    if stop <= start:
        return (1 << 62, -1, 0)
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    ranges = np.ascontiguousarray(ranges, dtype=np.int64)
    table = np.ascontiguousarray(table, dtype=np.int64)
    k, width = rows.shape
    block_size = 1
    k0 = 0
    while k0 < k and block_size * ranges[k0] <= _BLOCK_TARGET:
        block_size *= int(ranges[k0])
        k0 += 1
    block = np.zeros((1, width), np.int64)
    for i in range(k0):
        mult = (np.arange(ranges[i], dtype=np.int64)[:, None] * rows[i][None, :]) % q
        block = (mult[:, None, :] + block[None, :, :]) % q
        block = block.reshape(-1, width)
    best = 1 << 62
    best_idx = -1
    scanned = 0
    for outer in range(start // block_size, (stop + block_size - 1) // block_size):
        lo = max(start, outer * block_size)
        hi = min(stop, (outer + 1) * block_size)
        if lo >= hi:
            continue
        base = np.zeros(width, np.int64)
        rem = outer
        for i in range(k0, k):
            d = rem % ranges[i]
            rem //= ranges[i]
            if d:
                base = (base + d * rows[i]) % q
        words = (block[lo - outer * block_size : hi - outer * block_size] + base) % q
        weights = table[words[:, :n] * q + words[:, n:]].sum(axis=1)
        j = int(np.argmin(weights))
        value = int(weights[j])
        if value < best:
            best = value
            best_idx = lo + j
        scanned += hi - lo
    return best, best_idx, scanned


def word_at_index(rows, ranges, q, index) -> np.ndarray:
    """Reconstruct the span word at a mixed-radix linear index."""
    rows = np.asarray(rows, dtype=np.int64)
    word = np.zeros(rows.shape[1], np.int64)
    for i in range(rows.shape[0]):
        d = index % int(ranges[i])
        index //= int(ranges[i])
        if d:
            word = (word + d * rows[i]) % q
    return word
