"""Minimum-weight scan kernel.

The exhaustive distance scan walks the span of a Howell basis in mixed-radix
order (digit 0 fastest).  The words of the lowest digits form one block,
built once per call and stored coordinate-major as pair indices a*2q + b in
the narrowest unsigned dtype holding 4q^2 - 1.  Every other word is a block
word plus the base word (a', b') of the remaining digits; since a + a' and
b + b' stay below 2q, adding the base word's pair index a'*2q + b' once per
block and gathering from the q*q weight table tiled 2 x 2 (a 2q*2q table)
gives each coordinate's weight with one narrow add and one lookup, no mod q.
Weights are non-negative and summed in the narrowest unsigned dtype holding
max(table) * n.  A scan of linear indices [start, stop) returns (best
weight, index of the first word attaining it, words scanned), so results
are bit-identical across thread partitions.

This is the only zqu module that imports numpy; `metrics.min_distance`
imports it on the first scan and passes plain lists and tuples, which the
functions here convert.
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
    # tiled[(a+a')*2q + b+b'] == table[((a+a') % q)*q + (b+b') % q] for a, a', b, b' < q.
    pair_dt = np.min_scalar_type(4 * q * q - 1)
    pairs = (block[:, :n] * (2 * q) + block[:, n:]).T.astype(pair_dt, order="C")
    wdt = np.min_scalar_type(int(table.max()) * n)
    tiled = np.tile(table.reshape(q, q), (2, 2)).ravel().astype(wdt)
    best = 1 << 62
    best_idx = -1
    scanned = 0
    for outer in range(start // block_size, (stop + block_size - 1) // block_size):
        lo = max(start, outer * block_size)
        hi = min(stop, (outer + 1) * block_size)
        if lo >= hi:
            continue
        base = word_at_index(rows[k0:], ranges[k0:], q, outer)
        off = (base[:n] * (2 * q) + base[n:]).astype(pair_dt)
        cols = pairs[:, lo - outer * block_size : hi - outer * block_size]
        weights = np.take(tiled, cols + off[:, None]).sum(axis=0, dtype=wdt)
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
