"""Minimum-weight scan kernel.

The exhaustive distance scan walks the span of a Howell basis in mixed-radix
order (digit 0 fastest) over the linear indices [start, stop).  Digits that
stay 0 below stop are dropped, and the top digit that moves keeps only the
values it reaches.  The others split three ways, lowest first:

- block digits: their B words are built once per call and stored
  coordinate-major as pair indices a*2q + b, in the narrowest unsigned dtype
  holding 4q^2 - 1;
- mid digits and outer digits: block o holds the words o*B + j, block word j
  plus the base word of o's digits; an epoch is a run of blocks with the same
  outer digits.

Since a + a' and b + b' stay below 2q, coordinate c of block word j plus
base word (a', b') weighs tiled[pairs[c, j] + a'*2q + b'] in the q*q weight
table tiled 2 x 2: no mod q.  Within an epoch the base word's value at c is
the epoch's outer value plus one of the values S_c that the mid digits'
sums take there, at most q^2 however many blocks the epoch has.  So each
epoch builds the weight rows W_c[u] = tiled[pairs[c] + u], one per value u
in (outer value + S_c), and sums the coordinates with a single value into
one fixed row.  A chunk of blocks then weighs as the fixed row plus
sum_c W_c[slot(o, c)]: one row copy and one narrow add per other
coordinate, into two buffers allocated once per call, then one argmin.  The
slots of a chunk come from one vectorized mixed-radix step, a product with
the mid rows and a sorted lookup.

The split minimizes an estimate of the work (row gathers, row copies and
adds, slot lookups, building the S_c) among blocks of at most _BLOCK_TARGET
words whose rows fit _ROW_BYTES.  Memory is therefore bounded by constants
and q, never by the scan's length; where no value repeats, the rows are the
plain table lookup of every word.  Weights are summed in the narrowest
unsigned dtype holding max(table) * n.  A scan returns (best weight, index
of the first word attaining it, words scanned), the same for every split
and every thread partition.

This is the only zqu module that imports numpy; `metrics.min_distance`
imports it on the first scan and passes plain lists and tuples, which the
functions here convert.
"""

from __future__ import annotations

import math

import numpy as np

_BLOCK_TARGET = 1 << 14  # most words in one block
_CHUNK_WORDS = 1 << 18  # words weighed per pass (a quarter of it per row gather)
_ROW_BYTES = 1 << 22  # budget for the weight rows of one epoch

# Measured costs (ns, 2-core VM, numpy 2.4) behind the choice of split.
_GATHER_NS = 1.5  # one table lookup while building rows
_WORD_NS = 0.12  # one row element copied and added
_SLOT_NS = 30.0  # one (block, coordinate) slot: digits, offset, lookup
_STEP_NS = 20_000.0  # one mid digit's values at every coordinate...
_KEY_NS = 25.0  # ...plus this per candidate value
_EPOCH_NS = 30_000.0  # one epoch's outer value and fixed row


def min_weight_scan(rows, ranges, table, q, n, start, stop):
    """Scan span words with linear indices in [start, stop); returns
    (min weight, first index attaining it, words scanned)."""
    if stop <= start:
        return (1 << 62, -1, 0)
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    ranges = [int(r) for r in ranges]
    table = np.asarray(table, dtype=np.int64)
    # Digits from k on are 0 at every index below stop, and the top digit
    # that moves stays below ceil(stop / size).
    k, size = 0, 1
    while k < len(ranges) and size < stop:
        size *= ranges[k]
        k += 1
    rows = rows[:k]
    ranges = ranges[:k]
    if k:
        ranges[-1] = min(ranges[-1], -(-stop // (size // ranges[-1])))
    wdt = np.min_scalar_type(int(table.max()) * n)
    k0, k2 = _split(ranges, q, n, start, stop, wdt.itemsize)

    pair_dt = np.min_scalar_type(4 * q * q - 1)
    block = np.zeros((1, 2 * n), pair_dt)  # values and sums below 2q fit pair_dt
    for i in range(k0):
        mult = ((np.arange(ranges[i])[:, None] * rows[i][None, :]) % q).astype(pair_dt)
        block = ((mult[:, None, :] + block[None, :, :]) % q).reshape(-1, 2 * n)
    width = len(block)
    pairs = (block[:, :n] * (2 * q) + block[:, n:]).T.copy()
    del block
    tiled = np.tile(table.reshape(q, q).astype(wdt), (2, 2)).ravel()

    mid_rows, mid_ranges = rows[k0:k2], ranges[k0:k2]
    keys = _mid_keys(mid_rows, mid_ranges, q, n)
    # row t of an epoch weighs coordinate row_coord[t] at mid value row_value[t]
    row_coord, row_value = keys // (q * q), keys % (q * q)
    counts = np.bincount(row_coord, minlength=n).tolist()
    moving = [c for c in range(n) if counts[c] > 1]
    moving_b = [n + c for c in moving]
    shift = np.array(moving, np.int64)[:, None] * (q * q)
    fixed_rows = np.cumsum([0] + counts[:-1])[[c for c in range(n) if counts[c] == 1]]
    radix = np.array(mid_ranges, np.int64)
    strides = np.cumprod([1] + mid_ranges, dtype=np.int64)[:-1]
    span = math.prod(mid_ranges)  # blocks per epoch

    weights = np.empty((len(keys), width), wdt)
    per_chunk = max(1, _CHUNK_WORDS // max(width, 2 * n))  # blocks
    per_gather = max(1, (_CHUNK_WORDS >> 2) // width)  # rows
    acc = np.empty((per_chunk, width), wdt)
    tmp = np.empty((per_chunk, width), wdt)
    best, best_idx = 1 << 62, -1
    first, last = start // width, -(-stop // width)
    for epoch in range(first // span, (last - 1) // span + 1):
        outer = word_at_index(rows[k2:], ranges[k2:], q, epoch)
        a = (outer[:n][row_coord] + row_value // q) % q
        b = (outer[n:][row_coord] + row_value % q) % q
        offset = (a * (2 * q) + b).astype(pair_dt)
        # mode "clip" writes straight into out; "raise" would buffer it
        for t in range(0, len(keys), per_gather):
            idx = pairs[row_coord[t : t + per_gather]] + offset[t : t + per_gather, None]
            np.take(tiled, idx, out=weights[t : t + per_gather], mode="clip")
        fixed_row = weights[fixed_rows].sum(axis=0, dtype=wdt)
        lo_block = max(first, epoch * span)
        hi_block = min(last, (epoch + 1) * span)
        for o0 in range(lo_block, hi_block, per_chunk):
            o1 = min(o0 + per_chunk, hi_block)
            chunk = acc[: o1 - o0]
            chunk[...] = fixed_row
            if moving:
                # the mid digits of block o, whatever its epoch
                digits = np.arange(o0, o1)[:, None] // strides % radix
                off = digits @ mid_rows % q
                codes = (off[:, moving] * q + off[:, moving_b]).T
                slots = np.searchsorted(keys, codes + shift)
                part = tmp[: o1 - o0]
                for s in slots:
                    np.take(weights, s, axis=0, out=part, mode="clip")
                    np.add(chunk, part, out=chunk)
            flat = chunk.reshape(-1)
            lo = max(start, o0 * width) - o0 * width
            hi = min(stop, o1 * width) - o0 * width
            j = lo + int(np.argmin(flat[lo:hi]))
            value = int(flat[j])
            if value < best:
                best, best_idx = value, o0 * width + j
    return best, best_idx, stop - start


def _mid_keys(rows, ranges, q, n):
    """Sorted keys c*q^2 + a*q + b of the values (a, b) that the sums
    sum_i d_i * rows[i], 0 <= d_i < ranges[i], take at each coordinate c."""
    qq = q * q
    keys = np.arange(n, dtype=np.int64) * qq
    for row, r in zip(rows, ranges):
        coord, value = np.divmod(keys, qq)
        d = np.arange(r, dtype=np.int64)
        a = value[:, None] // q + (d * row[:n, None] % q)[coord]
        b = value[:, None] % q + (d * row[n:, None] % q)[coord]
        a[a >= q] -= q
        b[b >= q] -= q
        keys = np.sort((coord[:, None] * qq + a * q + b).ravel())
        keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
    return keys


def _split(ranges, q, n, start, stop, itemsize):
    """Block digits [0, k0) and mid digits [k0, k2) of least estimated cost
    among blocks of at most _BLOCK_TARGET words whose rows fit _ROW_BYTES."""
    k = len(ranges)
    best = (math.inf, 0, 0)
    width = 1
    for k0 in range(k + 1):
        if k0:
            width *= ranges[k0 - 1]
            if width > _BLOCK_TARGET:
                break
        first, last = start // width, -(-stop // width)
        blocks = last - first
        span, reach, keys_ns = 1, 1, 0.0  # mid words; bound on the values a coordinate takes
        for k2 in range(k0, k + 1):
            if k2 > k0:
                r = ranges[k2 - 1]
                if n * reach * r > _CHUNK_WORDS:  # candidate keys of one mid digit
                    break
                keys_ns += _STEP_NS + n * reach * r * _KEY_NS
                span *= r
                reach = min(q * q, reach * r)
            moving = n if reach > 1 else 0
            if n * reach * width * itemsize > _ROW_BYTES:
                break
            epochs = (last - 1) // span - first // span + 1
            cost = (keys_ns
                    + epochs * (_EPOCH_NS + n * reach * width * _GATHER_NS)
                    + blocks * moving * (width * _WORD_NS + _SLOT_NS)
                    + blocks * width * _WORD_NS)
            if cost < best[0]:
                best = (cost, k0, k2)
    return best[1], best[2]


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
