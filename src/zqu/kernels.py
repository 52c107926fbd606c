"""Minimum-weight scan kernel.

The exhaustive distance scan walks the span of a Howell basis in mixed-radix
order (digit 0 fastest) over the linear indices [1, stop).  Digits that
stay 0 below stop are dropped, and the top digit that moves keeps only the
values it reaches.  The others split three ways, lowest first:

- block digits: their B words are built once per call and stored
  coordinate-major as pair indices a*2q + b, in the narrowest unsigned dtype
  holding 4q^2 - 1;
- mid digits: their M words, the mid table, are built once per call by the
  same routine, as codes a*q + b; a scan of one epoch keeps only the words
  of the blocks below stop;
- outer digits: block o holds the words o*B + j, block word j plus mid word
  o mod M plus the outer word of epoch o // M.

Since a + a' and b + b' stay below 2q, coordinate c of block word j plus
base word (a', b') weighs tiled[pairs[c, j] + a'*2q + b'] in the q*q weight
table tiled 2 x 2: no mod q.  Each epoch gathers, for every coordinate c
and every code v the mid words take there, the row W_c[v] =
tiled[pairs[c] + outer_c + v] of B weights, and a per-call index gives each
mid word its row at every coordinate.  Block o weighs as
sum_c W_c[slot(c, o mod M)], so no word of it weighs less than its bound
sum_c min W_c[slot(c, o mod M)].

Blocks are taken in index order.  Block 0, which always holds digit 0 and
so more than the zero word, is weighed alone, straight from the block
words, before any mid table, tree or weight row is built; then each epoch
weighs only the live blocks, those whose bound is below the best weight
found so far (checked again for the blocks left each time the best
falls, so every chunk but an epoch's last is full).  A skipped
block holds no lighter word, nor, coming later, an earlier one of equal
weight, so the result is that of weighing every word.  A chunk of live
blocks is packed into two buffers allocated once per call, as one row copy
(and, after the first group, one narrow add) per group and one argmin,
mapped back to (block, word).

The caller passes a floor, a lower bound it has proven on the weight of
every word of the range, or 0 (`metrics.min_distance` passes the BCH bound
of the code).  The scan returns as soon as the best weight is at or below
it, after the first block or after any chunk: every later word weighs at
least the floor and comes later, so it is excluded just as a block bound
would exclude it.

When the first block holds no word at a floor above 0, the words with one
nonzero digit past it, d * rows[i] at index d * P_i (P_i the product of
the ranges below digit i), are weighed in one vectorized pass: light words
are often a multiple of one basis row.  The first of them at index I that
weighs no more than the floor weighs exactly the floor, so the answer is
the first word at or below the floor in [B, I), or the word at I if there
is none.  So the scan's stop moves to I, and its epochs start from the
ceiling floor + 1 as their best weight: a block is live only if its bound
is at most the floor.  The split stays that of the whole range.

The coordinates are merged into groups once per call, right after the
mid table is built, by a tree of merges (`_plan`); a scan too short for a
merge to pay keeps single coordinates.  A merged group's joint value pairs
one value of each part, v_a * J_b + v_b, so each epoch builds its J_a * J_b
rows by one broadcast add of the parts' rows, after gathering the leaf
rows.  Group rows give fewer passes a chunk and a tighter bound, since the
least of a sum is at least the sum of the least terms.

The digits split by a rule on the two memory bounds, not by a search
(`_split`).  Memory is therefore bounded by constants and q, never by the
scan's length.  Weights are summed in the narrowest unsigned dtype holding
max(table) * n.  A scan returns (best weight, index of the first word
attaining it, words scanned): every word of [1, stop) counts as scanned,
whether weighed or excluded by its block's bound or the floor, and the
triple is the same for every split, every grouping and every floor up to the
least weight of the range.

This is the only zqu module that imports numpy; `metrics.min_distance`
imports it on the first scan and passes plain sequences for the weight
table and the basis.
"""

from __future__ import annotations

import array
import itertools
import math
import operator

import numpy as np

_BLOCK_WORDS = 1 << 11  # words in one block, unless the mid table overflows
_CHUNK_WORDS = 1 << 18  # words weighed per pass (a quarter of it per row gather)
_ROW_BYTES = 1 << 22  # budget for the weight rows of one epoch
_MID_BYTES = 1 << 22  # budget for the mid table, at 8 bytes an entry


def weight_array(table) -> np.ndarray:
    """The q*q weight table as an array: an ndarray passes through, and a
    sequence of non-negative ints goes through array.array, which converts
    a q = 1024 table several times faster than numpy's per-item path."""
    if isinstance(table, np.ndarray):
        return table
    return np.frombuffer(array.array("Q", table), np.uint64)


def min_weight_scan(rows, ranges, table, q, n, stop, floor):
    """Scan span words with linear indices in [1, stop), stop >= 2; returns
    (min weight, first index attaining it, words scanned).  `floor` is a
    lower bound, proven by the caller, on the weight of every word of the
    range: the scan ends at the first word that weighs no more, and past
    the first block it is sought first among the multiples of one basis
    row, which leaves only the words before that one to scan."""
    scanned = stop - 1
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    ranges = [int(r) for r in ranges]
    table = weight_array(table)
    # Digits from k on are 0 at every index below stop, and the top digit
    # that moves stays below ceil(stop / size).
    k, size = 0, 1
    while k < len(ranges) and size < stop:
        size *= ranges[k]
        k += 1
    rows = rows[:k]
    ranges = ranges[:k]
    ranges[-1] = min(ranges[-1], -(-stop // (size // ranges[-1])))
    wdt = np.min_scalar_type(int(table.max()) * n)
    pair_dt = np.min_scalar_type(4 * q * q - 1)  # values and sums below 2q fit too
    k0, k2 = _split(ranges, q, n, wdt.itemsize)
    # The first block holds digit 0, so more than the zero word.
    k0 = max(k0, 1)
    k2 = max(k2, k0)

    block = _words(rows[:k0], ranges[:k0], q, pair_dt)
    pairs = block[:n] * (2 * q) + block[n:]
    width = pairs.shape[1]
    del block
    tiled = np.tile(table.reshape(q, q).astype(wdt), (2, 2)).ravel()
    per_gather = max(1, (_CHUNK_WORDS >> 2) // width)  # rows: take() copies its indices to intp
    last = -(-stop // width)
    # The first block alone, words [1, min(stop, width)) straight from the
    # block words: a scan that ends there builds no table.
    flat = sum(np.take(tiled, pairs[t : t + per_gather]).sum(axis=0, dtype=wdt) for t in range(0, n, per_gather))
    j = 1 + int(np.argmin(flat[1 : min(stop, width)]))
    best, best_idx = int(flat[j]), j
    if best <= floor or last == 1:
        return best, best_idx, scanned
    del flat
    # The first word at or below the floor past the first block is the
    # first of [width, I) or, failing that, the row word at I: the scan
    # stops at I, with the ceiling floor + 1 as its best weight, so a block
    # is live only if its bound is at most the floor.
    row_word = None
    if floor:
        row_word = _row_hit(rows[k0:], ranges[k0:], width, table, q, n, floor)
        if row_word is not None:
            best, stop = floor + 1, row_word[1]
            last = -(-stop // width)
            if last == 1:
                return (*row_word, scanned)

    span = math.prod(ranges[k0:k2])  # blocks per epoch
    epochs = (last - 1) // span + 1
    # A single epoch reads no mid word at or past the block of stop, so
    # its table ends there, and its top digit stops at the last value read.
    used = span if epochs > 1 else last
    mid_ranges = ranges[k0:k2]
    if mid_ranges:
        mid_ranges[-1] = -(-used // (span // mid_ranges[-1]))
    mid = _words(rows[k0:k2], mid_ranges, q, pair_dt)[:, :used]
    tree = _Tree(mid[:n] * q + mid[n:], q)
    del mid
    # Leaf row r weighs coordinate coord[r] at code value[r]; slot[g, m] is
    # the row of group g that mid word m reads.
    coord, value = tree.coord, tree.value
    leaves = len(coord)
    node_rows, joins, slot = _plan(tree, last, epochs, width, wdt.itemsize).layout()
    weights = np.empty((node_rows, width), wdt)
    low = np.empty(node_rows, wdt)  # row minima
    per_chunk = max(1, _CHUNK_WORDS // max(width, 2 * n))  # blocks
    acc = np.empty((per_chunk, width), wdt)
    tmp = np.empty((per_chunk, width), wdt)

    def least(ids):
        """The least weight below stop of the blocks of mid words ids
        (ascending) of this epoch, all past the scan's first block, and the
        first index attaining it.  The ids are int64 and count from the
        epoch's first block; absolute indices are Python ints, which may
        pass 2^63."""
        flat = _weigh(weights, slot, ids, acc, tmp)
        base = epoch * span
        hi = (len(ids) - 1) * width + min(stop - (base + int(ids[-1])) * width, width)
        j = int(np.argmin(flat[:hi]))
        return int(flat[j]), (base + int(ids[j // width])) * width + j % width

    for epoch in range(epochs):
        m0 = 0 if epoch else 1  # block 0 is weighed already
        m1 = min(last - epoch * span, span)
        if m0 == m1:  # the first block ends this epoch
            continue
        outer = word_at_index(rows[k2:], ranges[k2:], q, epoch)
        a = (outer[:n][coord] + value // q) % q
        b = (outer[n:][coord] + value % q) % q
        offset = (a * (2 * q) + b).astype(pair_dt)
        # mode "clip" writes straight into out; "raise" would buffer it
        for t in range(0, leaves, per_gather):
            idx = pairs[coord[t : t + per_gather]] + offset[t : t + per_gather, None]
            np.take(tiled, idx, out=weights[t : t + len(idx)], mode="clip")
        for d, a, b in joins:
            joint = weights[d].reshape(a.stop - a.start, b.stop - b.start, width)
            np.add(weights[a, None], weights[None, b], out=joint)
        np.min(weights, axis=1, out=low)
        # sum_G min W_G[slot[G, m]]: no word of block m weighs less
        lows = np.take(low, slot[:, m0:m1]).sum(axis=0, dtype=low.dtype)
        live = np.flatnonzero(lows < best)
        while len(live):
            ids, live = live[:per_chunk], live[per_chunk:]
            weight, idx = least(ids + m0)
            if weight < best:
                best, best_idx = weight, idx
                if best <= floor:
                    return best, best_idx, scanned
                live = live[lows[live] < best]  # full chunks of what stays live
    return (*(row_word or (best, best_idx)), scanned)


def _row_hit(rows, ranges, size, table, q, n, floor):
    """(weight, index) of the first word with one nonzero digit, d * rows[i]
    at index d * P_i, that weighs at most floor; None if there is none.
    The digits are those above the scan's first block, P_0 = size its words
    and P_i = P_(i-1) * ranges[i-1], and the top range is cut at stop, so
    every such index lies past the first block and below stop.

    Indices grow with (i, d), since d * P_i < P_(i+1), so the first hit of
    the (digit, value) grid in row-major order is the least.  The grid is
    weighed a few digits at a time, in at most _CHUNK_WORDS entries."""
    sizes = list(itertools.accumulate(ranges[:-1], operator.mul, initial=size))
    d = np.arange(1, max(ranges))
    valid = d < np.array(ranges)[:, None]
    step = max(1, _CHUNK_WORDS // (len(d) * 2 * n))
    for i in range(0, len(sizes), step):
        words = rows[i : i + step, None, :] * d[:, None] % q
        weight = np.take(table, words[..., :n] * q + words[..., n:]).sum(axis=2)
        hit = (weight <= floor) & valid[i : i + step]
        t = int(np.argmax(hit))
        if hit.flat[t]:
            return int(weight.flat[t]), sizes[i + t // len(d)] * (1 + t % len(d))
    return None


def _weigh(weights, slot, ids, acc, tmp):
    """Row i of acc := sum over groups g of weights[slot[g, ids[i]]]: the
    weights of the blocks of mid words ids, returned flat."""
    chunk, part = acc[: len(ids)], tmp[: len(ids)]
    np.take(weights, slot[0, ids], axis=0, out=chunk, mode="clip")
    for s in slot[1:, ids]:
        np.take(weights, s, axis=0, out=part, mode="clip")
        np.add(chunk, part, out=chunk)
    return chunk.reshape(-1)


def _words(rows, ranges, q, dtype):
    """The words sum_i d_i * rows[i], 0 <= d_i < ranges[i], coordinate-major:
    column t of the (2n, prod(ranges)) result, of unsigned dtype holding
    2q - 1, is the word whose digits spell t in mixed radix, digit 0 fastest."""
    words = np.zeros((rows.shape[1], 1), dtype)
    if len(ranges):
        mult = (rows[:, :, None] * np.arange(max(ranges)) % q).astype(dtype)
    for i, r in enumerate(ranges):
        t = mult[i, :, :r, None] + words[:, None, :]
        # t - q wraps around to a large value wherever t < q
        np.minimum(t, t - dtype.type(q), out=t)
        words = t.reshape(rows.shape[1], -1)
    return words


def _distinct(keys, bound):
    """For each row of a 2-d array of keys in [0, bound): how many distinct
    keys it holds, and the rank of each key among them, in ascending order
    and a narrow dtype.  Returns (counts, values, ranks), values holding the
    distinct keys of every row, row after row."""
    rows = len(keys)
    if rows * bound > 4 * keys.size + 4096:
        found = [np.unique(row, return_inverse=True) for row in keys]
        counts = np.array([len(v) for v, _ in found], np.int64)
        dtype = np.min_scalar_type(int(counts.max()) - 1)
        return (counts, np.concatenate([v for v, _ in found]).astype(np.int64),
                np.stack([inverse.astype(dtype) for _, inverse in found]))
    # intp keys index fastest; narrow ones bound the memory of large tables
    dtype = np.intp if keys.size <= 1 << 17 else np.min_scalar_type(rows * bound - 1)
    flat = keys.astype(dtype)
    flat += (np.arange(rows) * bound).astype(dtype)[:, None]
    seen = np.zeros((rows, bound), bool)
    seen.reshape(-1)[flat] = True
    # the rank within its row of every possible key; unseen keys are not read
    rank = np.cumsum(seen, axis=1) - 1
    counts = rank[:, -1] + 1
    values = np.nonzero(seen)[1]
    rank = rank.astype(np.min_scalar_type(int(counts.max()) - 1)).reshape(-1)
    ranks = np.empty(keys.shape, rank.dtype)
    # take() indexes through an intp copy of its indices: a few rows at a time
    step = max(1, (1 << 16) // keys.shape[1])
    for r in range(0, rows, step):
        np.take(rank, flat[r : r + step], out=ranks[r : r + step])
    return counts, values, ranks


class _Tree:
    """Coordinate groups over a mid table, as a tree of merges.

    Node c < n is coordinate c, whose joint values are the codes a*q + b
    that the mid words take there, numbered from 0 in ascending order; node
    n + t is the t-th merge (a, b) of two earlier nodes, whose joint value
    v_a * J_b + v_b pairs a value of each part, whether a mid word takes it
    or not.  `groups` lists the nodes not merged yet, and slots[g] the joint
    value of groups[g] at each mid word.
    """

    def __init__(self, codes, q):
        counts, self.value, slots = _distinct(codes, q * q)
        # singleton row r weighs coordinate coord[r] at code value[r]
        self.coord = np.repeat(np.arange(len(codes)), counts)
        self.counts = counts.tolist()  # joint values J per node
        self.merges = []
        self.groups = list(range(len(codes)))
        self.slots = list(slots)

    def merge(self, pairs, most, budget):
        """Merge groups i and j for each (i, j) in pairs, all disjoint, unless
        the merge would have more than `most` joint values or the rows of all
        nodes would pass `budget`.  Returns the pairs of nodes not merged."""
        failed, gone = [], set()
        for i, j in pairs:
            a, b = self.groups[i], self.groups[j]
            joint = self.counts[a] * self.counts[b]
            if joint > most or sum(self.counts) + joint > budget:
                failed.append((a, b))
                continue
            # in a dtype holding J_b as well as the joint values
            self.slots[i] = np.multiply(self.slots[i], self.counts[b], dtype=np.min_scalar_type(joint))
            self.slots[i] += self.slots[j]
            self.merges.append((a, b))
            self.groups[i] = len(self.counts)
            self.counts.append(joint)
            gone.add(j)
        self.groups = [g for k, g in enumerate(self.groups) if k not in gone]
        self.slots = [s for k, s in enumerate(self.slots) if k not in gone]
        return failed

    def layout(self):
        """(rows, joins, slot): the rows of all nodes, node after node; for
        each merge (d, a, b), the slices of rows of the node and of its
        parts, row v_a * J_b + v_b of d the sum of rows a[v_a] and b[v_b];
        and an array slot[g, m], the row of groups[g] that mid word m reads."""
        base = list(itertools.accumulate(self.counts, initial=0))
        n = len(self.counts) - len(self.merges)
        joins = [tuple(slice(base[node], base[node + 1]) for node in (n + t, a, b))
                 for t, (a, b) in enumerate(self.merges)]
        slot = np.array(self.slots, np.min_scalar_type(base[-1] - 1))
        slot += np.array([base[g] for g in self.groups], slot.dtype)[:, None]
        return base[-1], joins, slot


def _plan(tree, blocks, epochs, width, itemsize):
    """Merge the groups of a _Tree of single coordinates; returns the tree.

    A merge into J joint values saves one copy-and-add pass on every block
    and costs J rows, built by one broadcast add, in every epoch: it gains
    while J * epochs < blocks and the rows of all nodes fit _ROW_BYTES.  J
    is the product of its parts' J, so the groups follow from the leaf
    counts alone.  Groups merge with their neighbours, level by level."""
    most = -(-blocks // epochs) - 1
    budget = _ROW_BYTES // (width * itemsize)
    closed = set()  # nodes that merge with no neighbour
    while True:
        live = [g for g, node in enumerate(tree.groups) if node not in closed]
        if len(live) < 2:
            return tree
        for nodes in tree.merge(list(zip(live[0::2], live[1::2])), most, budget):
            closed.update(nodes)


def _split(ranges, q, n, itemsize):
    """Block digits [0, k0): the longest prefix of at most _BLOCK_WORDS
    words, widened only while the digits above it overflow one mid table
    and the rows of a full one, q^2 a coordinate, still fit _ROW_BYTES for
    the wider block: at most _ROW_BYTES / (n q^2 itemsize) words, 2^16 at
    q = 2 and n = 15.  Mid digits [k0, k2): the longest run after it whose
    table fits _MID_BYTES and whose single-coordinate rows, min(q^2, mid
    words) a coordinate, fit _ROW_BYTES."""
    k, k0, width = len(ranges), 0, 1
    while k0 < k and width * ranges[k0] <= _BLOCK_WORDS:
        width *= ranges[k0]
        k0 += 1
    while (k0 < k and math.prod(ranges[k0:]) * n * 8 > _MID_BYTES
           and n * q * q * width * ranges[k0] * itemsize <= _ROW_BYTES):
        width *= ranges[k0]
        k0 += 1
    k2, span = k0, 1
    while (k2 < k and span * ranges[k2] * n * 8 <= _MID_BYTES
           and n * min(q * q, span * ranges[k2]) * width * itemsize <= _ROW_BYTES):
        span *= ranges[k2]
        k2 += 1
    return k0, k2


def word_at_index(rows, ranges, q, index) -> np.ndarray:
    """Reconstruct the span word at a mixed-radix linear index: its digits,
    then one vector step."""
    rows = np.asarray(rows, dtype=np.int64)
    digits = []
    for r in ranges:
        index, d = divmod(index, int(r))
        digits.append(d)
    if not any(digits):  # as the outer word of a scan's first epoch is
        return np.zeros(rows.shape[1], np.int64)
    return np.dot(np.array(digits, np.int64), rows) % q
