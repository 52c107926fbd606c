"""Scan parity: the numpy scan must agree exactly with a word-by-word reference."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zqu import kernels
from zqu.metrics import weight_table
from zqu.ring import make_ring


@st.composite
def scan_instance(draw):
    p, s = draw(st.sampled_from([(2, 1), (2, 2), (3, 1), (2, 3)]))
    q = p**s
    n = draw(st.integers(1, 4))
    k = draw(st.integers(1, 4))
    rows = np.array(
        [[draw(st.integers(0, q - 1)) for _ in range(2 * n)] for _ in range(k)],
        dtype=np.int64,
    )
    ranges = np.array(
        [p ** draw(st.integers(1, s)) for _ in range(k)], dtype=np.int64
    )
    stop = draw(st.integers(2, int(np.prod(ranges))))
    return p, s, q, n, rows, ranges, stop


@settings(max_examples=120, deadline=None)
@given(scan_instance())
def test_scan_matches_the_word_by_word_reference(instance):
    p, s, q, n, rows, ranges, stop = instance
    table = weight_table("hamming", make_ring(p, s))
    res = kernels.min_weight_scan(rows, ranges, table, q, n, stop, 0)
    assert res == _reference_scan(rows, ranges, table, q, n, stop)


@st.composite
def table_instance(draw, pairs):
    """A scan instance over one of `pairs` with a Lee, Gray-Hamming (q = 4) or
    random non-negative table; random tables are asymmetric in (a, b)."""
    p, s = draw(st.sampled_from(pairs))
    q = p**s
    kinds = ["random", "lee", "gray-hamming"] if q == 4 else ["random"]
    kind = draw(st.sampled_from(kinds))
    if kind == "random":
        top = draw(st.sampled_from([1, 7, 300]))
        table = np.array(
            draw(st.lists(st.integers(0, top), min_size=q * q, max_size=q * q)),
            dtype=np.int64,
        )
    else:
        table = weight_table(kind, make_ring(p, s))
    n = draw(st.integers(1, 4))
    k = draw(st.integers(1, 4))
    rows = np.array(
        [[draw(st.integers(0, q - 1)) for _ in range(2 * n)] for _ in range(k)],
        dtype=np.int64,
    )
    ranges = np.array(
        [p ** draw(st.integers(1, s)) for _ in range(k)], dtype=np.int64
    )
    stop = draw(st.integers(2, int(np.prod(ranges))))
    return q, n, rows, ranges, table, stop


@settings(max_examples=100, deadline=None)
@given(table_instance([(2, 2), (2, 3), (3, 1)]), st.integers(1, 16))
def test_multi_block_scan_agrees(instance, block_words):
    # A small block cap splits even tiny spans into many blocks, so the
    # per-block offset runs with nonzero base words and an unaligned stop.
    q, n, rows, ranges, table, stop = instance
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "_BLOCK_WORDS", block_words)
        res = kernels.min_weight_scan(rows, ranges, table, q, n, stop, 0)
    assert res == _reference_scan(rows, ranges, table, q, n, stop)


@settings(max_examples=100, deadline=None)
@given(table_instance([(2, 2), (2, 3), (3, 1)]), st.integers(1, 16), st.data())
def test_budget_one_word_into_a_top_digit_value_agrees(instance, block_words, data):
    # The shape of the Z8 paper item's budget scan: the last index scanned is
    # the first word at which digit i takes a new value, so the last block
    # holds one word and the mid table ends inside a value of its top digit.
    q, n, rows, ranges, table, _ = instance
    i = data.draw(st.integers(0, len(ranges) - 1))
    stop = math.prod(int(r) for r in ranges[:i]) * data.draw(st.integers(1, int(ranges[i]) - 1)) + 1
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "_BLOCK_WORDS", block_words)
        res = kernels.min_weight_scan(rows, ranges, table, q, n, stop, 0)
    assert res == _reference_scan(rows, ranges, table, q, n, stop)


@settings(max_examples=80, deadline=None)
@given(table_instance([(2, 1), (2, 2), (3, 1), (2, 3), (3, 2)]))
def test_dtype_edges_agree(instance):
    # (3, 2) needs uint16 pair indices; tables up to 300 need uint16 sums.
    q, n, rows, ranges, table, stop = instance
    res = kernels.min_weight_scan(rows, ranges, table, q, n, stop, 0)
    assert res == _reference_scan(rows, ranges, table, q, n, stop)


def test_gray_hamming_sums_pass_a_byte():
    rng = np.random.default_rng(11)
    q, n = 4, 160
    ranges = np.array([4, 2, 4, 2, 2, 2], dtype=np.int64)
    rows = rng.integers(0, q, size=(len(ranges), 2 * n)).astype(np.int64)
    table = weight_table("gray-hamming", make_ring(2, 2))
    total = int(np.prod(ranges))
    res = kernels.min_weight_scan(rows, ranges, table, q, n, total, 0)
    assert res == _reference_scan(rows, ranges, table, q, n, total)
    assert res[0] > 255


def test_q1024_scan_agrees():
    rng = np.random.default_rng(5)
    q, n = 1024, 2
    ranges = np.array([512, 64], dtype=np.int64)
    rows = rng.integers(0, q, size=(2, 2 * n)).astype(np.int64)
    table = rng.integers(0, 50, size=q * q).astype(np.int64)
    total = int(np.prod(ranges))
    res = kernels.min_weight_scan(rows, ranges, table, q, n, total, 0)
    assert res == _reference_scan(rows, ranges, table, q, n, total)


def _reference_scan(rows, ranges, table, q, n, stop):
    best, best_idx = None, None
    for idx in range(1, stop):
        word = kernels.word_at_index(rows, ranges, q, idx)
        w = int(sum(table[int(word[j]) * q + int(word[n + j])] for j in range(n)))
        if best is None or w < best:
            best, best_idx = w, idx
    return best, best_idx, stop - 1


def test_word_at_index_walks_mixed_radix():
    rows = np.array([[1, 0], [0, 1]], dtype=np.int64)
    ranges = np.array([2, 2], dtype=np.int64)
    words = [tuple(kernels.word_at_index(rows, ranges, 2, i)) for i in range(4)]
    assert words == [(0, 0), (1, 0), (0, 1), (1, 1)]


@st.composite
def chunked_instance(draw):
    """A scan instance over q in {4, 8, 9, 25} with a random asymmetric table
    up to 300, at most 4096 words, and an unaligned stop."""
    p, s = draw(st.sampled_from([(2, 2), (2, 3), (3, 2), (5, 2)]))
    q = p**s
    n = draw(st.integers(1, 4))
    ranges = draw(st.lists(st.sampled_from([p, q]), min_size=2, max_size=12))
    while int(np.prod(ranges)) > 4096:
        ranges.pop()
    rows = np.array(
        [[draw(st.integers(0, q - 1)) for _ in range(2 * n)] for _ in ranges],
        dtype=np.int64,
    ).reshape(len(ranges), 2 * n)
    top = draw(st.sampled_from([1, 7, 300]))
    table = np.array(
        draw(st.lists(st.integers(0, top), min_size=q * q, max_size=q * q)),
        dtype=np.int64,
    )
    total = int(np.prod(ranges))
    # drawn as a distance from the end, so that the whole span is common
    stop = total - draw(st.integers(0, total - 2))
    return q, n, rows, np.array(ranges, dtype=np.int64), table, stop


# A forced partition of the coordinates into groups: None keeps the kernel's
# plan; labels[c] names the group of coordinate c.
forced_groups = st.one_of(
    st.none(),
    st.just([0, 1, 2, 3]),  # every coordinate alone
    st.just([0, 0, 0, 0]),  # one group of all coordinates
    st.lists(st.integers(0, 3), min_size=4, max_size=4),
)


# The rows a forced plan may build.  Merged rows are products of their
# parts' counts: four coordinates over Z25 with a two-digit mid table take up
# to 625 codes each, and one group of all four would need 625^4 rows.
_FORCED_ROW_BYTES = 1 << 22


def forced_plan(labels):
    """A `_plan` that merges the coordinates with equal labels, whatever it
    costs in passes, while the rows of all nodes fit _FORCED_ROW_BYTES; a
    coordinate whose merge would not fit starts a new group of its label."""

    def plan(tree, blocks, epochs, width, itemsize):
        budget = _FORCED_ROW_BYTES // (width * itemsize)
        n = len(tree.groups)
        for label in set(labels[:n]):
            coords = [c for c in range(n) if labels[c] == label]
            node = coords[0]
            for c in coords[1:]:
                if sum(tree.counts) + tree.counts[node] * tree.counts[c] > budget:
                    node = c
                    continue
                pair = (tree.groups.index(node), tree.groups.index(c))
                assert not tree.merge([pair], math.inf, math.inf)
                node = len(tree.counts) - 1
        return tree

    return plan


@pytest.mark.parametrize("most, joint", [(math.inf, 256)])
def test_merge_numbers_joint_values_by_their_parts(most, joint):
    # Two coordinates take equal codes, so only 16 of their 16 x 16 joint
    # values occur; the merge keeps every pair, and a mid word's joint value
    # spells its parts' values.
    codes = np.tile(np.arange(16, dtype=np.uint8), (2, 4))
    tree = kernels._Tree(codes, 4)
    a, b = (s.astype(np.int64) for s in tree.slots)
    assert tree.counts == [16, 16]
    assert not tree.merge([(0, 1)], most, math.inf)
    assert tree.counts[-1] == joint and tree.groups == [2]
    assert (tree.slots[0] == a * 16 + b).all()


def test_merge_slots_hold_the_second_part_count():
    # Coordinate 0 is 0 on every mid word (one joint value) and coordinate 1
    # takes all 256 codes over Z16, so the merged slots 0 * 256 + v_b need a
    # dtype that holds 256 as well as the 256 joint values.  The first block
    # sets the best to 2 and leaves every other block, bounded by 0 or 1,
    # live, so the scan weighs them through the merged coordinates.
    q, n = 16, 2
    rows = np.array([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=np.int64)
    ranges = np.array([16, 16, 16], dtype=np.int64)
    table = weight_table("hamming", make_ring(2, 4))
    planned = []

    def plan(*args):
        planned.append(args)
        return forced_plan([0, 0])(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "_split", lambda *_: (1, 3))
        mp.setattr(kernels, "_plan", plan)
        res = kernels.min_weight_scan(rows, ranges, table, q, n, 16**3, 0)
    assert res == _reference_scan(rows, ranges, table, q, n, 16**3)
    assert len(planned) == 1


@settings(max_examples=200, deadline=None)
@given(chunked_instance(), st.integers(1, 64), st.sampled_from([1, 64, 512, 1 << 22]),
       st.sampled_from([8, 64, 512, 1 << 22]),
       st.one_of(st.none(), st.tuples(st.integers(0, 6), st.integers(1, 6))), forced_groups)
def test_chunked_scan_agrees(instance, chunk_words, row_bytes, mid_bytes, split, labels):
    # Chunks of a few words make every epoch span many chunks that read the
    # same rows, and small row and mid-table budgets split the scan into
    # many epochs.  The plan is overridden, which the result must not
    # depend on: `split` forces the block and mid digits (tiny scans would
    # seldom pick mid digits, and few of them give many epochs) and `labels`
    # the groups.
    q, n, rows, ranges, table, stop = instance

    def forced_split(ranges, *_):
        k0 = min(split[0], len(ranges))
        return k0, min(k0 + split[1], len(ranges))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "_CHUNK_WORDS", chunk_words)
        mp.setattr(kernels, "_ROW_BYTES", row_bytes)
        mp.setattr(kernels, "_MID_BYTES", mid_bytes)
        if split is not None:
            mp.setattr(kernels, "_split", forced_split)
        if labels is not None:
            mp.setattr(kernels, "_plan", forced_plan(labels))
        res = kernels.min_weight_scan(rows, ranges, table, q, n, stop, 0)
    assert res == _reference_scan(rows, ranges, table, q, n, stop)


def test_forced_group_past_the_row_budget_stays_in_memory():
    # The forced split (0, 2) keeps digit 0 in the block, as every split
    # does: 25-word blocks over a 25-word mid table.  One forced group of
    # four Z25 coordinates would need up to 25^4 merged rows; the forced
    # plan merges what fits, far past _ROW_BYTES, and the scan still agrees.
    rng = np.random.default_rng(25)
    q, n = 25, 4
    ranges = np.array([25, 25, 5], dtype=np.int64)
    rows = rng.integers(0, q, size=(len(ranges), 2 * n)).astype(np.int64)
    table = rng.integers(0, 8, size=q * q).astype(np.int64)
    trees = []

    def plan(*args):
        trees.append(forced_plan([0, 0, 0, 0])(*args))
        return trees[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "_CHUNK_WORDS", 32)
        mp.setattr(kernels, "_ROW_BYTES", 512)
        mp.setattr(kernels, "_MID_BYTES", 8)
        mp.setattr(kernels, "_split", lambda *_: (0, 2))
        mp.setattr(kernels, "_plan", plan)
        res = kernels.min_weight_scan(rows, ranges, table, q, n, 3065, 0)
    assert res == _reference_scan(rows, ranges, table, q, n, 3065)
    assert len(trees) == 1 and trees[0].merges
    assert sum(trees[0].counts) <= _FORCED_ROW_BYTES


@pytest.mark.parametrize("seed", [4, 3])
def test_forced_groups_are_planned_once(seed):
    # Blocks of 64 words bound their words loosely.  On seed 4 most blocks
    # stay live and on seed 3 few do; either way the scan plans the forced
    # groups once, before its first epoch, and bounds and weighs every
    # block through them.
    rng = np.random.default_rng(seed)
    q, n = 4, 4
    ranges = np.array([4, 4, 4, 4, 4, 2], dtype=np.int64)
    rows = rng.integers(0, q, size=(len(ranges), 2 * n)).astype(np.int64)
    table = weight_table("hamming", make_ring(2, 2))
    stop = int(np.prod(ranges)) - 3
    planned = []

    def plan(*args):
        planned.append(args)
        return forced_plan([0, 0, 1, 1])(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "_split", lambda *_: (3, 6))
        mp.setattr(kernels, "_plan", plan)
        res = kernels.min_weight_scan(rows, ranges, table, q, n, stop, 0)
    assert res == _reference_scan(rows, ranges, table, q, n, stop)
    assert len(planned) == 1


@pytest.mark.parametrize("budget", [1 << 22, 1 << 24])
def test_scan_memory_does_not_grow_with_its_length(budget):
    # The Z8 length-15 paper code has 2^30 words; a scan holds its weight
    # rows and two chunk buffers, never an array as long as the scan.
    import tracemalloc

    basis, ranges = _z8_paper_basis()
    table = weight_table("hamming", make_ring(2, 3))
    tracemalloc.start()
    try:
        res = kernels.min_weight_scan(basis, ranges, table, 8, 15, budget + 1, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res == (7, 4, budget)
    assert peak < 8 << 20


def test_scan_memory_holds_with_the_largest_mid_table():
    # Binary digits at n = 31 give the widest mid table and the most groups:
    # the split takes the largest mid table that _MID_BYTES allows, and the
    # scan still keeps to the same cap.  Its stop, 2^25, ends the first epoch
    # (2^14 blocks of 2^11 words), so the scan builds that whole table.
    import tracemalloc

    from zqu import CyclicCode
    from zqu.poly import parse_r_poly

    params = make_ring(2, 2)
    basis, ranges = CyclicCode(31, params, [parse_r_poly("2", params)], "ideal").span().enumeration_basis()
    assert set(ranges) == {2}
    table = weight_table("hamming", params)
    spans = []

    class Recorded(kernels._Tree):
        # the tree is built on the mid table, once per scan
        def __init__(self, codes, q):
            spans.append(codes.shape)
            super().__init__(codes, q)

    budget = (1 << 25) - 1
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "_Tree", Recorded)
        tracemalloc.start()
        try:
            res = kernels.min_weight_scan(basis, ranges, table, 4, 31, budget + 1, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert res == (1, 1, budget)
    (n, span), = spans
    assert n == 31 and 2 * span * n * 8 > kernels._MID_BYTES
    assert peak < 8 << 20


def test_scan_memory_holds_with_the_widest_block():
    # Binary digits over Z2+uZ2 at n = 31: the split widens 2^11-word
    # blocks to 2^15, as far as the rows of a full mid table (q^2 codes a
    # coordinate) fit _ROW_BYTES, and the scan still keeps to the same cap.
    import tracemalloc

    from zqu import CyclicCode
    from zqu.poly import parse_r_poly

    params = make_ring(2, 1)
    basis, ranges = CyclicCode(31, params, [parse_r_poly("1", params)], "ideal").span().enumeration_basis()
    budget = 1 << 28
    tracemalloc.start()
    try:
        res, splits, _ = _split_scan(basis, ranges, params, 31, budget + 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res == (1, 1, budget)
    assert splits == [(15, 29)] and set(ranges) == {2}
    assert peak < 8 << 20


def _seeded_z4_basis():
    """A code of 2^20 words over Z4 at n = 15 with 20 binary digits."""
    from zqu import CyclicCode
    from zqu.poly import parse_r_poly

    params = make_ring(2, 2)
    gens = [
        "2*x^13+2*x^12+2*x^10+2*x^9+2*x^7+2*x^6+2*x^4+2*x^3+2*x+2",
        "2*x^11+2*x^10+2*x^6+2*x^5+2*x+2",
        "2*x^11+2*x^10+2*x^9+2*x^8+2*x^6+2*x^4+2*x^3+2"
        "+u*(x^14+2*x^13+x^12+x^11+2*x^10+2*x^9+x^8+2*x^5+x^4+x^3+3*x^2+3*x)",
    ]
    code = CyclicCode(15, params, [parse_r_poly(g, params) for g in gens], "ideal")
    basis, ranges = code.span().enumeration_basis()
    assert ranges == [2] * 20
    return basis, ranges


def _z8_paper_basis():
    """The Z8 length-15 paper code: 2^30 words, ten digits of range 8."""
    from zqu import CyclicCode
    from zqu.poly import parse_r_poly

    params = make_ring(2, 3)
    gen = parse_r_poly("x^10+6*x^9+x^8+6*x^7+3*x^5+7*x^4+4*x^3+7*x^2+5*x+1", params)
    basis, ranges = CyclicCode(15, params, [gen], "ideal").span().enumeration_basis()
    assert ranges == [8] * 10
    return basis, ranges


def test_grouping_cuts_the_passes_of_a_seeded_code():
    # One pass per coordinate would be 15 passes a chunk.  This counts what
    # the plan decides, not a timing.
    params = make_ring(2, 2)
    basis, ranges = _seeded_z4_basis()
    trees = []
    plan = kernels._plan

    def recorded(*args):
        trees.append(plan(*args))
        return trees[-1]

    table = weight_table("hamming", params)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "_plan", recorded)
        res = kernels.min_weight_scan(basis, ranges, table, 4, 15, 1 << 20, 0)
    assert res == (4, 1024, (1 << 20) - 1)
    (tree,) = trees
    assert len(tree.groups) <= 5


def test_lee_paper_scan_counts_codes_once():
    # Counts calls, not a timing: the Lee scan of the Z4 length-7 paper code
    # plans merges, and only its leaves count the codes the mid words take;
    # each merge numbers its joint values by the product of its parts'.
    from zqu import CyclicCode
    from zqu.metrics import min_distance
    from zqu.poly import parse_r_poly

    params = make_ring(2, 2)
    gens = [parse_r_poly(g, params) for g in ("3*x^3+x^2+2*x+1", "u*(x+3)")]
    code = CyclicCode(7, params, gens, "module")
    calls = {"_distinct": 0, "_plan": 0}

    def counted(name):
        fn = getattr(kernels, name)

        def call(*args):
            calls[name] += 1
            return fn(*args)

        return call

    with pytest.MonkeyPatch.context() as mp:
        for name in calls:
            mp.setattr(kernels, name, counted(name))
        report = min_distance(code, "lee", budget=1 << 20)
    assert (report.value, report.exhaustive) == (4, True)
    assert calls == {"_distinct": 1, "_plan": 1}


def test_bound_skips_most_blocks_of_the_z8_paper_code():
    # Counts the blocks weighed, not a timing: after the first block, a
    # block is weighed only if the sum of its group rows' minima is below
    # the best weight found.
    basis, ranges = _z8_paper_basis()
    weighed = []
    weigh = kernels._weigh

    def recorded(weights, slot, ids, *args):
        weighed.append(len(ids))
        return weigh(weights, slot, ids, *args)

    table = weight_table("hamming", make_ring(2, 3))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "_weigh", recorded)
        res = kernels.min_weight_scan(basis, ranges, table, 8, 15, (1 << 22) + 1, 0)
    assert res == (7, 4, 1 << 22)
    blocks = (1 << 22) // 512 + 1
    assert sum(weighed) <= 0.02 * blocks


# (basis, ring, words scanned, split) of two budget scans of one epoch
ONE_EPOCH_SCANS = [
    (_seeded_z4_basis, (2, 2), (1 << 20) - 1, (11, 20)),
    (_z8_paper_basis, (2, 3), 1 << 22, (3, 8)),
]


def _split_scan(basis, ranges, params, n, stop):
    """A floor-free Hamming scan of [1, stop): its triple, the (k0, k2) of
    each _split call and the outer index of each epoch it walked."""
    splits, outer = [], []
    split_of, word_at_index = kernels._split, kernels.word_at_index

    def recorded_split(*args):
        splits.append(split_of(*args))
        return splits[-1]

    def recorded_word(*args):
        outer.append(args[3])
        return word_at_index(*args)

    table = weight_table("hamming", params)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "_split", recorded_split)
        mp.setattr(kernels, "word_at_index", recorded_word)
        res = kernels.min_weight_scan(basis, ranges, table, params.q, n, stop, 0)
    return res, splits, outer


@pytest.mark.parametrize("build, ring, words, split", ONE_EPOCH_SCANS, ids=["z4-seeded", "z8-paper"])
def test_split_keeps_mid_digits_in_one_epoch(build, ring, words, split):
    # Counts what the split decides, not a timing: the block and mid digits
    # it picks and the epochs (one outer word each) the scan walks.
    res, splits, outer = _split_scan(*build(), make_ring(*ring), 15, 1 + words)
    assert res[2] == words
    assert splits == [split] and len(outer) == 1


@pytest.mark.parametrize("build, ring, words, split", ONE_EPOCH_SCANS, ids=["z4-seeded", "z8-paper"])
def test_one_epoch_scan_builds_no_mid_word_past_stop(build, ring, words, split):
    # Counts table columns, not a timing: the tree, its ranks and its slots
    # cover the mid words of the blocks below ceil(stop / width) and no more.
    # The Z8 budget stops one word into the top digit's third value, so its
    # whole table would be 3 * 8^4 = 12288 words, and 8193 are read.
    basis, ranges = build()
    tables = []

    class Recorded(kernels._Tree):
        def __init__(self, codes, q):
            tables.append(codes.shape[1])
            super().__init__(codes, q)

    params = make_ring(*ring)
    table = weight_table("hamming", params)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "_Tree", Recorded)
        res = kernels.min_weight_scan(basis, ranges, table, params.q, 15, 1 + words, 0)
    assert res[2] == words
    width = math.prod(ranges[:split[0]])
    assert tables == [-(-(1 + words) // width)]


@settings(max_examples=100, deadline=None)
@given(chunked_instance(), st.integers(1, 16), st.integers(1, 64), st.data())
def test_a_floor_up_to_the_minimum_keeps_the_triple(instance, block_words, chunk_words, data):
    # Small blocks and chunks put the first word of least weight in the
    # first block, in a later live chunk or in a later epoch; a floor at or
    # below the least weight of [1, stop) may end the scan early but
    # changes none of (value, index, words scanned).
    q, n, rows, ranges, table, _ = instance
    stop = data.draw(st.integers(2, int(np.prod(ranges))))  # below total: a budget cut
    ref = _reference_scan(rows, ranges, table, q, n, stop)
    floors = range(ref[0] + 1) if ref[0] <= 24 else [0, 1, ref[0] // 2, ref[0] - 1, ref[0]]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "_BLOCK_WORDS", block_words)
        mp.setattr(kernels, "_CHUNK_WORDS", chunk_words)
        for floor in floors:
            assert kernels.min_weight_scan(rows, ranges, table, q, n, stop, floor) == ref


def _counted_scan(basis, ranges, params, stop, floor):
    """A scan's triple, with the _Tree instances, the blocks of each _weigh
    call and the results of each row-word probe it made."""
    trees, weighed, hits = [], [], []
    weigh, row_hit = kernels._weigh, kernels._row_hit

    class Recorded(kernels._Tree):
        def __init__(self, codes, q):
            trees.append(codes.shape)
            super().__init__(codes, q)

    def recorded(weights, slot, ids, *args):
        weighed.append(len(ids))
        return weigh(weights, slot, ids, *args)

    def probed(*args):
        hits.append(row_hit(*args))
        return hits[-1]

    table = weight_table("hamming", params)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "_Tree", Recorded)
        mp.setattr(kernels, "_weigh", recorded)
        mp.setattr(kernels, "_row_hit", probed)
        res = kernels.min_weight_scan(basis, ranges, table, params.q, 15, stop, floor)
    return res, trees, weighed, hits


def test_z8_paper_scan_at_its_floor_ends_in_the_first_block():
    # Counts calls, not a timing: the first block holds a weight-7 word and
    # delta = 7, so the budget scan builds no table and weighs no block past it.
    res, trees, weighed, hits = _counted_scan(*_z8_paper_basis(), make_ring(2, 3), (1 << 22) + 1, 7)
    assert res == (7, 4, 1 << 22)
    assert trees == [] and weighed == [] and hits == []


def _z4_basis(gens, delta):
    """The enumeration basis of a Z4 length-15 ideal of 2^20 words whose
    BCH floor is delta."""
    from zqu import CyclicCode
    from zqu.poly import parse_r_poly

    params = make_ring(2, 2)
    code = CyclicCode(15, params, [parse_r_poly(g, params) for g in gens], "ideal")
    assert code.bch_floor().delta == delta and code.cardinality() == (2, 20)
    return code.span().enumeration_basis()


def _late_z4_basis():
    """delta = d = 4, and the first weight-4 word, index 4096 = 2^12, lies
    in the fifth block of 1024 words: one row of the basis."""
    return _z4_basis([
        "0+u*(x^13+3*x^12+x^10+3*x^9+x^7+3*x^6+x^4+3*x^3+x+3)",
        "2*x^11+2*x^10+2*x^6+2*x^5+2*x+2+u*(x^13+3*x^11+x^8+3*x^6+x^3+3*x)",
        "2*x^11+2*x^10+2*x^9+2*x^8+2*x^6+2*x^4+2*x^3+2"
        "+u*(x^14+2*x^13+x^12+2*x^11+3*x^10+x^9+2*x^8+2*x^7+3*x^6+2*x^5+2*x^4+x^2+3*x+3)",
    ], 4)


def _loop_z4_basis():
    """delta = d = 3, and the first weight-3 word, index 393344, has three
    nonzero digits; no word of one nonzero digit weighs 3."""
    return _z4_basis([
        "x^14+x^13+x^12+x^11+x^10+x^9+x^8+x^7+x^6+x^5+x^4+x^3+x^2+x+1",
        "2*x^11+2*x^10+2*x^6+2*x^5+2*x+2+u*(x^14+3*x^11+x^9+3*x^6+x^4+3*x)",
        "0+u*(x^11+x^10+3*x^9+x^8+2*x^7+3*x^6+x^4+3*x^3+2*x^2+3)",
    ], 3)


def _ceiling_z4_basis():
    """delta = d = 4; the first weight-4 word is index 393216, and the
    first of one nonzero digit is index 524288 = 2^19."""
    return _z4_basis([
        "2*x^11+2*x^10+2*x^6+2*x^5+2*x+2+u*(x^13+3*x^12+x^8+3*x^7+x^3+3*x^2)",
        "2*x^11+2*x^10+2*x^9+2*x^8+2*x^6+2*x^4+2*x^3+2",
        "0+u*(x^11+x^10+3*x^9+x^8+2*x^7+3*x^6+x^4+3*x^3+2*x^2+3)",
    ], 4)


def test_late_minimum_ends_the_scan_in_the_live_block_loop():
    # Counts calls, not a timing: the probe finds no word of one nonzero
    # digit at the floor, and the floor, met in a live chunk, ends the scan
    # before its last chunk.  A floor-free scan runs no probe.
    basis, ranges = _loop_z4_basis()
    params = make_ring(2, 2)
    full, full_trees, full_weighed, full_hits = _counted_scan(basis, ranges, params, 1 << 20, 0)
    res, trees, weighed, hits = _counted_scan(basis, ranges, params, 1 << 20, 3)
    assert res == full == (3, 393344, (1 << 20) - 1)
    assert full_hits == [] and hits == [None]
    assert len(trees) == len(full_trees) == 1
    assert len(weighed) < len(full_weighed)
    assert sum(weighed) < sum(full_weighed)


def test_late_row_word_at_the_floor_cuts_the_scan_at_its_index():
    # Counts calls, not a timing: basis row 10 weighs 4 = delta at index
    # P_10 = 4096, so the scan stops there: of the blocks past the first
    # one, only the three of [1024, 4096) may be weighed.
    basis, ranges = _late_z4_basis()
    params = make_ring(2, 2)
    full, _, _, _ = _counted_scan(basis, ranges, params, 1 << 20, 0)
    res, trees, weighed, hits = _counted_scan(basis, ranges, params, 1 << 20, 4)
    assert res == full == (4, 4096, (1 << 20) - 1)
    assert hits == [(4, 4096)]
    assert len(trees) == 1 and sum(weighed) <= 3


def test_far_row_word_scans_its_prefix_under_a_ceiling():
    # Counts calls, not a timing: the row word at index 2^19 leaves the
    # prefix [1024, 2^19), scanned with the ceiling delta + 1, so only
    # blocks bounded by delta are live; the first of them holds index
    # 393216 and ends the scan.
    basis, ranges = _ceiling_z4_basis()
    params = make_ring(2, 2)
    full, _, full_weighed, _ = _counted_scan(basis, ranges, params, 1 << 20, 0)
    res, trees, weighed, hits = _counted_scan(basis, ranges, params, 1 << 20, 4)
    assert res == full == (4, 393216, (1 << 20) - 1)
    assert hits == [(4, 1 << 19)]
    assert len(trees) == 1 and len(weighed) == 1
    assert sum(weighed) < sum(full_weighed)


@st.composite
def row_word_instance(draw):
    """A chunked instance with light words planted: at a digit i2, a row
    with one nonzero coordinate, and maybe at two earlier digits i0 < i1,
    rows whose sum has one nonzero coordinate, so that the word of index
    P_i0 + P_i1 may weigh as little as the row and come before it.  The table weighs
    (0, 0) at 0, and is the Hamming table half of the time."""
    q, n, rows, ranges, table, _ = draw(chunked_instance())

    def light():
        word = np.zeros(2 * n, np.int64)
        word[draw(st.integers(0, 2 * n - 1))] = draw(st.integers(1, q - 1))
        return word

    digits = sorted(draw(st.lists(st.integers(0, len(ranges) - 1), min_size=1, max_size=3, unique=True)))
    rows[digits[-1]] = light()
    if len(digits) == 3:
        rows[digits[1]] = (light() - rows[digits[0]]) % q
    if draw(st.booleans()):
        table = np.ones(q * q, np.int64)
    table[0] = 0
    return q, n, rows, ranges, table


@settings(max_examples=120, deadline=None)
@given(row_word_instance(), st.integers(1, 16), st.sampled_from([64, 512, 4096, 1 << 22]),
       st.sampled_from([8, 64, 512, 1 << 22]), st.integers(1, 64), st.data())
def test_row_certificate_keeps_the_triple(instance, block_words, row_bytes, mid_bytes, chunk_words, data):
    # Small blocks put the planted word's index d * P_i past the first
    # block, and the prefix before it, scanned under the ceiling floor + 1,
    # spans one block or many.  Small mid tables make the digits above the
    # block overflow one, so the split widens the block as far as the row
    # budget lets it.  Every floor up to the least weight of [1, stop) must
    # give the triple of a floor-free scan.
    q, n, rows, ranges, table = instance
    total = int(np.prod(ranges))
    stop = data.draw(st.one_of(st.just(total), st.integers(2, total)))  # below total: a budget cut
    ref = _reference_scan(rows, ranges, table, q, n, stop)
    floors = range(ref[0] + 1) if ref[0] <= 8 else [0, 1, ref[0] // 2, ref[0] - 1, ref[0]]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "_BLOCK_WORDS", block_words)
        mp.setattr(kernels, "_ROW_BYTES", row_bytes)
        mp.setattr(kernels, "_MID_BYTES", mid_bytes)
        mp.setattr(kernels, "_CHUNK_WORDS", chunk_words)
        for floor in floors:
            assert kernels.min_weight_scan(rows, ranges, table, q, n, stop, floor) == ref


def test_split_of_the_full_z8_sweep():
    # The 2^30-word sweep: 4096-word blocks, a mid table of 8^5 words and
    # eight epochs.
    _, ranges = _z8_paper_basis()
    k0, k2 = kernels._split(ranges, 8, 15, 1)
    assert (k0, k2) == (4, 9)
    assert math.prod(ranges[k2:]) == 8


def _seeded_z8_basis():
    """A code of 2^28 words over Z8 at n = 15, drawn uniformly among the
    ideal codes of that size: six binary digits, then eleven of range 4."""
    from zqu import CyclicCode
    from zqu.poly import parse_r_poly

    params = make_ring(2, 3)
    gens = [
        "u*(2*x^14+2*x^13+2*x^12+2*x^11+2*x^10+2*x^9+2*x^8+2*x^7+2*x^6+2*x^5+2*x^4+2*x^3+2*x^2+2*x+2)",
        "4*x^13+4*x^12+4*x^10+4*x^9+4*x^7+4*x^6+4*x^4+4*x^3+4*x+4"
        "+u*(x^14+7*x^13+x^11+7*x^10+x^8+7*x^7+x^5+7*x^4+x^2+7*x)",
        "u*(2*x^11+6*x^10+2*x^6+6*x^5+2*x+6)",
        "4*x^11+4*x^10+4*x^9+4*x^8+4*x^6+4*x^4+4*x^3+4"
        "+u*(x^14+5*x^13+4*x^12+2*x^11+5*x^10+6*x^8+7*x^6+3*x^5+7*x^4+5*x^3+4*x^2+7*x)",
    ]
    basis, ranges = CyclicCode(15, params, [parse_r_poly(g, params) for g in gens], "ideal").span().enumeration_basis()
    assert ranges == [2] * 6 + [4] * 11
    return basis, ranges


def _n21_z4_basis():
    """The Z4 length-21 ideal generated by x^6+x^4+x^2+x+1: 2^72 words."""
    from zqu import CyclicCode
    from zqu.poly import parse_r_poly

    params = make_ring(2, 2)
    code = CyclicCode(21, params, [parse_r_poly("x^6+x^4+x^2+x+1", params)], "ideal")
    return code.span().enumeration_basis()


# (basis, ring, n, stop, split, block words, epochs) of two floor-free scans
# whose digits above 2^11-word blocks overflow one mid table
WIDENED_SCANS = [
    (_seeded_z8_basis, (2, 3), 15, 1 << 28, (9, 16), 1 << 12, 4),
    (_n21_z4_basis, (2, 2), 21, (1 << 28) + 1, (6, 13), 1 << 12, 5),
]


@pytest.mark.parametrize("build, ring, n, stop, split, width, epochs", WIDENED_SCANS, ids=["z8-seeded", "z4-n21"])
def test_widened_block_leaves_a_full_mid_table(build, ring, n, stop, split, width, epochs):
    # Counts what the split decides, not a timing: the block widens only
    # while the rows of a full mid table still fit the row budget, so the
    # mid table holds 2^14 words and the scan walks a few epochs (one outer
    # word each).  Widening to 2^14-word blocks would leave 16- or 4-word
    # mid tables and 1024 or 4097 epochs.
    basis, ranges = build()
    res, splits, outer = _split_scan(basis, ranges, make_ring(*ring), n, stop)
    assert res[2] == stop - 1
    (k0, k2), = splits
    assert (k0, k2) == split and math.prod(ranges[:k0]) == width
    assert math.prod(ranges[k0:k2]) == 1 << 14
    assert outer == list(range(epochs))


@pytest.mark.parametrize("stop", [(1 << 62) - 1, (1 << 62) + 1, 10**25 + 1], ids=["2^62-1", "2^62+1", "10^25+1"])
def test_row_probe_runs_past_two_to_the_62(stop):
    # Counts calls, not a timing: the Z4 length-21 code has floor 1, and
    # basis row 15, at index 4^15 = 2^30, weighs 1.  At every stop the
    # probe finds it in one call, and the scan weighs only the words
    # before it.
    basis, ranges = _n21_z4_basis()
    table = weight_table("hamming", make_ring(2, 2))
    hits = []
    row_hit = kernels._row_hit

    def probed(*args):
        hits.append(row_hit(*args))
        return hits[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "_row_hit", probed)
        res = kernels.min_weight_scan(basis, ranges, table, 4, 21, stop, 1)
    assert res == (1, 1 << 30, stop - 1)
    assert hits == [(1, 1 << 30)]
