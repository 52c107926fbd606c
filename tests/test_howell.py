"""The Howell-basis span must agree with plain additive closure, have the
reduced Howell shape, and keep the rows that fix the codes' fingerprints."""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from zqu.codes import CyclicCode
from zqu.errors import PreconditionError
from zqu.howell import ZqSpan, pval
from zqu.poly import factor_xn_minus_1, parse_r_poly
from zqu.ring import ideal_descriptors, make_ring
from zqu.verify import _closure

PS = [(2, 1), (2, 2), (3, 1), (2, 3), (3, 2)]
WIDE_PS = PS + [(2, 4), (3, 3), (5, 2)]


def span_params():
    return st.sampled_from(PS)


@st.composite
def row_sets(draw):
    p, s = draw(span_params())
    q = p**s
    ncols = draw(st.integers(2, 4))
    nrows = draw(st.integers(1, 3))
    rows = [
        [draw(st.integers(0, q - 1)) for _ in range(ncols)] for _ in range(nrows)
    ]
    return p, s, ncols, rows


@st.composite
def wide_row_sets(draw):
    """Up to 8 rows of up to 8 columns over q = p^s, s <= 4; most entries are
    a power of p times 1 or a unit, so pivots of every valuation compete."""
    p, s = draw(st.sampled_from(WIDE_PS))
    q = p**s

    def entry():
        if draw(st.booleans()):
            return draw(st.integers(0, q - 1))
        unit = draw(st.sampled_from([1] + [a for a in range(1, q) if a % p]))
        return (p ** draw(st.integers(0, s)) * unit) % q

    ncols = draw(st.integers(1, 8))
    nrows = draw(st.integers(1, 8))
    return p, s, ncols, [[entry() for _ in range(ncols)] for _ in range(nrows)]


@settings(max_examples=150, deadline=None)
@given(row_sets())
def test_span_matches_bfs_closure(data):
    p, s, ncols, rows = data
    q = p**s
    span = ZqSpan.from_rows(rows, p, s, ncols)
    # scalar multiples make the additive closure a Z_q-span
    scaled = [[(c * x) % q for x in r] for r in rows for c in range(q)]
    truth = _closure(scaled, q)
    assert span.size() == len(truth)
    enumerated = set(span.elements())
    assert enumerated == truth
    for vec in truth:
        assert span.contains(vec)
    outside = tuple(1 if i == 0 else 0 for i in range(ncols))
    assert span.contains(outside) == (outside in truth)


@settings(max_examples=300, deadline=None)
@given(wide_row_sets())
def test_rows_have_reduced_howell_shape(data):
    p, s, ncols, rows = data
    q = p**s
    span = ZqSpan.from_rows(rows, p, s, ncols)
    cols = [c for c, _, _ in span.rows]
    assert cols == sorted(set(cols))  # pivot columns strictly increase
    for k, (c, e, row) in enumerate(span.rows):
        assert len(row) == ncols
        assert not any(row[:c]) and row[c] == p**e and e < s
        for _, _, above in span.rows[:k]:
            assert above[c] < p**e
        assert not any(span.reduce([(p ** (s - e) * x) % q for x in row]))
    assert all(span.contains(r) for r in rows)


@settings(max_examples=100, deadline=None)
@given(wide_row_sets(), st.randoms())
def test_fingerprint_is_presentation_invariant(data, rng):
    p, s, ncols, rows = data
    q = p**s
    span = ZqSpan.from_rows(rows, p, s, ncols)
    # regenerate from a shuffled, unit-rescaled, sum-augmented presentation
    alt = [list(r) for r in rows]
    if len(alt) >= 2:
        alt.append([(x + y) % q for x, y in zip(alt[0], alt[1])])
    unit = 1 + p * rng.randrange(p ** (s - 1)) if s > 1 else 1
    alt = [[(unit * x) % q for x in r] for r in alt]
    rng.shuffle(alt)
    assert ZqSpan.from_rows(alt, p, s, ncols).fingerprint() == span.fingerprint()


def test_enumeration_ranges_are_bijective():
    span = ZqSpan.from_rows([[2, 1, 0], [0, 2, 2]], 2, 2, 3)
    basis, ranges = span.enumeration_basis()
    total = 1
    for r in ranges:
        total *= r
    assert total == span.size()
    words = list(span.elements())
    assert len(words) == len(set(words)) == total


def test_pval():
    assert pval(0, 2, 3) == 3
    assert pval(4, 2, 3) == 2
    assert pval(6, 2, 3) == 1
    assert pval(5, 2, 3) == 0


def test_annihilator_rows_are_covered():
    # span of (p, 1) over Z_{p^2} must contain (0, p)
    span = ZqSpan.from_rows([[2, 1]], 2, 2, 2)
    assert span.contains([0, 2])
    assert span.size() == 4


def test_from_rows_refuses_a_row_wider_than_the_span():
    with pytest.raises(PreconditionError):
        ZqSpan.from_rows([[1, 2, 3]], 2, 2, 2)


@pytest.mark.parametrize("vec", [[1, 0, 0], [1, 0, 0, 0, 0, 0, 0]])
def test_contains_refuses_a_vector_of_the_wrong_length(vec):
    R4 = make_ring(2, 2)
    c = CyclicCode(3, R4, [parse_r_poly("x+3", R4)])  # a span of 2n = 6 columns
    with pytest.raises(PreconditionError):
        c.contains(vec)
    assert c.contains([3, 1, 0, 0, 0, 0])


def _components_code(n, params):
    opts = [ideal_descriptors(params.p, params.s, m)
            for m in factor_xn_minus_1(n, params).degrees]
    return CyclicCode.from_components(n, params, [o[(3 * l + 2) % len(o)] for l, o in enumerate(opts)])


@pytest.mark.parametrize("build,digest", [
    (lambda: CyclicCode(15, make_ring(2, 3), [parse_r_poly(
        "x^10+6*x^9+x^8+6*x^7+3*x^5+7*x^4+4*x^3+7*x^2+5*x+1", make_ring(2, 3))]),
     "2d6f6d6f9553b5db9c172031ae9bd7f6"),
    (lambda: CyclicCode(7, make_ring(2, 2), [parse_r_poly(t, make_ring(2, 2))
                                             for t in ["3*x^3+x^2+2*x+1", "0+u*(x+3)"]], "module"),
     "4c1757f1c3fffe69eecfc994047d8ac2"),
    (lambda: _components_code(15, make_ring(2, 3)), "ee2ad614b1ddccf7e7f1863977e33e23"),
    (lambda: _components_code(7, make_ring(2, 2)), "7165197a2e44590b077749c6fa6b91f8"),
], ids=["z8-n15-paper", "z4-n7-module", "z8-n15-components", "z4-n7-components"])
def test_code_span_rows_are_pinned(build, digest):
    """The Howell rows set the scan order, and so `min_distance`'s witness."""
    assert hashlib.md5(repr(build().span().rows).encode()).hexdigest() == digest
