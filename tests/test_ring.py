import itertools
import re
import time

import numpy as np
import pytest

from zqu.errors import GuardExceededError, PreconditionError
from zqu.galois import ideal_elements, unit_group_order
from zqu.poly import RPoly, parse_r_poly
from zqu.ring import (
    IdealDescriptor,
    KIND_P_AND_U,
    KIND_P_ALPHA_U,
    KIND_P_POWER,
    KIND_U_P_POWER,
    census_size,
    ideal_descriptors,
    make_ring,
    p_adic_digits,
    teichmuller,
    teichmuller_set,
)

from helpers import pair_mul, teichmuller_loop

R4 = make_ring(2, 2)
R8 = make_ring(2, 3)
R9 = make_ring(3, 2)


def test_make_ring():
    assert make_ring(2, 2).q == 4
    assert make_ring(2, 3).q == 8
    with pytest.raises(PreconditionError):
        make_ring(4, 1)
    with pytest.raises(PreconditionError):
        make_ring(2, 0)
    with pytest.raises(PreconditionError):
        make_ring(65521, 4)  # q^2 overflows 64 bits


@pytest.mark.parametrize("p,s,message", [
    ((1 << 61) - 1, 1, "exceeds the 16-bit prime bound"),
    (2, 14300, "q^2 = 2^28600 does not fit a 64-bit word"),
    (3, 10**8, "q^2 = 3^200000000 does not fit a 64-bit word"),
    (2, 32, "q^2 = 2^64 does not fit a 64-bit word"),
    (65537, 0, "s = 0 must be >= 1"),
])
def test_make_ring_rejects_cheapest_first(p, s, message):
    start = time.perf_counter()
    with pytest.raises(PreconditionError, match=re.escape(message)):
        make_ring(p, s)
    assert time.perf_counter() - start < 1.0


def test_make_ring_largest_word():
    assert make_ring(2, 31).q == 1 << 31
    assert make_ring(65521, 1).q == 65521


def elements(params):
    return list(itertools.product(range(params.q), repeat=2))


def test_mul_examples():
    def mul(params, x, y):
        return RPoly.make(params, [x]) * RPoly.make(params, [y])

    assert mul(R4, (1, 1), (1, 3)) == RPoly.make(R4, [(1, 0)]) == RPoly.one(R4)
    assert mul(R4, (2, 1), (2, 1)).is_zero()
    assert mul(R8, (3, 2), (5, 1)) == RPoly.make(R8, [(7, 5)])


def test_unit_examples():
    one = RPoly.one(R4)
    # (1 + 3u)^{-1} = 1^{-1} - 1^{-2} * 3u = 1 + u
    assert RPoly.make(R4, [(1, 3)]) * RPoly.make(R4, [(1, 1)]) == one
    x = RPoly.make(R4, [(2, 1)])
    assert all(x * RPoly.make(R4, [y]) != one for y in elements(R4))
    assert sum(1 for a, b in elements(R4) if a % R4.p) == 8


@pytest.mark.parametrize("params", [R4, R8, R9, make_ring(2, 4)])
def test_unit_iff_invertible_exhaustive(params):
    # a + bu is invertible iff p does not divide a, and there are
    # unit_group_order(p, s, 1) of them
    pairs = elements(params)
    units = [(a, b) for a, b in pairs
             if any(pair_mul(a, b, c, d, params.q) == (1, 0) for c, d in pairs)]
    assert units == [(a, b) for a, b in pairs if a % params.p]
    assert len(units) == unit_group_order(params.p, params.s, 1)


def test_residue_examples():
    # the image in R/(p, u) = F_p, stripped: a zero residue is ()
    assert RPoly.make(R4, [(3, 1)]).residue() == (1,)
    assert RPoly.make(R9, [(6, 8)]).residue() == ()
    assert RPoly.make(R9, [(6, 8), (4, 0)]).residue() == (0, 1)


def test_residue_is_homomorphism_q8():
    p = R8.p
    consts = {x: RPoly.make(R8, [x]) for x in elements(R8)}

    def residue(poly):
        return poly.residue()[0] if poly.residue() else 0

    for fx in consts.values():
        for fy in consts.values():
            assert residue(fx * fy) == (residue(fx) * residue(fy)) % p
            assert residue(fx + fy) == (residue(fx) + residue(fy)) % p


@pytest.mark.parametrize("p,s", [(2, 2), (2, 3), (3, 2), (2, 4)])
def test_ring_axioms_exhaustive(p, s):
    # associativity, commutativity, distributivity over all triples, q <= 16
    q = p**s
    m = q * q
    idx = np.arange(m, dtype=np.int64)
    a, b = idx // q, idx % q
    xa, xb = a[:, None], b[:, None]
    ya, yb = a[None, :], b[None, :]
    xya, xyb = pair_mul(xa, xb, ya, yb, q)
    assert np.array_equal(xya, pair_mul(ya, yb, xa, xb, q)[0])
    assert np.array_equal(xyb, pair_mul(ya, yb, xa, xb, q)[1])
    for za, zb in zip(a, b):
        lhs = pair_mul(xya, xyb, za, zb, q)
        yza, yzb = pair_mul(ya, yb, za, zb, q)
        rhs = pair_mul(xa, xb, yza, yzb, q)
        assert np.array_equal(lhs[0], rhs[0]) and np.array_equal(lhs[1], rhs[1])
        suma, sumb = (ya + za) % q, (yb + zb) % q
        da, db = pair_mul(xa, xb, suma, sumb, q)
        ea, eb = pair_mul(xa, xb, za, zb, q)
        assert np.array_equal(da, (xya + ea) % q) and np.array_equal(db, (xyb + eb) % q)


def test_p_adic_digit_examples():
    assert p_adic_digits(6, R8) == (0, 1, 1)
    assert p_adic_digits(5, R9) == (8, 8)
    assert p_adic_digits(0, R9) == (0, 0)
    assert teichmuller_set(R9) == (0, 1, 8)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_teichmuller_closed_form_matches_loop(p):
    for s in range(1, 6):
        q = p**s
        for a in range(q):
            assert teichmuller(a, p, q) == teichmuller_loop(a, p, q), (a, q)


def test_teichmuller_set_matches_the_sweep_over_z_q():
    # the sweep over all q residues that one pow per class mod p replaced
    primes = [p for p in range(2, 1025) if all(p % d for d in range(2, p))]
    rings = [make_ring(p, s) for p in primes for s in range(1, 11) if p**s <= 1024]
    assert len(rings) == 198  # 172 primes and 26 higher prime powers
    for params in rings:
        p, q = params.p, params.q
        assert teichmuller_set(params) == tuple(sorted({teichmuller(a, p, q) for a in range(q)}))


@pytest.mark.parametrize("params", [R4, R8, R9, make_ring(5, 2), make_ring(3, 3)])
def test_p_adic_round_trip(params):
    teich = set(teichmuller_set(params))
    for a in range(params.q):
        digits = p_adic_digits(a, params)
        assert len(digits) == params.s
        assert all(d in teich for d in digits)
        assert sum(d * params.p**i for i, d in enumerate(digits)) % params.q == a


@pytest.mark.parametrize(
    "params,expected", [(R4, 7), (make_ring(2, 1), 3), (R9, 8), (R8, 11)]
)
def test_census_counts(params, expected):
    # `expected` counts the four families; at s = 3 they miss ideals
    descs = ideal_descriptors(params.p, params.s)
    assert len(descs) == expected
    assert census_size(params.p, params.s) == (13 if params.s == 3 else expected)
    sets = {ideal_elements(d, params) for d in descs}
    assert len(sets) == expected


def test_census_q2_is_three_named_ideals():
    r2 = make_ring(2, 1)
    labels = [d.label() for d in ideal_descriptors(r2.p, r2.s)]
    assert labels == ["(p^0)", "(p^1)", "(u)"]


def test_ideal_element_examples():
    u_ideal = IdealDescriptor(KIND_U_P_POWER, 0)
    assert ideal_elements(u_ideal, R4) == {(0, 0), (0, 1), (0, 2), (0, 3)}
    mixed = IdealDescriptor(KIND_P_ALPHA_U, 1, (1,))
    assert ideal_elements(mixed, R4) == {(0, 0), (0, 2), (2, 1), (2, 3)}
    two_gen = IdealDescriptor(KIND_P_AND_U, 1)
    assert len(ideal_elements(two_gen, R4)) == 8


def test_ideal_elements_guard_refuses_large_q_without_a_span(monkeypatch):
    """q = 2^11 is past the fixed guard q <= 1024."""

    def no_span(*args):
        raise AssertionError("a span was built")

    monkeypatch.setattr("zqu.galois.gr_ideal_span", no_span)
    with pytest.raises(GuardExceededError):
        ideal_elements(IdealDescriptor(KIND_U_P_POWER, 0), make_ring(2, 11))


def test_units_and_maximal_ideal_partition():
    for params in (R4, R8, R9, make_ring(2, 4)):
        maximal = IdealDescriptor(KIND_P_AND_U, 1)  # (p, u); these rings have s >= 2
        members = ideal_elements(maximal, params)
        units = {(a, b) for a, b in elements(params) if a % params.p}
        assert units.isdisjoint(members)
        assert len(units) + len(members) == params.q**2


def test_every_two_generated_ideal_is_in_census():
    for params in (R4, R9):
        q = params.q
        census = {ideal_elements(d, params) for d in ideal_descriptors(params.p, params.s)}
        principal = {frozenset(pair_mul(a, b, c, d, q) for a, b in elements(params))
                     for c, d in elements(params)}
        found = set(principal)
        for x in principal:
            for y in principal:
                found.add(frozenset(((a + c) % q, (b + d) % q) for a, b in x for c, d in y))
        assert found == census


def test_oracle_guard():
    big = make_ring(2, 11)
    with pytest.raises(GuardExceededError):
        ideal_elements(IdealDescriptor(KIND_P_POWER, 0), big)


def test_descriptor_validation():
    with pytest.raises(PreconditionError):
        IdealDescriptor(KIND_P_ALPHA_U, 1, (0,))
    with pytest.raises(PreconditionError):
        IdealDescriptor(KIND_P_POWER, 1, (1,))
    with pytest.raises(PreconditionError):
        IdealDescriptor("bogus", 1)


@pytest.mark.parametrize("p,s", [(2, 1), (2, 2), (2, 3), (3, 2), (2, 4)])
def test_descriptor_reading_round_trip(p, s):
    for m in (1, 2, 3, 4):
        for d in ideal_descriptors(p, s, m):
            reading = d.reading(s, m)
            assert IdealDescriptor.from_reading(reading, p, s) == d
            assert reading[2] is None or len(reading[2]) == m


def test_elem_text_forms():
    # an element a + bu is the constant RPoly of the pair (a, b)
    forms = {(0, 0): "0", (2, 0): "2", (0, 3): "0+u*(3)", (2, 1): "2+u*(1)"}
    for pair, text in forms.items():
        assert str(RPoly.make(R4, [pair])) == text
        assert parse_r_poly(text, R4) == RPoly.make(R4, [pair])
