import re
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zqu.errors import GuardExceededError, PreconditionError
from zqu.galois import ideal_elements
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

from helpers import teichmuller_loop

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


def test_mul_examples():
    assert R4.elem(1, 1) * R4.elem(1, 3) == R4.elem(1, 0)
    assert R4.elem(2, 1) * R4.elem(2, 1) == R4.zero
    assert R8.elem(3, 2) * R8.elem(5, 1) == R8.elem(7, 5)
    with pytest.raises(PreconditionError):
        R4.elem(1, 0) * R8.elem(1, 0)


def test_unit_examples():
    assert R4.elem(1, 3).is_unit()
    assert not R4.elem(2, 1).is_unit()
    assert sum(1 for e in R4.elements() if e.is_unit()) == 8


@pytest.mark.parametrize("params", [R4, R8, R9, make_ring(2, 4)])
def test_unit_iff_invertible_exhaustive(params):
    elements = list(params.elements())
    for x in elements:
        has_inverse = any((x * y) == params.one for y in elements)
        assert x.is_unit() == has_inverse
        if x.is_unit():
            assert x * x.inverse() == params.one


def test_residue_examples():
    assert R4.elem(3, 1).residue() == 1
    assert R9.elem(6, 8).residue() == 0


def test_residue_is_homomorphism_q8():
    p = R8.p
    for x in R8.elements():
        for y in R8.elements():
            assert (x * y).residue() == (x.residue() * y.residue()) % p
            assert (x + y).residue() == (x.residue() + y.residue()) % p


def _vec_mul(a1, b1, a2, b2, q):
    return (a1 * a2) % q, (a1 * b2 + b1 * a2) % q


@pytest.mark.parametrize("p,s", [(2, 2), (2, 3), (3, 2), (2, 4)])
def test_ring_axioms_exhaustive(p, s):
    # associativity, commutativity, distributivity over all triples, q <= 16
    q = p**s
    m = q * q
    idx = np.arange(m, dtype=np.int64)
    a, b = idx // q, idx % q
    xa, xb = a[:, None], b[:, None]
    ya, yb = a[None, :], b[None, :]
    xya, xyb = _vec_mul(xa, xb, ya, yb, q)
    assert np.array_equal(xya, _vec_mul(ya, yb, xa, xb, q)[0])
    assert np.array_equal(xyb, _vec_mul(ya, yb, xa, xb, q)[1])
    for za, zb in zip(a, b):
        lhs = _vec_mul(xya, xyb, za, zb, q)
        yza, yzb = _vec_mul(ya, yb, za, zb, q)
        rhs = _vec_mul(xa, xb, yza, yzb, q)
        assert np.array_equal(lhs[0], rhs[0]) and np.array_equal(lhs[1], rhs[1])
        suma, sumb = (ya + za) % q, (yb + zb) % q
        da, db = _vec_mul(xa, xb, suma, sumb, q)
        ea, eb = _vec_mul(xa, xb, za, zb, q)
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
    descs = ideal_descriptors(params.p, params.s)
    assert len(descs) == expected
    assert census_size(params.p, params.s) == expected
    sets = {ideal_elements(d, params) for d in descs}
    assert len(sets) == expected


def test_census_q2_is_three_named_ideals():
    r2 = make_ring(2, 1)
    labels = [d.label() for d in ideal_descriptors(r2.p, r2.s)]
    assert labels == ["(p^0)", "(p^1)", "(u)"]


def test_ideal_element_examples():
    u_ideal = IdealDescriptor(KIND_U_P_POWER, 0)
    elems = {(e.a, e.b) for e in ideal_elements(u_ideal, R4)}
    assert elems == {(0, 0), (0, 1), (0, 2), (0, 3)}
    mixed = IdealDescriptor(KIND_P_ALPHA_U, 1, (1,))
    elems = {(e.a, e.b) for e in ideal_elements(mixed, R4)}
    assert elems == {(0, 0), (0, 2), (2, 1), (2, 3)}
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
        units = {e for e in params.elements() if e.is_unit()}
        assert units.isdisjoint(members)
        assert len(units) + len(members) == params.q**2


def test_every_two_generated_ideal_is_in_census():
    for params in (R4, R9):
        census = {frozenset(ideal_elements(d, params))
                  for d in ideal_descriptors(params.p, params.s)}
        principal = set()
        for g in params.elements():
            principal.add(frozenset(r * g for r in params.elements()))
        found = set(principal)
        for a in principal:
            for b in principal:
                found.add(frozenset(x + y for x in a for y in b))
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
    assert str(R4.elem(0, 0)) == "0"
    assert str(R4.elem(2, 0)) == "2"
    assert str(R4.elem(0, 3)) == "3u"
    assert str(R4.elem(2, 1)) == "2+u"


@given(st.sampled_from([(2, 2), (3, 2), (2, 3), (5, 1)]), st.data())
@settings(max_examples=60, deadline=None)
def test_pow_matches_repeated_multiplication(ps, data):
    params = make_ring(*ps)
    a = data.draw(st.integers(0, params.q - 1))
    b = data.draw(st.integers(0, params.q - 1))
    k = data.draw(st.integers(0, 12))
    x = params.elem(a, b)
    expected = params.one
    for _ in range(k):
        expected = expected * x
    assert x**k == expected
