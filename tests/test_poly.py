import itertools
import re

import pytest
from hypothesis import given, settings, strategies as st

from zqu.errors import (
    LengthNotCoprimeError,
    NonMonicDivisorError,
    PolyParseError,
    PreconditionError,
)
from zqu.poly import (
    RPoly,
    ZqPoly,
    cyclotomic_cosets,
    divmod_monic,
    factor_xn_minus_1,
    format_r_poly,
    format_zq_poly,
    is_basic_irreducible,
    is_basic_primitive,
    is_irreducible,
    is_primitive,
    order_of_x,
    parse_r_poly,
    parse_zq_poly,
    r_poly_from_json,
    r_poly_to_json,
    residue_field,
    smallest_primitive,
    teichmuller_lift,
    xn_minus_1,
)
from zqu.ring import make_ring

from helpers import fp_xgcd, hensel_lift, pair_mul, root_exponents_by_evaluation, short_lengths

R4 = make_ring(2, 2)
R8 = make_ring(2, 3)
R9 = make_ring(3, 2)

PARAMS = [R4, R8, R9, make_ring(5, 1)]

Z8_QUARTIC = "x^4+4*x^3+6*x^2+3*x+1"


def rpoly(params, text):
    return parse_r_poly(text, params)


# -- division ------------------------------------------------------------------


def test_divmod_cube_example():
    quo, rem = divmod_monic(xn_minus_1(R4, 3), rpoly(R4, "x^2+x+1"))
    assert format_r_poly(quo) == "x+3"
    assert rem.is_zero()


def test_divmod_self():
    f = rpoly(R4, "x^2+x+1+u*(3*x+2)")
    quo, rem = divmod_monic(f, f)
    assert quo == RPoly.one(R4) and rem.is_zero()


def test_z8_generator_divides():
    g = rpoly(R8, "x^10+6*x^9+x^8+6*x^7+3*x^5+7*x^4+4*x^3+7*x^2+5*x+1")
    quo, rem = divmod_monic(xn_minus_1(R8, 15), g)
    assert rem.is_zero()
    assert (quo * g - xn_minus_1(R8, 15)).is_zero()


def test_divmod_requires_monic():
    with pytest.raises(NonMonicDivisorError):
        divmod_monic(xn_minus_1(R4, 3), rpoly(R4, "2*x+1"))
    with pytest.raises(NonMonicDivisorError):
        divmod_monic(xn_minus_1(R4, 3), rpoly(R4, "x+1+u*(x^2)"))
    for divisor in ("2*x+1", "x+1+u*(x^2)"):
        with pytest.raises(NonMonicDivisorError):
            rpoly(R4, divisor).divides(xn_minus_1(R4, 3))
    with pytest.raises(PreconditionError):
        rpoly(R4, "x+1").divides(xn_minus_1(R8, 3))


@st.composite
def monic_division_case(draw):
    params = draw(st.sampled_from(PARAMS))
    q = params.q

    def coeff():
        return (draw(st.integers(0, q - 1)), draw(st.integers(0, q - 1)))

    deg_d = draw(st.integers(0, 4))
    divisor = RPoly.make(params, [coeff() for _ in range(deg_d)] + [(1, 0)])
    dividend = RPoly.make(params, [coeff() for _ in range(draw(st.integers(0, 8)))])
    return dividend, divisor


@settings(max_examples=200, deadline=None)
@given(monic_division_case())
def test_divmod_round_trip(case):
    dividend, divisor = case
    quo, rem = divmod_monic(dividend, divisor)
    assert (divisor * quo + rem - dividend).is_zero()
    assert rem.is_zero() or rem.degree < divisor.degree


DIVISIBILITY_RINGS = [make_ring(2, 1), make_ring(3, 1), R4, R8, R9, make_ring(5, 2)]


@st.composite
def divisibility_case(draw):
    """(divisor, dividend, expected): a monic divisor, u-part allowed, and a
    dividend that is zero, shorter than it, a multiple of it, a multiple
    reduced mod x^n - 1 of a product of factors of x^n - 1, or random;
    expected is True or False where the kind decides it, else None."""
    params = draw(st.sampled_from(DIVISIBILITY_RINGS))
    q = params.q

    def coeffs(length):
        return [(draw(st.integers(0, q - 1)), draw(st.integers(0, q - 1))) for _ in range(length)]

    kind = draw(st.sampled_from(["zero", "shorter", "multiple", "cyclic multiple", "random"]))
    if kind == "cyclic multiple":
        n = draw(st.sampled_from([k for k in range(1, 16) if k % params.p]))
        divisor = RPoly.one(params)
        for f in factor_xn_minus_1(n, params).factors:
            if draw(st.booleans()):
                divisor = divisor * f
        return divisor, (RPoly.make(params, coeffs(n)) * divisor).reduce_cyclic(n), True
    divisor = RPoly.make(params, coeffs(draw(st.integers(0, 5))) + [(1, 0)])
    if kind == "zero":
        return divisor, RPoly.zero(params), True
    if kind == "shorter":
        dividend = RPoly.make(params, coeffs(draw(st.integers(0, divisor.degree))))
        return divisor, dividend, dividend.is_zero()
    if kind == "multiple":
        return divisor, RPoly.make(params, coeffs(draw(st.integers(0, 7)))) * divisor, True
    return divisor, RPoly.make(params, coeffs(draw(st.integers(0, 14)))), None


@settings(max_examples=300, deadline=None)
@given(divisibility_case())
def test_divides_matches_the_remainder(case):
    # `%` reads the remainder off the cached powers of x; long division is
    # the independent route.  Raising the leading coefficient's valuation,
    # or giving the u-part the top degree, leaves a divisor that is not monic.
    divisor, dividend, expected = case
    remainder = divmod_monic(dividend, divisor)[1]
    assert dividend % divisor == remainder
    divides = divisor.divides(dividend)
    assert divides == remainder.is_zero()
    assert expected is None or divides == expected
    params = divisor.params
    top = RPoly(ZqPoly.zero(params), ZqPoly.make(params, [0] * divisor.degree + [1]))
    for not_monic in (divisor * params.p, divisor + top):
        with pytest.raises(NonMonicDivisorError):
            dividend % not_monic


# -- arithmetic against a coefficient-wise oracle ---------------------------------


def _pairs(poly, length):
    return [poly[i] for i in range(length)]


def _oracle_sum(xs, ys, q, sign=1):
    xs, ys = xs + [(0, 0)] * (len(ys) - len(xs)), ys + [(0, 0)] * (len(xs) - len(ys))
    return [((a + sign * c) % q, (b + sign * d) % q) for (a, b), (c, d) in zip(xs, ys)]


def _oracle_product(xs, ys, q):
    out = [(0, 0)] * (len(xs) + len(ys) - 1)
    for i, (a, b) in enumerate(xs):
        for j, (c, d) in enumerate(ys):
            out[i + j] = _oracle_sum([out[i + j]], [pair_mul(a, b, c, d, q)], q)[0]
    return out


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([R4, R8, R9, make_ring(5, 2)]), st.integers(1, 8), st.data())
def test_rpoly_arithmetic_matches_ring_element_convolution(params, n, data):
    """+, -, *, mul_u and reduce_cyclic against sums and products of
    (a, b) pairs, coefficient by coefficient (u-parts included)."""
    q = params.q
    pair = st.tuples(st.integers(0, q - 1), st.integers(0, q - 1))
    xs = data.draw(st.lists(pair, min_size=1, max_size=7))
    ys = data.draw(st.lists(pair, min_size=1, max_size=7))
    scalar = data.draw(pair)
    k = data.draw(st.integers(-q, 2 * q))
    f, g = RPoly.make(params, xs), RPoly.make(params, ys)
    width = max(len(xs) + len(ys), n)
    padded = lambda pairs: pairs + [(0, 0)] * (width - len(pairs))
    assert _pairs(f + g, width) == padded(_oracle_sum(xs, ys, q))
    assert _pairs(f - g, width) == padded(_oracle_sum(xs, ys, q, -1))
    assert _pairs(-f, width) == padded(_oracle_sum([], xs, q, -1))
    assert _pairs(f * g, width) == padded(_oracle_product(xs, ys, q))
    assert _pairs(f * RPoly.make(params, [scalar]), width) == padded(_oracle_product(xs, [scalar], q))
    assert _pairs(f * k, width) == _pairs(k * f, width) == padded(_oracle_product(xs, [(k, 0)], q))
    assert _pairs(f.mul_u(), width) == padded(_oracle_product(xs, [(0, 1)], q))
    folded = [(0, 0)] * n
    for i, x in enumerate(_oracle_product(xs, ys, q)):
        folded[i % n] = _oracle_sum([folded[i % n]], [x], q)[0]
    assert _pairs((f * g).reduce_cyclic(n), width) == padded(folded)
    assert (f * g).reduce_cyclic(n).degree < n


def test_make_takes_ints_and_pairs():
    # an int c is the pair (c, 0); both parts reduce mod q and strip
    assert RPoly.make(R4, [5, (6, -1), 0, (4, 8)]) == RPoly.make(R4, [(1, 0), (2, 3)])
    assert RPoly.make(R4, [3, 1]) == rpoly(R4, "x+3")
    assert RPoly.make(R9, [(0, 2)]) == rpoly(R9, "0+u*(2)")
    assert RPoly.make(R4, [(4, 0), 0]).is_zero()


@pytest.mark.parametrize("params", [R4, R9])
def test_iteration_yields_the_coefficients(params):
    # __getitem__ reads 0 past the degree, so iteration must not fall back on
    # it; the bounded read fails where the unbounded one would never end
    for coeffs in ([], [3], [1, 0, 2, 0, 0, 1]):
        f = ZqPoly.make(params, coeffs)
        for poly in (f, RPoly.from_zq(f), RPoly(f, ZqPoly.make(params, coeffs[::-1]).shift(1))):
            assert tuple(itertools.islice(poly, len(poly.coeffs) + 1)) == poly.coeffs
            assert tuple(poly) == poly.coeffs
    assert tuple(RPoly.make(params, [(1, 2), 0, (0, 1)])) == ((1, 2), (0, 0), (0, 1))


# -- one ring per operation --------------------------------------------------------


def test_zq_operations_refuse_mixed_rings():
    x = ZqPoly.make(R4, [1, 1])
    y = ZqPoly.make(R8, [1, 2])
    for a, b in ((x, y), (y, x)):
        for op in (lambda f, g: f + g, lambda f, g: f - g, lambda f, g: f * g, divmod):
            with pytest.raises(PreconditionError):
                op(a, b)
    with pytest.raises(PreconditionError):
        RPoly.from_zq(x) * RPoly.from_zq(y)
    assert x * 6 == 6 * x == ZqPoly.make(R4, [2, 2])
    assert y * ZqPoly.make(make_ring(2, 3), [3]) == ZqPoly.make(R8, [3, 6])


# -- Teichmuller lifts (Hensel lifting as the oracle) -----------------------------


def test_hensel_examples():
    assert format_zq_poly(teichmuller_lift([1, 1, 1], R4)) == "x^2+x+1"
    assert format_zq_poly(teichmuller_lift([1, 1, 0, 0, 1], R8)) == Z8_QUARTIC
    for params in (R4, R9):
        lifted = teichmuller_lift([params.p - 1, 1], params)
        assert format_zq_poly(lifted) == f"x+{params.q - 1}"


def test_hensel_rejects_bad_input():
    with pytest.raises(PreconditionError):
        teichmuller_lift([1, 0, 1], R4)  # x^2+1 = (x+1)^2 over F_2
    with pytest.raises(PreconditionError):
        teichmuller_lift([0, 1], R4)  # x itself
    with pytest.raises(PreconditionError):
        teichmuller_lift([1, 2], R4)  # not monic over F_2


@pytest.mark.parametrize("n,params", [(3, R4), (7, R4), (15, R8), (5, R9),
                                      (45, R8), (63, R4), (85, R4), (91, R9)])
def test_hensel_postconditions_per_factor(n, params):
    for f in factor_xn_minus_1(n, params).factors:
        res = ZqPoly.make(residue_field(params.p), f.a.coeffs)
        assert is_irreducible(res)
        assert teichmuller_lift(res, params) == f.a
        assert hensel_lift(res, params) == f.a
        order = order_of_x(res)
        assert divmod_monic(xn_minus_1(params, order), f)[1].is_zero()


def _monics(p, m):
    """Every monic polynomial of degree m over F_p."""
    for enc in range(p**m):
        yield ZqPoly.make(residue_field(p), [(enc // p**i) % p for i in range(m)] + [1])


def _monic_irreducibles(p, m):
    return (f for f in _monics(p, m) if f[0] and is_irreducible(f))


@pytest.mark.parametrize("p,m", [(p, m) for p in (2, 3, 5) for m in range(1, 9) if p**m <= 256])
def test_teichmuller_lift_matches_hensel_oracle(p, m):
    # every monic irreducible of degree m, not only the primitive ones; the
    # lift over Z_{p^s} is the reduction of the unique lift over Z_{p^4}, so
    # one oracle run per gbar serves s = 1..4
    for gbar in _monic_irreducibles(p, m):
        oracle = hensel_lift(gbar, make_ring(p, 4))
        for s in range(1, 5):
            params = make_ring(p, s)
            expected = ZqPoly.make(params, oracle.coeffs)
            assert teichmuller_lift(gbar, params) == expected, (gbar, s)


# -- factorization -----------------------------------------------------------------


def test_factor_examples():
    assert [str(f) for f in factor_xn_minus_1(3, R4).factors] == ["x+3", "x^2+x+1"]
    assert [str(f) for f in factor_xn_minus_1(1, R4).factors] == ["x+3"]
    f15 = factor_xn_minus_1(15, R8)
    assert f15.degrees == (1, 2, 4, 4, 4)
    assert Z8_QUARTIC in [str(f) for f in f15.factors]


@pytest.mark.parametrize("n,params", [(3, R4), (7, R4), (15, R8), (5, R9), (9, R4), (4, R9),
                                      (45, R8), (63, R4), (85, R4), (91, R9)])
def test_factor_product_and_coprimality(n, params):
    fact = factor_xn_minus_1(n, params)
    assert (fact.product() - xn_minus_1(params, n)).is_zero()
    assert fact.degrees == tuple(sorted(fact.degrees))
    cosets = cyclotomic_cosets(n, params.p)
    assert sorted(len(c) for c in cosets) == sorted(fact.degrees)
    residues = [ZqPoly.make(residue_field(params.p), f.a.coeffs) for f in fact.factors]
    for i, f in enumerate(fact.factors):
        assert f.is_monic() and is_basic_irreducible(f)
        for g in residues[i + 1 :]:
            assert fp_xgcd(residues[i], g)[0] == ZqPoly.const(residue_field(params.p), 1)


@pytest.mark.parametrize("n,params", [(1, R4), (3, R4), (7, R4), (9, R4), (15, R8), (17, R4),
                                      (5, R9), (8, R9)])
def test_factor_cosets_are_the_root_exponents(n, params):
    fact = factor_xn_minus_1(n, params)
    assert sorted(fact.cosets) == sorted(tuple(c) for c in cyclotomic_cosets(n, params.p))
    for f, coset in zip(fact.factors, fact.cosets):
        assert root_exponents_by_evaluation(f, n, params) == frozenset(coset)


def test_factor_rejects_bad_length():
    with pytest.raises(LengthNotCoprimeError):
        factor_xn_minus_1(6, R4)
    with pytest.raises(LengthNotCoprimeError):
        factor_xn_minus_1(3, R9)


def test_basic_irreducible_primitive():
    f2 = rpoly(R4, "x^2+x+1")
    assert is_basic_irreducible(f2) and is_basic_primitive(f2)
    quart = rpoly(R8, Z8_QUARTIC)
    assert is_basic_primitive(quart)
    prod = rpoly(R4, "x+3") * f2
    assert not is_basic_irreducible(prod)
    # basic irreducible but not primitive: x^2+1 is irreducible over F_3, and
    # its roots have order 4, not 3^2 - 1 = 8
    nonprim = rpoly(R9, "x^2+1")
    assert is_basic_irreducible(nonprim) and not is_basic_primitive(nonprim)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_primitive_labels_match_the_primitivity_test(p):
    for n in short_lengths(p):
        fact = factor_xn_minus_1(n, make_ring(p, 1))
        assert fact.primitive == tuple(is_basic_primitive(f) for f in fact.factors), n


def _order_by_iteration(f):
    """The least k >= 1 with x^k = 1 mod f, or None when x is no unit mod f:
    a unit's order is at most the p^d - 1 nonzero classes."""
    x = ZqPoly.make(f.params, [0, 1])
    power, k = x % f, 1
    while power.coeffs != (1,) and k < f.params.p ** f.degree - 1:
        power, k = (power * x) % f, k + 1
    return k if power.coeffs == (1,) else None


@pytest.mark.parametrize("p,top", [(2, 6), (3, 3), (5, 2)])
def test_irreducible_and_primitive_match_brute_force(p, top):
    # every monic f, reducible ones with f(0) != 0 included: x of order
    # p^d - 1 must be refused there, since it would make F_p[x]/(f) a field
    for d in range(1, top + 1):
        for f in _monics(p, d):
            irreducible = not any((f % g).is_zero()
                                  for e in range(1, d // 2 + 1) for g in _monics(p, e))
            order = _order_by_iteration(f)
            assert is_irreducible(f) == irreducible, f
            assert is_primitive(f) == (order == p**d - 1), f
            if irreducible and f[0]:
                assert order_of_x(f) == order, f


# The canonical primitive polynomials, little-endian, as the list-based F_p
# search gave them.
SMALLEST_PRIMITIVE = {
    (2, 1): (1, 1), (2, 2): (1, 1, 1), (2, 3): (1, 1, 0, 1), (2, 4): (1, 1, 0, 0, 1),
    (2, 5): (1, 0, 1, 0, 0, 1), (2, 6): (1, 1, 0, 0, 0, 0, 1), (2, 7): (1, 1, 0, 0, 0, 0, 0, 1),
    (2, 8): (1, 0, 1, 1, 1, 0, 0, 0, 1), (2, 9): (1, 0, 0, 0, 1, 0, 0, 0, 0, 1),
    (2, 10): (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1),
    (3, 1): (1, 1), (3, 2): (2, 1, 1), (3, 3): (1, 2, 0, 1), (3, 4): (2, 1, 0, 0, 1),
    (3, 5): (1, 2, 0, 0, 0, 1),
    (5, 1): (2, 1), (5, 2): (2, 1, 1), (5, 3): (2, 3, 0, 1),
    (65521, 1): (17, 1),
}


def test_smallest_primitive_pinned():
    for (p, m), coeffs in SMALLEST_PRIMITIVE.items():
        f = smallest_primitive(p, m)
        assert f == ZqPoly(residue_field(p), coeffs), (p, m)
        assert is_primitive(f)


# -- text grammar and JSON ---------------------------------------------------------


CANONICAL_TEXTS = [
    "0",
    "1",
    "x",
    "x+3",
    "2*x",
    "3*x^3+x^2+2*x+1",
    "x^2+x+1",
    "0+u*(x+3)",
    "x+3+u*(2*x+1)",
    "2+u*(3)",
]


@pytest.mark.parametrize("text", CANONICAL_TEXTS)
def test_grammar_round_trip(text):
    poly = parse_r_poly(text, R4)
    assert format_r_poly(poly) == text
    assert r_poly_from_json(r_poly_to_json(poly), R4) == poly


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(PARAMS), st.data())
def test_format_parse_round_trip(params, data):
    q = params.q
    coeffs = [
        (data.draw(st.integers(0, q - 1)), data.draw(st.integers(0, q - 1)))
        for _ in range(data.draw(st.integers(0, 6)))
    ]
    poly = RPoly.make(params, coeffs)
    assert parse_r_poly(format_r_poly(poly), params) == poly
    assert r_poly_from_json(r_poly_to_json(poly), params) == poly


def test_parse_handles_least_residue_reduction():
    assert parse_zq_poly("7*x+5", R4) == ZqPoly.make(R4, [1, 3])


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(PARAMS), st.integers(1, 9), st.data())
def test_parse_with_length_folds_mod_xn_minus_1(params, n, data):
    def part():
        terms = data.draw(st.lists(st.tuples(st.integers(0, 2 * params.q),
                                             st.integers(0, 40)), min_size=1, max_size=5))
        return "+".join(f"{c}*x^{k}" for c, k in terms)

    text = data.draw(st.sampled_from(["{}", "{}+u*({})", "u*({})"])).format(part(), part())
    folded = parse_r_poly(text, params, n)
    assert folded.degree < n
    assert folded == parse_r_poly(text, params).reduce_cyclic(n)


def test_parse_with_length_takes_huge_exponents():
    assert parse_zq_poly("x^1000000000000+2", R4, 3) == ZqPoly.make(R4, [2, 1])
    assert parse_r_poly("u*(x^4+x)", R4, 3) == parse_r_poly("u*(2*x)", R4)


def test_parse_errors():
    with pytest.raises(PolyParseError):
        parse_r_poly("x^", R4)
    with pytest.raises(PolyParseError):
        parse_r_poly("", R4)
    # errors quote the text as given and name the rule it breaks
    for text, message in [
        ("x+u*(3", "unterminated u-part in 'x+u*(3'"),
        ("x+u+u", "more than one u-part in 'x+u+u'"),
        ("u*(u)", "more than one u-part in 'u*(u)'"),
        ("u*(x)+1", "the u-part (u or u*(...)) must come last in 'u*(x)+1'"),
        ("u * (x) + 1", "must come last in 'u * (x) + 1'"),
        ("u*x", "must come last in 'u*x'"),
        ("2u*(x)", "cannot parse polynomial term '2u*(x)'"),
    ]:
        with pytest.raises(PolyParseError, match=re.escape(message)):
            parse_r_poly(text, R4)
