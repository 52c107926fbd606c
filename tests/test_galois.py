import pytest
from hypothesis import given, settings, strategies as st

from zqu.errors import PreconditionError
from zqu.galois import ideal_span_mod, unit_group_order
from zqu.howell import ZqSpan
from zqu.poly import RPoly, factor_xn_minus_1, parse_r_poly, xn_minus_1
from zqu.ring import census_size, ideal_descriptors, make_ring

from helpers import (
    GrElem,
    build_ctx,
    eval_at,
    gr_ideal_elements,
    gr_span_by_multiplication,
    gr_teichmuller_loop,
    nth_root_of_unity,
)

R4 = make_ring(2, 2)
R8 = make_ring(2, 3)
R9 = make_ring(3, 2)


def ctx_4_2():
    return build_ctx(factor_xn_minus_1(3, R4).factors[1])


def ctx_m1(params, n=1):
    return build_ctx(factor_xn_minus_1(n, params).factors[0])


def test_build_ctx_examples():
    ctx = ctx_4_2()
    assert ctx.m == 2 and ctx.size == 256
    ctx15, _ = nth_root_of_unity(15, R8)
    assert str(ctx15.modulus) == "x^4+4*x^3+6*x^2+3*x+1"
    assert ctx15.primitive
    xi = ctx15.xi
    orders = {k for k in range(1, 16) if (xi**k) == ctx15.one()}
    assert min(orders) == 15
    degenerate = ctx_m1(R4)
    assert degenerate.m == 1 and degenerate.size == 16


def test_build_ctx_rejects_reducible():
    prod = parse_r_poly("x+3", R4) * parse_r_poly("x^2+x+1", R4)
    with pytest.raises(PreconditionError):
        build_ctx(prod)


def test_gr_is_unit_examples():
    ctx = ctx_4_2()
    ux = ctx.from_rpoly(RPoly.make(R4, [(0, 0), (0, 1)]))
    assert not ux.is_unit()
    x = ctx.from_rpoly(RPoly.make(R4, [(0, 0), (1, 0)]))
    assert x.is_unit()
    ctx1 = ctx_m1(R4)
    assert sum(1 for e in ctx1.elements() if e.is_unit()) == 8


@pytest.mark.parametrize(
    "p,s,m,expected",
    [(2, 2, 1, 8), (2, 2, 2, 192), (2, 3, 1, 32), (3, 2, 1, 54), (2, 1, 3, 56), (3, 1, 2, 72)],
)
def test_unit_group_order_vs_brute_force(p, s, m, expected):
    ctx, _ = nth_root_of_unity(p**m - 1, make_ring(p, s))  # ord_{p^m - 1}(p) = m
    assert ctx.m == m
    assert unit_group_order(p, s, m) == expected
    assert sum(1 for e in ctx.elements() if e.is_unit()) == expected


@pytest.mark.parametrize(
    "make_ctx,expected",
    [(ctx_4_2, 9), (lambda: ctx_m1(R4), 7), (lambda: ctx_m1(R8), 11)],
)
def test_gr_ideal_census(make_ctx, expected):
    # `expected` counts the four families; at s = 3 they miss ideals
    ctx = make_ctx()
    descs = ideal_descriptors(ctx.params.p, ctx.params.s, ctx.m)
    assert len(descs) == expected
    assert census_size(ctx.params.p, ctx.params.s, ctx.m) == (13 if ctx.params.s == 3 else expected)
    element_sets = {gr_ideal_elements(d, ctx) for d in descs}
    assert len(element_sets) == expected


def ideals_by_brute_force(ctx):
    """Every ideal of GR(R, m): its principal ideals, built by Galois-ring
    multiplication, closed under sums."""
    p, s, width = ctx.params.p, ctx.params.s, 2 * ctx.m

    def total(a, b):
        return ZqSpan.from_rows([row for _, _, row in a.rows + b.rows], p, s, width)

    principal = {gr_span_by_multiplication(ctx, [e]) for e in ctx.elements()}
    ideals, frontier = set(principal), principal
    while frontier:
        frontier = {total(a, b) for a in frontier for b in principal} - ideals
        ideals |= frontier
    return ideals


@pytest.mark.parametrize("p,s,m,expected", [(2, 2, 1, 7), (3, 2, 1, 8), (2, 2, 2, 9),
                                            (2, 3, 1, 13), (2, 3, 2, 19), (2, 4, 1, 23)])
def test_census_size_counts_every_ideal(p, s, m, expected):
    params = make_ring(p, s)
    f = next(f for f in factor_xn_minus_1(p**m - 1, params).factors if f.degree == m)
    assert len(ideals_by_brute_force(build_ctx(f))) == census_size(p, s, m) == expected


# Every factor of degree m <= 4 of x^n - 1, n in {1, 3, 5, 7}, over Z4, Z8,
# Z9 and Z16; n = 1 gives the base ring R itself (m = 1, factor x - 1).
SPAN_FACTORS = [
    (params, f)
    for params in (R4, R8, R9, make_ring(2, 4))
    for n in (1, 3, 5, 7)
    if n % params.p
    for f in factor_xn_minus_1(n, params).factors
    if f.degree <= 4
]


@st.composite
def generator_lists(draw):
    params, f = draw(st.sampled_from(SPAN_FACTORS))
    p, s, q, m = params.p, params.s, params.q, f.degree

    def coeff():  # p-power multiples, so that proper ideals come up often
        return p ** draw(st.integers(0, s)) * draw(st.integers(0, q - 1)) % q

    gens = []
    for _ in range(draw(st.integers(0, 3))):
        length = draw(st.integers(0, 2 * m))  # degrees up to 2m - 1 need reducing
        gens.append(RPoly.make(params, [(coeff(), coeff()) for _ in range(length)]))
    return f, gens


def test_span_factors_cover_every_ring_and_degree():
    seen = {(params.q, f.degree) for params, f in SPAN_FACTORS}
    assert seen == {(q, m) for q in (4, 8, 16) for m in (1, 2, 3, 4)} | {(9, 1), (9, 4)}


@given(generator_lists())
@settings(max_examples=150, deadline=None)
def test_ideal_span_mod_matches_multiplication_oracle(case):
    f, gens = case
    ctx = build_ctx(f)
    oracle = gr_span_by_multiplication(ctx, [ctx.from_rpoly(g) for g in gens])
    assert ideal_span_mod(gens, f).fingerprint() == oracle.fingerprint()


def test_unit_iff_invertible_small_ctx():
    for ctx in (ctx_m1(R4), ctx_4_2()):
        elements = list(ctx.elements())
        units = [e for e in elements if e.is_unit()]
        unit_set = set(units)
        for e in elements:
            invertible = any((e * y) == ctx.one() for y in unit_set)
            assert e.is_unit() == invertible


def test_zero_divisors_equal_maximal_ideal():
    from zqu.ring import IdealDescriptor, KIND_P_AND_U

    for ctx in (ctx_m1(R4), ctx_4_2(), ctx_m1(R9)):
        nonunits = {e for e in ctx.elements() if not e.is_unit()}
        maximal = gr_ideal_elements(IdealDescriptor(KIND_P_AND_U, 1), ctx)
        assert nonunits == set(maximal)


@pytest.mark.parametrize("n,params,m", [(15, R8, 4), (3, R4, 2), (7, R4, 3), (5, R9, 4)])
def test_nth_root_of_unity(n, params, m):
    ctx, zeta = nth_root_of_unity(n, params)
    assert ctx.m == m
    powers = set()
    acc = ctx.one()
    for _ in range(n):
        powers.add(acc)
        acc = acc * zeta
    assert acc == ctx.one() and len(powers) == n
    assert eval_at(xn_minus_1(params, n), zeta, ctx).is_zero()


def test_nth_root_rejects_bad_length():
    from zqu.errors import LengthNotCoprimeError

    with pytest.raises(LengthNotCoprimeError):
        nth_root_of_unity(6, R4)


def test_eval_examples():
    ctx, zeta = nth_root_of_unity(15, R8)
    g = parse_r_poly("x^10+6*x^9+x^8+6*x^7+3*x^5+7*x^4+4*x^3+7*x^2+5*x+1", R8)
    acc = ctx.one()
    roots = []
    for e in range(15):
        if eval_at(g, acc, ctx).is_zero():
            roots.append(e)
        acc = acc * zeta
    assert set(range(1, 7)).issubset(roots)
    assert 0 not in roots
    one = RPoly.one(R8)
    assert eval_at(one, zeta, ctx) == ctx.one()


def zq_part(e):
    return GrElem(e.ctx, tuple((a, 0) for a, _ in e.pairs))


def teichmuller(e):
    """Closed-form Teichmuller representative of e's residue: the Z_q-part
    of e raised to p^(m(s-1))."""
    p, s = e.ctx.params.p, e.ctx.params.s
    return zq_part(e) ** (p ** (e.ctx.m * (s - 1)))


def teichmuller_set(ctx):
    return {teichmuller(e) for e in ctx.elements() if e == zq_part(e)}


def test_teichmuller_set_and_digits():
    ctx = ctx_4_2()
    teich = teichmuller_set(ctx)
    assert len(teich) == ctx.residue_field_size
    step = ctx.params.p**ctx.m
    for t in teich:
        assert t**step == t
        assert gr_teichmuller_loop(t) == t
    # digits of the Z_q-part over the Teichmuller set reconstruct it
    p, s = ctx.params.p, ctx.params.s
    for e in list(ctx.elements())[:64]:
        v = zq_part(e)
        acc = ctx.zero()
        for i in range(s):
            d = teichmuller(v)
            assert d in teich
            acc = acc + d * ctx.embed_pair(p**i, 0)
            v = GrElem(ctx, tuple((a // p, 0) for a, _ in (v - d).pairs))
        assert acc.a_coeffs() == e.a_coeffs()


def test_unit_group_decomposition():
    # every unit splits uniquely as (Teichmuller element) * (kernel element)
    for ctx in (ctx_m1(R4), ctx_4_2(), ctx_m1(R8), ctx_m1(R9)):
        nonzero_teich = teichmuller_set(ctx) - {ctx.zero()}
        order = ctx.residue_field_size - 1
        one = ctx.one()
        seen = set()
        count = 0
        for e in ctx.elements():
            if not e.is_unit():
                continue
            count += 1
            lead = teichmuller(e)
            assert lead in nonzero_teich
            tail = lead ** (order - 1) * e
            assert teichmuller(tail) == one
            assert lead * tail == e
            seen.add((lead, tail))
        assert len(seen) == count == unit_group_order(ctx.params.p, ctx.params.s, ctx.m)


def test_closed_form_teichmuller_matches_loop():
    # The closed form applies to the Z_q-part only: a u-part u*b picks up
    # just a factor p^(m(s-1)), short of p^s when m(s-1) < s (m = 1 here),
    # so e^(p^(m(s-1))) is not yet the fixed point the loop reaches.
    u_part_differs = 0
    for ctx in (ctx_m1(R4), ctx_4_2(), ctx_m1(R8), ctx_m1(R9), ctx_m1(make_ring(2, 4))):
        p, s = ctx.params.p, ctx.params.s
        for e in ctx.elements():
            assert teichmuller(e) == gr_teichmuller_loop(e)
            if e ** (p ** (ctx.m * (s - 1))) != gr_teichmuller_loop(e):
                u_part_differs += 1
    assert u_part_differs > 0
    ctx = ctx_m1(R4)
    e = ctx.embed_pair(1, 1)  # 1 + u
    assert e**2 == ctx.embed_pair(1, 2)
    assert teichmuller(e) == gr_teichmuller_loop(e) == ctx.one()
