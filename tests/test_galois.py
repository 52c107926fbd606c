import pytest

from zqu.errors import PreconditionError
from zqu.galois import (
    build_ctx,
    eval_at,
    gr_ideal_elements,
    gr_ideals,
    gr_teichmuller,
    gr_teichmuller_set,
    gr_zq_padic_digits,
    nth_root_of_unity,
    unit_group_order,
)
from zqu.poly import RPoly, factor_xn_minus_1, parse_r_poly, xn_minus_1
from zqu.ring import census_size, make_ring

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
    "make_ctx,expected",
    [
        (lambda: ctx_m1(R4), 8),
        (ctx_4_2, 192),
        (lambda: ctx_m1(R8), 32),
        (lambda: ctx_m1(R9), 54),
    ],
)
def test_unit_group_order_vs_brute_force(make_ctx, expected):
    ctx = make_ctx()
    assert unit_group_order(ctx) == expected
    assert sum(1 for e in ctx.elements() if e.is_unit()) == expected


@pytest.mark.parametrize(
    "make_ctx,expected",
    [(ctx_4_2, 9), (lambda: ctx_m1(R4), 7), (lambda: ctx_m1(R8), 11)],
)
def test_gr_ideal_census(make_ctx, expected):
    ctx = make_ctx()
    descs = gr_ideals(ctx)
    assert len(descs) == expected
    assert census_size(ctx.params.p, ctx.params.s, ctx.m) == expected
    element_sets = {gr_ideal_elements(d, ctx) for d in descs}
    assert len(element_sets) == expected


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


def test_teichmuller_set_and_digits():
    ctx = ctx_4_2()
    teich = gr_teichmuller_set(ctx)
    assert len(teich) == ctx.residue_field_size
    step = ctx.params.p**ctx.m
    for t in teich:
        assert t**step == t
    # digits reconstruct the Z_q-part
    p, s = ctx.params.p, ctx.params.s
    for e in list(ctx.elements())[:64]:
        digits = gr_zq_padic_digits(e)
        acc = ctx.zero()
        for i, d in enumerate(reversed(digits)):
            scale = ctx.embed_pair(p ** (s - 1 - i), 0)
            acc = acc + d * scale
        assert acc.a_coeffs() == e.a_coeffs()


def test_unit_group_decomposition():
    # every unit splits uniquely as (Teichmuller power) * (kernel element)
    for ctx in (ctx_m1(R4), ctx_4_2(), ctx_m1(R8), ctx_m1(R9)):
        teich = gr_teichmuller_set(ctx)
        nonzero_teich = teich[1:]
        index = {t: i for i, t in enumerate(nonzero_teich)}
        one = ctx.one()
        seen = set()
        count = 0
        for e in ctx.elements():
            if not e.is_unit():
                continue
            count += 1
            lead = gr_teichmuller(GrVal(e))
            assert lead in index
            inv = nonzero_teich[(-index[lead]) % len(nonzero_teich)]
            tail = inv * e
            assert gr_teichmuller(GrVal(tail)) == one
            assert nonzero_teich[index[lead]] * tail == e
            seen.add((lead, tail))
        assert len(seen) == count == unit_group_order(ctx)


def GrVal(e):
    # Teichmuller digit of the Z_q-part
    from zqu.galois import GrElem

    return GrElem(e.ctx, tuple((a, 0) for a, _ in e.pairs))
