import itertools
import json
import math
import sys
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from zqu.codes import (
    CyclicCode,
    _read_component,
    build_crt,
    count_cyclic_codes,
    enumerate_cyclic_codes,
)
from zqu.errors import (
    EnumerationBudgetError,
    GeneratorHypothesesError,
    LengthNotCoprimeError,
    PreconditionError,
)
from zqu.galois import gr_ideal_span, ideal_elements, ideal_span_mod
from zqu.howell import ZqSpan
from zqu.poly import RPoly, ZqPoly, divmod_monic, factor_xn_minus_1, format_zq_poly, parse_r_poly
from zqu.ring import (IdealDescriptor, KIND_U_P_POWER, RingParams, census_size, ideal_descriptors,
                      make_ring, reading_generators)
from zqu.verify import _closure, _code_element_set

from helpers import (
    bch_by_evaluation,
    build_ctx,
    gr_span_by_multiplication,
    pair_mul,
    product,
    rotate,
    short_lengths,
    span_by_rotation,
)

R4 = make_ring(2, 2)
R8 = make_ring(2, 3)
R9 = make_ring(3, 2)

Z8_GEN = "x^10+6*x^9+x^8+6*x^7+3*x^5+7*x^4+4*x^3+7*x^2+5*x+1"
Z4_GENS = ["3*x^3+x^2+2*x+1", "0+u*(x+3)"]


def code(params, n, texts, mode="ideal"):
    return CyclicCode(n, params, [parse_r_poly(t, params) for t in texts], mode)


@pytest.fixture(scope="module")
def all63():
    return list(enumerate_cyclic_codes(3, R4))


# -- CRT system -----------------------------------------------------------------


@pytest.mark.parametrize("n,params", [(3, R4), (1, R4), (7, R4), (15, R8), (5, R9),
                                      (17, R8), (51, R4), (8, R9), (4, make_ring(5, 2)),
                                      (7, make_ring(2, 4))])
def test_crt_idempotent_identities(n, params):
    crt = build_crt(n, params)
    total = RPoly.zero(params)
    for i, e in enumerate(crt.idempotents):
        total = total + e
        assert ((e * e).reduce_cyclic(n) - e).is_zero()
        for e2 in crt.idempotents[i + 1 :]:
            assert (e * e2).reduce_cyclic(n).is_zero()
    assert (total - RPoly.one(params)).is_zero()


def test_crt_single_factor():
    crt = build_crt(1, R4)
    assert crt.t == 1
    assert crt.idempotents[0] == RPoly.one(R4)


# -- counting and enumeration ------------------------------------------------------


def test_count_examples():
    assert count_cyclic_codes(3, R4) == 63
    assert count_cyclic_codes(1, R4) == 7
    assert count_cyclic_codes(7, R4) == 7 * 13 * 13


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_count_is_the_census_product_over_the_factor_degrees(p):
    for s in (1, 2, 3):
        params = make_ring(p, s)
        for n in short_lengths(p):
            degrees = factor_xn_minus_1(n, params).degrees
            assert count_cyclic_codes(n, params) == math.prod(census_size(p, s, m) for m in degrees)


def test_count_and_budget_refusal_factor_nothing(monkeypatch, capsys):
    from zqu.cli import main

    def refuse(*args):
        raise AssertionError("the code count factors nothing")

    for name in ("zqu.poly.smallest_primitive", "zqu.poly.factor_xn_minus_1",
                 "zqu.codes.factor_xn_minus_1"):
        monkeypatch.setattr(name, refuse)
    # ord_179(2) = 178: the cosets are {0} and one of size 178
    total = 2681867196515305502127107297513041071332793463821303843
    assert total == census_size(2, 2, 1) * census_size(2, 2, 178)
    assert count_cyclic_codes(179, R4) == total
    assert main(["codes", "--n", "179", "--p", "2", "--s", "2", "--count"]) == 0
    assert capsys.readouterr().out == f"{total} cyclic codes of length 179 over Z4+uZ4\n"
    assert main(["codes", "--n", "83", "--p", "2", "--s", "2", "--enumerate"]) == 3
    assert "exceed the enumeration budget" in capsys.readouterr().err


def test_enumeration_distinct_and_complete(all63):
    assert len(all63) == 63
    fingerprints = {c.fingerprint() for c in all63}
    assert len(fingerprints) == 63
    element_sets = {_code_element_set(c) for c in all63}
    assert len(element_sets) == 63


def test_enumeration_includes_reference_codes(all63):
    f2 = str(factor_xn_minus_1(3, R4).factors[1])
    fingerprints = {c.fingerprint() for c in all63}
    for texts in ([], ["1"], ["u"], ["2", "u"], [f2]):
        assert CyclicCode(3, R4, [parse_r_poly(t, R4) for t in texts]).fingerprint() in fingerprints
    # (2 f_1, u f_1, f_2) from the published table of all 63 codes
    f1p, f2p = factor_xn_minus_1(3, R4).factors
    mixed = CyclicCode(3, R4, [f1p * 2, f1p.mul_u(), f2p])
    assert mixed.fingerprint() in fingerprints


def test_enumeration_limit():
    few = list(enumerate_cyclic_codes(7, R4, limit=5))
    assert len(few) == 5
    assert list(enumerate_cyclic_codes(7, R4, limit=0)) == []
    with pytest.raises(PreconditionError, match="limit must be >= 0"):
        list(enumerate_cyclic_codes(7, R4, limit=-1))


def test_enumeration_n7_fingerprint_sample():
    sample = list(enumerate_cyclic_codes(7, R4, limit=120))
    fingerprints = {c.fingerprint() for c in sample}
    assert len(fingerprints) == 120


def test_enumeration_n1_embeds_base_ring_ideals():
    codes1 = list(enumerate_cyclic_codes(1, R4))
    assert len(codes1) == 7
    sets = {frozenset((v[0], v[1]) for v in _code_element_set(c)) for c in codes1}
    assert sets == {ideal_elements(d, R4) for d in ideal_descriptors(R4.p, R4.s)}
    # each is closed under multiplication by R
    ring = list(itertools.product(range(R4.q), repeat=2))
    for members in sets:
        assert {pair_mul(a, b, c, d, R4.q) for a, b in members for c, d in ring} == members


def test_enumeration_budget_error_past_default_budget(monkeypatch):
    monkeypatch.setattr("zqu.codes.DEFAULT_ENUM_BUDGET", 10)
    with pytest.raises(EnumerationBudgetError):
        list(enumerate_cyclic_codes(3, R4))


def test_rejects_bad_length():
    with pytest.raises(LengthNotCoprimeError):
        CyclicCode(6, R4, [])


# -- components ---------------------------------------------------------------------


def test_components_round_trip(all63):
    for c in all63:
        comps = c.components()
        again = CyclicCode.from_components(3, R4, comps)
        assert again.fingerprint() == c.fingerprint()
        assert again.components() == comps


def test_components_examples():
    zero = CyclicCode(3, R4, [])
    assert all(d.is_zero_ideal(R4.s) for d in zero.components())
    whole = code(R4, 3, ["1"])
    assert all(d.is_unit_ideal() for d in whole.components())
    crt = build_crt(3, R4)
    u_fhat1 = CyclicCode(3, R4, [crt.cofactors[0].mul_u()])
    descs = u_fhat1.components()
    assert descs[0] == IdealDescriptor(KIND_U_P_POWER, 0)
    assert descs[1].is_zero_ideal(R4.s)


# The slow routes the closed forms replaced, kept as oracles: fingerprint
# lookup in the complete ideal census of each GR(R, m), with the component
# span built by Galois-ring multiplication, and the search over all 2^t monic
# divisors of x^n - 1.


@lru_cache(maxsize=None)
def component_ctx(f):
    return build_ctx(f)


@lru_cache(maxsize=None)
def census_by_fingerprint(ctx):
    descs = ideal_descriptors(ctx.params.p, ctx.params.s, ctx.m)
    return {gr_ideal_span(d, ctx.modulus).fingerprint(): d for d in descs}


def census_components(c):
    out = []
    for f in c.crt().factorization.factors:
        ctx = component_ctx(f)
        reduced = [divmod_monic(g, f)[1] for g in c.generators]
        span = gr_span_by_multiplication(ctx, [ctx.from_rpoly(r) for r in reduced])
        out.append(census_by_fingerprint(ctx)[span.fingerprint()])
    return tuple(out)


def free_by_divisor_search(c):
    crt = c.crt()
    target = c.fingerprint()
    for mask in range(1 << crt.t):
        g = RPoly.one(c.params)
        for l in range(crt.t):
            if mask & (1 << l):
                g = g * crt.factorization.factors[l]
        if CyclicCode(c.n, c.params, [g]).fingerprint() == target:
            return g.reduce_cyclic(c.n) if g.degree < c.n else g
    return None


@pytest.mark.parametrize("p,s", [(2, 1), (2, 2), (2, 3), (3, 2), (2, 4)])
def test_reading_recovers_census_descriptors(p, s):
    params = make_ring(p, s)
    contexts = 0
    for n in (1, 3, 5, 7):
        if n % p == 0:
            continue
        for f in factor_xn_minus_1(n, params).factors:
            if f.degree > 4:
                continue
            ctx = component_ctx(f)
            contexts += 1
            for desc in ideal_descriptors(p, s, ctx.m):
                reading = _read_component(gr_ideal_span(desc, ctx.modulus), ctx.m)
                assert reading == desc.reading(s, ctx.m)
                assert IdealDescriptor.from_reading(reading, p, s) == desc
    assert contexts >= 4


@pytest.mark.parametrize("params,total", [(R4, 63), (R8, 165)])
def test_components_match_census_oracle(params, total):
    # every code of the four families; at s = 3 they are 165 of the 247 codes
    codes3 = [c for _, c in census_codes(3, params)]
    assert len(codes3) == total
    for enumerated in codes3:
        rebuilt = CyclicCode(3, params, enumerated.generators)
        assert rebuilt.components() == census_components(rebuilt)


@st.composite
def generator_sets(draw):
    params, lengths = draw(st.sampled_from([
        (R4, (1, 3, 5, 7)), (R8, (1, 3, 5, 7)), (R9, (1, 2, 4, 5)),
    ]))
    n = draw(st.sampled_from(lengths))
    q = params.q
    pair = st.tuples(st.integers(0, q - 1), st.integers(0, q - 1))
    gens = []
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):  # a scaled, shifted divisor of x^n - 1
            g = RPoly.one(params)
            for f in factor_xn_minus_1(n, params).factors:
                if draw(st.booleans()):
                    g = g * f
            gens.append((g * RPoly.make(params, [draw(pair)])).shift(draw(st.integers(0, n - 1))))
            if draw(st.booleans()):
                gens.append(g.mul_u())
        else:
            gens.append(RPoly.make(params, draw(st.lists(pair, min_size=n, max_size=n))))
    mode = draw(st.sampled_from(["ideal", "module"]))
    return CyclicCode(n, params, gens, mode)


@settings(max_examples=150, deadline=None)
@given(generator_sets())
def test_is_free_matches_divisor_search(c):
    assert c.is_free() == free_by_divisor_search(c)


@settings(max_examples=150, deadline=None)
@given(generator_sets())
def test_sizes_from_readings_match_spans(c):
    # the sizes come from the component readings; the spans are the slow route
    assert c.cardinality() == (c.params.p, c.span().size_exponent())
    if c.closure_mode == "module":
        closure = CyclicCode(c.n, c.params, c.generators, "ideal").span().size_exponent()
        assert c.to_descriptor()["ideal_closure_cardinality"] == {"base": c.params.p,
                                                                  "exponent": closure}


def test_components_outside_the_four_families():
    # (4, 2u) and (4 + 2u) over Z8, and (4 + 2u) over Z16, whose alpha = 2 is
    # not a residue-field digit: ideals that the census does not list
    for params, texts in [(R8, ["4", "u*(2)"]), (R8, ["4+u*(2)"]), (make_ring(2, 4), ["4+u*(2)"])]:
        c = code(params, 1, texts)
        with pytest.raises(PreconditionError, match=f"f_1 = x\\+{params.q - 1} "):
            c.components()
        assert c.is_free() is None
        assert code(params, 1, texts, "module").is_free() is None


def test_components_require_ideal_mode():
    c = code(R4, 7, Z4_GENS, "module")
    with pytest.raises(PreconditionError):
        c.components()


# -- canonical generators --------------------------------------------------------------


def test_canonical_free_code():
    c = code(R8, 15, [Z8_GEN])
    can = c.canonical()
    assert format_zq_poly(can.f0) == Z8_GEN
    assert format_zq_poly(can.g1) == Z8_GEN
    assert can.f1.is_zero()
    assert can.hypotheses_ok


def test_canonical_u_code():
    can = code(R4, 3, ["u"]).canonical()
    assert format_zq_poly(can.f0) == "x^3+3"  # x^3 - 1 in least residues
    assert can.g1.degree == 0 and format_zq_poly(can.g1) == "1"
    assert can.f1.is_zero()
    assert can.k0 == 3 and can.k1 == 0


def test_canonical_zero_code():
    can = CyclicCode(3, R4, []).canonical()
    assert format_zq_poly(can.f0) == "x^3+3"
    assert format_zq_poly(can.g1) == "x^3+3"
    assert can.f1.is_zero()


def test_canonical_z4_length7_ideal():
    c = code(R4, 7, Z4_GENS)
    can = c.canonical()
    assert format_zq_poly(can.f0) == "x^3+3*x^2+2*x+3"
    assert format_zq_poly(can.g1) == "1"
    u = parse_r_poly("u", R4)
    assert c.contains(u)


def test_canonical_invariants(all63):
    n = 3
    for c in all63:
        can = c.canonical()
        assert can.f0.is_monic() and can.g1.is_monic()
        assert can.f1.is_zero() or can.f1.degree < can.g1.degree
        assert can.k0 >= can.k1
        # u*f0 lies in (u*g1)
        u_f0 = RPoly.from_zq(can.f0).mul_u()
        g1_code = CyclicCode(n, R4, [RPoly.from_zq(can.g1).mul_u()])
        assert g1_code.contains(u_f0)


def test_canonical_requires_ideal_mode():
    with pytest.raises(PreconditionError):
        code(R4, 7, Z4_GENS, "module").canonical()


# -- cardinality -------------------------------------------------------------------


def test_cardinality_examples():
    base, exp = code(R8, 15, [Z8_GEN]).cardinality()
    assert base**exp == 8**10 == 64**5
    assert CyclicCode(3, R4, []).cardinality() == (2, 0)
    assert code(R4, 7, Z4_GENS, "module").cardinality() == (2, 20)
    assert code(R4, 7, Z4_GENS, "ideal").cardinality() == (2, 22)


def test_cardinality_matches_element_sets_and_components(all63):
    crt = build_crt(3, R4)
    for c in all63:
        base, exp = c.cardinality()
        assert base**exp == len(_code_element_set(c))
        total = 1
        for desc, f in zip(c.components(), crt.factorization.factors):
            total *= gr_ideal_span(desc, f).size()
        assert base**exp == total


def test_theorem_style_count_only_under_hypotheses(all63):
    matching = 0
    for c in all63:
        can = c.canonical()
        predicted = can.predicted_size_exponent(3, R4.s)
        base, exp = c.cardinality()
        if can.hypotheses_ok:
            assert exp == predicted
            matching += 1
    assert matching == 9  # 3 divisor-type component choices per factor


# -- minimum generating sets --------------------------------------------------------


def test_min_gen_set_free_code():
    c = code(R8, 15, [Z8_GEN])
    beta = c.minimum_generating_set()
    g = parse_r_poly(Z8_GEN, R8)
    assert beta == [g.shift(i).reduce_cyclic(15) for i in range(5)]


def test_min_gen_set_whole_ring():
    c = code(R4, 3, ["1"])
    beta = c.minimum_generating_set()
    assert beta == [RPoly.one(R4).shift(i) for i in range(3)]


def test_min_gen_set_spans(all63):
    for c in all63:
        can = c.canonical()
        if not can.hypotheses_ok:
            continue
        beta = c.minimum_generating_set()
        vecs = []
        for m in beta:
            vecs.append([m[i][0] for i in range(3)] + [m[i][1] for i in range(3)])
            vecs.append([0, 0, 0] + [m[i][0] for i in range(3)])
        span = _closure(vecs, 4) if vecs else frozenset({(0,) * 6})
        assert len(span) == len(_code_element_set(c))


def test_min_gen_set_rejects_non_divisor_chain():
    c = code(R4, 3, ["2"])
    with pytest.raises(GeneratorHypothesesError):
        c.minimum_generating_set()


# -- freeness ----------------------------------------------------------------------


def test_is_free_examples():
    c = code(R8, 15, [Z8_GEN])
    g = c.is_free()
    assert g == parse_r_poly(Z8_GEN, R8)
    assert code(R4, 3, ["u"]).is_free() is None
    f2 = factor_xn_minus_1(3, R4).factors[1]
    quotient_code = CyclicCode(3, R4, [f2])
    assert quotient_code.is_free() == f2
    assert code(R4, 7, Z4_GENS, "module").is_free() is None
    assert code(R4, 7, Z4_GENS, "ideal").is_free() is None


def test_free_codes_have_independent_bases():
    from zqu.howell import ZqSpan

    for n, params in [(3, R4), (7, R4)]:
        crt = build_crt(n, params)
        for mask in range(1 << crt.t):
            g = RPoly.one(params)
            for l in range(crt.t):
                if mask & (1 << l):
                    g = g * crt.factorization.factors[l]
            d = g.degree
            rows = []
            for i in range(n - d):
                sh = g.shift(i).reduce_cyclic(n)
                rows.append([sh[k][0] for k in range(n)] + [sh[k][1] for k in range(n)])
                rows.append([0] * n + [sh[k][0] for k in range(n)])
            expected_exp = 2 * (n - d) * params.s
            if rows:
                span = ZqSpan.from_rows(rows, params.p, params.s, 2 * n)
                assert span.size_exponent() == expected_exp
            c = CyclicCode(n, params, [g])
            assert c.is_free() is not None
            assert c.cardinality() == (params.p, expected_exp)


# -- BCH ----------------------------------------------------------------------------


def test_bch_reference_chain():
    cert = code(R8, 15, [Z8_GEN]).bch_bound()
    assert cert.b == 1 and cert.delta == 7
    assert cert.root_exponents == (1, 2, 3, 4, 5, 6)


def test_bch_single_root():
    f1 = factor_xn_minus_1(3, R4).factors[0]  # x - 1
    cert = CyclicCode(3, R4, [f1]).bch_bound()
    assert cert.delta == 2 and cert.b == 0
    assert cert.root_exponents == (0,)


def test_bch_zero_code_capped():
    cert = CyclicCode(3, R4, []).bch_bound()
    assert cert.delta == 4  # n + 1
    assert cert.root_exponents == (0, 1, 2)


def test_bch_no_roots():
    cert = code(R4, 3, ["1"]).bch_bound()
    assert cert.delta == 1 and cert.root_exponents == ()


def test_bch_requires_free():
    with pytest.raises(PreconditionError):
        code(R4, 3, ["u"]).bch_bound()


BCH_GRID = [(params, n) for params in (R4, R8, R9) for n in (1, 3, 5, 7, 9, 15, 17)
            if n % params.p]


def test_bch_matches_evaluation_oracle_on_every_divisor():
    divisors = 0
    for params, n in BCH_GRID:
        factors = factor_xn_minus_1(n, params).factors
        for mask in range(1 << len(factors)):
            g = product([f for l, f in enumerate(factors) if mask >> l & 1], params)
            cert = CyclicCode(n, params, [g]).bch_floor()
            assert (cert.b, cert.delta, cert.root_exponents) == bch_by_evaluation(g, n, params)
            divisors += 1
    assert divisors == 146


@st.composite
def r_poly_over(draw, params, max_len):
    """An R-polynomial with u-part, scaled by p^e for some 0 <= e <= s."""
    q = params.q
    pairs = draw(st.lists(st.tuples(st.integers(0, q - 1), st.integers(0, q - 1)),
                          max_size=max_len))
    scale = params.p ** draw(st.integers(0, params.s))
    return RPoly.make(params, [(scale * a, scale * b) for a, b in pairs])


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_bch_matches_evaluation_oracle_on_any_g(data):
    # g = d1*h1 + u*d2*h2 for divisors d1, d2 of x^n - 1 and arbitrary h1, h2
    # (u-parts, non-unit multiples), so roots of every kind occur
    params, n = data.draw(st.sampled_from(BCH_GRID))
    factors = factor_xn_minus_1(n, params).factors
    g = RPoly.zero(params)
    for u_times in (False, True):
        chosen = data.draw(st.lists(st.sampled_from(factors), unique=True))
        h = data.draw(r_poly_over(params, 4))
        term = product(chosen, params) * h
        g = g + (term.mul_u() if u_times else term)
    cert = CyclicCode(n, params, [g]).bch_floor()
    assert (cert.b, cert.delta, cert.root_exponents) == bch_by_evaluation(g, n, params)


def test_span_and_bch_divide_nothing(monkeypatch):
    # Counts calls, not a timing: the d_g count of a code span and the BCH
    # root test read the residue table, whose `%` builds no quotient;
    # test_howell pins the Howell rows these spans produce.
    def last_of_each(n, params):
        return [ideal_descriptors(params.p, params.s, m)[-1]
                for m in factor_xn_minus_1(n, params).degrees]

    built = [code(R8, 15, [Z8_GEN]), code(R4, 7, ["3*x^3+x^2+2*x+1", "u*(x+3)"], "module"),
             code(R9, 8, ["x^2+2", "3*x+u*(x+1)"]),
             CyclicCode(15, R4, [product(factor_xn_minus_1(15, R4).factors[1:4:2], R4)]),
             CyclicCode.from_components(15, R4, last_of_each(15, R4)),
             CyclicCode.from_components(5, R9, last_of_each(5, R9))]
    free = [c.is_free() for c in built]  # the readings fill the residue table first
    assert sum(g is not None for g in free) == 2
    calls = []

    def counted(fn):
        def call(*args):
            calls.append(fn.__name__)
            return fn(*args)
        return call

    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "zqu"]:
        if hasattr(module, "divmod_monic"):
            monkeypatch.setattr(module, "divmod_monic", counted(module.divmod_monic))
    monkeypatch.setattr(ZqPoly, "_divide", counted(ZqPoly._divide))
    for c, g in zip(built, free):
        c.span()
        if g is not None:
            c.bch_bound()
    assert calls == []


def test_codes_need_no_galois_ring_evaluation():
    # the element layers of GR(R, m) and of R live only in the test oracles
    import zqu.cli  # noqa: F401
    import zqu.verify  # noqa: F401

    layer = ("GrElem", "GaloisRingCtx", "build_ctx", "eval_at", "nth_root_of_unity",
             "gr_ideal_elements", "RingElem")
    modules = {name: m for name, m in sys.modules.items() if name.split(".")[0] == "zqu"}
    assert {"zqu", "zqu.cli", "zqu.codes", "zqu.galois", "zqu.verify"} <= set(modules)
    assert [(name, attr) for name, m in modules.items() for attr in layer if hasattr(m, attr)] == []
    # an element of R is an (a, b) pair; RingParams builds no element objects
    assert [attr for attr in ("elem", "zero", "one", "u", "elements")
            if hasattr(RingParams, attr)] == []
    c = code(R8, 15, [Z8_GEN])
    assert c.to_descriptor()["bch"] == {"b": 1, "delta": 7}
    assert c.bch_bound().root_exponents == (1, 2, 3, 4, 5, 6)


def test_sizes_and_freeness_build_no_code_span(monkeypatch):
    # only contains, fingerprint and min_distance need the 2n-column span
    build = ZqSpan.from_rows.__func__
    widths = []

    def counting(cls, rows, p, s, ncols):
        widths.append(ncols)
        return build(cls, rows, p, s, ncols)

    monkeypatch.setattr(ZqSpan, "from_rows", classmethod(counting))
    code(R4, 7, Z4_GENS, "module").to_descriptor()
    assert widths.count(14) == 0
    free = code(R8, 15, [Z8_GEN])
    assert free.cardinality() == (2, 30) and free.is_free() is not None
    assert widths.count(30) == 0
    for c in enumerate_cyclic_codes(7, R4, limit=50):
        c.cardinality()
        c.is_free()
    assert widths.count(14) == 0 and len(widths) > 50


# -- spans ------------------------------------------------------------------------------


SPAN_CASES = ([(params, n) for params in (R4, R8, R9) for n in range(1, 10) if n % params.p]
              + [(R4, 15)])


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_span_matches_rotation_oracle(data):
    params, n = data.draw(st.sampled_from(SPAN_CASES))
    gens = data.draw(st.lists(r_poly_over(params, n + 2), max_size=3))
    mode = data.draw(st.sampled_from(["ideal", "module"]))
    c = CyclicCode(n, params, gens, mode)
    assert c.span().fingerprint() == span_by_rotation(c).fingerprint()


R25 = make_ring(5, 2)
# lengths at which x^n - 1 has at least three factors
BOUND_CASES = ([(R4, n) for n in (7, 9, 15, 21)] + [(R8, 7), (R8, 15)]
               + [(R9, 4), (R9, 8), (R25, 4), (R25, 6)])


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_span_with_divisor_generators_matches_rotation_oracle(data):
    # Generators that factors of x^n - 1 divide, where span() stops their
    # shifts at d_g < n: a product of some factors times an R-multiplier
    # (zero, p-scaled or with u-part), or u times that.
    params, n = data.draw(st.sampled_from(BOUND_CASES))
    factors = factor_xn_minus_1(n, params).factors
    gens = []
    for _ in range(data.draw(st.integers(1, 3))):
        chosen = data.draw(st.lists(st.sampled_from(factors), unique=True))
        g = product(chosen, params) * data.draw(r_poly_over(params, 3))
        gens.append(g.mul_u() if data.draw(st.booleans()) else g)
    mode = data.draw(st.sampled_from(["ideal", "module"]))
    c = CyclicCode(n, params, gens, mode)
    assert c.span().fingerprint() == span_by_rotation(c).fingerprint()


def test_code_span_rows_stop_at_the_annihilator_degree(monkeypatch):
    # 2 d_g rows per generator (d_g in module closure), d_g = n minus the
    # degrees of the factors that divide g, instead of 2n
    build = ZqSpan.from_rows.__func__
    counts = []

    def counting(cls, rows, p, s, ncols):
        rows = list(rows)
        counts.append(len(rows))
        return build(cls, rows, p, s, ncols)

    units = [IdealDescriptor("p_power", 0)] * build_crt(51, R4).t
    codes = [CyclicCode.from_components(51, R4, units), code(R8, 15, [Z8_GEN]),
             code(R4, 7, Z4_GENS, "module")]
    monkeypatch.setattr(ZqSpan, "from_rows", classmethod(counting))
    for c in codes:
        c.span()
    assert counts == [102, 10, 10]


# (n, ring) whose whole code census the component-built codes are checked on
SMALL_CENSUSES = [(3, R4), (7, R4), (3, R8), (5, R9)]


def census_codes(n, params):
    """Every code of the census, as (descriptors, the code built from them)."""
    degrees = factor_xn_minus_1(n, params).degrees
    for descs in itertools.product(*(ideal_descriptors(params.p, params.s, m) for m in degrees)):
        yield descs, CyclicCode.from_components(n, params, descs)


@pytest.mark.parametrize("n, params", SMALL_CENSUSES, ids=["z4-n3", "z4-n7", "z8-n3", "z9-n5"])
def test_spans_without_zero_u_rows_match_rotation_oracle(n, params):
    # ideal_span_mod adds no u-row for a generator whose a-part is zero, as
    # u*p^j and the canonical u*g1 are; the oracle rotates every row, zero
    # rows included.  The component readings come from the same builder.
    for descs, c in census_codes(n, params):
        for mode in ("ideal", "module"):
            built = CyclicCode(n, params, c.generators, mode)
            assert built.fingerprint() == span_by_rotation(built).fingerprint()
        assert c.components() == descs
        can = c.canonical()
        pair = CyclicCode(n, params, [RPoly(can.f0, can.f1), RPoly.from_zq(can.g1).mul_u()])
        assert span_by_rotation(pair).fingerprint() == c.fingerprint()


@pytest.mark.parametrize("n, params", SMALL_CENSUSES, ids=["z4-n3", "z4-n7", "z8-n3", "z9-n5"])
def test_codes_from_components_know_their_divisibility(n, params, monkeypatch):
    # from_components seeds the (generator, factor) residue table from the
    # construction; it must be the one `%` gives, and the cached generators
    # those built afresh from the cofactors.  Once the cache is warm, a
    # rebuilt code reduces nothing for its span, floor and size.
    crt = build_crt(n, params)
    factors = crt.factorization.factors
    remainder = RPoly.__mod__
    calls = []

    def counted(g, f):
        calls.append(g)
        return remainder(g, f)

    for descs, c in census_codes(n, params):
        assert c._residue_table() == tuple(tuple(g % f for f in factors) for g in c.generators)
        assert c.bch_floor() == CyclicCode(n, params, c.generators).bch_floor()
        fresh = [(RPoly.make(params, g) * fhat).reduce_cyclic(n)
                 for desc, fhat, m in zip(descs, crt.cofactors, crt.factorization.degrees)
                 for g in reading_generators(desc.reading(params.s, m), params)]
        assert c.generators == tuple(fresh)
        with monkeypatch.context() as patch:
            patch.setattr(RPoly, "__mod__", counted)
            again = CyclicCode.from_components(n, params, descs)
            again.span(), again.bch_floor(), again.cardinality()
        assert calls == []


def readings_over_every_generator(c):
    """The component readings from the span of every generator at every
    factor, dividing ones included, each reduced by long division: the
    route the residue table cuts."""
    return tuple(_read_component(ideal_span_mod([divmod_monic(g, f)[1] for g in c.generators], f,
                                                with_u=c.closure_mode == "ideal"), f.degree)
                 for f in c.crt().factorization.factors)


@pytest.mark.parametrize("n, params", SMALL_CENSUSES, ids=["z4-n3", "z4-n7", "z8-n3", "z9-n5"])
def test_readings_skip_only_zero_residues_on_the_census(n, params):
    # The readings span only the generators a factor does not divide; the
    # component-built codes read a seeded table, their generator twins a
    # tested one, in both closures.
    for _, c in census_codes(n, params):
        assert c._component_readings() == readings_over_every_generator(c)
        for mode in ("ideal", "module"):
            twin = CyclicCode(n, params, c.generators, mode)
            assert twin._component_readings() == readings_over_every_generator(twin)


@settings(max_examples=150, deadline=None)
@given(generator_sets())
def test_readings_skip_only_zero_residues_on_generator_codes(c):
    assert c._component_readings() == readings_over_every_generator(c)


@pytest.mark.parametrize("n, params", SMALL_CENSUSES, ids=["z4-n3", "z4-n7", "z8-n3", "z9-n5"])
def test_a_false_divisibility_entry_changes_the_readings(n, params):
    # The oracle above has teeth: zeroing the residue of the first generator
    # of any component at its own factor drops the only generator with that
    # component's a-part, or its only generator, so the reading moves.
    zero = RPoly.zero(params)
    for _, c in census_codes(n, params):
        table = c._residue_table()
        for k, row in enumerate(table):
            l = next(i for i, r in enumerate(row) if not r.is_zero())
            if k and not table[k - 1][l].is_zero():
                continue  # not the first generator of component l
            broken = CyclicCode(n, params, c.generators)
            broken._residues = table[:k] + (row[:l] + (zero,) + row[l + 1:],) + table[k + 1:]
            assert broken._component_readings() != readings_over_every_generator(c)


# -- membership and shifts -------------------------------------------------------------


def test_contains_examples():
    zero = RPoly.zero(R4)
    for c in [code(R4, 3, ["u"]), code(R4, 7, Z4_GENS)]:
        assert c.contains(zero)
    ideal7 = code(R4, 7, Z4_GENS)
    assert ideal7.contains(parse_r_poly("u", R4))
    g = parse_r_poly(Z8_GEN, R8)
    c = CyclicCode(15, R8, [g])
    assert c.contains(g.shift(1).reduce_cyclic(15))
    assert not c.contains(RPoly.one(R8))


def test_cyclic_shift_closure(all63):
    for c in all63[:20]:
        members = list(_code_element_set(c))[:40]
        for vec in members:
            a, b = vec[:3], vec[3:]
            shifted = list(rotate(list(a), 1)) + list(rotate(list(b), 1))
            assert c.contains(shifted)


# -- JSON descriptor -------------------------------------------------------------------


def test_descriptor_schema_round_trip(all63):
    for c in all63[:10] + [code(R4, 7, Z4_GENS, "module")]:
        desc = c.to_descriptor()
        text = json.dumps(desc, indent=2)
        assert json.loads(text) == desc
        assert set(desc) >= {
            "n", "p", "s", "closure_mode", "generators", "canonical",
            "components", "cardinality", "free", "bch", "warnings",
        }
