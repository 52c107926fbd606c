import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from zqu import metrics, verify
from zqu.codes import BchCertificate, CyclicCode, _component_generators, build_crt
from zqu.errors import DistanceUndefinedError, PreconditionError, UnsupportedMetricError
from zqu.metrics import (
    WordR,
    gray_hamming_weight,
    gray_map,
    hamming_weight,
    lee_weight,
    lee_weight_z4,
    min_distance,
    phi_map,
    weight_of,
)
from zqu.poly import RPoly, divmod_monic, factor_xn_minus_1, parse_r_poly
from zqu.ring import ideal_descriptors, make_ring
from zqu.verify import _code_element_set

from helpers import (brute_min_weight, enumerated_min_hamming, full_scan_distance, hamming_pairs,
                     lee_pairs, product, residue_code_distance)

R4 = make_ring(2, 2)
R8 = make_ring(2, 3)
R9 = make_ring(3, 2)

Z8_GEN = "x^10+6*x^9+x^8+6*x^7+3*x^5+7*x^4+4*x^3+7*x^2+5*x+1"
Z4_GENS = ["3*x^3+x^2+2*x+1", "0+u*(x+3)"]


def code(params, n, texts, mode="ideal"):
    return CyclicCode(n, params, [parse_r_poly(t, params) for t in texts], mode)


# -- weights --------------------------------------------------------------------


def test_hamming_weight_examples():
    assert hamming_weight(WordR(R4, ((0, 0),) * 5)) == 0
    g = parse_r_poly(Z8_GEN, R8)
    assert hamming_weight(WordR.from_rpoly(g * 4, 15)) == 7
    assert hamming_weight(WordR(R4, ((1, 0),) * 6)) == 6


def test_phi_examples():
    assert phi_map(WordR(R4, ((2, 3),))) == (3, 1)
    assert phi_map(WordR(R4, ((0, 0),))) == (0, 0)
    with pytest.raises(UnsupportedMetricError):
        phi_map(WordR(R8, ((1, 0),)))


def test_phi_preserves_lee_weight_per_symbol():
    for a in range(4):
        for b in range(4):
            w = WordR(R4, ((a, b),))
            assert lee_weight_z4(phi_map(w)) == lee_weight(w)


def test_phi_is_additive_per_symbol():
    for a1 in range(4):
        for b1 in range(4):
            for a2 in range(4):
                for b2 in range(4):
                    x = WordR(R4, ((a1, b1),))
                    y = WordR(R4, ((a2, b2),))
                    sa, sb = (a1 + a2) % 4, (b1 + b2) % 4
                    summed = phi_map(WordR(R4, ((sa, sb),)))
                    pointwise = tuple(
                        (u + v) % 4 for u, v in zip(phi_map(x), phi_map(y))
                    )
                    assert summed == pointwise


def test_lee_and_gray_examples():
    assert lee_weight_z4((2,)) == 2 and gray_map((2,)) == (1, 1)
    assert lee_weight_z4((1, 3)) == 2 and gray_map((1, 3)) == (0, 1, 1, 0)
    assert gray_map((0, 1, 2, 3)) == (0, 0, 0, 1, 1, 1, 1, 0)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 3), max_size=14))
def test_gray_hamming_equals_lee(v):
    assert sum(gray_map(v)) == lee_weight_z4(v)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=10))
def test_word_weight_functions_agree(pairs):
    w = WordR(R4, tuple(pairs))
    assert weight_of(w, "hamming") == hamming_pairs(pairs)
    assert weight_of(w, "lee") == lee_pairs(pairs)
    assert weight_of(w, "gray-hamming") == lee_pairs(pairs)
    assert gray_hamming_weight(w) == lee_weight(w)


@pytest.mark.parametrize("metric", ["lee", "gray-hamming"])
def test_q4_weight_table_matches_weight_of(metric):
    table = metrics.weight_table(metric, R4)
    assert table == tuple(weight_of(WordR(R4, ((a, b),)), metric)
                          for a in range(4) for b in range(4))


# -- minimum distance -----------------------------------------------------------


def test_reference_z4_length7_code():
    module = code(R4, 7, Z4_GENS, "module")
    lee = min_distance(module, "lee")
    assert lee.value == 4 and lee.exhaustive
    assert lee.words_scanned == 2**20 - 1
    assert weight_of(lee.witness, "lee") == 4
    assert module.contains(lee.witness.to_rpoly())
    gray = min_distance(module, "gray-hamming")
    assert gray.value == 4


def test_witness_only_upper_bound_brackets_reference_distance():
    c = code(R8, 15, [Z8_GEN])
    cert = c.bch_bound()
    w = hamming_weight(WordR.from_rpoly(parse_r_poly(Z8_GEN, R8) * 4, 15))
    assert cert.delta == 7 and w == 7  # lower and upper bound meet


def test_budgeted_scan_is_upper_bound():
    c = code(R8, 15, [Z8_GEN])
    report = min_distance(c, "hamming", budget=1 << 12)
    assert not report.exhaustive
    assert report.words_scanned == 1 << 12
    assert report.value >= 7
    assert weight_of(report.witness, "hamming") == report.value
    assert c.contains(report.witness.to_rpoly())


def test_budgeted_value_is_exact_only_at_the_floor():
    # The Z8 paper code meets delta = 7 within any budget.  A degree-11
    # factor of x^23 - 1 over Z4 generates a code of 2^48 words with
    # delta = 5; cut at 2^20 words, its lightest word found weighs 7.
    paper = min_distance(code(R8, 15, [Z8_GEN]), "hamming", budget=1 << 12)
    assert (paper.value, paper.exhaustive, paper.exact) == (7, False, True)
    c = code(R4, 23, ["x^11+2*x^10+3*x^9+3*x^7+3*x^6+3*x^5+2*x^4+x+3"])
    assert c.bch_floor().delta == 5
    report = min_distance(c, "hamming", budget=1 << 20)
    assert (report.value, report.exhaustive, report.exact) == (7, False, False)
    assert report.to_json()["exact"] is False


@pytest.mark.parametrize("mode", ["ideal", "module"])
@pytest.mark.parametrize(
    "texts,n",
    [
        (["u"], 3),
        (["x^2+x+1"], 3),
        (["2", "u"], 3),
        (["x+3+u*(2)"], 3),
        (["2*x+2+u*(x)"], 5),
    ],
)
def test_min_distance_matches_brute_force(texts, n, mode):
    c = code(R4, n, texts, mode)
    report = min_distance(c, "hamming")
    assert report.exhaustive
    assert report.value == brute_min_weight(c, hamming_pairs)
    assert report.words_scanned == len(_code_element_set(c)) - 1
    lee = min_distance(c, "lee")
    assert lee.value == brute_min_weight(c, lee_pairs)


def test_min_distance_shift_invariance():
    base = code(R4, 7, Z4_GENS, "module")
    shifted_gens = [parse_r_poly(t, R4).shift(2).reduce_cyclic(7) for t in Z4_GENS]
    shifted = CyclicCode(7, R4, shifted_gens, "module")
    for metric in ("hamming", "lee"):
        assert min_distance(base, metric).value == min_distance(shifted, metric).value


def test_zero_code_distance_undefined():
    with pytest.raises(DistanceUndefinedError):
        min_distance(CyclicCode(3, R4, []), "hamming")


def test_lee_requires_q4():
    c = code(R8, 15, [Z8_GEN])
    with pytest.raises(UnsupportedMetricError):
        min_distance(c, "lee")
    with pytest.raises(UnsupportedMetricError):
        min_distance(c, "gray-hamming")
    with pytest.raises(UnsupportedMetricError):
        min_distance(c, "euclidean")


def test_threads_deterministic():
    # threads is accepted and ignored: the scan is one serial kernel call
    c = code(R4, 7, Z4_GENS, "module")
    single = min_distance(c, "lee", threads=1)
    multi = min_distance(c, "lee", threads=4)
    assert (single.value, single.witness) == (multi.value, multi.witness)
    assert single.words_scanned == multi.words_scanned
    with pytest.raises(PreconditionError):
        min_distance(c, "lee", threads=0)


def test_bch_delta_bounded_by_exact_distance():
    for n in (3, 7):
        crt = build_crt(n, R4)
        for mask in range(1 << crt.t):
            g = RPoly.one(R4)
            for l in range(crt.t):
                if mask & (1 << l):
                    g = g * crt.factorization.factors[l]
            if g.degree == n:
                continue  # zero code
            c = CyclicCode(n, R4, [g])
            if c.span().size() - 1 > 1 << 22:
                continue
            assert c.bch_bound().delta <= full_scan_distance(c)


def test_oracles_fail_on_a_floor_above_the_bch_bound(monkeypatch):
    # bch_bound and min_distance read one BCH routine: raised by one, every
    # check that holds it against a scan with no floor must fail.
    bch_floor = CyclicCode.bch_floor

    def raised(self):
        cert = bch_floor(self)
        return BchCertificate(cert.n, cert.b, cert.delta + 1, cert.root_exponents)

    monkeypatch.setattr(CyclicCode, "bch_floor", raised)
    passed, detail = verify.check_property_suite()
    assert not passed and "exceeds exact distance" in detail
    assert not verify.check_z8_length15_chain()[0]
    with pytest.raises(AssertionError):
        test_bch_delta_bounded_by_exact_distance()


def test_floor_reads_the_span_divisibility(monkeypatch):
    # Counts calls, not a timing: the floor and the component readings read
    # the (generator, factor) residues that the code span's d_g already
    # computed, once per pair.
    remainder = RPoly.__mod__
    calls = []

    def counted(g, f):
        calls.append((g, f))
        return remainder(g, f)

    monkeypatch.setattr(RPoly, "__mod__", counted)
    cases = [(R8, 15, [Z8_GEN], "ideal", "hamming"), (R4, 7, Z4_GENS, "module", "lee"),
             (R4, 7, Z4_GENS, "ideal", "hamming"), (R9, 5, ["x+8", "3+u*(x^2+1)"], "module", "hamming")]
    for params, n, texts, mode, metric in cases:
        t = len(factor_xn_minus_1(n, params).factors)
        code(params, n, texts, mode).span()
        alone = len(calls)
        calls.clear()
        min_distance(code(params, n, texts, mode), metric)
        assert len(calls) == alone == len(texts) * t
        calls.clear()
        c = code(params, n, texts, mode)
        c.to_descriptor()
        min_distance(c, metric)
        own = sum(any(g is h for h in c.generators) for g, _ in calls)
        assert own == len(texts) * t
        # in ideal closure, the canonical pair that must regenerate the code
        # is a code of two generators with a table of its own
        assert len(calls) - own == (2 * t if mode == "ideal" else 0)
        calls.clear()
        # each (generator, factor) residue once, whichever reads it first
        c = code(params, n, texts, mode)
        c.span(), c.bch_floor(), c.cardinality()
        factors = factor_xn_minus_1(n, params).factors
        assert sorted((id(g), str(f)) for g, f in calls) == sorted(
            (id(g), str(f)) for g in c.generators for f in factors)
        calls.clear()


def test_component_readings_reduce_each_generator_at_its_own_factor(monkeypatch):
    # Counts calls, not a timing: a code built from components knows which
    # factor each generator is nonzero at, so it reduces each generator
    # once, by that factor, when its generators are made, and its readings
    # reduce nothing.  At n = 15 over Z4 every generator G * fhat_l has
    # degree >= 11, past every factor's degree.
    remainder = RPoly.__mod__
    divisions = []

    def counted(g, f):
        divisions.append((g, f))
        return remainder(g, f)

    factors = factor_xn_minus_1(15, R4).factors
    descs = [ideal_descriptors(2, 2, f.degree)[k] for f, k in zip(factors, (6, 0, 5, 20, 12))]
    _component_generators.cache_clear()
    monkeypatch.setattr(RPoly, "__mod__", counted)
    c = CyclicCode.from_components(15, R4, descs)
    c._component_readings()
    assert [g for g, _ in divisions] == list(c.generators) and len(c.generators) > len(factors)
    own = [next(l for l, r in enumerate(row) if not r.is_zero()) for row in c._residue_table()]
    assert [f for _, f in divisions] == [factors[l] for l in own]
    divisions.clear()
    CyclicCode.from_components(15, R4, descs)._component_readings()
    assert divisions == []


# (ring, n) with gcd(n, p) = 1, n in {3, 5, 7}
SMALL_LENGTHS = [(R4, 3), (R4, 5), (R4, 7), (R8, 3), (R8, 5), (R8, 7), (R9, 5), (R9, 7)]


@st.composite
def small_codes(draw):
    """A code of at most 2^16 words: generators p^e * (a + u*b) times some
    factors of x^n - 1, all sharing a drawn proper subset of the factors (a
    free code is their product alone), while too large multiplied by the
    factors outside that subset, then by p."""
    params, n = draw(st.sampled_from(SMALL_LENGTHS))
    p, q = params.p, params.q
    factors = factor_xn_minus_1(n, params).factors
    chosen = draw(st.lists(st.sampled_from(factors), unique=True, max_size=len(factors) - 1))
    shared = product(chosen, params)
    if draw(st.booleans()):
        gens = [shared]
    else:
        gens = []
        for _ in range(draw(st.integers(1, 3))):
            pairs = draw(st.lists(st.tuples(st.integers(0, q - 1), st.integers(0, q - 1)),
                                  min_size=1, max_size=n))
            extra = product(draw(st.lists(st.sampled_from(factors), unique=True)), params)
            scale = p ** draw(st.integers(0, params.s - 1))
            gens.append(RPoly.make(params, [(scale * a, scale * b) for a, b in pairs]) * extra * shared)
    mode = draw(st.sampled_from(["ideal", "module"]))
    rest = [f for f in factors if f not in chosen]
    c = CyclicCode(n, params, gens, mode)
    while c.cardinality()[1] * math.log2(p) > 16:
        scale = rest.pop() if len(rest) > 1 else p
        c = CyclicCode(n, params, [g * scale for g in c.generators], mode)
    return c


@settings(max_examples=150, deadline=None)
@given(small_codes())
def test_bch_floor_is_a_bound(c):
    base, exp = c.cardinality()
    assume(exp > 0)  # not the zero code
    floor = c.bch_floor().delta
    exact = enumerated_min_hamming(c)
    assert floor <= exact
    # g_0, the product of the factors dividing every generator, by remainders
    g0 = product([f for f in factor_xn_minus_1(c.n, c.params).factors
                  if all(divmod_monic(g, f)[1].is_zero() for g in c.generators)], c.params)
    residue = residue_code_distance(g0.a, c.n, c.params.p)
    assert floor <= residue <= exact
    if c.closure_mode == "ideal":
        assert exact == residue
    if c.is_free() is not None:
        assert floor == c.bch_bound().delta


def test_report_serialization():
    c = code(R4, 3, ["u"])
    report = min_distance(c, "hamming")
    data = report.to_json()
    assert data["metric"] == "hamming"
    assert data["value"] == report.value
    assert isinstance(data["witness"], str)
