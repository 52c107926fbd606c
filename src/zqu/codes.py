"""Cyclic codes of length n over R as ideals (or Z_q[x]-spans) of R[x]/(x^n-1).

The CRT idempotent system splits the ambient ring along the basic irreducible
factors of x^n - 1; each component, an ideal of GR(R, m) (in module closure a
submodule of GR(Z_q, m)^2), is read off its span as (p^i) mod u, u*(p^j) inside
uGR and the u-coordinate alpha of p^i.  The readings give the size,
p^(m(2s - i - j)) per component, and freeness (every component (1) or (0)) in
both closures; on them sit the canonical generator pair (f0 + u*f1, u*g1),
minimum generating sets and BCH-style distance certificates.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Iterator, Optional, Sequence

from .errors import (
    EnumerationBudgetError,
    GeneratorHypothesesError,
    PreconditionError,
)
from .galois import ideal_span_mod
from .howell import ZqSpan
from .poly import (
    Factorization,
    RPoly,
    ZqPoly,
    check_length,
    cyclotomic_cosets,
    factor_xn_minus_1,
    format_r_poly,
    powmod,
    r_poly_to_json,
    xn_minus_1,
    xn_minus_1_zq,
    zq_poly_to_json,
)
from .ring import (
    IdealDescriptor,
    Reading,
    RingParams,
    census_size,
    ideal_descriptors,
    reading_generators,
)
from .value import Value


class CrtSystem(Value):
    """Factorization of x^n - 1 with cofactors and orthogonal idempotents."""

    __slots__ = ("n", "params", "factorization", "cofactors", "idempotents")

    def __init__(self, n: int, params: RingParams, factorization: Factorization,
                 cofactors: tuple[RPoly, ...],  # (x^n - 1) / f_l
                 idempotents: tuple[RPoly, ...]):  # e_l = b_l fhat_l mod (x^n - 1)
        self.n, self.params, self.factorization = n, params, factorization
        self.cofactors, self.idempotents = cofactors, idempotents

    @property
    def t(self) -> int:
        return len(self.factorization.factors)


@lru_cache(maxsize=None)
def build_crt(n: int, params: RingParams) -> CrtSystem:
    """Idempotent system for R[x]/(x^n - 1); requires gcd(n, p) = 1.

    The factors and cofactors lie in Z_q[x].  A unit of the Galois ring
    Z_q[x]/(f), m = deg f, is a Teichmuller part (order | p^m - 1) times
    1 + p*e (order | p^(s-1)); so b = fhat^(N - 1) mod f, N = (p^m - 1) p^(s-1),
    inverts fhat, and b * fhat mod (x^n - 1) is 1 at f and 0 at the others.
    """
    p, s = params.p, params.s
    fact = factor_xn_minus_1(n, params)
    cofactors = []
    idempotents = []
    whole = xn_minus_1_zq(params, n)
    for f in fact.factors:
        fhat, rem = divmod(whole, f.a)
        assert rem.is_zero()
        m = f.degree
        b = powmod(fhat % f.a, (p**m - 1) * p ** (s - 1) - 1, f.a)
        cofactors.append(RPoly.from_zq(fhat))
        idempotents.append(RPoly.from_zq((b * fhat).reduce_cyclic(n)))
    return CrtSystem(n, params, fact, tuple(cofactors), tuple(idempotents))


def count_cyclic_codes(n: int, params: RingParams) -> int:
    """Product of census_size(p, s, |C|), one factor of x^n - 1 per p-cyclotomic coset C."""
    check_length(n, params.p)
    p, s = params.p, params.s
    return math.prod(census_size(p, s, len(coset)) for coset in cyclotomic_cosets(n, p))


MODE_IDEAL = "ideal"
MODE_MODULE = "module"


class CyclicCode:
    """A cyclic code of length n over R, given by generators and a closure mode.

    In "ideal" mode the code is the ideal of R[x]/(x^n - 1) generated by the
    generators; in "module" mode it is only their Z_q[x]-span (closed under
    the cyclic shift and Z_q scaling, but not under multiplication by u).
    """

    def __init__(self, n: int, params: RingParams, generators: Sequence[RPoly],
                 closure_mode: str = MODE_IDEAL):
        check_length(n, params.p)
        if closure_mode not in (MODE_IDEAL, MODE_MODULE):
            raise PreconditionError(f"unknown closure mode {closure_mode!r}")
        self.n = n
        self.params = params
        self.generators = tuple(g.reduce_cyclic(n) for g in generators)
        self.closure_mode = closure_mode
        self._span: Optional[ZqSpan] = None
        self._residues: Optional[tuple[tuple[RPoly, ...], ...]] = None
        self._readings: Optional[tuple[Reading, ...]] = None
        self._canonical = None

    # -- element-set machinery -------------------------------------------

    def span(self) -> ZqSpan:
        """The code as a Z_q-span in Z_q^{2n} (this is exactly the element set):
        the ideal of R[x]/(x^n - 1), or in module closure the Z_q[x]-span."""
        if self._span is None:
            degrees = factor_xn_minus_1(self.n, self.params).degrees
            shifts = [sum(m for m, r in zip(degrees, row) if not r.is_zero())
                      for row in self._residue_table()]
            self._span = ideal_span_mod(self.generators, xn_minus_1(self.params, self.n),
                                        with_u=self.closure_mode == MODE_IDEAL, shifts=shifts)
        return self._span

    def _residue_table(self) -> tuple[tuple[RPoly, ...], ...]:
        """g mod f_l for each generator g (a row) and each factor f_l of
        x^n - 1: the one reduction of the code, read by the span's d_g, the
        BCH floor and the component readings."""
        if self._residues is None:
            factors = factor_xn_minus_1(self.n, self.params).factors
            self._residues = tuple(tuple(g % f for f in factors) for g in self.generators)
        return self._residues

    def fingerprint(self) -> tuple:
        return self.span().fingerprint()

    def cardinality(self) -> tuple[int, int]:
        """|C| as (p, exponent), summed over the component readings."""
        return self.params.p, self._size_exponent()

    def _size_exponent(self, closed: bool = False) -> int:
        """log_p |C|, m(2s - i - j) per component; with `closed`, of the ideal
        closure, where u*(x, y) = (0, x) widens u*(p^j) to u*(p^min(i, j))."""
        s = self.params.s
        readings = zip(self._component_readings(), self.crt().factorization.degrees)
        return sum(m * (2 * s - i - (min(i, j) if closed else j)) for (i, j, _), m in readings)

    def contains(self, word) -> bool:
        if isinstance(word, RPoly):
            w = word.reduce_cyclic(self.n)
            word = [w.a[i] for i in range(self.n)] + [w.b[i] for i in range(self.n)]
        return self.span().contains(word)

    # -- CRT components ----------------------------------------------------

    def crt(self) -> CrtSystem:
        return build_crt(self.n, self.params)

    def _component_readings(self) -> tuple[Reading, ...]:
        """(i, j, alpha) of the code's component at every factor: the ideal of GR(R, m)
        the generators span, in module closure their Z_q[x]-span (p^i, beta), (0, p^j).

        The span at f_l takes the generators' residues mod f_l from the
        residue table, the nonzero ones only: a zero residue adds only zero
        rows."""
        if self._readings is None:
            out = []
            table = self._residue_table()
            for l, f in enumerate(self.crt().factorization.factors):
                gens = [row[l] for row in table if not row[l].is_zero()]
                span = ideal_span_mod(gens, f, with_u=self.closure_mode == MODE_IDEAL)
                out.append(_read_component(span, f.degree))
            self._readings = tuple(out)
        return self._readings

    def components(self) -> tuple[IdealDescriptor, ...]:
        """The component ideal of GR(R, eps_l) at every factor."""
        if self.closure_mode != MODE_IDEAL:
            raise PreconditionError("components are defined for ideal closure only")
        out = []
        factors = self.crt().factorization.factors
        for l, (reading, f) in enumerate(zip(self._component_readings(), factors)):
            desc = IdealDescriptor.from_reading(reading, self.params.p, self.params.s)
            if desc is None:
                raise PreconditionError(
                    f"component ideal at factor f_{l + 1} = {f} lies outside the four ideal families"
                )
            out.append(desc)
        return tuple(out)

    @classmethod
    def from_components(cls, n: int, params: RingParams,
                        descriptors: Sequence[IdealDescriptor]) -> "CyclicCode":
        """Build the ideal with the given component at each factor, realizing
        generators as multiples of the CRT cofactors.

        A generator G * fhat_l of component l is divisible by every other
        factor, which divides the cofactor fhat_l, so its residue is zero
        there; its residue at f_l is cached with it.  So the code's residue
        table is known without reducing any generator."""
        t = build_crt(n, params).t
        if len(descriptors) != t:
            raise PreconditionError(f"expected {t} component descriptors")
        zero = RPoly.zero(params)
        gens, residues = [], []
        for l, desc in enumerate(descriptors):
            for g, r in _component_generators(n, params, l, desc):
                gens.append(g)
                residues.append((zero,) * l + (r,) + (zero,) * (t - l - 1))
        code = cls(n, params, gens, MODE_IDEAL)
        code._residues = tuple(residues)
        return code

    # -- canonical generators ----------------------------------------------

    def canonical(self) -> "CanonicalGenerators":
        if self.closure_mode != MODE_IDEAL:
            raise PreconditionError("canonical generators require ideal closure")
        if self._canonical is None:
            self._canonical = _canonical_form(self)
        return self._canonical

    def minimum_generating_set(self) -> list[RPoly]:
        """x^i (f0 + u f1) for i < n - k0 and x^j u g1 for j < k0 - k1."""
        can = self.canonical()
        if not can.hypotheses_ok:
            raise GeneratorHypothesesError(
                "canonical generators do not satisfy the divisor-chain hypotheses "
                f"(g1 | f0: {can.g1_divides_f0}, f0 | x^n-1: {can.f0_divides_xn1}, "
                f"g1 | x^n-1: {can.g1_divides_xn1})"
            )
        f = RPoly(can.f0, can.f1)
        ug1 = RPoly.from_zq(can.g1).mul_u()
        x = [RPoly.make(self.params, [0] * i + [1]) for i in range(self.n)]
        beta = [x[i] * f for i in range(self.n - can.k0)]
        beta += [x[j] * ug1 for j in range(can.k0 - can.k1)]
        return [b.reduce_cyclic(self.n) for b in beta]

    # -- freeness and BCH ----------------------------------------------------

    def is_free(self) -> Optional[RPoly]:
        """The monic divisor g of x^n - 1 with C = (g), if one exists.

        C is (g) exactly when every component is (1) or (0), i.e. reads
        (i, j) = (0, 0) or (s, s); g is the product of the factors whose
        component is (0).  In module closure these readings have j <= i, so
        the module equals its ideal closure.
        """
        s = self.params.s
        g = RPoly.one(self.params)
        for (i, j, _), f in zip(self._component_readings(), self.crt().factorization.factors):
            if (i, j) == (s, s):
                g = g * f
            elif (i, j) != (0, 0):
                return None
        return g

    def bch_bound(self) -> "BchCertificate":
        """The BCH certificate of a free code (g): that of `bch_floor`, since
        the factors of x^n - 1 dividing every generator are those of g."""
        if self.is_free() is None:
            raise PreconditionError("BCH certificate requires a free code")
        return self.bch_floor()

    def bch_floor(self) -> "BchCertificate":
        """The BCH certificate of g_0, the product of the factors of x^n - 1
        that divide every generator: a floor on the minimum Hamming distance
        of every code, in both closures.

        Each generator is g_0 * h for some h, so every codeword is
        c = a + u*b with a and b in the free Z_q-code (g_0), and the support
        of c holds theirs.  A nonzero word w of (g_0) has some p^k w =
        p^(s-1) w' with w' a nonzero word of (g_0 mod p) over F_p, whose
        support lies in that of w; so d_H(C) >= d((g_0 mod p)) >= delta, the
        BCH bound over F_p.  In ideal closure the first is an equality:
        p^(s-1) u (g_0 mod p), the socle of the ideal, lies in C."""
        t = len(factor_xn_minus_1(self.n, self.params).factors)
        shared = [all(row[l].is_zero() for row in self._residue_table()) for l in range(t)]
        return bch_bound_of(shared, self.n, self.params)

    # -- serialization --------------------------------------------------------

    def to_descriptor(self) -> dict:
        out = {
            "n": self.n,
            "p": self.params.p,
            "s": self.params.s,
            "closure_mode": self.closure_mode,
            "generators": [r_poly_to_json(g) for g in self.generators],
            "generator_texts": [format_r_poly(g) for g in self.generators],
        }
        warnings = []
        if self.closure_mode == MODE_IDEAL:
            can = self.canonical()
            out["canonical"] = {
                "f0": zq_poly_to_json(can.f0),
                "f1": zq_poly_to_json(can.f1),
                "g1": zq_poly_to_json(can.g1),
            }
            out["components"] = [
                {
                    "l": l + 1,
                    "family": desc.kind,
                    "index": desc.index,
                    "alpha": list(desc.alpha) if desc.alpha is not None else None,
                }
                for l, desc in enumerate(self.components())
            ]
            if not can.hypotheses_ok:
                warnings.append(
                    "canonical generators violate the divisor-chain hypotheses; "
                    "the q^(2n-k0-k1) cardinality formula does not apply"
                )
        else:
            out["canonical"] = None
            out["components"] = None
            warnings.append("module closure: canonical generators and components undefined")
        base, exp = self.cardinality()
        out["cardinality"] = {"base": base, "exponent": exp}
        if self.closure_mode == MODE_MODULE:
            ideal_exp = self._size_exponent(closed=True)
            out["ideal_closure_cardinality"] = {"base": base, "exponent": ideal_exp}
            if ideal_exp != exp:
                warnings.append(
                    f"ideal closure of the same generators is strictly larger "
                    f"({base}^{ideal_exp} vs {base}^{exp}); the two closure semantics disagree"
                )
        free = self.is_free() is not None
        out["free"] = free
        # the zero code has no nonzero word, so no distance for a bound to bound
        if free and exp:
            cert = self.bch_floor()
            out["bch"] = {"b": cert.b, "delta": cert.delta}
        else:
            out["bch"] = None
        out["warnings"] = warnings
        return out


# -- component ideals ---------------------------------------------------------


# 1024 (n, ring, factor, descriptor) entries: the enumerate benchmark's census uses 255.
@lru_cache(maxsize=1024)
def _component_generators(n: int, params: RingParams, l: int,
                          desc: IdealDescriptor) -> tuple[tuple[RPoly, RPoly], ...]:
    """The generators G * fhat_l mod x^n - 1 of the code whose only nonzero
    component is desc, at factor l, each with its residue mod f_l: G runs
    over its reading's generators."""
    crt = build_crt(n, params)
    fhat, f = crt.cofactors[l], crt.factorization.factors[l]
    made = [(RPoly.make(params, g) * fhat).reduce_cyclic(n)
            for g in reading_generators(desc.reading(params.s, f.degree), params)]
    return tuple((g, g % f) for g in made)


def _read_component(span: ZqSpan, m: int) -> Reading:
    """Read (i, j, alpha) off the Howell form of an ideal of GR(R, m), or of a
    submodule of GR(Z_q, m)^2, in Z_q^{2m}, a-coordinates first.  Rows pivoting
    in the a-block generate the image mod u, (p^i); those pivoting in the
    u-block span the part inside uGR, u*(p^j): p^(m(2s - i - j)) words."""
    p, s = span.p, span.s
    i = min((e for c, e, _ in span.rows if c < m), default=s)
    j = min((e for c, e, _ in span.rows if c >= m), default=s)
    if i == s:
        return i, j, None
    # p^i + alpha*u lies in the component, so (p^i | 0) reduces to (0 | -alpha)
    r = span.reduce([p**i] + [0] * (2 * m - 1))
    return i, j, tuple(-b % p**j for b in r[m:])


# Most codes enumeration streams without an explicit limit.
DEFAULT_ENUM_BUDGET = 1 << 20


def enumerate_cyclic_codes(n: int, params: RingParams,
                           limit: Optional[int] = None) -> Iterator[CyclicCode]:
    """The first `limit` cyclic codes in canonical component order, or all of
    them when there are at most DEFAULT_ENUM_BUDGET.  Refused for s >= 3,
    where the four ideal families miss some components."""
    if limit is None:
        if count_cyclic_codes(n, params) > DEFAULT_ENUM_BUDGET:
            # without the count, which can be too long to print
            raise EnumerationBudgetError(
                f"the cyclic codes of length {n} over Z{params.q}+uZ{params.q} exceed the "
                f"enumeration budget {DEFAULT_ENUM_BUDGET}; pass an explicit limit"
            )
    elif limit < 0:
        raise PreconditionError("limit must be >= 0")
    if params.s >= 3:
        raise PreconditionError(
            f"codes over {params} are not enumerated: at s >= 3 the census lists only "
            "four ideal families, which miss some ideals"
        )
    crt = build_crt(n, params)
    per_factor = [ideal_descriptors(params.p, params.s, m) for m in crt.factorization.degrees]
    for combo in itertools.islice(itertools.product(*per_factor), limit):
        yield CyclicCode.from_components(n, params, list(combo))


# -- canonical generators ------------------------------------------------------


class CanonicalGenerators(Value):
    """C = (f0 + u f1, u g1) with monic f0, g1 and deg f1 < deg g1.

    k0 = deg f0 and k1 = deg g1 feed the q^(2n - k0 - k1) cardinality count,
    which is only valid when the divisor-chain hypotheses hold (see flags).
    """

    __slots__ = ("f0", "f1", "g1", "k0", "k1",
                 "g1_divides_f0", "f0_divides_xn1", "g1_divides_xn1")

    def __init__(self, f0: ZqPoly, f1: ZqPoly, g1: ZqPoly, k0: int, k1: int,
                 g1_divides_f0: bool, f0_divides_xn1: bool, g1_divides_xn1: bool):
        self.f0, self.f1, self.g1, self.k0, self.k1 = f0, f1, g1, k0, k1
        self.g1_divides_f0 = g1_divides_f0
        self.f0_divides_xn1 = f0_divides_xn1
        self.g1_divides_xn1 = g1_divides_xn1

    @property
    def hypotheses_ok(self) -> bool:
        return self.g1_divides_f0 and self.f0_divides_xn1 and self.g1_divides_xn1

    def predicted_size_exponent(self, n: int, s: int) -> int:
        """log_p |C| according to the generator-count formula."""
        return s * (2 * n - self.k0 - self.k1)


def _chain_generator(exponents: Sequence[int], crt: CrtSystem) -> ZqPoly:
    """Monic generator of the ideal with component (p^{e_l}) at each factor:
    unit-normalized sum of p^e * (product of factors with exponent > e)."""
    params = crt.params
    zq_factors = [f.a for f in crt.factorization.factors]
    acc = ZqPoly.zero(params)
    for e in range(params.s):
        g_e = ZqPoly.const(params, 1)
        for exp, f in zip(exponents, zq_factors):
            if exp > e:
                g_e = g_e * f
        acc = acc + ZqPoly.const(params, params.p**e) * g_e
    return acc.monic()  # g_0 is monic of top degree, so the leading coefficient is 1 mod p


def _canonical_form(code: CyclicCode) -> CanonicalGenerators:
    params = code.params
    n = code.n
    crt = code.crt()
    code.components()  # raises for an ideal outside the four families
    readings = code._component_readings()
    i_exps = [i for i, _, _ in readings]
    j_exps = [j for _, j, _ in readings]
    f0 = _chain_generator(i_exps, crt)
    g1 = _chain_generator(j_exps, crt)

    # f1: only components with a nonzero alpha contribute a u-part;
    # assembled through the Z_q-side idempotents and reduced mod g1.
    f1 = ZqPoly.zero(params)
    for (i_exp, _, alpha), f, e_l in zip(readings, crt.factorization.factors, crt.idempotents):
        if alpha is None or not any(alpha):
            continue
        f_zq = f.a
        f0_mod = f0 % f_zq
        unit_part = ZqPoly.make(params, [c // params.p**i_exp for c in f0_mod.coeffs])
        alpha = ZqPoly.make(params, alpha)
        contrib = (alpha * unit_part) % f_zq
        f1 = f1 + contrib * e_l.a
    xn1 = xn_minus_1_zq(params, n)
    f1 = f1 % xn1
    if g1.degree == 0:
        f1 = ZqPoly.zero(params)
    else:
        f1 = f1 % g1

    can = CanonicalGenerators(
        f0=f0,
        f1=f1,
        g1=g1,
        k0=f0.degree,
        k1=g1.degree,
        g1_divides_f0=g1.divides(f0),
        f0_divides_xn1=f0.divides(xn1),
        g1_divides_xn1=g1.divides(xn1),
    )
    # The pair must regenerate the code exactly.
    pair = CyclicCode(
        n, params,
        [RPoly(can.f0, can.f1), RPoly.from_zq(can.g1).mul_u()],
        MODE_IDEAL,
    )
    if pair.fingerprint() != code.fingerprint():
        raise RuntimeError("canonical generator pair does not regenerate the code")
    return can


# -- BCH bound ---------------------------------------------------------------


class BchCertificate(Value):
    """Consecutive roots zeta^b .. zeta^{b+delta-2} of g_0, the product of the
    factors of x^n - 1 dividing every generator of a code, certifying
    minimum Hamming distance >= delta."""

    __slots__ = ("n", "b", "delta", "root_exponents")

    def __init__(self, n: int, b: int, delta: int, root_exponents: tuple[int, ...]):
        self.n, self.b, self.delta, self.root_exponents = n, b, delta, root_exponents


def bch_bound_of(dividing: Sequence[bool], n: int, params: RingParams) -> BchCertificate:
    """Longest cyclic run of consecutive root exponents, at powers of the
    basic primitive n-th root of unity zeta, of the product of the factors
    of x^n - 1 flagged in `dividing` (one flag per factor, in factorization
    order); delta = run length + 1.

    The factor over the p-cyclotomic coset C is prod_{j in C} (X - zeta^j),
    so its roots are the zeta^j with j in C.  A polynomial g has zeta^k as a
    root exactly when the factor of the coset of k divides g: Frobenius
    carries a root zeta^k to every zeta^j with j in C, and the remainder of
    g mod that factor, of degree < |C|, then has |C| roots whose differences
    are units, so it is zero.
    """
    fact = factor_xn_minus_1(n, params)
    is_root = [False] * n
    for flag, coset in zip(dividing, fact.cosets):
        if flag:
            for k in coset:
                is_root[k] = True
    if all(is_root):
        return BchCertificate(n, 0, n + 1, tuple(range(n)))
    best_len, best_b = 0, 0
    for b in range(n):
        if is_root[b] and is_root[b - 1]:
            continue  # not the start of a run
        length = 0
        while length < n and is_root[(b + length) % n]:
            length += 1
        if length > best_len:
            best_len, best_b = length, b
    if best_len == 0:
        return BchCertificate(n, 0, 1, ())
    exps = tuple((best_b + i) % n for i in range(best_len))
    return BchCertificate(n, best_b, best_len + 1, exps)
