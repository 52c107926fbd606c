"""Exact univariate polynomials over Z_q and over R = Z_q + uZ_q.

Coefficients are little-endian with trailing zeros stripped.  An R-polynomial
a + u*b holds its two parts as Z_q-polynomials, so Z_q[x] arithmetic has one
implementation; u^2 = 0 keeps multiplication a single cross term.  F_p[x] is
the same arithmetic at s = 1, over `residue_field(p)`: on it sit the
irreducibility and primitivity tests, the order of x and the canonical
primitive polynomials.  Teichmuller lifts carry irreducible polynomials over
F_p to Z_q, and x^n - 1 factors completely into basic irreducible polynomials.
"""

from __future__ import annotations

import math
import re
from functools import lru_cache, reduce
from itertools import product, zip_longest
from operator import mul
from typing import Optional

from .errors import LengthNotCoprimeError, NonMonicDivisorError, PolyParseError, PreconditionError
from .ring import RingParams, prime_factors
from .value import Value


def _strip(out: list) -> list:
    while out and not out[-1]:
        out.pop()
    return out


def _same_ring(f: "ZqPoly", g: "ZqPoly") -> None:
    if f.params.q != g.params.q:
        raise PreconditionError(f"a polynomial over Z{f.params.q} meets one over Z{g.params.q}")


class ZqPoly(Value):
    __slots__ = ("params", "coeffs")

    def __init__(self, params: RingParams, coeffs: tuple[int, ...]):
        self.params, self.coeffs = params, coeffs

    @classmethod
    def make(cls, params: RingParams, seq) -> "ZqPoly":
        q = params.q
        return cls(params, tuple(_strip([int(c) % q for c in seq])))

    @classmethod
    def zero(cls, params) -> "ZqPoly":
        return cls(params, ())

    @classmethod
    def const(cls, params, c: int) -> "ZqPoly":
        return cls.make(params, [c])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def leading(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    def __getitem__(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __iter__(self):  # else iteration would index past the degree forever
        return iter(self.coeffs)

    def __add__(self, other: "ZqPoly") -> "ZqPoly":
        _same_ring(self, other)
        return ZqPoly.make(self.params, [x + y for x, y in
                                         zip_longest(self.coeffs, other.coeffs, fillvalue=0)])

    def __sub__(self, other: "ZqPoly") -> "ZqPoly":
        _same_ring(self, other)
        return ZqPoly.make(self.params, [x - y for x, y in
                                         zip_longest(self.coeffs, other.coeffs, fillvalue=0)])

    def __neg__(self) -> "ZqPoly":
        return ZqPoly.make(self.params, [-c for c in self.coeffs])

    def __mul__(self, other) -> "ZqPoly":
        if isinstance(other, int):
            return ZqPoly.make(self.params, [c * other for c in self.coeffs])
        _same_ring(self, other)
        if self.is_zero() or other.is_zero():
            return ZqPoly.zero(self.params)
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return ZqPoly.make(self.params, out)

    __rmul__ = __mul__

    def shift(self, k: int) -> "ZqPoly":
        if self.is_zero():
            return self
        return ZqPoly(self.params, (0,) * k + self.coeffs)

    def reduce_cyclic(self, n: int) -> "ZqPoly":
        """Reduce modulo x^n - 1 by folding exponents mod n."""
        if len(self.coeffs) <= n:
            return self
        acc = [0] * n
        for i, c in enumerate(self.coeffs):
            acc[i % n] += c
        return ZqPoly.make(self.params, acc)

    def _divide(self, divisor: "ZqPoly") -> tuple[list[int], list[int]]:
        """Long division by a divisor with a unit leading coefficient: the
        quotient's coefficients, and the remainder's not yet reduced mod q."""
        _same_ring(self, divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        q = self.params.q
        lead = divisor.leading()
        if lead % self.params.p == 0:
            raise NonMonicDivisorError("divisor leading coefficient is not a unit")
        inv = pow(lead, -1, q)
        rem = list(self.coeffs)
        dd = divisor.degree
        quo = [0] * max(len(rem) - dd, 0)
        # Top down: by step k, every subtraction that reaches rem[k + dd] is done.
        for k in range(len(quo) - 1, -1, -1):
            c = (rem[k + dd] * inv) % q
            if c:
                quo[k] = c
                for i, b in enumerate(divisor.coeffs):
                    rem[k + i] -= c * b
        return quo, rem[:dd]

    def __divmod__(self, divisor: "ZqPoly"):
        quo, rem = self._divide(divisor)
        return ZqPoly.make(self.params, quo), ZqPoly.make(self.params, rem)

    def __mod__(self, divisor: "ZqPoly") -> "ZqPoly":
        return ZqPoly.make(self.params, self._divide(divisor)[1])

    def divides(self, other: "ZqPoly") -> bool:
        return (other % self).is_zero()

    def monic(self) -> "ZqPoly":
        """Scale by the inverse of the (unit) leading coefficient."""
        if self.is_zero():
            raise PreconditionError("zero polynomial has no monic associate")
        lead = self.leading()
        if lead % self.params.p == 0:
            raise PreconditionError("leading coefficient is not a unit")
        return self * pow(lead, -1, self.params.q)

    def residue(self) -> tuple[int, ...]:
        """Coefficients mod p (the image over F_p), stripped."""
        p = self.params.p
        return tuple(_strip([c % p for c in self.coeffs]))

    def __str__(self):
        return format_zq_poly(self)


class RPoly(Value):
    """a + u*b for Z_q-polynomials a and b; since u^2 = 0, every operation is
    one or two operations on the parts."""

    __slots__ = ("a", "b")

    def __init__(self, a: ZqPoly, b: ZqPoly):
        self.a, self.b = a, b

    @classmethod
    def make(cls, params: RingParams, seq) -> "RPoly":
        """From coefficients that are ints or (a, b) pairs."""
        pairs = [(c, 0) if isinstance(c, int) else c for c in seq]
        return cls(ZqPoly.make(params, [a for a, _ in pairs]),
                   ZqPoly.make(params, [b for _, b in pairs]))

    @classmethod
    def from_zq(cls, poly: ZqPoly) -> "RPoly":
        return cls(poly, ZqPoly.zero(poly.params))

    @classmethod
    def zero(cls, params) -> "RPoly":
        return cls(ZqPoly.zero(params), ZqPoly.zero(params))

    @classmethod
    def one(cls, params) -> "RPoly":
        return cls(ZqPoly.const(params, 1), ZqPoly.zero(params))

    @property
    def params(self) -> RingParams:
        return self.a.params

    @property
    def coeffs(self) -> tuple[tuple[int, int], ...]:
        """The (a, b) coefficient pairs, index = degree."""
        # Via a list, so the tuple is built at its size (see ZqSpan.from_rows).
        return tuple(list(zip_longest(self.a.coeffs, self.b.coeffs, fillvalue=0)))

    @property
    def degree(self) -> int:
        return max(self.a.degree, self.b.degree)

    def is_zero(self) -> bool:
        return self.a.is_zero() and self.b.is_zero()

    def is_monic(self) -> bool:
        return self.a.is_monic() and self.b.degree < self.a.degree

    def __getitem__(self, i: int) -> tuple[int, int]:
        return self.a[i], self.b[i]

    __iter__ = ZqPoly.__iter__  # over the (a, b) pairs

    def __add__(self, other: "RPoly") -> "RPoly":
        return RPoly(self.a + other.a, self.b + other.b)

    def __sub__(self, other: "RPoly") -> "RPoly":
        return RPoly(self.a - other.a, self.b - other.b)

    def __neg__(self) -> "RPoly":
        return RPoly(-self.a, -self.b)

    def __mul__(self, other) -> "RPoly":
        """Product with an int or an `RPoly`: (a + ub)(c + ud)
        = ac + u(ad + bc)."""
        c, d = (other, 0) if isinstance(other, int) else (other.a, other.b)
        return RPoly(self.a * c, self.a * d + self.b * c)

    __rmul__ = __mul__

    def shift(self, k: int) -> "RPoly":
        return RPoly(self.a.shift(k), self.b.shift(k))

    def __mod__(self, divisor: "RPoly") -> "RPoly":
        """The remainder mod a monic f = fa + u*fb (deg fb < deg fa).

        Reduction mod f is R-linear, so g mod f = sum_k g_k (x^k mod f), and
        with u^2 = 0 its coefficient j is sum_k ga_k Xa_kj + u sum_k (ga_k Xb_kj
        + gb_k Xa_kj) for x^k mod f = Xa_k + u Xb_k.  Each coefficient is read
        off the coefficient lists and the cached columns of x^k mod f: no
        quotient is built."""
        _same_ring(self.a, divisor.a)
        if not divisor.is_monic():
            raise NonMonicDivisorError(f"divisor {divisor} is not monic")
        params = self.params
        ga, gb = self.a.coeffs, self.b.coeffs
        cols_a, cols_b = _power_residues(divisor.a.coeffs[:-1], divisor.b.coeffs, params.q,
                                         max(len(ga), len(gb)))
        return RPoly(ZqPoly.make(params, [sum(map(mul, ga, xa)) for xa in cols_a]),
                     ZqPoly.make(params, [sum(map(mul, ga, xb)) + sum(map(mul, gb, xa))
                                          for xa, xb in zip(cols_a, cols_b)]))

    def divides(self, other: "RPoly") -> bool:
        return (other % self).is_zero()

    def mul_u(self) -> "RPoly":
        return RPoly(ZqPoly.zero(self.params), self.a)

    def residue(self) -> tuple[int, ...]:
        return self.a.residue()

    def reduce_cyclic(self, n: int) -> "RPoly":
        """Reduce modulo x^n - 1 by folding exponents mod n."""
        return RPoly(self.a.reduce_cyclic(n), self.b.reduce_cyclic(n))

    def __str__(self):
        return format_r_poly(self)


def times_x_mod(a: list, b: list, fa, fb, q: int) -> tuple[list, list]:
    """(a + u*b) * x mod f = x^m + fa + u*fb, all four given by their m low
    coefficients: a shift, less the top coefficient times f."""
    ta, tb = a[-1], b[-1]  # x^m = -(fa + u*fb)
    return ([(x - ta * y) % q for x, y in zip([0] + a[:-1], fa)],
            [(x - ta * y - tb * z) % q for x, y, z in zip([0] + b[:-1], fb, fa)])


@lru_cache(maxsize=256)
def _power_residues(fa: tuple, fb: tuple, q: int, size: int) -> tuple[tuple, tuple]:
    """x^k mod (x^d + fa + u*fb), fa and fb the d low coefficients (fb may
    be shorter), for k < size, transposed: the a-parts and the b-parts, each
    as d columns indexed by k.  A table holds 2 * d * size ints, and the
    cache keeps 256 of them, one per divisor and length: the distance and
    enumerate benchmark rounds of seeds 1-6 fill 60 and 102."""
    d = len(fa)
    if not d:  # mod 1 every power is 0, with no coefficients
        return (), ()
    fb = fb + (0,) * (d - len(fb))
    a, b = [0] * d, [0] * d
    powers_a, powers_b = [], []
    for k in range(size):
        if k < d:
            a = [0] * d
            a[k] = 1
        else:
            a, b = times_x_mod(a, b, fa, fb, q)
        powers_a.append(a)
        powers_b.append(b)
    return tuple(zip(*powers_a)), tuple(zip(*powers_b))


def divmod_monic(dividend: RPoly, divisor: RPoly) -> tuple[RPoly, RPoly]:
    """Exact long division by a monic R-polynomial fa + u*fb (deg fb < deg fa):
    the a-part divides by fa, then the u-part less quotient_a * fb does."""
    if divisor.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    if not divisor.is_monic():
        raise NonMonicDivisorError(f"divisor {divisor} is not monic")
    fa, fb = divisor.a, divisor.b
    qa, ra = divmod(dividend.a, fa)
    qb, rb = divmod(dividend.b - qa * fb, fa)
    return RPoly(qa, qb), RPoly(ra, rb)


def xn_minus_1(params: RingParams, n: int) -> RPoly:
    return RPoly.from_zq(xn_minus_1_zq(params, n))


def xn_minus_1_zq(params: RingParams, n: int) -> ZqPoly:
    return ZqPoly.make(params, [-1] + [0] * (n - 1) + [1])


def powmod(base: ZqPoly, e: int, modulus: ZqPoly) -> ZqPoly:
    """base^e mod modulus, by square and multiply."""
    result = ZqPoly.const(base.params, 1)
    while e:
        if e & 1:
            result = (result * base) % modulus
        e >>= 1
        if e:
            base = (base * base) % modulus
    return result


# ---------------------------------------------------------------------------
# F_p[x]: ZqPoly over residue_field(p).
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def residue_field(p: int) -> RingParams:
    """F_p as Z_p, the ring with s = 1."""
    return RingParams(p, 1)


def _gcd(f: ZqPoly, g: ZqPoly) -> ZqPoly:
    """A gcd of f and g over a field, up to a unit."""
    while not g.is_zero():
        f, g = g, f % g
    return f


def is_irreducible(f: ZqPoly) -> bool:
    """Rabin's test over F_p: x^(p^d) = x mod f, and x^(p^(d/l)) - x is prime
    to f for every prime l dividing d = deg f."""
    p, d = f.params.p, f.degree
    if d < 1:
        return False
    x = ZqPoly(f.params, (0, 1))
    if powmod(x, p**d, f) != x % f:
        return False
    return all(_gcd(powmod(x, p ** (d // ell), f) - x, f).degree == 0 for ell in prime_factors(d))


def order_of_x(f: ZqPoly) -> int:
    """Multiplicative order of x modulo an irreducible f over F_p, a divisor
    of p^d - 1 (f must not be divisible by x)."""
    if f[0] == 0:
        raise PreconditionError("x divides f; order undefined")
    order = f.params.p ** f.degree - 1
    for ell in prime_factors(order):
        while order % ell == 0 and powmod(ZqPoly(f.params, (0, 1)), order // ell, f).coeffs == (1,):
            order //= ell
    return order


def _x_has_order(f: ZqPoly, n: int, primes: list[int]) -> bool:
    """x has order n mod f: x is a unit (f(0) != 0) with x^(n+1) = x, and
    x^(n/l) != 1 for each prime l | n (the `primes`).  n + 1 = p^d takes
    fewer multiplications than n."""
    x = ZqPoly(f.params, (0, 1))
    return (f[0] != 0 and powmod(x, n + 1, f) == x % f
            and all(powmod(x, n // ell, f).coeffs != (1,) for ell in primes))


def is_primitive(f: ZqPoly) -> bool:
    """x has order p^d - 1 mod f, d = deg f >= 1.  That many units leave no
    nonzero non-unit in F_p[x]/(f), which is then a field: f is irreducible."""
    n = f.params.p ** f.degree - 1
    return f.degree >= 1 and _x_has_order(f, n, prime_factors(n))


@lru_cache(maxsize=None)
def smallest_primitive(p: int, m: int) -> ZqPoly:
    """The canonical primitive polynomial of degree m over F_p: smallest when
    coefficient vectors are compared from the leading end down."""
    field = residue_field(p)
    n = p**m - 1
    primes = prime_factors(n)
    for digits in product(range(p), repeat=m):  # the leading end varies slowest
        f = ZqPoly(field, (*reversed(digits), 1))
        if _x_has_order(f, n, primes):
            return f
    raise RuntimeError(f"no primitive polynomial of degree {m} over F_{p}")


def cyclotomic_cosets(n: int, p: int) -> list[list[int]]:
    """Cosets of multiplication by p on Z_n, each from its least element, in that order."""
    seen = [False] * n
    cosets = []
    for a in range(n):
        if seen[a]:
            continue
        coset = []
        b = a
        while not seen[b]:
            seen[b] = True
            coset.append(b)
            b = (b * p) % n
        cosets.append(coset)
    return cosets


@lru_cache(maxsize=None)
def _teichmuller_root(gbar: ZqPoly, params: RingParams) -> tuple[ZqPoly, ZqPoly]:
    """(G, T) with G = gbar (over F_p) read over Z_q and T = x^(p^(m(s-1))) mod G.

    Z_q[x]/(G) is the Galois ring of degree m = deg gbar over Z_q, and T is
    the Teichmuller lift of the residue root x (Wan 2003): the p^m-th power
    fixes a unit's Teichmuller part and sends a factor 1 + p^k*e to
    1 + p^(k+1)*e', so s - 1 such steps leave only the Teichmuller part.
    """
    modulus = ZqPoly.make(params, gbar.coeffs)
    p, m = params.p, gbar.degree
    return modulus, powmod(ZqPoly.make(params, [0, 1]), p ** (m * (params.s - 1)), modulus)


def _conjugate_product(roots, modulus: ZqPoly) -> ZqPoly:
    """prod_r (X - r) over Galois-ring elements r of Z_q[x]/(modulus); the
    roots form whole Frobenius orbits, so every coefficient lands in Z_q."""
    params = modulus.params
    coeffs = [ZqPoly.const(params, 1)]
    for r in roots:
        coeffs = [ZqPoly.zero(params)] + coeffs
        for i in range(len(coeffs) - 1):
            coeffs[i] = coeffs[i] - (coeffs[i + 1] * r) % modulus
    assert all(c.degree <= 0 for c in coeffs), "conjugate product escaped Z_q"
    return ZqPoly.make(params, [c[0] for c in coeffs])


def teichmuller_lift(gbar, params: RingParams) -> ZqPoly:
    """The unique monic lift of an irreducible gbar over F_p to Z_q that still
    divides x^N - 1, N the multiplicative order of gbar's roots: the product
    of X - T^(p^k), k < m, over the conjugates of the Teichmuller root T."""
    coeffs = gbar.residue() if isinstance(gbar, (ZqPoly, RPoly)) else gbar
    g = ZqPoly.make(residue_field(params.p), coeffs)
    if not g.is_monic():
        raise PreconditionError("input must be monic over F_p")
    if g.degree == 0:
        raise PreconditionError("input must have positive degree")
    if g[0] == 0:
        raise PreconditionError("x divides the input; it cannot divide x^N - 1")
    if not is_irreducible(g):
        raise PreconditionError("input is reducible over F_p")
    modulus, t = _teichmuller_root(g, params)
    conjugates = [t]
    for _ in range(modulus.degree - 1):
        conjugates.append(powmod(conjugates[-1], params.p, modulus))
    return _conjugate_product(conjugates, modulus)


class Factorization(Value):
    """x^n - 1 = product of monic basic irreducible factors, in canonical
    order (ascending degree, then coefficient vectors compared from the
    leading end down).  cosets[l] is the p-cyclotomic coset C of Z_n with
    factors[l] = prod_{k in C} (X - zeta^k)."""

    __slots__ = ("n", "params", "factors", "cosets")

    def __init__(self, n: int, params: RingParams, factors: tuple[RPoly, ...],
                 cosets: tuple[tuple[int, ...], ...]):
        self.n, self.params, self.factors, self.cosets = n, params, factors, cosets

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(f.degree for f in self.factors)

    @property
    def primitive(self) -> tuple[bool, ...]:
        """Per factor, whether its roots zeta^k, k in C, have the order p^|C| - 1
        of a primitive residue; their order is n / gcd(n, min C), min C = C[0]."""
        n, p = self.n, self.params.p
        return tuple(n // math.gcd(n, c[0]) == p ** len(c) - 1 for c in self.cosets)

    def product(self) -> RPoly:
        return reduce(lambda x, y: x * y, self.factors, RPoly.one(self.params))


def check_length(n: int, p: int) -> None:
    """Refuse a code length that is not positive or not prime to p."""
    if n < 1:
        raise PreconditionError(f"length n = {n} must be positive")
    if math.gcd(n, p) != 1:
        raise LengthNotCoprimeError(f"gcd(n, p) = gcd({n}, {p}) != 1; length must be prime to p")


@lru_cache(maxsize=None)
def factor_xn_minus_1(n: int, params: RingParams) -> Factorization:
    """Factor x^n - 1 over R into basic irreducibles: one factor
    prod_{k in C} (X - zeta^k) per p-cyclotomic coset C of Z_n, where
    zeta = T^((p^m - 1)/n) for the Teichmuller root T of the canonical
    primitive polynomial of degree m = ord_n(p)."""
    p = params.p
    check_length(n, p)
    cosets = cyclotomic_cosets(n, p)
    m = len(cosets[1 % n])  # ord_n(p): the coset of 1 is {p^k mod n}
    modulus, t = _teichmuller_root(smallest_primitive(p, m), params)
    zeta = powmod(t, (p**m - 1) // n, modulus)
    powers = [ZqPoly.const(params, 1)]
    for _ in range(n - 1):
        powers.append((powers[-1] * zeta) % modulus)
    lifted = [(RPoly.from_zq(_conjugate_product([powers[k] for k in coset], modulus)), tuple(coset))
              for coset in cosets]
    lifted.sort(key=lambda pair: (pair[0].degree, pair[0].a.coeffs[::-1]))
    factors, cosets = zip(*lifted)
    fact = Factorization(n, params, factors, cosets)
    assert (fact.product() - xn_minus_1(params, n)).is_zero(), "factor product mismatch"
    return fact


def is_basic_irreducible(f: RPoly) -> bool:
    if not f.is_monic():
        raise PreconditionError("basic irreducibility is tested for monic polynomials")
    return is_irreducible(ZqPoly.make(residue_field(f.params.p), f.a.coeffs))


def is_basic_primitive(f: RPoly) -> bool:
    if not f.is_monic():
        raise PreconditionError("basic primitivity is tested for monic polynomials")
    return is_primitive(ZqPoly.make(residue_field(f.params.p), f.a.coeffs))


# ---------------------------------------------------------------------------
# Text grammar and JSON forms.
#
# Z_q-polynomial: terms "c*x^k" in descending powers, "+"-joined; the
# coefficient is omitted when 1 (except for the constant term), "x^1" is
# written "x", and the zero polynomial is "0".
# R-polynomial: "<zqpoly>" or "<zqpoly>+u*(<zqpoly>)".
# JSON form of an R-polynomial: [[a, b], ...] with index = degree.
# ---------------------------------------------------------------------------

_TERM_RE = re.compile(r"^(?:(\d+)\*)?x(?:\^(\d+))?$|^(\d+)$")
_U_RE = re.compile(r"(?<![\w*])u")


def format_zq_poly(poly: ZqPoly) -> str:
    if poly.is_zero():
        return "0"
    terms = []
    for k in range(poly.degree, -1, -1):
        c = poly[k]
        if c == 0:
            continue
        if k == 0:
            terms.append(str(c))
        elif k == 1:
            terms.append("x" if c == 1 else f"{c}*x")
        else:
            terms.append(f"x^{k}" if c == 1 else f"{c}*x^{k}")
    return "+".join(terms)


def parse_zq_poly(text: str, params: RingParams, n: Optional[int] = None) -> ZqPoly:
    """Parse `c*x^k + ...`; with n given, exponents are folded mod n, so the
    result is the polynomial reduced mod x^n - 1 (and never longer than n)."""
    text = text.replace(" ", "")
    if not text:
        raise PolyParseError("empty polynomial text")
    coeffs: dict[int, int] = {}
    for token in text.split("+"):
        m = _TERM_RE.match(token)
        if not m:
            raise PolyParseError(f"cannot parse polynomial term {token!r}")
        if m.group(3) is not None:
            k, c = 0, int(m.group(3))
        else:
            c = int(m.group(1)) if m.group(1) else 1
            k = int(m.group(2)) if m.group(2) else 1
        if n is not None:
            k %= n
        coeffs[k] = coeffs.get(k, 0) + c
    out = [0] * (max(coeffs) + 1)
    for k, c in coeffs.items():
        out[k] = c
    return ZqPoly.make(params, out)


def format_r_poly(poly: RPoly) -> str:
    a, b = poly.a, poly.b
    if b.is_zero():
        return format_zq_poly(a)
    return f"{format_zq_poly(a)}+u*({format_zq_poly(b)})"


def parse_r_poly(text: str, params: RingParams, n: Optional[int] = None) -> RPoly:
    """Parse `a + u*(b)`, or `a + u` for b = 1; an optional n folds exponents
    as in parse_zq_poly.  Errors quote `text` as given."""
    flat = text.replace(" ", "")
    # a u-part starts at a "u" that follows no letter, digit or "*"
    starts = [m.start() for m in _U_RE.finditer(flat)]
    if not starts:
        return RPoly.from_zq(parse_zq_poly(flat, params, n))
    if len(starts) > 1:
        raise PolyParseError(f"more than one u-part in {text!r}")
    idx = starts[0]
    if flat.startswith("u*(", idx):
        end = flat.find(")", idx)
        if end < 0:
            raise PolyParseError(f"unterminated u-part in {text!r}")
        inner = flat[idx + 3 : end]
    else:
        end, inner = idx, "1"
    if end != len(flat) - 1:
        raise PolyParseError(f"the u-part (u or u*(...)) must come last in {text!r}")
    head = flat[:idx].rstrip("+")
    a = parse_zq_poly(head, params, n) if head else ZqPoly.zero(params)
    return RPoly(a, parse_zq_poly(inner, params, n))


def r_poly_to_json(poly: RPoly) -> list[list[int]]:
    return [[a, b] for a, b in poly.coeffs]


def r_poly_from_json(data, params: RingParams) -> RPoly:
    return RPoly.make(params, [(int(a), int(b)) for a, b in data])


def zq_poly_to_json(poly: ZqPoly) -> list[int]:
    return list(poly.coeffs)
