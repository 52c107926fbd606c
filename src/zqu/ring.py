"""Exact arithmetic in R = Z_q + uZ_q (q = p^s, u^2 = 0) and its ideal census.

The census names four ideal families; only this module maps them to and from
(i, j, alpha) readings and turns a reading into generators.

Everywhere in the package an element a + bu of R is the pair (a, b) of least
nonnegative residues mod q: RPoly coefficients, span rows and scanned words.
p-adic digits of Z_q run over the Teichmuller set, reached in closed form.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Optional

from .errors import PreconditionError
from .howell import pval
from .value import Value


def prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n, ascending, by trial division ([] for n < 2)."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


class RingParams(Value):
    """The ambient ring R = Z_q + uZ_q with q = p^s, built as RingParams(p, s).

    The checks run cheapest first: s >= 1 and p < 2^16 before the primality
    test, and s is bounded before p^s is built (p >= 2 and s >= 32 give
    q^2 >= 2^64).
    """

    __slots__ = ("p", "s", "q")

    def __init__(self, p: int, s: int):
        if not isinstance(p, int) or not isinstance(s, int):
            raise PreconditionError("p and s must be integers")
        if s < 1:
            raise PreconditionError(f"s = {s} must be >= 1")
        if p >= 1 << 16:
            raise PreconditionError(f"p = {p} exceeds the 16-bit prime bound")
        if prime_factors(p) != [p]:
            raise PreconditionError(f"p = {p} is not prime")
        if s >= 32 or p ** (2 * s) >= 1 << 63:
            raise PreconditionError(f"q^2 = {p}^{2 * s} does not fit a 64-bit word")
        self.p, self.s, self.q = p, s, p**s

    def __str__(self):
        return f"Z{self.q}+uZ{self.q}"


make_ring = RingParams  # make_ring(p, s) builds and validates R = Z_{p^s} + uZ_{p^s}


def teichmuller(a: int, p: int, q: int) -> int:
    """The Teichmuller representative of a in Z_q: a^(q/p), the closed form of
    the fixed point of a -> a^p (0 when p divides a)."""
    return pow(a, q // p, q)


@lru_cache(maxsize=None)
def teichmuller_set(params: RingParams) -> tuple[int, ...]:
    """{0} plus the (p-1)-th roots of unity in Z_q, sorted: one pow per residue
    class mod p, since a^(q/p) mod q depends only on a mod p."""
    return tuple(sorted({0} | {teichmuller(a, params.p, params.q) for a in range(1, params.p)}))


def p_adic_digits(a: int, params: RingParams) -> tuple[int, ...]:
    """Digits (a_0, ..., a_{s-1}) over the Teichmuller set with a = sum a_i p^i mod q."""
    p, q, s = params.p, params.q, params.s
    v = a % q
    digits = []
    for _ in range(s):
        d = teichmuller(v, p, q)
        digits.append(d)
        v = ((v - d) % q) // p
    return tuple(digits)


# Ideal families of R.  Kinds:
#   p_power            (p^i),           0 <= i <= s
#   u_times_p_power    (p^k u),         0 <= k <= s-1
#   p_power_plus_alpha_u  (p^j + alpha*u), 1 <= j <= s-1, alpha != 0
#   p_power_and_u      (p^j, u),        1 <= j <= s-1
# alpha is a residue-field element; over the base ring it is a single
# coefficient, over GR(R, m) a polynomial of degree < m (little-endian tuple).

KIND_P_POWER = "p_power"
KIND_U_P_POWER = "u_times_p_power"
KIND_P_ALPHA_U = "p_power_plus_alpha_u"
KIND_P_AND_U = "p_power_and_u"

_KINDS = (KIND_P_POWER, KIND_U_P_POWER, KIND_P_ALPHA_U, KIND_P_AND_U)

# (i, j, alpha): an ideal of GR(R, m) is (p^i) mod u and u*(p^j) inside
# uGR(R, m); when i < s it holds p^i + alpha*u, alpha (m coefficients)
# reduced mod p^j, and alpha is None when i = s.
Reading = tuple[int, int, Optional[tuple[int, ...]]]


class IdealDescriptor(Value):
    __slots__ = ("kind", "index", "alpha")

    def __init__(self, kind: str, index: int, alpha: Optional[tuple[int, ...]] = None):
        if kind not in _KINDS:
            raise PreconditionError(f"unknown ideal family {kind!r}")
        if kind == KIND_P_ALPHA_U:
            if alpha is None or not any(alpha):
                raise PreconditionError("alpha must be a nonzero residue-field element")
        elif alpha is not None:
            raise PreconditionError(f"family {kind} carries no alpha")
        self.kind, self.index, self.alpha = kind, index, alpha

    def is_zero_ideal(self, s: int) -> bool:
        return self.kind == KIND_P_POWER and self.index == s

    def is_unit_ideal(self) -> bool:
        return self.kind == KIND_P_POWER and self.index == 0

    def label(self) -> str:
        if self.kind == KIND_P_POWER:
            return f"(p^{self.index})"
        if self.kind == KIND_U_P_POWER:
            return f"(p^{self.index}*u)" if self.index else "(u)"
        if self.kind == KIND_P_ALPHA_U:
            alpha = ",".join(map(str, self.alpha))
            return f"(p^{self.index}+[{alpha}]*u)"
        return f"(p^{self.index}, u)"

    def reading(self, s: int, m: int) -> Reading:
        """The (i, j, alpha) of this ideal inside GR(R, m)."""
        k = self.index
        if self.kind == KIND_U_P_POWER or self.is_zero_ideal(s):
            return s, k, None
        if self.kind == KIND_P_ALPHA_U:
            return k, min(k, s - k), self.alpha
        return k, (k if self.kind == KIND_P_POWER else 0), (0,) * m

    @classmethod
    def from_reading(cls, reading: Reading, p: int, s: int) -> Optional["IdealDescriptor"]:
        """The ideal family with this reading, or None outside the four families."""
        i, j, alpha = reading
        if i == s:
            return cls(KIND_P_POWER, s) if j == s else cls(KIND_U_P_POWER, j)
        if j == i and not any(alpha):  # i = 0 lands here: j = 0 and alpha mod 1 = 0
            return cls(KIND_P_POWER, i)
        if j == 0:
            return cls(KIND_P_AND_U, i)
        if j == min(i, s - i) and any(alpha) and max(alpha) < p:
            return cls(KIND_P_ALPHA_U, i, alpha)
        return None


def reading_generators(reading: Reading, params: RingParams) -> list[tuple[tuple[int, int], ...]]:
    """Generators of the ideal with this reading, as coefficient pairs (a, b)
    of polynomials in the basis 1, x, ..., x^(m-1) of GR(R, m).

    p^i + alpha*u (when i < s) already holds u*p^i and, through
    p^(s-i) * (p^i + alpha*u), u*p^(s-i+v_p(alpha)); u*p^j is added only when
    j lies below both.
    """
    i, j, alpha = reading
    p, s = params.p, params.s
    gens = []
    implied = s
    if i < s:
        gens.append(((p**i, alpha[0]),) + tuple((0, b) for b in alpha[1:]))
        implied = min(i, s - i + min(pval(b, p, s) for b in alpha))
    if j < implied:
        gens.append(((0, p**j),))
    return gens


def census_size(p: int, s: int, m: int = 1) -> int:
    """Number of ideals of GR(R, m): each is (p^i + u*beta, u*p^j) for one
    0 <= j <= i <= s and one of p^(m(j - max(0, i+j-s))) values of beta
    (Dinh and Lopez-Permouth 2004).  For s <= 2 the four families are all
    of them, 3s + (s-1)(p^m - 1); for s >= 3 they miss some (Z8 + uZ8 has
    13, the families 11)."""
    return sum(p ** (m * (j - max(0, i + j - s))) for i in range(s + 1) for j in range(i + 1))


def ideal_descriptors(p: int, s: int, m: int = 1) -> list[IdealDescriptor]:
    """The ideals of GR(R, m) in the four families, in canonical family,
    index, alpha order; alpha, little-endian, runs lexicographically."""
    alphas = list(itertools.product(range(p), repeat=m))[1:]  # all but the zero tuple
    out = [IdealDescriptor(KIND_P_POWER, i) for i in range(s + 1)]
    out += [IdealDescriptor(KIND_U_P_POWER, k) for k in range(s)]
    for j in range(1, s):
        out += [IdealDescriptor(KIND_P_ALPHA_U, j, alpha) for alpha in alphas]
    out += [IdealDescriptor(KIND_P_AND_U, j) for j in range(1, s)]
    return out
