"""Polynomials over F_p as little-endian coefficient lists, plus the small
finite-field machinery needed for factoring x^n - 1: irreducibility and
order tests, primitive polynomial search, and cyclotomic cosets.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import PreconditionError


def strip(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


def sub(f, g, p):
    n = max(len(f), len(g))
    out = [0] * n
    for i, c in enumerate(f):
        out[i] = c
    for i, c in enumerate(g):
        out[i] = (out[i] - c) % p
    return strip(out)


def mul(f, g, p):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % p
    return strip(out)


def poly_divmod(f, g, p):
    if not g:
        raise ZeroDivisionError("division by zero polynomial")
    f = list(f)
    dg = len(g) - 1
    inv = pow(g[-1], -1, p)
    quo = [0] * max(len(f) - dg, 0)
    while len(f) - 1 >= dg and f:
        k = len(f) - 1 - dg
        c = (f[-1] * inv) % p
        quo[k] = c
        for i, b in enumerate(g):
            f[k + i] = (f[k + i] - c * b) % p
        strip(f)
    return strip(quo), f


def gcd(f, g, p):
    while g:
        _, f = poly_divmod(f, g, p)
        f, g = g, f
    if f:  # make monic
        inv = pow(f[-1], -1, p)
        f = [(c * inv) % p for c in f]
    return f


def xgcd(f, g, p):
    """Return (d, a, b) with a*f + b*g = d and d the monic gcd."""
    r0, r1 = list(f), list(g)
    a0, a1 = [1], []
    b0, b1 = [], [1]
    while r1:
        q, r = poly_divmod(r0, r1, p)
        r0, r1 = r1, r
        a0, a1 = a1, sub(a0, mul(q, a1, p), p)
        b0, b1 = b1, sub(b0, mul(q, b1, p), p)
    if r0:
        inv = pow(r0[-1], -1, p)
        r0 = [(c * inv) % p for c in r0]
        a0 = [(c * inv) % p for c in a0]
        b0 = [(c * inv) % p for c in b0]
    return r0, a0, b0


def powmod(f, e, mod, p):
    result = [1]
    base = poly_divmod(f, mod, p)[1]
    while e:
        if e & 1:
            result = poly_divmod(mul(result, base, p), mod, p)[1]
        base = poly_divmod(mul(base, base, p), mod, p)[1]
        e >>= 1
    return result


def factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def is_irreducible(f, p) -> bool:
    """Rabin test: x^{p^d} = x mod f, and x^{p^{d/l}} - x coprime to f for prime l | d."""
    d = len(f) - 1
    if d < 1:
        return False
    x = [0, 1]
    if powmod(x, p**d, f, p) != poly_divmod(x, f, p)[1]:
        return False
    for ell in factorize(d):
        probe = sub(powmod(x, p ** (d // ell), f, p), x, p)
        if len(gcd(probe, f, p)) > 1:
            return False
    return True


def order_of_x(f, p) -> int:
    """Multiplicative order of x modulo f (requires nonzero constant term)."""
    if not f or f[0] == 0:
        raise PreconditionError("x divides f; order undefined")
    d = len(f) - 1
    n = p**d - 1
    order = n
    for ell in factorize(n):
        while order % ell == 0 and powmod([0, 1], order // ell, f, p) == [1]:
            order //= ell
    return order


def is_primitive(f, p) -> bool:
    d = len(f) - 1
    if not is_irreducible(f, p):
        return False
    if d == 0:
        return False
    return order_of_x(f, p) == p**d - 1


def base_digits(v: int, p: int, m: int) -> list[int]:
    """The m base-p digits of v, least significant first."""
    out = []
    for _ in range(m):
        v, d = divmod(v, p)
        out.append(d)
    return out


@lru_cache(maxsize=None)
def smallest_primitive(p: int, m: int) -> tuple[int, ...]:
    """The canonical primitive polynomial of degree m over F_p: smallest when
    coefficient vectors are compared from the leading end down."""
    for enc in range(p**m):
        coeffs = base_digits(enc, p, m)
        if coeffs[0] == 0:
            continue
        f = coeffs + [1]
        if is_primitive(f, p):
            return tuple(f)
    raise RuntimeError(f"no primitive polynomial of degree {m} over F_{p}")


def multiplicative_order(a: int, n: int) -> int:
    if n == 1:
        return 1
    import math

    if math.gcd(a, n) != 1:
        raise PreconditionError(f"gcd({a}, {n}) != 1; order undefined")
    t = a % n
    k = 1
    while t != 1:
        t = (t * a) % n
        k += 1
    return k


def cyclotomic_cosets(n: int, p: int) -> list[list[int]]:
    """Cosets of multiplication by p on Z_n, sorted by minimal representative."""
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
