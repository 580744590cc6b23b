"""Independent arithmetic the benchmark uses to check the program's answers.

Nothing here imports powerchains: the checks must not share code with what
they check.  Integers use built-in `pow`; polynomials over F_p are plain
coefficient lists, lowest degree first.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction

import numpy as np

# Miller-Rabin with the first 13 primes as bases is deterministic below
# 3317044064679887385961981 (Sorenson and Webster); beyond it the answer is
# only probable, which is enough for a spot check.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeTable:
    """Primes up to a bound, from a plain sieve of Eratosthenes."""

    def __init__(self, bound: int):
        mask = np.ones(bound + 1, dtype=bool)
        mask[:2] = False
        for p in range(2, math.isqrt(bound) + 1):
            if mask[p]:
                mask[p * p::p] = False
        self.bound = bound
        self.primes = np.flatnonzero(mask).tolist()

    def pi(self, x: int) -> int:
        """Number of primes <= x (x must not exceed the table bound)."""
        if x > self.bound:
            raise ValueError(f"pi({x}) is beyond the table bound {self.bound}")
        return bisect_right(self.primes, x)

    def upto(self, x: int) -> list[int]:
        return self.primes[:self.pi(x)]


def subset_sums(terms) -> list:
    """All 2^m - 1 nonempty subset sums, with repeats, in bitmask order."""
    sums = [0]
    for t in terms:
        sums += [s + t for s in sums]
    return sums[1:]


def sum_distinct(terms) -> bool:
    sums = subset_sums(terms)
    return len(set(sums)) == len(sums)


# -- integers ---------------------------------------------------------------


def collides_mod(values, p: int) -> bool:
    """True iff two of the (distinct) integers in `values` agree mod p."""
    return len({v % p for v in values}) != len(values)


def is_chain_prime(values, k: int, p: int) -> bool:
    """Permutation-chain condition at the prime p for a sum-distinct
    candidate with subset-sum set `values`: the sums stay distinct mod p and
    each is 0 or passes Euler's criterion a^((p-1)/gcd(k, p-1)) = 1."""
    if collides_mod(values, p):
        return False
    e = (p - 1) // math.gcd(k, p - 1)
    return all(v % p == 0 or pow(v, e, p) == 1 for v in values)


def reduced_fraction(num: int, den: int) -> str:
    f = Fraction(num, den) if den else Fraction(0)
    return f"{f.numerator}/{f.denominator}"


# -- polynomials over F_p ---------------------------------------------------


def poly_trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def poly_from_text(text: str) -> tuple[int, list[int]]:
    """Parse the CLI text form GF(p)[c0,c1,...]."""
    head, body = text.strip().split("[", 1)
    p = int(head[len("GF("):-1])
    coeffs = [int(x) % p for x in body.rstrip("]").split(",") if x.strip()]
    return p, poly_trim(coeffs)


def poly_to_text(p: int, c: list[int]) -> str:
    return f"GF({p})[{','.join(str(x) for x in (c or [0]))}]"


def poly_add(a, b, p):
    n = max(len(a), len(b))
    return poly_trim([((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)) % p
                      for i in range(n)])


def poly_mod(a, f, p):
    """a mod f for monic f."""
    a = list(a)
    df = len(f) - 1
    for i in range(len(a) - 1, df - 1, -1):
        c = a[i]
        if c:
            for j in range(df + 1):
                a[i - df + j] = (a[i - df + j] - c * f[j]) % p
    return poly_trim(a[:df])


def poly_mulmod(a, b, f, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return poly_mod(out, f, p)


def poly_powmod(a, e, f, p):
    result, base = [1], poly_mod(a, f, p)
    while e:
        if e & 1:
            result = poly_mulmod(result, base, f, p)
        base = poly_mulmod(base, base, f, p)
        e >>= 1
    return result


def monic_polys(p: int, d: int):
    """Every monic polynomial of degree d over F_p, ascending by value."""
    for v in range(p**d):
        c = []
        for _ in range(d):
            v, r = divmod(v, p)
            c.append(r)
        yield c + [1]


def poly_is_irreducible(f, p: int) -> bool:
    """Trial division of monic f by every monic polynomial of degree 1..d/2."""
    d = len(f) - 1
    return d >= 1 and all(poly_mod(f, g, p)
                          for e in range(1, d // 2 + 1) for g in monic_polys(p, e))


def prime_to_p_part(k: int, p: int) -> int:
    while k % p == 0:
        k //= p
    return k


def is_chain_modulus(values, k: int, f, p: int) -> bool:
    """Permutation-chain condition modulo a monic irreducible f over F_p,
    with the residue test reduced to the prime-to-p part of k (Frobenius is a
    bijection of the residue field)."""
    reduced = {tuple(poly_mod(v, f, p)) for v in values}
    if len(reduced) != len(values):
        return False
    q = p ** (len(f) - 1)
    g = math.gcd(prime_to_p_part(k, p), q - 1)
    if g == 1:  # x -> x^k permutes the residue field
        return True
    e = (q - 1) // g
    return all(not a or poly_powmod(list(a), e, f, p) == [1] for a in reduced)


def poly_subset_sums(terms, p: int) -> list:
    sums = [[]]
    for t in terms:
        sums += [poly_add(s, t, p) for s in sums]
    return sums[1:]


def mobius(n: int) -> int:
    result, q = 1, 2
    while q * q <= n:
        if n % q == 0:
            n //= q
            if n % q == 0:
                return 0
            result = -result
        q += 1
    return -result if n > 1 else result


def necklace(p: int, d: int) -> int:
    """Number of monic irreducibles of degree d over F_p (Gauss's formula)."""
    return sum(mobius(d // e) * p**e for e in range(1, d + 1) if d % e == 0) // d
