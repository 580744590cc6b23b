"""Integer primitives: modular exponentiation, primality, factorization, prime
enumeration, and the kth-power residue test modulo a prime.

Conventions used throughout the package:

* 0 counts as a kth power residue (0 = 0^k), so a chain sum divisible by the
  modulus never disqualifies a chain.
* Values (terms, sums, moduli) must fit in a signed 128-bit integer; larger
  inputs raise OverflowLimitError instead of being accepted silently.
* Primality is decided by a deterministic Miller-Rabin witness set that is
  proven correct for all n < 3317044064679887385961981 (in particular for the
  full 64-bit range); asking about larger n raises OverflowLimitError rather
  than returning a probabilistic answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from math import gcd, isqrt, prod
from operator import index
from typing import TYPE_CHECKING

from powerchains import _subsets
from powerchains.errors import OverflowLimitError

if TYPE_CHECKING:
    import numpy as np  # imported by the segmented sieve alone, at call time

MAX_VALUE = 2**127 - 1

# Miller-Rabin with the first 13 prime bases is proven deterministic for
# every n below this bound (Sorenson and Webster, "Strong pseudoprimes to
# twelve prime bases", Math. Comp. 86 (2017)):
MR_CERTIFIED_BOUND = 3317044064679887385961981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

_TINY_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)

TRIAL_DIVISION_LIMIT = 10**6
_BLOCK_PRIMES = 128  # primes per block product: one gcd tests the whole block
_CHUNK_VALUES = 256  # values per product in _prime_divisors; one product of all is quadratic
_SEGMENT_ODDS = 1 << 20  # odd slots per sieve segment; cache-resident bitset

# every prime <= _small_prime_bound, grown on demand by trial division, and
# the products of its consecutive blocks of _BLOCK_PRIMES primes
_small_prime_cache: list[int] = []
_small_prime_products: list[int] = []
_small_prime_bound = 1


def _check_width(n: int, what: str = "value") -> int:
    if abs(n) > MAX_VALUE:
        raise OverflowLimitError(f"{what} {n} exceeds the 128-bit signed integer width")
    return n


def mod_pow(base: int, exp: int, modulus: int) -> int:
    """base^exp mod modulus, in O(log exp) multiplications.

    Raises ValueError for modulus < 2 or exp < 0.
    """
    if modulus < 2:
        raise ValueError(f"modulus must be >= 2, got {modulus}")
    if exp < 0:
        raise ValueError(f"exponent must be nonnegative, got {exp}")
    _check_width(base, "base")
    _check_width(modulus, "modulus")
    return pow(base, exp, modulus)


def _mr_composite_witness(n: int, d: int, s: int, a: int) -> bool:
    # True if a certifies that odd n is composite; n-1 = d * 2^s with d odd.
    a %= n
    if a <= 1:
        return False
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return False
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return False
    return True


def is_prime(n: int) -> bool:
    """Deterministic primality test.

    Exact for every n below MR_CERTIFIED_BOUND; larger n raise
    OverflowLimitError.  n < 2 (including negatives) returns False.
    """
    if n < 2:
        return False
    for p in _TINY_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    if n < 59 * 59:
        return True
    if n >= MR_CERTIFIED_BOUND:
        raise OverflowLimitError(
            f"{n} is beyond the certified deterministic primality bound "
            f"{MR_CERTIFIED_BOUND}")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    return not any(_mr_composite_witness(n, d, s, a) for a in _MR_BASES)


def _as_prime(p) -> int:
    """The prime modulus p as an int; TypeError for a non-integer (a float
    is refused, not truncated), ValueError when p is not prime."""
    p = index(p)
    if p < 2 or not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")
    return p


@dataclass(frozen=True)
class Factorization:
    """Signed prime factorization: sign * prod(p_i^e_i).

    Primes are strictly increasing; +/-1 factor to an empty list.
    """

    sign: int
    factors: tuple[tuple[int, int], ...]

    def value(self) -> int:
        n = self.sign
        for p, e in self.factors:
            n *= p**e
        return n

    def __iter__(self):
        return iter(self.factors)


def _sieve(limit: int) -> list[int]:
    """All primes <= limit, by an odd-only bytearray sieve (no numpy)."""
    if limit < 2:
        return []
    n = (limit + 1) // 2  # slot i stands for 2i + 1
    mask = bytearray([1]) * n
    mask[0] = 0
    for i in range(1, (isqrt(limit) + 1) // 2):
        if mask[i]:
            p = 2 * i + 1
            start = p * p // 2
            mask[start::p] = bytes(len(range(start, n, p)))
    return [2, *compress(range(1, limit + 1, 2), mask)]


def _small_primes(bound: int) -> tuple[list[int], list[int]]:
    """(primes, products): a list that starts with every prime <= bound
    (<= TRIAL_DIVISION_LIMIT), and the products of its consecutive blocks of
    _BLOCK_PRIMES primes.

    Both grow together, at least twofold when they must grow, so a run of
    factorizations of increasing size re-sieves only O(log) times.
    """
    global _small_prime_cache, _small_prime_products, _small_prime_bound
    if bound > _small_prime_bound:
        _small_prime_bound = min(TRIAL_DIVISION_LIMIT, max(bound, 2 * _small_prime_bound))
        _small_prime_cache = _sieve(_small_prime_bound)
        _small_prime_products = [prod(_small_prime_cache[i:i + _BLOCK_PRIMES])
                                 for i in range(0, len(_small_prime_cache), _BLOCK_PRIMES)]
    return _small_prime_cache, _small_prime_products


def _block_divisors(n: int, bound: int):
    """Yield (first, divisors) for each block of _BLOCK_PRIMES consecutive
    primes whose first prime is at most min(bound, TRIAL_DIVISION_LIMIT):
    `first` is that prime and `divisors` lists, ascending, the block's primes
    that divide n.  Together the blocks hold every prime up to that bound.

    One gcd of n with the block's product tests a whole block; its primes
    are tried one by one only when that gcd exceeds 1, and only until they
    account for it.
    """
    primes, products = _small_primes(min(bound, TRIAL_DIVISION_LIMIT))
    for start, product in zip(range(0, len(primes), _BLOCK_PRIMES), products):
        if primes[start] > bound:
            return
        g = gcd(n, product)  # the product of the block's primes dividing n
        divisors = []
        for p in primes[start:start + _BLOCK_PRIMES] if g > 1 else ():
            if g % p == 0:
                divisors.append(p)
                g //= p
                if g == 1:
                    break
        yield primes[start], divisors


def _pollard_brent(n: int) -> int:
    """A nontrivial factor of composite n (deterministic parameter schedule)."""
    if n % 2 == 0:
        return 2
    for c in range(1, 100):
        y, m = 2 + c, 128
        g, r, q = 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"rho failed to split {n}")  # not reached at desk scale


def _split(n: int) -> list[int]:
    """The prime factors, with multiplicity, of n >= 1 that has no prime
    factor up to min(sqrt(n), TRIAL_DIVISION_LIMIT): below 10^12, n is 1 or
    a prime; above, Pollard-Brent rho splits what is not prime."""
    if n < TRIAL_DIVISION_LIMIT**2:
        return [n] if n > 1 else []
    out, stack = [], [n]
    while stack:
        m = stack.pop()
        if is_prime(m):
            out.append(m)
            continue
        r = isqrt(m)
        if r * r == m:
            stack.extend((r, r))
            continue
        d = _pollard_brent(m)
        stack.extend((d, m // d))
    return out


def factor(n: int) -> Factorization:
    """Complete signed prime factorization.

    Trial division by blocks of the primes up to min(sqrt(|n|), 10^6), then
    Pollard-Brent rho on whatever remains.  Raises ValueError for n = 0 and
    OverflowLimitError beyond the supported width.
    """
    if n == 0:
        raise ValueError("cannot factor 0")
    _check_width(n)
    sign = 1
    if n < 0:
        sign, n = -1, -n
    found: dict[int, int] = {}
    for first, divisors in _block_divisors(n, isqrt(n)):
        if first * first > n:
            break  # n has no prime factor below first, so it is 1 or prime
        for p in divisors:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            found[p] = e
    for q in _split(n):
        found[q] = found.get(q, 0) + 1
    return Factorization(sign, tuple(sorted(found.items())))


def _prime_divisors(values: list[int], limit: int | None) -> set[int]:
    """The primes, at most `limit` when it is given, that divide some
    element of `values`, an ascending list of positive integers.

    Trial division runs on the product of each chunk of _CHUNK_VALUES
    values (chunk by chunk, so that no product grows long), by blocks of the
    primes up to the square root of the chunk's largest value or up to the
    limit, whichever is smaller.  Each value is then stripped, by gcds, of
    the primes its chunk found, and what remains has only larger prime
    factors.  When the trial division covered the limit, that remainder is
    skipped; otherwise it is 1 or a prime below 10^12, and Pollard rho
    splits a larger composite.
    """
    primes: set[int] = set()
    for i in range(0, len(values), _CHUNK_VALUES):
        chunk = values[i:i + _CHUNK_VALUES]
        bound = isqrt(chunk[-1]) if limit is None else min(isqrt(chunk[-1]), limit)
        small = [p for _, divisors in _block_divisors(prod(chunk), bound)
                 for p in divisors]
        primes.update(small)
        if limit is not None and limit <= min(bound, TRIAL_DIVISION_LIMIT):
            continue  # every prime factor of a remainder exceeds the limit
        strip = prod(small)
        for d in chunk:
            g = gcd(d, strip)
            while g > 1:
                d //= g
                g = gcd(d, g)
            primes.update(_split(d))
    return primes if limit is None else {p for p in primes if p <= limit}


def euler_phi(n: int) -> int:
    """Euler's totient, via factorization.  Requires n >= 1."""
    if n < 1:
        raise ValueError(f"euler_phi requires n >= 1, got {n}")
    if n == 1:
        return 1
    out = 1
    for p, e in factor(n).factors:
        out *= (p - 1) * p ** (e - 1)
    return out


def prime_blocks(lo: int, hi: int):
    """Yield numpy int64 arrays that together hold every prime in [lo, hi].

    Segmented odd-only sieve; working memory stays proportional to the
    segment size, so limits around 10^8 are routine.  The base primes grow
    (at least twofold) with the segment, so huge ranges start at once.
    """
    import numpy as np

    lo = max(lo, 2)
    if hi < lo:
        return
    if lo <= 2 <= hi:
        yield np.array([2], dtype=np.int64)
    low = max(lo, 3)
    if low % 2 == 0:
        low += 1
    span = 2 * _SEGMENT_ODDS
    odd_base, bound = [], 1
    while low <= hi:
        high = min(low + span, hi + 1)  # exclusive
        if isqrt(high - 1) > bound:
            bound = min(isqrt(hi), max(isqrt(high - 1), 2 * bound))
            odd_base = _sieve(bound)[1:]  # drop 2
        count = (high - low + 1) // 2
        mask = np.ones(count, dtype=bool)
        for p in odd_base:
            p2 = p * p
            if p2 >= high:
                break
            start = max(p2, ((low + p - 1) // p) * p)
            if start % 2 == 0:
                start += p
            if start < high:
                mask[(start - low) // 2 :: p] = False
        idx = np.flatnonzero(mask)
        if idx.size:
            yield low + 2 * idx
        low = high


def primes_in_range(lo: int, hi: int) -> np.ndarray:
    """All primes in [lo, hi], ascending, as an int64 array."""
    import numpy as np

    blocks = list(prime_blocks(lo, hi))
    if not blocks:
        return np.array([], dtype=np.int64)
    return np.concatenate(blocks)


def primes_up_to(n: int) -> np.ndarray:
    """All primes in [2, n], ascending, as an int64 array."""
    return primes_in_range(2, n)


def is_kth_residue(a: int, k: int, p) -> bool:
    """True iff x^k = a (mod p) is solvable, p prime.

    0 counts as a residue (0 = 0^k).  For a nonzero mod p the Euler-style
    criterion applies with the exponent reduced by d = gcd(k, p-1):
    a is a kth residue iff a^((p-1)/d) = 1 (mod p).
    """
    _subsets.check_k(k)
    p = _as_prime(p)
    _check_width(a, "residue candidate")
    a %= p
    e = _subsets.residue_exponent(k, p)
    return a == 0 or e is None or pow(a, e, p) == 1
