"""Integer primitives: primality, factorization, prime enumeration, and the
kth-power residue test modulo a prime.

Conventions used throughout the package:

* 0 counts as a kth power residue (0 = 0^k), so a chain sum divisible by the
  modulus never disqualifies a chain.
* Values (terms, sums, moduli) must fit in a signed 128-bit integer; larger
  inputs raise OverflowLimitError instead of being accepted silently.
* Primality is decided by a deterministic Miller-Rabin witness set that is
  proven correct for all n < 3317044064679887385961981 (in particular for the
  full 64-bit range); asking about larger n raises OverflowLimitError rather
  than returning a probabilistic answer.
* Factoring has one trial division, the batch `_prime_divisors`: `factor(n)`
  is the batch of |n| alone.  `_ring`, the chain core's prime modulus, gives
  `is_kth_residue` and the Z chain verifiers one residue predicate.
"""

from __future__ import annotations

from itertools import compress, islice
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

# every prime <= _small_prime_bound, grown on demand by trial division and the
# sieve, and the products of its consecutive blocks of _BLOCK_PRIMES primes
_small_prime_cache: list[int] = []
_small_prime_products: list[int] = []
_small_prime_bound = 1


def _check_width(n: int, what: str = "value") -> int:
    if abs(n) > MAX_VALUE:
        raise OverflowLimitError(f"{what} {n} exceeds the 128-bit signed integer width")
    return n


def _mr_composite_witness(n: int, d: int, s: int, a: int) -> bool:
    # True if a certifies that odd n is composite; n-1 = d * 2^s with d odd.
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
    OverflowLimitError.  n < 2 (including negatives) returns False; a
    non-integer n raises TypeError.
    """
    n = index(n)
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
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")
    return p


def _odd_mask(low: int, high: int, odd_primes) -> bytearray:
    """The one composite-marking loop of the sieves: slot i stands for the
    odd number low + 2i < high (low odd), and for each prime p of the
    ascending odd primes `odd_primes` with p^2 < high, the slots of p's odd
    multiples from max(p^2, low) on are set to 0.  With every odd prime up to
    sqrt(high - 1) given and low > 1, the slots left 1 are the primes."""
    mask = bytearray([1]) * ((high - low + 1) // 2)
    for p in odd_primes:
        p2 = p * p
        if p2 >= high:
            break
        # the slot of p^2, or else of the first odd multiple of p at or above
        # low: the i in [0, p) with low + 2i = 0 (mod p)
        i = (p2 - low) // 2 if p2 >= low else (-(low + p) // 2) % p
        mask[i::p] = bytes(len(range(i, len(mask), p)))
    return mask


def _small_primes(bound: int) -> tuple[list[int], list[int]]:
    """(primes, products): the one prime list of the package, which starts
    with every prime <= bound, and the products of its consecutive blocks of
    _BLOCK_PRIMES primes.  Trial division reads it through `_block_divisors`
    and the segmented sieve `prime_blocks` takes its base primes from it.

    Both grow together, at least twofold when they must grow: the list is
    then 2 and the slots `_odd_mask` leaves of [3, bound] with its own odd
    primes up to sqrt(bound) (no numpy), so a run of factorizations or
    segments of increasing size re-sieves only O(log) times.
    """
    global _small_prime_cache, _small_prime_products, _small_prime_bound
    if bound > _small_prime_bound:
        bound = max(bound, 2 * _small_prime_bound)
        odd_primes = islice(_small_primes(isqrt(bound))[0], 1, None)
        mask = _odd_mask(3, bound + 1, odd_primes)
        _small_prime_cache = [2, *compress(range(3, bound + 1, 2), mask)]
        _small_prime_products = [prod(_small_prime_cache[i:i + _BLOCK_PRIMES])
                                 for i in range(0, len(_small_prime_cache), _BLOCK_PRIMES)]
        _small_prime_bound = bound
    return _small_prime_cache, _small_prime_products


def _block_divisors(n: int, bound: int, table=None):
    """Yield (first, divisors) for each block of _BLOCK_PRIMES consecutive
    primes of `_small_primes` whose first prime is at most
    min(bound, TRIAL_DIVISION_LIMIT): `first` is that prime and `divisors`
    lists, ascending, the block's primes that divide n.  Together the blocks
    hold every prime up to that bound; trial division stops at 10^6 however
    far the sieve has grown the list.  A `table` (primes, products) of some
    other ascending list of primes and the products of its blocks stands in
    for the small primes, and then the bound alone stops the blocks.

    One gcd of n with the block's product tests a whole block; its primes
    are tried one by one only when that gcd exceeds 1, and only until they
    account for it.
    """
    if table is None:
        bound = min(bound, TRIAL_DIVISION_LIMIT)
        table = _small_primes(bound)
    primes, products = table
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
    """A nontrivial factor of a composite n with no prime factor up to 10^6,
    odd in particular (deterministic parameter schedule)."""
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


def factor(n: int) -> tuple[tuple[int, int], ...]:
    """The prime factorization of n as (prime, exponent) pairs, ascending,
    with (-1, 1) first when n < 0, the shape of `kummer.exponent_vector`:
    factor(-12) == ((-1, 1), (2, 2), (3, 1)), factor(1) == (), and
    prod(p**e for p, e in factor(n)) == n.

    The batch `_factorizations` of |n| alone: trial division by blocks of
    the primes up to min(sqrt(|n|), 10^6), stopping once a block starts past
    the square root of what is left, then Pollard-Brent rho on whatever
    remains.  Raises TypeError for a non-integer n, ValueError for n = 0 and
    OverflowLimitError beyond the supported width.
    """
    n = _check_width(index(n))
    if n == 0:
        raise ValueError("cannot factor 0")
    sign = ((-1, 1),) if n < 0 else ()
    return sign + _factorizations([abs(n)])[0]


def _strip(n: int, blocks) -> tuple[dict[int, int], int]:
    """(exponents, rest): n >= 1 divided by every prime that the (first,
    divisors) `blocks` of `_block_divisors(n, ...)` find, with the exponent
    of each, ascending, until a block's first prime exceeds the square root
    of the rest, which then has no prime factor in the blocks left."""
    found: dict[int, int] = {}
    for first, divisors in blocks:
        if first * first > n:
            break  # n has no prime factor below first, so it is 1 or prime
        for p in divisors:
            e = 0
            q, r = divmod(n, p)  # one pass over n, which may be a long product
            while not r:
                n, e = q, e + 1
                q, r = divmod(n, p)
            found[p] = e
    return found, n


def _prime_divisors(values: list[int], limit: int | None) -> set[int]:
    """The primes, at most `limit` when it is given, that divide some
    element of `values`, an ascending list of positive integers.  The one
    trial division of the package: `factor` and `_factorizations` start here.

    Trial division runs on the product of each chunk of _CHUNK_VALUES
    values (chunk by chunk, so that no product grows long), by blocks of the
    primes up to the square root of the chunk's largest value or up to the
    limit, whichever is smaller.  A chunk of one value (the path of
    `factor`) is divided by each prime found through `_strip`, which ends
    it once a block starts past the square root of the rest, then 1 or a
    prime.  A long product seldom stops early, so each value of a larger
    chunk is instead stripped, by gcds, of the primes its chunk found.
    When the blocks covered the limit, only a rest at most the limit (a
    prime, after an early stop) is kept; otherwise each value's remainder
    is 1 or a prime below 10^12, and Pollard rho splits a larger composite.
    """
    primes: set[int] = set()
    for i in range(0, len(values), _CHUNK_VALUES):
        chunk = values[i:i + _CHUNK_VALUES]
        bound = isqrt(chunk[-1]) if limit is None else min(isqrt(chunk[-1]), limit)
        covered = limit is not None and limit <= min(bound, TRIAL_DIVISION_LIMIT)
        product = prod(chunk)
        if len(chunk) == 1:
            found, rest = _strip(product, _block_divisors(product, bound))
            primes.update(found)
            if not covered:
                primes.update(_split(rest))
            elif 1 < rest <= limit:  # a prime left by an early stop
                primes.add(rest)
            continue
        small = [p for _, divisors in _block_divisors(product, bound)
                 for p in divisors]
        primes.update(small)
        if covered:
            continue  # every prime factor of a remainder exceeds the limit
        strip = prod(small)
        for d in chunk:
            g = gcd(d, strip)
            while g > 1:
                d //= g
                g = gcd(d, g)
            primes.update(_split(d))
    return primes if limit is None else {p for p in primes if p <= limit}


def _factorizations(values) -> list[tuple[tuple[int, int], ...]]:
    """The prime factorizations of the positive integers `values`, in their
    order, each as ascending (prime, exponent) pairs, from one batch.

    `_prime_divisors` finds every prime that divides some value at once.
    Each value is then trial-divided by those primes alone, in blocks of
    _BLOCK_PRIMES with one gcd each, until the first prime of a block
    exceeds the square root of what is left; what is left is then 1 or a
    prime.  A cofactor that can be neither split nor certified raises the
    OverflowLimitError of `is_prime`.
    """
    for n in values:
        _check_width(n)
    primes = sorted(_prime_divisors(sorted(set(values)), None))
    table = primes, [prod(primes[i:i + _BLOCK_PRIMES])
                     for i in range(0, len(primes), _BLOCK_PRIMES)]
    out = []
    for n in values:
        found, n = _strip(n, _block_divisors(n, isqrt(n), table))
        if n > 1:
            found[n] = 1
        out.append(tuple(found.items()))
    return out


def euler_phi(n: int) -> int:
    """Euler's totient, via factorization.  Requires an integer n >= 1."""
    n = _subsets.check_bound(n, "n")
    out = 1
    for p, e in factor(n):
        out *= (p - 1) * p ** (e - 1)
    return out


def prime_blocks(lo: int, hi: int):
    """Yield numpy int64 arrays that together hold every prime in [lo, hi]
    (integers: a float bound raises TypeError).

    Segmented odd-only sieve, each segment marked by `_odd_mask` (numpy only
    reads the finished mask); working memory stays proportional to the
    segment size, so limits around 10^8 are routine.  Each segment's base
    primes come from the cached list `_small_primes`, which grows (at least
    twofold) with the segment, so huge ranges start at once.
    """
    import numpy as np

    lo, hi = max(index(lo), 2), index(hi)
    if lo <= 2 <= hi:
        yield np.array([2], dtype=np.int64)
    low = max(lo, 3) | 1  # odd
    span = 2 * _SEGMENT_ODDS
    while low <= hi:
        high = min(low + span, hi + 1)  # exclusive
        primes, _ = _small_primes(isqrt(high - 1))
        mask = _odd_mask(low, high, islice(primes, 1, None))  # drop 2
        idx = np.flatnonzero(np.frombuffer(mask, dtype=bool))
        if idx.size:
            yield low + 2 * idx
        low = high


def primes_in_range(lo: int, hi: int) -> np.ndarray:
    """All primes in [lo, hi], ascending, as an int64 array."""
    import numpy as np

    return np.concatenate([np.empty(0, dtype=np.int64), *prime_blocks(lo, hi)])


def _ring(k: int, p) -> _subsets.Ring:
    """The prime p as a modulus of the chain core, for kth powers."""
    k = _subsets.check_bound(k, "k")
    p = _as_prime(p)
    return _subsets.Ring(p, k, _subsets.residue_exponent(k, p), pow, 1, None,
                         "over the integers")


def is_kth_residue(a: int, k: int, p) -> bool:
    """True iff x^k = a (mod p) is solvable, p prime.

    0 counts as a residue (0 = 0^k).  For a nonzero mod p the Euler-style
    criterion applies with the exponent reduced by d = gcd(k, p-1):
    a is a kth residue iff a^((p-1)/d) = 1 (mod p).
    """
    ring = _ring(k, p)
    a = _check_width(index(a), "residue candidate")
    return ring.is_residue(a % ring.modulus)
