"""Chains over Z and F_p[t]: one set of public verifiers for both rings, and
over the integers the exceptional primes and the prime scan.  A verifier
takes the modulus p as a prime of the candidate's ring, a prime int or an
irreducible `FFPoly`; `_candidate` picks the ring, and the chain logic is the
ring-generic core in `_subsets`.

A sequence r_1..r_m is a *chain* of kth power residues mod p when its
m(m+1)/2 consecutive-window sums are pairwise distinct mod p and every one of
them is a kth power residue mod p.  It is a *cyclic chain* when every rotation
is a chain, and a *permutation chain* when every reordering is.

The permutation-chain test does not iterate the m! orderings.  Every window of
every ordering is a nonempty subset of the terms, and conversely any two
distinct subsets can be realized as two windows of a single ordering, so the
sequence is a permutation chain iff

  1. all 2^m - 1 nonempty subset sums are pairwise distinct over Z
     (the candidate condition -- an integer collision persists mod every p),
  2. the subset-sum set E is pairwise distinct mod p, and
  3. every element of E is a kth power residue mod p.

That identity is load-bearing and is enforced by exhaustive test against the
all-permutations definition, never assumed silently.

The prime scan behind find_chain_primes, chain_primes_in_range and
density_counts_in_range builds E once and tests the primes in the cheap
order: p < |E| is skipped (by pigeonhole E cannot be distinct mod p), then
condition 3 is tested element by element, and condition 2 only for the
primes that pass it and lie at or below max(E) - min(E) (above that it holds
automatically).

Condition 3 runs on numpy slices of at most 2^15 primes from the sieve, in
one filter: g = gcd(k, p - 1) per prime (g = 1 passes outright), then for
one element c of E at a time, (c mod p)^((p-1)/g) mod p over the primes
still alive, which shrink after every element.  The arithmetic is picked
from p alone: int64 square-and-multiply whenever p < 2^31 (so products of
residues stay below 2^62), with k reduced mod p - 1 and the elements of E
mod p by `_mod`, which reduces a value beyond +/-2^62 as a Python int
before it is cast back to int64; otherwise the same loop runs over object
arrays with Python's pow.

Condition 2 runs on the survivors at or below the spread, in batches of at
most 2^15 cells (primes x 2^m).  The terms are reduced mod each prime (a
term beyond +/-2^62 as a Python int), and the subset sums are doubled term
by term into a uint64 array, each new sum s brought below p by one
conditional subtraction, min(s, s - p) in wrapping uint64 arithmetic; both
summands lie below p < 2^63, so this is exact.  Each row, without the empty
sum, is sorted, and a row with two equal neighbours is a collision.  On a
sum-distinct candidate those 2^m - 1 sums are E itself.
"""

from __future__ import annotations

import sys
from itertools import islice
from operator import index

from powerchains import _subsets, arith
from powerchains._subsets import ChainFailure, ChainVerdict, SumDistinctResult
from powerchains.errors import OverflowLimitError

__all__ = [
    "SumDistinctResult",
    "ChainFailure",
    "ChainVerdict",
    "subset_sums",
    "is_sum_distinct",
    "is_chain",
    "is_cyclic_chain",
    "is_permutation_chain",
    "naive_permutation_chain",
    "exceptional_primes",
    "find_chain_primes",
    "chain_primes_in_range",
    "vegh_sequence",
]


def _terms(r) -> tuple[int, ...]:
    """The candidate r_1..r_m, m >= 1, as a tuple of ints.

    Each term must be an integer (`operator.index`: a float or a string
    raises TypeError), and the terms and all their subset sums must fit in
    the 128-bit width, which bounding sum(|r_i|) guarantees.
    """
    terms = tuple(map(index, r))
    if not terms:
        raise ValueError("candidate sequence must have at least one term")
    if sum(map(abs, terms)) > arith.MAX_VALUE:
        raise OverflowLimitError(
            "candidate terms overflow the 128-bit width once summed")
    return terms


def _candidate(r, p=None):
    """The terms of r and the chain core's ring for them: F_p[t] when the
    modulus p or the first term is an `FFPoly` (`ffield._ff_terms`,
    `ffield._ring`), Z otherwise (`_terms`, `arith._ring`).  The ring is
    called as ring(k, p), so the terms are checked first, then k, then p.
    An `FFPoly` exists only once `ffield` is loaded, so a Z run never loads
    it."""
    r = tuple(r)
    ffield = sys.modules.get("powerchains.ffield")
    if ffield is not None and (isinstance(p, ffield.FFPoly)
                               or r and isinstance(r[0], ffield.FFPoly)):
        return ffield._ff_terms(r), ffield._ring
    return _terms(r), arith._ring


def subset_sums(r) -> frozenset:
    """The set E of all nonempty subset sums of r, computed in O(2^m).

    E equals the set of window sums taken over every reordering of r; see
    the module docstring.  It has 2^m - 1 elements exactly when r is
    sum-distinct.  The frozenset is the one the chain core keeps for the
    last candidate, shared because it cannot change.  Sequences of more than
    24 terms (the fixed subset-sum cap) raise SizeLimitError.
    """
    return _subsets.sum_distinct(_candidate(r)[0])[1]


def is_sum_distinct(r) -> SumDistinctResult:
    """Check the candidate condition: 2^m - 1 pairwise-distinct subset sums
    (over F_p[t], distinct as polynomials).

    Equivalent to requiring the m(m+1)/2 window sums of every reordering to be
    distinct.  The witness, when present, is the first collision in bitmask
    order.
    """
    return _subsets.sum_distinct(_candidate(r)[0])[0]


def is_chain(r, k: int, p) -> bool:
    """True iff the window sums of r (in the given order) are pairwise
    distinct mod p and all kth power residues mod p."""
    terms, ring = _candidate(r, p)
    return _subsets.window_failure(terms, ring(k, p), "chain") is None


def is_cyclic_chain(r, k: int, p) -> bool:
    """True iff every rotation of r is a chain of kth power residues mod p."""
    terms, ring = _candidate(r, p)
    return _subsets.cyclic_failure(terms, ring(k, p)) is None


def is_permutation_chain(r, k: int, p) -> ChainVerdict:
    """Full verdict for r mod p: chain, cyclic chain, permutation chain.

    The permutation level is decided over the subset-sum set E in O(2^m)
    rather than over the m! orderings; `naive_permutation_chain` is the
    literal all-orderings check.

    failure_witness describes the first violated sum of the weakest failing
    level.
    """
    terms, ring = _candidate(r, p)
    return _subsets.verdict(terms, ring(k, p))


def naive_permutation_chain(r, k: int, p) -> bool:
    """Literal definition: every ordering of r is a chain mod p.  m! work;
    reference implementation for tests, m <= 8."""
    terms, ring = _candidate(r, p)
    return _subsets.naive_permutation_chain(terms, ring(k, p))


def _differences(terms) -> list[int]:
    """The differences of two elements of E, ascending.

    They are the values |sum eps_i r_i| for eps in {-1, 0, 1}^m other than
    eps = 0, taken once per pair +/-eps: the sums whose last nonzero eps_i
    is +1, (3^m - 1)/2 of them.  eps = (1, ..., 1), the full sum, is a
    difference only if some other eps gives the same value.  Requires a
    sum-distinct candidate, on which no other eps gives 0.
    """
    signed, leading = [0], []  # all signed sums of the terms so far; the +1-led ones
    for r in terms[:-1]:
        plus = [v + r for v in signed]
        leading += plus
        signed += plus + [v - r for v in signed]
    leading += [v + terms[-1] for v in signed]
    diffs = {abs(v) for v in leading}
    full = sum(terms)  # from eps = (1, ..., 1); 0 is never a difference
    if full == 0 or leading.count(full) + leading.count(-full) == 1:
        diffs.discard(abs(full))
    return sorted(diffs)


def exceptional_primes(r, *, limit: int | None = None) -> tuple[int, ...]:
    """The primes dividing some difference of two distinct subset sums,
    ascending; with `limit`, only those primes at most the limit.  Only at
    these primes can elements of E collide mod p.

    Requires a sum-distinct candidate (otherwise a difference is 0 and the
    set is ill-defined).  The (3^m - 1)/2 signed sums stand in for the
    |E|^2/2 pairs, and one batch trial division serves all of them.  A limit
    up to 10^6 settles every prime by trial division, with no Pollard rho.
    """
    terms = _terms(r)
    _subsets.require_sum_distinct(terms)
    limit = None if limit is None else index(limit)
    primes = arith._prime_divisors(_differences(terms), limit)
    return tuple(sorted(primes))


_SLICE = 1 << 15          # primes per residue-filter slice; bounds its temporaries
_INT64_PRIMES = 1 << 31   # below this, a product of two residues fits in int64
_INT64_VALUES = 1 << 62   # elements of E within +/- this reduce exactly in int64


def _powmod64(a, e, p):
    """a^e mod p elementwise over int64 arrays with every p < 2^31, by
    square-and-multiply: a < p, so a * a < 2^62."""
    import numpy as np

    acc = np.ones_like(p)
    while True:
        acc = acc * ((e & 1) * (a - 1) + 1) % p
        e = e >> 1
        if not e.any():
            return acc
        a = a * a % p


def _mod(c: int, p):
    """c mod each entry of the positive array p (primes, or primes - 1), in
    p's dtype.  Over int64, a c beyond +/-2^62 is reduced as a Python int
    and cast back, so no operand ever leaves the int64 range, whatever
    NumPy's promotion rules."""
    if p.dtype == object or -_INT64_VALUES <= c <= _INT64_VALUES:
        return c % p
    return (c % p.astype(object)).astype(p.dtype)


def _residue_survivors(values, k: int, primes):
    """The int64 array of the primes of the int64 array `primes` at which
    every element of the sorted subset-sum set `values` is a kth power
    residue.  Elements 0 and 1 are residues mod every prime and cost
    nothing.

    The arithmetic is int64 for the primes below 2^31, whatever k; k and
    the elements of E reach the int64 arrays through `_mod`.  The other
    primes run the same loop over object arrays, with Python's pow.
    """
    import numpy as np

    cut = int(primes.searchsorted(_INT64_PRIMES))
    if 0 < cut < len(primes):  # a slice across 2^31: each side by its rule
        return np.concatenate((_residue_survivors(values, k, primes[:cut]),
                               _residue_survivors(values, k, primes[cut:])))
    if cut:  # every prime below 2^31
        q, power = primes, _powmod64
    else:
        q, power = primes.astype(object), np.frompyfunc(pow, 3, 1)
    g = np.gcd(q - 1, _mod(k, q - 1))  # gcd(p - 1, k), with k of any size
    alive = np.flatnonzero(g > 1)  # g = 1: every element is a residue
    p = q[alive]
    e = (p - 1) // g[alive]
    for c in values:
        if not p.size:
            break
        if 0 <= c <= 1:
            continue
        a = _mod(c, p)
        keep = (a <= 1) | (power(a, e, p) == 1)
        alive, p, e = alive[keep], p[keep], e[keep]
    passed = g == 1
    passed[alive] = True
    return primes[passed]


def _sums_distinct(terms, primes):
    """A bool array: whether the 2^m - 1 nonempty subset sums of `terms`
    are pairwise distinct mod each prime of the int64 array `primes`, at
    most 2^15 cells' worth (primes x 2^m, or one prime).

    The sums are doubled term by term into a uint64 array; each new sum s
    is below 2p < 2^64, and min(s, s - p) subtracts p exactly when s >= p
    (below p, s - p wraps past 2^64), so every p < 2^63 is exact.  Column
    0, the empty sum, is left out of the sort that brings equal sums side by
    side.
    """
    import numpy as np

    q = primes.astype(np.uint64)[:, None]
    sums = np.zeros((len(primes), 1 << len(terms)), dtype=np.uint64)
    for j, t in enumerate(terms):
        a = _mod(t, primes)
        new = sums[:, 1 << j:2 << j]
        np.add(sums[:, :1 << j], a.astype(np.uint64)[:, None], out=new)
        np.minimum(new, new - q, out=new)
    rows = sums[:, 1:]
    rows.sort(axis=1)
    return (rows[:, 1:] != rows[:, :-1]).all(axis=1)


def _block_hits(terms, values, k: int, primes, spread: int) -> list[int]:
    """The permutation-chain primes among `primes`, an int64 array of
    primes >= |E| of a sum-distinct candidate, as a list: the residue filter
    runs on slices of at most 2^15 primes, and its survivors at or below the
    spread reach the distinctness check in batches of at most 2^15 cells."""
    import numpy as np

    hits = np.concatenate([primes[:0]] + [
        _residue_survivors(values, k, primes[i:i + _SLICE])
        for i in range(0, len(primes), _SLICE)])
    keep = np.ones(len(hits), dtype=bool)  # above the spread E stays distinct
    cut = int(hits.searchsorted(spread, "right"))
    rows = max(1, _SLICE >> len(terms))
    for i in range(0, cut, rows):
        j = min(i + rows, cut)
        keep[i:j] = _sums_distinct(terms, hits[i:j])
    return hits[keep].tolist()


def _scan(r, k: int, lo: int, hi: int, *, sweep: bool = False):
    """(number of primes, permutation-chain primes) for each prime block of
    [lo, hi], with E built once.

    A candidate that is not sum-distinct admits no permutation-chain prime
    at all: its blocks are swept, with no hits, only when `sweep` is set (to
    count the primes); otherwise nothing is yielded and nothing is sieved.
    """
    terms = _terms(r)
    k = _subsets.check_bound(k, "k")
    lo, hi = index(lo), index(hi)  # before any return: a float bound is refused
    sd, values = _subsets.sum_distinct(terms)
    if not sd and not sweep:
        return
    values = sorted(values)
    # the spread is capped at the int64 maximum, which no sieved prime exceeds
    n, spread = len(values), min(values[-1] - values[0], 2**63 - 1)
    for block in arith.prime_blocks(lo, hi):
        live = block[block >= n] if sd else block[:0]  # p < |E|: pigeonhole
        yield len(block), _block_hits(terms, values, k, live, spread)


def chain_primes_in_range(r, k: int, lo: int, hi: int) -> list[int]:
    """Primes p in [lo, hi] for which r is a permutation chain mod p.

    Range-partitioned building block: concatenating the results of a
    partition of [2, limit] reproduces find_chain_primes(r, k, limit).
    """
    return [p for _, hits in _scan(r, k, lo, hi) for p in hits]


def find_chain_primes(r, k: int, limit: int, max_count: int | None = None) -> list[int]:
    """All primes p <= limit (or just the first max_count of them) realizing
    r as a permutation chain of kth power residues.

    Exact by construction: every prime up to the limit is tested, including
    the exceptional ones, which are always misses (a residue test may reject
    one before its mod-p collision is looked for; see the module docstring
    for the order of the tests).  A candidate that is not sum-distinct admits
    no permutation-chain prime at all, so the result is then [] without any
    scan.
    """
    limit = index(limit)
    if max_count is not None:
        max_count = _subsets.check_bound(max_count, "max_count")
    # islice stops pulling blocks once it holds max_count primes
    return list(islice((p for _, hits in _scan(r, k, 2, limit) for p in hits),
                       max_count))


def vegh_sequence(m: int, base: int) -> tuple[int, ...]:
    """The geometric candidate 1, base, base^2, ..., base^(m-1) (Vegh's
    construction).  Always sum-distinct: subset sums are numbers with 0/1
    digits in base `base`, which are pairwise distinct for base >= 2.
    Building stops at the first term past the 128-bit width, which the
    candidate check then refuses, so a huge m costs no huge powers.  A
    non-integer m or base raises TypeError."""
    m, base = index(m), index(base)  # a non-integer raises before a bound
    m, base = _subsets.check_bound(m, "m"), _subsets.check_bound(base, "base", 2)
    terms = [1]
    while len(terms) < m and terms[-1] <= arith.MAX_VALUE:
        terms.append(terms[-1] * base)
    return _terms(terms)
