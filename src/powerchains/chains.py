"""Chains over the integers: candidates, the verifiers, exceptional primes
and the prime scan.  The verifiers are thin wrappers over the ring-generic
chain core in `_subsets`, which F_p[t] shares.

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
density_counts_in_range builds E once and tests each prime p in the cheap
order: p < |E| is skipped (by pigeonhole E cannot be distinct mod p), then
condition 3 is tested element by element up to the first non-residue, and
condition 2 only for the primes that pass it and lie at or below
max(E) - min(E) (above that it holds automatically).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from math import gcd

from powerchains import _subsets, arith
from powerchains._subsets import ChainFailure, ChainVerdict, SumDistinctResult, SumSet
from powerchains.errors import OverflowLimitError

__all__ = [
    "CandidateSequence",
    "SumSet",
    "SumDistinctResult",
    "ExceptionalPrimeSet",
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


@dataclass(frozen=True)
class CandidateSequence:
    """An ordered candidate r_1..r_m of integers, m >= 1.

    Terms and all their subset sums must fit in the 128-bit width, which the
    constructor guarantees by bounding sum(|r_i|).
    """

    terms: tuple[int, ...]

    def __post_init__(self):
        terms = tuple(int(t) for t in self.terms)
        object.__setattr__(self, "terms", terms)
        if not terms:
            raise ValueError("candidate sequence must have at least one term")
        if sum(abs(t) for t in terms) > arith.MAX_VALUE:
            raise OverflowLimitError(
                "candidate terms overflow the 128-bit width once summed")

    def __len__(self):
        return len(self.terms)

    def __iter__(self):
        return iter(self.terms)

    def __getitem__(self, i):
        return self.terms[i]


def _terms(r) -> tuple[int, ...]:
    if isinstance(r, CandidateSequence):
        return r.terms
    return CandidateSequence(tuple(r)).terms


def _ring(k: int, p) -> _subsets.Ring:
    _subsets.check_k(k)
    p = arith._as_prime(p)
    return _subsets.Ring(p, k, _subsets.residue_exponent(k, p), pow, 1, None,
                         "over the integers")


def subset_sums(r, *, with_witnesses: bool = False) -> SumSet:
    """All 2^m - 1 nonempty subset sums of r, computed in O(2^m).

    This set equals the set of window sums taken over every reordering of r;
    see the module docstring.  Sequences of more than 24 terms (the fixed
    subset-sum cap) raise SizeLimitError.
    """
    return _subsets.sum_set(_terms(r), with_witnesses)


def is_sum_distinct(r) -> SumDistinctResult:
    """Check the candidate condition: 2^m - 1 pairwise-distinct subset sums.

    Equivalent to requiring the m(m+1)/2 window sums of every reordering to be
    distinct.  The witness, when present, is the first collision in bitmask
    order.
    """
    return _subsets.sum_distinct(_terms(r))[0]


def is_chain(r, k: int, p) -> bool:
    """True iff the window sums of r (in the given order) are pairwise
    distinct mod p and all kth power residues mod p."""
    terms = _terms(r)
    return _subsets.window_failure(terms, _ring(k, p), "chain") is None


def is_cyclic_chain(r, k: int, p) -> bool:
    """True iff every rotation of r is a chain of kth power residues mod p."""
    terms = _terms(r)
    return _subsets.cyclic_failure(terms, _ring(k, p)) is None


def is_permutation_chain(r, k: int, p, *, debug: bool = False) -> ChainVerdict:
    """Full verdict for r mod p: chain, cyclic chain, permutation chain.

    The permutation level is decided over the subset-sum set E in O(2^m)
    rather than over the m! orderings.  With debug=True the result is
    cross-checked against the literal all-permutations verifier (m <= 6 only).

    failure_witness describes the first violated sum of the weakest failing
    level.
    """
    terms = _terms(r)
    return _subsets.verdict(terms, _ring(k, p), debug)


def naive_permutation_chain(r, k: int, p) -> bool:
    """Literal definition: every ordering of r is a chain mod p.  m! work;
    reference implementation for tests and debug cross-checks, m <= 8."""
    terms = _terms(r)
    return _subsets.naive_permutation_chain(terms, _ring(k, p))


@dataclass(frozen=True)
class ExceptionalPrimeSet:
    """Primes dividing some difference of two distinct subset sums; only at
    these primes can elements of E collide mod p."""

    primes: tuple[int, ...]

    def __contains__(self, p):
        return p in self.primes

    def __iter__(self):
        return iter(self.primes)

    def __len__(self):
        return len(self.primes)


def exceptional_primes(r) -> ExceptionalPrimeSet:
    """Union of the prime factors of all pairwise differences of subset sums.

    Requires a sum-distinct candidate (otherwise a difference is 0 and the
    set is ill-defined).  Quadratic in |E|, intended for small m.
    """
    values = sorted(_subsets.require_sum_distinct(_terms(r)))
    diffs = {values[j] - values[i]
             for i in range(len(values)) for j in range(i + 1, len(values))}
    primes: set[int] = set()
    for d in diffs:
        primes.update(p for p, _ in arith.factor(d).factors)
    return ExceptionalPrimeSet(tuple(sorted(primes)))


def _block_hits(values, spread, k, block) -> list[int]:
    """Primes p in `block` for which E is distinct mod p and all residues.

    `values` is the sorted subset-sum set E of a sum-distinct candidate and
    `spread` = max - min.  The order is the cheap one: p < |E| is skipped by
    pigeonhole, residues are tested up to the first non-residue, and only
    the primes that pass with p <= spread have their distinctness checked.
    """
    hits = []
    n = len(values)
    for p in block:
        if p < n:
            continue
        g = gcd(k, p - 1)
        if g > 1:
            e = (p - 1) // g
            ok = True
            for c in values:
                a = c % p
                if a > 1 and pow(a, e, p) != 1:
                    ok = False
                    break
            if not ok:
                continue
        if p > spread or len({c % p for c in values}) == n:
            hits.append(p)
    return hits


def _scan(r, k: int, lo: int, hi: int, *, sweep: bool = False):
    """(number of primes, permutation-chain primes) for each prime block of
    [lo, hi], with E built once.

    A candidate that is not sum-distinct admits no permutation-chain prime
    at all: its blocks are swept, with no hits, only when `sweep` is set (to
    count the primes); otherwise nothing is yielded and nothing is sieved.
    """
    terms = _terms(r)
    _subsets.check_k(k)
    sd, values = _subsets.sum_distinct(terms)
    if not sd and not sweep:
        return
    values = sorted(values)
    spread = values[-1] - values[0]
    for block in arith.prime_blocks(lo, hi):
        yield len(block), _block_hits(values, spread, k, block.tolist()) if sd else []


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
    if max_count is not None and max_count < 1:
        raise ValueError(f"max_count must be >= 1, got {max_count}")
    # islice stops pulling blocks once it holds max_count primes
    return list(islice((p for _, hits in _scan(r, k, 2, limit) for p in hits),
                       max_count))


def vegh_sequence(m: int, base: int) -> CandidateSequence:
    """The geometric candidate 1, base, base^2, ..., base^(m-1) (Vegh's
    construction).  Always sum-distinct: subset sums are numbers with 0/1
    digits in base `base`, which are pairwise distinct for base >= 2."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if base < 2:
        raise ValueError(f"base must be >= 2, got {base}")
    return CandidateSequence(tuple(base**i for i in range(m)))
