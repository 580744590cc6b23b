"""The chain core behind the one set of public verifiers in `chains`, which
serves Z and F_p[t] alike.

Subset-sum machinery works on any sequence of addable, hashable elements.
Subsets are reported as tuples of 1-based term indices; enumeration follows
increasing bitmask order, which makes every witness reproducible.

The chain semantics (window, cyclic and permutation verdicts, the literal
all-orderings verifier, and the per-modulus test used by the searches) are
written once here over a `Ring`: the few facts about one modulus m of Z or
F_p[t] that differ between the two rings, built by `arith._ring` or
`ffield._ring` for the ring that `chains` picks.  Values are reduced with
`v % m`: an `int` by a prime, an `FFPoly` by a polynomial in the verifiers,
and a kernel coefficient tuple by an `ffield._Modulus` in the F_p[t] search.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, permutations
from math import gcd
from operator import index
from typing import Callable

from powerchains.errors import InvalidCandidateError, SizeLimitError

MAX_TERMS = 24  # E has up to 2^m - 1 elements
NAIVE_MAX_TERMS = 8  # the all-orderings verifier does m! work


def check_term_cap(n_terms: int) -> None:
    if n_terms > MAX_TERMS:
        raise SizeLimitError(
            f"sequence has {n_terms} terms, above the fixed subset-sum cap "
            f"of {MAX_TERMS} terms")


def check_k(k) -> int:
    """k as an int >= 1: TypeError for a non-integer (`operator.index`, so
    a float is refused, not truncated), ValueError below 1."""
    k = index(k)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return k


def mask_indices(mask: int) -> tuple[int, ...]:
    """1-based indices of the set bits of mask, ascending."""
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def subset_values(items) -> set:
    """The set of all nonempty subset sums, by incremental extension."""
    values: set = set()
    for x in items:
        values |= {s + x for s in values}
        values.add(x)
    return values


def first_sum_collision(items):
    """First pair of distinct subsets with equal sums, in mask order.

    Returns (indices_a, indices_b, value) or None when all 2^n - 1 nonempty
    subset sums are pairwise distinct.  The sum of each mask extends the sum
    of the mask without its lowest bit.
    """
    items = list(items)
    sums = [None] * (1 << len(items))
    seen: dict = {}
    for mask in range(1, len(sums)):
        low = mask & -mask
        rest = mask ^ low
        x = items[low.bit_length() - 1]
        sums[mask] = s = x if rest == 0 else sums[rest] + x
        if s in seen:
            return mask_indices(seen[s]), mask_indices(mask), s
        seen[s] = mask
    return None


@dataclass(frozen=True)
class SumDistinctResult:
    """Outcome of the candidate condition: truthy iff all nonempty subset
    sums are pairwise distinct; otherwise `collision` holds two 1-based index
    subsets with the same sum."""

    distinct: bool
    collision: tuple[tuple[int, ...], tuple[int, ...]] | None = None
    colliding_sum: object = None

    def __bool__(self):
        return self.distinct


def sum_distinct(terms) -> tuple[SumDistinctResult, frozenset]:
    """The candidate condition together with the subset-sum set E it builds.

    E is returned either way; it is deduplicated when the candidate is not
    sum-distinct.  The collision witness is the first in bitmask order.  The
    last result is kept, so the calls one job makes on the same terms build
    E once.
    """
    check_term_cap(len(terms))
    return _sum_distinct(tuple(terms))


@lru_cache(maxsize=1)
def _sum_distinct(terms: tuple) -> tuple[SumDistinctResult, frozenset]:
    values = frozenset(subset_values(terms))
    if len(values) == (1 << len(terms)) - 1:
        return SumDistinctResult(True), values
    a, b, s = first_sum_collision(terms)
    return SumDistinctResult(False, (a, b), s), values


def require_sum_distinct(terms, where: str = "") -> frozenset:
    """E for a sum-distinct candidate; InvalidCandidateError otherwise."""
    sd, values = sum_distinct(terms)
    if not sd:
        a, b = sd.collision
        raise InvalidCandidateError(
            f"candidate is not sum-distinct{where}: term subsets {list(a)} and "
            f"{list(b)} both sum to {sd.colliding_sum}")
    return values


@dataclass(frozen=True)
class ChainFailure:
    """First violated sum for a failed verdict level."""

    level: str  # "chain" | "cyclic" | "permutation"
    kind: str  # "non_residue" | "collision"
    values: tuple
    description: str


@dataclass(frozen=True)
class ChainVerdict:
    """Chain / cyclic-chain / permutation-chain verdict for one (r, k, modulus).

    is_permutation implies is_cyclic implies is_chain.
    """

    is_chain: bool
    is_cyclic: bool
    is_permutation: bool
    failure_witness: ChainFailure | None = None


def ordinal(k: int) -> str:
    if k % 100 in (11, 12, 13):
        return f"{k}th"
    suffix = {1: "st", 2: "nd", 3: "rd"}.get(k % 10, "th")
    return f"{k}{suffix}"


def residue_exponent(k: int, q: int) -> int | None:
    """The exponent e = (q-1)/gcd(k, q-1): a nonzero class a of a field of
    size q is a kth power iff a^e = 1.  None when every class is a kth power
    (gcd 1)."""
    g = gcd(k, q - 1)
    return None if g == 1 else (q - 1) // g


@dataclass(frozen=True)
class Ring:
    """One modulus m of Z or F_p[t], as the chain core sees it.

    `exponent` is residue_exponent(k', q) for the residue field of size q,
    where k' is the part of k that can change the residue test (k itself over
    Z, its prime-to-p part over F_p[t]); `k` is kept for messages.  `phrase`
    places the exact subset sums in their ring ("over the integers").
    """

    modulus: object
    k: int
    exponent: int | None
    power: Callable
    one: object
    sort_key: Callable | None
    phrase: str

    def is_residue(self, a) -> bool:
        """a, already reduced mod m, is a kth power residue (0, which is
        falsy in both rings, counts)."""
        return (self.exponent is None or not a or a == self.one
                or self.power(a, self.exponent, self.modulus) == self.one)


def window_failure(terms, ring: Ring, level: str,
                   prefix: str = "") -> ChainFailure | None:
    """First violated window sum of the given ordering, or None.

    Windows are scanned in (i, j) lexicographic order; each is checked for
    residueness first, then for collision with an earlier window.
    """
    m = ring.modulus
    seen: dict = {}
    for i in range(len(terms)):
        for s in accumulate(terms[i:]):
            a = s % m
            if not ring.is_residue(a):
                return ChainFailure(
                    level, "non_residue", (s,),
                    f"{prefix}window sum {s} is not a {ordinal(ring.k)} power "
                    f"residue mod {m}")
            if a in seen:
                desc = (f"{prefix}window sum {s} occurs twice mod {m}"
                        if seen[a] == s else
                        f"{prefix}window sums {seen[a]} and {s} are congruent mod {m}")
                return ChainFailure(level, "collision", (seen[a], s), desc)
            seen[a] = s
    return None


def cyclic_failure(terms, ring: Ring) -> ChainFailure | None:
    for i in range(len(terms)):
        rotated = terms[i:] + terms[:i]
        prefix = f"rotation starting at term {i + 1}: " if i else ""
        fail = window_failure(rotated, ring, "cyclic", prefix)
        if fail is not None:
            return fail
    return None


def modulus_defect(values, ring: Ring):
    """The per-modulus test: is E distinct mod m with every element a residue?

    `values` is E in sort-key order.  Returns None when both hold, else
    ("collision", (earlier, s)) for the first s congruent to an earlier value,
    or ("non_residue", (s,)) for the first non-residue; collisions are looked
    for first.
    """
    m = ring.modulus
    reduced: dict = {}
    for s in values:
        a = s % m
        if a in reduced:
            return "collision", (reduced[a], s)
        reduced[a] = s
    if ring.exponent is not None:
        for a, s in reduced.items():
            if not ring.is_residue(a):
                return "non_residue", (s,)
    return None


def permutation_failure(terms, ring: Ring) -> ChainFailure | None:
    sd, values = sum_distinct(terms)
    if not sd:
        a, b = sd.collision
        return ChainFailure(
            "permutation", "collision", (sd.colliding_sum, sd.colliding_sum),
            f"subset sums collide {ring.phrase}: term subsets {list(a)} and "
            f"{list(b)} both sum to {sd.colliding_sum}")
    defect = modulus_defect(sorted(values, key=ring.sort_key), ring)
    if defect is None:
        return None
    kind, found = defect
    if kind == "collision":
        desc = f"subset sums {found[0]} and {found[1]} are congruent mod {ring.modulus}"
    else:
        desc = (f"subset sum {found[0]} is not a {ordinal(ring.k)} power "
                f"residue mod {ring.modulus}")
    return ChainFailure("permutation", kind, found, desc)


def verdict(terms, ring: Ring) -> ChainVerdict:
    """Full verdict; failure_witness describes the first violated sum of the
    weakest failing level."""
    check_term_cap(len(terms))
    chain_fail = window_failure(terms, ring, "chain")
    cyclic_fail = chain_fail if chain_fail is not None else cyclic_failure(terms, ring)
    perm_fail = (cyclic_fail if cyclic_fail is not None
                 else permutation_failure(terms, ring))
    return ChainVerdict(
        is_chain=chain_fail is None,
        is_cyclic=cyclic_fail is None,
        is_permutation=perm_fail is None,
        failure_witness=perm_fail,
    )


def naive_permutation_chain(terms, ring: Ring) -> bool:
    """Literal definition: every ordering of terms is a chain.  m! work."""
    if len(terms) > NAIVE_MAX_TERMS:
        raise ValueError(f"naive verifier capped at m <= {NAIVE_MAX_TERMS}")
    return all(window_failure(perm, ring, "chain") is None
               for perm in permutations(terms))
