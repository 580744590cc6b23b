"""Density prediction and measurement for permutation-chain primes.

An integer a is a kth power residue at every prime that splits completely in
the field obtained by adjoining a primitive kth root of unity and the kth
roots of the subset-sum set E.  The degree of that field is at most
phi(k) * |G| where G is the subgroup of Q*/(Q*)^k generated by E, so by the
Chebotarev density theorem the primes realizing a sum-distinct candidate as a
permutation chain have Dirichlet density at least

    1 / (phi(k) * |G|).

G is an abelian group of exponent dividing k; each generator is recorded as a
vector of exponents mod k, indexed by the primes appearing in its
factorization plus a sign coordinate (-1 has order 2 in Q*/(Q*)^k for even k,
encoded as the value k/2 so that plain mod-k addition is the group law).
|G| comes from one row-echelon pass over Z on these sparse vectors, with
kZ^n kept implicit and every entry off the pivot reduced mod k; each pivot
d divides k and contributes k/d, for prime and composite k alike.

For k = 2 the bound is exact: a is a square mod p iff p splits in Q(sqrt a),
so chain primes for k = 2 are exactly the split-completely primes outside the
finite exceptional set.  For k > 2 classes may collapse over the cyclotomic
field, which is why the predicted value is reported as a lower bound.

The exceptional set is the primes dividing a difference of two elements of
E, where E can collide mod p.  A density report lists only those up to its
limit, and asks `chains.exceptional_primes` for just those: up to 10^6 they
come from trial division alone, with no Pollard rho.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import index

from powerchains import _subsets, arith, chains

__all__ = [
    "KummerClassGroup",
    "DensityReport",
    "exponent_vector",
    "class_group",
    "predicted_density",
    "empirical_density",
    "density_counts_in_range",
    "density_report_from_counts",
]


def exponent_vector(a: int, k: int) -> tuple[tuple[int, int], ...]:
    """Class of a nonzero rational a in Q*/(Q*)^k, as sparse exponents mod k.

    The (position, exponent) pairs are ascending by position: -1 for the
    sign, primes otherwise, with zero exponents omitted, so () is the
    trivial class.  The factorization exponents are reduced mod k; for even
    k a negative sign contributes k/2 on the -1 coordinate (so that twice
    the sign coordinate vanishes), while for odd k the sign is itself a kth
    power and drops out.
    """
    if a == 0:
        raise ValueError("0 has no class modulo kth powers")
    _subsets.check_k(k)
    if k == 1:
        return ()
    coords = []
    if a < 0 and k % 2 == 0:
        coords.append((-1, k // 2))
    f = arith.factor(a)
    for p, e in f.factors:
        if e % k:
            coords.append((p, e % k))
    return tuple(coords)


def _subgroup_order(rows, k: int) -> int:
    """Order of the subgroup of (Z/k)^n generated by sparse rows of
    (position, exponent) pairs.

    The subgroup is L/kZ^n for the lattice L spanned over Z by the lifted rows
    and kZ^n, so its order is the product of k/d over the diagonal entries d
    of a row-echelon basis of L.  Each row is reduced against the pivots in
    position order.  The row k*e_j stands in as the pivot at j until a row
    first leads there.  Entries at the pivot position go through Euclid's
    algorithm on whole rows, which swaps the rows on a nonzero remainder, and
    every other entry is reduced mod k.  Each pivot therefore divides k, for
    any k.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        r = {pos: e % k for pos, e in row if e % k}
        while r:
            j = min(r)
            piv = pivots.get(j, {j: k})
            q = r[j] // piv[j]
            r = {pos: v for pos in r.keys() | piv.keys()
                 if (v := (r.get(pos, 0) - q * piv.get(pos, 0)) % k)}
            if j in r:
                pivots[j], r = r, piv
    order = 1
    for j, piv in pivots.items():
        order *= k // piv[j]
    return order


@dataclass(frozen=True)
class KummerClassGroup:
    """Subgroup of Q*/(Q*)^k generated by the nonzero elements of E; each
    generator is its `exponent_vector`."""

    k: int
    generators: tuple[tuple[tuple[int, int], ...], ...]
    positions: tuple[int, ...]
    subgroup_order: int
    excluded_zeros: int = 0


def class_group(E, k: int) -> KummerClassGroup:
    """Class group data for a subset-sum set (or any iterable of integers).

    The generators are the exponent vectors of the nonzero elements, in
    ascending order of the element.  Zero elements generate nothing (0 is a
    residue at every prime) and are excluded but counted.  The order is
    computed by one gcd elimination over the lifted integer matrix: the
    sparse exponent vectors are reduced mod k against pivots that each
    divide k, so composite k needs no split into prime powers.
    """
    _subsets.check_k(k)
    elements = sorted(set(map(index, E)))
    gens = tuple(exponent_vector(c, k) for c in elements if c)
    positions = tuple(sorted({pos for g in gens for pos, _ in g}))
    order = _subgroup_order(gens, k)
    zeros = len(elements) - len(gens)
    return KummerClassGroup(k, gens, positions, order, zeros)


def predicted_density(E, k: int) -> Fraction:
    """Lower bound for the Dirichlet density of primes at which every element
    of E is a kth power residue: 1 / (phi(k) * subgroup order).

    Exact for k = 2 (split-completely density of the multiquadratic field);
    a lower bound for k > 2, where classes may collapse over the kth
    cyclotomic field.
    """
    g = class_group(E, k)
    return Fraction(1, arith.euler_phi(k) * g.subgroup_order)


@dataclass(frozen=True)
class DensityReport:
    """Empirical count of permutation-chain primes against the predicted
    Chebotarev lower bound."""

    limit: int
    total_primes: int
    hits: int
    empirical: Fraction
    predicted_lower_bound: Fraction
    exceptional_excluded: tuple[int, ...]

    def __post_init__(self):
        if not 0 <= self.hits <= self.total_primes:
            raise ValueError("hits must lie in [0, total_primes]")
        if not 0 < self.predicted_lower_bound <= 1:
            raise ValueError("predicted density must lie in (0, 1]")


def density_counts_in_range(r, k: int, lo: int, hi: int) -> tuple[int, int]:
    """(primes tested, permutation-chain hits) over primes in [lo, hi].

    Range-partitioned building block: summing the pairs over a partition of
    [2, limit] reproduces the counts of empirical_density.
    """
    total = hits = 0
    for n, block_hits in chains._scan(r, k, lo, hi, sweep=True):
        total += n
        hits += len(block_hits)
    return total, hits


def density_report_from_counts(r, k: int, limit: int, total: int,
                               hits: int) -> DensityReport:
    """Assemble a DensityReport from externally accumulated counts over the
    primes in [2, limit].  Its exceptional primes are those up to the limit,
    from `chains.exceptional_primes(r, limit=limit)`."""
    if limit < 2:
        raise ValueError(f"limit must be >= 2, got {limit}")
    terms = chains._terms(r)
    sd, values = _subsets.sum_distinct(terms)
    predicted = predicted_density(values, k)
    if sd:
        exceptional = tuple(chains.exceptional_primes(terms, limit=limit))
    else:
        exceptional = ()
    empirical = Fraction(hits, total) if total else Fraction(0)
    return DensityReport(limit, total, hits, empirical, predicted, exceptional)


def empirical_density(r, k: int, limit: int) -> DensityReport:
    """Sweep all primes p <= limit, counting those that realize r as a
    permutation chain of kth power residues.

    Exceptional primes (where subset sums collide mod p) are swept like any
    other prime -- they always miss -- and are listed separately in the
    report.  For a candidate that is not sum-distinct, hits is identically 0
    and the predicted bound describes only the residue condition on the
    deduplicated subset-sum set, which no longer implies a chain.
    """
    total, hits = density_counts_in_range(r, k, 2, limit)
    return density_report_from_counts(r, k, limit, total, hits)
