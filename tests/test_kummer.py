import random
from fractions import Fraction
from math import sqrt

import pytest

from powerchains.chains import subset_sums, vegh_sequence
from powerchains.kummer import (
    DensityReport,
    class_group,
    density_counts_in_range,
    density_report_from_counts,
    empirical_density,
    exponent_vector,
    predicted_density,
)


def subgroup_order_bfs(vectors, k):
    """Independent oracle: closure of the generated subgroup of (Z/k)^n."""
    if not vectors:
        return 1
    n = len(vectors[0])
    zero = (0,) * n
    seen = {zero}
    frontier = [zero]
    while frontier:
        nxt = []
        for v in frontier:
            for g in vectors:
                w = tuple((a + b) % k for a, b in zip(v, g))
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return len(seen)


def gf2_rank(rows):
    """Independent oracle for k = 2: rank of bitmask rows over GF(2)."""
    rank = 0
    basis = []
    for row in rows:
        for b in basis:
            row = min(row, row ^ b)
        if row:
            basis.append(row)
            rank += 1
    return rank


def squarefree_part(n):
    n = abs(n)
    out = 1
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e % 2:
            out *= d
        d += 1
    return out * n


# ---------- exponent vectors ----------

def test_exponent_vector_examples():
    assert exponent_vector(8, 3) == ()
    assert exponent_vector(12, 2) == ((3, 1),)
    assert exponent_vector(-1, 2) == ((-1, 1),)


def test_exponent_vector_sign_handling():
    # odd k: -1 = (-1)^k is itself a kth power, so the sign drops
    assert exponent_vector(-8, 3) == ()
    # even k: the sign has order 2, encoded as k/2 on the -1 coordinate
    assert exponent_vector(-2, 4) == ((-1, 2), (2, 1))
    assert exponent_vector(-1, 6) == ((-1, 3),)


def test_exponent_vector_validation():
    with pytest.raises(ValueError):
        exponent_vector(0, 2)
    with pytest.raises(ValueError):
        exponent_vector(5, 0)
    assert exponent_vector(123456, 1) == ()


# ---------- class group ----------

def test_class_group_vegh_example():
    # squarefree parts of 2,3,5,6,7 span a rank-4 space over GF(2)
    g = class_group(subset_sums([1, 2, 4]), 2)
    assert g.subgroup_order == 16
    assert g.positions == (2, 3, 5, 7)
    assert g.excluded_zeros == 0


def test_class_group_trivial_cases():
    assert class_group({1}, 5).subgroup_order == 1
    assert class_group({1, 2, 6, 30}, 1).subgroup_order == 1
    assert class_group({4, 9, 36}, 2).subgroup_order == 1


def test_class_group_excludes_zero():
    g = class_group(subset_sums([1, -1]), 2)
    assert g.excluded_zeros == 1
    assert g.subgroup_order == 2  # the class of -1


def test_class_group_matches_bfs_oracle_on_integers():
    rng = random.Random(2)
    for _ in range(40):
        k = rng.randrange(1, 7)
        gens = [rng.randrange(2, 51) * rng.choice((1, -1))
                for _ in range(rng.randrange(1, 5))]
        g = class_group(set(gens), k)
        index = {pos: i for i, pos in enumerate(g.positions)}
        vectors = []
        for ev in g.generators:
            row = [0] * len(g.positions)
            for pos, e in ev:
                row[index[pos]] = e
            vectors.append(tuple(row))
        assert g.subgroup_order == subgroup_order_bfs(vectors, k), (gens, k)
        # finite abelian group of exponent dividing k
        assert k ** len(g.positions) % g.subgroup_order == 0


def test_elimination_matches_bfs_on_raw_vectors():
    # independent of integer factorization: random mod-k matrices
    from powerchains.kummer import _subgroup_order
    rng = random.Random(3)
    for _ in range(80):
        k = rng.randrange(1, 17)
        n = rng.randrange(0, 5)
        vectors = [tuple(rng.randrange(0, k) for _ in range(n))
                   for _ in range(rng.randrange(0, 6))]
        expected = subgroup_order_bfs([v for v in vectors if n], k) if n else 1
        assert _subgroup_order([enumerate(v) for v in vectors], k) == expected, \
            (k, n, vectors)


def test_k2_order_is_two_to_the_squarefree_rank():
    rng = random.Random(5)
    sets = [{rng.randrange(1, 400) for _ in range(rng.randrange(1, 8))}
            for _ in range(40)]
    # 4,095 generators of rank 1,141, far past the breadth-first oracle
    sets.append(set(subset_sums(vegh_sequence(12, 3))))
    for E in sets:
        g = class_group(E, 2)
        # dedicated GF(2) route: indicator masks of the squarefree parts
        prime_slots: dict[int, int] = {}
        masks = []
        for c in sorted(E):
            sf = squarefree_part(c)
            mask = 0
            d = 2
            while d * d <= sf:
                if sf % d == 0:
                    sf //= d
                    mask ^= 1 << prime_slots.setdefault(d, len(prime_slots))
                else:
                    d += 1
            if sf > 1:
                mask ^= 1 << prime_slots.setdefault(sf, len(prime_slots))
            masks.append(mask)
        assert g.subgroup_order == 2 ** gf2_rank(masks), sorted(E)


def test_order_is_multiplicative_over_coprime_k():
    # G in Q*/(Q*)^ab splits as the product of its images mod ath and mod bth
    # powers when gcd(a, b) = 1, so the orders multiply
    rng = random.Random(13)
    cases = []
    for _ in range(40):
        a, b = rng.choice([(2, 3), (3, 4), (2, 5), (4, 9), (3, 5), (5, 8)])
        terms = [rng.randrange(1, 10**6) for _ in range(rng.randrange(1, 9))]
        cases.append((set(subset_sums(terms)), a, b))
    E = set(subset_sums(vegh_sequence(12, 3)))
    cases += [(E, 2, 3), (E, 4, 3)]
    for E, a, b in cases:
        assert class_group(E, a * b).subgroup_order == \
            class_group(E, a).subgroup_order * class_group(E, b).subgroup_order, \
            (sorted(E)[:8], a, b)


def test_order_invariant_under_kth_power_rescaling():
    # replacing a generator a by a * b^k does not move its class
    rng = random.Random(7)
    for _ in range(40):
        k = rng.randrange(2, 7)
        gens = [rng.randrange(2, 30) for _ in range(rng.randrange(1, 4))]
        i = rng.randrange(len(gens))
        b = rng.randrange(2, 6)
        replaced = set(gens[:i]) | set(gens[i + 1:]) | {gens[i] * b**k}
        assert class_group(replaced, k).subgroup_order == \
            class_group(set(gens), k).subgroup_order, (gens, i, b, k)


# ---------- predicted density ----------

def test_predicted_density_examples():
    assert predicted_density(subset_sums([1, 2, 4]), 2) == Fraction(1, 16)
    assert predicted_density({1}, 5) == Fraction(1, 4)
    assert predicted_density({3, 17, 29}, 1) == Fraction(1)


def test_predicted_density_bounds_and_characterization():
    rng = random.Random(11)
    for _ in range(40):
        k = rng.randrange(1, 7)
        E = {rng.randrange(1, 100) for _ in range(rng.randrange(1, 6))}
        d = predicted_density(E, k)
        assert 0 < d <= 1
        g = class_group(E, k)
        # d = 1 exactly when phi(k) = 1 (k <= 2) and the class group is trivial
        assert (d == 1) == (k in (1, 2) and g.subgroup_order == 1)
    assert predicted_density({4, 49}, 2) == 1
    assert predicted_density({8}, 3) == Fraction(1, 2)  # perfect cube, phi(3) = 2


def test_predicted_density_monotone_in_generators():
    rng = random.Random(13)
    for _ in range(40):
        k = rng.randrange(1, 7)
        E = {rng.randrange(1, 60) for _ in range(rng.randrange(1, 5))}
        extra = rng.randrange(1, 60)
        assert predicted_density(E | {extra}, k) <= predicted_density(E, k)


# ---------- empirical density ----------

def test_empirical_density_all_primes_qualify():
    report = empirical_density([1], 1, 100)
    assert report.total_primes == 25
    assert report.hits == 25
    assert report.empirical == 1
    assert report.predicted_lower_bound == 1
    assert report.exceptional_excluded == ()


def test_empirical_density_non_sum_distinct_never_hits():
    report = empirical_density([1, 2, 3], 2, 10**4)
    assert report.hits == 0
    assert report.total_primes == 1229
    assert report.empirical == 0


def test_empirical_density_minus_one_square():
    # -1 is a square mod p iff p = 1 (mod 4): density exactly 1/2
    report = empirical_density([1, -1], 2, 10**4)
    assert report.predicted_lower_bound == Fraction(1, 2)
    assert abs(report.empirical - Fraction(1, 2)) < Fraction(5, 100)
    assert report.exceptional_excluded == (2,)


def test_empirical_respects_predicted_lower_bound():
    # empirical >= predicted - 3 sigma (binomial standard error)
    for terms, k, limit in [([1, 2, 4], 2, 10**5), ([1, 3], 2, 10**4),
                            ([2], 3, 10**4), ([1, 2, 4], 3, 10**4)]:
        report = empirical_density(terms, k, limit)
        d = float(report.predicted_lower_bound)
        sigma = sqrt(d * (1 - d) / report.total_primes)
        assert float(report.empirical) >= d - 3 * sigma, (terms, k, limit)


def test_density_counts_partition_and_assembly():
    full = empirical_density([1, 2, 4], 2, 10**4)
    t1, h1 = density_counts_in_range([1, 2, 4], 2, 2, 4999)
    t2, h2 = density_counts_in_range([1, 2, 4], 2, 5000, 10**4)
    merged = density_report_from_counts([1, 2, 4], 2, 10**4, t1 + t2, h1 + h2)
    assert merged == full


def test_density_report_validation():
    with pytest.raises(ValueError):
        DensityReport(10, 5, 6, Fraction(6, 5), Fraction(1, 2), ())
    with pytest.raises(ValueError):
        empirical_density([1], 2, 1)
