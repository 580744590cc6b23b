import random
from fractions import Fraction
from math import gcd, sqrt

import pytest

from powerchains import arith
from powerchains.arith import factor
from powerchains.chains import subset_sums, vegh_sequence
from powerchains.errors import OverflowLimitError
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
    """Independent oracle for k = 2: rank of bitmask rows over GF(2), each
    row XOR-reduced by the basis row that shares its top bit."""
    basis = {}
    for row in rows:
        while row:
            top = row.bit_length()
            if top not in basis:
                basis[top] = row
                break
            row ^= basis[top]
    return len(basis)


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


def test_exponent_vector_of_a_prime_power_stops_trial_division_early(monkeypatch):
    # once the known prime is divided out nothing is left, so the blocks of
    # primes up to sqrt(a) stop at the next one: a few gcds, not the 600-odd
    # blocks up to 10^6
    calls = []

    def counting_gcd(*args):
        calls.append(args)
        return gcd(*args)

    monkeypatch.setattr(arith, "gcd", counting_gcd)
    for a, want in ((2**60, ()), (3**37, ((3, 1),))):
        calls.clear()
        assert exponent_vector(a, 2) == want
        assert len(calls) <= 8, a


# ---------- class group ----------

def exponent_rows(E, k):
    """The generators of G: the exponent vectors of the nonzero elements of
    E in ascending order, each factored alone, and the positions they use."""
    rows = [exponent_vector(c, k) for c in sorted(E) if c]
    return rows, sorted({pos for row in rows for pos, _ in row})


def test_class_group_vegh_example():
    # squarefree parts of 2,3,5,6,7 span a rank-4 space over GF(2)
    E = subset_sums([1, 2, 4])
    assert class_group(E, 2) == 16
    assert exponent_rows(E, 2)[1] == [2, 3, 5, 7]
    assert 0 not in E


def test_class_group_trivial_cases():
    assert class_group({1}, 5) == 1
    assert class_group({1, 2, 6, 30}, 1) == 1
    assert class_group({4, 9, 36}, 2) == 1


def test_class_group_excludes_zero():
    # 0 has no class (exponent_vector refuses it); it generates nothing
    E = subset_sums([1, -1])
    assert 0 in E
    with pytest.raises(ValueError):
        exponent_vector(0, 2)
    assert class_group(E, 2) == 2  # the class of -1
    assert class_group(E - {0}, 2) == 2


def test_class_group_matches_bfs_oracle_on_integers():
    rng = random.Random(2)
    for _ in range(40):
        k = rng.randrange(1, 7)
        gens = [rng.randrange(2, 51) * rng.choice((1, -1))
                for _ in range(rng.randrange(1, 5))]
        order = class_group(set(gens), k)
        rows, positions = exponent_rows(set(gens), k)
        index = {pos: i for i, pos in enumerate(positions)}
        vectors = []
        for ev in rows:
            row = [0] * len(positions)
            for pos, e in ev:
                row[index[pos]] = e
            vectors.append(tuple(row))
        assert order == subgroup_order_bfs(vectors, k), (gens, k)
        # finite abelian group of exponent dividing k
        assert k ** len(positions) % order == 0


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


def test_class_group_generators_are_the_per_element_exponent_vectors():
    # class_group factors all of E in one batch and reads each vector off
    # the primes it found, and its order is that of the vectors factored one
    # by one; exponent_vector factors its element alone, and arith.factor is
    # the independent oracle.  The 48-64-bit elements share
    # primes above 10^6 or carry a square factor, and some are negative
    from powerchains.kummer import _exponent_vectors, _subgroup_order
    rng = random.Random(21)
    shared = (1000003, 1000033, 2**31 - 1, 4294967291)

    def between(lo, hi, d):  # a multiple of d in [lo, hi)
        return d * rng.randrange(-(-lo // d), hi // d)

    E = set(subset_sums([1000003 * rng.randrange(2**27, 2**30) for _ in range(4)]))
    for _ in range(12):
        square = rng.choice((rng.randrange(2, 2**8), rng.choice(shared[:2])))**2
        for c in (between(2**47, 2**64, rng.choice(shared)),
                  between(2**47, 2**64, square), rng.randrange(2**47, 2**64)):
            E.add(rng.choice((1, -1)) * c)
    elements = sorted(c for c in E if c)
    assert any(c < 0 for c in elements) and 2**63 < max(map(abs, elements)) < 2**64
    factors = {c: factor(abs(c)) for c in elements}
    for k in range(1, 7):
        sign = ((-1, k // 2),) if k % 2 == 0 else ()
        want = tuple(
            () if k == 1 else
            (sign if c < 0 else ()) + tuple((p, e % k) for p, e in factors[c] if e % k)
            for c in elements)
        assert tuple(_exponent_vectors(elements, k)) == want, k
        assert tuple(exponent_vector(c, k) for c in elements) == want, k
        assert class_group(E, k) == _subgroup_order(want, k), k


def test_uncertifiable_cofactor_raises_the_primality_bound_error():
    # the ~2^90 terms of a `wide` candidate: the term ...231 has no prime
    # factor up to 10^6 and lies beyond the certified bound of is_prime, so
    # it can be neither split nor certified; the batch names it as factor()
    # does
    wide = (1237940039285380274899124223, 1237940039285380274899124225,
            1237940039285380274899124231, 1237940039285380274899124243)
    message = (r"^1237940039285380274899124231 is beyond the certified "
               r"deterministic primality bound 3317044064679887385961981$")
    for call in (lambda: factor(wide[2]), lambda: exponent_vector(wide[2], 2),
                 lambda: class_group(subset_sums(wide), 2)):
        with pytest.raises(OverflowLimitError, match=message):
            call()
    with pytest.raises(OverflowLimitError, match="exceeds the 128-bit"):
        exponent_vector(-(2**130), 2)
    assert exponent_vector(wide[2], 1) == ()  # k = 1 factors nothing


def test_k2_order_is_two_to_the_squarefree_rank():
    rng = random.Random(5)
    sets = [{rng.randrange(1, 400) for _ in range(rng.randrange(1, 8))}
            for _ in range(40)]
    # 4,095 generators of rank 1,141, far past the breadth-first oracle
    sets.append(set(subset_sums(vegh_sequence(12, 3))))
    for E in sets:
        order = class_group(E, 2)
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
        assert order == 2 ** gf2_rank(masks), sorted(E)


def test_k2_order_is_two_to_the_rank_of_the_exponent_rows():
    # the elimination against GF(2) elimination on bitmask rows, bit i set
    # when the ith position divides the element to an odd power: on the
    # balanced-ternary sets up to m = 14 (16,383 elements), whose rows each
    # lead at a prime few other elements share, and on drawn integer sets
    def check(E):
        rows, positions = exponent_rows(E, 2)
        bit = {pos: i for i, pos in enumerate(positions)}
        masks = [sum(1 << bit[pos] for pos, _ in row) for row in rows]
        assert class_group(E, 2) == 2 ** gf2_rank(masks), sorted(E)[:8]

    for m in range(1, 15):
        check(subset_sums(vegh_sequence(m, 3)))
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=80, deadline=None, database=None,
                         derandomize=True)
    @hypothesis.given(st.sets(st.one_of(st.integers(-400, 400),
                                        st.integers(-2**40, 2**40)),
                              min_size=1, max_size=40))
    def drawn(E):
        check(E)

    drawn()


def test_orders_of_a_balanced_ternary_set_for_composite_k():
    # vegh_sequence(12, 3) at k = 2 has 2-rank 1,141; the orders for the
    # other k are pinned at the values the min-position elimination gave
    E = subset_sums(vegh_sequence(12, 3))
    for k, want in ((3, 3**1142), (4, 2**2283), (6, 2**1141 * 3**1142),
                    (12, 2**2283 * 3**1142)):
        assert class_group(E, k) == want, k


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
        assert class_group(E, a * b) == class_group(E, a) * class_group(E, b), \
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
        assert class_group(replaced, k) == class_group(set(gens), k), (gens, i, b, k)


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
        # d = 1 exactly when phi(k) = 1 (k <= 2) and the class group is trivial
        assert (d == 1) == (k in (1, 2) and class_group(E, k) == 1)
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
    with pytest.raises(ValueError, match=r"^predicted density must lie in \(0, 1\]$"):
        DensityReport(10, 5, 1, Fraction(1, 5), Fraction(0), ())
    with pytest.raises(ValueError):
        empirical_density([1], 2, 1)
    # keyword construction, and the checks hold for it too
    report = DensityReport(limit=10, total_primes=4, hits=1, empirical=Fraction(1, 4),
                           predicted_lower_bound=Fraction(1, 16),
                           exceptional_excluded=(2, 3, 5))
    assert report == DensityReport(10, 4, 1, Fraction(1, 4), Fraction(1, 16), (2, 3, 5))
    assert (report.hits, report.exceptional_excluded) == (1, (2, 3, 5))
    with pytest.raises(ValueError, match=r"^hits must lie in \[0, total_primes\]$"):
        DensityReport(limit=10, total_primes=4, hits=-1, empirical=Fraction(0),
                      predicted_lower_bound=Fraction(1, 16), exceptional_excluded=())
    with pytest.raises(AttributeError):
        report.hits = 2
    with pytest.raises(ValueError, match="hits must lie"):
        report._replace(hits=5)
    assert report._replace(hits=2).hits == 2
