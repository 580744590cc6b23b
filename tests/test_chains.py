import random
import time
from itertools import permutations

import pytest

from powerchains import arith
from powerchains.chains import (
    ChainVerdict,
    chain_primes_in_range,
    exceptional_primes,
    find_chain_primes,
    is_chain,
    is_cyclic_chain,
    is_permutation_chain,
    is_sum_distinct,
    naive_permutation_chain,
    subset_sums,
    vegh_sequence,
)
from powerchains.errors import InvalidCandidateError, OverflowLimitError, SizeLimitError
from powerchains.kummer import (density_counts_in_range, density_report_from_counts,
                                empirical_density)


def window_sums_all_orderings(terms):
    """Definition-level oracle: every window sum of every ordering."""
    out = set()
    for perm in permutations(terms):
        for i in range(len(perm)):
            s = 0
            for j in range(i, len(perm)):
                s += perm[j]
                out.add(s)
    return out


def kth_powers_mod(p, k):
    return {pow(x, k, p) for x in range(p)}


def random_sequences(rng, count, max_m=6, lo=-50, hi=50):
    for _ in range(count):
        m = rng.randrange(1, max_m + 1)
        yield [rng.randrange(lo, hi + 1) for _ in range(m)]


# ---------- subset sums ----------

def test_subset_sums_examples():
    assert subset_sums([1, 2, 4]) == frozenset(range(1, 8))
    assert subset_sums([5]) == frozenset({5})
    assert subset_sums([1, -1]) == frozenset({1, -1, 0})


def test_subset_sums_matches_window_oracle():
    # the load-bearing identity, checked against the all-orderings definition
    rng = random.Random(2024)
    for seq in random_sequences(rng, 40):
        assert subset_sums(seq) == frozenset(window_sums_all_orderings(seq)), seq


def test_subset_sums_cap():
    with pytest.raises(SizeLimitError, match="24"):
        subset_sums(list(range(1, 26)))
    # the cap is fixed, and every public function that builds E enforces it
    r = [2**i for i in range(25)]
    # k = 1 and p > 2^25: every window sum is a distinct residue, so the
    # verdict reaches the permutation level, which builds E; mod 7 the first
    # window already fails, and the cap is still checked on entry
    p = 2**31 - 1
    for call in (lambda: subset_sums(r),
                 lambda: is_sum_distinct(r),
                 lambda: is_permutation_chain(r, 1, p),
                 lambda: is_permutation_chain(vegh_sequence(25, 2), 2, 7),
                 lambda: exceptional_primes(r),
                 lambda: chain_primes_in_range(r, 2, 2, 100),
                 lambda: find_chain_primes(r, 2, 100),
                 lambda: find_chain_primes(r, 2, 100, max_count=1),
                 lambda: density_counts_in_range(r, 2, 2, 100),
                 lambda: density_report_from_counts(r, 2, 100, 25, 0),
                 lambda: empirical_density(r, 2, 100)):
        with pytest.raises(SizeLimitError, match="cap of 24 terms"):
            call()
    assert len(subset_sums(r[:18])) == 2**18 - 1


def test_candidate_validation():
    import numpy as np

    with pytest.raises(ValueError):
        is_sum_distinct(())
    with pytest.raises(OverflowLimitError):
        is_sum_distinct((2**126, 2**126, 2**126))
    # a non-integer term or modulus is refused, not truncated or parsed
    with pytest.raises(TypeError):
        is_permutation_chain([1, 2, 4], 2, 311.9)
    with pytest.raises(TypeError):
        is_sum_distinct([1.5, 2.5, 3.7])
    with pytest.raises(TypeError):
        subset_sums(['1', '2'])
    # numpy integers and Python bools are integers
    assert is_permutation_chain(np.array([1, 2, 4]), 2, np.int64(311)).is_permutation
    assert subset_sums([True, 2]) == {1, 2, 3}


# ---------- sum-distinctness ----------

def test_powers_of_two_are_sum_distinct():
    for m in range(1, 17):
        assert is_sum_distinct(vegh_sequence(m, 2))
    assert is_sum_distinct(vegh_sequence(20, 2))


def test_sum_distinct_examples():
    res = is_sum_distinct([1, 2, 3])
    assert not res
    assert res.collision == ((1, 2), (3,))
    assert res.colliding_sum == 3
    assert is_sum_distinct([7])
    assert is_sum_distinct([7]).collision is None


def test_sum_distinct_witness_is_valid():
    rng = random.Random(5)
    for seq in random_sequences(rng, 60, max_m=6, lo=-8, hi=8):
        res = is_sum_distinct(seq)
        brute = len(window_sums_all_orderings(seq)) == 2 ** len(seq) - 1
        assert bool(res) == brute, seq
        if not res:
            a, b = res.collision
            assert a != b
            assert sum(seq[i - 1] for i in a) == sum(seq[i - 1] for i in b) == res.colliding_sum


# ---------- chain / cyclic / permutation verdicts ----------

def test_is_chain_examples():
    assert is_chain([1, 2, 4], 1, 11)
    assert not is_chain([1, 2, 3], 1, 5)
    # squares mod 7 are {0,1,2,4}; the window sum 3 is a non-residue
    assert not is_chain([1, 2, 4], 2, 7)


def test_is_cyclic_chain_examples():
    assert not is_cyclic_chain([1, 2, 3], 1, 5)  # identity rotation already fails
    assert is_cyclic_chain([5], 1, 2)  # single rotation, window 5 = 1 (mod 2)
    assert is_cyclic_chain([1, 2, 4], 1, 11)


def test_permutation_chain_verdict_examples():
    v = is_permutation_chain([1, 2, 4], 1, 11)
    assert v == ChainVerdict(True, True, True, None)

    v = is_permutation_chain([1, 2, 4], 2, 7)
    assert not v.is_chain and not v.is_cyclic and not v.is_permutation
    assert v.failure_witness.kind == "non_residue"
    assert v.failure_witness.description == \
        "window sum 3 is not a 2nd power residue mod 7"


def test_permutation_chain_at_first_found_prime():
    # 311 is the first prime with 1..7 all squares (independent sweep oracle)
    sq = kth_powers_mod(311, 2)
    assert all(c in sq for c in range(1, 8))
    v = is_permutation_chain([1, 2, 4], 2, 311)
    assert v.is_permutation and v.is_cyclic and v.is_chain
    assert v.is_permutation == naive_permutation_chain([1, 2, 4], 2, 311)


def test_naive_verifier_refuses_more_than_8_terms():
    # m! orderings: the literal oracle stops at 8 terms, before any work
    with pytest.raises(ValueError, match="m <= 8"):
        naive_permutation_chain(vegh_sequence(9, 2), 2, 11)


def test_non_sum_distinct_is_never_a_permutation_chain():
    rng = random.Random(17)
    tried = 0
    while tried < 25:
        seq = [rng.randrange(1, 12) for _ in range(rng.randrange(2, 6))]
        if is_sum_distinct(seq):
            continue
        tried += 1
        k = rng.randrange(1, 5)
        p = rng.choice([2, 3, 5, 7, 11, 101, 997])
        v = is_permutation_chain(seq, k, p)
        assert not v.is_permutation, (seq, k, p)
        assert naive_permutation_chain(seq, k, p) is False


def test_verdict_hierarchy():
    rng = random.Random(23)
    for seq in random_sequences(rng, 80, max_m=5, lo=-9, hi=9):
        k = rng.randrange(1, 5)
        p = rng.choice([2, 3, 5, 7, 11, 13, 41, 97])
        v = is_permutation_chain(seq, k, p)
        if v.is_permutation:
            assert v.is_cyclic
        if v.is_cyclic:
            assert v.is_chain
        assert v.is_chain == is_chain(seq, k, p)
        assert v.is_cyclic == is_cyclic_chain(seq, k, p)


def test_permutation_verifier_matches_naive_oracle():
    rng = random.Random(31)
    for seq in random_sequences(rng, 60, max_m=4, lo=-9, hi=9):
        k = rng.randrange(1, 5)
        p = rng.choice([2, 3, 5, 7, 11, 13, 41, 97])
        assert is_permutation_chain(seq, k, p).is_permutation == \
            naive_permutation_chain(seq, k, p), (seq, k, p)
    # a smaller batch at the full m <= 6 range
    for seq in random_sequences(rng, 20, max_m=6, lo=-9, hi=9):
        k = rng.randrange(1, 5)
        p = rng.choice([5, 7, 11, 41, 97])
        assert is_permutation_chain(seq, k, p).is_permutation == \
            naive_permutation_chain(seq, k, p), (seq, k, p)


def test_permutation_invariance():
    rng = random.Random(37)
    for seq in random_sequences(rng, 15, max_m=5, lo=-9, hi=9):
        k = rng.randrange(1, 4)
        p = rng.choice([5, 7, 11, 13])
        base = is_permutation_chain(seq, k, p).is_permutation
        for perm in permutations(seq):
            assert is_permutation_chain(list(perm), k, p).is_permutation == base


def test_k1_degeneracy():
    # for k = 1 and a sum-distinct candidate, the verdict reduces to
    # distinctness of the subset sums mod p
    rng = random.Random(41)
    for seq in random_sequences(rng, 50, max_m=5, lo=-9, hi=9):
        if not is_sum_distinct(seq):
            continue
        p = rng.choice([2, 3, 5, 7, 11, 13, 41])
        values = subset_sums(seq)
        distinct = len({v % p for v in values}) == len(values)
        assert is_permutation_chain(seq, 1, p).is_permutation == distinct


# ---------- exceptional primes ----------

def test_exceptional_primes_examples():
    assert exceptional_primes([1, 2, 4]) == (2, 3, 5)
    assert exceptional_primes([5]) == ()
    assert exceptional_primes([1, 3]) == (2, 3)


def test_exceptional_primes_requires_sum_distinct():
    with pytest.raises(InvalidCandidateError):
        exceptional_primes([1, 2, 3])


def test_exceptional_set_soundness():
    rng = random.Random(43)
    small_primes = arith.primes_up_to(2000).tolist()
    done = 0
    while done < 20:
        seq = [rng.randrange(-30, 31) or 1 for _ in range(rng.randrange(1, 5))]
        if not is_sum_distinct(seq):
            continue
        done += 1
        exc = set(exceptional_primes(seq))
        values = subset_sums(seq)
        for p in small_primes:
            if p in exc:
                continue
            assert len({v % p for v in values}) == len(values), (seq, p)


def test_exceptional_primes_are_exactly_the_colliding_ones():
    for seq in ([1, 2, 4], [1, 3], [2, 5, 11]):
        exc = set(exceptional_primes(seq))
        values = sorted(subset_sums(seq))
        for p in arith.primes_up_to(max(values) + 1).tolist():
            collides = len({v % p for v in values}) < len(values)
            assert (p in exc) == collides, (seq, p)


def prime_factors_by_trial_division(n):
    out, p = set(), 2
    while p * p <= n:
        while n % p == 0:
            out.add(p)
            n //= p
        p += 1
    return out | ({n} if n > 1 else set())


def test_exceptional_primes_match_the_pair_differences():
    # the signed sums that stand in for the pairs of E: the full sum
    # r_1 + ... + r_m is a difference only when some other signed sum gives
    # it too, which 5 does not for [5] and 7 does not for [1, 6]
    assert tuple(exceptional_primes([5])) == ()
    assert tuple(exceptional_primes([1, 6])) == (2, 3, 5)
    rng = random.Random(15)
    cases = 0
    while cases < 80:
        m = rng.randint(1, 6)
        bits = rng.choice((3, 6, 12))
        terms = [rng.randrange(-2**bits, 2**bits) or 1 for _ in range(m)]
        if not is_sum_distinct(terms):
            continue
        cases += 1
        values = sorted(subset_sums(terms))
        diffs = {b - a for i, a in enumerate(values) for b in values[i + 1:]}
        want = set().union(*map(prime_factors_by_trial_division, diffs))
        assert list(exceptional_primes(terms)) == sorted(want), terms


def colliding_primes(values, limit):
    """Definition-level oracle: the primes p <= limit at which the integers
    `values` are not pairwise distinct mod p, by sorting their residues for
    slices of primes.  In int64: the values are shifted to be nonnegative
    and split at 2^34, and every p < 2^24."""
    import numpy as np

    assert limit < 2**24
    shifted = [v - min(values) for v in values]
    hi = np.array([v >> 34 for v in shifted], dtype=np.int64)
    lo = np.array([v & (2**34 - 1) for v in shifted], dtype=np.int64)
    primes = arith.primes_up_to(limit)
    out = []
    for i in range(0, len(primes), 2**13):
        p = primes[i:i + 2**13, None]  # one row of residues per prime
        residues = ((hi % p) * ((1 << 34) % p) % p + lo) % p
        residues.sort(axis=1)
        collide = (residues[:, 1:] == residues[:, :-1]).any(axis=1)
        out += p[collide, 0].tolist()
    return out


def test_density_exceptional_set_is_the_colliding_primes():
    # density's exceptional_excluded against the definition: the primes
    # p <= limit at which E is not distinct mod p.  Short terms put some
    # limits above the spread; 64-bit terms put 10^6 and 10^7 far below it
    # (10^7 on 5 and 6 terms: the oracle on 7 terms takes seconds there).
    # The set does not depend on k, and k = 1 leaves the class group, which
    # factors E in full, out of the run.
    rng = random.Random(1015)
    for bits, m, top in ((10, 5, 10**6), (10, 6, 10**6), (10, 7, 10**6),
                         (64, 5, 10**7), (64, 6, 10**7), (64, 7, 10**6)):
        terms = [rng.randrange(-2**bits, 2**bits) or 1 for _ in range(m)]
        while not is_sum_distinct(terms):
            terms = [rng.randrange(-2**bits, 2**bits) or 1 for _ in range(m)]
        values = sorted(subset_sums(terms))
        spread = values[-1] - values[0]
        limits = [2, rng.randrange(3, 10**6), 10**6, top]
        if spread < 10**6:
            limits += [spread // 3, spread, spread + 1]
        colliding = colliding_primes(values, max(limits))
        for limit in limits:
            report = density_report_from_counts(terms, 1, limit, 0, 0)
            assert list(report.exceptional_excluded) == \
                [p for p in colliding if p <= limit], (terms, limit)


def test_density_exceptional_set_to_1e6_never_reaches_rho(monkeypatch):
    # below the trial-division limit every prime factor up to the limit is
    # found by trial division, so the rest of each difference is skipped;
    # without a limit these 64-bit terms need Pollard rho
    terms = [18320619364259767899, 11717523461425187789, 16634421112142485623,
             14354688614938133244, 13440339019501979729, 12112332291204175170]
    full = tuple(exceptional_primes(terms))

    def no_rho(n):
        raise AssertionError(f"Pollard rho reached on {n}")

    monkeypatch.setattr(arith, "_pollard_brent", no_rho)
    with pytest.raises(AssertionError, match="rho"):
        exceptional_primes(terms)
    for limit in (2, 1000, 999_983, 10**6):
        report = density_report_from_counts(terms, 1, limit, 0, 0)
        assert report.exceptional_excluded == tuple(p for p in full if p <= limit)


# ---------- prime search ----------

def test_find_chain_primes_trivial_candidate():
    assert find_chain_primes([1], 2, 20) == [2, 3, 5, 7, 11, 13, 17, 19]


def test_find_chain_primes_non_sum_distinct_is_empty():
    for k in (1, 2, 3):
        assert find_chain_primes([1, 2, 3], k, 10**4) == []


def test_find_chain_primes_vegh_k2():
    # frozen from an independent sweep: primes p <= 10^4 with 1..7 all
    # squares mod p start at 311 and number 66
    hits = find_chain_primes([1, 2, 4], 2, 10**4)
    assert hits[0] == 311
    assert len(hits) == 66
    for p in hits:
        sq = kth_powers_mod(p, 2)
        assert all(c in sq for c in range(1, 8)), p


def test_find_chain_primes_negative_terms_and_zero_sums():
    # subset sums of [1, -1] are {1, -1, 0}; 0 counts as a residue, -1 is a
    # square mod p iff p = 1 (mod 4), and p = 2 collides (1 = -1)
    assert find_chain_primes([1, -1], 2, 100) == \
        [5, 13, 17, 29, 37, 41, 53, 61, 73, 89, 97]


def test_find_chain_primes_max_count_is_a_prefix():
    full = find_chain_primes([1, 2, 4], 2, 10**4)
    assert find_chain_primes([1, 2, 4], 2, 10**4, max_count=5) == full[:5]
    assert find_chain_primes([1, 2, 4], 2, 10**4, max_count=10**6) == full


def test_range_partition_reassembles_full_search():
    full = find_chain_primes([1, 2, 4], 2, 10**4)
    parts = (chain_primes_in_range([1, 2, 4], 2, 2, 2999)
             + chain_primes_in_range([1, 2, 4], 2, 3000, 6999)
             + chain_primes_in_range([1, 2, 4], 2, 7000, 10**4))
    assert parts == full


def test_one_scan_matches_the_per_modulus_verifier(monkeypatch):
    # signed candidates with spreads up to 320, so primes on both sides of
    # the spread (where distinctness mod p stops being automatic) are tested
    rng = random.Random(5)
    limit = 3000
    primes = arith.primes_up_to(limit)
    assert len(primes) == 430
    candidates = []
    while len(candidates) < 20:
        r = [rng.randint(-40, 40) for _ in range(rng.randint(1, 4))]
        if is_sum_distinct(r):
            candidates.append(r)
    assert any(min(r) < 0 for r in candidates)
    # and candidates of 5-6 terms near 2^20, as in density runs: every prime
    # up to the limit lies below the spread, and the primes below |E| (2..61
    # at m = 6) cannot be hits by pigeonhole
    for m in (6, 6, 5):
        while True:
            r = [rng.choice((1, -1)) * rng.randint(2**20 - 2**16, 2**20 + 2**16)
                 for _ in range(m)]
            if is_sum_distinct(r):
                break
        values = subset_sums(r)
        assert max(values) - min(values) > limit
        candidates.append(r)
    for r in candidates:
        for k in (1, 2, 3, 4, 6, 12):
            expected = [p for p in primes if is_permutation_chain(r, k, p).is_permutation]
            assert find_chain_primes(r, k, limit) == expected, (r, k)
            assert density_counts_in_range(r, k, 2, limit) == (430, len(expected))
            a, b = sorted(rng.sample(range(3, limit), 2))
            assert (chain_primes_in_range(r, k, 2, a - 1)
                    + chain_primes_in_range(r, k, a, b - 1)
                    + chain_primes_in_range(r, k, b, limit)) == expected, (r, k, a, b)
            assert find_chain_primes(r, k, limit, max_count=3) == expected[:3]
    for k in (1, 2, 3, 4, 6, 12):
        assert density_counts_in_range([1, 2, 3], k, 2, limit) == (430, 0)

    # the two lists answer [] for [1, 2, 3] without sieving
    def no_sieve(lo, hi):
        raise AssertionError("sieved for a candidate that is not sum-distinct")
    monkeypatch.setattr(arith, "prime_blocks", no_sieve)
    for k in (1, 2, 3, 4, 6, 12):
        assert find_chain_primes([1, 2, 3], k, limit) == []
        assert find_chain_primes([1, 2, 3], k, limit, max_count=3) == []
        assert chain_primes_in_range([1, 2, 3], k, 2, limit) == []


def test_scan_past_the_int64_residue_filter_matches_the_verifier():
    # the scan tests residues on int64 arrays only while p < 2^31, every
    # subset sum lies within +/-2^62 and k < 2^63; these cases sit on both
    # sides of each of those bounds, so both residue paths are compared with
    # the per-modulus verifier
    def expected(r, k, primes):
        return [p for p in primes if is_permutation_chain(r, k, p).is_permutation]

    limit = 600
    primes = arith.primes_up_to(limit).tolist()
    cases = [([1, 2, 4], k) for k in (2**63 - 1, 2**63, 2**63 + 1, 2**70, 6 * 2**70)]
    cases += [(r, k) for r in ([1, 2, 2**70], [2**62 - 4, 1, 3], [2**62 - 3, 1, 3],
                               [-(2**100) + 3, 5, -7], [-(2**62) + 7, -3, -5])
              for k in (2, 3, 6)]
    cases += [([-(2**100) + 3, 5, -7], 2**70), ([1, 2, 2**70], 6 * 2**70)]
    for r, k in cases:
        want = expected(r, k, primes)
        assert find_chain_primes(r, k, limit) == want, (r, k)
        assert chain_primes_in_range(r, k, 2, 300) + \
            chain_primes_in_range(r, k, 301, limit) == want, (r, k)
        assert density_counts_in_range(r, k, 2, limit) == (len(primes), len(want)), (r, k)
    assert any(expected(r, k, primes) for r, k in cases)

    # primes on both sides of 2^31, and near 2^32 where int64 squares of
    # residues would overflow, with spreads below, across and above them;
    # the last candidate's sums beyond +/-2^62 are reduced as Python ints on
    # both sides of 2^31
    for lo, hi in ((2**31 - 3000, 2**31 + 3000), (2**32 - 1500, 2**32 + 1500)):
        near = arith.primes_in_range(lo, hi).tolist()
        for r in ([1, 2, 4], [1, -3], [5, 2**31 + 11], [3, 2**40 + 1, -7],
                  [-(2**100) + 3, 2**63 + 5, -7]):
            for k in (1, 2, 3, 6, 2**70):
                want = expected(r, k, near)
                assert chain_primes_in_range(r, k, lo, hi) == want, (r, k, lo)
                assert density_counts_in_range(r, k, lo, hi) == \
                    (len(near), len(want)), (r, k, lo)
                if k == 2 and r == [1, 2, 4] and lo < 2**31:
                    assert min(want) < 2**31 < max(want)


def test_find_chain_primes_rejects_bad_k():
    with pytest.raises(ValueError):
        find_chain_primes([1, 2, 4], 0, 100)
    for call in (lambda: chain_primes_in_range([1, 2, 4], 0, 2, 100),
                 lambda: is_chain([1, 2, 4], 0, 7),
                 lambda: is_cyclic_chain([1, 2, 4], 0, 7),
                 lambda: is_permutation_chain([1, 2, 4], 0, 7),
                 lambda: naive_permutation_chain([1, 2, 4], 0, 7),
                 lambda: naive_permutation_chain([1, 2, 4], -3, 7),
                 lambda: find_chain_primes([1, 2, 4], 2, 100, max_count=-1)):
        with pytest.raises(ValueError):
            call()


# ---------- candidate generators ----------

def test_vegh_sequence_examples():
    assert vegh_sequence(3, 2) == (1, 2, 4)
    assert vegh_sequence(1, 7) == (1,)
    v = vegh_sequence(4, 3)
    assert v == (1, 3, 9, 27)
    assert is_sum_distinct(v)


def test_vegh_sequence_validation():
    with pytest.raises(ValueError):
        vegh_sequence(0, 2)
    with pytest.raises(ValueError):
        vegh_sequence(3, 1)
    with pytest.raises(OverflowLimitError):
        vegh_sequence(200, 2)


def test_vegh_sequence_stops_at_the_first_term_past_128_bits():
    # the powers up to 2^59999 took seconds to build before the refusal
    start = time.perf_counter()
    with pytest.raises(OverflowLimitError, match="overflow the 128-bit width"):
        vegh_sequence(60000, 2)
    assert time.perf_counter() - start < 1.0
    assert len(vegh_sequence(127, 2)) == 127  # 2^127 - 1 still fits
