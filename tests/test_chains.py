import random
import subprocess
import sys
import time
from functools import reduce
from itertools import permutations
from math import gcd
from operator import add

import pytest

from powerchains import arith, ffield
from powerchains.chains import (
    ChainFailure,
    ChainVerdict,
    SumDistinctResult,
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
from powerchains.ffield import FFPoly
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


def first_collision_in_mask_order(terms):
    """Definition-level oracle: (indices_a, indices_b, sum) for the first
    mask whose subset sum an earlier nonempty mask already had, or None."""
    def indices(mask):
        return tuple(i + 1 for i in range(len(terms)) if mask >> i & 1)

    seen = {}
    for mask in range(1, 1 << len(terms)):
        s = reduce(add, (terms[i - 1] for i in indices(mask)))
        if s in seen:
            return indices(seen[s]), indices(mask), s
        seen[s] = mask
    return None


def test_witness_is_the_first_collision_in_mask_order():
    # drawn integer candidates of up to 8 small terms, so that most collide,
    # and polynomial candidates over F_2, F_3 and F_5 of low degree
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    polys = st.sampled_from((2, 3, 5)).flatmap(lambda p: st.lists(
        st.lists(st.integers(0, p - 1), max_size=3).map(lambda c: FFPoly(p, c)),
        min_size=1, max_size=6))
    candidates = st.one_of(
        st.lists(st.integers(-12, 40), min_size=1, max_size=8), polys)

    @hypothesis.settings(max_examples=300, deadline=None, database=None,
                         derandomize=True)
    @hypothesis.given(candidates)
    def agrees(r):
        res = is_sum_distinct(r)
        want = first_collision_in_mask_order(r)
        if want is None:
            assert res and res.collision is None, r
        else:
            assert not res, r
            assert (*res.collision, res.colliding_sum) == want, r

    agrees()


def test_an_early_collision_is_found_without_every_subset_sum():
    # [1] * 24 collides at its second mask; the witness pass stops there
    # instead of holding all 2^24 subset sums.  The peak is the child's own
    # VmHWM, as in the sieve's memory test
    script = ("from powerchains.chains import is_sum_distinct\n"
              "assert is_sum_distinct([1] * 24).collision == ((1,), (2,))\n"
              "with open('/proc/self/status') as f:\n"
              "    print(next(l.split()[1] for l in f if l.startswith('VmHWM:')))")
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert int(out) < 50 * 1024  # KiB; a table of 2^24 sums alone takes 128 MB


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


def test_result_types_build_by_keyword_with_defaults():
    assert ChainVerdict(True, True, True).failure_witness is None
    v = ChainVerdict(is_chain=True, is_cyclic=False, is_permutation=False)
    assert v == ChainVerdict(True, False, False, None)
    assert (v.is_chain, v.is_cyclic, v.is_permutation) == (True, False, False)
    fail = ChainFailure(level="chain", kind="collision", values=(1, 8),
                        description="window sums 1 and 8 are congruent mod 7")
    assert fail == ChainFailure("chain", "collision", (1, 8),
                                "window sums 1 and 8 are congruent mod 7")
    assert ChainVerdict(False, False, False, fail).failure_witness.values == (1, 8)
    assert repr(ChainVerdict(True, True, True)) == (
        "ChainVerdict(is_chain=True, is_cyclic=True, is_permutation=True, "
        "failure_witness=None)")
    assert bool(SumDistinctResult(False)) is False
    assert bool(SumDistinctResult(True)) is True
    res = SumDistinctResult(distinct=False, collision=((1, 2), (3,)), colliding_sum=3)
    assert bool(res) is False and res == is_sum_distinct([1, 2, 3])
    assert SumDistinctResult(True).collision is None
    assert SumDistinctResult(True).colliding_sum is None
    # frozen values: no field can be reassigned, and equal values hash alike
    for value, fields in ((v, ("is_chain", "is_cyclic", "is_permutation", "failure_witness")),
                          (fail, ("level", "kind", "values", "description")),
                          (res, ("distinct", "collision", "colliding_sum"))):
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(value, name, None)
        rebuilt = value.__class__(**{name: getattr(value, name) for name in fields})
        assert rebuilt == value and hash(rebuilt) == hash(value)


def test_the_rings_of_the_chain_core_hold_no_instance_dict():
    # a Ring is built per modulus in the searches, so it is a slotted
    # class: no __dict__ to fill or to carry
    for ring in (arith._ring(2, 7), ffield._ring(2, FFPoly(5, (1, 1, 1)))):
        assert not hasattr(ring, "__dict__")
        assert ring.k == 2


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


def test_exceptional_primes_keep_a_prime_left_by_an_early_stop():
    # the differences 2^30, 733 * 2^30 and 734 * 2^30 shrink to 733 once 2
    # and 367 are divided out, so the trial division stops before it reaches
    # the limit, and the prime it leaves may still be at most the limit
    r = (733 * 2**30, 734 * 2**30)
    full = exceptional_primes(r)
    assert full == (2, 367, 733)
    for limit in (733, 800, 10**6):
        assert exceptional_primes(r, limit=limit) == tuple(p for p in full if p <= limit)


def test_exceptional_primes_keep_the_prime_a_lone_value_leaves():
    # 513 differences: the largest, 744448 = 2^10 * 727, sits alone in the
    # last chunk of 256, and no other difference is divisible by 727; that
    # chunk takes the product path like any other, whose blocks of primes up
    # to the limit find 727
    terms = (4, 13, 45, 53, 56, 67, 744214)
    values = sorted(subset_sums(terms))
    diffs = {b - a for i, a in enumerate(values) for b in values[i + 1:]}
    assert len(diffs) == 513 and max(diffs) == 2**10 * 727
    assert [d for d in diffs if d % 727 == 0] == [max(diffs)]
    primes = [p for p in range(2, 801) if all(p % q for q in range(2, p))]
    got = exceptional_primes(terms, limit=800)
    assert 727 in got
    assert got == tuple(p for p in primes if any(d % p == 0 for d in diffs))


def test_exceptional_primes_requires_sum_distinct():
    with pytest.raises(InvalidCandidateError):
        exceptional_primes([1, 2, 3])


def test_exceptional_set_soundness():
    rng = random.Random(43)
    small_primes = arith.primes_in_range(2, 2000).tolist()
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
        for p in arith.primes_in_range(2, max(values) + 1).tolist():
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


def test_exceptional_primes_match_the_pair_differences(monkeypatch):
    # the signed sums that stand in for the pairs of E: the full sum
    # r_1 + ... + r_m is a difference only when some other signed sum gives
    # it too, which 5 does not for [5], 7 does not for [1, 6] and 7 does not
    # for [1, 2, 4], 1 does for [1, 2, -4], and 0 never does ([1, 2, -3]);
    # the values handed to trial division are exactly the differences
    seen = []
    divisors = arith._prime_divisors

    def recording(values, limit):
        seen.append(list(values))
        return divisors(values, limit)

    monkeypatch.setattr(arith, "_prime_divisors", recording)
    fixed = {(5,): (), (1, 6): (2, 3, 5), (1, 2, 4): (2, 3, 5),
             (1, 2, -4): (2, 3, 5, 7), (1, 2, -3): (2, 3, 5)}
    cases = list(fixed)
    rng = random.Random(15)
    while len(cases) < 80 + len(fixed):
        m = rng.randint(1, 6)
        bits = rng.choice((3, 6, 12))
        terms = tuple(rng.randrange(-2**bits, 2**bits) or 1 for _ in range(m))
        if is_sum_distinct(terms):
            cases.append(terms)
    for terms in cases:
        seen.clear()
        got = exceptional_primes(terms)
        values = sorted(subset_sums(terms))
        diffs = {b - a for i, a in enumerate(values) for b in values[i + 1:]}
        assert seen == [sorted(diffs)], terms
        want = set().union(*map(prime_factors_by_trial_division, diffs))
        assert got == fixed.get(terms, tuple(sorted(want))) == tuple(sorted(want)), terms


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
    primes = arith.primes_in_range(2, limit)
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
    primes = arith.primes_in_range(2, limit)
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
    # the scan tests residues on int64 arrays while p < 2^31, with k and
    # every subset sum beyond +/-2^62 reduced as Python ints first; these
    # cases sit on both sides of each of those bounds, so both residue paths
    # are compared with the per-modulus verifier
    def expected(r, k, primes):
        return [p for p in primes if is_permutation_chain(r, k, p).is_permutation]

    limit = 600
    primes = arith.primes_in_range(2, limit).tolist()
    cases = [([1, 2, 4], k) for k in (2**63 - 1, 2**63, 2**63 + 1, 2**70, 6 * 2**70,
                                      6 * (2**61 - 1))]
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
    # 2^61 - 1 is a prime above every p - 1 here, so gcd(k, p - 1) is
    # gcd(6, p - 1) and the chain primes are those of k = 6
    assert find_chain_primes([1, 2, 4], 6 * (2**61 - 1), 10**6) == \
        find_chain_primes([1, 2, 4], 6, 10**6)

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


def test_distinctness_batches_match_the_verifier_where_distinctness_decides():
    # at k = 1, and at odd k mod a prime with gcd(k, p - 1) = 1, every
    # element of E is a residue, so below the spread only the distinctness
    # of E mod p separates hits from misses.  Signed candidates of 2-7
    # terms, some beyond +/-2^62 and +/-2^64, are scanned to 3000; near 2^32
    # (p >= 2^31) collisions are planted: subset sums that differ by a
    # product of two window primes.  A window prime also divides the full
    # sum, which then collides with no other sum, since the empty sum is not
    # in E (any smaller sum of 0 mod p would: S and S + {r} differ by it)
    rng = random.Random(20)

    def signed_terms(m, sizes=(2**20, 2**40, 2**63, 2**65)):
        while True:
            r = [rng.choice((1, -1)) * rng.randrange(1, rng.choice(sizes))
                 for _ in range(m)]
            if is_sum_distinct(r):
                return r

    def check(r, k, lo, hi):
        primes = arith.primes_in_range(lo, hi).tolist()
        want = [p for p in primes if is_permutation_chain(r, k, p).is_permutation]
        assert chain_primes_in_range(r, k, lo, hi) == want, (r, k, lo)
        spread = max(subset_sums(r)) - min(subset_sums(r))
        decided = [p for p in primes if gcd(k, p - 1) == 1 and 2**len(r) <= p <= spread]
        return {p for p in decided if p in want}, {p for p in decided if p not in want}

    hits, misses = set(), set()
    for m in range(2, 8):
        r = signed_terms(m)
        for k in (1, 3):
            h, x = check(r, k, 2, 3000)
            hits |= h
            misses |= x
    assert len(hits) > 100 and len(misses) > 100

    lo, hi = 2**32, 2**32 + 2 * 10**4
    window = arith.primes_in_range(lo, hi).tolist()
    while True:
        r1, r2, r3 = signed_terms(3, sizes=(2**65,))
        # r1 and r2 wrap past p when added, so the collision of {r1, r2} with
        # {r4} shows only once each sum is reduced mod p
        p1, p2 = rng.sample([p for p in window if r1 % p + r2 % p >= p], 2)
        p3, p4, p5 = rng.sample(window, 3)
        r = [r1, r2, r3, r1 + r2 - p1 * p2, r1 - r3 + p3 * p4,
             -rng.randrange(2**62, 2**64)]
        r.append(p5 * rng.randrange(2**30, 2**33) - sum(r))
        if is_sum_distinct(r):
            break
    for cand in (r, [-t for t in reversed(r)]):
        h, x = check(cand, 3, lo, hi)
        assert h and x, cand
        h, x = check(cand, 1, lo, hi)
        assert p5 in h and {p1, p2, p3, p4} <= x, (cand, p1, p2, p3, p4, p5)


def test_scan_matches_the_verifier_on_drawn_candidates():
    # a bounded property test: signed candidates of 1-6 terms, small (so
    # that many are not sum-distinct), near 2^20, or past +/-2^62 and
    # +/-2^64, at every k from 1 to 12; the examples are derandomized, so
    # every run draws the same ones
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    limit = 3000
    primes = arith.primes_in_range(2, limit).tolist()
    term = st.one_of(st.integers(-60, 60), st.integers(-2**21, 2**21),
                     st.integers(-2**66, 2**66))

    @hypothesis.settings(max_examples=60, deadline=None, database=None,
                         derandomize=True)
    @hypothesis.given(st.lists(term, min_size=1, max_size=6), st.integers(1, 12))
    def scan_matches(r, k):
        want = [p for p in primes if is_permutation_chain(r, k, p).is_permutation]
        assert find_chain_primes(r, k, limit) == want
        assert chain_primes_in_range(r, k, 2, 1500) + \
            chain_primes_in_range(r, k, 1501, limit) == want

    scan_matches()


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
