import importlib.util
import json
import random
import subprocess
import sys
from math import gcd, prod

import pytest

from powerchains import arith
from powerchains.arith import (
    MAX_VALUE,
    MR_CERTIFIED_BOUND,
    euler_phi,
    factor,
    is_kth_residue,
    is_prime,
    primes_in_range,
)
from powerchains.errors import OverflowLimitError


def trial_division_primes(n):
    """Independent slow oracle."""
    return [p for p in range(2, n + 1) if all(p % d for d in range(2, p))]


def kth_powers_mod(p, k):
    """Independent residue oracle: the image of x -> x^k on Z/p."""
    return {pow(x, k, p) for x in range(p)}


# ---------- is_prime ----------

def test_is_prime_small_examples():
    assert is_prime(2)
    assert not is_prime(1)
    assert not is_prime(0)
    assert not is_prime(-7)
    assert not is_prime(561)  # Carmichael: 3 * 11 * 17


def test_is_prime_agrees_with_trial_division():
    oracle = set(trial_division_primes(2000))
    for n in range(2000):
        assert is_prime(n) == (n in oracle), n


@pytest.mark.parametrize("n", [1105, 1729, 2465, 2821, 6601, 8911, 62745, 162401])
def test_is_prime_rejects_carmichael_numbers(n):
    assert not is_prime(n)


def test_is_prime_64bit_edges():
    assert is_prime(2**61 - 1)  # Mersenne prime
    assert is_prime(18446744073709551557)  # largest prime below 2^64
    assert not is_prime(2**64 - 1)
    assert not is_prime(2**64 + 1)


# strong pseudoprimes to every prime base up to 7, 11, 13, 19, 31 and 37 in
# turn: only base 41 exposes the last one
@pytest.mark.parametrize("n", [3215031751, 2152302898747, 3474749660383,
                               341550071728321, 3825123056546413051,
                               318665857834031151167461])
def test_is_prime_rejects_strong_pseudoprimes(n):
    assert not is_prime(n)


def test_is_prime_largest_prime_below_certified_bound():
    assert 3317044064679887385961813 < MR_CERTIFIED_BOUND
    assert is_prime(3317044064679887385961813)


def test_is_prime_beyond_certified_bound_raises():
    with pytest.raises(OverflowLimitError):
        is_prime(MR_CERTIFIED_BOUND)


# ---------- factor ----------

def test_factor_examples():
    assert factor(12) == ((2, 2), (3, 1))
    assert factor(-12) == ((-1, 1), (2, 2), (3, 1))
    assert factor(-1) == ((-1, 1),)
    assert factor(1) == ()
    assert factor(97) == ((97, 1),)


def test_factor_zero_rejected():
    with pytest.raises(ValueError):
        factor(0)
    with pytest.raises(OverflowLimitError):
        factor(2**128)


def test_factor_round_trips_to_1e5():
    for n in range(1, 10**5 + 1):
        for signed in (n, -n):
            f = factor(signed)
            assert prod(p**e for p, e in f) == signed, signed
            assert all(e >= 1 for _, e in f)
            assert list(f) == sorted(f)
            assert all(is_prime(p) for p, _ in f if p != -1)


def test_factor_in_a_fresh_process_grows_its_primes_as_needed():
    # factor() trial-divides by a prime list it extends only as far as
    # sqrt(n) needs, so squares and products of primes, factored in
    # increasing order from an empty list, land on every boundary of it
    primes = trial_division_primes(1200)
    ns = sorted({p * q for p, q in zip(primes, primes[1:])} | {p * p for p in primes}
                | {999983**2, 999983 * 1000003, 1000003**2})
    script = ("import json, sys\n"
              "from powerchains.arith import factor\n"
              "print(json.dumps([factor(n) for n in json.loads(sys.argv[1])]))")
    out = subprocess.run([sys.executable, "-c", script, json.dumps(ns)],
                         capture_output=True, text=True, check=True).stdout
    for n, got in zip(ns, json.loads(out)):
        assert prod(p**e for p, e in got) == n
        assert all(is_prime(p) for p, _ in got), n


def test_factor_matches_sympy_in_a_fresh_process():
    # sympy.factorint is a test-only oracle.  factor() trial-divides by
    # blocks of 128 consecutive primes (one gcd with each block's product),
    # so the inputs are the squares and products of the primes on both sides
    # of every block edge, of 999,983 and of 1,000,003, in increasing order,
    # and then random n of 2-81 bits.  Each side runs in a child interpreter:
    # a fresh one makes the blocks and their products grow from empty, and
    # sympy (about 37 MB) stays out of this process, whose peak RSS the
    # children of later tests inherit.
    if importlib.util.find_spec("sympy") is None:
        pytest.skip("sympy is not installed")
    primes = primes_in_range(2, 1_000_100).tolist()
    pairs = [(primes[i - 1], primes[i]) for i in range(128, len(primes), 128)]
    pairs += [(999979, 999983), (999983, 1000003), (1000003, 1000033)]
    ns = sorted({n for p, q in pairs for n in (p * p, p * q, q * q)})
    rng = random.Random(81)
    ns += [rng.randrange(2 ** (b - 1), 2**b) for b in range(2, 82) for _ in range(3)]

    def factorizations(setup, expr):
        script = (f"import json, sys\n{setup}\n"
                  f"print(json.dumps([{expr} for n in json.loads(sys.argv[1])]))")
        return json.loads(subprocess.run([sys.executable, "-c", script, json.dumps(ns)],
                                         capture_output=True, text=True, check=True).stdout)

    got = factorizations("from powerchains.arith import factor", "factor(n)")
    want = factorizations("from sympy import factorint", "sorted(factorint(n).items())")
    for n, g, w in zip(ns, got, want, strict=True):
        assert g == w, n


def test_factor_large_semiprime_and_powers():
    p, q = 1000003, 1000033
    assert factor(p * q) == ((p, 1), (q, 1))
    assert factor(p * p) == ((p, 2),)
    # rho path: semiprime with both factors above the trial-division limit
    r, s = 10000000019, 10000000033
    assert factor(r * s) == ((r, 1), (s, 1))
    assert factor(2**61 - 1) == ((2**61 - 1, 1),)
    assert factor(-(2**40) * 3**5) == ((-1, 1), (2, 40), (3, 5))


def test_euler_phi():
    assert euler_phi(1) == 1
    assert euler_phi(2) == 1
    assert euler_phi(5) == 4
    assert euler_phi(12) == 4
    for n in range(1, 200):
        assert euler_phi(n) == sum(1 for a in range(1, n + 1) if gcd(a, n) == 1)


# ---------- prime enumeration ----------

def test_primes_up_to_examples():
    assert primes_in_range(2, 10).tolist() == [2, 3, 5, 7]
    assert primes_in_range(2, 1).tolist() == []
    assert len(primes_in_range(2, 100)) == 25


def test_primes_up_to_agrees_with_trial_division():
    assert primes_in_range(2, 10**4).tolist() == trial_division_primes(10**4)


def test_prime_counts_at_known_checkpoints():
    # 10^7 spans five sieve segments, and the base primes grow twice
    assert len(primes_in_range(2, 10**6)) == 78498
    assert len(primes_in_range(2, 10**7)) == 664579


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
def test_first_blocks_of_a_huge_range_need_few_base_primes():
    # the sieve grows its base primes with the segment it is on, so a search
    # to 10^16 that stops at its first hit never sieves up to 10^8.  The peak
    # is the child's own VmHWM: ru_maxrss would inherit pytest's peak, which
    # depends on the tests that ran before.
    script = ("from powerchains.chains import find_chain_primes\n"
              "assert find_chain_primes([1, 2, 4], 2, 10**16, max_count=1) == [311]\n"
              "with open('/proc/self/status') as f:\n"
              "    print(next(l.split()[1] for l in f if l.startswith('VmHWM:')))")
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert int(out) < 100 * 1024  # KiB; the base primes up to 10^8 alone take ~300 MB


def test_primes_in_range_segment_boundaries():
    # windows inside one segment: near 2^21, and near 10^12, whose base
    # primes reach 10^6
    for lo, hi in ((2**21 - 60, 2**21 + 60), (10**12 - 300, 10**12 + 300)):
        got = primes_in_range(lo, hi).tolist()
        assert got == [n for n in range(lo, hi + 1) if is_prime(n)], lo
    # segments of 2^21 numbers start at 3 + j * 2^21; this range spans five
    # of them, and its base primes grow once after the first
    span = 2**21
    got = primes_in_range(2, 3 + 4 * span + 60)
    for j in range(1, 5):
        lo, hi = 3 + j * span - 60, 3 + j * span + 60
        near = got[(got >= lo) & (got <= hi)].tolist()
        assert near == [n for n in range(lo, hi + 1) if is_prime(n)], j
    assert primes_in_range(10, 9).tolist() == []
    assert primes_in_range(-5, 2).tolist() == [2]


def test_factor_divides_by_the_primes_up_to_1e6_however_far_the_sieve_went(monkeypatch):
    # trial division takes one gcd per block of 128 primes up to 10^6 (614
    # blocks) for a prime just above 10^14, and again after a window near
    # 10^13 has sieved with base primes past 3 * 10^6
    calls = []

    def counting_gcd(*args):
        calls.append(args)
        return gcd(*args)

    monkeypatch.setattr(arith, "gcd", counting_gcd)
    n = 100000000000031
    for _ in range(2):
        calls.clear()
        assert factor(n) == ((n, 1),)
        assert len(calls) == 614
        assert len(primes_in_range(10**13 - 200, 10**13 + 200)) > 0


def test_factor_trial_divides_each_block_once(monkeypatch):
    # factor(n) reads each block of 128 primes once, with one gcd: 71 sits in
    # the first block and 839 and 1471 in the second, and the third starts at
    # 1621, past the square root of the rest 6857; 999983 sits in the last of
    # the 614 blocks up to 10^6
    calls = []

    def counting_gcd(*args):
        calls.append(args)
        return gcd(*args)

    monkeypatch.setattr(arith, "gcd", counting_gcd)
    for n, want, blocks in ((600851475143, ((71, 1), (839, 1), (1471, 1), (6857, 1)), 3),
                            (999983 * 1000003, ((999983, 1), (1000003, 1)), 614)):
        calls.clear()
        assert factor(n) == want
        assert len(calls) == blocks, n


def test_windows_and_factor_agree_in_either_order():
    # windows near 10^12 and 10^13 and factorizations around 10^6 squared,
    # interleaved, in both orders, each order in a fresh interpreter whose
    # prime lists start empty
    steps = [[10**12 - 300, 10**12 + 300], 999983 * 1000003,
             [10**13 - 200, 10**13 + 200], 1000003 * 1000033,
             2**40 * 1000037, 100000000000031]
    script = ("import json, sys\n"
              "from powerchains.arith import factor, primes_in_range\n"
              "print(json.dumps([primes_in_range(*s).tolist() if isinstance(s, list)\n"
              "                  else factor(s) for s in json.loads(sys.argv[1])]))")
    for order in (steps, steps[::-1]):
        out = subprocess.run([sys.executable, "-c", script, json.dumps(order)],
                             capture_output=True, text=True, check=True,
                             timeout=60).stdout
        for step, got in zip(order, json.loads(out)):
            if isinstance(step, list):
                lo, hi = step
                assert got == [n for n in range(lo, hi + 1) if is_prime(n)], step
            else:
                assert prod(p**e for p, e in got) == step
                assert all(is_prime(p) for p, _ in got), step


# ---------- kth power residues ----------

def test_is_kth_residue_examples():
    # brute-force oracle: squares mod 7 are {0, 1, 2, 4}
    assert kth_powers_mod(7, 2) == {0, 1, 2, 4}
    assert is_kth_residue(2, 2, 7)
    assert not is_kth_residue(3, 2, 7)
    assert is_kth_residue(0, 5, 11)  # 0 = 0^5
    for a in range(11):
        assert is_kth_residue(a, 1, 11)


def test_is_kth_residue_validation():
    import numpy as np

    with pytest.raises(ValueError):
        is_kth_residue(2, 0, 7)
    with pytest.raises(ValueError):
        is_kth_residue(2, 2, 8)  # composite modulus
    assert is_kth_residue(2, 2, 7)
    assert is_kth_residue(2, 2, np.int64(7))
    with pytest.raises(ValueError):
        is_kth_residue(2, 2, 9)
    with pytest.raises(ValueError):
        is_kth_residue(2, 2, True)  # the modulus 1
    # a non-integer modulus is refused, not truncated to 7
    with pytest.raises(TypeError):
        is_kth_residue(2, 2, 7.9)
    with pytest.raises(TypeError):
        is_kth_residue(2, 2, "7")


def test_is_kth_residue_against_enumeration_oracle():
    for p in trial_division_primes(60):
        for k in range(1, 9):
            powers = kth_powers_mod(p, k)
            for a in range(p):
                assert is_kth_residue(a, k, p) == (a in powers), (a, k, p)


def test_gcd_reduction_property():
    rng = random.Random(7)
    for _ in range(300):
        p = rng.choice([3, 5, 7, 11, 13, 41, 97, 193])
        k = rng.randrange(1, 30)
        a = rng.randrange(1, p)
        assert is_kth_residue(a, k, p) == is_kth_residue(a, gcd(k, p - 1), p)


def test_residues_closed_under_multiplication():
    rng = random.Random(11)
    for _ in range(300):
        p = rng.choice([5, 7, 11, 13, 41, 97])
        k = rng.randrange(1, 9)
        a = rng.randrange(1, p)
        b = rng.randrange(1, p)
        if is_kth_residue(a, k, p) and is_kth_residue(b, k, p):
            assert is_kth_residue(a * b % p, k, p)


def test_negative_values_reduce_correctly():
    # -1 is a square mod p exactly for p = 1 (mod 4)
    for p in trial_division_primes(100):
        if p == 2:
            continue
        assert is_kth_residue(-1, 2, p) == (p % 4 == 1)


def test_width_guard():
    assert MAX_VALUE == 2**127 - 1
    with pytest.raises(OverflowLimitError):
        is_kth_residue(2**127, 2, 7)
