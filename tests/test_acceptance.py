"""Acceptance suite: one test per criterion, each printing a pass line with
its runtime (run with -s to see them).  Tolerances and budgets are asserted
exactly as stated; the math oracles are computed in-test, independently of
the code paths they check.
"""

import random
import time
from fractions import Fraction
from itertools import permutations

from powerchains import arith, chains, ffield, kummer


def _report(n, elapsed, detail):
    print(f"[acceptance] criterion {n} PASS ({elapsed:.1f}s): {detail}")


def _gf2_rank(masks):
    basis, rank = [], 0
    for row in masks:
        for b in basis:
            row = min(row, row ^ b)
        if row:
            basis.append(row)
            rank += 1
    return rank


def _squarefree_mask(n, slots):
    mask = 0
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e % 2:
            mask ^= 1 << slots.setdefault(d, len(slots))
        d += 1
    if n > 1:
        mask ^= 1 << slots.setdefault(n, len(slots))
    return mask


def test_c1_residue_test_oracle():
    """is_kth_residue equals brute-force power enumeration: p < 200, k <= 8."""
    start = time.monotonic()
    mismatches = 0
    checked = 0
    for p in arith.primes_in_range(2, 199).tolist():
        for k in range(1, 9):
            powers = {pow(x, k, p) for x in range(p)}
            for a in range(p):
                checked += 1
                if arith.is_kth_residue(a, k, p) != (a in powers):
                    mismatches += 1
    elapsed = time.monotonic() - start
    assert mismatches == 0
    assert elapsed < 10.0, f"budget exceeded: {elapsed:.1f}s"
    _report(1, elapsed, f"{checked} residue queries, 0 mismatches")


def test_c2_permutation_subset_equivalence():
    """Window sums over all m! orderings equal the subset-sum set."""
    start = time.monotonic()
    rng = random.Random(20240202)
    for trial in range(200):
        m = rng.randrange(1, 7)
        terms = [rng.randrange(-50, 51) for _ in range(m)]
        windows = set()
        for perm in permutations(terms):
            for i in range(m):
                s = 0
                for j in range(i, m):
                    s += perm[j]
                    windows.add(s)
        assert windows == set(chains.subset_sums(terms)), terms
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"budget exceeded: {elapsed:.1f}s"
    _report(2, elapsed, "200 sequences, exhaustive over all orderings")


def test_c3_vegh_density_check():
    """r = [1,2,4], k = 2: predicted exactly 1/16, empirical within 5%."""
    start = time.monotonic()
    # independent derivation of the prediction: GF(2) rank of the squarefree
    # indicator vectors of {2,...,7} ({1} is trivial)
    slots: dict[int, int] = {}
    masks = [_squarefree_mask(c, slots) for c in range(2, 8)]
    rank = _gf2_rank(masks)
    assert rank == 4
    predicted = kummer.predicted_density(chains.subset_sums([1, 2, 4]), 2)
    assert predicted == Fraction(1, 2**rank) == Fraction(1, 16)

    report = kummer.empirical_density([1, 2, 4], 2, 10**6)  # single-threaded
    tolerance = Fraction(1, 16) * Fraction(5, 100)
    assert abs(report.empirical - Fraction(1, 16)) <= tolerance, report
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"budget exceeded: {elapsed:.1f}s"
    _report(3, elapsed,
            f"predicted 1/16, empirical {report.empirical} "
            f"({float(report.empirical):.5f}) over {report.total_primes} primes")


def test_c4_chain_primes_exist_for_random_candidates():
    """20 random sum-distinct candidates, k in {2,3}: primes below 10^6 exist."""
    start = time.monotonic()
    rng = random.Random(20240404)
    candidates = []
    while len(candidates) < 20:
        m = rng.randrange(1, 4)
        terms = [rng.randrange(1, 21) for _ in range(m)]
        if chains.is_sum_distinct(terms):
            candidates.append(terms)
    found = 0
    for terms in candidates:
        for k in (2, 3):
            hits = chains.find_chain_primes(terms, k, 10**6)
            assert hits, (terms, k)
            found += 1
            p = hits[0]
            if p <= 20000:  # oracle-verify the first hit
                powers = {pow(x, k, p) for x in range(p)}
                values = chains.subset_sums(terms)
                assert len({v % p for v in values}) == len(values)
                assert all(v % p in powers for v in values), (terms, k, p)
    elapsed = time.monotonic() - start
    assert found == 40
    assert elapsed < 300.0, f"budget exceeded: {elapsed:.1f}s"
    _report(4, elapsed, "40 full searches to 10^6, all nonempty")


def test_c5_necessity_of_sum_distinctness():
    """[1,2,3] collides (1+2 = 3): no chain primes for k = 1, 2, 3."""
    start = time.monotonic()
    for k in (1, 2, 3):
        assert chains.find_chain_primes([1, 2, 3], k, 10**5) == []
        for p in (2, 5, 101, 99991):
            assert not chains.is_permutation_chain([1, 2, 3], k, p).is_permutation
    elapsed = time.monotonic() - start
    _report(5, elapsed, "collision 1+2 = 3 rules out every modulus")


def test_c6_char_p_reduction_over_f3():
    """p = 3, every irreducible of degree <= 4, k in {3,9,6,18}: the residue
    test equals brute force and equals its prime-to-p reduction."""
    start = time.monotonic()
    mismatches = 0
    checked = 0
    for d in range(1, 5):
        for f in ffield.irreducibles_of_degree(3, d):
            elements = ffield.residue_field(f)
            for k in (3, 9, 6, 18):
                kp = k
                while kp % 3 == 0:
                    kp //= 3
                powers = set()
                for x in elements:
                    y = ffield.FFPoly(3, (1,))
                    for _ in range(k):
                        y = y * x % f
                    powers.add(y)
                for a in elements:
                    checked += 1
                    got = ffield.is_kth_residue_ff(a, k, f)
                    if got != (a in powers) or got != ffield.is_kth_residue_ff(a, kp, f):
                        mismatches += 1
    elapsed = time.monotonic() - start
    assert mismatches == 0
    _report(6, elapsed, f"{checked} queries across 32 moduli, 0 mismatches")


def test_c7_t_power_chains_over_function_fields():
    """r = 1, t, t^2 over F_3 and F_5, k in {2, p}: at least 3 moduli of
    degree <= 6, low-degree ones verified by residue enumeration."""
    start = time.monotonic()
    for p in (3, 5):
        t = ffield.FFPoly.gen(p)
        r = [t**0, t, t**2]
        for k in (2, p):
            moduli = ffield.find_chain_irreducibles(r, k, p, 6)
            assert len(moduli) >= 3, (p, k, len(moduli))
            sums = list(chains.subset_sums(r))
            for m in moduli:
                if m.degree > 3:
                    continue
                powers = set()
                for x in ffield.residue_field(m):
                    y = ffield.FFPoly(p, (1,))
                    for _ in range(k):
                        y = y * x % m
                    powers.add(y)
                reduced = [s % m for s in sums]
                assert len(set(reduced)) == 7, (p, k, m)
                assert all(a in powers for a in reduced), (p, k, m)
    elapsed = time.monotonic() - start
    _report(7, elapsed, "both characteristics and exponents, >= 3 moduli each")


def test_c8_exceptional_set_soundness():
    """Outside the exceptional set, subset sums stay distinct mod p."""
    start = time.monotonic()
    rng = random.Random(20240808)
    primes = arith.primes_in_range(2, 10**4).tolist()
    violations = 0
    done = 0
    while done < 100:
        m = rng.randrange(1, 5)
        terms = [rng.randrange(-50, 51) for _ in range(m)]
        if not chains.is_sum_distinct(terms):
            continue
        done += 1
        exceptional = set(chains.exceptional_primes(terms))
        values = sorted(chains.subset_sums(terms))
        for p in primes:
            if p in exceptional:
                continue
            if len({v % p for v in values}) != len(values):
                violations += 1
    elapsed = time.monotonic() - start
    assert violations == 0
    _report(8, elapsed, "100 candidates x 1229 primes, 0 violations")


def test_c9_class_group_elimination_vs_enumeration():
    """Mod-k elimination order equals brute-force subgroup closure."""
    start = time.monotonic()
    rng = random.Random(20240909)
    for _ in range(100):
        k = rng.randrange(1, 7)
        gens = [rng.randrange(2, 51) for _ in range(rng.randrange(1, 5))]
        order = kummer.class_group(set(gens), k)
        # the generators: exponent vectors of the sorted nonzero elements
        rows = [kummer.exponent_vector(c, k) for c in sorted(set(gens))]
        positions = sorted({pos for ev in rows for pos, _ in ev})
        index = {pos: i for i, pos in enumerate(positions)}
        vectors = []
        for ev in rows:
            row = [0] * len(positions)
            for pos, e in ev:
                row[index[pos]] = e
            vectors.append(tuple(row))
        # closure oracle
        width = len(positions)
        zero = (0,) * width
        seen = {zero}
        frontier = [zero]
        while frontier:
            nxt = []
            for v in frontier:
                for gen in vectors:
                    w = tuple((a + b) % k for a, b in zip(v, gen))
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
            frontier = nxt
        assert order == len(seen), (gens, k)
    elapsed = time.monotonic() - start
    _report(9, elapsed, "100 random generator sets, k <= 6")
