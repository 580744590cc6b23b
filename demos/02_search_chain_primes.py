#!/usr/bin/env python3
"""Search for primes realizing a candidate as a permutation chain.

Any sum-distinct candidate works for infinitely many primes; this script
finds the small ones, including an example with a negative term whose subset
sums include 0 (0 counts as a kth power residue: 0 = 0^k).
"""

from powerchains import exceptional_primes, find_chain_primes, is_sum_distinct, vegh_sequence

for base in (2, 3):
    r = vegh_sequence(3, base)
    print(f"geometric candidate {list(r)} (always sum-distinct: "
          f"{bool(is_sum_distinct(r))})")
    print(f"  exceptional primes: {list(exceptional_primes(r))}")
    for k in (2, 3, 4):
        hits = find_chain_primes(r, k, 10**5)
        print(f"  k={k}: {len(hits)} chain primes <= 10^5, first five {hits[:5]}")
    print()

r = [1, -1]
print(f"candidate {r}: subset sums are 1, -1 and 0")
print(f"  exceptional primes: {list(exceptional_primes(r))}  (1 = -1 mod 2)")
hits = find_chain_primes(r, 2, 200)
print(f"  k=2 chain primes <= 200: {hits}")
print("  exactly the primes p = 1 (mod 4): -1 must be a square, and the")
print("  zero sum is allowed by the 0-is-a-residue convention\n")

bad = [1, 2, 3]
print(f"candidate {bad} has the collision 1+2 = 3, so the search over any")
print(f"range is empty: {find_chain_primes(bad, 2, 10**5)}")
