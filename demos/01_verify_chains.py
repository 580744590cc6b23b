#!/usr/bin/env python3
"""Walkthrough: what chain / cyclic chain / permutation chain mean.

A sequence r_1..r_m is a chain of kth power residues mod p when its
m(m+1)/2 window sums (sums of consecutive terms) are pairwise distinct mod p
and each is a kth power residue.  Rotations give cyclic chains, arbitrary
reorderings give permutation chains.
"""

from powerchains import is_permutation_chain, naive_permutation_chain, subset_sums

r = [1, 2, 4]
print(f"candidate r = {r}")
print(f"subset sums (= window sums over all orderings): "
      f"{sorted(subset_sums(r))}\n")

for k, p in [(1, 11), (2, 7), (2, 23), (2, 311)]:
    v = is_permutation_chain(r, k, p)
    print(f"k={k}, p={p}:")
    print(f"  chain={v.is_chain}  cyclic={v.is_cyclic}  permutation={v.is_permutation}")
    if v.failure_witness:
        print(f"  first violation: {v.failure_witness.description}")
    print()

print("At p=311 every value 1..7 is a quadratic residue, so every ordering")
print("works; 311 is the smallest such prime.\n")

# the subset-sum verdict agrees with literally trying all 3! orderings
for k, p in [(1, 11), (2, 7), (2, 311)]:
    fast = is_permutation_chain(r, k, p).is_permutation
    slow = naive_permutation_chain(r, k, p)
    print(f"k={k}, p={p}: subset-based={fast}, all-orderings={slow}")

print("\nA colliding candidate can never be a permutation chain (1+2 = 3):")
bad = [1, 2, 3]
v = is_permutation_chain(bad, 1, 101)
print(f"r = {bad}, k=1, p=101: permutation={v.is_permutation}")
print(f"  reason: {v.failure_witness.description}")
