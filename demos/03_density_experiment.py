#!/usr/bin/env python3
"""Predicted vs measured density of chain-realizing primes.

The prediction: a prime realizes the candidate whenever it splits completely
in the field generated by the kth roots of the subset sums (and a kth root
of unity), which by the Chebotarev density theorem happens for a fraction of
at least 1 / (phi(k) * |G|) of all primes, G the subgroup of Q*/(Q*)^k
generated by the subset sums.  For k = 2 the bound is exact.
"""

from powerchains import class_group, empirical_density, subset_sums

LIMIT = 10**6

experiments = [
    ([1, 2, 4], 2),
    ([1, 2, 4], 3),
    ([1, 3], 2),
    ([1, -1], 2),
    ([2], 4),
]

print(f"sweeping all primes up to {LIMIT:,}\n")
header = f"{'candidate':>12}  {'k':>2}  {'|G|':>4}  {'predicted':>10}  {'empirical':>10}  {'hits':>6}"
print(header)
print("-" * len(header))
for terms, k in experiments:
    order = class_group(subset_sums(terms), k)
    rep = empirical_density(terms, k, LIMIT)
    print(f"{str(terms):>12}  {k:>2}  {order:>4}  "
          f"{str(rep.predicted_lower_bound):>10}  {float(rep.empirical):>10.5f}  "
          f"{rep.hits:>6}")

print("""
Notes:
* [1,2,4] with k=2 is the classical case: G has order 16 (squarefree parts
  of 2,3,5,7 are independent), so exactly 1/16 of primes qualify.
* For k > 2 the prediction is a lower bound; the k=3 row overshoots it
  because any prime p with p-1 coprime to 3 makes every value a cube.
* [1,-1] shows the sign coordinate at work: -1 is a square at half of all
  primes (p = 1 mod 4).
""")
