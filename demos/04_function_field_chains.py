#!/usr/bin/env python3
"""Chains over F_p[t]: the polynomial candidate 1, t, t^2 and the
characteristic-p shortcut.

Irreducible polynomials play the role of primes, and the verifiers of the
integers take a polynomial candidate and an irreducible modulus as they are.  When k is divisible by the
characteristic p, only the prime-to-p part k' of k matters, because x -> x^p
permutes every residue field (Frobenius); for k a power of p the residue
condition is vacuous and only distinctness of the subset sums remains.
"""

from collections import Counter

from powerchains import (
    FFPoly,
    find_chain_irreducibles,
    irreducibles_of_degree,
    is_kth_residue_ff,
    is_permutation_chain,
    poly_to_text,
)

for p in (3, 5):
    t = FFPoly.gen(p)
    r = [t**0, t, t**2]
    print(f"=== F_{p}[t], candidate 1, t, t^2 ===")
    for k in (2, p):
        moduli = find_chain_irreducibles(r, k, p, 6)
        by_degree = Counter(m.degree for m in moduli)
        print(f"  k={k}: {len(moduli)} chain moduli of degree <= 6 "
              f"(by degree: {dict(sorted(by_degree.items()))})")
        first = moduli[0]
        print(f"     smallest: {poly_to_text(first)} = {first}")
    print()

print("The char-p reduction, concretely over F_3:")
f = irreducibles_of_degree(3, 2)[0]
t = FFPoly.gen(3)
print(f"modulus {poly_to_text(f)}; residue field has 9 elements")
for k in (2, 6, 18, 9):
    kp = k
    while kp % 3 == 0:
        kp //= 3
    print(f"  k={k:>2} (reduces to k'={kp}): t is a residue -> "
          f"{is_kth_residue_ff(t, k, f)}")

print("\nWith k = 9 = 3^2 every element is a residue, so any irreducible of")
print("degree >= 3 keeps the seven subset sums distinct and is a chain modulus:")
f3 = irreducibles_of_degree(3, 3)[0]
v = is_permutation_chain([t**0, t, t**2], 9, f3)
print(f"  {poly_to_text(f3)}: permutation chain = {v.is_permutation}")
