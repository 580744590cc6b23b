"""Every integer argument of the public API goes through `operator.index`: a
float is refused with TypeError, not truncated, and a numpy integer gives
the answer of the equal int."""

import numpy as np
import pytest

from powerchains import arith, chains, ffield, kummer

R = (1, 2, 4)
FF_R = (ffield.FFPoly(3, (1,)), ffield.FFPoly(3, (0, 1)), ffield.FFPoly(3, (0, 0, 1)))
FF_F = ffield.poly_from_text("GF(3)[1,1,1,1,1]")


# wrappers: an array answer compared as a list, a keyword-only argument
# passed by position
def primes_in_range(lo, hi):
    return arith.primes_in_range(lo, hi).tolist()


def exceptional_primes(r, limit):
    return chains.exceptional_primes(r, limit=limit)


# (function, arguments, position of the integer argument under test), and a
# prefix of the test id for a second row of the same function and position:
# "ff_" for a verifier over F_p[t], "not_sum_distinct_" for a candidate that
# admits no chain prime, so the scan stops before it sieves
CASES = [
    (primes_in_range, (2, 30), 0),
    (primes_in_range, (2, 30), 1),
    (arith.is_prime, (2**40 + 15,), 0),
    (arith.factor, (2**40 + 15,), 0),
    (arith.factor, (-360,), 0),
    (arith.euler_phi, (360,), 0),
    (arith.is_kth_residue, (2, 2, 7), 0),
    (arith.is_kth_residue, (2, 2, 7), 1),
    (chains.vegh_sequence, (3, 2), 0),
    (chains.vegh_sequence, (3, 2), 1),
    (chains.is_chain, (R, 2, 311), 1),
    (chains.is_cyclic_chain, (R, 2, 311), 1),
    (chains.is_permutation_chain, (R, 2, 311), 1),
    (chains.naive_permutation_chain, (R, 2, 311), 1),
    (chains.find_chain_primes, (R, 2, 1000), 1),
    (chains.find_chain_primes, (R, 2, 1000), 2),
    (chains.find_chain_primes, (R, 2, 1000, 5), 3),
    (chains.chain_primes_in_range, (R, 2, 2, 1000), 1),
    (chains.chain_primes_in_range, (R, 2, 2, 1000), 2),
    (chains.chain_primes_in_range, (R, 2, 2, 1000), 3),
    (chains.chain_primes_in_range, ((1, 2, 3), 2, 2, 1000), 2, "not_sum_distinct_"),
    (chains.chain_primes_in_range, ((1, 2, 3), 2, 2, 1000), 3, "not_sum_distinct_"),
    (exceptional_primes, (R, 100), 1),
    (kummer.exponent_vector, (12, 2), 0),
    (kummer.exponent_vector, (12, 2), 1),
    (kummer.class_group, ((2, 3, 5), 2), 1),
    (kummer.predicted_density, ((2, 3, 5), 2), 1),
    (kummer.density_counts_in_range, (R, 2, 2, 1000), 1),
    (kummer.density_counts_in_range, (R, 2, 2, 1000), 2),
    (kummer.density_counts_in_range, (R, 2, 2, 1000), 3),
    (kummer.density_report_from_counts, (R, 2, 1000, 168, 4), 1),
    (kummer.density_report_from_counts, (R, 2, 1000, 168, 4), 2),
    (kummer.empirical_density, (R, 2, 1000), 1),
    (ffield.is_kth_residue_ff, (FF_R[1], 2, FF_F), 1),
    (chains.is_chain, (FF_R, 2, FF_F), 1, "ff_"),
    (chains.is_cyclic_chain, (FF_R, 2, FF_F), 1, "ff_"),
    (chains.is_permutation_chain, (FF_R, 2, FF_F), 1, "ff_"),
    (chains.naive_permutation_chain, (FF_R, 2, FF_F), 1, "ff_"),
    (ffield.find_chain_irreducibles, (FF_R, 2, 3, 5), 1),
]


def case_id(fn, args, i, prefix=""):
    return f"{prefix}{fn.__name__}-{i}"


@pytest.mark.parametrize("fn,args,i", [case[:3] for case in CASES],
                         ids=[case_id(*case) for case in CASES])
def test_integer_argument_is_taken_through_index(fn, args, i):
    def call(value):
        return fn(*args[:i], value, *args[i + 1:])

    with pytest.raises(TypeError):
        call(float(args[i]))
    assert call(np.int64(args[i])) == fn(*args)


def test_ffpoly_takes_its_characteristic_and_coefficients_through_index():
    assert ffield.FFPoly(3, (1, 2)) == ffield.FFPoly(3, (1, 2))  # warms the cache
    with pytest.raises(TypeError):
        ffield.FFPoly(3.0, (1, 2))
    with pytest.raises(TypeError):
        ffield.FFPoly(3, (1.5, 2))
    f = ffield.FFPoly(np.int64(3), (np.int64(4), 2))
    assert f == ffield.FFPoly(3, (1, 2))
    assert type(f.p) is int and all(type(c) is int for c in f.coeffs)
