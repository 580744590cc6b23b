"""Every integer argument of the public API goes through `operator.index`: a
float is refused with TypeError, not truncated, and a numpy integer gives
the answer of the equal int.  A bounded argument below its bound raises
ValueError in one form, "{name} must be >= {low}, got {value}"."""

import operator

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


K = ("k", 1)

# (function, arguments, position of the integer argument under test, its
# (name, lowest accepted value) or None where any integer is accepted), and a
# prefix of the test id for a second row of the same function and position:
# "ff_" for a verifier over F_p[t], "not_sum_distinct_" for a candidate that
# admits no chain prime, so the scan stops before it sieves
CASES = [
    (primes_in_range, (2, 30), 0, None),
    (primes_in_range, (2, 30), 1, None),
    (arith.is_prime, (2**40 + 15,), 0, None),
    (arith.factor, (2**40 + 15,), 0, None),
    (arith.factor, (-360,), 0, None),
    (arith.euler_phi, (360,), 0, ("n", 1)),
    (arith.is_kth_residue, (2, 2, 7), 0, None),
    (arith.is_kth_residue, (2, 2, 7), 1, K),
    (chains.vegh_sequence, (3, 2), 0, ("m", 1)),
    (chains.vegh_sequence, (3, 2), 1, ("base", 2)),
    (chains.is_chain, (R, 2, 311), 1, K),
    (chains.is_cyclic_chain, (R, 2, 311), 1, K),
    (chains.is_permutation_chain, (R, 2, 311), 1, K),
    (chains.naive_permutation_chain, (R, 2, 311), 1, K),
    (chains.find_chain_primes, (R, 2, 1000), 1, K),
    (chains.find_chain_primes, (R, 2, 1000), 2, None),
    (chains.find_chain_primes, (R, 2, 1000, 5), 3, ("max_count", 1)),
    (chains.chain_primes_in_range, (R, 2, 2, 1000), 1, K),
    (chains.chain_primes_in_range, (R, 2, 2, 1000), 2, None),
    (chains.chain_primes_in_range, (R, 2, 2, 1000), 3, None),
    (chains.chain_primes_in_range, ((1, 2, 3), 2, 2, 1000), 2, None, "not_sum_distinct_"),
    (chains.chain_primes_in_range, ((1, 2, 3), 2, 2, 1000), 3, None, "not_sum_distinct_"),
    (exceptional_primes, (R, 100), 1, None),
    (kummer.exponent_vector, (12, 2), 0, None),
    (kummer.exponent_vector, (12, 2), 1, K),
    (kummer.class_group, ((2, 3, 5), 2), 1, K),
    (kummer.predicted_density, ((2, 3, 5), 2), 1, K),
    (kummer.density_counts_in_range, (R, 2, 2, 1000), 1, K),
    (kummer.density_counts_in_range, (R, 2, 2, 1000), 2, None),
    (kummer.density_counts_in_range, (R, 2, 2, 1000), 3, None),
    (kummer.density_report_from_counts, (R, 2, 1000, 168, 4), 1, K),
    (kummer.density_report_from_counts, (R, 2, 1000, 168, 4), 2, ("limit", 2)),
    (kummer.empirical_density, (R, 2, 1000), 1, K),
    (ffield.is_kth_residue_ff, (FF_R[1], 2, FF_F), 1, K),
    (chains.is_chain, (FF_R, 2, FF_F), 1, K, "ff_"),
    (chains.is_cyclic_chain, (FF_R, 2, FF_F), 1, K, "ff_"),
    (chains.is_permutation_chain, (FF_R, 2, FF_F), 1, K, "ff_"),
    (chains.naive_permutation_chain, (FF_R, 2, FF_F), 1, K, "ff_"),
    (ffield.find_chain_irreducibles, (FF_R, 2, 3, 5), 1, K),
    (ffield.find_chain_irreducibles, (FF_R, 2, 3, 5), 2, None),
    (ffield.find_chain_irreducibles, (FF_R, 2, 3, 5), 3, ("max_degree", 1)),
    (ffield.irreducibles_of_degree, (2, 3), 0, None),
    (ffield.irreducibles_of_degree, (2, 3), 1, ("degree", 1)),
    (ffield.powmod, (FF_R[1], 5, FF_F), 1, ("exponent", 0)),
    (operator.pow, (FF_R[1], 5), 1, ("exponent", 0)),
]


def case_id(fn, args, i, bound, prefix=""):
    return f"{prefix}{fn.__name__}-{i}"


@pytest.mark.parametrize("fn,args,i,bound", [case[:4] for case in CASES],
                         ids=[case_id(*case) for case in CASES])
def test_integer_argument_is_taken_through_index(fn, args, i, bound):
    def call(value):
        return fn(*args[:i], value, *args[i + 1:])

    with pytest.raises(TypeError):
        call(float(args[i]))
    got = call(np.int64(args[i]))
    assert got == fn(*args)
    # an FFPoly over a numpy p compares equal to the int one: check the type
    polys = got if isinstance(got, list) else [got]
    assert all(type(f.p) is int for f in polys if isinstance(f, ffield.FFPoly))
    if bound is not None:
        name, low = bound
        with pytest.raises(ValueError) as e:
            call(low - 1)
        assert str(e.value) == f"{name} must be >= {low}, got {low - 1}"


def test_ffpoly_takes_its_characteristic_and_coefficients_through_index():
    assert ffield.FFPoly(3, (1, 2)) == ffield.FFPoly(3, (1, 2))  # warms the cache
    with pytest.raises(TypeError):
        ffield.FFPoly(3.0, (1, 2))
    with pytest.raises(TypeError):
        ffield.FFPoly(3, (1.5, 2))
    f = ffield.FFPoly(np.int64(3), (np.int64(4), 2))
    assert f == ffield.FFPoly(3, (1, 2))
    assert type(f.p) is int and all(type(c) is int for c in f.coeffs)
