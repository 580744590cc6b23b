import copy
import pickle
import random
from itertools import product

import pytest

from powerchains import ffield
from powerchains.chains import (
    is_chain,
    is_cyclic_chain,
    is_permutation_chain,
    is_sum_distinct,
    naive_permutation_chain,
    subset_sums,
)
from powerchains.errors import InvalidCandidateError, SizeLimitError
from powerchains.ffield import (
    FFPoly,
    find_chain_irreducibles,
    irreducibles_of_degree,
    is_irreducible,
    is_kth_residue_ff,
    poly_from_text,
    poly_gcd,
    poly_to_text,
    powmod,
    residue_field,
)


def P(p, *coeffs):
    return FFPoly(p, tuple(coeffs))


def brute_kth_powers(f, k):
    """Oracle: the image of x -> x^k on the residue field, by repeated
    multiplication (independent of square-and-multiply)."""
    out = set()
    for x in residue_field(f):
        y = FFPoly.one(f.p)
        for _ in range(k):
            y = y * x % f
        out.add(y)
    return out


def mobius(n):
    m, cnt = 1, 0
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            cnt += 1
        else:
            d += 1
    if n > 1:
        cnt += 1
    return (-1) ** cnt


def necklace_count(p, d):
    divisors = [e for e in range(1, d + 1) if d % e == 0]
    return sum(mobius(e) * p ** (d // e) for e in divisors) // d


# ---------- arithmetic ----------

def test_freshman_dream_over_f2():
    t1 = P(2, 1, 1)  # t + 1
    assert t1 * t1 == P(2, 1, 0, 1)  # t^2 + 1


def test_divmod_example():
    q, r = divmod(P(3, 1, 0, 1), P(3, 0, 1))  # (t^2+1) / t over F_3
    assert q == P(3, 0, 1)
    assert r == P(3, 1)


def test_powmod_frobenius_example():
    # t^9 reduces to t in F_9 = F_3[t]/(t^2+1)
    assert powmod(FFPoly.gen(3), 9, P(3, 1, 0, 1)) == FFPoly.gen(3)
    # over a reducible modulus a^((q-1)/(p-1)) need not be a norm in F_p:
    # the public powmod (and Rabin's test through it) stays plain
    # square-and-multiply, checked against repeated multiplication
    for f in (P(3, 1, 2, 1), P(5, 0, 1, 1)):  # (t+1)^2 over F_3, t^2+t over F_5
        p = f.p
        e = (p**f.degree - 1) // (p - 1)
        assert not is_irreducible(f)
        got = []
        for coeffs in product(range(p), repeat=f.degree):
            a = FFPoly(p, coeffs)
            expected = FFPoly.one(p)
            for _ in range(e):
                expected = expected * a % f
            assert powmod(a, e, f) == expected, (f, a)
            got.append(expected)
        assert any(y.degree >= 1 for y in got), f


def test_f2_powmod_matches_schoolbook_square_and_multiply():
    # the F_2 bitmask loop against right-to-left square-and-multiply on
    # FFPoly * and %, which never reach the kernel's powmod: irreducible and
    # reducible moduli of degree 1-16 (the sieve tells them apart), zero,
    # unreduced and reduced bases, and the exponents of the residue test
    rng = random.Random(2)
    one = FFPoly.one(2)

    def oracle(a, e, f):
        result, base = one % f, a % f
        while e:
            if e & 1:
                result = result * base % f
            base = base * base % f
            e >>= 1
        return result

    for d in range(1, 17):
        irreducible = set(irreducibles_of_degree(2, d))
        moduli = {True: [], False: []}
        while len(moduli[True]) < 2 or len(moduli[False]) < 2 * (d > 1):
            f = FFPoly(2, tuple(rng.randrange(2) for _ in range(d)) + (1,))
            if len(moduli[f in irreducible]) < 2:
                moduli[f in irreducible].append(f)
        q = 2**d
        exponents = [0, 1, 2, q - 1, rng.randrange(2**20 + 1)]
        if (q - 1) % 3 == 0:
            exponents.append((q - 1) // 3)
        for f in moduli[True] + moduli[False]:
            bases = [FFPoly.zero(2), f, f * FFPoly.gen(2) + one,
                     FFPoly(2, [rng.randrange(2) for _ in range(2 * d + 3)]),
                     FFPoly(2, [rng.randrange(2) for _ in range(d)])]
            for a in bases:
                for e in exponents:
                    assert powmod(a, e, f) == oracle(a, e, f), (f, a, e)


def test_normalization_and_eval():
    f = FFPoly(5, (7, -1, 0, 0))
    assert f.coeffs == (2, 4)
    assert f.degree == 1
    assert FFPoly.zero(5).degree == -1
    assert f(3) == (2 + 4 * 3) % 5
    assert str(P(3, 1, 0, 1)) == "t^2 + 1"


def test_arithmetic_consistency():
    rng = random.Random(9)
    for _ in range(150):
        p = rng.choice([2, 3, 5])
        a = FFPoly(p, tuple(rng.randrange(p) for _ in range(rng.randrange(0, 6))))
        b = FFPoly(p, tuple(rng.randrange(p) for _ in range(rng.randrange(1, 6))))
        if b.is_zero():
            continue
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.degree < b.degree
        assert (a + b) - b == a
        assert a * b == b * a
        for x in range(p):
            assert (a * b)(x) == a(x) * b(x) % p


def test_characteristic_mismatch_and_zero_division():
    with pytest.raises(ValueError):
        P(2, 1) + P(3, 1)
    with pytest.raises(ZeroDivisionError):
        divmod(P(3, 1, 1), FFPoly.zero(3))
    with pytest.raises(ValueError):
        FFPoly(4, (1,))  # 4 is not prime
    # an operand that is neither an FFPoly nor an int is refused
    t = FFPoly.gen(5)
    for other in (1.5, "1"):
        for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b,
                   divmod, lambda a, b: b - a):
            with pytest.raises(TypeError):
                op(t, other)


def test_int_coercion():
    t = FFPoly.gen(3)
    assert 1 + t == P(3, 1, 1)
    assert t - 1 == P(3, 2, 1)
    assert 2 * t == P(3, 0, 2)
    assert t**2 == P(3, 0, 0, 1)
    t = FFPoly.gen(5)
    assert 3 - t == P(5, 3, 4)
    assert (t**2 + 1) // (t + 1) == P(5, 4, 1)


def test_ffpoly_is_an_immutable_hashable_value():
    # equal polynomials hash alike, and the hash is that of the tuple
    # (p, coeffs): it fixes the iteration order of a set of polynomials, and
    # with it the order of what the commands print
    f, g = FFPoly(5, (7, -1, 0)), P(5, 2, 4)
    assert f == g and f is not g and hash(f) == hash(g) == hash((5, (2, 4)))
    assert f != P(5, 2, 4, 1) and f != P(7, 2, 4)
    assert FFPoly.zero(3) == FFPoly(3, ()) and hash(FFPoly.zero(3)) == hash((3, ()))
    # an int is never equal to a polynomial, not even to a constant
    assert FFPoly(3, (1,)) != 1 and 1 != FFPoly(3, (1,))
    assert FFPoly(3, (1,)) != (3, (1,))
    assert len({P(3, 1, 2), P(3, 1, 2), P(3, 4, 5), P(3, 2)}) == 2
    for name in ("p", "coeffs"):
        with pytest.raises(AttributeError):
            setattr(f, name, 3)
        with pytest.raises(AttributeError):
            delattr(f, name)
    assert (f.p, f.coeffs) == (5, (2, 4))
    assert pickle.loads(pickle.dumps(f)) == f
    assert copy.deepcopy(f) == f
    assert repr(f) == "GF(5)[2,4]"


# ---------- irreducibility ----------

def test_is_irreducible_examples():
    assert is_irreducible(P(3, 1, 0, 1))  # t^2+1 has no roots mod 3
    assert not is_irreducible(P(5, 1, 0, 1))  # 2^2 + 1 = 0 mod 5
    assert is_irreducible(FFPoly.gen(7))  # t, degree 1
    with pytest.raises(ValueError):
        is_irreducible(FFPoly.one(3))


def test_sieve_matches_rabin_on_every_monic():
    # the sieve against the Rabin criterion over every monic, in base-p value
    # order, on the fields and degrees the benchmark enumerates, and on F_11
    # and F_13, where the sieve's digit updates wrap at larger digits
    for p, top in ((2, 12), (3, 7), (5, 6), (7, 4), (11, 3), (13, 3)):
        for d in range(1, top + 1):
            monics = [FFPoly(p, low[::-1] + (1,)) for low in product(range(p), repeat=d)]
            assert irreducibles_of_degree(p, d) == \
                [f for f in monics if is_irreducible(f)], (p, d)


def test_irreducibles_of_degree_examples():
    assert irreducibles_of_degree(2, 1) == [FFPoly.gen(2), P(2, 1, 1)]
    assert irreducibles_of_degree(2, 2) == [P(2, 1, 1, 1)]
    assert len(irreducibles_of_degree(3, 2)) == 3


def test_irreducible_counts_match_necklace_formula():
    for p in (2, 3, 5):
        for d in range(1, 7):
            assert len(irreducibles_of_degree(p, d)) == necklace_count(p, d), (p, d)


def test_irreducibles_ordering_and_monicity():
    for p, d in [(3, 2), (5, 3), (2, 5)]:
        polys = irreducibles_of_degree(p, d)
        assert all(f.is_monic() and f.degree == d for f in polys)
        values = [sum(c * p**i for i, c in enumerate(f.coeffs)) for f in polys]
        assert values == sorted(values)


def test_irreducible_modulus_validation():
    t = FFPoly.gen(3)
    assert is_kth_residue_ff(t, 1, P(3, 1, 0, 1))
    with pytest.raises(ValueError):
        is_kth_residue_ff(t, 1, P(3, 0, 0, 1))  # t^2 is reducible
    with pytest.raises(ValueError):
        is_kth_residue_ff(t, 1, P(3, 1, 0, 2))  # scales to t^2 + 2, reducible
    with pytest.raises(ValueError, match="not monic"):
        is_kth_residue_ff(t, 1, P(3))  # zero
    with pytest.raises(TypeError):
        is_kth_residue_ff(t, 1, (1, 0, 1))
    assert len(residue_field(P(3, 1, 0, 1))) == 9
    # the modulus is scaled to monic: 2t^2 + 2 stands for t^2 + 1
    assert residue_field(P(3, 2, 0, 2)) == residue_field(P(3, 1, 0, 1))


def test_one_rabin_test_per_modulus(monkeypatch):
    # a run of queries against one modulus, or against its scalar multiples,
    # runs Rabin's test once; a reducible modulus is still refused
    is_kth_residue_ff(FFPoly.gen(3), 2, P(3, 1, 0, 1))  # some other modulus last
    calls = []

    def counting(f):
        calls.append(f)
        return is_irreducible(f)

    monkeypatch.setattr(ffield, "is_irreducible", counting)
    f = irreducibles_of_degree(11, 3)[100]
    for i in range(50):
        is_kth_residue_ff(P(11, i % 11, i // 11), 2, f if i % 2 else 3 * f)
    assert len(calls) == 1
    with pytest.raises(ValueError, match="reducible"):
        is_kth_residue_ff(FFPoly.gen(11), 2, f * FFPoly.gen(11))
    assert len(calls) == 2


# ---------- residue test and the char-p reduction ----------

def test_kth_residue_ff_examples():
    f = P(3, 1, 0, 1)
    t = FFPoly.gen(3)
    # k = p: x -> x^p is onto, everything is a residue
    for a in residue_field(f):
        assert is_kth_residue_ff(a, 3, f)
    # k = 2: against brute-force enumeration of squares in F_9
    squares = brute_kth_powers(f, 2)
    assert is_kth_residue_ff(t, 2, f) == (t in squares)
    for a in residue_field(f):
        assert is_kth_residue_ff(a, 2, f) == (a in squares)
    # 1 = 1^k always
    for k in (1, 2, 5, 9):
        assert is_kth_residue_ff(FFPoly.one(3), k, f)


def test_char_p_reduction_property():
    # k = p^t * k' with (k', p) = 1: the kth and k'th residue tests agree,
    # both checked against brute-force enumeration on every irreducible.
    # k runs through both branches of the residue test, the norm to F_p
    # (gcd(k', q-1) divides p-1) and square-and-multiply (p = 3, k = 4 at
    # d = 2; p = 5, k = 3 at d = 2; F_2 at every k' > 1, reaching g = 3 at
    # even d), and d = 1
    ks = range(1, 28)
    for p, d in [(2, 2), (2, 3), (2, 4), (2, 6), (3, 2), (3, 3), (5, 1), (5, 2), (7, 2)]:
        for g in irreducibles_of_degree(p, d):
            elements = residue_field(g)
            # the kth powers for every k at once, by repeated multiplication
            powers = {k: set() for k in ks}
            for x in elements:
                y = FFPoly.one(p)
                for k in ks:
                    y = y * x % g
                    powers[k].add(y)
            for k in ks:
                kp = k
                while kp % p == 0:
                    kp //= p
                for a in elements:
                    got = is_kth_residue_ff(a, k, g)
                    assert got == (a in powers[k]), (p, g, k, a)
                    assert got == is_kth_residue_ff(a, kp, g)


def test_frobenius_is_a_bijection():
    for p, d in [(2, 2), (3, 2), (3, 3), (5, 1)]:
        f = irreducibles_of_degree(p, d)[-1]
        elements = residue_field(f)
        images = {powmod(x, p, f) for x in elements}
        assert len(images) == len(elements) == p**d


def test_kth_residue_ff_validation():
    f = P(3, 1, 0, 1)
    with pytest.raises(ValueError):
        is_kth_residue_ff(FFPoly.gen(3), 0, f)
    with pytest.raises(ValueError):
        is_kth_residue_ff(FFPoly.gen(5), 2, f)
    with pytest.raises(ValueError):
        is_kth_residue_ff(FFPoly.gen(3), 2, P(3, 0, 0, 1))  # reducible modulus
    r = [FFPoly.one(3), FFPoly.gen(3)]
    for call in (is_chain, is_cyclic_chain, is_permutation_chain,
                 naive_permutation_chain):
        for k in (0, -3):
            with pytest.raises(ValueError):
                call(r, k, f)
        with pytest.raises(ValueError, match="^candidate sequence must have at least one term$"):
            call([], 2, f)
        with pytest.raises(ValueError, match="^candidate terms must share one characteristic$"):
            call([FFPoly.one(3), FFPoly.gen(5)], 2, f)
    with pytest.raises(ValueError):
        find_chain_irreducibles(r, 0, 3, 2)
    with pytest.raises(ValueError, match="^modulus must have degree >= 1$"):
        powmod(FFPoly.gen(3), 2, P(3, 2))
    with pytest.raises(ValueError, match="^characteristic mismatch: F_5 vs F_3$"):
        powmod(FFPoly.gen(5), 2, f)


# ---------- polynomial chains ----------

def tpowers(p, m):
    t = FFPoly.gen(p)
    return [t**i for i in range(m)]


T3 = FFPoly.gen(3)
VERIFIERS = (is_chain, is_cyclic_chain, is_permutation_chain, naive_permutation_chain)
# (function, arguments, what is mixed up): the verifiers pick the ring from
# the modulus or the first term, and the other input must then belong to it
CROSS_RING = (
    [(fn, ([1, 2], 2, P(3, 1, 0, 1)), "int_terms_polynomial_modulus") for fn in VERIFIERS]
    + [(fn, ([T3**0, T3], 2, 7), "polynomial_terms_prime_modulus") for fn in VERIFIERS]
    + [(fn, ([1, T3],), "int_then_polynomial") for fn in (subset_sums, is_sum_distinct)]
    + [(fn, ([T3, 1],), "polynomial_then_int") for fn in (subset_sums, is_sum_distinct)]
)


@pytest.mark.parametrize("fn,args", [case[:2] for case in CROSS_RING],
                         ids=[f"{fn.__name__}-{kind}" for fn, _, kind in CROSS_RING])
def test_inputs_from_two_rings_raise_type_error(fn, args):
    with pytest.raises(TypeError):
        fn(*args)


def test_ff_sum_distinct_examples():
    for p in (2, 3, 5):
        assert is_sum_distinct(tpowers(p, 3))
    # over F_2, [1, 1] collides: subsets {1} and {2} share the sum 1
    res = is_sum_distinct([FFPoly.one(2), FFPoly.one(2)])
    assert not res
    assert res.collision == ((1,), (2,))
    # constants over F_3: sums {1, 2, 0} are three distinct field elements
    assert is_sum_distinct([FFPoly.constant(3, 1), FFPoly.constant(3, 2)])


def test_subset_sums_of_polynomials():
    sums = subset_sums(tpowers(3, 3))
    assert len(sums) == 7
    assert all(s.degree <= 2 for s in sums)
    with pytest.raises(SizeLimitError):
        subset_sums(tpowers(2, 30))


def test_ff_term_cap_is_fixed_at_24_wherever_e_is_built():
    r = tpowers(2, 25)
    # k = 1 and a degree-25 modulus: the window sums, of degree < 25, are
    # distinct residues, so the verdict reaches the permutation level
    f = P(2, 1, 0, 0, 1, *[0] * 21, 1)  # t^25 + t^3 + 1
    # mod t^2 + 1 over F_3 the first windows already fail, and the cap is
    # still checked on entry
    for call in (lambda: subset_sums(r),
                 lambda: is_sum_distinct(r),
                 lambda: is_permutation_chain(r, 1, f),
                 lambda: is_permutation_chain(tpowers(3, 25), 2, P(3, 1, 0, 1)),
                 lambda: find_chain_irreducibles(r, 1, 2, 1)):
        with pytest.raises(SizeLimitError, match="cap of 24 terms"):
            call()


def test_ff_permutation_chain_char_power_k():
    # k a power of p makes the residue test vacuous: the verdict reduces to
    # distinctness of the 7 subset sums mod f
    p = 3
    r = tpowers(p, 3)
    sums = list(subset_sums(r))
    for d in (2, 3, 4):
        for f in irreducibles_of_degree(p, d):
            expect = len({s % f for s in sums}) == 7
            v = is_permutation_chain(r, p**2, f)
            assert v.is_permutation == expect, f
            if d >= 3:
                assert v.is_permutation  # low-degree sums are their own residues


def test_ff_verdict_hierarchy_and_naive_oracle():
    rng = random.Random(13)
    for _ in range(40):
        p = rng.choice([2, 3, 5])
        m = rng.randrange(1, 4)
        terms = [FFPoly(p, tuple(rng.randrange(p) for _ in range(rng.randrange(0, 3))))
                 for _ in range(m)]
        k = rng.randrange(1, 7)
        d = rng.randrange(1, 4)
        f = rng.choice(irreducibles_of_degree(p, d))
        v = is_permutation_chain(terms, k, f)
        if v.is_permutation:
            assert v.is_cyclic
        if v.is_cyclic:
            assert v.is_chain
        assert v.is_chain == is_chain(terms, k, f)
        assert v.is_cyclic == is_cyclic_chain(terms, k, f)
        assert v.is_permutation == naive_permutation_chain(terms, k, f), (terms, k, f)


def test_constant_polynomials_agree_with_integers_mod_p():
    # constants mod t - a are the integers mod p, and the prime-to-p part k'
    # of k has gcd(k', p - 1) = gcd(k, p - 1), so every verdict level agrees
    rng = random.Random(29)
    for p in (2, 3, 5, 7, 11, 13):
        for k in range(1, 13):
            for _ in range(6):
                seq = [rng.randrange(-20, 21) for _ in range(rng.randrange(1, 6))]
                f = FFPoly(p, (-rng.randrange(p), 1))
                v = is_permutation_chain(seq, k, p)
                w = is_permutation_chain([FFPoly.constant(p, c) for c in seq], k, f)
                assert (w.is_chain, w.is_cyclic, w.is_permutation) == \
                    (v.is_chain, v.is_cyclic, v.is_permutation), (seq, k, p, f)


@pytest.mark.parametrize("terms, k, modulus, level, kind, description", [
    (["GF(3)[2]", "GF(3)[1]", "GF(3)[0,2]"], 2, "GF(3)[0,1]", "chain", "non_residue",
     "window sum 2 is not a 2nd power residue mod t"),
    (["GF(5)[1]", "GF(5)[4]", "GF(5)[1]"], 2, "GF(5)[0,1]", "chain", "collision",
     "window sum 1 occurs twice mod t"),
    (["GF(3)[0,1]", "GF(3)[1]", "GF(3)[2,2]"], 2, "GF(3)[0,1]", "chain", "collision",
     "window sums t and 0 are congruent mod t"),
    (["GF(7)[1]", "GF(7)[4,4]", "GF(7)[4]"], 2, "GF(7)[4,0,0,1]", "cyclic", "non_residue",
     "rotation starting at term 2: window sum 5 is not a 2nd power residue mod t^3 + 4"),
    (["GF(7)[2]", "GF(7)[6]", "GF(7)[4]"], 2, "GF(7)[2,0,1]", "cyclic", "collision",
     "rotation starting at term 2: window sum 6 occurs twice mod t^2 + 2"),
    (["GF(5)[1]", "GF(5)[0,1]", "GF(5)[0,0,0,1]", "GF(5)[0,0,1]"], 2, "GF(5)[1,2,2,1,1]",
     "permutation", "non_residue",
     "subset sum t^3 + 1 is not a 2nd power residue mod t^4 + t^3 + 2t^2 + 2t + 1"),
    (["GF(5)[1]", "GF(5)[0,1]", "GF(5)[0,0,1]", "GF(5)[0,0,0,1]"], 1, "GF(5)[4,1,0,1]",
     "permutation", "collision",
     "subset sums 1 and t^3 + t are congruent mod t^3 + t + 4"),
    (["GF(5)[1]", "GF(5)[2,2]", "GF(5)[3]", "GF(5)[4,3]"], 3, "GF(5)[3,0,4,1]",
     "permutation", "collision",
     "subset sums collide in F_5[t]: term subsets [1] and [2, 4] both sum to 1"),
])
def test_ff_failure_descriptions(terms, k, modulus, level, kind, description):
    r = [poly_from_text(t) for t in terms]
    witness = is_permutation_chain(r, k, poly_from_text(modulus)).failure_witness
    assert (witness.level, witness.kind, witness.description) == (level, kind, description)


def test_ff_permutation_chain_matches_the_naive_oracle():
    f = irreducibles_of_degree(3, 3)[0]
    v = is_permutation_chain(tpowers(3, 3), 9, f)
    assert v.is_permutation
    assert v.is_permutation == naive_permutation_chain(tpowers(3, 3), 9, f)


def test_ff_permutation_invariance():
    from itertools import permutations as perms
    rng = random.Random(21)
    for _ in range(10):
        p = rng.choice([2, 3, 5])
        terms = [FFPoly(p, tuple(rng.randrange(p) for _ in range(rng.randrange(0, 3))))
                 for _ in range(3)]
        k = rng.randrange(1, 5)
        f = rng.choice(irreducibles_of_degree(p, rng.randrange(1, 4)))
        base = is_permutation_chain(terms, k, f).is_permutation
        for order in perms(terms):
            assert is_permutation_chain(list(order), k, f).is_permutation == base


# ---------- search over irreducibles ----------

def test_find_chain_irreducibles_char_power_case():
    # k = p = 3, r = 1, t, t^2: qualifying moduli are exactly those keeping
    # the 7 subset sums distinct; an exhaustive filter is the oracle
    r = tpowers(3, 3)
    got = find_chain_irreducibles(r, 3, 3, 4)
    sums = list(subset_sums(r))
    expected = [f for d in range(1, 5) for f in irreducibles_of_degree(3, d)
                if len({s % f for s in sums}) == 7]
    assert got == expected
    # degree 1 and 2 residue rings are too small / collide; degrees 3 and 4
    # work in full: 8 + 18 moduli
    assert len(got) == 26
    assert min(m.degree for m in got) == 3


def test_find_chain_irreducibles_f5_k2_low_degree():
    # independently verified: t^2+t+1 is the unique degree <= 2 modulus over
    # F_5 making 1, t, t^2 a permutation chain of squares
    got = find_chain_irreducibles(tpowers(5, 3), 2, 5, 2)
    assert got == [P(5, 1, 1, 1)]
    squares = brute_kth_powers(got[0], 2)
    sums = subset_sums(tpowers(5, 3))
    assert all(s % got[0] in squares for s in sums)


def test_find_chain_irreducibles_ordering_and_verification():
    got = find_chain_irreducibles(tpowers(3, 3), 2, 3, 4)
    keys = [(m.degree, m.coeffs[::-1]) for m in got]
    assert keys == sorted(keys)
    # every returned modulus passes the full verdict
    for m in got[:6]:
        assert is_permutation_chain(tpowers(3, 3), 2, m).is_permutation


def test_t_power_candidates_always_find_moduli():
    # geometric polynomial candidates admit chain moduli of degree <= 6 for
    # every small characteristic and exponent
    for p in (2, 3, 5):
        for m in (1, 2, 3):
            r = tpowers(p, m)
            for k in (1, 2, 3, 4):
                found = []
                for d in range(1, 7):
                    found = find_chain_irreducibles(r, k, p, d)
                    if found:
                        break
                assert found, (p, m, k)
                assert is_permutation_chain(r, k, found[0]).is_permutation


def test_find_chain_irreducibles_rejects_non_sum_distinct():
    with pytest.raises(InvalidCandidateError):
        find_chain_irreducibles([FFPoly.one(2), FFPoly.one(2)], 2, 2, 3)
    with pytest.raises(ValueError):
        find_chain_irreducibles(tpowers(3, 2), 2, 5, 3)  # wrong characteristic


def _oracle_kth_powers(f, p, ks):
    """({k: the kth powers of F_p[t]/(f)}, reduction mod f) for monic f
    (lowest degree first), by schoolbook arithmetic on coefficient lists and
    no library code.  ks is ascending from 1; each x^k is the product of two
    earlier powers (an addition chain), not square-and-multiply."""
    d = len(f) - 1

    def reduce(c):
        c = list(c) + [0] * max(d - len(c), 0)
        for i in range(len(c) - 1, d - 1, -1):
            q = c.pop() % p
            for j in range(d):
                c[i - d + j] -= q * f[j]
        return tuple(x % p for x in c)

    def mulmod(a, b):
        c = [0] * (2 * d - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    c[j] += x * y
        return reduce(c)

    # each k after the first as the sum of two earlier ones
    chain, have = [], [1]
    for k in ks[1:]:
        a = max(a for a in have if k - a in have)
        chain.append((k, a, k - a))
        have.append(k)
    powers = {k: set() for k in ks}
    for x in product(range(p), repeat=d):
        pw = {1: x}
        for k, a, b in chain:
            pw[k] = mulmod(pw[a], pw[b])
        for k in ks:
            powers[k].add(pw[k])
    return powers, reduce


def _oracle_subset_sums(terms, p):
    """The nonempty subset sums of terms (coefficient lists of length <= 4),
    each as a 4-tuple, in mask order."""
    sums = []
    for mask in range(1, 1 << len(terms)):
        s = [0] * 4
        for i, t in enumerate(terms):
            if mask >> i & 1:
                s = [(a + b) % p for a, b in zip(s, t + [0] * (4 - len(t)))]
        sums.append(tuple(s))
    return sums


def test_find_chain_irreducibles_matches_a_schoolbook_residue_oracle():
    # every irreducible with a residue field of at most 343 elements,
    # modulus by modulus: chain modulus iff E is distinct mod f and every
    # element of E is a kth power, with E, the reduction and the kth powers
    # all computed here on plain coefficient lists
    rng = random.Random(31)
    for p, top in ((2, 8), (3, 5), (5, 3), (7, 3)):
        ks = sorted({1, 2, 3, 4, 6, p, 2 * p})
        fields = [(f, *_oracle_kth_powers(f.coeffs, p, ks))
                  for d in range(1, top + 1) for f in irreducibles_of_degree(p, d)]
        # fixed candidates first: terms of degree <= 1 reach the moduli above
        # the top degree of E, where only the residue test runs, also at
        # p = 5 and 7; t and (p - 1)t put the zero polynomial in E
        candidates = [[[0, 1], [0, p - 1]]] if p > 2 else []
        if p >= 5:
            candidates += [[[1], [0, 1]], [[1], [0, 1], [2, 1]]]
        fixed = len(candidates)
        while len(candidates) < fixed + 3:
            m = rng.randrange(2, 5)
            terms = [[rng.randrange(p) for _ in range(rng.randrange(4))] + [rng.randrange(1, p)]
                     for _ in range(m)]
            sums = _oracle_subset_sums(terms, p)
            if len(set(sums)) == len(sums):  # else not sum-distinct: draw again
                candidates.append(terms)
        for terms in candidates:
            sums = _oracle_subset_sums(terms, p)
            assert len(set(sums)) == len(sums), terms
            r = [FFPoly(p, tuple(t)) for t in terms]
            found = {k: set(find_chain_irreducibles(r, k, p, top)) for k in ks}
            for f, powers, reduce in fields:
                residues = [reduce(s) for s in sums]
                distinct = len(set(residues)) == len(residues)
                for k in ks:
                    expected = distinct and all(a in powers[k] for a in residues)
                    assert (f in found[k]) == expected, (p, terms, k, f)


def test_enumeration_beyond_the_monic_cap_fails_before_any_work(monkeypatch):
    # the fields the CLI refuses, at the real cap, each in well under a second
    for p, d in ((2, 17), (257, 2), (2, 10**9), (1000003, 2)):
        with pytest.raises(SizeLimitError, match="enumeration cap of 65536 monics"):
            irreducibles_of_degree(p, d)
    for p, top in ((2, 16), (101, 3), (2, 10**9), (1000003, 2)):
        with pytest.raises(SizeLimitError, match=f"degree 1..{top} over F_{p} number"):
            find_chain_irreducibles(tpowers(p, 2), 2, p, top)
    # the boundary, on a smaller cap: the sieve takes p^d monics, the search
    # the monics of every degree up to its bound (2 + 4 + ... + 2^d)
    monkeypatch.setattr(ffield, "MAX_MONICS", 64)
    assert len(irreducibles_of_degree(2, 6)) == necklace_count(2, 6)
    with pytest.raises(SizeLimitError, match="degree 7 over F_2 number"):
        irreducibles_of_degree(2, 7)
    assert find_chain_irreducibles(tpowers(2, 2), 1, 2, 5)
    with pytest.raises(SizeLimitError, match="degree 1..6 over F_2 number"):
        find_chain_irreducibles(tpowers(2, 2), 1, 2, 6)


# ---------- text format ----------

def test_poly_text_round_trip():
    f = P(3, 1, 0, 1)
    assert poly_to_text(f) == "GF(3)[1,0,1]"
    assert poly_from_text("GF(3)[1,0,1]") == f
    assert poly_from_text("GF(3)[]") == FFPoly.zero(3)
    assert poly_to_text(FFPoly.zero(3)) == "GF(3)[0]"
    assert poly_from_text("GF(3)[0]") == FFPoly.zero(3)
    assert poly_from_text("GF(5)[-1,7]") == P(5, 4, 2)
    rng = random.Random(15)
    for _ in range(50):
        p = rng.choice([2, 3, 5, 7])
        g = FFPoly(p, tuple(rng.randrange(p) for _ in range(rng.randrange(0, 6))))
        assert poly_from_text(poly_to_text(g)) == g


def test_poly_text_errors():
    for bad in ("GF(3)(1,0,1)", "GF(3)[1,,1]", "GF(3)[1 0]", "GF(4)[1,1]", "t^2+1"):
        with pytest.raises(ValueError):
            poly_from_text(bad)


def test_poly_gcd():
    a = P(3, 1, 0, 1) * P(3, 1, 1)
    b = P(3, 1, 0, 1) * P(3, 2, 1)
    assert poly_gcd(a, b) == P(3, 1, 0, 1)
    assert poly_gcd(a, FFPoly.zero(3)) == a.monic()
