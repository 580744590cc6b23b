"""Output checks for one job: parse the CLI's JSON and test it against the
independent oracle.  `check_output` returns None when the output passes and
a one-line reason when it does not.

Answers are spot-checked from first principles: Euler's criterion with
built-in `pow` over the subset sums for a sample of reported and rejected
primes and for every prime below 1000; prime totals against our own sieve;
exceptional primes against the subset-sum differences; irreducible counts
per degree against the necklace formula; and the same chain test in
F_p[t]/(f) for every modulus of the small degrees and a sample of the rest.
"""

from __future__ import annotations

import math
import random

import oracle

SAMPLE = 40          # reported / rejected moduli checked per job
EXACT_BELOW = 1000   # every prime below this is checked both ways
EXACT_MONICS = 200   # every degree with at most this many monics, likewise


class CheckFailed(Exception):
    pass


def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def scanned_bound(job, result) -> int:
    """Largest prime bound the job's scan is known to have covered: the
    limit, or for a --max-count job that filled its count, the last prime
    it returned."""
    primes = result.get("primes")
    if job.max_count is not None and len(primes) >= job.max_count:
        return primes[-1]
    return job.limit


def expected_exit(job, result: dict) -> int:
    """The documented exit code: 0 for an affirmative result, else 1."""
    found = {"search": "primes", "density": "hits", "ff-search": "moduli"}.get(job.command)
    return 0 if found is None or result[found] else 1


def check_output(job, payload: dict, rng: random.Random,
                 table: oracle.PrimeTable) -> str | None:
    try:
        _expect(payload.get("config", {}).get("command") == job.command,
                "config echoes another command")
        result = payload["result"]
        if job.command == "search":
            _check_search(job, result, rng, table)
        elif job.command == "density":
            _check_density(job, result, rng, table)
        elif job.command == "exceptional":
            _check_exceptional(job, result, rng, table)
        elif job.command == "ff-search":
            _check_ff_search(job, result, rng)
        else:
            raise CheckFailed(f"no check for {job.command}")
    except CheckFailed as e:
        return str(e)
    except (KeyError, TypeError, ValueError, IndexError) as e:
        return f"malformed result: {type(e).__name__}: {e}"
    return None


def _values(job) -> list[int]:
    return sorted(oracle.subset_sums(job.terms))


def _check_search(job, result, rng, table) -> None:
    values = _values(job)
    primes = result["primes"]
    _expect(result["sum_distinct"] is True, "sum_distinct is not true")
    _expect(result["count"] == len(primes), "count differs from the list length")
    _expect(all(a < b for a, b in zip(primes, primes[1:])), "primes not ascending")
    _expect(not primes or (primes[0] >= 2 and primes[-1] <= job.limit),
            "prime outside [2, limit]")
    if job.max_count is not None:
        _expect(len(primes) <= job.max_count, "more primes than --max-count")
    reported = set(primes)
    top = scanned_bound(job, result)
    for p in table.upto(min(top, EXACT_BELOW)):
        _expect(oracle.is_chain_prime(values, job.k, p) == (p in reported),
                f"small prime {p} misclassified")
    for p in rng.sample(primes, min(SAMPLE, len(primes))):
        _expect(oracle.is_prime(p) and oracle.is_chain_prime(values, job.k, p),
                f"reported prime {p} fails the chain condition")
    scanned = table.upto(top)
    rejected = [p for p in rng.sample(scanned, min(4 * SAMPLE, len(scanned)))
                if p not in reported][:SAMPLE]
    for p in rejected:
        _expect(not oracle.is_chain_prime(values, job.k, p),
                f"rejected prime {p} satisfies the chain condition")
    _check_exceptional_list(values, result["exceptional_primes"], rng)


def _check_density(job, result, rng, table) -> None:
    values = _values(job)
    total, hits = result["total_primes"], result["hits"]
    _expect(result["sum_distinct"] is True, "sum_distinct is not true")
    _expect(result["limit"] == job.limit, "limit not echoed")
    _expect(total == table.pi(job.limit), f"total_primes {total} != pi(limit)")
    small_hits = sum(oracle.is_chain_prime(values, job.k, p)
                     for p in table.upto(min(job.limit, EXACT_BELOW)))
    _expect(small_hits <= hits <= total, "hits outside [hits below 1000, total]")
    _expect(result["empirical"] == oracle.reduced_fraction(hits, total),
            "empirical is not hits/total")
    listed = result["exceptional_excluded"]
    _expect(all(p <= job.limit for p in listed), "exceptional prime above limit")
    listed_set = set(listed)
    scanned = table.upto(job.limit)
    sample = table.upto(min(job.limit, EXACT_BELOW)) + \
        rng.sample(scanned, min(SAMPLE, len(scanned)))
    for p in sample:
        _expect(oracle.collides_mod(values, p) == (p in listed_set),
                f"exceptional list wrong at {p}")


def _check_exceptional(job, result, rng, table) -> None:
    values = _values(job)
    primes = result["primes"]
    _expect(result["count"] == len(primes), "count differs from the list length")
    _check_exceptional_list(values, primes, rng)
    listed = set(primes)
    for p in table.upto(EXACT_BELOW):
        _expect(oracle.collides_mod(values, p) == (p in listed),
                f"exceptional list wrong at {p}")


def _check_exceptional_list(values, primes, rng) -> None:
    """Each listed prime divides a difference of subset sums, and the listed
    primes divide a sample of differences completely."""
    _expect(all(a < b for a, b in zip(primes, primes[1:])), "primes not ascending")
    for p in primes:
        _expect(oracle.is_prime(p), f"listed {p} is not prime")
        _expect(oracle.collides_mod(values, p), f"listed {p} separates every sum")
    n = len(values)
    for _ in range(min(SAMPLE, n * (n - 1) // 2)):
        i, j = sorted(rng.sample(range(n), 2))
        d = values[j] - values[i]
        for p in primes:
            while d % p == 0:
                d //= p
        _expect(d == 1, f"difference {values[j] - values[i]} has an unlisted factor")


def _ff_sort_key(c: list[int]):
    return (len(c), c[::-1])


def _check_ff_search(job, result, rng) -> None:
    p, top = job.char, job.max_degree
    values = oracle.poly_subset_sums([list(t) for t in job.terms], p)
    moduli = []
    for text in result["moduli"]:
        q, c = oracle.poly_from_text(text)
        _expect(q == p and c and c[-1] == 1 and 1 <= len(c) - 1 <= top,
                f"modulus {text} is not monic over F_{p} of degree 1..{top}")
        moduli.append(c)
    _expect(result["count"] == len(moduli), "count differs from the list length")
    _expect(all(_ff_sort_key(a) < _ff_sort_key(b) for a, b in zip(moduli, moduli[1:])),
            "moduli not in (degree, value) order")
    reported = {tuple(c) for c in moduli}
    value_degree = max(len(v) - 1 for v in values)
    kp = oracle.prime_to_p_part(job.k, p)
    for d in range(1, top + 1):
        count = sum(1 for c in moduli if len(c) - 1 == d)
        bound = oracle.necklace(p, d)
        _expect(count <= bound, f"{count} moduli of degree {d}, above necklace {bound}")
        if d > value_degree and math.gcd(kp, p**d - 1) == 1:
            _expect(count == bound, f"{count} moduli of degree {d}, necklace {bound}")
    exact = [d for d in range(1, top + 1) if p**d <= EXACT_MONICS]
    for d in exact:
        for f in oracle.monic_polys(p, d):
            if oracle.poly_is_irreducible(f, p):
                _expect(oracle.is_chain_modulus(values, job.k, f, p) == (tuple(f) in reported),
                        f"degree-{d} modulus {oracle.poly_to_text(p, f)} misclassified")
    # up to the top value degree the sums can collide mod f: sample more there
    low = [c for c in moduli if len(c) - 1 <= value_degree]
    high = [c for c in moduli if len(c) - 1 > value_degree]
    for f in rng.sample(low, min(2 * SAMPLE, len(low))) + \
            rng.sample(high, min(SAMPLE // 2, len(high))):
        _expect(oracle.poly_is_irreducible(f, p) and oracle.is_chain_modulus(values, job.k, f, p),
                f"reported {oracle.poly_to_text(p, f)} fails the chain condition")
    for d in range(len(exact) + 1, top + 1):
        found = 0
        for _ in range(60):
            f = [rng.randrange(p) for _ in range(d)] + [1]
            if tuple(f) in reported or not oracle.poly_is_irreducible(f, p):
                continue
            _expect(not oracle.is_chain_modulus(values, job.k, f, p),
                    f"rejected {oracle.poly_to_text(p, f)} satisfies the chain condition")
            found += 1
            if found == 3:
                break
