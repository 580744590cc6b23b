"""Seeded job generator: the CLI jobs of each workload.

`generate(workload, seed)` returns the workload's job list.  The seed draws
the terms, candidate lengths, Vegh bases, `--max-count` values and the job
order.  The (command, k, size) slots of a workload are fixed, so every seed
runs the same mix and run-to-run figures stay comparable; the k values of
the slots cover each workload's set of k evenly.

Print the job lists with `python3 perfbench/jobs.py [--seed N]`.
"""

from __future__ import annotations

import argparse
import random
from dataclasses import dataclass

import oracle

DEFAULT_SEED = 1

Z_COMMANDS = ("search", "density")


@dataclass(frozen=True)
class Job:
    """One CLI invocation and what the checks need to know about it."""

    command: str
    args: tuple[str, ...]
    terms: tuple = ()              # integers, or coefficient tuples for F_p[t]
    k: int | None = None
    limit: int | None = None
    max_count: int | None = None
    char: int | None = None
    max_degree: int | None = None

    def argv(self, workers: int = 1) -> list[str]:
        out = [self.command, *self.args, "--json"]
        if self.command in Z_COMMANDS:
            out += ["--workers", str(workers)]
        return out

    @property
    def key(self) -> str:
        return " ".join(self.argv())


# -- candidates ---------------------------------------------------------------


def _random_terms(rng: random.Random, m: int, lo: int, hi: int) -> tuple[int, ...]:
    """m distinct integers in [lo, hi) whose subset sums are pairwise distinct."""
    while True:
        terms = tuple(rng.randrange(lo, hi) for _ in range(m))
        if oracle.sum_distinct(terms):
            return terms


def _z_job(command: str, terms, k: int, limit: int, *, vegh=None,
           max_count=None) -> Job:
    seq = ["--vegh", f"{vegh[0]},{vegh[1]}"] if vegh else \
        ["--seq", ",".join(str(t) for t in terms)]
    args = ([] if k is None else ["--k", str(k)]) + seq
    if limit is not None:
        args += ["--limit", str(limit)]
    if max_count is not None:
        args += ["--max-count", str(max_count)]
    return Job(command, tuple(args), tuple(terms), k, limit, max_count)


def _zscan(rng: random.Random) -> list[Job]:
    # Why: the path used most.  p > spread(E) almost everywhere, so the
    # `chains` residue filter dominates and distinctness, factoring and the
    # class group cost almost nothing.  `--max-count` jobs run the same scan
    # but stop early (k=2 on a 3-term Vegh candidate, k=3 where every
    # p = 2 mod 3 is a hit) or sweep (6 random terms: no hits), so a change
    # that helps one use and hurts the other shows.  Each slot fixes its
    # length m, since the cost of a job grows with 2^m.
    limit = 10**7
    slots = (("density", 2, "vegh", 4), ("density", 3, "random", 6),
             ("density", 4, "vegh", 5), ("density", 6, "random", 3),
             ("search", 2, "random", 5), ("search", 3, "vegh", 4),
             ("search", 4, "random", 4), ("search", 6, "vegh", 6),
             ("stop", 2, "vegh", 3), ("stop", 3, "random", 5),
             ("sweep", 4, "random", 6), ("sweep", 6, "random", 6))
    jobs = []
    for command, k, kind, m in slots:
        if kind == "vegh":
            base = rng.randint(2, int(4095 ** (1 / (m - 1))))
            vegh = (m, base)
            terms = tuple(base**e for e in range(m))
        else:
            vegh = None
            terms = _random_terms(rng, m, 1, 4096)
        max_count = rng.choice((100, 300, 1000)) if command in ("stop", "sweep") else None
        jobs.append(_z_job("density" if command == "density" else "search", terms, k,
                           limit, vegh=vegh, max_count=max_count))
    return jobs


def _kummer(rng: random.Random) -> list[Job]:
    # Why: stresses `arith.factor` through `exceptional_primes` (about
    # |E|^2/2 differences) and the class group.  Terms of 24 bits and more
    # put every prime scanned to 10^6 below the spread, so the density jobs
    # take the mod-p distinctness branch that `zscan` bypasses.  Ten 6-term
    # density jobs of 24-36 bits cost about the same and sit in the middle
    # of the job times, so the median does not jump between job kinds and
    # rests on several jobs rather than one.
    exceptional = ((5, 16), (6, 20), (7, 16), (6, 64), (7, 48))
    density = ((6, 24, 2), (6, 25, 3), (6, 26, 3), (6, 27, 6), (6, 28, 4), (6, 29, 2),
               (6, 30, 6), (6, 32, 2), (6, 34, 4), (6, 36, 4), (5, 64, 6), (7, 64, 3))
    jobs = [_z_job("exceptional", _random_terms(rng, m, 2**(b - 1), 2**b), None, None)
            for m, b in exceptional]
    jobs += [_z_job("density", _random_terms(rng, m, 2**(b - 1), 2**b), k, 10**6)
             for m, b, k in density]
    return jobs


def _wide(rng: random.Random) -> list[Job]:
    # Why: the full 128-bit width of `arith`/`kummer`, unmeasured elsewhere.
    # Terms lie in [2^88, 2^124), inside the documented width, so every job
    # must succeed.  At the seed each one exits 2 with OverflowLimitError
    # (`factor` reaches `is_prime` past its certified bound): a known defect
    # that this workload keeps visible.
    jobs = []
    for m in (3, 4, 5):
        lo = rng.randint(88, 100)
        jobs.append(_z_job("exceptional", _random_terms(rng, m, 2**lo, 2**124),
                           None, None))
        jobs.append(_z_job("density", _random_terms(rng, m, 2**lo, 2**124),
                           rng.choice((2, 3, 4, 6)), 10**5))
    return jobs


def _random_polys(rng: random.Random, p: int, m: int) -> tuple[tuple[int, ...], ...]:
    """m polynomials of degree <= 3 over F_p with distinct subset sums."""
    while True:
        terms = []
        for _ in range(m):
            d = rng.randint(0, 3)
            terms.append([rng.randrange(p) for _ in range(d)] + [rng.randrange(1, p)])
        if len({tuple(s) for s in oracle.poly_subset_sums(terms, p)}) == 2**m - 1:
            return tuple(tuple(t) for t in terms)


def _ff_job(rng: random.Random, p: int, k: int, max_degree: int, kind: str, m: int) -> Job:
    if kind == "tpowers":
        terms = tuple((0,) * e + (1,) for e in range(m))
        seq = ["--tpowers", str(m)]
    else:
        terms = _random_polys(rng, p, m)
        seq = ["--seq", ",".join(oracle.poly_to_text(p, list(t)) for t in terms)]
    args = ("--char", str(p), "--k", str(k), *seq, "--max-degree", str(max_degree))
    return Job("ff-search", args, terms, k, char=p, max_degree=max_degree)


def _ffsearch(rng: random.Random) -> list[Job]:
    # Why: stresses `ffield` enumeration -- trial division (d <= 4) and Rabin
    # (d >= 5) -- plus the polynomial residue `powmod`.  It touches nothing on
    # the Z side, so Z-side changes should leave it unchanged.  With k a power
    # of p the char-p reduction skips the residue tests entirely.  The five
    # F_3 jobs sit in the middle of the job times, so the median does not
    # jump between fields.  Each slot fixes its length m (3-6 for --tpowers,
    # 3-4 random polynomials), since the residue tests grow with 2^m.
    slots = ((2, 12, 3, "tpowers", 4), (2, 12, 3, "random", 3), (2, 12, 4, "random", 4),
             (3, 7, 2, "tpowers", 5), (3, 7, 2, "random", 3), (3, 7, 3, "tpowers", 6),
             (3, 7, 9, "random", 4), (3, 7, 3, "random", 4),
             (5, 5, 3, "random", 3), (5, 5, 5, "tpowers", 4),
             (7, 4, 2, "random", 4), (7, 4, 49, "tpowers", 3),
             (5, 6, 2, "tpowers", 5))
    return [_ff_job(rng, p, k, max_degree, kind, m) for p, max_degree, k, kind, m in slots]


WORKLOADS = {
    "zscan": _zscan,
    "kummer": _kummer,
    "ffsearch": _ffsearch,
    "wide": _wide,
}


def generate(workload: str, seed: int) -> list[Job]:
    """The workload's job list for this seed, in run order."""
    rng = random.Random(f"{workload}:{seed}")
    jobs = WORKLOADS[workload](rng)
    rng.shuffle(jobs)
    return jobs


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), action="append")
    ns = ap.parse_args()
    for name in ns.workload or WORKLOADS:
        print(f"# {name}")
        for job in generate(name, ns.seed):
            print("powerchains " + job.key)


if __name__ == "__main__":
    main()
