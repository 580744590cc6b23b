"""Metric arithmetic: job-time statistics, the moduli credit of a job, and
the per-layer figures of a traced run."""

from __future__ import annotations

import math
import statistics
from collections import defaultdict

import checks
import oracle


def job_times(records, limit_s: float, scale: float = 1.0) -> list[float]:
    """Wall time of each attempted job times `scale`; a failed job counts as
    the limit."""
    return [r.wall_s * scale if r.ok else limit_s for r in records]


def tail_percentile(samples: list[float]) -> tuple[int, float] | None:
    """(q, value) for the highest whole percentile q whose nearest-rank value
    still has at least ten samples above it; None for ten samples or fewer."""
    xs = sorted(samples)
    n = len(xs)
    for q in range(99, 0, -1):
        rank = math.ceil(q * n / 100)
        if rank >= 1 and n - rank >= 10:
            return q, xs[rank - 1]
    return None


def moduli_credit(job, result: dict, table: oracle.PrimeTable) -> int:
    """Moduli a successful job tested, counted by the benchmark itself:
    primes up to the bound its scan covered, or monic irreducibles of degree
    <= D (necklace count).  `exceptional` tests no moduli."""
    if job.command in ("search", "density"):
        return table.pi(checks.scanned_bound(job, result))
    if job.command == "ff-search":
        return sum(oracle.necklace(job.char, d) for d in range(1, job.max_degree + 1))
    return 0


def moduli_below_spread(job, result: dict, table: oracle.PrimeTable) -> int:
    """Primes the scan tested that are <= spread(E): those that need the
    mod-p distinctness check."""
    if job.command not in ("search", "density"):
        return 0
    values = oracle.subset_sums(job.terms)
    spread = max(values) - min(values)
    return table.pi(min(spread, checks.scanned_bound(job, result)))


SCANS = ("chains.find_chain_primes", "chains.chain_primes_in_range",
         "kummer.density_counts_in_range")

# name -> unit, in report order
LAYER_UNITS = {
    "arith.sieve_s": "s", "arith.primes_sieved": "count",
    "arith.factor_s": "s", "arith.factor_calls": "count", "arith.factor_errors": "count",
    "subsets.subset_values_s": "s", "subsets.subset_values_calls": "count",
    "chains.sum_distinct_calls": "count", "chains.scan_s": "s",
    "chains.moduli_tested": "count", "chains.moduli_below_spread": "count",
    "chains.hits": "count", "chains.hit_ratio": "ratio",
    "chains.exceptional_s": "s", "chains.exceptional_diffs": "count",
    "kummer.class_group_s": "s", "kummer.class_group_factor_calls": "count",
    "ffield.irreducibles_s": "s", "ffield.irreducibles_found": "count",
    "ffield.monics_tested": "count", "ffield.irreducible_ratio": "ratio",
    "ffield.residue_s": "s",
    "ffield.powmod_calls.rabin": "count", "ffield.powmod_calls.residue": "count",
    "ffield.moduli_tested": "count", "ffield.hits": "count",
    "cli.render_s": "s", "cli.output_bytes": "bytes", "cli.overhead_s": "s",
    "trace.overhead": "ratio",
}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(traced, table: oracle.PrimeTable) -> dict[str, float]:
    """Per-layer totals over the traced jobs.

    `traced` holds (job, result, untraced wall s, traced wall s, spans) per
    job, spans as written by tracer.py.  Self time is a span's duration
    minus the durations of its direct children (calls nest, so children
    never overlap).
    """
    m = defaultdict(float)
    for job, result, _, wall_s, spans in traced:
        by_id = {s[0]: s for s in spans}
        children = defaultdict(list)
        for s in spans:
            children[s[1]].append(s)

        def dur(s):
            return (s[4] - s[3]) / 1e9

        def self_time(s, excluding=None):
            return dur(s) - sum(dur(c) for c in children[s[0]]
                                if excluding is None or c[2] in excluding)

        def parent_name(s):
            return by_id[s[1]][2] if s[1] else None

        def nearest(s, names):
            while s[1]:
                s = by_id[s[1]]
                if s[2] in names:
                    return s[2]
            return None

        seen_degrees = set()
        library_s = 0.0
        for s in spans:
            name = s[2]
            if not s[1] and not name.startswith("cli."):
                library_s += dur(s)
            if name == "arith.prime_blocks":
                m["arith.sieve_s"] += dur(s)
                m["arith.primes_sieved"] += s[5] or 0
                if parent_name(s) in SCANS:
                    m["chains.moduli_tested"] += s[5] or 0
            elif name == "arith.factor":
                m["arith.factor_s"] += dur(s)
                m["arith.factor_calls"] += 1
                m["arith.factor_errors"] += s[6] is not None
                if parent_name(s) == "chains.exceptional_primes":
                    m["chains.exceptional_diffs"] += 1
                if nearest(s, ("kummer.class_group",)):
                    m["kummer.class_group_factor_calls"] += 1
            elif name == "_subsets.subset_values":
                m["subsets.subset_values_s"] += dur(s)
                m["subsets.subset_values_calls"] += 1
            elif name == "chains.is_sum_distinct":
                m["chains.sum_distinct_calls"] += 1
            elif name in SCANS:
                m["chains.scan_s"] += self_time(s)
                m["chains.hits"] += s[5] or 0
            elif name == "chains.exceptional_primes":
                m["chains.exceptional_s"] += self_time(s)
            elif name == "kummer.class_group":
                m["kummer.class_group_s"] += self_time(s)
            elif name == "ffield.irreducibles_of_degree":
                p, d, found = s[5] or (0, 0, 0)
                if parent_name(s) != name:
                    m["ffield.irreducibles_s"] += dur(s)
                if parent_name(s) == "ffield.find_chain_irreducibles":
                    m["ffield.moduli_tested"] += found
                if s[5] and (p, d) not in seen_degrees:
                    seen_degrees.add((p, d))
                    m["ffield.irreducibles_found"] += found
                    m["ffield.monics_tested"] += p**d
            elif name == "ffield.find_chain_irreducibles":
                m["ffield.residue_s"] += self_time(
                    s, excluding=("ffield.irreducibles_of_degree", "_subsets.subset_values"))
                m["ffield.hits"] += s[5] or 0
            elif name == "ffield.powmod":
                caller = nearest(s, ("ffield.is_irreducible", "ffield.find_chain_irreducibles"))
                kind = "rabin" if caller == "ffield.is_irreducible" else "residue"
                m[f"ffield.powmod_calls.{kind}"] += 1
            elif name == "cli.render":
                m["cli.render_s"] += dur(s)
                m["cli.output_bytes"] += s[5] or 0
        m["cli.overhead_s"] += wall_s - library_s
        if result is not None:
            m["chains.moduli_below_spread"] += moduli_below_spread(job, result, table)
    m["chains.hit_ratio"] = _ratio(m["chains.hits"], m["chains.moduli_tested"])
    m["ffield.irreducible_ratio"] = _ratio(m["ffield.irreducibles_found"],
                                           m["ffield.monics_tested"])
    if traced:
        m["trace.overhead"] = _ratio(statistics.median(t[3] for t in traced),
                                     statistics.median(t[2] for t in traced))
    return {name: m[name] if unit in ("s", "ratio") else int(m[name])
            for name, unit in LAYER_UNITS.items()}
