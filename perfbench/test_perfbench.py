"""Self-tests for the benchmark's own helpers.

    python3 -m pytest perfbench/test_perfbench.py
"""

import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import jobs  # noqa: E402
import metrics  # noqa: E402
import oracle  # noqa: E402


def _record(wall_s, ok=True):
    return SimpleNamespace(wall_s=wall_s, ok=ok)


def test_failed_jobs_count_at_the_limit():
    records = [_record(1.0 + i / 10) for i in range(9)] + \
        [_record(0.5, ok=False) for _ in range(3)]
    times = metrics.job_times(records, limit_s=60.0)
    assert sorted(times)[-3:] == [60.0, 60.0, 60.0]
    # 12 samples: the median moves from the fast jobs to (1.5 + 1.6) / 2 ...
    assert sorted(times)[5:7] == [1.5, 1.6]
    # ... and the tail percentile with ten samples above it is p16 = 2nd value.
    assert metrics.tail_percentile(times) == (16, 1.1)


def test_tail_percentile_needs_eleven_samples():
    assert metrics.tail_percentile([1.0] * 10) is None
    q, value = metrics.tail_percentile(list(range(1, 101)))
    assert (q, value) == (90, 90)


def test_credit_of_max_count_jobs():
    table = oracle.PrimeTable(1000)
    job = jobs.Job("search", (), (1, 2, 4), 2, limit=1000, max_count=3)
    # filled its count: the scan is known to have reached the last prime only
    assert metrics.moduli_credit(job, {"primes": [311, 479, 719]}, table) == table.pi(719)
    # fewer than --max-count: it swept the whole range
    assert metrics.moduli_credit(job, {"primes": [311, 479]}, table) == 168
    full = jobs.Job("search", (), (1, 2, 4), 2, limit=1000)
    assert metrics.moduli_credit(full, {"primes": [311]}, table) == 168
    ff = jobs.Job("ff-search", (), (), 2, char=2, max_degree=3)
    assert metrics.moduli_credit(ff, {"moduli": []}, table) == 2 + 1 + 2


@pytest.mark.parametrize("p,d", [(2, d) for d in range(1, 9)] +
                         [(3, d) for d in range(1, 6)] + [(5, 3), (5, 4), (7, 3)])
def test_necklace_matches_program(p, d):
    from powerchains import ffield
    assert oracle.necklace(p, d) == len(ffield.irreducibles_of_degree(p, d))


def test_prime_table_counts():
    table = oracle.PrimeTable(10**6)
    assert [table.pi(10**e) for e in range(1, 7)] == [4, 25, 168, 1229, 9592, 78498]


def test_generator_is_seeded():
    for name in jobs.WORKLOADS:
        first = [j.key for j in jobs.generate(name, 7)]
        assert first == [j.key for j in jobs.generate(name, 7)]
        assert first != [j.key for j in jobs.generate(name, 8)]
        for job in jobs.generate(name, 7):
            if job.command != "ff-search":
                assert oracle.sum_distinct(job.terms)
