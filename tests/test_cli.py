import concurrent.futures
import csv
import io
import json
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from powerchains import __version__, _subsets, cli
from powerchains.cli import main, parse_int_sequence, parse_poly_sequence

# pytest runs these via main() to keep them fast; one subprocess test at the
# end exercises the real process boundary.


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, *argv, "--json")
    return code, json.loads(out)


# ---------- parsing ----------

def test_parse_int_sequence():
    assert parse_int_sequence("1,2,4") == [1, 2, 4]
    assert parse_int_sequence(" -3 , 0 , 7 ") == [-3, 0, 7]
    with pytest.raises(ValueError, match="x2"):
        parse_int_sequence("1,x2,4")


def test_parse_poly_sequence():
    terms = parse_poly_sequence("GF(3)[0,1],GF(3)[1]", 3)
    assert [t.coeffs for t in terms] == [(0, 1), (1,)]
    with pytest.raises(ValueError, match="characteristic"):
        parse_poly_sequence("GF(5)[0,1]", 3)
    with pytest.raises(ValueError):
        parse_poly_sequence("GF(3)[0,1],junk", 3)


# ---------- verify ----------

def test_verify_negative_with_witness(capsys):
    code, payload = run_json(capsys, "verify", "--k", "2", "--modulus", "7",
                             "--seq", "1,2,4")
    assert code == 1
    assert payload["result"]["is_chain"] is False
    assert payload["result"]["failure"]["description"] == \
        "window sum 3 is not a 2nd power residue mod 7"
    assert payload["schema_version"] == 1
    assert payload["version"] == __version__


def test_verify_positive(capsys):
    code, payload = run_json(capsys, "verify", "--k", "1", "--modulus", "11",
                             "--seq", "1,2,4")
    assert code == 0
    assert payload["result"] == {"is_chain": True, "is_cyclic": True,
                                 "is_permutation": True, "failure": None}


def test_verify_malformed_inputs(capsys):
    assert run(capsys, "verify", "--k", "2", "--modulus", "7", "--seq", "1,x")[0] == 2
    assert run(capsys, "verify", "--k", "0", "--modulus", "7", "--seq", "1,2")[0] == 2
    code, _, err = run(capsys, "verify", "--k", "2", "--modulus", "8", "--seq", "1,2")
    assert code == 2
    assert "8" in err
    assert run(capsys, "verify", "--k", "2", "--modulus", "7", "--seq",
               str(2**130))[0] == 2


def test_verify_rejects_csv(capsys):
    code, _, err = run(capsys, "verify", "--k", "1", "--modulus", "11",
                       "--seq", "1,2,4", "--format", "csv")
    assert code == 2
    assert "csv" in err


# ---------- candidate-check ----------

def test_candidate_check_positive(capsys):
    code, payload = run_json(capsys, "candidate-check", "--seq", "1,2,4")
    assert code == 0
    assert payload["result"]["sum_distinct"] is True
    assert payload["result"]["subset_sum_count"] == 7


def test_candidate_check_negative_witness(capsys):
    code, payload = run_json(capsys, "candidate-check", "--seq", "1,2,3")
    assert code == 1
    assert payload["result"]["collision"] == \
        {"subset_a": [1, 2], "subset_b": [3], "sum": 3}


def test_candidate_check_malformed(capsys):
    assert run(capsys, "candidate-check", "--seq", "")[0] == 2


# ---------- search ----------

def test_search_positive_and_exit_codes(capsys):
    code, payload = run_json(capsys, "search", "--k", "2", "--seq", "1",
                             "--limit", "20", "--workers", "1")
    assert code == 0
    assert payload["result"]["primes"] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert payload["result"]["exceptional_primes"] == []


def test_search_negative(capsys):
    code, payload = run_json(capsys, "search", "--k", "2", "--seq", "1,2,3",
                             "--limit", "1000", "--workers", "1")
    assert code == 1
    assert payload["result"]["primes"] == []
    assert payload["result"]["sum_distinct"] is False


def test_search_csv(capsys):
    code, out, _ = run(capsys, "search", "--k", "2", "--seq", "1", "--limit",
                       "10", "--workers", "1", "--format", "csv")
    assert code == 0
    assert out == "prime\n2\n3\n5\n7\n"


def test_search_max_count(capsys):
    code, payload = run_json(capsys, "search", "--k", "2", "--seq", "1,2,4",
                             "--limit", "10000", "--workers", "1",
                             "--max-count", "3")
    assert code == 0
    assert payload["result"]["primes"] == [311, 479, 719]


def test_search_vegh_shorthand(capsys):
    code, payload = run_json(capsys, "search", "--k", "2", "--vegh", "3,2",
                             "--limit", "1000", "--workers", "1")
    assert payload["config"]["sequence"] == [1, 2, 4]
    assert payload["result"]["exceptional_primes"] == [2, 3, 5]


def test_search_and_density_malformed_inputs(capsys):
    assert run(capsys, "search", "--k", "2", "--seq", "1,2", "--limit", "0")[0] == 2
    assert run(capsys, "search", "--k", "2", "--vegh", "3;2", "--limit", "10")[0] == 2
    assert run(capsys, "search", "--k", "2", "--vegh", "", "--limit", "10")[0] == 2
    assert run(capsys, "density", "--k", "2", "--seq", "1,q", "--limit", "100")[0] == 2
    assert run(capsys, "exceptional", "--seq", "a,b")[0] == 2
    assert run(capsys, "ff-search", "--char", "3", "--k", "2", "--tpowers", "3",
               "--max-degree", "0")[0] == 2
    for argv, message in (
            (("search", "--k", "2", "--seq", "1,2", "--limit", "10", "--workers", "0"),
             "--workers must be >= 1, got 0"),
            (("search", "--k", "2", "--vegh", "3,x", "--limit", "10"),
             "--vegh expects integers 'm,base', got '3,x'"),
            (("ff-search", "--char", "3", "--k", "2", "--tpowers", "0",
              "--max-degree", "2"), "--tpowers must be >= 1, got 0")):
        assert run(capsys, *argv) == (2, "", f"powerchains: error: {message}\n"), argv


# ---------- density ----------

def test_density_json_fields(capsys):
    code, payload = run_json(capsys, "density", "--k", "2", "--seq", "1,2,4",
                             "--limit", "5000", "--workers", "1")
    assert code == 0
    result = payload["result"]
    assert result["predicted_lower_bound"] == "1/16"
    assert result["total_primes"] == 669
    assert result["exceptional_excluded"] == [2, 3, 5]
    assert result["hits"] >= 1
    num, den = map(int, result["empirical"].split("/"))
    from fractions import Fraction
    assert Fraction(num, den) == Fraction(result["hits"], 669)


def test_density_zero_hits_exits_1(capsys):
    code, payload = run_json(capsys, "density", "--k", "2", "--seq", "1,2,3",
                             "--limit", "1000", "--workers", "1")
    assert code == 1
    assert payload["result"]["hits"] == 0


def test_density_csv(capsys):
    code, out, _ = run(capsys, "density", "--k", "1", "--seq", "1", "--limit",
                       "100", "--workers", "1", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == ("limit,total_primes,hits,empirical,"
                        "predicted_lower_bound,exceptional_excluded")
    assert lines[1] == "100,25,25,1/1,1/1,"


# ---------- exceptional ----------

def test_exceptional_positive(capsys):
    code, payload = run_json(capsys, "exceptional", "--seq", "1,2,4")
    assert code == 0
    assert payload["result"]["primes"] == [2, 3, 5]
    code, payload = run_json(capsys, "exceptional", "--seq", "5")
    assert code == 0
    assert payload["result"]["primes"] == []


def test_exceptional_invalid_candidate_exits_1(capsys):
    code, payload = run_json(capsys, "exceptional", "--seq", "1,2,3")
    assert code == 1
    assert payload["result"]["error"] == "invalid-candidate"


# ---------- ff commands ----------

def test_ff_verify_positive(capsys):
    code, payload = run_json(capsys, "ff-verify", "--char", "3", "--k", "9",
                             "--modulus", "GF(3)[1,2,0,1]", "--tpowers", "3")
    assert code == 0
    assert payload["result"]["is_permutation"] is True
    assert payload["config"]["sequence"] == ["GF(3)[1]", "GF(3)[0,1]", "GF(3)[0,0,1]"]


def test_ff_verify_negative(capsys):
    # degree-1 modulus: the 7 subset sums cannot stay distinct in F_3
    code, payload = run_json(capsys, "ff-verify", "--char", "3", "--k", "1",
                             "--modulus", "GF(3)[0,1]", "--tpowers", "3")
    assert code == 1
    assert payload["result"]["is_chain"] is False


def test_ff_verify_malformed(capsys):
    assert run(capsys, "ff-verify", "--char", "3", "--k", "2", "--modulus",
               "GF(3)[1,1", "--tpowers", "3")[0] == 2
    assert run(capsys, "ff-verify", "--char", "3", "--k", "2", "--modulus",
               "GF(3)[0,0,1]", "--tpowers", "3")[0] == 2  # reducible
    assert run(capsys, "ff-verify", "--char", "5", "--k", "2", "--modulus",
               "GF(3)[1,0,1]", "--tpowers", "3")[0] == 2  # char mismatch
    # stricter than the library, which would scale it to t^2 + 1
    code, _, err = run(capsys, "ff-verify", "--char", "3", "--k", "2", "--modulus",
                       "GF(3)[2,0,2]", "--tpowers", "3")
    assert code == 2
    assert "modulus GF(3)[2,0,2] is not monic" in err


def test_ff_search_positive_and_csv(capsys):
    code, payload = run_json(capsys, "ff-search", "--char", "5", "--k", "2",
                             "--tpowers", "3", "--max-degree", "2")
    assert code == 0
    assert payload["result"]["moduli"] == ["GF(5)[1,1,1]"]
    code, out, _ = run(capsys, "ff-search", "--char", "5", "--k", "2",
                       "--tpowers", "3", "--max-degree", "2", "--format", "csv")
    assert out == 'degree,modulus\n2,"GF(5)[1,1,1]"\n'


def test_ff_search_invalid_candidate(capsys):
    code, payload = run_json(capsys, "ff-search", "--char", "2", "--k", "2",
                             "--seq", "GF(2)[1],GF(2)[1]", "--max-degree", "3")
    assert code == 1
    assert payload["result"]["error"] == "invalid-candidate"


def test_ff_search_none_found_exits_1(capsys):
    # k = 2 over F_3 with degree cap 2: fields of size <= 9 have too few
    # squares for 7 distinct residues
    code, payload = run_json(capsys, "ff-search", "--char", "3", "--k", "2",
                             "--tpowers", "3", "--max-degree", "2")
    assert code == 1
    assert payload["result"]["moduli"] == []


# ---------- limits ----------

def test_term_cap_exits_2_naming_the_cap(capsys):
    for argv in (("search", "--vegh", "25,2", "--k", "2", "--limit", "100",
                  "--workers", "1"),
                 ("search", "--vegh", "25,2", "--k", "2", "--limit", "100",
                  "--max-count", "1", "--workers", "1"),
                 ("density", "--vegh", "25,2", "--k", "2", "--limit", "100",
                  "--workers", "1"),
                 ("exceptional", "--vegh", "25,2"),
                 ("candidate-check", "--vegh", "25,2"),
                 ("verify", "--k", "2", "--modulus", "7", "--vegh", "25,2"),
                 ("ff-verify", "--char", "3", "--k", "2", "--modulus",
                  "GF(3)[1,0,1]", "--tpowers", "25"),
                 ("ff-search", "--char", "2", "--k", "1", "--tpowers", "25",
                  "--max-degree", "1")):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert "subset-sum cap of 24 terms" in err, argv
        assert "max_terms" not in err


def test_oversized_ff_search_fields_exit_2_within_a_second(capsys):
    # each would enumerate more monics than the cap, so it is refused before
    # the sieve or the search starts
    for argv in (("--char", "101", "--k", "2", "--tpowers", "3", "--max-degree", "3"),
                 ("--char", "2", "--k", "3", "--tpowers", "3", "--max-degree", "30"),
                 ("--char", "1000003", "--k", "2", "--tpowers", "2", "--max-degree", "2")):
        start = time.perf_counter()
        code, out, err = run(capsys, "ff-search", *argv, "--json")
        assert time.perf_counter() - start < 1.0, argv
        assert code == 2, argv
        assert out == ""
        assert "enumeration cap of 65536 monics" in err, argv


def test_oversized_shorthands_exit_2_within_a_second(capsys):
    # the shorthand is refused before its terms are built: 1, 2, ..., 2^59999
    # or t^0..t^9999 once took seconds and hundreds of MB to reach the same
    # message
    overflow = "powerchains: error: candidate terms overflow the 128-bit width once summed\n"
    term_cap = ("powerchains: error: sequence has 10000 terms, above the fixed "
                "subset-sum cap of 24 terms\n")
    for argv, err_expected in (
            (("candidate-check", "--vegh", "60000,2"), overflow),
            (("density", "--vegh", "60000,2", "--k", "2", "--limit", "100"), overflow),
            (("ff-search", "--char", "2", "--k", "1", "--tpowers", "10000",
              "--max-degree", "2"), term_cap),
            (("ff-verify", "--char", "3", "--k", "2", "--modulus", "GF(3)[1,0,1]",
              "--tpowers", "10000"), term_cap)):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0, argv
        assert (code, out, err) == (2, "", err_expected), argv


def test_each_command_builds_e_once(capsys, monkeypatch):
    calls = []
    subset_values = _subsets.subset_values

    def counted(items):
        calls.append(tuple(items))
        return subset_values(items)

    _subsets.sum_distinct.cache_clear()
    monkeypatch.setattr(_subsets, "subset_values", counted)
    for argv in (("search", "--k", "2", "--seq", "1,2,4", "--limit", "20000",
                  "--workers", "1"),
                 ("density", "--k", "2", "--seq", "1,2,5", "--limit", "20000",
                  "--workers", "1"),
                 ("candidate-check", "--seq", "1,2,6"),
                 ("ff-search", "--char", "3", "--k", "2", "--tpowers", "3",
                  "--max-degree", "4")):
        calls.clear()
        code, _, _ = run(capsys, *argv, "--json")
        assert code == 0, argv
        assert len(calls) == 1, argv


# ---------- determinism and report envelope ----------

def test_json_determinism_across_runs_and_workers(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_SERIAL_LIMIT", 10**4)  # so 2 workers start a pool
    args = ("search", "--k", "2", "--seq", "1,2,4", "--limit", "20000", "--json")
    outs = []
    for workers in ("1", "2", "1"):
        code, out, _ = run(capsys, *args, "--workers", workers)
        payload = json.loads(out)
        outs.append(out.replace(f'"workers": {workers}', '"workers": W'))
        assert code == 0
    assert outs[0] == outs[1] == outs[2]

    # identical configs are byte-identical including the echo
    _, out1, _ = run(capsys, *args, "--workers", "2")
    _, out2, _ = run(capsys, *args, "--workers", "2")
    assert out1 == out2
    # and the serialization round-trips
    payload = json.loads(out1)
    assert json.dumps(payload, indent=2, sort_keys=True) + "\n" == out1


def test_density_workers_determinism(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_SERIAL_LIMIT", 10**4)  # so 2 workers start a pool
    results = []
    for workers in ("1", "2"):
        code, payload = run_json(capsys, "density", "--k", "2", "--seq", "1,2,4",
                                 "--limit", "30000", "--workers", workers)
        results.append(payload["result"])
    assert results[0] == results[1]


@pytest.fixture
def fake_pool(monkeypatch):
    """Stand-in for the process pool that maps in this process; the list it
    returns records the max_workers of each pool built."""
    built = []

    class InProcessPool:
        def __init__(self, max_workers):
            built.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    # the CLI imports the pool class at the point of use, so patch its home
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    return built


def test_workers_capped_at_core_count(capsys, monkeypatch, fake_pool):
    monkeypatch.setattr(cli, "_SERIAL_LIMIT", 10**4)  # so the limit takes the pool
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
    for command in ("search", "density"):
        args = (command, "--k", "2", "--seq", "1,2,4", "--limit", "20000")
        _, serial = run_json(capsys, *args, "--workers", "1")
        _, wide = run_json(capsys, *args, "--workers", "100000")
        assert wide["config"]["workers"] == 100000
        assert wide["result"] == serial["result"]
    assert fake_pool == [3, 3]


def test_search_not_sum_distinct_starts_no_pool(capsys, monkeypatch, fake_pool):
    monkeypatch.setattr(cli, "_SERIAL_LIMIT", 10**4)  # so the limit takes the pool
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    args = ("search", "--k", "2", "--seq", "1,2,3", "--limit", "20000", "--json")
    outs = []
    for workers in ("1", "2"):
        code, out, _ = run(capsys, *args, "--workers", workers)
        assert code == 1
        outs.append(out.replace(f'"workers": {workers}', '"workers": W'))
    assert outs[0] == outs[1]
    assert fake_pool == []


def test_density_limit_below_two_exits_2(capsys):
    for workers in ("1", "2"):
        code, out, err = run(capsys, "density", "--k", "2", "--seq", "1,2,4",
                             "--limit", "1", "--workers", workers)
        assert code == 2
        assert out == ""
        assert "limit must be >= 2" in err


def test_workers_default_to_the_core_count(capsys, monkeypatch):
    monkeypatch.setenv("POWERCHAINS_WORKERS", "zero")  # no longer read
    for cores, workers in ((3, 3), (None, 1)):
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cores)
        code, payload = run_json(capsys, "search", "--k", "2", "--seq", "1",
                                 "--limit", "30")
        assert code == 0
        assert payload["config"]["workers"] == workers


def test_memory_exhaustion_exits_2_without_a_traceback(capsys, monkeypatch):
    def exhausted(cfg):
        raise MemoryError

    monkeypatch.setitem(cli.COMMANDS, "exceptional",
                        (exhausted, cli.COMMANDS["exceptional"][1]))
    code, out, err = run(capsys, "exceptional", "--seq", "1,2,4")
    assert code == 2
    assert out == ""
    assert err == "powerchains: error: out of memory\n"


def test_exact_density_prints_past_the_int_to_str_digit_limit(capsys, monkeypatch):
    # the denominator has 6,021 digits, past Python's default limit of 4,300
    monkeypatch.setattr("powerchains.kummer.predicted_density",
                        lambda values, k: Fraction(1, 2**20000))
    digits = sys.get_int_max_str_digits()
    code, payload = run_json(capsys, "density", "--seq", "1,2,4", "--k", "2",
                             "--limit", "100")
    assert code == 1  # no chain prime below 311
    assert sys.get_int_max_str_digits() == digits
    sys.set_int_max_str_digits(0)
    try:
        expected = f"1/{2**20000}"
    finally:
        sys.set_int_max_str_digits(digits)
    assert payload["result"]["predicted_lower_bound"] == expected


def test_timing_goes_to_stderr_not_stdout(capsys):
    code, out, err = run(capsys, "verify", "--k", "1", "--modulus", "11",
                         "--seq", "1,2,4", "--json")
    assert "completed in" in err
    assert "duration" not in out
    payload = json.loads(out)
    assert "duration" not in json.dumps(payload)


GOLDEN = [
    (("verify", "--k", "2", "--modulus", "7", "--seq", "1,2,4"), 1, """\
command: verify
ring: integers
k: 2
modulus: 7
sequence: 1,2,4
is_chain: False
is_cyclic: False
is_permutation: False
failure:
  level: chain
  kind: non_residue
  description: window sum 3 is not a 2nd power residue mod 7
"""),
    (("candidate-check", "--seq", "1,2,3"), 1, """\
command: candidate-check
ring: integers
sequence: 1,2,3
sum_distinct: False
collision:
  subset_a: [1, 2]
  subset_b: [3]
  sum: 3
subset_sum_count: 6
"""),
    (("search", "--k", "2", "--seq", "1", "--limit", "200", "--max-count", "30",
      "--workers", "1"), 0, """\
command: search
ring: integers
k: 2
limit: 200
max_count: 30
workers: 1
sequence: 1
sum_distinct: True
primes: 2,3,5,7,11,13,17,19,23,29,31,37,41,43,47,53,59,61,67,71,73,79,83,89,97,... (30 total)
count: 30
exceptional_primes: (none)
"""),
    (("density", "--k", "2", "--vegh", "3,2", "--limit", "5000", "--workers", "1"),
     0, """\
command: density
ring: integers
k: 2
limit: 5000
workers: 1
sequence: 1,2,4
sum_distinct: True
limit: 5000
total_primes: 669
hits: 33
empirical: 11/223
predicted_lower_bound: 1/16
exceptional_excluded: 2,3,5
"""),
    (("exceptional", "--seq", "1,2,4"), 0, """\
command: exceptional
ring: integers
sequence: 1,2,4
primes: 2,3,5
count: 3
"""),
    (("ff-verify", "--char", "3", "--k", "9", "--modulus", "GF(3)[1,2,0,1]",
      "--tpowers", "3"), 0, """\
command: ff-verify
ring: polynomial
characteristic: 3
k: 9
modulus: GF(3)[1,2,0,1]
sequence: GF(3)[1],GF(3)[0,1],GF(3)[0,0,1]
is_chain: True
is_cyclic: True
is_permutation: True
failure: None
"""),
    (("ff-search", "--char", "2", "--k", "1", "--tpowers", "3", "--max-degree", "4"),
     0, """\
command: ff-search
ring: polynomial
characteristic: 2
k: 1
max_degree: 4
sequence: GF(2)[1],GF(2)[0,1],GF(2)[0,0,1]
moduli: GF(2)[1,1,0,1],GF(2)[1,0,1,1],GF(2)[1,1,0,0,1],GF(2)[1,0,0,1,1],GF(2)[1,1,1,1,1]
count: 5
"""),
    (("exceptional", "--seq", "1,2,4", "--format", "csv"), 0, "prime\n2\n3\n5\n"),
    (("exceptional", "--seq", "1,2,3", "--format", "csv"), 1, """\
error,message
invalid-candidate,"candidate is not sum-distinct: term subsets [1, 2] and [3] both sum to 3"
"""),
]


@pytest.mark.parametrize("argv, code, expected", GOLDEN,
                         ids=[" ".join(argv) for argv, _, _ in GOLDEN])
def test_rendering_is_pinned(capsys, argv, code, expected):
    assert run(capsys, *argv)[:2] == (code, expected)


@pytest.mark.parametrize("argv", [
    ("search", "--k", "2", "--seq", "1", "--limit", "30", "--workers", "1"),
    ("search", "--k", "2", "--seq", "1,2,3", "--limit", "30", "--workers", "1"),
    ("density", "--k", "2", "--seq", "1,2,4", "--limit", "5000", "--workers", "1"),
    ("density", "--k", "1", "--seq", "1", "--limit", "100", "--workers", "1"),
    ("exceptional", "--seq", "1,2,4"),
    ("exceptional", "--seq", "1,2,3"),
    ("ff-search", "--char", "5", "--k", "2", "--tpowers", "3", "--max-degree", "2"),
    ("ff-search", "--char", "2", "--k", "1", "--tpowers", "3", "--max-degree", "4"),
    ("ff-search", "--char", "2", "--k", "2", "--seq", "GF(2)[1],GF(2)[1]",
     "--max-degree", "3"),
], ids=" ".join)
def test_csv_parses_back_as_wide_as_its_header(capsys, argv):
    _, out, _ = run(capsys, *argv, "--format", "csv")
    header, *rows = csv.reader(io.StringIO(out, newline=""))
    assert all(len(row) == len(header) for row in rows), out


def test_table_output_mentions_verdict(capsys):
    code, out, _ = run(capsys, "verify", "--k", "2", "--modulus", "7",
                       "--seq", "1,2,4")
    assert code == 1
    assert "is_chain: False" in out
    assert "window sum 3" in out


def test_subprocess_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "powerchains", "candidate-check", "--seq",
         "1,2,3", "--json"],
        capture_output=True, text=True)
    assert proc.returncode == 1
    payload = json.loads(proc.stdout)
    assert payload["result"]["sum_distinct"] is False


def test_commands_that_do_not_sieve_leave_numpy_unloaded():
    # numpy is imported by the prime sieve alone: the per-modulus commands,
    # F_p[t] and the factoring in ff-verify never load it; a range scan does.
    # The process pool is imported only when a scan forks, and a search to
    # 100 runs in this process
    script = """
import contextlib, io, sys
from powerchains import cli
runs = [["verify", "--k", "2", "--modulus", "7", "--seq", "1,2,4"],
        ["candidate-check", "--seq", "1,2,4"],
        ["ff-verify", "--char", "3", "--k", "9", "--modulus", "GF(3)[1,2,0,1]",
         "--tpowers", "3"],
        ["ff-search", "--char", "3", "--k", "2", "--tpowers", "2", "--max-degree", "3"],
        ["search", "--k", "2", "--seq", "1,2,4", "--limit", "100"]]
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv + ["--json"])
    print(argv[0], code, "numpy" in sys.modules,
          "concurrent.futures" in sys.modules)
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, check=True)
    assert proc.stdout.split("\n")[:-1] == [
        "verify 1 False False", "candidate-check 0 False False",
        "ff-verify 0 False False", "ff-search 0 False False",
        "search 1 True False"]



# prints the modules loaded by one CLI run, the package's without its prefix
_LOADS = """
import contextlib, io, sys
from powerchains.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):
    main(sys.argv[1:])
print(*sorted(name.removeprefix("powerchains.") for name in sys.modules))
"""


@pytest.mark.parametrize("argv, loads, leaves", [
    pytest.param(["--version"], set(),
                 {"_subsets", "arith", "chains", "ffield", "kummer", "fractions", "numpy",
                  "dataclasses", "inspect"},
                 id="version"),
    pytest.param(["ff-search", "--char", "3", "--k", "2", "--tpowers", "2",
                  "--max-degree", "3"],
                 {"ffield"},
                 {"chains", "kummer", "fractions", "numpy", "dataclasses", "inspect"},
                 id="ff-search"),
    pytest.param(["ff-verify", "--char", "3", "--k", "9", "--modulus", "GF(3)[1,2,0,1]",
                  "--tpowers", "3"],
                 {"chains", "ffield"},
                 {"kummer", "fractions", "numpy", "dataclasses", "inspect"}, id="ff-verify"),
    pytest.param(["verify", "--k", "2", "--modulus", "7", "--seq", "1,2,4"],
                 {"chains"}, {"ffield", "kummer", "dataclasses", "inspect"}, id="verify"),
    pytest.param(["candidate-check", "--seq", "1,2,4"],
                 {"chains"}, {"ffield", "kummer", "dataclasses", "inspect"},
                 id="candidate-check"),
    pytest.param(["search", "--k", "2", "--seq", "1,2,4", "--limit", "100"],
                 {"chains"}, {"ffield", "kummer", "dataclasses"}, id="search"),
    pytest.param(["exceptional", "--seq", "1,2,4"],
                 {"chains"}, {"ffield", "kummer", "dataclasses", "inspect"},
                 id="exceptional"),
    pytest.param(["density", "--k", "2", "--seq", "1,2,4", "--limit", "100"],
                 {"kummer"}, {"ffield", "dataclasses"}, id="density"),
])
def test_each_command_loads_only_the_modules_it_runs(argv, loads, leaves):
    # a fresh process per command: each command imports the package modules
    # it runs, so its start-up compiles no other.  No command loads
    # `dataclasses`, and `inspect` comes only with numpy, in the sieving
    # commands
    proc = subprocess.run([sys.executable, "-c", _LOADS, *argv],
                          capture_output=True, text=True, check=True)
    loaded = set(proc.stdout.split())
    assert loads - loaded == set()
    assert leaves & loaded == set()
