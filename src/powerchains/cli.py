"""Command-line surface.

Commands
--------
verify           chain / cyclic / permutation verdict for one integer modulus
candidate-check  the sum-distinctness condition, with a collision witness
search           primes up to a limit realizing a permutation chain
density          empirical chain-prime density vs the predicted lower bound
exceptional      primes at which subset sums can collide
ff-verify        verdict for a polynomial candidate mod one irreducible
ff-search        irreducible moduli up to a degree bound realizing a chain

A command's options are declared in `_build_parser`, where the options that
several commands share sit in parent parsers; its runner and its CSV rows
are declared in `COMMANDS`.  `RunConfig` holds the validated inputs, and its
fields, in declaration order, are the config that every output echoes.

Exit codes: 0 affirmative result (chain verified, primes found, hits > 0),
1 negative mathematical result (not a chain, nothing found, candidate not
sum-distinct), 2 malformed input, usage error or memory exhaustion.

Output is table (default), json, or csv (csv only for prime/modulus lists
and density rows, fields quoted per RFC 4180).  JSON is byte-identical across
runs and worker counts for a fixed config and version; wall-clock timing
therefore goes to stderr only.  Search and density run on all cores unless
--workers says otherwise.  Exact rationals print in full, however many
digits they have.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from dataclasses import dataclass, fields
from fractions import Fraction

from powerchains import __version__, _subsets, arith, chains, ffield, kummer
from powerchains.errors import InvalidCandidateError

SCHEMA_VERSION = 1
_SERIAL_LIMIT = 10**4  # search and density below this limit run in one process

TABLE, JSON, CSV = "table", "json", "csv"


@dataclass
class RunConfig:
    """The validated inputs of one run; the fields that are set are echoed,
    in this order in the table."""

    command: str
    ring: str
    format: str
    characteristic: int | None = None
    k: int | None = None
    modulus: int | ffield.FFPoly | None = None
    limit: int | None = None
    max_degree: int | None = None
    max_count: int | None = None
    workers: int | None = None  # set only for the commands that scan a range
    sequence: tuple | list | None = None

    def settings(self) -> dict:
        return {f.name: _jsonable(getattr(self, f.name)) for f in fields(self)
                if getattr(self, f.name) is not None}

    def echo(self) -> dict:
        # a command that scans no range runs in one process
        return {"workers": 1, **self.settings()}


def _jsonable(v):
    if isinstance(v, (list, tuple)):
        return [_jsonable(t) for t in v]
    if isinstance(v, ffield.FFPoly):
        return ffield.poly_to_text(v)
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    return v


# -- sequence parsing -------------------------------------------------------


def parse_int_sequence(text: str) -> list[int]:
    terms = []
    for tok in text.split(","):
        tok = tok.strip()
        try:
            terms.append(int(tok))
        except ValueError:
            raise ValueError(f"invalid integer {tok!r} in sequence") from None
    if not terms:
        raise ValueError("sequence must be nonempty")
    return terms


def _split_outside_brackets(text: str) -> list[str]:
    parts, cur, depth = [], [], 0
    for ch in text:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


def parse_poly_sequence(text: str, characteristic: int) -> list[ffield.FFPoly]:
    terms = []
    for tok in _split_outside_brackets(text):
        f = ffield.poly_from_text(tok.strip())
        if f.p != characteristic:
            raise ValueError(
                f"polynomial {tok.strip()!r} has characteristic {f.p}, "
                f"expected {characteristic}")
        terms.append(f)
    if not terms:
        raise ValueError("sequence must be nonempty")
    return terms


def _parse_vegh(text: str) -> tuple[int, ...]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"--vegh expects 'm,base', got {text!r}")
    try:
        m, base = int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError(f"--vegh expects integers 'm,base', got {text!r}") from None
    return chains.vegh_sequence(m, base)


def _tpowers(m: int, p: int) -> list[ffield.FFPoly]:
    if m < 1:
        raise ValueError(f"--tpowers expects m >= 1, got {m}")
    _subsets.check_term_cap(m)  # before the powers, whose size grows with m
    t = ffield.FFPoly.gen(p)
    return [t**i for i in range(m)]


# -- argument parser --------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="powerchains",
        description="Verify and search kth-power-residue chains over Z and F_p[t].")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=(TABLE, JSON, CSV), default=TABLE,
                     help="output format (default: table)")
    fmt.add_argument("--json", action="store_true",
                     help="shorthand for --format json")

    intseq = argparse.ArgumentParser(add_help=False)
    g = intseq.add_mutually_exclusive_group(required=True)
    g.add_argument("--seq", help="comma-separated signed integers, e.g. 1,2,4")
    g.add_argument("--vegh", metavar="M,BASE",
                   help="geometric candidate 1,base,...,base^(m-1)")

    ffseq = argparse.ArgumentParser(add_help=False)
    g = ffseq.add_mutually_exclusive_group(required=True)
    g.add_argument("--seq", help="comma-separated GF(p)[c0,c1,...] literals")
    g.add_argument("--tpowers", type=int, metavar="M",
                   help="candidate 1,t,...,t^(m-1)")

    k = argparse.ArgumentParser(add_help=False)
    k.add_argument("--k", type=int, required=True)

    char = argparse.ArgumentParser(add_help=False)
    char.add_argument("--char", type=int, required=True, metavar="P",
                      help="field characteristic")

    limit = argparse.ArgumentParser(add_help=False)
    limit.add_argument("--limit", type=int, required=True)

    workers = argparse.ArgumentParser(add_help=False)
    workers.add_argument("--workers", type=int, default=None,
                         help="parallel workers (default: all cores)")

    p = sub.add_parser("verify", parents=[fmt, intseq, k],
                       help="chain verdict for one prime modulus")
    p.add_argument("--modulus", type=int, required=True)

    sub.add_parser("candidate-check", parents=[fmt, intseq],
                   help="check the sum-distinctness condition")

    p = sub.add_parser("search", parents=[fmt, intseq, workers, k, limit],
                       help="find permutation-chain primes up to a limit")
    p.add_argument("--max-count", type=int, default=None,
                   help="stop after this many primes (serial scan)")

    sub.add_parser("density", parents=[fmt, intseq, workers, k, limit],
                   help="empirical vs predicted chain-prime density")

    sub.add_parser("exceptional", parents=[fmt, intseq],
                   help="primes dividing a difference of two subset sums")

    p = sub.add_parser("ff-verify", parents=[fmt, ffseq, char, k],
                       help="chain verdict mod one irreducible polynomial")
    p.add_argument("--modulus", required=True, metavar="GF(P)[...]")

    p = sub.add_parser("ff-search", parents=[fmt, ffseq, char, k],
                       help="find chain-realizing irreducible moduli")
    p.add_argument("--max-degree", type=int, required=True)

    return parser


def _build_config(ns: argparse.Namespace) -> RunConfig:
    fmt = JSON if ns.json else ns.format
    if fmt == CSV and COMMANDS[ns.command][1] is None:
        raise ValueError(f"csv output is not available for {ns.command}; "
                         f"verdicts are table/json only")
    polynomial = hasattr(ns, "char")
    cfg = RunConfig(ns.command, "polynomial" if polynomial else "integers", fmt)
    if hasattr(ns, "workers"):
        cfg.workers = ns.workers if ns.workers is not None else os.cpu_count() or 1
        if cfg.workers < 1:
            raise ValueError(f"--workers must be >= 1, got {cfg.workers}")

    if hasattr(ns, "k"):
        cfg.k = _subsets.check_k(ns.k)

    if not polynomial:
        cfg.sequence = chains._terms(
            parse_int_sequence(ns.seq) if ns.vegh is None else _parse_vegh(ns.vegh))
        if hasattr(ns, "modulus"):
            cfg.modulus = arith._as_prime(ns.modulus)
    else:
        cfg.characteristic = ffield._check_characteristic(ns.char)
        if ns.tpowers is not None:
            cfg.sequence = _tpowers(ns.tpowers, ns.char)
        else:
            cfg.sequence = parse_poly_sequence(ns.seq, ns.char)
        if hasattr(ns, "modulus"):
            f = ffield.poly_from_text(ns.modulus)
            if f.p != ns.char:
                raise ValueError(f"modulus characteristic {f.p} does not match "
                                 f"--char {ns.char}")
            if not f.is_monic():  # stricter than the library, which scales to monic
                raise ValueError(f"modulus {f!r} is not monic")
            cfg.modulus = ffield._as_modulus(f)

    for name in ("limit", "max_degree", "max_count"):
        v = getattr(ns, name, None)
        if v is not None:
            if v < 1:
                raise ValueError(f"--{name.replace('_', '-')} must be >= 1, got {v}")
            setattr(cfg, name, v)
    return cfg


# -- command execution ------------------------------------------------------


def _verdict(v: chains.ChainVerdict) -> tuple[dict, int]:
    failure = None
    if v.failure_witness is not None:
        failure = {
            "level": v.failure_witness.level,
            "kind": v.failure_witness.kind,
            "description": v.failure_witness.description,
        }
    result = {
        "is_chain": v.is_chain,
        "is_cyclic": v.is_cyclic,
        "is_permutation": v.is_permutation,
        "failure": failure,
    }
    return result, 0 if v.is_chain else 1


def _partition(lo: int, hi: int, parts: int) -> list[tuple[int, int]]:
    n = hi - lo + 1
    out = []
    start = lo
    for i in range(parts):
        size = n // parts + (1 if i < n % parts else 0)
        if size > 0:
            out.append((start, start + size - 1))
            start += size
    return out


def _over_range(scan, cfg: RunConfig) -> list:
    """scan(terms, k, lo, hi) over a partition of [2, limit], one part per
    process and at most one process per core; the parts' results in range
    order.  Short ranges and a single part run in this process."""
    workers = min(cfg.workers, os.cpu_count() or 1)
    if workers == 1 or cfg.limit < _SERIAL_LIMIT:
        return [scan(cfg.sequence, cfg.k, 2, cfg.limit)]
    # imported here, so a run in one process never loads the pool machinery
    from concurrent.futures import ProcessPoolExecutor

    los, his = zip(*_partition(2, cfg.limit, workers))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(scan, [cfg.sequence] * workers, [cfg.k] * workers,
                             los, his))


def _verify(cfg: RunConfig) -> tuple[dict, int]:
    return _verdict(chains.is_permutation_chain(cfg.sequence, cfg.k, cfg.modulus))


def _candidate_check(cfg: RunConfig) -> tuple[dict, int]:
    res = chains.is_sum_distinct(cfg.sequence)
    collision = None
    if not res:
        a, b = res.collision
        collision = {"subset_a": list(a), "subset_b": list(b),
                     "sum": res.colliding_sum}
    result = {
        "sum_distinct": bool(res),
        "collision": collision,
        "subset_sum_count": len(chains.subset_sums(cfg.sequence)),
    }
    return result, 0 if res else 1


def _search(cfg: RunConfig) -> tuple[dict, int]:
    terms = cfg.sequence
    sd = bool(chains.is_sum_distinct(terms))
    if sd and cfg.max_count is None:
        primes = [p for part in _over_range(chains.chain_primes_in_range, cfg)
                  for p in part]
    else:
        primes = chains.find_chain_primes(terms, cfg.k, cfg.limit,
                                          max_count=cfg.max_count)
    exceptional = list(chains.exceptional_primes(terms)) if sd else []
    result = {
        "sum_distinct": sd,
        "primes": primes,
        "count": len(primes),
        "exceptional_primes": exceptional,
    }
    return result, 0 if primes else 1


def _density(cfg: RunConfig) -> tuple[dict, int]:
    terms = cfg.sequence
    counts = _over_range(kummer.density_counts_in_range, cfg)
    report = kummer.density_report_from_counts(
        terms, cfg.k, cfg.limit, sum(t for t, _ in counts), sum(h for _, h in counts))
    result = {
        "sum_distinct": bool(chains.is_sum_distinct(terms)),
        "limit": report.limit,
        "total_primes": report.total_primes,
        "hits": report.hits,
        "empirical": _jsonable(report.empirical),
        "predicted_lower_bound": _jsonable(report.predicted_lower_bound),
        "exceptional_excluded": list(report.exceptional_excluded),
    }
    return result, 0 if report.hits else 1


def _exceptional(cfg: RunConfig) -> tuple[dict, int]:
    primes = list(chains.exceptional_primes(cfg.sequence))
    return {"primes": primes, "count": len(primes)}, 0


def _ff_search(cfg: RunConfig) -> tuple[dict, int]:
    moduli = ffield.find_chain_irreducibles(
        cfg.sequence, cfg.k, cfg.characteristic, cfg.max_degree)
    result = {
        "moduli": [_jsonable(m) for m in moduli],
        "count": len(moduli),
    }
    return result, 0 if moduli else 1


def _prime_rows(result: dict) -> list:
    return [("prime",)] + [(p,) for p in result["primes"]]


def _density_rows(result: dict) -> list:
    # every field but sum_distinct, the excluded primes joined by ";"
    row = {c: ";".join(map(str, v)) if isinstance(v, list) else v
           for c, v in result.items() if c != "sum_distinct"}
    return [list(row), list(row.values())]


def _moduli_rows(result: dict) -> list:
    return [("degree", "modulus")] + [
        (ffield.poly_from_text(text).degree, text) for text in result["moduli"]]


# command: (runner returning (result, exit code), CSV rows of a result or
# None where CSV is refused)
COMMANDS = {
    "verify": (_verify, None),
    "candidate-check": (_candidate_check, None),
    "search": (_search, _prime_rows),
    "density": (_density, _density_rows),
    "exceptional": (_exceptional, _prime_rows),
    "ff-verify": (_verify, None),
    "ff-search": (_ff_search, _moduli_rows),
}


# -- rendering --------------------------------------------------------------


def _render_table(cfg: RunConfig, result: dict) -> str:
    settings = {key: v for key, v in cfg.settings().items() if key != "format"}
    lines = []
    for key, value in [*settings.items(), *result.items()]:
        if isinstance(value, list):
            shown = ",".join(str(v) for v in value[:25])
            if len(value) > 25:
                shown += f",... ({len(value)} total)"
            lines.append(f"{key}: {shown if value else '(none)'}")
        elif isinstance(value, dict):
            lines.append(f"{key}:")
            for k2, v2 in value.items():
                lines.append(f"  {k2}: {v2}")
        else:
            lines.append(f"{key}: {value}")
    return "\n".join(lines) + "\n"


def _render_csv(cfg: RunConfig, result: dict) -> str:
    if "error" in result:
        rows = [("error", "message"), (result["error"], result["message"])]
    else:
        rows = COMMANDS[cfg.command][1](result)
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def render(cfg: RunConfig, result: dict) -> str:
    if cfg.format == JSON:
        # no timing here: identical configs must give byte-identical JSON
        payload = {"schema_version": SCHEMA_VERSION, "version": __version__,
                   "config": cfg.echo(), "result": result}
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if cfg.format == CSV:
        return _render_csv(cfg, result)
    return _render_table(cfg, result)


# -- entry points -----------------------------------------------------------


def main(argv=None) -> int:
    ns = _build_parser().parse_args(argv)
    digits = sys.get_int_max_str_digits()
    try:
        cfg = _build_config(ns)
        sys.set_int_max_str_digits(0)  # an exact density may pass 4,300 digits
        start = time.monotonic()
        try:
            result, code = COMMANDS[cfg.command][0](cfg)
        except InvalidCandidateError as e:  # the command needs a sum-distinct candidate
            result, code = {"error": "invalid-candidate", "message": str(e)}, 1
        duration = time.monotonic() - start
        sys.stdout.write(render(cfg, result))
    except (ValueError, OverflowError) as e:
        print(f"powerchains: error: {e}", file=sys.stderr)
        return 2
    except MemoryError:
        print("powerchains: error: out of memory", file=sys.stderr)
        return 2
    finally:
        sys.set_int_max_str_digits(digits)
    print(f"powerchains {cfg.command}: completed in {duration:.3f}s",
          file=sys.stderr)
    return code


def entry():  # console-script hook
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
