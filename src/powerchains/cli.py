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

Exit codes: 0 affirmative result (chain verified, primes found, hits > 0),
1 negative mathematical result (not a chain, nothing found, candidate not
sum-distinct), 2 malformed input or usage error.

Output is table (default), json, or csv (csv only for prime/modulus lists
and density rows).  JSON is byte-identical across runs and worker counts for
a fixed config and version; wall-clock timing therefore goes to stderr only.
The POWERCHAINS_WORKERS environment variable sets the default worker count
for search and density (otherwise all cores).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction

from powerchains import __version__, arith, chains, ffield, kummer
from powerchains.errors import InvalidCandidateError

SCHEMA_VERSION = 1
WORKERS_ENV_VAR = "POWERCHAINS_WORKERS"
_SERIAL_LIMIT = 10**4  # search and density below this limit run in one process

TABLE, JSON, CSV = "table", "json", "csv"
CSV_COMMANDS = {"search", "ff-search", "density", "exceptional"}


@dataclass
class RunConfig:
    command: str
    ring: str
    fmt: str
    workers: int
    k: int | None = None
    sequence: list = field(default_factory=list)
    modulus: object = None
    characteristic: int | None = None
    limit: int | None = None
    max_degree: int | None = None
    max_count: int | None = None

    def echo(self) -> dict:
        out = {
            "command": self.command,
            "ring": self.ring,
            "format": self.fmt,
            "workers": self.workers,
            "sequence": [_jsonable(t) for t in self.sequence],
        }
        if self.k is not None:
            out["k"] = self.k
        if self.modulus is not None:
            out["modulus"] = _jsonable(self.modulus)
        if self.characteristic is not None:
            out["characteristic"] = self.characteristic
        if self.limit is not None:
            out["limit"] = self.limit
        if self.max_degree is not None:
            out["max_degree"] = self.max_degree
        if self.max_count is not None:
            out["max_count"] = self.max_count
        return out


@dataclass
class RunReport:
    config: RunConfig
    result: dict
    duration_seconds: float
    version: str = __version__

    def payload(self) -> dict:
        # duration is deliberately not serialized: identical config versions
        # must produce byte-identical JSON
        return {
            "schema_version": SCHEMA_VERSION,
            "version": self.version,
            "config": self.config.echo(),
            "result": self.result,
        }


def _jsonable(v):
    if isinstance(v, ffield.FFPoly):
        return ffield.poly_to_text(v)
    if isinstance(v, ffield.IrreducibleModulus):
        return ffield.poly_to_text(v.f)
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


def _parse_vegh(text: str) -> list[int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"--vegh expects 'm,base', got {text!r}")
    try:
        m, base = int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError(f"--vegh expects integers 'm,base', got {text!r}") from None
    return list(chains.vegh_sequence(m, base).terms)


def _tpowers(m: int, p: int) -> list[ffield.FFPoly]:
    if m < 1:
        raise ValueError(f"--tpowers expects m >= 1, got {m}")
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

    workers = argparse.ArgumentParser(add_help=False)
    workers.add_argument("--workers", type=int, default=None,
                         help=f"parallel workers (default: ${WORKERS_ENV_VAR} "
                              f"or all cores)")

    p = sub.add_parser("verify", parents=[fmt, intseq],
                       help="chain verdict for one prime modulus")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--modulus", type=int, required=True)

    sub.add_parser("candidate-check", parents=[fmt, intseq],
                   help="check the sum-distinctness condition")

    p = sub.add_parser("search", parents=[fmt, intseq, workers],
                       help="find permutation-chain primes up to a limit")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--limit", type=int, required=True)
    p.add_argument("--max-count", type=int, default=None,
                   help="stop after this many primes (serial scan)")

    p = sub.add_parser("density", parents=[fmt, intseq, workers],
                       help="empirical vs predicted chain-prime density")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--limit", type=int, required=True)

    sub.add_parser("exceptional", parents=[fmt, intseq],
                   help="primes dividing a difference of two subset sums")

    p = sub.add_parser("ff-verify", parents=[fmt, ffseq],
                       help="chain verdict mod one irreducible polynomial")
    p.add_argument("--char", type=int, required=True, metavar="P",
                   help="field characteristic")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--modulus", required=True, metavar="GF(P)[...]")

    p = sub.add_parser("ff-search", parents=[fmt, ffseq],
                       help="find chain-realizing irreducible moduli")
    p.add_argument("--char", type=int, required=True, metavar="P")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--max-degree", type=int, required=True)

    return parser


def _default_workers() -> int:
    env = os.environ.get(WORKERS_ENV_VAR)
    if env:
        try:
            w = int(env)
        except ValueError:
            raise ValueError(f"{WORKERS_ENV_VAR} must be an integer, got {env!r}")
        if w < 1:
            raise ValueError(f"{WORKERS_ENV_VAR} must be >= 1, got {w}")
        return w
    return os.cpu_count() or 1


def _build_config(ns: argparse.Namespace) -> RunConfig:
    fmt = JSON if ns.json else ns.format
    if fmt == CSV and ns.command not in CSV_COMMANDS:
        raise ValueError(f"csv output is not available for {ns.command}; "
                         f"verdicts are table/json only")
    ring = "polynomial" if ns.command.startswith("ff-") else "integers"
    workers = 1
    if ns.command in ("search", "density"):
        workers = ns.workers if ns.workers is not None else _default_workers()
        if workers < 1:
            raise ValueError(f"--workers must be >= 1, got {workers}")

    cfg = RunConfig(command=ns.command, ring=ring, fmt=fmt, workers=workers)

    if getattr(ns, "k", None) is not None:
        if ns.k < 1:
            raise ValueError(f"k must be >= 1, got {ns.k}")
        cfg.k = ns.k

    if ring == "integers":
        if getattr(ns, "vegh", None):
            cfg.sequence = _parse_vegh(ns.vegh)
        else:
            cfg.sequence = parse_int_sequence(ns.seq)
        chains.CandidateSequence(tuple(cfg.sequence))  # width validation
        if ns.command == "verify":
            cfg.modulus = arith.PrimeModulus(ns.modulus).p
    else:
        cfg.characteristic = ns.char
        ffield._check_characteristic(ns.char)
        if getattr(ns, "tpowers", None) is not None:
            cfg.sequence = _tpowers(ns.tpowers, ns.char)
        else:
            cfg.sequence = parse_poly_sequence(ns.seq, ns.char)
        if ns.command == "ff-verify":
            f = ffield.poly_from_text(ns.modulus)
            if f.p != ns.char:
                raise ValueError(f"modulus characteristic {f.p} does not match "
                                 f"--char {ns.char}")
            cfg.modulus = ffield.IrreducibleModulus(f).f

    for name in ("limit", "max_degree", "max_count"):
        v = getattr(ns, name, None)
        if v is not None:
            if v < 1:
                raise ValueError(f"--{name.replace('_', '-')} must be >= 1, got {v}")
            setattr(cfg, name, v)
    return cfg


# -- command execution ------------------------------------------------------


def _verdict_result(v: chains.ChainVerdict) -> dict:
    failure = None
    if v.failure_witness is not None:
        failure = {
            "level": v.failure_witness.level,
            "kind": v.failure_witness.kind,
            "description": v.failure_witness.description,
        }
    return {
        "is_chain": v.is_chain,
        "is_cyclic": v.is_cyclic,
        "is_permutation": v.is_permutation,
        "failure": failure,
    }


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
    los, his = zip(*_partition(2, cfg.limit, workers))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(scan, [cfg.sequence] * workers, [cfg.k] * workers,
                             los, his))


def _run_search(cfg: RunConfig) -> tuple[dict, int]:
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


def _run_density(cfg: RunConfig) -> tuple[dict, int]:
    terms = cfg.sequence
    counts = _over_range(kummer.density_counts_in_range, cfg)
    report = kummer.density_report_from_counts(
        terms, cfg.k, cfg.limit, sum(t for t, _ in counts), sum(h for _, h in counts))
    result = {
        # only a sum-distinct candidate has hits
        "sum_distinct": report.hits > 0 or bool(chains.is_sum_distinct(terms)),
        "limit": report.limit,
        "total_primes": report.total_primes,
        "hits": report.hits,
        "empirical": _jsonable(report.empirical),
        "predicted_lower_bound": _jsonable(report.predicted_lower_bound),
        "exceptional_excluded": list(report.exceptional_excluded),
    }
    return result, 0 if report.hits else 1


def _execute(cfg: RunConfig) -> tuple[dict, int]:
    terms = cfg.sequence
    if cfg.command == "verify":
        v = chains.is_permutation_chain(terms, cfg.k, arith.PrimeModulus(cfg.modulus))
        return _verdict_result(v), 0 if v.is_chain else 1

    if cfg.command == "candidate-check":
        res = chains.is_sum_distinct(terms)
        collision = None
        if not res:
            a, b = res.collision
            collision = {"subset_a": list(a), "subset_b": list(b),
                         "sum": res.colliding_sum}
        result = {
            "sum_distinct": bool(res),
            "collision": collision,
            "subset_sum_count": len(chains.subset_sums(terms)),
        }
        return result, 0 if res else 1

    if cfg.command == "search":
        return _run_search(cfg)

    if cfg.command == "density":
        return _run_density(cfg)

    if cfg.command == "exceptional":
        try:
            primes = list(chains.exceptional_primes(terms))
        except InvalidCandidateError as e:
            return {"error": "invalid-candidate", "message": str(e)}, 1
        return {"primes": primes, "count": len(primes)}, 0

    if cfg.command == "ff-verify":
        f = ffield.IrreducibleModulus._trusted(cfg.modulus)
        v = ffield.ff_is_permutation_chain(terms, cfg.k, f)
        return _verdict_result(v), 0 if v.is_chain else 1

    if cfg.command == "ff-search":
        try:
            moduli = ffield.find_chain_irreducibles(
                terms, cfg.k, cfg.characteristic, cfg.max_degree)
        except InvalidCandidateError as e:
            return {"error": "invalid-candidate", "message": str(e)}, 1
        result = {
            "moduli": [_jsonable(m) for m in moduli],
            "count": len(moduli),
        }
        return result, 0 if moduli else 1

    raise AssertionError(f"unhandled command {cfg.command}")


# -- rendering --------------------------------------------------------------


def _render_table(report: RunReport) -> str:
    cfg, result = report.config, report.result
    lines = [f"command: {cfg.command}"]
    echo = cfg.echo()
    for key in ("ring", "characteristic", "k", "modulus", "limit",
                "max_degree", "max_count", "workers"):
        if key in echo and (key != "workers" or cfg.command in ("search", "density")):
            lines.append(f"{key}: {echo[key]}")
    lines.append("sequence: " + ",".join(str(t) for t in echo["sequence"]))
    for key, value in result.items():
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


def _render_csv(report: RunReport) -> str:
    cmd, result = report.config.command, report.result
    if "error" in result:
        return "error,message\n" + \
            f"{result['error']},\"{result['message']}\"\n"
    if cmd in ("search", "exceptional"):
        return "prime\n" + "".join(f"{p}\n" for p in result["primes"])
    if cmd == "ff-search":
        rows = []
        for text in result["moduli"]:
            f = ffield.poly_from_text(text)
            rows.append(f"{f.degree},{text}\n")
        return "degree,modulus\n" + "".join(rows)
    if cmd == "density":
        cols = ("limit", "total_primes", "hits", "empirical",
                "predicted_lower_bound", "exceptional_excluded")
        vals = []
        for c in cols:
            v = result[c]
            vals.append(";".join(str(x) for x in v) if isinstance(v, list) else str(v))
        return ",".join(cols) + "\n" + ",".join(vals) + "\n"
    raise AssertionError(f"csv not supported for {cmd}")


def render(report: RunReport) -> str:
    if report.config.fmt == JSON:
        return json.dumps(report.payload(), indent=2, sort_keys=True) + "\n"
    if report.config.fmt == CSV:
        return _render_csv(report)
    return _render_table(report)


# -- entry points -----------------------------------------------------------


def main(argv=None) -> int:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    try:
        cfg = _build_config(ns)
    except (ValueError, OverflowError) as e:
        print(f"powerchains: error: {e}", file=sys.stderr)
        return 2

    start = time.monotonic()
    try:
        result, code = _execute(cfg)
    except (ValueError, OverflowError) as e:
        print(f"powerchains: error: {e}", file=sys.stderr)
        return 2
    duration = time.monotonic() - start

    report = RunReport(cfg, result, duration)
    sys.stdout.write(render(report))
    print(f"powerchains {cfg.command}: completed in {duration:.3f}s",
          file=sys.stderr)
    return code


def entry():  # console-script hook
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
