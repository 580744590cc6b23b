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
are declared in `COMMANDS`.  Each option sets one field of the parsed
namespace, with its default, and the sequence parsers set `ring`;
`_build_config` validates the namespace in place, and the names of `_ECHO`,
in that order, are the config that every output echoes.

Exit codes: 0 affirmative result (chain verified, primes found, hits > 0),
1 negative mathematical result (not a chain, nothing found, candidate not
sum-distinct), 2 malformed input, usage error or memory exhaustion.

Output is table (default), json, or csv (csv only for prime/modulus lists
and density rows, fields quoted per RFC 4180); `--json` is `--format json`,
and of the two the last given wins.  JSON is byte-identical across
runs for a fixed config and version, and across worker counts apart from the
echoed config.workers; wall-clock timing therefore goes to stderr only.  Search and density to limits of 10^7 and
more run on all cores unless --workers says otherwise; shorter ranges run
in one process, where starting a pool costs more than it saves.  Exact
rationals print in full, however many digits they have.

Each command imports the package modules it runs, in the config builder and
its runner, so a run loads no other: `--version` loads none, the F_p[t]
commands leave `chains` and `kummer` out, and only `density` loads `kummer`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import TYPE_CHECKING

from powerchains import __version__
from powerchains.errors import InvalidCandidateError

if TYPE_CHECKING:
    from powerchains import chains, ffield

SCHEMA_VERSION = 1
# search and density below this limit run in one process: on 2 cores a pool
# loses to one process up to about 3*10^6 and wins at 10^7
_SERIAL_LIMIT = 10**7

TABLE, JSON, CSV = "table", "json", "csv"


# the validated inputs of a run that its output echoes, in this order in the
# table; a name the command does not set is left out (workers is set only for
# the commands that scan a range)
_ECHO = ("command", "ring", "format", "characteristic", "k", "modulus", "limit",
         "max_degree", "max_count", "workers", "sequence")


def _settings(cfg: argparse.Namespace) -> dict:
    return {name: _jsonable(v) for name in _ECHO
            if (v := getattr(cfg, name, None)) is not None}


def _jsonable(v):
    if isinstance(v, (list, tuple)):
        return [_jsonable(t) for t in v]
    return v if isinstance(v, (int, str)) else repr(v)  # an FFPoly's repr is its text


def _fraction_text(x) -> str:
    return f"{x.numerator}/{x.denominator}"


# -- sequence parsing -------------------------------------------------------


def parse_int_sequence(text: str) -> list[int]:
    terms = []
    for tok in text.split(","):
        tok = tok.strip()
        try:
            terms.append(int(tok))
        except ValueError:
            raise ValueError(f"invalid integer {tok!r} in sequence") from None
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
    from powerchains import ffield

    terms = []
    for tok in _split_outside_brackets(text):
        f = ffield.poly_from_text(tok.strip())
        if f.p != characteristic:
            raise ValueError(
                f"polynomial {tok.strip()!r} has characteristic {f.p}, "
                f"expected {characteristic}")
        terms.append(f)
    return terms


def _parse_vegh(text: str) -> tuple[int, ...]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"--vegh expects 'm,base', got {text!r}")
    try:
        m, base = int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError(f"--vegh expects integers 'm,base', got {text!r}") from None
    from powerchains import chains

    return chains.vegh_sequence(m, base)


def _tpowers(m: int, p: int) -> list[ffield.FFPoly]:
    from powerchains import _subsets, ffield

    m = _subsets.check_bound(m, "--tpowers")
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
    fmt.add_argument("--json", action="store_const", const=JSON, dest="format",
                     help="shorthand for --format json")

    intseq = argparse.ArgumentParser(add_help=False)
    intseq.set_defaults(ring="integers")
    g = intseq.add_mutually_exclusive_group(required=True)
    g.add_argument("--seq", help="comma-separated signed integers, e.g. 1,2,4")
    g.add_argument("--vegh", metavar="M,BASE",
                   help="geometric candidate 1,base,...,base^(m-1)")

    ffseq = argparse.ArgumentParser(add_help=False)
    ffseq.set_defaults(ring="polynomial")
    g = ffseq.add_mutually_exclusive_group(required=True)
    g.add_argument("--seq", help="comma-separated GF(p)[c0,c1,...] literals")
    g.add_argument("--tpowers", type=int, metavar="M",
                   help="candidate 1,t,...,t^(m-1)")

    k = argparse.ArgumentParser(add_help=False)
    k.add_argument("--k", type=int, required=True)

    char = argparse.ArgumentParser(add_help=False)
    char.add_argument("--char", type=int, required=True, metavar="P",
                      dest="characteristic", help="field characteristic")

    limit = argparse.ArgumentParser(add_help=False)
    limit.add_argument("--limit", type=int, required=True)

    workers = argparse.ArgumentParser(add_help=False)
    workers.add_argument("--workers", type=int, default=os.cpu_count() or 1,
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


def _build_config(cfg: argparse.Namespace) -> None:
    """Validate the parsed options in place: each checked value replaces the
    parsed one, and `sequence` is set (the parser sets `ring` and `format`)."""
    from powerchains import _subsets

    if cfg.format == CSV and COMMANDS[cfg.command][1] is None:
        raise ValueError(f"csv output is not available for {cfg.command}; "
                         f"verdicts are table/json only")
    if hasattr(cfg, "workers"):
        cfg.workers = _subsets.check_bound(cfg.workers, "--workers")

    if hasattr(cfg, "k"):
        cfg.k = _subsets.check_bound(cfg.k, "k")

    if cfg.ring == "integers":
        from powerchains import arith, chains

        cfg.sequence = chains._terms(
            parse_int_sequence(cfg.seq) if cfg.vegh is None else _parse_vegh(cfg.vegh))
        if hasattr(cfg, "modulus"):
            cfg.modulus = arith._as_prime(cfg.modulus)
    else:
        from powerchains import ffield

        p = cfg.characteristic = ffield._check_characteristic(cfg.characteristic)
        if cfg.tpowers is not None:
            cfg.sequence = _tpowers(cfg.tpowers, p)
        else:
            cfg.sequence = parse_poly_sequence(cfg.seq, p)
        if hasattr(cfg, "modulus"):
            f = ffield.poly_from_text(cfg.modulus)
            if f.p != p:
                raise ValueError(f"modulus characteristic {f.p} does not match "
                                 f"--char {p}")
            if not f.is_monic():  # stricter than the library, which scales to monic
                raise ValueError(f"modulus {f!r} is not monic")
            cfg.modulus = ffield._as_modulus(f)

    for name in ("limit", "max_degree", "max_count"):
        if (v := getattr(cfg, name, None)) is not None:
            setattr(cfg, name, _subsets.check_bound(v, f"--{name.replace('_', '-')}"))


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


def _over_range(scan, cfg: argparse.Namespace) -> list:
    """scan(terms, k, lo, hi) over [2, limit] cut into one part per process,
    at most one process per core; the parts' results in range order.  Ranges
    below _SERIAL_LIMIT and a single part run in this process."""
    workers = min(cfg.workers, os.cpu_count() or 1)
    if workers == 1 or cfg.limit < _SERIAL_LIMIT:
        return [scan(cfg.sequence, cfg.k, 2, cfg.limit)]
    # imported here, so a run in one process never loads the pool machinery
    from concurrent.futures import ProcessPoolExecutor

    cuts = [2 + i * (cfg.limit - 1) // workers for i in range(workers + 1)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(scan, [cfg.sequence] * workers, [cfg.k] * workers,
                             cuts[:-1], [cut - 1 for cut in cuts[1:]]))


def _verify(cfg: argparse.Namespace) -> tuple[dict, int]:
    from powerchains import chains

    return _verdict(chains.is_permutation_chain(cfg.sequence, cfg.k, cfg.modulus))


def _candidate_check(cfg: argparse.Namespace) -> tuple[dict, int]:
    from powerchains import chains

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


def _search(cfg: argparse.Namespace) -> tuple[dict, int]:
    from powerchains import chains

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


def _density(cfg: argparse.Namespace) -> tuple[dict, int]:
    from powerchains import chains, kummer

    terms = cfg.sequence
    counts = _over_range(kummer.density_counts_in_range, cfg)
    report = kummer.density_report_from_counts(
        terms, cfg.k, cfg.limit, sum(t for t, _ in counts), sum(h for _, h in counts))
    result = {
        "sum_distinct": bool(chains.is_sum_distinct(terms)),
        "limit": report.limit,
        "total_primes": report.total_primes,
        "hits": report.hits,
        "empirical": _fraction_text(report.empirical),
        "predicted_lower_bound": _fraction_text(report.predicted_lower_bound),
        "exceptional_excluded": list(report.exceptional_excluded),
    }
    return result, 0 if report.hits else 1


def _exceptional(cfg: argparse.Namespace) -> tuple[dict, int]:
    from powerchains import chains

    primes = list(chains.exceptional_primes(cfg.sequence))
    return {"primes": primes, "count": len(primes)}, 0


def _ff_search(cfg: argparse.Namespace) -> tuple[dict, int]:
    from powerchains import ffield

    moduli = ffield.find_chain_irreducibles(
        cfg.sequence, cfg.k, cfg.characteristic, cfg.max_degree)
    result = {
        "moduli": [ffield.poly_to_text(m) for m in moduli],
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
    from powerchains import ffield

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


def _render_table(cfg: argparse.Namespace, result: dict) -> str:
    settings = {key: v for key, v in _settings(cfg).items() if key != "format"}
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


def _render_csv(cfg: argparse.Namespace, result: dict) -> str:
    import csv
    import io

    if "error" in result:
        rows = [("error", "message"), (result["error"], result["message"])]
    else:
        rows = COMMANDS[cfg.command][1](result)
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def render(cfg: argparse.Namespace, result: dict) -> str:
    if cfg.format == JSON:
        # no timing here: identical configs must give byte-identical JSON; a
        # command that scans no range runs in one process
        payload = {"schema_version": SCHEMA_VERSION, "version": __version__,
                   "config": {"workers": 1, **_settings(cfg)}, "result": result}
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if cfg.format == CSV:
        return _render_csv(cfg, result)
    return _render_table(cfg, result)


# -- entry points -----------------------------------------------------------


def main(argv=None) -> int:
    cfg = _build_parser().parse_args(argv)
    digits = sys.get_int_max_str_digits()
    try:
        _build_config(cfg)
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
