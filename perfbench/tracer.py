"""Run one powerchains CLI job in this process with spans around the calls
into each module's public functions.

    python3 perfbench/tracer.py SPANS_JSON -- CLI_ARG...

The program's source is not touched: the wrappers replace module attributes
after import, so calls between modules, and calls inside a module that go
through its globals, pass through them.  Spans are kept in memory and written
to SPANS_JSON when the job ends, as rows

    [span id, parent id (0 for none), name, start ns, end ns, n, error]

where `n` is a size the span reports (block length, result length, output
bytes; see `install`) and `error` is the exception type name or null.  Stdout
and the exit code are the CLI's own.
"""

from __future__ import annotations

import functools
import json
import sys
import time


class Tracer:
    """Spans of one job, with the stack of spans open at each call."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> list:
        span = [len(self.spans) + 1, self._stack[-1] if self._stack else 0,
                name, time.perf_counter_ns(), 0, None, None]
        self.spans.append(span)
        self._stack.append(span[0])
        return span

    def _close(self, span: list, n=None, error=None) -> None:
        span[4] = time.perf_counter_ns()
        span[5] = n
        span[6] = error
        self._stack.pop()

    def wrap(self, module, attr: str, size=None) -> None:
        """Replace module.attr by a spanning wrapper; `size(args, result)`
        gives the span's n."""
        fn = getattr(module, attr)
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                self._close(span, error=type(e).__name__)
                raise
            self._close(span, size(args, result) if size else None)
            return result

        setattr(module, attr, wrapper)

    def wrap_generator(self, module, attr: str) -> None:
        """Replace a generator function: each step is a span whose n is the
        length of the item it yields, parented to the consumer's span."""
        fn = getattr(module, attr)
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                span = self._open(name)
                try:
                    item = next(it)
                except StopIteration:
                    self._close(span, 0)
                    return
                except BaseException as e:
                    self._close(span, error=type(e).__name__)
                    raise
                self._close(span, len(item))
                yield item

        setattr(module, attr, wrapper)


def _length(args, result):
    return len(result)


def _hits(args, result):
    return result[1]


def _degree_list(args, result):
    p, d = args[0], args[1]
    return [p, d, len(result)]


def _utf8_bytes(args, result):
    return len(result.encode())


def install(tracer: Tracer):
    """Wrap the public functions the per-layer metrics are built from."""
    from powerchains import _subsets, arith, chains, cli, ffield, kummer

    tracer.wrap_generator(arith, "prime_blocks")
    tracer.wrap(arith, "factor")
    tracer.wrap(_subsets, "subset_values", _length)
    tracer.wrap(chains, "is_sum_distinct")
    tracer.wrap(chains, "find_chain_primes", _length)
    tracer.wrap(chains, "chain_primes_in_range", _length)
    tracer.wrap(chains, "exceptional_primes", _length)
    tracer.wrap(kummer, "density_counts_in_range", _hits)
    tracer.wrap(kummer, "class_group")
    tracer.wrap(ffield, "irreducibles_of_degree", _degree_list)
    tracer.wrap(ffield, "is_irreducible")
    tracer.wrap(ffield, "powmod")
    tracer.wrap(ffield, "find_chain_irreducibles", _length)
    tracer.wrap(cli, "render", _utf8_bytes)
    return cli


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS_JSON -- CLI_ARG...", file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    cli = install(tracer)
    try:
        code = cli.main(cli_args)
    except SystemExit as e:  # argparse usage errors
        code = e.code if isinstance(e.code, int) else 2
    finally:
        sys.stdout.flush()
        with open(out_path, "w") as fh:
            json.dump(tracer.spans, fh, separators=(",", ":"))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
