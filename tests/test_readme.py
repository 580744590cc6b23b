"""The README's library quick start and command-line examples run as
written.

Each expression statement in the quick start's python blocks carries its
value as a comment, on the same line or the next one; the test computes the
value and compares its repr with that comment, so a change in either shows
here.  Each `powerchains` line of the command-line block runs through
`cli.main` and must exit 0 or 1 (a negative answer), never 2.
"""

import ast
import re
import shlex
from pathlib import Path

from powerchains import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def section(title):
    text = README.read_text().split(f"## {title}\n", 1)[1]
    return text.split("\n## ", 1)[0]


def quick_start_blocks():
    return re.findall(r"```python\n(.*?)```", section("Library quick start"), re.S)


def stated_value(lines, node):
    """The comment after the statement on its last line, or on the next."""
    code, _, comment = lines[node.end_lineno - 1].partition("#")
    if not comment and node.end_lineno < len(lines):
        code, _, comment = lines[node.end_lineno].partition("#")
        assert not code.strip(), lines[node.end_lineno]
    assert comment, f"no value stated for {ast.unparse(node)}"
    return comment.strip()


def test_readme_quick_start_runs_as_written():
    blocks = quick_start_blocks()
    assert len(blocks) == 2
    checked = []
    for block in blocks:
        namespace: dict = {}
        lines = block.splitlines()
        for node in ast.parse(block).body:
            if isinstance(node, ast.Expr):
                value = eval(compile(ast.Expression(node.value), "README.md", "eval"),
                             namespace)
                expected = stated_value(lines, node)
                assert repr(value) == expected, ast.unparse(node)
                checked.append(expected)
            else:
                exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    # the verdict, the five primes, the exceptional primes, the predicted
    # density, the counts, the F_5 modulus and its verdict
    assert len(checked) == 7, checked


def test_readme_cli_examples_run_as_written(capsys):
    block = re.search(r"```\n(powerchains .*?)```", section("Command-line interface"),
                      re.S).group(1)
    lines = block.splitlines()
    # one line per command in the table above the block
    assert len(lines) == 7, lines
    codes = {}
    for line in lines:
        argv = shlex.split(line)
        assert argv[0] == "powerchains", line
        codes[argv[1]] = cli.main(argv[1:])
        assert capsys.readouterr().out
    # 1, 2, 4 is not a chain of squares mod 7, and 1 + 2 = 3 collides
    assert codes == {"verify": 1, "candidate-check": 1, "search": 0, "density": 0,
                     "exceptional": 0, "ff-verify": 0, "ff-search": 0}
