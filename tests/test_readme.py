"""The README's library quick start runs as written.

Each expression statement in its python blocks carries its value as a
comment, on the same line or the next one; the test computes the value and
compares its repr with that comment, so a change in either shows here.
"""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start_blocks():
    section = README.read_text().split("## Library quick start\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, re.S)


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
    # density, the counts and the F_5 modulus
    assert len(checked) == 6, checked
