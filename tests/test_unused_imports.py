"""No module of the package imports a name it never uses.  A name listed in
the module's `__all__` counts as used.  The package's `__init__` is left out:
it imports none of the public names it exports, but loads each from its
module on first access, and builds its `__all__` from that name -> module
table rather than writing it as a literal list.

Nor does the package define a private name that nothing reads: every
module-level name that starts with `_`, or that a `_`-prefixed module
defines (dunders aside), is read somewhere in the package."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "powerchains"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                # `import a.b` binds `a`
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda x: x[1])
            if name not in used]


def test_the_check_sees_an_unused_import():
    assert unused_imports("from dataclasses import dataclass\nimport os\nos.sep\n") == [
        "line 1: dataclass"]
    assert unused_imports("from x import a\n__all__ = ['a']\n") == []


@pytest.mark.parametrize("path", sorted(set(PACKAGE.glob("*.py")) - {PACKAGE / "__init__.py"}),
                         ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """The private module-level names of `sources` (module name -> source)
    that no module reads, as a name, an attribute or an imported name."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        private_module = module.startswith("_") and not module.startswith("__")
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            defined += [(module, node.lineno, name) for name in names
                        if not (name.startswith("__") and name.endswith("__"))
                        and (private_module or name.startswith("_"))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return [f"{module} line {line}: {name}" for module, line, name in defined
            if name not in read]


def test_the_check_sees_an_unread_private_name():
    assert unread_private_names({"a": "def _f(): pass\n_g = 1\nprint(_g)\n"}) == [
        "a line 1: _f"]
    # in a private module every name is private; reads count across modules
    assert unread_private_names({
        "_core": "def helper(): pass\ndef used(): pass\nX: int = 1\n__all__ = []\n",
        "api": "from _core import used\nimport _core\n_core.X\n"}) == [
        "_core line 1: helper"]


def test_package_reads_every_private_name():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert unread_private_names(sources) == []
