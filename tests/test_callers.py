"""Every function and class in the package has a reader outside the tests.

What only the tests call lives in tests/oracles.py, so the tested code is the
code the pipeline runs.  The check is by name: a definition passes when its
name is read (as a name or an attribute) somewhere in src/amplan or in the
benchmark's perfbench/, outside its own body.  Dunder methods are called by
the language and are skipped.
"""

import ast
import collections
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def names_read(node) -> collections.Counter:
    return collections.Counter(n.id if isinstance(n, ast.Name) else n.attr
                               for n in ast.walk(node)
                               if isinstance(n, (ast.Name, ast.Attribute)))


def test_every_definition_in_src_has_a_reader():
    package = sorted((ROOT / "src" / "amplan").glob("*.py"))
    trees = {path: ast.parse(path.read_text()) for path in
             package + sorted((ROOT / "perfbench").glob("*.py"))}
    read = sum((names_read(tree) for tree in trees.values()), collections.Counter())
    unread = [f"{path.name}:{node.lineno} {node.name}"
              for path in package for node in ast.walk(trees[path])
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("__")
              and read[node.name] <= names_read(node)[node.name]]
    assert not unread, unread
