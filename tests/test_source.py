"""The library carries no private code that only the tests run.

Every private module-level function and private method (``_name``, not a
dunder) of ``src/cechlift/*.py`` must be referenced somewhere in the
library outside its own body, as a name or an attribute.  A helper that
only an oracle or a test reaches belongs with them.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import cechlift

SOURCES = sorted(Path(cechlift.__file__).parent.glob("*.py"))


def _references(node):
    """Counter of the names and attribute names used under ``node``."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
    return out


def _private_definitions(tree):
    """The private module-level functions and methods of a module."""
    for node in tree.body:
        body = node.body if isinstance(node, ast.ClassDef) else [node]
        for fn in body:
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = fn.name
                if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                    yield fn


def test_every_private_function_is_run_by_the_library():
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in SOURCES}
    used = Counter()
    for tree in trees.values():
        used += _references(tree)
    unused = [
        f"{module}:{fn.lineno} {fn.name}"
        for module, tree in trees.items()
        for fn in _private_definitions(tree)
        if used[fn.name] <= _references(fn)[fn.name]
    ]
    assert unused == []
