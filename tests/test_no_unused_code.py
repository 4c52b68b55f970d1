"""Every top-level function, class and assignment of the library is used by
the library itself.

A name counts as used when it is read somewhere in src/vcdcycle outside its
own top-level statement, as a bare name or as an attribute (`pt.flip_path`).
Imports do not count, and neither do tests, so code that only a test calls
fails here: it belongs with the test.  Dunder names such as `__version__`
are exempt.
"""

import ast
import os

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "vcdcycle")


def _defined_names(stmt):
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        return [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return [stmt.target.id]
    return []


def _read_names(stmt):
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def unused_definitions(src=SRC):
    """(module file, name) of each top-level definition nothing else reads."""
    defined = []  # (file, name, statement)
    reads = []  # (statement, name)
    for fname in sorted(os.listdir(src)):
        if not fname.endswith(".py"):
            continue
        with open(os.path.join(src, fname)) as fh:
            tree = ast.parse(fh.read(), fname)
        for stmt in tree.body:
            defined.extend((fname, name, stmt) for name in _defined_names(stmt))
            reads.extend((stmt, name) for name in _read_names(stmt))
    return [
        (fname, name)
        for fname, name, stmt in defined
        if not (name.startswith("__") and name.endswith("__"))
        and not any(n == name and s is not stmt for s, n in reads)
    ]


def test_no_unused_library_code():
    assert unused_definitions() == []
